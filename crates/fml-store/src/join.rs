//! PK/FK equi-joins: specification, dimension caching and materialization.
//!
//! The fact table `S` carries one foreign key per dimension table `R_i`
//! (`S.FK_i → R_i.RID`).  [`JoinSpec`] names the participating relations;
//! [`materialize_join`] produces the denormalized table `T` used by the `M-*`
//! algorithms; [`DimCache`] holds the dimension tuples resident in one window
//! of a [`FactorizedScan`] so foreign keys resolve without re-reading pages
//! for every fact tuple.

use crate::batch::BatchScan;
use crate::catalog::{Database, RelationHandle};
use crate::error::{StoreError, StoreResult};
use crate::factorized_scan::FactorizedScan;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::{HashMap, HashSet};

/// Names the relations participating in a star join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Fact relation `S` (holds the foreign keys and, for NN training, the target).
    pub fact: String,
    /// Dimension relations `R_1 … R_q`; `S.FK_i` references `dimensions[i]`.
    pub dimensions: Vec<String>,
}

impl JoinSpec {
    /// Binary join `R ⋈ S`.
    pub fn binary(fact: impl Into<String>, dimension: impl Into<String>) -> Self {
        Self {
            fact: fact.into(),
            dimensions: vec![dimension.into()],
        }
    }

    /// Multi-way join `R_1 ⋈ … ⋈ R_q ⋈ S`.
    pub fn multiway(fact: impl Into<String>, dimensions: Vec<String>) -> Self {
        Self {
            fact: fact.into(),
            dimensions,
        }
    }

    /// Number of dimension tables (`q`).
    pub fn num_dimensions(&self) -> usize {
        self.dimensions.len()
    }

    /// Resolves the fact relation handle.
    pub fn fact_relation(&self, db: &Database) -> StoreResult<RelationHandle> {
        db.relation(&self.fact)
    }

    /// Resolves all dimension relation handles, in join order.
    pub fn dimension_relations(&self, db: &Database) -> StoreResult<Vec<RelationHandle>> {
        self.dimensions.iter().map(|d| db.relation(d)).collect()
    }

    /// Validates that the relations exist and the fact table has one foreign key
    /// per dimension table.
    pub fn validate(&self, db: &Database) -> StoreResult<()> {
        let fact = self.fact_relation(db)?;
        let nfk = fact.lock().schema().num_foreign_keys;
        if nfk != self.dimensions.len() {
            return Err(StoreError::SchemaMismatch {
                relation: self.fact.clone(),
                detail: format!(
                    "fact table has {} foreign keys but the join names {} dimension tables",
                    nfk,
                    self.dimensions.len()
                ),
            });
        }
        for d in &self.dimensions {
            db.relation(d)?;
        }
        Ok(())
    }

    /// Schema of the materialized join result.
    pub fn result_schema(&self, db: &Database, name: impl Into<String>) -> StoreResult<Schema> {
        let fact = self.fact_relation(db)?;
        let dims = self.dimension_relations(db)?;
        let dim_schemas: Vec<Schema> = dims.iter().map(|d| d.lock().schema().clone()).collect();
        let dim_refs: Vec<&Schema> = dim_schemas.iter().collect();
        let fact_guard = fact.lock();
        Ok(fact_guard.schema().join_result(name, &dim_refs))
    }

    /// Total feature dimensionality `d = d_S + Σ d_{R_i}` of the joined tuples.
    pub fn total_features(&self, db: &Database) -> StoreResult<usize> {
        let fact = self.fact_relation(db)?;
        let dims = self.dimension_relations(db)?;
        let mut d = fact.lock().schema().num_features;
        for dim in dims {
            d += dim.lock().schema().num_features;
        }
        Ok(d)
    }

    /// Per-relation feature sizes `[d_S, d_{R_1}, …, d_{R_q}]` — the block
    /// partition the factorized algorithms operate on.
    pub fn feature_partition(&self, db: &Database) -> StoreResult<Vec<usize>> {
        let fact = self.fact_relation(db)?;
        let dims = self.dimension_relations(db)?;
        let mut sizes = vec![fact.lock().schema().num_features];
        for dim in dims {
            sizes.push(dim.lock().schema().num_features);
        }
        Ok(sizes)
    }
}

/// The dimension tuples resident in one window of a [`FactorizedScan`]: every
/// dimension table of a star join, or one `block_pages` block of a binary
/// join's `R`.
///
/// Each dimension's tuples are held in ascending primary-key order and a
/// tuple's position in that order is its **ordinal**.  The scan resolves
/// every foreign key to its ordinal once per fact and the trainers index
/// flat per-tuple arenas with it; because ordinals ascend with the key,
/// walking an arena front to back visits the tuples in one fixed order
/// whatever order the relation stores them in.
#[derive(Default)]
pub struct DimCache {
    /// Per dimension: tuples in ascending key order.
    tuples: Vec<Vec<Tuple>>,
    /// Per dimension: primary key → ordinal.
    index: Vec<HashMap<u64, u32>>,
    names: Vec<String>,
}

impl DimCache {
    /// Builds the cache over `tuples[i]`, the resident tuples of the dimension
    /// named `names[i]`, in any order.
    pub fn new(names: Vec<String>, mut tuples: Vec<Vec<Tuple>>) -> StoreResult<Self> {
        let mut index = Vec::with_capacity(tuples.len());
        for (name, tuples) in names.iter().zip(&mut tuples) {
            // Stable sort, then keep the last-stored tuple of a repeated key
            // (the store does not enforce key uniqueness; last-wins is what
            // a key-by-key insert gives).
            tuples.sort_by_key(|t| t.key);
            tuples.dedup_by(|later, kept| {
                let same = later.key == kept.key;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
            if u32::try_from(tuples.len()).is_err() {
                return Err(StoreError::SchemaMismatch {
                    relation: name.clone(),
                    detail: format!("{} tuples exceed the u32 ordinal range", tuples.len()),
                });
            }
            index.push(
                tuples
                    .iter()
                    .enumerate()
                    .map(|(ord, t)| (t.key, ord as u32))
                    .collect(),
            );
        }
        Ok(Self {
            tuples,
            index,
            names,
        })
    }

    /// Number of dimension tables cached.
    pub fn num_dims(&self) -> usize {
        self.tuples.len()
    }

    /// Number of tuples cached for dimension `i`; ordinals run `0..dim_len(i)`.
    pub fn dim_len(&self, i: usize) -> usize {
        self.tuples[i].len()
    }

    /// The ordinal of primary key `key` in dimension `i` (`None` also when
    /// there is no dimension `i`).
    pub fn ordinal(&self, i: usize, key: u64) -> Option<u32> {
        self.index.get(i)?.get(&key).copied()
    }

    /// The tuple of dimension `i` at ordinal `ord`.
    ///
    /// # Panics
    /// Panics when `ord >= dim_len(i)`.
    pub fn tuple(&self, i: usize, ord: u32) -> &Tuple {
        &self.tuples[i][ord as usize]
    }

    /// Looks up dimension `i` by primary key.
    pub fn get(&self, i: usize, key: u64) -> Option<&Tuple> {
        self.ordinal(i, key).map(|ord| self.tuple(i, ord))
    }

    /// Iterates over all tuples of dimension `i` in ascending key order.
    pub fn iter_dim(&self, i: usize) -> impl Iterator<Item = &Tuple> {
        self.tuples[i].iter()
    }

    /// Resolves the foreign keys of a fact tuple to dimension ordinals, in
    /// join order, into `out` (one slot per dimension — the scan sizes it by
    /// the validated join spec).  A miss is `(dimension, key)` of the first
    /// foreign key with no resident tuple.
    pub(crate) fn resident_ordinals(
        &self,
        fact: &Tuple,
        out: &mut [u32],
    ) -> Result<(), (usize, u64)> {
        for (i, ((fk, slot), index)) in fact.fks.iter().zip(out).zip(&self.index).enumerate() {
            *slot = *index.get(fk).ok_or((i, *fk))?;
        }
        Ok(())
    }

    /// The typed error of foreign key `key` matching no tuple of dimension `i`.
    pub(crate) fn dangling(&self, i: usize, key: u64) -> StoreError {
        StoreError::DanglingForeignKey {
            relation: self.names.get(i).cloned().unwrap_or_default(),
            key,
        }
    }

    /// Resolves the dimension tuples referenced by a fact tuple, in join order.
    ///
    /// # Errors
    /// Returns [`StoreError::DanglingForeignKey`] when a foreign key has no match.
    pub fn resolve<'a>(&'a self, fact: &Tuple) -> StoreResult<Vec<&'a Tuple>> {
        fact.fks
            .iter()
            .enumerate()
            .map(|(i, fk)| self.get(i, *fk).ok_or_else(|| self.dangling(i, *fk)))
            .collect()
    }

    /// The denormalized tuple `T(SID, [Y], [x_S x_R1 … x_Rq])` of `fact`,
    /// whose foreign keys resolved to `ords`.
    pub fn denormalize(&self, fact: &Tuple, ords: &[u32]) -> Tuple {
        let dims = ords.iter().enumerate();
        Tuple::joined(fact, dims.map(|(i, &ord)| self.tuple(i, ord)))
    }
}

/// End-of-pass check of a join whose dimension was resident one window at a
/// time: `matched` joined rows were produced for the facts of `fact`.  Every
/// consumer normalizes by the fact count, so a fact whose foreign key matches
/// no `dim` tuple must not vanish silently.  Free when the counts agree;
/// otherwise one extra scan of both relations names the first unmatched key.
pub(crate) fn check_every_fact_matched(
    dim: &RelationHandle,
    fact: &RelationHandle,
    matched: u64,
) -> StoreResult<()> {
    let n = fact.lock().num_tuples();
    if matched == n {
        return Ok(());
    }
    let relation = dim.lock().name().to_string();
    let mut keys = HashSet::new();
    for batch in BatchScan::new(dim.clone(), crate::DEFAULT_BLOCK_PAGES) {
        keys.extend(batch?.iter().map(|t| t.key));
    }
    for batch in BatchScan::new(fact.clone(), crate::DEFAULT_BLOCK_PAGES) {
        if let Some(t) = batch?.iter().find(|t| !keys.contains(&t.fks[0])) {
            return Err(StoreError::DanglingForeignKey {
                relation,
                key: t.fks[0],
            });
        }
    }
    Err(StoreError::SchemaMismatch {
        relation,
        detail: format!("{matched} joined rows for {n} facts: a primary key repeats"),
    })
}

/// Materializes the projected join `T(SID, [Y], [x_S x_R1 … x_Rq])` as a new
/// relation named `output`, returning its handle.
///
/// The rows are those of one [`FactorizedScan`] pass, in its `(window, fact)`
/// order, so the join costs the `|R| + ⌈|R|/BlockSize⌉·|S|` page reads of
/// Section V-A (plus `|T|` page writes) and a fact whose foreign key matches
/// no dimension tuple is a typed [`StoreError::DanglingForeignKey`].
pub fn materialize_join(
    db: &Database,
    spec: &JoinSpec,
    output: impl Into<String>,
    block_pages: usize,
) -> StoreResult<RelationHandle> {
    let mut scan = FactorizedScan::new(db, spec, block_pages)?;
    let out_rel = db.create_relation(spec.result_schema(db, output)?)?;
    while scan.next_window()? {
        while let Some(block) = scan.next_block()? {
            let mut out = out_rel.lock();
            for joined in block.denormalize(scan.cache()) {
                out.append(&joined)?;
            }
        }
    }
    out_rel.lock().flush()?;
    Ok(out_rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// A cache over the whole of every relation in `dims`.
    fn load(dims: &[RelationHandle]) -> DimCache {
        let names = dims.iter().map(|d| d.lock().name().to_string()).collect();
        let tuples = dims.iter().map(|d| d.lock().read_all().unwrap()).collect();
        DimCache::new(names, tuples).unwrap()
    }

    /// Builds a tiny star schema: 4 dimension tuples, 12 fact tuples.
    fn star(db: &Database) -> JoinSpec {
        let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("S", 1, 1))
            .unwrap();
        {
            let mut r = r.lock();
            for k in 0..4u64 {
                r.append(&Tuple::dimension(k, vec![k as f64 * 10.0, 1.0]))
                    .unwrap();
            }
            r.flush().unwrap();
        }
        {
            let mut s = s.lock();
            for i in 0..12u64 {
                s.append(&Tuple::fact_with_target(
                    i,
                    vec![i % 4],
                    i as f64,
                    vec![i as f64],
                ))
                .unwrap();
            }
            s.flush().unwrap();
        }
        JoinSpec::binary("S", "R")
    }

    #[test]
    fn spec_validation() {
        let db = Database::in_memory();
        let spec = star(&db);
        assert!(spec.validate(&db).is_ok());
        assert_eq!(spec.num_dimensions(), 1);
        assert_eq!(spec.total_features(&db).unwrap(), 3);
        assert_eq!(spec.feature_partition(&db).unwrap(), vec![1, 2]);

        let bad = JoinSpec::binary("S", "missing");
        assert!(bad.validate(&db).is_err());
        let wrong_arity = JoinSpec::multiway("S", vec!["R".into(), "R".into()]);
        assert!(wrong_arity.validate(&db).is_err());
    }

    #[test]
    fn materialize_binary_join_produces_every_fact_tuple_once() {
        let db = Database::in_memory();
        let spec = star(&db);
        let t = materialize_join(&db, &spec, "T", 4).unwrap();
        let mut t_rel = t.lock();
        assert_eq!(t_rel.num_tuples(), 12);
        let schema = t_rel.schema().clone();
        assert_eq!(schema.num_features, 3);
        assert_eq!(schema.num_foreign_keys, 0);
        assert!(schema.has_target);
        let tuples = t_rel.read_all().unwrap();
        // every joined tuple carries the dimension features of its fk
        for t in &tuples {
            let fk = (t.features[0] as u64) % 4;
            assert_eq!(t.features[1], fk as f64 * 10.0);
            assert_eq!(t.features[2], 1.0);
            assert_eq!(t.target, Some(t.features[0]));
        }
        // keys unique
        let keys: std::collections::HashSet<u64> = tuples.iter().map(|t| t.key).collect();
        assert_eq!(keys.len(), 12);
    }

    #[test]
    fn materialize_multiway_join() {
        let db = Database::in_memory();
        let r1 = db.create_relation(Schema::dimension("users", 2)).unwrap();
        let r2 = db.create_relation(Schema::dimension("movies", 3)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("ratings", 1, 2))
            .unwrap();
        for k in 0..5u64 {
            r1.lock()
                .append(&Tuple::dimension(k, vec![k as f64, 0.0]))
                .unwrap();
        }
        for k in 0..3u64 {
            r2.lock()
                .append(&Tuple::dimension(k, vec![0.0, k as f64, 1.0]))
                .unwrap();
        }
        for i in 0..30u64 {
            s.lock()
                .append(&Tuple::fact_with_target(
                    i,
                    vec![i % 5, i % 3],
                    1.0,
                    vec![i as f64],
                ))
                .unwrap();
        }
        r1.lock().flush().unwrap();
        r2.lock().flush().unwrap();
        s.lock().flush().unwrap();

        let spec = JoinSpec::multiway("ratings", vec!["users".into(), "movies".into()]);
        let t = materialize_join(&db, &spec, "T", 8).unwrap();
        let mut t = t.lock();
        assert_eq!(t.num_tuples(), 30);
        assert_eq!(t.schema().num_features, 6);
        let rows = t.read_all().unwrap();
        for row in rows {
            let i = row.features[0] as u64;
            assert_eq!(row.features[1], (i % 5) as f64); // users feature 0
            assert_eq!(row.features[4], (i % 3) as f64); // movies feature 1
        }
    }

    #[test]
    fn dangling_fk_detected_in_multiway() {
        let db = Database::in_memory();
        let r1 = db.create_relation(Schema::dimension("d1", 1)).unwrap();
        let r2 = db.create_relation(Schema::dimension("d2", 1)).unwrap();
        let s = db.create_relation(Schema::fact("f", 1, 2)).unwrap();
        r1.lock().append(&Tuple::dimension(0, vec![0.0])).unwrap();
        r2.lock().append(&Tuple::dimension(0, vec![0.0])).unwrap();
        s.lock()
            .append(&Tuple::fact(0, vec![0, 99], vec![1.0]))
            .unwrap();
        r1.lock().flush().unwrap();
        r2.lock().flush().unwrap();
        s.lock().flush().unwrap();
        let spec = JoinSpec::multiway("f", vec!["d1".into(), "d2".into()]);
        let err = materialize_join(&db, &spec, "T", 4).unwrap_err();
        assert!(matches!(
            err,
            StoreError::DanglingForeignKey { key: 99, .. }
        ));
    }

    #[test]
    fn dangling_fk_detected_in_binary() {
        let db = Database::in_memory();
        let spec = star(&db);
        let s = db.relation("S").unwrap();
        s.lock()
            .append(&Tuple::fact_with_target(50, vec![17], 0.0, vec![0.0]))
            .unwrap();
        s.lock().flush().unwrap();
        let err = materialize_join(&db, &spec, "T", 1).unwrap_err();
        assert!(
            matches!(&err, StoreError::DanglingForeignKey { relation, key: 17 } if relation == "R"),
            "{err}"
        );
    }

    #[test]
    fn dim_cache_resolution() {
        let db = Database::in_memory();
        let spec = star(&db);
        let dims = spec.dimension_relations(&db).unwrap();
        let cache = load(&dims);
        assert_eq!(cache.num_dims(), 1);
        assert_eq!(cache.dim_len(0), 4);
        assert!(cache.get(0, 2).is_some());
        assert!(cache.get(0, 7).is_none());
        assert_eq!(cache.iter_dim(0).count(), 4);

        let fact = Tuple::fact_with_target(0, vec![3], 0.0, vec![0.0]);
        let resolved = cache.resolve(&fact).unwrap();
        assert_eq!(resolved[0].key, 3);

        let dangling = Tuple::fact_with_target(0, vec![9], 0.0, vec![0.0]);
        assert!(cache.resolve(&dangling).is_err());
    }

    #[test]
    fn ordinals_ascend_with_the_key_whatever_the_storage_order() {
        let db = Database::in_memory();
        let stored = [[40u64, 7, 99, 7, 3], [5, 4, 3, 2, 1]];
        let mut dims = Vec::new();
        for (i, keys) in stored.iter().enumerate() {
            let rel = db
                .create_relation(Schema::dimension(format!("d{i}"), 1))
                .unwrap();
            for (pos, &k) in keys.iter().enumerate() {
                rel.lock()
                    .append(&Tuple::dimension(k, vec![pos as f64]))
                    .unwrap();
            }
            rel.lock().flush().unwrap();
            dims.push(rel);
        }
        let cache = load(&dims);
        // key 7 is stored twice in d0: one ordinal, the later tuple wins
        assert_eq!(cache.dim_len(0), 4);
        assert_eq!(cache.get(0, 7).unwrap().features, vec![3.0]);
        for i in 0..2 {
            let keys: Vec<u64> = cache.iter_dim(i).map(|t| t.key).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "dim {i}: {keys:?}");
            for (ord, &key) in keys.iter().enumerate() {
                assert_eq!(cache.ordinal(i, key), Some(ord as u32));
                assert_eq!(cache.tuple(i, ord as u32).key, key);
            }
        }

        // get / resolve / resident_ordinals name the same tuples
        let fact = Tuple::fact(0, vec![99, 2], vec![]);
        let mut ords = [0u32; 2];
        cache.resident_ordinals(&fact, &mut ords).unwrap();
        assert_eq!(ords, [3, 1]);
        let resolved = cache.resolve(&fact).unwrap();
        for i in 0..2 {
            let by_ordinal = cache.tuple(i, ords[i]);
            assert!(std::ptr::eq(by_ordinal, resolved[i]));
            assert!(std::ptr::eq(by_ordinal, cache.get(i, fact.fks[i]).unwrap()));
        }

        // a dangling key is the same typed error on every path
        let dangling = Tuple::fact(1, vec![40, 6], vec![]);
        assert!(cache.get(1, 6).is_none() && cache.ordinal(1, 6).is_none());
        let (i, key) = cache.resident_ordinals(&dangling, &mut ords).unwrap_err();
        for err in [
            cache.dangling(i, key),
            cache.resolve(&dangling).map(|_| ()).unwrap_err(),
        ] {
            assert!(
                matches!(&err, StoreError::DanglingForeignKey { relation, key: 6 } if relation == "d1"),
                "{err}"
            );
        }
    }

    #[test]
    fn materialized_join_page_cost_follows_bnl_shape() {
        // With R as outer in blocks, S is re-scanned ceil(|R|/block) times.
        let db = Database::in_memory();
        let spec = star(&db);
        let r_pages = db.relation("R").unwrap().lock().num_pages();
        let s_pages = db.relation("S").unwrap().lock().num_pages();
        db.stats().reset();
        let t = materialize_join(&db, &spec, "T", 1).unwrap();
        let t_pages = t.lock().num_pages();
        let snap = db.stats().snapshot();
        let expected_reads = r_pages + r_pages.div_ceil(1) * s_pages;
        assert_eq!(snap.pages_read as usize, expected_reads);
        assert_eq!(snap.pages_written as usize, t_pages);
    }
}
