//! PK/FK equi-joins: specification, dimension caching and materialization.
//!
//! The fact table `S` carries one foreign key per dimension table `R_i`
//! (`S.FK_i → R_i.RID`).  [`JoinSpec`] names the participating relations;
//! [`materialize_join`] produces the denormalized table `T` used by the `M-*`
//! algorithms; [`RowSource`] hands the `M-*` and `S-*` learners its rows,
//! joined on the fly (`T` being the fact-only join); [`DimCache`] holds the
//! dimension rows resident in one window of a [`FactorizedScan`] — per
//! dimension the window's decoded block, its key order and a
//! `key → ordinal` index — so foreign keys resolve without re-reading pages
//! for every fact tuple.

use crate::batch::{BlockScan, RowBlock, RowBuf};
use crate::catalog::{Database, RelationHandle};
use crate::error::{StoreError, StoreResult};
use crate::factorized_scan::FactorizedScan;
use crate::schema::{RowKind, Schema};
use fml_linalg::{BlockVec, SparseMode};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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
        Ok(self.feature_partition(db)?.iter().sum())
    }

    /// Per-relation feature sizes `[d_S, d_{R_1}, …, d_{R_q}]` — the block
    /// partition the factorized algorithms operate on.
    pub fn feature_partition(&self, db: &Database) -> StoreResult<Vec<usize>> {
        self.per_relation(db, |s| s.num_features)
    }

    /// Per-relation row forms `[S, R_1, …, R_q]`, in partition order.
    pub fn row_kinds(&self, db: &Database) -> StoreResult<Vec<RowKind>> {
        self.per_relation(db, Schema::row_kind)
    }

    fn per_relation<T>(&self, db: &Database, f: impl Fn(&Schema) -> T) -> StoreResult<Vec<T>> {
        let mut relations = vec![self.fact_relation(db)?];
        relations.extend(self.dimension_relations(db)?);
        Ok(relations.iter().map(|r| f(r.lock().schema())).collect())
    }
}

/// The dimension rows resident in one window of a [`FactorizedScan`]: every
/// dimension table of a star join, or one `block_pages` block of a binary
/// join's `R`.
///
/// Each dimension's rows are held in ascending primary-key order and a
/// row's position in that order is its **ordinal**.  The scan resolves
/// every foreign key to its ordinal once per fact and the trainers index
/// flat per-tuple arenas with it; because ordinals ascend with the key,
/// walking an arena front to back visits the tuples in one fixed order
/// whatever order the relation stores them in.
#[derive(Default)]
pub struct DimCache {
    dims: Vec<DimRows>,
    names: Vec<String>,
}

/// One dimension of a [`DimCache`]; its buffers are refilled per window.
#[derive(Default)]
struct DimRows {
    /// The window's rows, in storage order, decoded in place.
    rows: RowBlock,
    /// Ordinal → row: ascending key, the last-stored row of a repeated key.
    order: Vec<u32>,
    index: KeyIndex,
}

/// `key → ordinal` under [`KeyHasher`]: lookups only, never iterated, so
/// hash order cannot reach any result.
type KeyIndex = HashMap<u64, u32, BuildHasherDefault<KeyHasher>>;

/// A fixed, deterministic hasher for `u64` primary keys: one folded
/// 64 × 64 → 128-bit multiply by an odd constant, which spreads sequential,
/// strided and random keys alike over both the bucket (low) and tag (high)
/// bits.  It trades SipHash's resistance to keys crafted to collide — a
/// stored relation's keys can at worst slow its own lookups — for the
/// largest share of a factorized pass's probe cost.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl DimCache {
    /// An empty cache over the dimensions named `names`, in join order.
    pub(crate) fn new(names: Vec<String>) -> Self {
        let dims = names.iter().map(|_| DimRows::default()).collect();
        Self { dims, names }
    }

    /// This cache with its rows decoded expanded to dense.
    pub(crate) fn expanding(mut self) -> Self {
        for dim in &mut self.dims {
            dim.rows = RowBlock::expanding();
        }
        self
    }

    /// Decodes the next block of `window` as the resident rows of dimension
    /// `i` (none once `window` is done).  A repeated key keeps its
    /// last-stored row (the store does not enforce key uniqueness; last-wins
    /// is what a key-by-key insert gives).
    pub(crate) fn load(&mut self, i: usize, window: &mut BlockScan) -> StoreResult<()> {
        let dim = &mut self.dims[i];
        window.next_into(&mut dim.rows)?;
        let keys = dim.rows.keys();
        let n = u32::try_from(keys.len()).map_err(|_| StoreError::SchemaMismatch {
            relation: self.names[i].clone(),
            detail: format!("{} tuples exceed the u32 ordinal range", keys.len()),
        })?;
        dim.order.clear();
        dim.order.extend(0..n);
        dim.order.sort_unstable_by_key(|&r| (keys[r as usize], r));
        dim.order.dedup_by(|later, kept| {
            let same = keys[*later as usize] == keys[*kept as usize];
            if same {
                *kept = *later;
            }
            same
        });
        dim.index.clear();
        let ords = dim.order.iter().enumerate();
        dim.index
            .extend(ords.map(|(ord, &r)| (keys[r as usize], ord as u32)));
        Ok(())
    }

    /// Number of dimension tables cached.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of rows cached for dimension `i`; ordinals run `0..dim_len(i)`.
    pub fn dim_len(&self, i: usize) -> usize {
        self.dims[i].order.len()
    }

    /// The ordinal of primary key `key` in dimension `i` (`None` also when
    /// there is no dimension `i`).
    pub fn ordinal(&self, i: usize, key: u64) -> Option<u32> {
        self.dims.get(i)?.index.get(&key).copied()
    }

    /// The primary key of dimension `i` at ordinal `ord`.
    ///
    /// # Panics
    /// Panics when `ord >= dim_len(i)`.
    pub fn key(&self, i: usize, ord: u32) -> u64 {
        let dim = &self.dims[i];
        dim.rows.keys()[dim.order[ord as usize] as usize]
    }

    /// The features of dimension `i` at ordinal `ord`, in their stored form.
    ///
    /// # Panics
    /// Panics when `ord >= dim_len(i)`.
    pub fn row(&self, i: usize, ord: u32) -> BlockVec<'_> {
        let dim = &self.dims[i];
        dim.rows.row(dim.order[ord as usize] as usize)
    }

    /// [`Self::row`] expanded to dense, as an owned vector.
    pub fn dense_row(&self, i: usize, ord: u32) -> Vec<f64> {
        let dim = &self.dims[i];
        dim.rows.dense_row(dim.order[ord as usize] as usize)
    }

    /// Number of feature columns of dimension `i`.
    pub(crate) fn width(&self, i: usize) -> usize {
        self.dims[i].rows.width()
    }

    /// Resolves a fact's foreign keys to dimension ordinals, in join order,
    /// into `out` (one slot per dimension — the scan sizes it by the
    /// validated join spec).  A miss is `(dimension, key)` of the first
    /// foreign key with no resident row.
    pub(crate) fn resident_ordinals(
        &self,
        fks: &[u64],
        out: &mut [u32],
    ) -> Result<(), (usize, u64)> {
        for (i, ((fk, slot), dim)) in fks.iter().zip(out).zip(&self.dims).enumerate() {
            *slot = *dim.index.get(fk).ok_or((i, *fk))?;
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
    let (mut rows, mut keys) = (RowBlock::default(), HashSet::<u64>::new());
    let mut dims = BlockScan::new(dim.clone(), crate::DEFAULT_BLOCK_PAGES);
    while dims.next_into(&mut rows)? {
        keys.extend(rows.keys());
    }
    let mut facts = BlockScan::new(fact.clone(), crate::DEFAULT_BLOCK_PAGES);
    while facts.next_into(&mut rows)? {
        let mut fks = (0..rows.len()).map(|r| rows.fks(r)[0]);
        if let Some(key) = fks.find(|fk| !keys.contains(fk)) {
            return Err(StoreError::DanglingForeignKey { relation, key });
        }
    }
    Err(StoreError::SchemaMismatch {
        relation,
        detail: format!("{matched} joined rows for {n} facts: a primary key repeats"),
    })
}

/// Materializes the projected join `T(SID, [Y], [x_S x_R1 … x_Rq])` as a new
/// relation named `output`, returning its handle.  `T` stores every feature
/// group as its relation does ([`Schema::join_result`]), so a sparse join
/// stays sparse on disk.
///
/// The rows are those of one [`FactorizedScan`] pass, in its `(window, fact)`
/// order, each the joined row of the fact block's row and the resident
/// dimension rows, so the join costs the `|R| + ⌈|R|/BlockSize⌉·|S|` page
/// reads of Section V-A (plus `|T|` page writes) and a fact whose foreign
/// key matches no dimension tuple is a typed
/// [`StoreError::DanglingForeignKey`].
pub fn materialize_join(
    db: &Database,
    spec: &JoinSpec,
    output: impl Into<String>,
    block_pages: usize,
) -> StoreResult<RelationHandle> {
    let mut scan = FactorizedScan::new(db, spec, block_pages)?;
    let out_rel = db.create_relation(spec.result_schema(db, output)?)?;
    let mut joined = RowBuf::default();
    while scan.next_window()? {
        while scan.next_block()? {
            let (block, cache) = (scan.block(), scan.cache());
            let rows = block.rows();
            let mut out = out_rel.lock();
            for f in 0..block.len() {
                let row = block.joined_row(f, cache, &mut joined);
                out.append_row(rows.keys()[f], &[], rows.target(f), row)?;
            }
        }
    }
    out_rel.lock().flush()?;
    Ok(out_rel)
}

/// The denormalized rows `T(SID, [Y], [x_S x_R1 … x_Rq])` of a join, one
/// [`FactorizedScan`] pass per [`Self::for_each_row`] — the `M-*` and `S-*`
/// source.  `S` joins the base relations on the fly; `M` reads its
/// materialized table as the fact-only join `JoinSpec::multiway(T, vec![])`
/// (`q = 0`), whose rows are `T`'s in storage order.  Both hand out the same
/// rows in the same `(window, fact)` order and form — the order
/// [`materialize_join`] writes — so `S` fits are bit-identical to `M` fits.
pub struct RowSource<'a> {
    db: &'a Database,
    spec: JoinSpec,
    block_pages: usize,
    width: usize,
    rows: u64,
    mode: SparseMode,
}

impl<'a> RowSource<'a> {
    /// The rows of the join `spec`, denormalized from its relations on every
    /// pass, `block_pages` pages at a time, in their stored form.
    pub fn join(db: &'a Database, spec: JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        let width = spec.total_features(db)?;
        let rows = spec.fact_relation(db)?.lock().num_tuples();
        Ok(Self {
            db,
            spec,
            block_pages,
            width,
            rows,
            mode: SparseMode::Auto,
        })
    }

    /// This source with its rows in `mode`'s form (see
    /// [`FactorizedScan::sparse_mode`]).
    pub fn sparse_mode(self, mode: SparseMode) -> Self {
        Self { mode, ..self }
    }

    /// Rows per pass (`N`).
    pub fn num_rows(&self) -> u64 {
        self.rows
    }

    /// Features per row (`d`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// One pass: `f(features, target)` for every row, in scan order.
    pub fn for_each_row(&self, f: &mut dyn FnMut(BlockVec<'_>, Option<f64>)) -> StoreResult<()> {
        let scan = FactorizedScan::new(self.db, &self.spec, self.block_pages)?;
        let mut scan = scan.sparse_mode(self.mode);
        let mut joined = RowBuf::default();
        while scan.next_window()? {
            while scan.next_block()? {
                let block = scan.block();
                for r in 0..block.len() {
                    let row = block.joined_row(r, scan.cache(), &mut joined);
                    f(row, block.rows().target(r));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    /// A cache over the whole of every relation in `dims`.
    fn load(dims: &[RelationHandle]) -> DimCache {
        let names = dims.iter().map(|d| d.lock().name().to_string()).collect();
        let mut cache = DimCache::new(names);
        for (i, dim) in dims.iter().enumerate() {
            let mut window = BlockScan::new(dim.clone(), usize::MAX);
            cache.load(i, &mut window).unwrap();
        }
        cache
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
        assert!(cache.ordinal(0, 7).is_none());
        let ord = cache.ordinal(0, 2).unwrap();
        assert_eq!(
            (cache.key(0, ord), cache.row(0, ord)),
            (2, BlockVec::Dense(&[20.0, 1.0]))
        );

        let fact = Tuple::fact_with_target(0, vec![3], 0.0, vec![0.0]);
        let resolved = cache.resolve(&fact).unwrap();
        assert_eq!(resolved, [[30.0, 1.0]]);

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
        assert_eq!(
            cache.row(0, cache.ordinal(0, 7).unwrap()),
            BlockVec::Dense(&[3.0])
        );
        for i in 0..2 {
            let keys: Vec<u64> = (0..cache.dim_len(i) as u32)
                .map(|o| cache.key(i, o))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "dim {i}: {keys:?}");
            for (ord, &key) in keys.iter().enumerate() {
                assert_eq!(cache.ordinal(i, key), Some(ord as u32));
            }
        }

        // resolve / resident_ordinals name the same rows
        let fact = Tuple::fact(0, vec![99, 2], vec![]);
        let mut ords = [0u32; 2];
        cache.resident_ordinals(&fact.fks, &mut ords).unwrap();
        assert_eq!(ords, [3, 1]);
        let resolved = cache.resolve(&fact).unwrap();
        for i in 0..2 {
            assert_eq!(cache.dense_row(i, ords[i]), resolved[i]);
        }

        // a dangling key is the same typed error on every path
        let dangling = Tuple::fact(1, vec![40, 6], vec![]);
        assert!(cache.ordinal(1, 6).is_none());
        let (i, key) = cache
            .resident_ordinals(&dangling.fks, &mut ords)
            .unwrap_err();
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
