//! Join access paths for the streaming (`S-*`) and factorized (`F-*`) algorithms.
//!
//! Two scan shapes are provided:
//!
//! * [`GroupScan`] — for **binary** joins.  The dimension table `R` is read in
//!   blocks; for every block, the fact table `S` is probed for matching tuples
//!   (block-nested-loop by default, optionally through a prebuilt FK hash index).
//!   Each yielded [`JoinGroup`] pairs one `R` tuple with *all* its matching `S`
//!   tuples, which is exactly the unit of reuse the factorized algorithms exploit:
//!   anything that depends only on `x_R` is computed once per group.  A pass
//!   that ends having matched fewer facts than `S` holds ends with a typed
//!   [`crate::StoreError::DanglingForeignKey`] instead of silently dropping them.
//! * [`StarScan`] — for **multi-way** joins.  The dimension tables are cached in
//!   memory ([`DimCache`]) and the fact table is scanned in blocks; per-dimension
//!   reuse is keyed on the dense ordinals the cache resolves each fact tuple's
//!   foreign keys to ([`DimCache::ordinals`]).
//!
//! The streaming variants use the same scans but immediately denormalize each
//! group into joined tuples ([`JoinGroup::denormalize`]), paying the redundant
//! computation the factorized variants avoid.

use crate::batch::BatchScan;
use crate::catalog::RelationHandle;
use crate::error::StoreResult;
use crate::index::HashIndex;
use crate::join::{check_every_fact_matched, DimCache, JoinSpec};
use crate::tuple::Tuple;
use crate::Database;
use std::collections::HashMap;

/// One dimension tuple together with every fact tuple referencing it.
#[derive(Debug, Clone)]
pub struct JoinGroup {
    /// The dimension (`R`) tuple.
    pub r_tuple: Tuple,
    /// All fact (`S`) tuples whose foreign key equals `r_tuple.key`.
    pub s_tuples: Vec<Tuple>,
}

impl JoinGroup {
    /// Number of joined tuples this group expands to.
    pub fn len(&self) -> usize {
        self.s_tuples.len()
    }

    /// Whether the group has no matching fact tuples.
    pub fn is_empty(&self) -> bool {
        self.s_tuples.is_empty()
    }

    /// Expands the group into denormalized tuples `T(SID, [Y], [x_S x_R])`,
    /// duplicating the dimension features once per fact tuple (what the `S-*`
    /// algorithms feed to the unchanged learner).
    pub fn denormalize(&self) -> Vec<Tuple> {
        self.s_tuples
            .iter()
            .map(|s| Tuple::joined(s, &[&self.r_tuple]))
            .collect()
    }
}

/// How `S` is probed for the tuples matching a block of `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// Re-scan the fact table once per `R` block (the paper's default cost model:
    /// `|R| + |R|/BlockSize · |S|` page reads per pass).
    BlockNestedLoop,
    /// Probe a prebuilt foreign-key hash index and fetch only matching pages.
    IndexProbe,
}

/// Block-wise scan of a binary join grouped by dimension tuple.
pub struct GroupScan {
    r: RelationHandle,
    s: RelationHandle,
    fk_column: usize,
    block_pages: usize,
    strategy: ProbeStrategy,
    index: Option<HashIndex>,
    r_scan: BatchScan,
    /// Facts matched so far in this pass; `None` once the end-of-pass check
    /// has run.
    matched: Option<u64>,
}

impl GroupScan {
    /// Creates a group scan over `R ⋈ S` using block-nested-loop probing.
    pub fn new(r: RelationHandle, s: RelationHandle, fk_column: usize, block_pages: usize) -> Self {
        Self {
            r_scan: BatchScan::new(r.clone(), block_pages),
            r,
            s,
            fk_column,
            block_pages,
            strategy: ProbeStrategy::BlockNestedLoop,
            index: None,
            matched: Some(0),
        }
    }

    /// Creates a group scan from a [`JoinSpec`] (must be a binary join).
    pub fn from_spec(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        assert_eq!(
            spec.num_dimensions(),
            1,
            "GroupScan::from_spec requires a binary join; use StarScan for multi-way joins"
        );
        Ok(Self::new(
            db.relation(&spec.dimensions[0])?,
            db.relation(&spec.fact)?,
            0,
            block_pages,
        ))
    }

    /// Switches to index-probe mode using a prebuilt FK index over `S`.
    pub fn with_index(mut self, index: HashIndex) -> Self {
        self.strategy = ProbeStrategy::IndexProbe;
        self.index = Some(index);
        self
    }

    /// The probe strategy in use.
    pub fn strategy(&self) -> ProbeStrategy {
        self.strategy
    }

    /// Restarts the scan from the first `R` block (one training pass = one scan).
    pub fn reset(&mut self) {
        self.r_scan = BatchScan::new(self.r.clone(), self.block_pages);
        self.matched = Some(0);
    }

    fn probe_block(&mut self, r_block: Vec<Tuple>) -> StoreResult<Vec<JoinGroup>> {
        let mut groups: Vec<JoinGroup> = r_block
            .into_iter()
            .map(|r_tuple| JoinGroup {
                r_tuple,
                s_tuples: Vec::new(),
            })
            .collect();
        match self.strategy {
            ProbeStrategy::BlockNestedLoop => {
                let pos: HashMap<u64, usize> = groups
                    .iter()
                    .enumerate()
                    .map(|(i, g)| (g.r_tuple.key, i))
                    .collect();
                for s_batch in BatchScan::new(self.s.clone(), self.block_pages) {
                    for s_tuple in s_batch? {
                        if let Some(&i) = pos.get(&s_tuple.fks[self.fk_column]) {
                            groups[i].s_tuples.push(s_tuple);
                        }
                    }
                }
            }
            ProbeStrategy::IndexProbe => {
                let index = self.index.as_ref().expect("index-probe mode without index");
                for g in &mut groups {
                    g.s_tuples = index.fetch(&self.s, g.r_tuple.key)?;
                }
            }
        }
        if let Some(matched) = &mut self.matched {
            *matched += groups.iter().map(|g| g.len() as u64).sum::<u64>();
        }
        Ok(groups)
    }
}

impl Iterator for GroupScan {
    type Item = StoreResult<Vec<JoinGroup>>;

    /// The next block of groups; after the last block, one `Err` item when
    /// the pass matched a different number of facts than `S` holds (every
    /// consumer normalizes by that count), then `None`.
    fn next(&mut self) -> Option<Self::Item> {
        match self.r_scan.next() {
            Some(Ok(r_block)) => Some(self.probe_block(r_block)),
            Some(Err(e)) => Some(Err(e)),
            None => {
                let matched = self.matched.take()?;
                check_every_fact_matched(&self.r, &self.s, self.fk_column, matched)
                    .err()
                    .map(Err)
            }
        }
    }
}

/// Block-wise scan of a multi-way star join: fact tuples plus a dimension cache.
pub struct StarScan {
    fact: RelationHandle,
    cache: DimCache,
    block_pages: usize,
}

impl StarScan {
    /// Loads the dimension tables of `spec` into memory and prepares a fact scan.
    pub fn new(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        let dims = spec.dimension_relations(db)?;
        let cache = DimCache::load(&dims)?;
        Ok(Self {
            fact: spec.fact_relation(db)?,
            cache,
            block_pages,
        })
    }

    /// The cached dimension tables.
    pub fn cache(&self) -> &DimCache {
        &self.cache
    }

    /// Iterates over fact-table blocks.  Each block is a `Vec<Tuple>` whose foreign
    /// keys can be resolved against [`Self::cache`].
    pub fn blocks(&self) -> BatchScan {
        BatchScan::new(self.fact.clone(), self.block_pages)
    }

    /// Denormalizes one fact tuple using the cache (streaming variants).
    pub fn denormalize(&self, fact: &Tuple) -> StoreResult<Tuple> {
        let dims = self.cache.resolve(fact)?;
        Ok(Tuple::joined(fact, &dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKey;
    use crate::schema::Schema;

    /// 3 dimension tuples, 30 fact tuples, fk = key % 3.
    fn setup() -> (Database, JoinSpec) {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
        let s = db.create_relation(Schema::fact("S", 1, 1)).unwrap();
        for k in 0..3u64 {
            r.lock()
                .append(&Tuple::dimension(k, vec![k as f64, -(k as f64)]))
                .unwrap();
        }
        for i in 0..30u64 {
            s.lock()
                .append(&Tuple::fact(i, vec![i % 3], vec![i as f64]))
                .unwrap();
        }
        r.lock().flush().unwrap();
        s.lock().flush().unwrap();
        (db, JoinSpec::binary("S", "R"))
    }

    #[test]
    fn group_scan_bnl_covers_every_fact_tuple_once() {
        let (db, spec) = setup();
        let scan = GroupScan::from_spec(&db, &spec, 4).unwrap();
        let mut total = 0;
        let mut seen_r = std::collections::HashSet::new();
        for block in scan {
            for g in block.unwrap() {
                assert!(seen_r.insert(g.r_tuple.key));
                assert_eq!(g.len(), 10);
                assert!(!g.is_empty());
                assert!(g.s_tuples.iter().all(|s| s.fks[0] == g.r_tuple.key));
                total += g.len();
            }
        }
        assert_eq!(total, 30);
        assert_eq!(seen_r.len(), 3);
    }

    #[test]
    fn group_scan_index_probe_equivalent_to_bnl() {
        let (db, spec) = setup();
        let collect = |scan: GroupScan| {
            let mut pairs: Vec<(u64, Vec<u64>)> = Vec::new();
            for block in scan {
                for g in block.unwrap() {
                    let mut keys: Vec<u64> = g.s_tuples.iter().map(|t| t.key).collect();
                    keys.sort_unstable();
                    pairs.push((g.r_tuple.key, keys));
                }
            }
            pairs.sort();
            pairs
        };
        let bnl = collect(GroupScan::from_spec(&db, &spec, 2).unwrap());
        let s = db.relation("S").unwrap();
        let idx = HashIndex::build(&s, IndexKey::Foreign(0)).unwrap();
        let ip = collect(GroupScan::from_spec(&db, &spec, 2).unwrap().with_index(idx));
        assert_eq!(bnl, ip);
    }

    #[test]
    fn denormalize_duplicates_dimension_features() {
        let (db, spec) = setup();
        let scan = GroupScan::from_spec(&db, &spec, 8).unwrap();
        for block in scan {
            for g in block.unwrap() {
                for t in g.denormalize() {
                    assert_eq!(t.features.len(), 3);
                    assert_eq!(t.features[1], g.r_tuple.features[0]);
                    assert_eq!(t.features[2], g.r_tuple.features[1]);
                }
            }
        }
    }

    #[test]
    fn group_scan_reset_allows_multiple_passes() {
        let (db, spec) = setup();
        let mut scan = GroupScan::from_spec(&db, &spec, 4).unwrap();
        let first: usize = scan
            .by_ref()
            .map(|b| b.unwrap().iter().map(|g| g.len()).sum::<usize>())
            .sum();
        assert_eq!(first, 30);
        // exhausted now
        assert!(scan.next().is_none());
        scan.reset();
        let second: usize = scan
            .map(|b| b.unwrap().iter().map(|g| g.len()).sum::<usize>())
            .sum();
        assert_eq!(second, 30);
    }

    #[test]
    fn star_scan_resolves_multiway_fks() {
        let db = Database::in_memory();
        let r1 = db.create_relation(Schema::dimension("d1", 1)).unwrap();
        let r2 = db.create_relation(Schema::dimension("d2", 2)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("f", 1, 2))
            .unwrap();
        for k in 0..4u64 {
            r1.lock()
                .append(&Tuple::dimension(k, vec![k as f64]))
                .unwrap();
        }
        for k in 0..2u64 {
            r2.lock()
                .append(&Tuple::dimension(k, vec![10.0 * k as f64, 1.0]))
                .unwrap();
        }
        for i in 0..20u64 {
            s.lock()
                .append(&Tuple::fact_with_target(
                    i,
                    vec![i % 4, i % 2],
                    0.5,
                    vec![i as f64],
                ))
                .unwrap();
        }
        r1.lock().flush().unwrap();
        r2.lock().flush().unwrap();
        s.lock().flush().unwrap();

        let spec = JoinSpec::multiway("f", vec!["d1".into(), "d2".into()]);
        let scan = StarScan::new(&db, &spec, 4).unwrap();
        assert_eq!(scan.cache().num_dims(), 2);
        let mut count = 0;
        for block in scan.blocks() {
            for fact in block.unwrap() {
                let dims = scan.cache().resolve(&fact).unwrap();
                assert_eq!(dims[0].key, fact.fks[0]);
                assert_eq!(dims[1].key, fact.fks[1]);
                let joined = scan.denormalize(&fact).unwrap();
                assert_eq!(joined.features.len(), 4);
                count += 1;
            }
        }
        assert_eq!(count, 20);
    }

    #[test]
    fn group_scan_ends_with_the_dangling_key_under_both_probe_strategies() {
        let (db, spec) = setup();
        let s = db.relation("S").unwrap();
        s.lock()
            .append(&Tuple::fact(99, vec![41], vec![0.0]))
            .unwrap();
        s.lock().flush().unwrap();
        let idx = HashIndex::build(&s, IndexKey::Foreign(0)).unwrap();
        for mut scan in [
            GroupScan::from_spec(&db, &spec, 1).unwrap(),
            GroupScan::from_spec(&db, &spec, 1).unwrap().with_index(idx),
        ] {
            for pass in 0..2 {
                let items: Vec<_> = scan.by_ref().collect();
                let (last, blocks) = items.split_last().unwrap();
                let matched: usize = blocks
                    .iter()
                    .map(|b| {
                        b.as_ref()
                            .unwrap()
                            .iter()
                            .map(JoinGroup::len)
                            .sum::<usize>()
                    })
                    .sum();
                assert_eq!(
                    matched, 30,
                    "pass {pass}: the matching facts are still yielded"
                );
                assert!(
                    matches!(last, Err(crate::StoreError::DanglingForeignKey { relation, key: 41 }) if relation == "R"),
                    "pass {pass}: {last:?}"
                );
                assert!(scan.next().is_none(), "the error is reported once");
                scan.reset();
            }
        }
    }

    #[test]
    fn group_scan_io_cost_matches_bnl_formula() {
        let (db, spec) = setup();
        let r_pages = db.relation("R").unwrap().lock().num_pages();
        let s_pages = db.relation("S").unwrap().lock().num_pages();
        db.stats().reset();
        let scan = GroupScan::from_spec(&db, &spec, 1).unwrap();
        for block in scan {
            block.unwrap();
        }
        let reads = db.stats().snapshot().pages_read as usize;
        assert_eq!(reads, r_pages + r_pages * s_pages);
    }
}
