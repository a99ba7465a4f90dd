//! Row views: the [`Tuple`]-at-a-time face of the block scans.
//!
//! Every scan decodes pages into flat [`RowBlock`]s.  The types here turn
//! those blocks back into owned [`Tuple`]s, features expanded to dense, for
//! the callers that want rows —
//! the load / CSV / test surface — and for the `benchmark/` package's store
//! probes, which bind by path to [`BatchScan`] (a [`BlockScan`] iterated as
//! `Vec<Tuple>` blocks),
//! [`GroupScan`] / [`JoinGroup`], [`StarScan`] and
//! [`DimCache::resolve`].  No engine crate uses them: they cost a `Tuple`
//! (two heap allocations) per row, and exist only until those probes move to
//! [`FactorizedScan`] blocks.

use crate::batch::{BlockScan, RowBlock};
use crate::catalog::RelationHandle;
use crate::error::{StoreError, StoreResult};
use crate::factorized_scan::FactorizedScan;
use crate::join::{DimCache, JoinSpec};
use crate::tuple::Tuple;
use crate::Database;

impl RowBlock {
    /// Row `r` as an owned tuple, its features expanded to dense.
    pub fn tuple(&self, r: usize) -> Tuple {
        Tuple {
            key: self.keys()[r],
            fks: self.fks(r).to_vec(),
            target: self.target(r),
            features: self.dense_row(r),
        }
    }

    /// Every row as an owned tuple.
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|r| self.tuple(r)).collect()
    }
}

/// A [`BlockScan`] iterated as `Vec<Tuple>` blocks — the name the
/// `benchmark/` probes bind to.
pub type BatchScan = BlockScan;

impl Iterator for BlockScan {
    type Item = StoreResult<Vec<Tuple>>;

    /// The next block's rows as tuples; an error is the last item.
    fn next(&mut self) -> Option<Self::Item> {
        let mut rows = RowBlock::expanding();
        let more = self.next_into(&mut rows);
        more.map(|more| more.then(|| rows.tuples())).transpose()
    }
}

/// Scans the whole relation into tuples (tests and small relations).
pub fn scan_all(relation: &RelationHandle, block_pages: usize) -> StoreResult<Vec<Tuple>> {
    let mut out = Vec::new();
    for batch in BatchScan::new(relation.clone(), block_pages) {
        out.extend(batch?);
    }
    Ok(out)
}

impl DimCache {
    /// The feature rows, expanded to dense, of the dimension tuples a fact
    /// tuple references, in join order.
    ///
    /// # Errors
    /// Returns [`StoreError::DanglingForeignKey`] when a foreign key has no match.
    pub fn resolve(&self, fact: &Tuple) -> StoreResult<Vec<Vec<f64>>> {
        (fact.fks.iter().enumerate())
            .map(|(i, &fk)| match self.ordinal(i, fk) {
                Some(ord) => Ok(self.dense_row(i, ord)),
                None => Err(self.dangling(i, fk)),
            })
            .collect()
    }
}

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

    /// Expands the group into denormalized tuples `T(SID, [Y], [x_S x_R])`.
    pub fn denormalize(&self) -> Vec<Tuple> {
        let r = &self.r_tuple.features[..];
        self.s_tuples
            .iter()
            .map(|s| Tuple::joined(s, [r]))
            .collect()
    }
}

/// The group-shaped view of a binary [`FactorizedScan`] pass: per window, the
/// facts bucketed by dimension tuple.  Holds a whole window's facts at once.
pub struct GroupScan {
    scan: FactorizedScan,
    done: bool,
}

impl GroupScan {
    /// Creates a group scan over the binary join `spec`.
    pub fn from_spec(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        if spec.num_dimensions() != 1 {
            return Err(StoreError::SchemaMismatch {
                relation: spec.fact.clone(),
                detail: "GroupScan groups by the one dimension of a binary join".to_string(),
            });
        }
        Ok(Self {
            scan: FactorizedScan::new(db, spec, block_pages)?,
            done: false,
        })
    }

    fn next_window_groups(&mut self) -> StoreResult<Option<Vec<JoinGroup>>> {
        if !self.scan.next_window()? {
            return Ok(None);
        }
        let cache = self.scan.cache();
        let mut groups: Vec<JoinGroup> = (0..cache.dim_len(0) as u32)
            .map(|ord| JoinGroup {
                r_tuple: Tuple::dimension(cache.key(0, ord), cache.dense_row(0, ord)),
                s_tuples: Vec::new(),
            })
            .collect();
        while self.scan.next_block()? {
            let block = self.scan.block();
            for f in 0..block.len() {
                let ord = block.ords_of(f)[0] as usize;
                groups[ord].s_tuples.push(block.rows().tuple(f));
            }
        }
        Ok(Some(groups))
    }
}

impl Iterator for GroupScan {
    type Item = StoreResult<Vec<JoinGroup>>;

    /// The groups of the next window; the pass's error, if any, is the last
    /// item.
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.next_window_groups().transpose();
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
}

/// The first window of a [`FactorizedScan`] pass — for a star join, the whole
/// pass — with the *unresolved* fact blocks beside it.
pub struct StarScan {
    scan: FactorizedScan,
    fact: RelationHandle,
    block_pages: usize,
}

impl StarScan {
    /// Makes the dimension tables of `spec` resident and prepares a fact scan.
    pub fn new(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        let mut scan = FactorizedScan::new(db, spec, block_pages)?;
        scan.next_window()?;
        Ok(Self {
            scan,
            fact: spec.fact_relation(db)?,
            block_pages,
        })
    }

    /// The resident dimension rows.
    pub fn cache(&self) -> &DimCache {
        self.scan.cache()
    }

    /// Iterates over fact-table blocks.  Each block is a `Vec<Tuple>` whose foreign
    /// keys can be resolved against [`Self::cache`].
    pub fn blocks(&self) -> BatchScan {
        BatchScan::new(self.fact.clone(), self.block_pages)
    }

    /// Denormalizes one fact tuple using the cache.
    pub fn denormalize(&self, fact: &Tuple) -> StoreResult<Tuple> {
        let dims = self.cache().resolve(fact)?;
        Ok(Tuple::joined(fact, dims.iter().map(Vec::as_slice)))
    }
}
