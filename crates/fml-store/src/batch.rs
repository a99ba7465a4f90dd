//! Block-wise scans over a single relation, decoded into flat buffers.
//!
//! A "block" is a fixed number of pages read together, mirroring the
//! block-nested-loop reading pattern the paper's cost analysis assumes
//! (`BlockSize` pages of the outer relation per probe pass over the inner one).
//!
//! A [`BlockScan`] decodes each block straight from the borrowed page bytes
//! into a [`RowBlock`] the caller owns and reuses: struct-of-arrays buffers of
//! keys, foreign keys, targets and row-major features, whose capacity is kept
//! from block to block, so a scan allocates nothing per page or per record.
//! [`Relation::decode_page_into`] is the store's one record decoder; every
//! read path — the scans, [`Relation::fetch`], the factorized join — goes
//! through it.
//!
//! [`BatchScan`] (a block scan iterated as `Vec<Tuple>` blocks) and
//! [`scan_all`] are its row views (see [`crate::rows`]).

use crate::catalog::RelationHandle;
use crate::error::{StoreError, StoreResult};
use crate::page::PageRef;
use crate::schema::Schema;
#[cfg(doc)]
use crate::Relation;
use std::ops::Range;

pub use crate::rows::{scan_all, BatchScan};

/// Decoded records of one relation in struct-of-arrays form: row `r` is
/// `keys()[r]`, [`Self::fks`]`(r)`, [`Self::target`]`(r)` and
/// [`Self::features`]`(r)`, all in storage order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBlock {
    keys: Vec<u64>,
    /// `n × q`, row-major.
    fks: Vec<u64>,
    /// One per row when the schema has a target, empty otherwise.
    targets: Vec<f64>,
    /// `n × d`, row-major.
    features: Vec<f64>,
    q: usize,
    d: usize,
}

impl RowBlock {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The primary keys, one per row.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The `q` foreign keys of row `r`.
    pub fn fks(&self, r: usize) -> &[u64] {
        &self.fks[r * self.q..(r + 1) * self.q]
    }

    /// The target of row `r` (`None` when the relation has none).
    pub fn target(&self, r: usize) -> Option<f64> {
        self.targets.get(r).copied()
    }

    /// The `d` features of row `r`.
    pub fn features(&self, r: usize) -> &[f64] {
        &self.features[r * self.d..(r + 1) * self.d]
    }

    /// Keeps the first `n` rows.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.keys.truncate(n);
        self.fks.truncate(n * self.q);
        self.targets.truncate(n);
        self.features.truncate(n * self.d);
    }

    /// Moves row `from` to position `to < from`, overwriting it.
    pub(crate) fn move_row(&mut self, from: usize, to: usize) {
        let (q, d) = (self.q, self.d);
        self.keys[to] = self.keys[from];
        self.fks.copy_within(from * q..(from + 1) * q, to * q);
        if let Some(&y) = self.targets.get(from) {
            self.targets[to] = y;
        }
        self.features.copy_within(from * d..(from + 1) * d, to * d);
    }

    /// Makes room for `rows` more rows of `schema` in one step, so a scan's
    /// buffers take their size from its first block and keep it.
    fn reserve(&mut self, rows: usize, schema: &Schema) {
        self.keys.reserve_exact(rows);
        self.fks.reserve_exact(rows * schema.num_foreign_keys);
        self.targets
            .reserve_exact(rows * usize::from(schema.has_target));
        self.features.reserve_exact(rows * schema.num_features);
    }

    /// Appends the records of `page` in `slots`, decoded as `schema` lays
    /// them out.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] naming the relation when the page's record
    /// size is not the schema's: its fields would decode from the wrong
    /// offsets.
    pub(crate) fn decode(
        &mut self,
        schema: &Schema,
        page: PageRef<'_>,
        slots: Range<usize>,
    ) -> StoreResult<()> {
        let rs = schema.record_size();
        if page.record_size() != rs {
            return Err(StoreError::Corrupt(format!(
                "page of relation '{}' holds {}-byte records, its schema {rs}-byte ones",
                schema.name,
                page.record_size()
            )));
        }
        let (q, d) = (schema.num_foreign_keys, schema.num_features);
        (self.q, self.d) = (q, d);
        let head = 8 * (1 + q + usize::from(schema.has_target));
        for record in page.records()[slots.start * rs..slots.end * rs].chunks_exact(rs) {
            let (head, features) = record.split_at(head);
            let mut words = head.chunks_exact(8).map(le_word);
            self.keys.extend(words.next());
            self.fks.extend(words.by_ref().take(q));
            self.targets.extend(words.map(f64::from_bits));
            let features = features.chunks_exact(8);
            self.features
                .extend(features.map(|w| f64::from_bits(le_word(w))));
        }
        Ok(())
    }
}

/// One little-endian 8-byte field.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// A relation scanned in blocks of `block_pages` pages.
pub struct BlockScan {
    relation: RelationHandle,
    block_pages: usize,
    next_page: usize,
    total_pages: usize,
}

impl BlockScan {
    /// Creates a scan over `relation` reading `block_pages` pages per step.
    pub fn new(relation: RelationHandle, block_pages: usize) -> Self {
        let total_pages = relation.lock().num_pages();
        Self {
            relation,
            block_pages: block_pages.max(1),
            next_page: 0,
            total_pages,
        }
    }

    /// Number of blocks this scan will yield.
    pub fn num_blocks(&self) -> usize {
        self.total_pages.div_ceil(self.block_pages)
    }

    /// Pages per block.
    pub fn block_pages(&self) -> usize {
        self.block_pages
    }

    /// Whether every block has been handed out.
    pub(crate) fn is_done(&self) -> bool {
        self.next_page >= self.total_pages
    }

    /// Replaces the rows of `out` with the next block; `false` (and `out`
    /// empty) once the scan is over.  An error ends the scan.
    pub fn next_into(&mut self, out: &mut RowBlock) -> StoreResult<bool> {
        out.truncate(0);
        if self.is_done() {
            return Ok(false);
        }
        let end = (self.next_page + self.block_pages).min(self.total_pages);
        let pages = self.next_page..end;
        self.next_page = self.total_pages; // poisoned until the block decodes
        let mut rel = self.relation.lock();
        out.reserve(pages.len() * rel.tuples_per_page(), rel.schema());
        for p in pages {
            rel.decode_page_into(p, out)?;
        }
        self.next_page = end;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::tuple::Tuple;

    fn build(n: u64) -> (Database, RelationHandle) {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("r", 8)).unwrap();
        {
            let mut rel = r.lock();
            for i in 0..n {
                rel.append(&Tuple::dimension(i, vec![i as f64; 8])).unwrap();
            }
            rel.flush().unwrap();
        }
        (db, r)
    }

    #[test]
    fn scan_covers_every_tuple_once() {
        let (_db, r) = build(3000);
        let mut seen = 0u64;
        let mut keys = std::collections::HashSet::new();
        for batch in BatchScan::new(r.clone(), 2) {
            let batch = batch.unwrap();
            seen += batch.len() as u64;
            for t in &batch {
                assert!(keys.insert(t.key), "duplicate key {}", t.key);
            }
        }
        assert_eq!(seen, 3000);
        assert_eq!(keys.len(), 3000);
    }

    #[test]
    fn block_size_controls_batches() {
        let (_db, r) = build(3000);
        let pages = r.lock().num_pages();
        let scan = BatchScan::new(r.clone(), 1);
        assert_eq!(scan.num_blocks(), pages);
        assert_eq!(scan.count(), pages);

        let scan = BatchScan::new(r.clone(), usize::MAX);
        assert_eq!(scan.num_blocks(), 1);
        let batches: Vec<_> = BatchScan::new(r, 1_000_000).collect();
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn zero_block_pages_is_clamped() {
        let (_db, r) = build(100);
        let scan = BatchScan::new(r, 0);
        assert_eq!(scan.block_pages(), 1);
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("empty", 1)).unwrap();
        assert_eq!(BatchScan::new(r, 4).count(), 0);
    }

    #[test]
    fn scan_all_collects_everything() {
        let (_db, r) = build(257);
        assert_eq!(scan_all(&r, 3).unwrap().len(), 257);
    }

    #[test]
    fn scan_charges_page_reads() {
        let (db, r) = build(3000);
        db.stats().reset();
        let pages = r.lock().num_pages();
        let _ = scan_all(&r, 4).unwrap();
        assert_eq!(db.stats().snapshot().pages_read as usize, pages);
    }
}
