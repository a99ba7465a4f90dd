//! Block-wise scans over a single relation, decoded into flat buffers.
//!
//! A "block" is a fixed number of pages read together, mirroring the
//! block-nested-loop reading pattern the paper's cost analysis assumes
//! (`BlockSize` pages of the outer relation per probe pass over the inner one).
//!
//! A [`BlockScan`] decodes each block straight from the borrowed page bytes
//! into a [`RowBlock`] the caller owns and reuses: struct-of-arrays buffers of
//! keys, foreign keys, targets and features, whose capacity is kept from block
//! to block, so a scan allocates nothing per page or per record.
//! [`Relation::decode_page_into`] is the store's one record decoder; every
//! read path — the scans, [`Relation::fetch`], the factorized join — goes
//! through it.
//!
//! **Rows in their stored form.**  A relation's feature groups fix the form
//! its rows are handed out in ([`RowKind`]): a dense panel when every group is
//! dense, active column indices when every group is one-hot, nonzero
//! `(index, value)` pairs otherwise — each row a borrowed
//! [`BlockVec`] ([`RowBlock::row`]).  Nothing is expanded to dense unless the
//! block asks for it ([`RowBlock::expanding`], the `SparseMode::Dense`
//! oracle and the row views).  [`RowBuf`] assembles rows from parts, the
//! joined row of the `S-*` and `M-*` strategies; [`RowPanel`] keeps one
//! relation's blocks of a run of them.
//!
//! [`BatchScan`] (a block scan iterated as `Vec<Tuple>` blocks) and
//! [`scan_all`] are its row views (see [`crate::rows`]).

use crate::catalog::RelationHandle;
use crate::error::{StoreError, StoreResult};
use crate::page::PageRef;
use crate::schema::{FeatureGroup, RowKind, Schema};
#[cfg(doc)]
use crate::Relation;
use fml_linalg::BlockVec;
use std::ops::Range;

pub use crate::rows::{scan_all, BatchScan};

/// The index that pads a sparse-numeric group's unused pairs.
pub(crate) const PAD: u32 = u32::MAX;

/// Decoded records of one relation in struct-of-arrays form: row `r` is
/// `keys()[r]`, [`Self::fks`]`(r)`, [`Self::target`]`(r)` and
/// [`Self::row`]`(r)`, all in storage order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBlock {
    keys: Vec<u64>,
    /// `n × q`, row-major.
    fks: Vec<u64>,
    /// One per row when the schema has a target, empty otherwise.
    targets: Vec<f64>,
    /// [`RowKind::Dense`]: `n × width`, row-major.
    dense: Vec<f64>,
    /// [`RowKind::OneHot`] and [`RowKind::Csr`]: `stride` slots per row of
    /// column indices and, for CSR, their values; `lens` the slots a CSR row
    /// fills.
    idx: Vec<u32>,
    vals: Vec<f64>,
    lens: Vec<u32>,
    q: usize,
    width: usize,
    stride: usize,
    kind: RowKind,
    /// Decode every row to dense, whatever its stored form.
    expand: bool,
}

impl RowBlock {
    /// An empty block that decodes every row expanded to dense — the form
    /// `SparseMode::Dense` computes on and the row views hand out.
    pub fn expanding() -> Self {
        Self {
            expand: true,
            ..Self::default()
        }
    }

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

    /// Number of feature columns a row expands to.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The form of [`Self::row`].
    pub fn kind(&self) -> RowKind {
        self.kind
    }

    /// The features of row `r` in their stored form.
    pub fn row(&self, r: usize) -> BlockVec<'_> {
        let at = r * self.stride;
        match self.kind {
            RowKind::Dense => BlockVec::Dense(self.features(r)),
            RowKind::OneHot => BlockVec::OneHot(&self.idx[at..at + self.stride]),
            RowKind::Csr => {
                let slots = at..at + self.lens[r] as usize;
                BlockVec::Csr {
                    idx: &self.idx[slots.clone()],
                    vals: &self.vals[slots],
                }
            }
        }
    }

    /// The `width` features of row `r` of a dense block (an all-dense
    /// relation, or one decoded [`Self::expanding`]).
    pub fn features(&self, r: usize) -> &[f64] {
        &self.dense[r * self.width..(r + 1) * self.width]
    }

    /// Row `r`'s features expanded to dense, as an owned vector.
    pub fn dense_row(&self, r: usize) -> Vec<f64> {
        let mut buf = RowBuf::default();
        buf.push(RowKind::Dense, self.row(r), 0..self.width, 0);
        buf.dense
    }

    /// Keeps the first `n` rows.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.keys.truncate(n);
        self.fks.truncate(n * self.q);
        self.targets.truncate(n);
        self.dense.truncate(n * self.width);
        self.idx.truncate(n * self.stride);
        self.vals.truncate(n * self.stride);
        self.lens.truncate(n);
    }

    /// Moves row `from` to position `to < from`, overwriting it.
    pub(crate) fn move_row(&mut self, from: usize, to: usize) {
        let (q, d, s) = (self.q, self.width, self.stride);
        self.keys[to] = self.keys[from];
        self.fks.copy_within(from * q..(from + 1) * q, to * q);
        if let Some(&y) = self.targets.get(from) {
            self.targets[to] = y;
        }
        match self.kind {
            RowKind::Dense => self.dense.copy_within(from * d..(from + 1) * d, to * d),
            _ => self.idx.copy_within(from * s..(from + 1) * s, to * s),
        }
        if self.kind == RowKind::Csr {
            self.vals.copy_within(from * s..(from + 1) * s, to * s);
            self.lens[to] = self.lens[from];
        }
    }

    /// Makes room for `rows` more rows of `schema` in one step, so a scan's
    /// buffers take their size from its first block and keep it.
    fn reserve(&mut self, rows: usize, schema: &Schema) {
        self.keys.reserve_exact(rows);
        self.fks.reserve_exact(rows * schema.num_foreign_keys);
        self.targets
            .reserve_exact(rows * usize::from(schema.has_target));
        match (self.expand, schema.row_kind()) {
            (true, _) | (_, RowKind::Dense) => self.dense.reserve_exact(rows * schema.num_features),
            (_, kind) => {
                let slots = rows * stride(schema);
                self.idx.reserve_exact(slots);
                if kind == RowKind::Csr {
                    self.vals.reserve_exact(slots);
                }
            }
        }
    }

    /// Appends the records of `page` in `slots`, decoded as `schema` lays
    /// them out.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] naming the relation when the page's record
    /// size is not the schema's — its fields would decode from the wrong
    /// offsets — or a stored one-hot code or sparse index is out of range or
    /// out of order.
    pub(crate) fn decode(
        &mut self,
        schema: &Schema,
        page: PageRef<'_>,
        slots: Range<usize>,
    ) -> StoreResult<()> {
        let rs = schema.record_size();
        let corrupt = |detail: String| {
            StoreError::Corrupt(format!("page of relation '{}' {detail}", schema.name))
        };
        if page.record_size() != rs {
            let detail = format!(
                "holds {}-byte records, its schema {rs}-byte ones",
                page.record_size()
            );
            return Err(corrupt(detail));
        }
        (self.q, self.width) = (schema.num_foreign_keys, schema.num_features);
        self.kind = if self.expand {
            RowKind::Dense
        } else {
            schema.row_kind()
        };
        self.stride = match self.kind {
            RowKind::Dense => 0,
            _ => stride(schema),
        };
        let q = self.q;
        // An all-dense record's features are `width` consecutive `f64`s.
        let groups = schema.groups();
        let dense_bytes = groups.iter().all(|g| matches!(g, FeatureGroup::Dense(_)));
        for record in page.records()[slots.start * rs..slots.end * rs].chunks_exact(rs) {
            let (head, mut features) = record.split_at(schema.header_size());
            let mut words = head.chunks_exact(8).map(le_word);
            self.keys.extend(words.next());
            self.fks.extend(words.by_ref().take(q));
            self.targets.extend(words.map(f64::from_bits));
            if dense_bytes {
                let values = features.chunks_exact(8).map(|w| f64::from_bits(le_word(w)));
                self.dense.extend(values);
                continue;
            }
            let start = self.idx.len();
            if self.kind == RowKind::Dense {
                self.dense.resize(self.dense.len() + self.width, 0.0);
            }
            let mut col = 0;
            for group in groups {
                let (bytes, rest) = features.split_at(group.encoded_size());
                features = rest;
                self.decode_group(group, bytes, col).map_err(corrupt)?;
                col += group.width();
            }
            if self.kind == RowKind::Csr {
                self.lens.push((self.idx.len() - start) as u32);
                self.idx.resize(start + self.stride, 0);
                self.vals.resize(start + self.stride, 0.0);
            }
        }
        Ok(())
    }

    /// Decodes one group of the record being decoded, whose columns start
    /// at `col`.
    fn decode_group(
        &mut self,
        group: &FeatureGroup,
        bytes: &[u8],
        col: usize,
    ) -> Result<(), String> {
        match group {
            FeatureGroup::Dense(_) => {
                let values = bytes.chunks_exact(8).map(|w| f64::from_bits(le_word(w)));
                for (j, v) in values.enumerate() {
                    self.put(col + j, v);
                }
            }
            FeatureGroup::OneHot { cardinalities } => {
                let mut var = col;
                for (w, &card) in bytes.chunks_exact(4).zip(cardinalities) {
                    let code = le_u32(w) as usize;
                    if code >= card {
                        return Err(format!("holds one-hot code {code} ≥ cardinality {card}"));
                    }
                    self.put(var + code, 1.0);
                    var += card;
                }
            }
            FeatureGroup::SparseNumeric { width, .. } => {
                let (mut next, mut padded) = (0, false);
                for pair in bytes.chunks_exact(12) {
                    let i = le_u32(&pair[..4]);
                    if i == PAD {
                        padded = true;
                        continue;
                    }
                    let i = i as usize;
                    if padded || i < next || i >= *width {
                        return Err(format!(
                            "holds sparse index {i} out of order or ≥ width {width}"
                        ));
                    }
                    self.put(col + i, f64::from_bits(le_word(&pair[4..])));
                    next = i + 1;
                }
            }
        }
        Ok(())
    }

    /// Stores the value `v` of column `col` of the row being decoded.
    fn put(&mut self, col: usize, v: f64) {
        match self.kind {
            RowKind::Dense => {
                let row = self.dense.len() - self.width;
                self.dense[row + col] = v;
            }
            RowKind::OneHot => self.idx.push(col as u32),
            RowKind::Csr if !is_zero(v) => {
                self.idx.push(col as u32);
                self.vals.push(v);
            }
            RowKind::Csr => {}
        }
    }
}

/// Slots a one-hot or CSR row of `schema` takes: the most nonzeros it can
/// have.
fn stride(schema: &Schema) -> usize {
    schema.groups().iter().map(FeatureGroup::fields).sum()
}

/// One little-endian 8-byte field.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// One little-endian 4-byte field.
fn le_u32(bytes: &[u8]) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(bytes);
    u32::from_le_bytes(word)
}

/// Whether `v` is `+0.0` or `-0.0`: a column a sparse form leaves out.
pub(crate) fn is_zero(v: f64) -> bool {
    v.abs().to_bits() == 0
}

/// The nonzero columns of `row` inside `cols`, as `(column − cols.start,
/// value)` in column order; a one-hot column reads `1.0`.
pub(crate) fn entries(
    row: BlockVec<'_>,
    cols: Range<usize>,
) -> impl Iterator<Item = (usize, f64)> + '_ {
    let (dense, idx, vals): (&[f64], &[u32], Option<&[f64]>) = match row {
        BlockVec::Dense(x) => (&x[cols.clone()], &[], None),
        BlockVec::OneHot(idx) => (&[], idx, None),
        BlockVec::Csr { idx, vals } => (&[], idx, Some(vals)),
    };
    let at = |col: usize| idx.partition_point(|&i| (i as usize) < col);
    let sparse = (at(cols.start)..at(cols.end))
        .map(move |t| (idx[t] as usize - cols.start, vals.map_or(1.0, |v| v[t])));
    let nonzero = |&(_, v): &(usize, f64)| !is_zero(v);
    dense
        .iter()
        .copied()
        .enumerate()
        .chain(sparse)
        .filter(nonzero)
}

/// A row assembled from parts in buffers it reuses: the joined row of the
/// `S-*` and `M-*` strategies, an expanded row, the rows of a [`RowPanel`].
#[derive(Debug, Default)]
pub struct RowBuf {
    dense: Vec<f64>,
    idx: Vec<u32>,
    vals: Vec<f64>,
}

impl RowBuf {
    /// Starts a new row.
    pub(crate) fn clear(&mut self) {
        self.dense.clear();
        self.idx.clear();
        self.vals.clear();
    }

    /// Appends the columns `cols` of `row` as the columns from `at` on of
    /// the row being built in `kind`.  A dense row keeps its zeros; every
    /// other form keeps only the nonzeros.
    pub(crate) fn push(&mut self, kind: RowKind, row: BlockVec<'_>, cols: Range<usize>, at: usize) {
        match (kind, row) {
            (RowKind::Dense, BlockVec::Dense(x)) => self.dense.extend_from_slice(&x[cols]),
            (RowKind::Dense, _) => {
                let base = self.dense.len();
                self.dense.resize(base + cols.len(), 0.0);
                for (j, v) in entries(row, cols) {
                    self.dense[base + j] = v;
                }
            }
            (kind, _) => {
                for (j, v) in entries(row, cols) {
                    self.idx.push((at + j) as u32);
                    if kind == RowKind::Csr {
                        self.vals.push(v);
                    }
                }
            }
        }
    }

    /// The row built since the last [`Self::clear`], in `kind`.
    pub(crate) fn view(&self, kind: RowKind) -> BlockVec<'_> {
        match kind {
            RowKind::Dense => BlockVec::Dense(&self.dense),
            RowKind::OneHot => BlockVec::OneHot(&self.idx),
            RowKind::Csr => BlockVec::Csr {
                idx: &self.idx,
                vals: &self.vals,
            },
        }
    }
}

/// One relation's blocks of a run of joined rows, each cut out in the
/// relation's form and kept one after another: how the `M-*` and `S-*`
/// scorers hold a panel of joined rows cut back into the blocks of their
/// relations.  Its buffers keep their capacity across [`Self::clear`].
#[derive(Debug)]
pub struct RowPanel {
    kind: RowKind,
    buf: RowBuf,
    /// Per row: where its dense values, indices and values end in `buf`.
    ends: Vec<[usize; 3]>,
}

impl RowPanel {
    /// An empty panel of rows in `kind`.
    pub fn new(kind: RowKind) -> Self {
        Self {
            kind,
            buf: RowBuf::default(),
            ends: Vec::new(),
        }
    }

    /// Starts a new panel.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }

    /// Appends the columns `cols` of `row` as a row of their own.
    pub fn push(&mut self, row: BlockVec<'_>, cols: Range<usize>) {
        self.buf.push(self.kind, row, cols, 0);
        let RowBuf { dense, idx, vals } = &self.buf;
        self.ends.push([dense.len(), idx.len(), vals.len()]);
    }

    /// Row `r` of the panel.
    pub fn row(&self, r: usize) -> BlockVec<'_> {
        let [d0, i0, v0] = if r == 0 { [0; 3] } else { self.ends[r - 1] };
        let [d1, i1, v1] = self.ends[r];
        let RowBuf { dense, idx, vals } = &self.buf;
        match self.kind {
            RowKind::Dense => BlockVec::Dense(&dense[d0..d1]),
            RowKind::OneHot => BlockVec::OneHot(&idx[i0..i1]),
            RowKind::Csr => BlockVec::Csr {
                idx: &idx[i0..i1],
                vals: &vals[v0..v1],
            },
        }
    }
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
