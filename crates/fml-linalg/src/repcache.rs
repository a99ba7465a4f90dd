//! Per-tuple caches shared by every trainer: sparse representations, and
//! the factorized trainers' ordinal-indexed term arenas.
//!
//! Under [`SparseMode::Auto`] the trainers detect each tuple's representation
//! ([`SparseRep`]: one-hot, weighted CSR, or dense) **once** and reuse the
//! result for every later pass and iteration — detection is a full scan of
//! the feature row, and the feature data is immutable, so re-detecting per
//! pass would be pure waste (the learner crates' counter tests pin "at most
//! one detection per tuple").
//!
//! Two representation-cache shapes cover every trainer:
//!
//! * [`RepCache`] — **scan-order**: the dense-pass drivers (`M`/`S`) replay
//!   joined rows, and the factorized trainers fact tuples, in a deterministic
//!   scan order, so the cache is a position-indexed vector filled lazily
//!   during the first pass.  The fill protocol supports the trainers' chunked parallel loops:
//!   workers detect into private [`RepSegment`]s which the driver merges back
//!   **in chunk-index order**, keeping the cache layout identical to the
//!   sequential fill.
//! * [`KeyedRepCache`] — **ordinal-keyed**: the factorized trainers reach
//!   dimension tuples through foreign keys (each distinct tuple is shared by
//!   many facts) that the store resolves to dense per-dimension ordinals, so
//!   the cache is an ordinal-indexed vector filled on first encounter.
//!
//! Both read as "always dense" under [`SparseMode::Dense`] without ever
//! invoking detection, which is how the forced-dense baseline stays silent in
//! the kernel-counter tests.
//!
//! [`OrdinalArena`] is the same first-encounter protocol for numbers: one
//! flat `f64` row per dimension-tuple ordinal, holding whatever a factorized
//! trainer computes once per tuple and reuses per matching fact.

use crate::sparse::{SparseMode, SparseRep};

/// A lazily filled, scan-order cache of per-tuple sparse representations.
///
/// Lifecycle: construct with the run's [`SparseMode`]; during the **fill
/// pass** (the first pass over the data) call [`RepCache::rep_or_detect`] for
/// every tuple in scan order (or fan out with [`RepCache::segment`] /
/// [`RepCache::merge`]); call [`RepCache::finish_fill`] when the pass
/// completes; every later pass reads with [`RepCache::get`] (or
/// `rep_or_detect`, which reads once filling is done).
#[derive(Debug, Default)]
pub struct RepCache {
    mode: SparseMode,
    /// Leading positions that were all detected dense, held as a count: a
    /// relation with no sparse tuple caches nothing.
    dense_prefix: usize,
    /// Positions `dense_prefix..`.
    reps: Vec<Option<SparseRep>>,
    filling: bool,
}

impl RepCache {
    /// Creates a cache for one training run.  Under [`SparseMode::Dense`] the
    /// cache is born finished: nothing is ever detected and every lookup
    /// reads as dense.
    pub fn new(mode: SparseMode) -> Self {
        Self {
            mode,
            dense_prefix: 0,
            reps: Vec::new(),
            filling: mode == SparseMode::Auto,
        }
    }

    fn push(&mut self, rep: Option<SparseRep>) {
        if rep.is_none() && self.reps.is_empty() {
            self.dense_prefix += 1;
        } else {
            self.reps.push(rep);
        }
    }

    /// The detection mode this cache was built with.
    pub fn mode(&self) -> SparseMode {
        self.mode
    }

    /// Whether the cache is still in its fill pass.
    pub fn filling(&self) -> bool {
        self.filling
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.dense_prefix + self.reps.len()
    }

    /// Whether the cache holds no positions (always true under `Dense`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the representation cached at scan position `index`; positions
    /// beyond the cache (the forced-dense mode caches nothing) read as dense.
    pub fn get(&self, index: usize) -> Option<&SparseRep> {
        let at = index.checked_sub(self.dense_prefix)?;
        self.reps.get(at).and_then(Option::as_ref)
    }

    /// Fill-or-read: during the fill pass, detects `features` and appends the
    /// result (positions must arrive in scan order); afterwards, a plain
    /// [`RepCache::get`].
    pub fn rep_or_detect(&mut self, index: usize, features: &[f64]) -> Option<&SparseRep> {
        if self.filling {
            debug_assert_eq!(index, self.len(), "RepCache fill must follow scan order");
            let rep = self.mode.detect(features);
            self.push(rep);
        }
        self.get(index)
    }

    /// Opens a worker-local view for one chunk of the fill pass, starting at
    /// absolute scan position `base`.  Outside the fill pass the segment is a
    /// read-only cursor over the shared cache.
    pub fn segment(&self, base: usize) -> RepSegment<'_> {
        RepSegment {
            cache: self,
            base,
            detected: Vec::new(),
        }
    }

    /// Merges one chunk's detections back into the cache.  Chunks **must** be
    /// merged in chunk-index order — the whole point of the protocol is that
    /// the merged layout matches the sequential scan order exactly.
    pub fn merge(&mut self, detected: Vec<Option<SparseRep>>) {
        debug_assert!(
            self.filling || detected.is_empty(),
            "RepCache::merge outside the fill pass"
        );
        for rep in detected {
            self.push(rep);
        }
    }

    /// Marks the fill pass complete; later passes only read.
    pub fn finish_fill(&mut self) {
        self.filling = false;
    }
}

/// A worker-local view over one chunk of a [`RepCache`] fill pass.
///
/// During the fill pass, [`RepSegment::rep_or_detect`] detects into a private
/// buffer (the shared cache is only borrowed immutably, so chunks run in
/// parallel); once filling is done it reads straight from the shared cache.
/// The worker returns [`RepSegment::into_detected`] as part of its chunk
/// result, and the driver merges the buffers in chunk order.
#[derive(Debug)]
pub struct RepSegment<'a> {
    cache: &'a RepCache,
    base: usize,
    detected: Vec<Option<SparseRep>>,
}

impl RepSegment<'_> {
    /// Fill-or-read at absolute scan position `index` (positions must arrive
    /// in scan order within the chunk).
    pub fn rep_or_detect(&mut self, index: usize, features: &[f64]) -> Option<&SparseRep> {
        if self.cache.filling {
            debug_assert_eq!(
                index,
                self.base + self.detected.len(),
                "RepSegment fill must follow scan order"
            );
            self.detected.push(self.cache.mode.detect(features));
            self.detected.last().and_then(Option::as_ref)
        } else {
            self.cache.get(index)
        }
    }

    /// The chunk's detections, for [`RepCache::merge`] (empty outside the
    /// fill pass).
    pub fn into_detected(self) -> Vec<Option<SparseRep>> {
        self.detected
    }
}

/// A sparse-representation cache keyed by dimension-tuple ordinal, for the
/// factorized trainers.  Detection runs on the first encounter of each
/// distinct ordinal and persists for the whole training run.
#[derive(Debug, Default)]
pub struct KeyedRepCache {
    mode: SparseMode,
    /// `None` = never encountered; `Some(None)` = detected dense.
    reps: Vec<Option<Option<SparseRep>>>,
}

impl KeyedRepCache {
    /// Creates a cache for one training run.
    pub fn new(mode: SparseMode) -> Self {
        Self {
            mode,
            reps: Vec::new(),
        }
    }

    /// Fill-or-read: detects `features` on the first encounter of `ord`,
    /// reads the cached result afterwards.  Never detects under
    /// [`SparseMode::Dense`] ([`SparseMode::detect`] returns `None` without
    /// counting).
    pub fn rep_or_detect(&mut self, ord: u32, features: &[f64]) -> Option<&SparseRep> {
        let ord = ord as usize;
        if ord >= self.reps.len() {
            self.reps.resize_with(ord + 1, || None);
        }
        let mode = self.mode;
        self.reps[ord]
            .get_or_insert_with(|| mode.detect(features))
            .as_ref()
    }

    /// Reads the representation cached for `ord`.
    ///
    /// # Panics
    /// Panics when `ord` was never passed to [`KeyedRepCache::rep_or_detect`]
    /// — the trainers guarantee every referenced tuple is detected during the
    /// first pass, so a miss here is a protocol bug, not a dense tuple.
    pub fn get(&self, ord: u32) -> Option<&SparseRep> {
        self.reps
            .get(ord as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("KeyedRepCache: ordinal {ord} was never detected"))
            .as_ref()
    }
}

/// An `f64` arena with one fixed-width row per dimension-tuple ordinal
/// and a referenced flag per row.
///
/// The factorized trainers keep everything they compute or accumulate **per
/// dimension tuple** here: a fact resolves its foreign keys to ordinals once,
/// [`claim`](Self::claim)s each row (the first claim since the last
/// [`reset`](Self::reset) tells the caller to initialize it) and then reads
/// or updates the row by index.  [`referenced`](Self::referenced) walks the
/// claimed rows in ascending ordinal — hence ascending key — order, so merges
/// over an arena have one fixed floating-point order, and rows of tuples no
/// fact references are never touched.
///
/// Rows are stored in slabs of about 64 KiB, each allocated when its first
/// row is claimed.  One allocation per dimension would be simpler,
/// but a multi-megabyte block cannot reuse the fragmented free memory that
/// earlier fits in the process leave behind: the heap grows instead (the NN
/// star trainer's 19 MB arena for a 24 000-tuple dimension raised peak RSS by
/// 12 % on the `nn_mixed_star` benchmark workload); slab-sized pieces can.
#[derive(Debug)]
pub struct OrdinalArena {
    slabs: Vec<Vec<f64>>,
    seen: Vec<bool>,
    width: usize,
    /// `log2` of the rows per slab.
    shift: u32,
}

/// Target slab size of an [`OrdinalArena`], in `f64` values (64 KiB).
const SLAB_VALUES: usize = 8192;

impl OrdinalArena {
    /// Creates an empty arena of `width` values per ordinal; size it with
    /// [`reset`](Self::reset).
    pub fn new(width: usize) -> Self {
        Self {
            slabs: Vec::new(),
            seen: Vec::new(),
            width,
            shift: (SLAB_VALUES / width.max(1)).max(1).ilog2(),
        }
    }

    /// Starts a pass over a dimension of `len` tuples: every row becomes
    /// unreferenced (row contents are unspecified until the claimer
    /// initializes them).
    pub fn reset(&mut self, len: usize) {
        self.seen.clear();
        self.seen.resize(len, false);
        self.slabs
            .resize_with(len.div_ceil(1 << self.shift), Vec::new);
    }

    /// Marks row `ord` referenced; returns `true` when this is its first
    /// reference since the last reset, i.e. the caller must initialize it.
    pub fn claim(&mut self, ord: u32) -> bool {
        let first = !std::mem::replace(&mut self.seen[ord as usize], true);
        if first {
            let slab = &mut self.slabs[ord as usize >> self.shift];
            if slab.is_empty() {
                slab.resize(self.width << self.shift, 0.0);
            }
        }
        first
    }

    /// Where row `ord` sits: `(slab, offset within it)`.
    fn locate(&self, ord: u32) -> (usize, usize) {
        let ord = ord as usize;
        let in_slab = ord & ((1 << self.shift) - 1);
        (ord >> self.shift, in_slab * self.width)
    }

    /// Row `ord`, which must have been claimed.
    pub fn row(&self, ord: u32) -> &[f64] {
        let (slab, at) = self.locate(ord);
        &self.slabs[slab][at..at + self.width]
    }

    /// Row `ord`, mutably; it must have been claimed.
    pub fn row_mut(&mut self, ord: u32) -> &mut [f64] {
        let (slab, at) = self.locate(ord);
        &mut self.slabs[slab][at..at + self.width]
    }

    /// The referenced ordinals, ascending.
    pub fn referenced(&self) -> impl Iterator<Item = u32> + '_ {
        self.seen
            .iter()
            .enumerate()
            .filter(|(_, seen)| **seen)
            .map(|(ord, _)| ord as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::detect_calls;

    fn onehot_row() -> Vec<f64> {
        vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    }

    fn dense_row() -> Vec<f64> {
        vec![1.5, 2.5, 3.5, 0.5, 1.0, 2.0]
    }

    #[test]
    fn sequential_fill_then_read() {
        let mut cache = RepCache::new(SparseMode::Auto);
        assert!(cache.filling());
        assert!(cache.rep_or_detect(0, &onehot_row()).is_some());
        assert!(cache.rep_or_detect(1, &dense_row()).is_none());
        cache.finish_fill();
        assert!(!cache.filling());
        assert_eq!(cache.len(), 2);
        // later passes read the cached reps without re-detecting
        let before = detect_calls();
        assert!(cache.rep_or_detect(0, &onehot_row()).is_some());
        assert!(cache.get(1).is_none());
        assert_eq!(detect_calls(), before, "read pass must not re-detect");
    }

    #[test]
    fn leading_dense_positions_are_counted_not_stored() {
        let mut cache = RepCache::new(SparseMode::Auto);
        for i in 0..3 {
            assert!(cache.rep_or_detect(i, &dense_row()).is_none());
        }
        assert!(cache.reps.is_empty());
        cache.merge(vec![None, SparseMode::Auto.detect(&onehot_row()), None]);
        cache.finish_fill();
        assert_eq!((cache.len(), cache.reps.len()), (6, 2));
        let sparse: Vec<bool> = (0..7).map(|i| cache.get(i).is_some()).collect();
        assert_eq!(sparse, [false, false, false, false, true, false, false]);
    }

    #[test]
    fn dense_mode_never_detects_and_reads_as_dense() {
        let before = detect_calls();
        let mut cache = RepCache::new(SparseMode::Dense);
        assert!(!cache.filling(), "Dense caches are born finished");
        assert!(cache.rep_or_detect(0, &onehot_row()).is_none());
        assert!(cache.get(12345).is_none());
        assert!(cache.is_empty());
        assert_eq!(detect_calls(), before);
    }

    #[test]
    fn chunked_fill_merges_in_chunk_order() {
        // Simulate the trainers' parallel fill: two chunks detect privately,
        // the driver merges in chunk order, and the final layout matches the
        // sequential fill exactly.
        let rows = [onehot_row(), dense_row(), onehot_row(), dense_row()];
        let mut sequential = RepCache::new(SparseMode::Auto);
        for (i, row) in rows.iter().enumerate() {
            sequential.rep_or_detect(i, row);
        }
        sequential.finish_fill();

        let mut chunked = RepCache::new(SparseMode::Auto);
        let mut buffers = Vec::new();
        for chunk in [0..2usize, 2..4] {
            let mut seg = chunked.segment(chunk.start);
            for i in chunk {
                seg.rep_or_detect(i, &rows[i]);
            }
            buffers.push(seg.into_detected());
        }
        for buf in buffers {
            chunked.merge(buf);
        }
        chunked.finish_fill();

        assert_eq!(chunked.len(), sequential.len());
        for i in 0..rows.len() {
            assert_eq!(chunked.get(i), sequential.get(i), "position {i}");
        }
    }

    #[test]
    fn segments_read_through_after_fill() {
        let mut cache = RepCache::new(SparseMode::Auto);
        cache.rep_or_detect(0, &onehot_row());
        cache.rep_or_detect(1, &dense_row());
        cache.finish_fill();
        let before = detect_calls();
        let mut seg = cache.segment(0);
        assert!(seg.rep_or_detect(0, &onehot_row()).is_some());
        assert!(seg.rep_or_detect(1, &dense_row()).is_none());
        assert!(
            seg.into_detected().is_empty(),
            "read-only segments buffer nothing"
        );
        assert_eq!(detect_calls(), before);
    }

    #[test]
    fn keyed_cache_detects_once_per_key() {
        let mut cache = KeyedRepCache::new(SparseMode::Auto);
        let before = detect_calls();
        assert!(cache.rep_or_detect(7, &onehot_row()).is_some());
        assert!(cache.rep_or_detect(7, &onehot_row()).is_some());
        assert!(cache.rep_or_detect(9, &dense_row()).is_none());
        assert_eq!(detect_calls(), before + 2, "one detection per distinct key");
        assert!(cache.get(7).is_some());
        assert!(cache.get(9).is_none());
    }

    #[test]
    fn arena_claims_once_per_reset_and_walks_ascending() {
        let mut arena = OrdinalArena::new(2);
        arena.reset(3 * SLAB_VALUES);
        // rows on either side of a slab boundary do not alias
        let edge = (SLAB_VALUES / 2) as u32;
        assert!(arena.claim(edge - 1) && arena.claim(edge));
        arena.row_mut(edge - 1).copy_from_slice(&[5.0, 6.0]);
        arena.row_mut(edge).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(arena.row(edge - 1), &[5.0, 6.0]);
        assert_eq!(arena.row(edge), &[7.0, 8.0]);
        arena.reset(5);
        assert!(arena.claim(3));
        arena.row_mut(3).copy_from_slice(&[1.0, 2.0]);
        assert!(arena.claim(1));
        assert!(!arena.claim(3), "second reference must not re-initialize");
        assert_eq!(arena.row(3), &[1.0, 2.0]);
        assert_eq!(arena.referenced().collect::<Vec<_>>(), vec![1, 3]);
        // a new pass forgets the references, and may resize the dimension
        arena.reset(2);
        assert_eq!(arena.referenced().count(), 0);
        assert!(arena.claim(1));
    }

    #[test]
    #[should_panic(expected = "never detected")]
    fn keyed_cache_panics_on_undetected_key() {
        let cache = KeyedRepCache::new(SparseMode::Auto);
        let _ = cache.get(42);
    }
}
