//! The factorized trainers' per-dimension-tuple term arenas.
//!
//! A factorized pass computes whatever depends only on a dimension tuple once
//! per tuple and reuses it for every fact that references the tuple;
//! [`OrdinalArena`] is where those terms live, one flat `f64` row per
//! dimension-tuple ordinal, initialized on first reference.  (A tuple's
//! sparse representation needs no cache: it is the form its relation stores,
//! read off the decoded block.)

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
}
