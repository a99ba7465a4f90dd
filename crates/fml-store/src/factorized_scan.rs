//! The one join access path of every algorithm and of batch scoring: the
//! streaming (`S-*`) and factorized (`F-*`) passes, join materialization,
//! and the `M-*` passes over the materialized table `T`, read as the
//! fact-only join (`q = 0`).
//!
//! A [`FactorizedScan`] pass is a sequence of **windows**.  A window makes a
//! set of dimension rows resident as a [`DimCache`] and scans the whole fact
//! relation against it in blocks of `block_pages` pages; each [`FactBlock`]
//! holds the facts whose foreign keys all resolve in the window, decoded
//! into a [`RowBlock`], with the dense ordinal of every referenced dimension
//! row — the unit of reuse of the factorized algorithms: whatever depends
//! only on a dimension tuple is computed once per ordinal and reused by
//! every fact that carries it.
//!
//! **Blocks, not tuples.**  The scan owns and reuses its buffers — the fact
//! block, and per dimension the window's decoded rows, key order and index —
//! so a pass allocates per window at most, never per page or per fact.
//! [`FactorizedScan::next_block`] refills the block; the consumer reads it,
//! and the cache together through `&self` accessors.
//!
//! **First reference.**  The scan also owns the bookkeeping every
//! factorized consumer shares — which resident tuples the window has seen:
//! each block lists per dimension the ordinals it references first in the
//! window ([`FactBlock::first_refs`], in first-fact order), and
//! [`FactorizedScan::referenced`] walks the window's referenced ordinals in
//! ascending order.  A factorized pass is one skeleton over [`OrdinalArena`]
//! rows indexed by ordinal, `fill(first_refs) → per block (ords) →
//! fold(referenced)` (see [`FactorizedScan`]): the per-block support of the
//! join's indicator matrix, so tuples no fact references are never read.
//!
//! **Residency** follows from the join shape, there is nothing to configure:
//!
//! * a star join (`q > 1` dimensions) keeps every dimension resident, so a
//!   pass is one window;
//! * a fact-only join (`q = 0`) is one window with nothing resident: a plain
//!   block scan of the fact relation, `|S|` pages, no ordinals;
//! * a binary join (`q = 1`) streams `R` in windows of `block_pages` pages —
//!   the block-nested-loop join of Section V-A with `R` as the outer
//!   relation.  Ordinals are relative to the resident window.
//!
//! Either way a pass reads `|R| + ⌈|R|/BlockSize⌉·|S|` pages
//! (`|R| = Σ|R_i|`, the ceiling being 1 for a star), the figure
//! `GmmIoCostModel::join_pass_reads` predicts.  Memory is the resident
//! window plus one fact block — a binary pass never holds more than
//! `block_pages` pages of each relation.
//!
//! **Dangling foreign keys.**  A fact that matches no dimension tuple is a
//! typed [`DanglingForeignKey`](crate::StoreError::DanglingForeignKey) error
//! on every path.  When the pass is one window the fact block that contains
//! it fails at once.  When `R` spans several windows a fact absent from this
//! window may sit in another one, so the block skips it and the pass ends by
//! comparing the number of facts it handed out with `|S|`: fewer means a
//! dangling key (named by one extra scan), more means a primary key repeats
//! across windows ([`SchemaMismatch`](crate::StoreError::SchemaMismatch)).
//! Within a window a repeated key keeps its last-stored tuple.
//!
//! [`GroupScan`], [`JoinGroup`] and [`StarScan`] are `Vec<Tuple>` probe
//! adapters over the pass, kept for the `benchmark/` package (see
//! [`crate::rows`]); no engine crate uses them.

use crate::batch::{BlockScan, RowBlock, RowBuf};
use crate::catalog::RelationHandle;
use crate::error::StoreResult;
use crate::join::{check_every_fact_matched, DimCache, JoinSpec};
use crate::schema::RowKind;
use crate::Database;
use fml_linalg::{BlockVec, SparseMode};

pub use crate::rows::{GroupScan, JoinGroup, StarScan};

/// One block of facts joined against the resident window.
#[derive(Default)]
pub struct FactBlock {
    /// The facts of the block that match the window, in storage order.
    rows: RowBlock,
    /// `q` dimension ordinals per fact, in join order.
    ords: Vec<u32>,
    /// Per dimension: the ordinals this block references first in the window.
    first: Vec<Vec<u32>>,
    q: usize,
    /// The form of a joined row: that of the join result's schema.
    kind: RowKind,
}

impl FactBlock {
    /// The facts.
    pub fn rows(&self) -> &RowBlock {
        &self.rows
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block holds no facts.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `q` ordinals of fact `f`.
    pub fn ords_of(&self, f: usize) -> &[u32] {
        &self.ords[f * self.q..(f + 1) * self.q]
    }

    /// The dimension-`i` ordinals this block references for the first time
    /// in the window, in the order of the first fact carrying each.
    pub fn first_refs(&self, i: usize) -> &[u32] {
        &self.first[i]
    }

    /// Fact `f`'s denormalized row `[x_S | x_R1 | … | x_Rq]`: the dimension
    /// features duplicated once per fact, as `materialize_join` writes them
    /// and the `M-*` / `S-*` algorithms feed them to the unchanged learner,
    /// in the form of the join result's schema.  Without dimensions (`q = 0`,
    /// a materialized table) that is the fact's own row, borrowed; otherwise
    /// the parts are concatenated, column offsets added, in `buf`.
    pub fn joined_row<'a>(
        &'a self,
        f: usize,
        cache: &DimCache,
        buf: &'a mut RowBuf,
    ) -> BlockVec<'a> {
        let fact = self.rows.row(f);
        if self.q == 0 {
            return fact;
        }
        buf.clear();
        let mut at = self.rows.width();
        buf.push(self.kind, fact, 0..at, 0);
        for (i, &ord) in self.ords_of(f).iter().enumerate() {
            let width = cache.width(i);
            buf.push(self.kind, cache.row(i, ord), 0..width, at);
            at += width;
        }
        buf.view(self.kind)
    }
}

/// One pass over a PK/FK join (see the module docs):
///
/// ```text
/// while scan.next_window()? {
///     // scan.cache(): the resident dimension rows
///     while scan.next_block()? {
///         // fill the rows of scan.block().first_refs(i) — once per tuple —
///         // then run each fact f over the rows at ords_of(f)
///     }
///     // fold the rows of scan.referenced(i), ascending
/// }
/// ```
pub struct FactorizedScan {
    fact: RelationHandle,
    dims: Vec<RelationHandle>,
    block_pages: usize,
    /// One scan per dimension; each step yields that dimension's share of
    /// the next window.
    dim_windows: Vec<BlockScan>,
    /// Whether the first window holds every dimension tuple.
    single_window: bool,
    /// The resident window; empty before the first one.
    cache: DimCache,
    /// Whether a window has been made resident yet.
    opened: bool,
    /// The current window's fact scan.
    facts: Option<BlockScan>,
    /// The current fact block.
    block: FactBlock,
    /// Per dimension: whether the window's facts reference each ordinal.
    seen: Vec<Vec<bool>>,
    /// Facts handed out so far.
    matched: u64,
}

impl FactorizedScan {
    /// Prepares one pass over the join `spec` with fact blocks (and, for a
    /// binary join, dimension windows) of `block_pages` pages.
    pub fn new(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        let dims = spec.dimension_relations(db)?;
        let q = dims.len();
        let window_pages = if q == 1 {
            block_pages.max(1)
        } else {
            usize::MAX
        };
        Ok(Self {
            fact: spec.fact_relation(db)?,
            block_pages,
            dim_windows: (dims.iter())
                .map(|d| BlockScan::new(d.clone(), window_pages))
                .collect(),
            single_window: dims.iter().all(|d| d.lock().num_pages() <= window_pages),
            dims,
            cache: DimCache::new(spec.dimensions.clone()),
            opened: false,
            facts: None,
            block: FactBlock {
                q,
                first: vec![Vec::new(); q],
                kind: spec.result_schema(db, "")?.row_kind(),
                ..FactBlock::default()
            },
            seen: vec![Vec::new(); q],
            matched: 0,
        })
    }

    /// This pass with its rows in `mode`'s form: as stored under
    /// [`SparseMode::Auto`], expanded to dense on decode under
    /// [`SparseMode::Dense`] (the oracle).  Call before the first window.
    pub fn sparse_mode(mut self, mode: SparseMode) -> Self {
        if mode == SparseMode::Dense {
            self.cache = std::mem::take(&mut self.cache).expanding();
            self.block.rows = RowBlock::expanding();
            self.block.kind = RowKind::Dense;
        }
        self
    }

    /// Makes the next window resident and rewinds the fact scan; `false` when
    /// the pass is over.  A pass has at least one window, even over an empty
    /// dimension (every fact then dangles).
    ///
    /// # Errors
    /// Ends a pass of several windows that handed out a different number of
    /// facts than `S` holds with the error the module docs describe.
    pub fn next_window(&mut self) -> StoreResult<bool> {
        if self.opened && self.dim_windows.iter().all(BlockScan::is_done) {
            self.facts = None;
            if !self.single_window {
                check_every_fact_matched(&self.dims[0], &self.fact, self.matched)?;
            }
            return Ok(false);
        }
        let dims = self.dim_windows.iter_mut().zip(&mut self.seen);
        for (i, ((window, seen), first)) in dims.zip(&mut self.block.first).enumerate() {
            self.cache.load(i, window)?;
            let len = self.cache.dim_len(i);
            seen.clear();
            seen.resize(len, false);
            // A block references at most every resident tuple first.
            first.clear();
            first.reserve(len);
        }
        self.opened = true;
        self.facts = Some(BlockScan::new(self.fact.clone(), self.block_pages));
        Ok(true)
    }

    /// The dimension rows of the resident window (none before the first
    /// [`Self::next_window`]).
    pub fn cache(&self) -> &DimCache {
        &self.cache
    }

    /// The fact block [`Self::next_block`] filled last.
    pub fn block(&self) -> &FactBlock {
        &self.block
    }

    /// The dimension-`i` ordinals the window's facts have referenced so far,
    /// ascending — hence in key order, one fixed order for per-tuple merges.
    pub fn referenced(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        (self.seen[i].iter().enumerate())
            .filter(|(_, seen)| **seen)
            .map(|(ord, _)| ord as u32)
    }

    /// Refills [`Self::block`] with the next fact block of the current
    /// window, recording its first references; `false` at its end.
    pub fn next_block(&mut self) -> StoreResult<bool> {
        let block = &mut self.block;
        let Some(facts) = self.facts.as_mut() else {
            return Ok(false);
        };
        if !facts.next_into(&mut block.rows)? {
            return Ok(false);
        }
        let (cache, q, n) = (&self.cache, block.q, block.rows.len());
        block.ords.clear();
        block.ords.resize(n * q, 0);
        block.first.iter_mut().for_each(Vec::clear);
        let mut kept = 0;
        for f in 0..n {
            let slots = &mut block.ords[kept * q..(kept + 1) * q];
            match cache.resident_ordinals(block.rows.fks(f), slots) {
                Ok(()) => {
                    let dims = slots.iter().zip(&mut self.seen).zip(&mut block.first);
                    for ((&ord, seen), first) in dims {
                        if !std::mem::replace(&mut seen[ord as usize], true) {
                            first.push(ord);
                        }
                    }
                    if kept < f {
                        block.rows.move_row(f, kept);
                    }
                    kept += 1;
                }
                Err((i, key)) if self.single_window => return Err(cache.dangling(i, key)),
                // A miss may be resident in another window: skip the fact
                // here, the end-of-pass count decides.
                Err(_) => {}
            }
        }
        block.rows.truncate(kept);
        block.ords.truncate(kept * q);
        self.matched += kept as u64;
        Ok(true)
    }
}

/// An `f64` arena with one fixed-width row per dimension-tuple ordinal, where
/// a factorized consumer keeps what it computes or accumulates **per
/// dimension tuple**.  Which rows are live is the scan's business
/// ([`FactBlock::first_refs`], [`FactorizedScan::referenced`]).
///
/// Rows are stored in slabs of about 64 KiB, each allocated (zeroed) by the
/// first [`row_mut`](Self::row_mut) into it.  One allocation per dimension
/// would be simpler, but a multi-megabyte block cannot reuse the fragmented
/// free memory that earlier fits in the process leave behind: the heap grows
/// instead (the NN star trainer's 19 MB arena for a 24 000-tuple dimension
/// raised peak RSS by 12 % on the `nn_mixed_star` benchmark workload);
/// slab-sized pieces can.
#[derive(Debug)]
pub struct OrdinalArena {
    slabs: Vec<Vec<f64>>,
    width: usize,
    /// `log2` of the rows per slab.
    shift: u32,
}

/// Target slab size of an [`OrdinalArena`], in `f64` values (64 KiB).
const SLAB_VALUES: usize = 8192;

impl OrdinalArena {
    /// An empty arena of `width` values per ordinal.
    pub fn new(width: usize) -> Self {
        Self {
            slabs: Vec::new(),
            width,
            shift: (SLAB_VALUES / width.max(1)).max(1).ilog2(),
        }
    }

    /// Where row `ord` sits: `(slab, offset within it)`.
    fn locate(&self, ord: u32) -> (usize, usize) {
        let ord = ord as usize;
        let in_slab = ord & ((1 << self.shift) - 1);
        (ord >> self.shift, in_slab * self.width)
    }

    /// Row `ord`, which must have been written.
    pub fn row(&self, ord: u32) -> &[f64] {
        let (slab, at) = self.locate(ord);
        &self.slabs[slab][at..at + self.width]
    }

    /// Row `ord`, mutably; allocates its slab on first use.
    pub fn row_mut(&mut self, ord: u32) -> &mut [f64] {
        let (slab, at) = self.locate(ord);
        if slab >= self.slabs.len() {
            self.slabs.resize_with(slab + 1, Vec::new);
        }
        let slab = &mut self.slabs[slab];
        if slab.is_empty() {
            slab.resize(self.width << self.shift, 0.0);
        }
        &mut slab[at..at + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::join::materialize_join;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use std::collections::HashSet;

    fn dense(row: BlockVec<'_>) -> Vec<f64> {
        match row {
            BlockVec::Dense(x) => x.to_vec(),
            other => panic!("a dense relation decoded to {other:?}"),
        }
    }

    /// `n_r` dimension tuples (two features, so a few hundred per page) and
    /// `n_s` fact tuples with `fk = key % n_r`.
    fn binary(n_r: u64, n_s: u64) -> (Database, JoinSpec) {
        binary_with(n_r, n_s, |i| i % n_r)
    }

    /// As [`binary`], with fact `i` referencing dimension key `fk(i)`.
    fn binary_with(n_r: u64, n_s: u64, fk: impl Fn(u64) -> u64) -> (Database, JoinSpec) {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
        let s = db.create_relation(Schema::fact("S", 1, 1)).unwrap();
        for k in 0..n_r {
            r.lock()
                .append(&Tuple::dimension(k, vec![k as f64, -(k as f64)]))
                .unwrap();
        }
        for i in 0..n_s {
            s.lock()
                .append(&Tuple::fact(i, vec![fk(i)], vec![i as f64]))
                .unwrap();
        }
        r.lock().flush().unwrap();
        s.lock().flush().unwrap();
        (db, JoinSpec::binary("S", "R"))
    }

    /// 3 dimension tuples, 30 fact tuples: one window whatever the block size.
    fn setup() -> (Database, JoinSpec) {
        binary(3, 30)
    }

    /// `R` spans four pages, so `block_pages = 1` gives four windows.
    fn multi_window() -> (Database, JoinSpec) {
        let (db, spec) = binary(1200, 2400);
        assert_eq!(db.relation("R").unwrap().lock().num_pages(), 4);
        (db, spec)
    }

    fn pages(db: &Database, name: &str) -> usize {
        db.relation(name).unwrap().lock().num_pages()
    }

    /// Runs one pass, returning `(window, fact key, dimension key)` per fact
    /// handed out.
    fn pass(
        db: &Database,
        spec: &JoinSpec,
        block_pages: usize,
    ) -> StoreResult<Vec<(usize, u64, u64)>> {
        let mut scan = FactorizedScan::new(db, spec, block_pages)?;
        let mut out = Vec::new();
        let mut window = 0;
        while scan.next_window()? {
            while scan.next_block()? {
                let block = scan.block();
                for f in 0..block.len() {
                    let dim = scan.cache().key(0, block.ords_of(f)[0]);
                    out.push((window, block.rows().keys()[f], dim));
                }
            }
            window += 1;
        }
        Ok(out)
    }

    #[test]
    fn a_multi_window_pass_hands_out_every_fact_once() {
        let (db, spec) = multi_window();
        let (r_pages, s_pages) = (pages(&db, "R"), pages(&db, "S"));
        db.stats().reset();
        let rows = pass(&db, &spec, 1).unwrap();
        // Section V-A: |R| + ⌈|R|/BlockSize⌉·|S|
        let reads = db.stats().snapshot().pages_read as usize;
        assert_eq!(reads, r_pages + r_pages * s_pages);

        assert_eq!(rows.len(), 2400);
        let keys: HashSet<u64> = rows.iter().map(|r| r.1).collect();
        assert_eq!(keys.len(), 2400);
        assert!(rows.iter().all(|&(_, fact, dim)| dim == fact % 1200));
        // four windows, visited in order, each holding its own part of R
        let windows: Vec<usize> = rows.iter().map(|r| r.0).collect();
        assert!(windows.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(windows.last(), Some(&3));
        let mut seen = HashSet::new();
        for w in 0..4 {
            let in_window: HashSet<u64> = rows.iter().filter(|r| r.0 == w).map(|r| r.2).collect();
            assert!(in_window.iter().all(|&dim| seen.insert(dim)));
        }
        assert_eq!(seen.len(), 1200);

        // R resident at once: one window, |R| + |S| reads, the same rows
        db.stats().reset();
        let one = pass(&db, &spec, 4).unwrap();
        assert_eq!(db.stats().snapshot().pages_read as usize, r_pages + s_pages);
        assert!(one.iter().all(|r| r.0 == 0));
        let sorted = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(one.iter().map(|r| (r.1, r.2)).collect()),
            sorted(rows.iter().map(|r| (r.1, r.2)).collect())
        );
    }

    /// Runs one pass, checking each block's first references against the
    /// ones recomputed from the ordinals it hands out — new to the window,
    /// each once, in first-fact order — and each window's referenced
    /// ordinals against the union of its blocks' lists.  Returns, per window
    /// and dimension, the keys of the referenced tuples.
    fn first_refs_per_window(
        db: &Database,
        spec: &JoinSpec,
        block_pages: usize,
    ) -> Vec<Vec<Vec<u64>>> {
        let q = spec.num_dimensions();
        let mut scan = FactorizedScan::new(db, spec, block_pages).unwrap();
        let mut windows = Vec::new();
        while scan.next_window().unwrap() {
            let w = windows.len();
            for i in 0..q {
                assert_eq!(scan.referenced(i).count(), 0, "window {w} starts afresh");
            }
            let mut union: Vec<HashSet<u32>> = vec![HashSet::new(); q];
            let mut blocks = 0;
            while scan.next_block().unwrap() {
                let block = scan.block();
                for (i, union) in union.iter_mut().enumerate() {
                    let mut want = Vec::new();
                    for f in 0..block.len() {
                        let ord = block.ords_of(f)[i];
                        if !union.contains(&ord) && !want.contains(&ord) {
                            want.push(ord);
                        }
                    }
                    let got = block.first_refs(i);
                    assert_eq!(got, want, "window {w}, block {blocks}, dimension {i}");
                    // disjoint from every earlier block's list
                    assert!(got.iter().all(|&ord| union.insert(ord)));
                }
                blocks += 1;
            }
            assert!(blocks > 1, "several blocks per window");
            let mut keys = Vec::new();
            for (i, union) in union.iter().enumerate() {
                let referenced: Vec<u32> = scan.referenced(i).collect();
                assert!(referenced.windows(2).all(|p| p[0] < p[1]), "ascending");
                let mut union: Vec<u32> = union.iter().copied().collect();
                union.sort_unstable();
                assert_eq!(referenced, union, "window {w}, dimension {i}");
                keys.push(referenced.iter().map(|&o| scan.cache().key(i, o)).collect());
            }
            windows.push(keys);
        }
        windows
    }

    #[test]
    fn first_references_partition_each_windows_referenced_tuples() {
        // multi-window binary: only even keys are referenced, and each block
        // skips the facts whose key sits in another window
        let (db, spec) = binary_with(1200, 2400, |i| (2 * i) % 1200);
        assert_eq!(pages(&db, "R"), 4);
        let windows = first_refs_per_window(&db, &spec, 1);
        assert_eq!(windows.len(), 4);
        let mut keys: Vec<u64> = windows.iter().flat_map(|w| w[0].clone()).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..1200).step_by(2).collect::<Vec<u64>>());
        assert!(
            windows.iter().all(|w| w[0].len() < 200),
            "odd keys stay unmarked"
        );

        // star: one window; 10 of 40 and 5 of 7 tuples referenced
        let db = Database::in_memory();
        let d1 = db.create_relation(Schema::dimension("d1", 1)).unwrap();
        let d2 = db.create_relation(Schema::dimension("d2", 2)).unwrap();
        let f = db.create_relation(Schema::fact("f", 1, 2)).unwrap();
        for k in 0..40u64 {
            d1.lock().append(&Tuple::dimension(k, vec![1.0])).unwrap();
        }
        for k in 0..7u64 {
            d2.lock()
                .append(&Tuple::dimension(k, vec![1.0, 2.0]))
                .unwrap();
        }
        for i in 0..2000u64 {
            let fact = Tuple::fact(i, vec![(3 * i) % 30, (i / 3) % 5], vec![0.0]);
            f.lock().append(&fact).unwrap();
        }
        for rel in [&d1, &d2, &f] {
            rel.lock().flush().unwrap();
        }
        let star = JoinSpec::multiway("f", vec!["d1".into(), "d2".into()]);
        let windows = first_refs_per_window(&db, &star, 1);
        assert_eq!(windows.len(), 1);
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(windows[0][0].clone()),
            (0..30).step_by(3).collect::<Vec<u64>>()
        );
        assert_eq!(sorted(windows[0][1].clone()), (0..5).collect::<Vec<u64>>());

        // q = 0: nothing resident, nothing to reference
        let t = db.create_relation(Schema::fact("t", 1, 0)).unwrap();
        for i in 0..2000u64 {
            t.lock().append(&Tuple::fact(i, vec![], vec![0.0])).unwrap();
        }
        t.lock().flush().unwrap();
        let windows = first_refs_per_window(&db, &JoinSpec::multiway("t", vec![]), 1);
        assert_eq!(windows, vec![Vec::<Vec<u64>>::new()]);
    }

    #[test]
    fn arena_rows_sit_in_slabs_allocated_on_first_write() {
        let mut arena = OrdinalArena::new(2);
        // rows on either side of a slab boundary do not alias
        let edge = (SLAB_VALUES / 2) as u32;
        arena.row_mut(edge - 1).copy_from_slice(&[5.0, 6.0]);
        arena.row_mut(edge).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(arena.row(edge - 1), &[5.0, 6.0]);
        assert_eq!(arena.row(edge), &[7.0, 8.0]);
        // a slab is allocated once, zeroed, by the first write into it
        assert_eq!(arena.slabs.len(), 2);
        assert!(arena.slabs[0].len() == SLAB_VALUES && arena.slabs[1].len() == SLAB_VALUES);
        assert_eq!(arena.row(0), &[0.0, 0.0]);
        arena.row_mut(3 * edge).fill(1.0);
        assert_eq!(arena.slabs.len(), 4);
        assert!(
            arena.slabs[2].is_empty(),
            "slabs nobody writes stay unallocated"
        );
        // a row keeps what was last written to it
        arena.row_mut(edge)[1] = 9.0;
        assert_eq!(arena.row(edge), &[7.0, 9.0]);
    }

    #[test]
    fn dangling_key_fails_at_once_in_one_window_at_the_end_of_several() {
        let (db, spec) = multi_window();
        let s = db.relation("S").unwrap();
        s.lock()
            .append(&Tuple::fact(9_999, vec![7_777], vec![0.0]))
            .unwrap();
        s.lock().flush().unwrap();
        let dangling = |e: &StoreError| matches!(e, StoreError::DanglingForeignKey { relation, key: 7_777 } if relation == "R");

        // one window: the block holding the fact fails, nothing after it runs
        let mut scan = FactorizedScan::new(&db, &spec, 64).unwrap();
        assert!(scan.next_window().unwrap());
        let mut handed_out = 0;
        let err = loop {
            match scan.next_block() {
                Ok(true) => handed_out += scan.block().len(),
                Ok(false) => panic!("the dangling fact went unnoticed"),
                Err(e) => break e,
            }
        };
        assert!(dangling(&err), "{err}");
        assert!(handed_out < 2400);

        // several windows: every matching fact is handed out, then the pass
        // ends with the same error, on every pass
        for _ in 0..2 {
            let mut scan = FactorizedScan::new(&db, &spec, 1).unwrap();
            let mut handed_out = 0;
            let err = loop {
                match scan.next_window() {
                    Ok(true) => {
                        while scan.next_block().unwrap() {
                            handed_out += scan.block().len();
                        }
                    }
                    Ok(false) => panic!("the dangling fact went unnoticed"),
                    Err(e) => break e,
                }
            };
            assert_eq!(handed_out, 2400);
            assert!(dangling(&err), "{err}");
        }
        let groups: Vec<_> = GroupScan::from_spec(&db, &spec, 1).unwrap().collect();
        assert_eq!(groups.len(), 5, "four windows, then the error, once");
        assert!(dangling(groups[4].as_ref().unwrap_err()));
    }

    #[test]
    fn a_primary_key_repeated_across_windows_is_a_typed_error() {
        let (db, spec) = multi_window();
        let r = db.relation("R").unwrap();
        // key 0 sits in the first window; this copy lands in the last
        r.lock()
            .append(&Tuple::dimension(0, vec![1.0, 1.0]))
            .unwrap();
        r.lock().flush().unwrap();
        let err = pass(&db, &spec, 1).unwrap_err();
        assert!(
            matches!(&err, StoreError::SchemaMismatch { relation, detail }
                if relation == "R" && detail.contains("a primary key repeats")),
            "{err}"
        );
        // resident together the later copy wins, as in any window
        let rows = pass(&db, &spec, 64).unwrap();
        assert_eq!(rows.len(), 2400);
    }

    #[test]
    fn group_scan_bnl_covers_every_fact_tuple_once() {
        let (db, spec) = setup();
        let scan = GroupScan::from_spec(&db, &spec, 4).unwrap();
        let mut total = 0;
        let mut seen_r = HashSet::new();
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
        let star = JoinSpec::multiway("S", vec!["R".into(), "R".into()]);
        assert!(GroupScan::from_spec(&db, &star, 4).is_err());
    }

    #[test]
    fn denormalize_duplicates_dimension_features() {
        let (db, spec) = setup();
        let mut scan = FactorizedScan::new(&db, &spec, 8).unwrap();
        let mut from_blocks = Vec::new();
        let mut joined = RowBuf::default();
        while scan.next_window().unwrap() {
            while scan.next_block().unwrap() {
                let (block, rows) = (scan.block(), scan.block().rows());
                for f in 0..block.len() {
                    let row = dense(block.joined_row(f, scan.cache(), &mut joined));
                    let r = dense(scan.cache().row(0, block.ords_of(f)[0]));
                    assert_eq!(row, [rows.features(f)[0], r[0], r[1]]);
                    let fact = rows.tuple(f);
                    from_blocks.push(Tuple::joined(&fact, [&r[..]]));
                }
            }
        }
        assert_eq!(from_blocks.len(), 30);
        let mut from_groups: Vec<Tuple> = GroupScan::from_spec(&db, &spec, 8)
            .unwrap()
            .flat_map(|block| block.unwrap())
            .flat_map(|g| g.denormalize())
            .collect();
        from_groups.sort_by_key(|t| t.key);
        from_blocks.sort_by_key(|t| t.key);
        assert_eq!(from_groups, from_blocks);
    }

    #[test]
    fn group_scan_reset_allows_multiple_passes() {
        // A pass is one scan; a second pass is a second scan over the same
        // relations and sees the same groups.
        let (db, spec) = multi_window();
        let sizes = || -> Vec<(u64, usize)> {
            GroupScan::from_spec(&db, &spec, 1)
                .unwrap()
                .flat_map(|block| block.unwrap())
                .map(|g| (g.r_tuple.key, g.len()))
                .collect()
        };
        let first = sizes();
        assert_eq!(first.len(), 1200);
        assert_eq!(first.iter().map(|g| g.1).sum::<usize>(), 2400);
        assert_eq!(first, sizes());
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
                for (i, (dim, &fk)) in dims.iter().zip(&fact.fks).enumerate() {
                    let ord = scan.cache().ordinal(i, fk).unwrap();
                    assert_eq!(*dim, scan.cache().dense_row(i, ord));
                }
                let joined = scan.denormalize(&fact).unwrap();
                assert_eq!(joined.features.len(), 4);
                count += 1;
            }
        }
        assert_eq!(count, 20);

        // the pass itself: one window, the same joined rows, two ordinals per fact
        let mut pass = FactorizedScan::new(&db, &spec, 4).unwrap();
        assert!(pass.next_window().unwrap());
        let (mut joined, mut rows) = (0, RowBuf::default());
        while pass.next_block().unwrap() {
            let block = pass.block();
            for f in 0..block.len() {
                let row = block.joined_row(f, pass.cache(), &mut rows);
                assert_eq!(block.ords_of(f).len(), 2);
                let t = scan.denormalize(&block.rows().tuple(f)).unwrap();
                assert_eq!(row, BlockVec::Dense(&t.features));
                joined += 1;
            }
        }
        assert_eq!(joined, 20);
        assert!(!pass.next_window().unwrap());
        assert!(!pass.next_window().unwrap(), "the end of a pass is final");
    }

    #[test]
    fn a_fact_only_pass_over_a_materialized_table_is_its_block_scan() {
        // `M-*` reads its table T as the q = 0 join: one window of exactly
        // |T| pages, handing out BlockScan's rows in order, no ordinals.
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("S", 1, 1))
            .unwrap();
        for k in 0..50u64 {
            r.lock()
                .append(&Tuple::dimension(k, vec![k as f64, 1.0]))
                .unwrap();
        }
        for i in 0..2000u64 {
            let fact = Tuple::fact_with_target(i, vec![(7 * i) % 50], i as f64 / 2.0, vec![-1.0]);
            s.lock().append(&fact).unwrap();
        }
        r.lock().flush().unwrap();
        s.lock().flush().unwrap();
        let t = materialize_join(&db, &JoinSpec::binary("S", "R"), "T", 4).unwrap();
        let t_pages = t.lock().num_pages();
        assert!(t_pages > 4, "T spans several fact blocks");

        type Row = (u64, Option<f64>, Vec<f64>);
        let row = |rows: &RowBlock, f: usize| -> Row {
            (rows.keys()[f], rows.target(f), rows.features(f).to_vec())
        };
        let mut expected = Vec::new();
        let (mut scan, mut rows) = (BlockScan::new(t, 4), RowBlock::default());
        while scan.next_into(&mut rows).unwrap() {
            expected.extend((0..rows.len()).map(|f| row(&rows, f)));
        }

        db.stats().reset();
        let mut pass = FactorizedScan::new(&db, &JoinSpec::multiway("T", vec![]), 4).unwrap();
        let (mut got, mut buf) = (Vec::new(), RowBuf::default());
        assert!(pass.next_window().unwrap());
        while pass.next_block().unwrap() {
            let block = pass.block();
            for f in 0..block.len() {
                assert!(block.ords_of(f).is_empty());
                // the joined row is the stored row itself, not a copy
                let joined = block.joined_row(f, pass.cache(), &mut buf);
                assert_eq!(joined, BlockVec::Dense(block.rows().features(f)));
                assert!(
                    matches!(joined, BlockVec::Dense(x) if std::ptr::eq(x, block.rows().features(f)))
                );
            }
            got.extend((0..block.len()).map(|f| row(block.rows(), f)));
        }
        assert!(!pass.next_window().unwrap(), "one window");
        assert_eq!(db.stats().snapshot().pages_read as usize, t_pages);
        assert_eq!(got.len(), 2000);
        assert_eq!(got, expected);
    }

    #[test]
    fn group_scan_io_cost_matches_bnl_formula() {
        let (db, spec) = setup();
        let (r_pages, s_pages) = (pages(&db, "R"), pages(&db, "S"));
        db.stats().reset();
        let scan = GroupScan::from_spec(&db, &spec, 1).unwrap();
        for block in scan {
            block.unwrap();
        }
        let reads = db.stats().snapshot().pages_read as usize;
        assert_eq!(reads, r_pages + r_pages * s_pages);
    }

    #[test]
    fn typed_parts_join_into_the_rows_their_materialized_table_stores() {
        // S(x0, x1 dense) ⋈ R1(two one-hot variables) ⋈ R2(sparse, ≤ 2 of 8)
        use crate::schema::{FeatureGroup, RowKind};
        let db = Database::in_memory();
        let onehot = FeatureGroup::OneHot {
            cardinalities: vec![3, 2],
        };
        let sparse = FeatureGroup::SparseNumeric {
            width: 8,
            max_nnz: 2,
        };
        let r1 = Schema::dimension("R1", 0).with_groups(vec![onehot]);
        let r2 = Schema::dimension("R2", 0).with_groups(vec![sparse]);
        let (r1, r2) = (
            db.create_relation(r1).unwrap(),
            db.create_relation(r2).unwrap(),
        );
        let s = db
            .create_relation(Schema::fact_with_target("S", 2, 2))
            .unwrap();
        for k in 0..6u32 {
            let codes = [k % 3, 3 + k % 2];
            r1.lock()
                .append_row(u64::from(k), &[], None, BlockVec::OneHot(&codes))
                .unwrap();
            let (idx, vals) = ([k, 7], [f64::from(k) + 0.5, -1.0]);
            let row = BlockVec::Csr {
                idx: &idx[usize::from(k == 0)..],
                vals: &vals[usize::from(k == 0)..],
            };
            r2.lock().append_row(u64::from(k), &[], None, row).unwrap();
        }
        for i in 0..40u64 {
            let fact =
                Tuple::fact_with_target(i, vec![i % 6, (i / 6) % 6], 1.0, vec![i as f64, 0.0]);
            s.lock().append(&fact).unwrap();
        }
        for rel in [&r1, &r2, &s] {
            rel.lock().flush().unwrap();
        }
        let spec = JoinSpec::multiway("S", vec!["R1".into(), "R2".into()]);
        let t = materialize_join(&db, &spec, "T", 4).unwrap();
        assert_eq!(t.lock().schema().record_size(), 8 + 8 + 16 + 8 + 24);
        assert_eq!(t.lock().schema().row_kind(), RowKind::Csr);
        let stored = t.lock().read_all().unwrap();
        let (mut rows, mut scan) = (RowBlock::default(), BlockScan::new(t.clone(), 4));
        let mut t_rows = Vec::new();
        while scan.next_into(&mut rows).unwrap() {
            t_rows.extend((0..rows.len()).map(|f| format!("{:?}", rows.row(f))));
        }

        for mode in [SparseMode::Auto, SparseMode::Dense] {
            let mut pass = FactorizedScan::new(&db, &spec, 4)
                .unwrap()
                .sparse_mode(mode);
            let (mut f_all, mut buf) = (0, RowBuf::default());
            assert!(pass.next_window().unwrap());
            while pass.next_block().unwrap() {
                let block = pass.block();
                for f in 0..block.len() {
                    let row = block.joined_row(f, pass.cache(), &mut buf);
                    let want = &stored[f_all];
                    assert_eq!(block.rows().keys()[f], want.key);
                    match mode {
                        SparseMode::Auto => assert_eq!(format!("{row:?}"), t_rows[f_all]),
                        SparseMode::Dense => assert_eq!(row, BlockVec::Dense(&want.features)),
                    }
                    f_all += 1;
                }
            }
            assert_eq!(f_all, 40);
        }
        // one joined row, expanded: x_S | one-hot codes 1 and 1 | 1.5 and −1
        assert_eq!(
            stored[7].features,
            [7.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]
        );
    }
}
