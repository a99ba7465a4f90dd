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
//! the cache and the ordinal bases together through `&self` accessors.
//!
//! **Residency** follows from the join shape, there is nothing to configure:
//!
//! * a star join (`q > 1` dimensions) keeps every dimension resident, so a
//!   pass is one window;
//! * a fact-only join (`q = 0`) is one window with nothing resident: a plain
//!   block scan of the fact relation, `|S|` pages, no ordinals;
//! * a binary join (`q = 1`) streams `R` in windows of `block_pages` pages —
//!   the block-nested-loop join of Section V-A with `R` as the outer
//!   relation.  Ordinals are relative to the resident window;
//!   [`FactorizedScan::ordinal_base`] makes them unique across the pass.
//!
//! Either way a pass reads `|R| + ⌈|R|/BlockSize⌉·|S|` pages
//! (`|R| = Σ|R_i|`, the ceiling being 1 for a star), the figure
//! `GmmIoCostModel::join_pass_reads` predicts.  Memory is the resident
//! window plus one fact block — a binary pass never holds more than
//! `block_pages` pages of each relation.
//!
//! **Dangling foreign keys.**  A fact that matches no dimension tuple is a
//! typed [`StoreError::DanglingForeignKey`] on every path.  When the pass is
//! one window the fact block that contains it fails at once.  When `R` spans
//! several windows a fact absent from this window may sit in another one, so
//! the block skips it and the pass ends by comparing the number of facts it
//! handed out with `|S|`: fewer means a dangling key (named by one extra
//! scan), more means a primary key repeats across windows
//! ([`StoreError::SchemaMismatch`]).  Within a window a repeated key keeps
//! its last-stored tuple.
//!
//! [`GroupScan`], [`JoinGroup`] and [`StarScan`] are `Vec<Tuple>` probe
//! adapters over the pass, kept for the `benchmark/` package (see
//! [`crate::rows`]); no engine crate uses them.

use crate::batch::{BlockScan, RowBlock, RowBuf};
use crate::catalog::RelationHandle;
use crate::error::{StoreError, StoreResult};
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
///     while scan.next_block()? { /* scan.block(), scan.cache() */ }
///     // per-window aggregates are complete here
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
    /// Per dimension: tuples resident in the windows before the current one.
    bases: Vec<u32>,
    /// The resident window; empty before the first one.
    cache: DimCache,
    /// Whether a window has been made resident yet.
    opened: bool,
    /// The current window's fact scan.
    facts: Option<BlockScan>,
    /// The current fact block.
    block: FactBlock,
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
            bases: vec![0; q],
            dims,
            cache: DimCache::new(spec.dimensions.clone()),
            opened: false,
            facts: None,
            block: FactBlock {
                q,
                kind: spec.result_schema(db, "")?.row_kind(),
                ..FactBlock::default()
            },
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
        if self.opened {
            if self.dim_windows.iter().all(BlockScan::is_done) {
                self.facts = None;
                if !self.single_window {
                    check_every_fact_matched(&self.dims[0], &self.fact, self.matched)?;
                }
                return Ok(false);
            }
            for (i, base) in self.bases.iter_mut().enumerate() {
                let len = u32::try_from(self.cache.dim_len(i)).ok();
                *base = (len.and_then(|len| base.checked_add(len)))
                    .ok_or_else(|| ordinal_overflow(&self.dims[i]))?;
            }
        }
        for (i, window) in self.dim_windows.iter_mut().enumerate() {
            self.cache.load(i, window)?;
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

    /// Number of dimension-`i` tuples resident in earlier windows of this
    /// pass: `ordinal_base(i) + ordinal` is unique across the pass and the
    /// same in every pass over unchanged relations.
    pub fn ordinal_base(&self, i: usize) -> u32 {
        self.bases[i]
    }

    /// The fact block [`Self::next_block`] filled last.
    pub fn block(&self) -> &FactBlock {
        &self.block
    }

    /// Refills [`Self::block`] with the next fact block of the current
    /// window; `false` at its end.
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
        let mut kept = 0;
        for f in 0..n {
            let slots = &mut block.ords[kept * q..(kept + 1) * q];
            match cache.resident_ordinals(block.rows.fks(f), slots) {
                Ok(()) => {
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

/// The error of a dimension whose windows hold more rows than `u32` counts.
fn ordinal_overflow(dim: &RelationHandle) -> StoreError {
    StoreError::SchemaMismatch {
        relation: dim.lock().name().to_string(),
        detail: "tuples exceed the u32 ordinal range".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                .append(&Tuple::fact(i, vec![i % n_r], vec![i as f64]))
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

    /// Runs one pass, returning `(window, ordinal base, fact key, dimension key)`
    /// per fact handed out.
    fn pass(
        db: &Database,
        spec: &JoinSpec,
        block_pages: usize,
    ) -> StoreResult<Vec<(usize, u32, u64, u64)>> {
        let mut scan = FactorizedScan::new(db, spec, block_pages)?;
        let mut out = Vec::new();
        let mut window = 0;
        while scan.next_window()? {
            while scan.next_block()? {
                let block = scan.block();
                for f in 0..block.len() {
                    let dim = scan.cache().key(0, block.ords_of(f)[0]);
                    out.push((window, scan.ordinal_base(0), block.rows().keys()[f], dim));
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
        let keys: HashSet<u64> = rows.iter().map(|r| r.2).collect();
        assert_eq!(keys.len(), 2400);
        assert!(rows.iter().all(|&(_, _, fact, dim)| dim == fact % 1200));
        // four windows, visited in order, each with the tuples before it as base
        let windows: Vec<usize> = rows.iter().map(|r| r.0).collect();
        assert!(windows.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(windows.last(), Some(&3));
        let mut seen = 0;
        for w in 0..4 {
            let in_window: HashSet<u64> = rows.iter().filter(|r| r.0 == w).map(|r| r.3).collect();
            assert!(rows.iter().filter(|r| r.0 == w).all(|r| r.1 == seen));
            seen += in_window.len() as u32;
        }
        assert_eq!(seen, 1200);

        // R resident at once: one window, |R| + |S| reads, the same rows
        db.stats().reset();
        let one = pass(&db, &spec, 4).unwrap();
        assert_eq!(db.stats().snapshot().pages_read as usize, r_pages + s_pages);
        assert!(one.iter().all(|r| r.0 == 0 && r.1 == 0));
        let sorted = |mut v: Vec<(u64, u64)>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(one.iter().map(|r| (r.2, r.3)).collect()),
            sorted(rows.iter().map(|r| (r.2, r.3)).collect())
        );
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
