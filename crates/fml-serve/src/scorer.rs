//! Factorized batch scoring over normalized data.
//!
//! The paper's central move — push the model computation through the join
//! instead of materializing it — applies at inference time exactly as it does
//! at training time.  A trained model is scored over the base relations with
//! the same three strategies the trainers offer:
//!
//! * **Materialized** — materialize the join as a temporary table, then score
//!   every denormalized row (the oracle the equivalence tests compare
//!   against; pays the join materialization plus a full-width scan).
//! * **Streaming** — join on the fly and score each denormalized row (no
//!   materialization, but every dimension tuple's work is redone per fact).
//!
//!   Both score in panels of at most 256 joined rows, each dimension's term
//!   rows filled for the whole panel in one call (for GMM, two level-3
//!   products per component) — batched, but nothing reused across rows: they
//!   stay the redundant baselines the paper compares against.
//! * **Factorized** — the default: per-dimension-tuple score terms are
//!   computed **once per distinct dimension tuple** and reused for every
//!   matching fact row, reading the base relations through one
//!   [`FactorizedScan`] pass without ever densifying the join.
//!
//! ## Exactness contract
//!
//! All three strategies share one *block-decomposed row scorer* per model
//! family — the private `RowCore` implementations below, which are nothing
//! but the trainers' own engines: [`fml_gmm::EStep`] (the factorized E-step)
//! and [`fml_nn::FirstLayer`] (the factorized first layer).  Every per-row
//! quantity is computed block-by-block along the relation partition, combined
//! in a fixed block order, each block in the form its relation stores it
//! (one-hot / CSR / dense under [`SparseMode::Auto`], dense under
//! [`SparseMode::Dense`]) on every side.  The
//! factorized path merely *caches* the dimension-block term rows instead of
//! refilling them per row — the arithmetic per row is literally the same
//! function over the same operands, so factorized scoring equals the
//! materialized-join oracle **bit for bit** under every
//! [`fml_linalg::KernelPolicy`] × [`SparseMode`] combination (the
//! `scoring_equivalence` test suite pins this with `f64::to_bits`
//! comparisons).  A tuple's term row has the same bits whatever batch it was
//! filled in, so panel and block boundaries move no bit either.
//!
//! ## Per-block fan-out
//!
//! The factorized strategy has one driver for every join shape (a binary
//! join is the star with one dimension), shaped like the factorized GMM
//! trainer's E-step pass, and its worker count is a parameter: the resolved
//! [`ExecPolicy`] thread count under a parallel kernel policy, 1 otherwise.
//! Per fact block of the scan, whose foreign keys arrive resolved
//! to dimension ordinals (a dangling key surfacing as the same typed error
//! whatever the worker count), one sequential sweep fills the term row of
//! each dimension tuple the block references first (once per *distinct*
//! tuple), then [`par_row_bands_with_threads`] bands the block's *fact rows*
//! over arenas that are read-only by then — a scoped thread per band but
//! the last, which runs inline — each band writing its scores straight into
//! its slice of the output with one of the per-worker scratches allocated
//! once per call.  With one worker the block is a single band run inline,
//! and no thread is spawned.  Band boundaries
//! depend only on block shape and worker count, and every row's arithmetic is
//! independent of which band ran it — so the exactness contract above
//! extends to **every thread count**.  Kernels inside bands are sequential
//! (the fan-out is per band, not per kernel), and
//! observers get one notification per fact block from the scoring thread,
//! never from a band's thread.  Rows come out in the scan's
//! `(window, fact)` order under all three strategies.

use crate::observe::{ScoreNotifier, ScoreObserver};
use fml_core::{Algorithm, Session, Trained};
use fml_gmm::model::argmax;
use fml_gmm::{EStep, FillScratch, GmmFit, Precomputed};
use fml_linalg::block::BlockPartition;
use fml_linalg::exec::{ExecPolicy, ExecSettings};
use fml_linalg::policy::par_row_bands_with_threads;
use fml_linalg::{BlockVec, SparseMode};
use fml_nn::{FirstLayer, Mlp, NnFit, Workspace};
use fml_store::batch::{RowBuf, RowPanel};
use fml_store::factorized_scan::FactorizedScan;
use fml_store::join::materialize_join;
use fml_store::{Database, IoSnapshot, JoinSpec, OrdinalArena, RowKind, StoreError, StoreResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for one scoring run: the strategy plus an optional per-batch
/// telemetry observer — the scoring-side analogue of the estimator builders.
#[derive(Clone, Default)]
pub struct Scoring {
    strategy: Algorithm,
    observer: Option<Arc<dyn ScoreObserver>>,
}

impl std::fmt::Debug for Scoring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scoring")
            .field("strategy", &self.strategy)
            .field("observer", &self.observer.as_ref().map(|_| "<dyn>"))
            .finish()
    }
}

impl Scoring {
    /// Default options: factorized scoring, no observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the scoring strategy (mirrors the estimators' `algorithm`
    /// builder; the default is [`Algorithm::Factorized`]).
    pub fn algorithm(mut self, strategy: Algorithm) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a per-batch telemetry observer.
    pub fn observe(mut self, observer: Arc<dyn ScoreObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Algorithm {
        self.strategy
    }

    fn observer(&self) -> Option<&dyn ScoreObserver> {
        self.observer.as_deref()
    }
}

/// The result of scoring a batch: per-row outputs keyed by the fact tuple's
/// primary key, plus the shared accounting every strategy reports (I/O delta,
/// strategy, wall-time) — the scoring-side twin of [`Trained`].
#[derive(Debug, Clone)]
pub struct Scores<R> {
    /// Fact-table primary keys in scan order (the order rows were scored).
    pub keys: Vec<u64>,
    /// Per-row outputs, index-aligned with [`Scores::keys`].
    pub rows: Vec<R>,
    /// The strategy that produced the scores.
    pub strategy: Algorithm,
    /// Storage I/O performed during scoring.
    pub io: IoSnapshot,
    /// Wall-clock time of the whole scoring call.
    pub elapsed: Duration,
}

impl<R> Scores<R> {
    /// Number of scored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were scored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(fact key, row output)` pairs in scan order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &R)> {
        self.keys.iter().copied().zip(self.rows.iter())
    }

    /// Consumes the scores into `(key, row)` pairs sorted by fact key — for
    /// comparisons and result joins that should not depend on the scan order
    /// (which changes with `block_pages` when `R` spans several windows).
    pub fn into_sorted_by_key(self) -> Vec<(u64, R)> {
        let mut pairs: Vec<(u64, R)> = self.keys.into_iter().zip(self.rows).collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs
    }
}

impl Scores<GmmScore> {
    /// Total log-likelihood of the scored batch under the model.
    pub fn total_log_likelihood(&self) -> f64 {
        self.rows.iter().map(|r| r.log_likelihood).sum()
    }
}

impl Scores<f64> {
    /// Mean of the regression outputs (a quick sanity aggregate for benches).
    pub fn mean_output(&self) -> f64 {
        if self.rows.is_empty() {
            return f64::NAN;
        }
        self.rows.iter().sum::<f64>() / self.rows.len() as f64
    }
}

/// Per-row GMM score: the hard cluster assignment plus the row's
/// log-likelihood contribution (what [`fml_gmm::GmmModel::predict_batch`]
/// returns per row, produced here without densifying the join).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GmmScore {
    /// Most probable mixture component.
    pub cluster: usize,
    /// Log-likelihood contribution `ln p(x)` of the row.
    pub log_likelihood: f64,
}

/// A model family that can score a batch of fact rows over a normalized join.
///
/// Implemented per fit type ([`GmmFit`] → responsibilities / cluster
/// assignments, [`NnFit`] → regression outputs); the preferred entry point is
/// [`SessionScoring::score`] on a [`Session`].
pub trait Scorer {
    /// The per-row output (e.g. [`GmmScore`], `f64`).
    type Row;

    /// Scores every fact row of the join described by `spec`, under the
    /// execution policy's kernel/sparse/threads settings and the scoring
    /// options' strategy.
    fn score_batch(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
        opts: &Scoring,
    ) -> StoreResult<Scores<Self::Row>>;
}

/// Extension trait giving [`Session`] a scoring entry point symmetric to
/// [`Session::fit`]: `session.score(&trained)` scores the session's join with
/// the session's execution policy.
pub trait SessionScoring {
    /// Scores a trained model over the session's join with the default
    /// (factorized) strategy.
    ///
    /// # Errors
    /// [`StoreError::NoJoin`] when the session has no join (same contract
    /// as [`Session::fit`]), and otherwise the scorer's own errors.
    fn score<F>(&self, trained: &Trained<F>) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer;

    /// [`SessionScoring::score`] with explicit [`Scoring`] options
    /// (strategy, observer).
    fn score_with<F>(&self, trained: &Trained<F>, opts: &Scoring) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer;
}

impl SessionScoring for Session<'_> {
    fn score<F>(&self, trained: &Trained<F>) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer,
    {
        self.score_with(trained, &Scoring::new())
    }

    fn score_with<F>(&self, trained: &Trained<F>, opts: &Scoring) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer,
    {
        let spec = self.join_spec().ok_or(StoreError::NoJoin)?;
        trained
            .fit
            .score_batch(self.db(), spec, self.exec_policy(), opts)
    }
}

/// The per-family row-scoring arithmetic, decomposed along the relation
/// partition.  One implementation serves all three strategies: the
/// factorized path fills [`RowCore::dim_terms`] once per distinct dimension
/// tuple, the streaming/materialized paths refill them per panel of joined
/// rows from the rows' slices — same function, same operands, identical bits.
trait RowCore {
    /// Per-row output.
    type Row;
    /// Reusable scratch buffers, allocated once per worker and scoring call
    /// instead of once per row (the hot path scores millions of rows).
    type Scratch;

    /// Allocates the scratch buffers for one worker.
    fn make_scratch(&self) -> Self::Scratch;

    /// Number of values in the term row of dimension `i` (0-based).
    fn dim_width(&self, i: usize) -> usize;

    /// Fills the rows of `out` at the ordinals `ords` with the reusable
    /// terms of those tuples of dimension `i`; `tuple(o)` is tuple `o`'s
    /// features in their stored form.
    fn dim_terms<'t>(
        &self,
        i: usize,
        ords: &[u32],
        tuple: impl Fn(u32) -> BlockVec<'t>,
        out: &mut OrdinalArena,
        scratch: &mut Self::Scratch,
    );

    /// Scores one fact row given its features and the term row `dims(i)` of
    /// every referenced dimension tuple.
    fn score_row<'d>(
        &self,
        fact: BlockVec<'_>,
        dims: impl Fn(usize) -> &'d [f64],
        scratch: &mut Self::Scratch,
    ) -> Self::Row;
}

/// Scratch for GMM scoring: the log-density buffer, the centered fact vector
/// and the term-row fill's buffers, reused across every scored row.
struct GmmScratch {
    log_dens: Vec<f64>,
    pd_s: Vec<f64>,
    fill: FillScratch,
}

/// Ridge used to repair a non-SPD covariance when building the scoring
/// precomputation — the same default regularization the trainers apply
/// (`GmmConfig::default().ridge`).  Healthy models never take the repair
/// path, so this cannot change their scores; degenerate ones (a collapsed
/// component, a hand-edited persisted file) score instead of panicking.
const SCORING_RIDGE: f64 = 1e-6;

/// GMM scoring is the trainers' E-step: the term rows of dimension tuples
/// are [`EStep::fill_rows`], a fact's score is [`EStep::log_densities`]
/// finished into responsibilities, the cluster by [`argmax`]'s NaN rule.
impl RowCore for EStep {
    type Row = GmmScore;
    type Scratch = GmmScratch;

    fn make_scratch(&self) -> GmmScratch {
        GmmScratch {
            log_dens: vec![0.0; self.k()],
            pd_s: vec![0.0; self.k() * self.fact_width()],
            fill: FillScratch::default(),
        }
    }

    fn dim_width(&self, i: usize) -> usize {
        self.row_len(i)
    }

    fn dim_terms<'t>(
        &self,
        i: usize,
        ords: &[u32],
        tuple: impl Fn(u32) -> BlockVec<'t>,
        out: &mut OrdinalArena,
        scratch: &mut GmmScratch,
    ) {
        self.fill_rows(i, ords, tuple, out, &mut scratch.fill);
    }

    fn score_row<'d>(
        &self,
        fact: BlockVec<'_>,
        dims: impl Fn(usize) -> &'d [f64],
        scratch: &mut GmmScratch,
    ) -> GmmScore {
        let GmmScratch { log_dens, pd_s, .. } = scratch;
        self.log_densities(fact, dims, pd_s, log_dens);
        let log_likelihood = self.pre.finish_responsibilities_in_place(log_dens);
        GmmScore {
            cluster: argmax(log_dens),
            log_likelihood,
        }
    }
}

/// NN scoring is the trainers' factorized first layer (hoisted once per
/// batch, exactly as the trainers hoist it once per epoch) followed by the
/// dense layers ≥ 2.
struct NnCore<'m> {
    model: &'m Mlp,
    first: FirstLayer,
    /// Number of dimension blocks.
    q: usize,
}

impl RowCore for NnCore<'_> {
    type Row = f64;
    /// The per-row buffers: `a¹` and the activations of every layer.
    type Scratch = Workspace;

    fn make_scratch(&self) -> Workspace {
        self.model.workspace()
    }

    fn dim_width(&self, _i: usize) -> usize {
        self.first.width()
    }

    /// The partial first-layer product `W¹_{R_i}·x_{R_i}` (the sum of the
    /// embedding-table rows the tuple selects), written straight into its
    /// term row, tuple by tuple.
    fn dim_terms<'t>(
        &self,
        i: usize,
        ords: &[u32],
        tuple: impl Fn(u32) -> BlockVec<'t>,
        out: &mut OrdinalArena,
        _ws: &mut Workspace,
    ) {
        for &o in ords {
            self.first.partial(i + 1, tuple(o), out.row_mut(o));
        }
    }

    fn score_row<'d>(
        &self,
        fact: BlockVec<'_>,
        dims: impl Fn(usize) -> &'d [f64],
        ws: &mut Workspace,
    ) -> f64 {
        // a¹ = (W¹_S·x_S + b¹) + Σ_i W¹_{R_i}·x_{R_i}, assembled in fixed
        // partition order so every strategy produces identical bits.
        let partials = (0..self.q).map(dims);
        self.first
            .pre_activation(fact, partials, ws.first_preactivation());
        self.model.forward_from_first_preactivation(ws)
    }
}

// ---------------------------------------------------------------------------
// Strategy drivers
// ---------------------------------------------------------------------------

/// Where every driver puts its scored rows: `(key, row)` pairs in scan
/// order, reserved to the fact count up front, with one observer
/// notification per scan block.
struct Sink<'a, R> {
    keys: Vec<u64>,
    rows: Vec<R>,
    notifier: ScoreNotifier<'a>,
    notified: usize,
}

impl<R> Sink<'_, R> {
    fn push(&mut self, key: u64, row: R) {
        self.keys.push(key);
        self.rows.push(row);
    }

    /// Ends a scan block: notifies the rows pushed since the previous one.
    fn end_block(&mut self) {
        self.notifier
            .notify((self.keys.len() - self.notified) as u64);
        self.notified = self.keys.len();
    }
}

/// Scores the join with the options' strategy, fanning each row through the
/// shared [`RowCore`].
///
/// The factorized driver fans each fact block out over `workers` chunks (see
/// the module docs); streaming and materialized scoring are one sequential
/// loop over panels of denormalized rows (they are the oracles).
fn run_scoring<C>(
    core: &C,
    db: &Database,
    spec: &JoinSpec,
    partition: &BlockPartition,
    ex: &ExecSettings,
    opts: &Scoring,
) -> StoreResult<(Vec<u64>, Vec<C::Row>)>
where
    C: RowCore + Sync,
    C::Row: Send + Default,
    C::Scratch: Send,
{
    // The oracle's join materialization happens before the observer's I/O
    // baseline is read: batch events report scoring I/O only.  The oracle
    // then scores its table as the fact-only join (`q = 0`).
    let source = match opts.strategy() {
        Algorithm::Materialized => {
            let t_name = score_table_name(spec);
            if db.contains(&t_name) {
                db.drop_relation(&t_name)?;
            }
            materialize_join(db, spec, t_name.clone(), ex.block_pages)?;
            JoinSpec::multiway(t_name, vec![])
        }
        _ => spec.clone(),
    };
    let facts = source.fact_relation(db)?.lock().num_tuples() as usize;
    let probe = db.stats().io_probe();
    let mut out = Sink {
        keys: Vec::with_capacity(facts),
        rows: Vec::with_capacity(facts),
        notifier: ScoreNotifier::new(opts.observer(), Some(&probe)),
        notified: 0,
    };
    if opts.strategy() == Algorithm::Factorized {
        let workers = ex.workers(ex.kernel_policy.is_parallel());
        score_factorized(core, db, spec, ex, workers, &mut out)?;
    } else {
        // Each relation's block of a joined row, cut back out in its form.
        let kinds = match ex.sparse {
            SparseMode::Auto => spec.row_kinds(db)?,
            SparseMode::Dense => vec![RowKind::Dense; partition.num_blocks()],
        };
        score_denormalized(core, db, &source, partition, &kinds, ex, &mut out)?;
    }
    Ok((out.keys, out.rows))
}

/// Factorized scoring, shaped like the factorized trainers' E-step pass: per
/// fact block, a sequential sweep fills the [`OrdinalArena`] term rows of the
/// tuples the block references first (`FactBlock::first_refs`), one
/// [`RowCore::dim_terms`] call per dimension (once per *distinct* tuple for
/// the whole batch; tuples no fact references are never read), then the
/// per-fact scoring fans out over `workers` row bands that read the arenas
/// immutably and write the block's scores in place.
fn score_factorized<C>(
    core: &C,
    db: &Database,
    spec: &JoinSpec,
    ex: &ExecSettings,
    workers: usize,
    out: &mut Sink<'_, C::Row>,
) -> StoreResult<()>
where
    C: RowCore + Sync,
    C::Row: Send + Default,
    C::Scratch: Send,
{
    let q = spec.num_dimensions();
    let mut arenas: Vec<OrdinalArena> = (0..q)
        .map(|i| OrdinalArena::new(core.dim_width(i)))
        .collect();
    let mut scratch: Vec<C::Scratch> = (0..workers).map(|_| core.make_scratch()).collect();
    let scan = FactorizedScan::new(db, spec, ex.block_pages)?;
    let mut scan = scan.sparse_mode(ex.sparse);
    while scan.next_window()? {
        while scan.next_block()? {
            let (block, cache) = (scan.block(), scan.cache());
            for (i, arena) in arenas.iter_mut().enumerate() {
                let first = block.first_refs(i);
                core.dim_terms(i, first, |o| cache.row(i, o), arena, &mut scratch[0]);
            }
            let facts = block.rows();
            out.keys.extend_from_slice(facts.keys());
            let start = out.rows.len();
            out.rows.resize_with(start + block.len(), Default::default);
            let rows = &mut out.rows[start..];
            par_row_bands_with_threads(workers, rows, 1, 1, &mut scratch, |first, band, s| {
                for (row, f) in band.iter_mut().zip(first..) {
                    let ords = block.ords_of(f);
                    *row = core.score_row(facts.row(f), |i| arenas[i].row(ords[i]), s);
                }
            });
            out.end_block();
        }
    }
    Ok(())
}

/// Joined rows per panel of the materialized and streaming scorers; the bound
/// matters: whole-block panels raised the benchmark's peak RSS by half or more.
const PANEL_ROWS: usize = 256;

/// Materialized and streaming scoring: one pass over `source` — the
/// materialized table as the fact-only join, or the join itself — in panels
/// of [`PANEL_ROWS`] rows cut into their relations' blocks (in `kinds`), every
/// dimension's term rows refilled for every row (the deliberately redundant
/// arithmetic the factorized path avoids), then each row scored.
fn score_denormalized<C: RowCore>(
    core: &C,
    db: &Database,
    source: &JoinSpec,
    partition: &BlockPartition,
    kinds: &[RowKind],
    ex: &ExecSettings,
    out: &mut Sink<'_, C::Row>,
) -> StoreResult<()> {
    let mut parts: Vec<RowPanel> = kinds.iter().map(|&kind| RowPanel::new(kind)).collect();
    // Row `r` of a panel is ordinal `r` of every dimension's term arena.
    let ords: Vec<u32> = (0..PANEL_ROWS as u32).collect();
    let mut terms: Vec<OrdinalArena> = (0..kinds.len() - 1)
        .map(|i| OrdinalArena::new(core.dim_width(i)))
        .collect();
    let (mut joined, mut scratch) = (RowBuf::default(), core.make_scratch());
    let scan = FactorizedScan::new(db, source, ex.block_pages)?;
    let mut scan = scan.sparse_mode(ex.sparse);
    while scan.next_window()? {
        while scan.next_block()? {
            let block = scan.block();
            let keys = block.rows().keys();
            for start in (0..block.len()).step_by(PANEL_ROWS) {
                let end = block.len().min(start + PANEL_ROWS);
                parts.iter_mut().for_each(RowPanel::clear);
                for f in start..end {
                    let row = block.joined_row(f, scan.cache(), &mut joined);
                    for (b, part) in parts.iter_mut().enumerate() {
                        part.push(row, partition.range(b));
                    }
                }
                let ords = &ords[..end - start];
                for (i, arena) in terms.iter_mut().enumerate() {
                    let tuple = |r: u32| parts[i + 1].row(r as usize);
                    core.dim_terms(i, ords, tuple, arena, &mut scratch);
                }
                for (r, f) in (start..end).enumerate() {
                    let dims = |i: usize| terms[i].row(r as u32);
                    out.push(keys[f], core.score_row(parts[0].row(r), dims, &mut scratch));
                }
            }
            out.end_block();
        }
    }
    Ok(())
}

/// Name of the temporary join table the materialized strategy scores from.
pub fn score_table_name(spec: &JoinSpec) -> String {
    format!("__T_score_{}", spec.fact)
}

// ---------------------------------------------------------------------------
// Scorer impls
// ---------------------------------------------------------------------------

/// What both families' [`Scorer::score_batch`] share: validate the join,
/// check the model's input width against it (a model of another width is a
/// [`StoreError::SchemaMismatch`] naming both), install the run's scopes, and
/// run the core `build` returns through the options' strategy — bracketed by
/// the shared measurement scaffolding (I/O snapshot delta + wall-time,
/// mirroring [`fml_core::api::fit_measured`]).  The core is built inside the
/// measured region: the per-batch precomputation (Cholesky inversions, block
/// forms, sparse constants, the first-layer column split) is part of the
/// scoring call's documented elapsed/I/O accounting.
fn score_join<C>(
    model_dim: usize,
    db: &Database,
    spec: &JoinSpec,
    exec: &ExecPolicy,
    opts: &Scoring,
    build: impl FnOnce(&BlockPartition, &ExecSettings) -> C,
) -> StoreResult<Scores<C::Row>>
where
    C: RowCore + Sync,
    C::Row: Send + Default,
    C::Scratch: Send,
{
    spec.validate(db)?;
    let partition = BlockPartition::new(&spec.feature_partition(db)?);
    if model_dim != partition.total_dim() {
        return Err(StoreError::SchemaMismatch {
            relation: spec.fact.clone(),
            detail: format!(
                "the model takes {model_dim} features, the join has {}",
                partition.total_dim()
            ),
        });
    }
    let ex = exec.resolve();
    // The resolved observability mode governs instrumentation on every
    // thread this run touches (fan-out threads, storage scans).
    let _obs = ex.obs_scope();
    let _span = fml_obs::span!("score");
    let before = db.stats().snapshot();
    let start = Instant::now();
    let core = build(&partition, &ex);
    let (keys, rows) = run_scoring(&core, db, spec, &partition, &ex, opts)?;
    Ok(Scores {
        keys,
        rows,
        strategy: opts.strategy(),
        io: db.stats().snapshot().delta_since(&before),
        elapsed: start.elapsed(),
    })
}

impl Scorer for GmmFit {
    type Row = GmmScore;

    /// Batch-scores the fitted mixture: per fact row, the hard cluster
    /// assignment and the row's log-likelihood contribution.
    fn score_batch(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
        opts: &Scoring,
    ) -> StoreResult<Scores<GmmScore>> {
        score_join(self.model.dim(), db, spec, exec, opts, |partition, ex| {
            EStep::new(
                Precomputed::from_model(&self.model, SCORING_RIDGE),
                partition,
                ex.sparse,
            )
        })
    }
}

impl Scorer for NnFit {
    type Row = f64;

    /// Batch-scores the fitted network: per fact row, the regression output.
    fn score_batch(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
        opts: &Scoring,
    ) -> StoreResult<Scores<f64>> {
        let model = &self.model;
        score_join(model.input_dim(), db, spec, exec, opts, |partition, _| {
            NnCore {
                model,
                first: FirstLayer::split(model, partition.sizes()),
                q: partition.num_blocks() - 1,
            }
        })
    }
}
