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
//! in a fixed block order, with the same sparse-representation dispatch
//! ([`SparseMode::Auto`] one-hot / CSR detection) on both sides.  The
//! factorized path merely *caches* the dimension-block term rows instead of
//! refilling them per row — the arithmetic per row is literally the same
//! function over the same operands, so factorized scoring equals the
//! materialized-join oracle **bit for bit** under every
//! [`fml_linalg::KernelPolicy`] × [`SparseMode`] combination (the
//! `scoring_equivalence` test suite pins this with `f64::to_bits`
//! comparisons).
//!
//! ## Per-block fan-out
//!
//! The factorized strategy has one driver for every join shape (a binary
//! join is the star with one dimension), shaped like the factorized GMM
//! trainer's E-step pass, and its worker count is a parameter: the resolved
//! [`ExecPolicy`] thread count under a parallel kernel policy, 1 otherwise —
//! the same rule, and the same [`par_chunks_with_threads`] call, as the
//! trainer.  Per fact block of the scan, whose foreign keys arrive resolved
//! to dimension ordinals (a dangling key surfacing as the same typed error
//! whatever the worker count), one sequential sweep fills the term row of
//! each newly referenced dimension tuple (terms and sparse detection once
//! per *distinct* tuple), then the block's *fact rows* are chunked over
//! arenas that are read-only by then.  With one worker the block is a single
//! chunk run inline.  Chunk boundaries depend only on block shape and worker
//! count, every row's arithmetic is independent of which chunk ran it, and
//! per-chunk results merge in chunk-index order — so the exactness contract
//! above extends to **every thread count**.  Kernels inside workers run the
//! sequential policy (the pool is entered at the coarse per-chunk level, not
//! per kernel), and observers get one notification per fact block from the
//! scoring thread, never from workers.  Rows come out in the scan's
//! `(window, fact)` order under all three strategies.

use crate::observe::{ScoreNotifier, ScoreObserver};
use fml_core::{Algorithm, Session, Trained};
use fml_gmm::model::argmax;
use fml_gmm::{EStep, GmmFit, Precomputed};
use fml_linalg::block::BlockPartition;
use fml_linalg::exec::{ExecPolicy, ExecSettings};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::OrdinalArena;
use fml_linalg::sparse::{SparseMode, SparseRep};
use fml_linalg::KernelPolicy;
use fml_nn::{FirstLayer, Mlp, NnFit, Workspace};
use fml_store::factorized_scan::{FactBlock, FactorizedScan};
use fml_store::join::materialize_join;
use fml_store::{Database, IoSnapshot, JoinSpec, StoreResult};
use std::ops::Range;
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// # Panics
    /// Panics when the session has no join (same contract as
    /// [`Session::fit`]).
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
        let spec = self
            .join_spec()
            .expect("Session::score requires a join: call Session::join(spec) first");
        trained
            .fit
            .score_batch(self.db(), spec, self.exec_policy(), opts)
    }
}

/// The per-family row-scoring arithmetic, decomposed along the relation
/// partition.  One implementation serves all three strategies: the
/// factorized path fills [`RowCore::dim_terms`] once per distinct dimension
/// tuple, the streaming/materialized paths refill them per row from the
/// joined row's slices — same function, same operands, identical bits.
trait RowCore {
    /// Per-row output.
    type Row;
    /// Reusable per-chunk scratch buffers, allocated once per chunk instead
    /// of once per row (the hot path scores millions of rows).
    type Scratch;

    /// Allocates the scratch buffers for one chunk of rows.
    fn make_scratch(&self) -> Self::Scratch;

    /// Number of values in the term row of dimension `i` (0-based).
    fn dim_width(&self, i: usize) -> usize;

    /// Fills `row` (`dim_width(i)` values) with the reusable terms of one
    /// tuple of dimension `i`, from its features and its detected sparse
    /// representation.
    fn dim_terms(&self, i: usize, features: &[f64], rep: Option<&SparseRep>, row: &mut [f64]);

    /// Scores one fact row given its features, its sparse representation and
    /// the term row of every referenced dimension tuple, in partition order.
    fn score_row(
        &self,
        fact_features: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: &[&[f64]],
        scratch: &mut Self::Scratch,
    ) -> Self::Row;
}

/// Per-chunk scratch for GMM scoring: the log-density buffer and the
/// centered fact vector, reused across every scored row.
struct GmmScratch {
    log_dens: Vec<f64>,
    pd_s: Vec<f64>,
}

/// Ridge used to repair a non-SPD covariance when building the scoring
/// precomputation — the same default regularization the trainers apply
/// (`GmmConfig::default().ridge`).  Healthy models never take the repair
/// path, so this cannot change their scores; degenerate ones (a collapsed
/// component, a hand-edited persisted file) score instead of panicking.
const SCORING_RIDGE: f64 = 1e-6;

/// GMM scoring is the trainers' E-step: the term row of a dimension tuple is
/// [`EStep::fill_row`], a fact's score is [`EStep::log_densities`] finished
/// into responsibilities.
impl RowCore for EStep {
    type Row = GmmScore;
    type Scratch = GmmScratch;

    fn make_scratch(&self) -> GmmScratch {
        GmmScratch {
            log_dens: vec![0.0; self.k()],
            pd_s: vec![0.0; self.fact_width()],
        }
    }

    fn dim_width(&self, i: usize) -> usize {
        self.row_len(i)
    }

    fn dim_terms(&self, i: usize, features: &[f64], rep: Option<&SparseRep>, row: &mut [f64]) {
        self.fill_row(i, features, rep, row);
    }

    fn score_row(
        &self,
        fact_features: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: &[&[f64]],
        scratch: &mut GmmScratch,
    ) -> GmmScore {
        let GmmScratch { log_dens, pd_s } = scratch;
        self.log_densities(fact_features, fact_rep, dims, pd_s, log_dens);
        let (resp, log_likelihood) = self.pre.finish_responsibilities(log_dens);
        GmmScore {
            cluster: argmax(&resp),
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
    kp: KernelPolicy,
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
    /// term row.
    fn dim_terms(&self, i: usize, features: &[f64], rep: Option<&SparseRep>, row: &mut [f64]) {
        self.first.partial(i + 1, features, rep, row);
    }

    fn score_row(
        &self,
        fact_features: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: &[&[f64]],
        ws: &mut Workspace,
    ) -> f64 {
        // a¹ = (W¹_S·x_S + b¹) + Σ_i W¹_{R_i}·x_{R_i}, assembled in fixed
        // partition order so every strategy produces identical bits.
        let partials = dims.iter().copied();
        self.first
            .pre_activation(fact_features, fact_rep, partials, ws.first_preactivation());
        self.model
            .forward_from_first_preactivation_with(self.kp, ws)
    }
}

// ---------------------------------------------------------------------------
// Strategy drivers
// ---------------------------------------------------------------------------

/// Where every driver puts its scored rows: `(key, row)` pairs in scan
/// order, with one observer notification per scan block.
struct Sink<'a, R> {
    keys: Vec<u64>,
    rows: Vec<R>,
    notifier: ScoreNotifier<'a>,
    notified: usize,
}

/// The `(keys, rows)` one chunk of a factorized block scored, in scan order.
type Scored<R> = (Vec<u64>, Vec<R>);

impl<R> Sink<'_, R> {
    fn push(&mut self, key: u64, row: R) {
        self.keys.push(key);
        self.rows.push(row);
    }

    /// Appends a block's chunks in chunk-index order.
    fn extend(&mut self, chunks: Vec<Scored<R>>) {
        for (keys, rows) in chunks {
            self.keys.extend(keys);
            self.rows.extend(rows);
        }
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
/// denormalized-row loop (they are the oracles).
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
    C::Row: Send,
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
    let probe = db.stats().io_probe();
    let mut out = Sink {
        keys: Vec::new(),
        rows: Vec::new(),
        notifier: ScoreNotifier::new(opts.observer(), Some(&probe)),
        notified: 0,
    };
    if opts.strategy() == Algorithm::Factorized {
        let workers = ex.workers(ex.kernel_policy.is_parallel());
        score_factorized(core, db, spec, ex, workers, &mut out)?;
    } else {
        score_denormalized(core, db, &source, partition, ex, &mut out)?;
    }
    Ok((out.keys, out.rows))
}

/// Factorized scoring, shaped like the factorized trainers' E-step pass: per
/// fact block, a sequential sweep fills the [`OrdinalArena`] term row of each
/// newly referenced dimension tuple (terms and detection once per *distinct*
/// tuple for the whole batch; tuples no fact references are never read), then
/// the per-fact scoring fans out over `workers` chunks that read the arenas
/// immutably.
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
    C::Row: Send,
{
    let q = spec.num_dimensions();
    let mut arenas: Vec<OrdinalArena> = (0..q)
        .map(|i| OrdinalArena::new(core.dim_width(i)))
        .collect();
    let mut scan = FactorizedScan::new(db, spec, ex.block_pages)?;
    while scan.next_window()? {
        for (i, arena) in arenas.iter_mut().enumerate() {
            arena.reset(scan.cache().dim_len(i));
        }
        while scan.next_block()? {
            let block = scan.block();
            for f in 0..block.len() {
                for (i, &ord) in block.ords_of(f).iter().enumerate() {
                    if arenas[i].claim(ord) {
                        let features = scan.cache().row(i, ord);
                        let rep = ex.sparse.detect(features);
                        core.dim_terms(i, features, rep.as_ref(), arenas[i].row_mut(ord));
                    }
                }
            }
            let chunks = par_chunks_with_threads(workers, block.len(), 1, |range| {
                score_facts(core, ex.sparse, &arenas, block, range)
            });
            out.extend(chunks);
            out.end_block();
        }
    }
    Ok(())
}

/// One chunk of a fact block, whose term rows the sweep has filled.
fn score_facts<C: RowCore>(
    core: &C,
    mode: SparseMode,
    arenas: &[OrdinalArena],
    block: &FactBlock,
    range: Range<usize>,
) -> Scored<C::Row> {
    let mut scratch = core.make_scratch();
    let mut dims: Vec<&[f64]> = Vec::with_capacity(arenas.len());
    let (mut keys, mut rows) = (
        Vec::with_capacity(range.len()),
        Vec::with_capacity(range.len()),
    );
    let facts = block.rows();
    for f in range {
        let x_s = facts.features(f);
        dims.clear();
        dims.extend((arenas.iter().zip(block.ords_of(f))).map(|(a, &ord)| a.row(ord)));
        let rep = mode.detect(x_s);
        rows.push(core.score_row(x_s, rep.as_ref(), &dims, &mut scratch));
        keys.push(facts.keys()[f]);
    }
    (keys, rows)
}

/// Scores denormalized rows by splitting each along the partition and
/// refilling every dimension block's term row — the deliberately redundant
/// arithmetic the factorized path avoids, shared by the streaming and
/// materialized strategies.
struct JoinedRows<'c, C: RowCore> {
    core: &'c C,
    partition: &'c BlockPartition,
    mode: SparseMode,
    terms: Vec<Vec<f64>>,
    scratch: C::Scratch,
}

impl<'c, C: RowCore> JoinedRows<'c, C> {
    fn new(core: &'c C, partition: &'c BlockPartition, mode: SparseMode) -> Self {
        Self {
            core,
            partition,
            mode,
            terms: (0..partition.num_blocks() - 1)
                .map(|i| vec![0.0; core.dim_width(i)])
                .collect(),
            scratch: core.make_scratch(),
        }
    }

    fn score(&mut self, features: &[f64]) -> C::Row {
        let parts = self.partition.split(features);
        for (i, row) in self.terms.iter_mut().enumerate() {
            let rep = self.mode.detect(parts[i + 1]);
            self.core.dim_terms(i, parts[i + 1], rep.as_ref(), row);
        }
        let fact_rep = self.mode.detect(parts[0]);
        let dims: Vec<&[f64]> = self.terms.iter().map(Vec::as_slice).collect();
        self.core
            .score_row(parts[0], fact_rep.as_ref(), &dims, &mut self.scratch)
    }
}

/// Materialized and streaming scoring: one pass over `source` — the
/// materialized table as the fact-only join, or the join itself — scoring
/// each denormalized row.
fn score_denormalized<C: RowCore>(
    core: &C,
    db: &Database,
    source: &JoinSpec,
    partition: &BlockPartition,
    ex: &ExecSettings,
    out: &mut Sink<'_, C::Row>,
) -> StoreResult<()> {
    let mut joined = JoinedRows::new(core, partition, ex.sparse);
    let mut buf = Vec::with_capacity(partition.total_dim());
    let mut scan = FactorizedScan::new(db, source, ex.block_pages)?;
    while scan.next_window()? {
        while scan.next_block()? {
            let block = scan.block();
            for (f, &key) in block.rows().keys().iter().enumerate() {
                let row = block.joined_row(f, scan.cache(), &mut buf);
                out.push(key, joined.score(row));
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
/// check the model's input width against it, install the run's scopes, and
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
    C::Row: Send,
{
    spec.validate(db)?;
    let partition = BlockPartition::new(&spec.feature_partition(db)?);
    assert_eq!(
        model_dim,
        partition.total_dim(),
        "model dimension mismatch against the join's feature width"
    );
    let ex = exec.resolve();
    // The resolved observability mode governs instrumentation on every
    // thread this run touches (pool workers, storage scans).
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
                ex.kernel_policy,
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
        score_join(model.input_dim(), db, spec, exec, opts, |partition, ex| {
            let kp = ex.kernel_policy;
            NnCore {
                model,
                first: FirstLayer::split(model, partition.sizes(), kp),
                kp,
            }
        })
    }
}
