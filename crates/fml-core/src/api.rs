//! The unified estimator API: one `fit` surface for every model family.
//!
//! The paper's central claim is that a single factorized execution strategy
//! serves *many* model families over the same normalized-data machinery.  The
//! API mirrors that: a model-generic [`Estimator`] trait, a generic
//! [`Trained`] result, and a [`Session`] builder as the single entry point —
//!
//! ```no_run
//! use fml_core::prelude::*;
//! # let workload = fml_core::fml_data::SyntheticConfig::gmm_default().generate().unwrap();
//! let trained = Session::new(&workload.db)
//!     .join(&workload.spec)
//!     .exec(ExecPolicy::new().seed(42))
//!     .fit(Gmm::with_k(3).algorithm(Algorithm::Factorized))
//!     .unwrap();
//! println!("log-likelihood: {}", trained.final_log_likelihood());
//! ```
//!
//! Model configuration ([`GmmConfig`] / [`NnConfig`]) describes *what* to fit;
//! the shared [`ExecPolicy`] describes *how* it executes (kernel policy,
//! sparse mode, block size, threads, seed, telemetry observer).  A new model
//! family only needs an [`Estimator`] impl to ride the whole execution stack.

use fml_gmm::{FactorizedGmm, GmmConfig, GmmFit, MaterializedGmm, StreamingGmm};
use fml_linalg::ExecPolicy;
use fml_nn::{Activation, FactorizedNn, MaterializedNn, NnConfig, NnFit, StreamingNn};
use fml_store::{Database, IoSnapshot, JoinSpec, StoreError, StoreResult};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The three training strategies compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Materialize the join result, then train over it (`M-GMM` / `M-NN`).
    Materialized,
    /// Join on the fly each pass and train over the denormalized stream
    /// (`S-GMM` / `S-NN`).
    Streaming,
    /// Push the training computation through the join, reusing dimension-side
    /// work (`F-GMM` / `F-NN`) — the paper's proposal, and the default.
    #[default]
    Factorized,
}

impl Algorithm {
    /// All strategies, in the order the paper's plots list them.
    pub fn all() -> [Algorithm; 3] {
        [
            Algorithm::Materialized,
            Algorithm::Streaming,
            Algorithm::Factorized,
        ]
    }

    /// Short label used in reports (`M`, `S`, `F`).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Materialized => "M",
            Algorithm::Streaming => "S",
            Algorithm::Factorized => "F",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Algorithm::Materialized => "materialized",
            Algorithm::Streaming => "streaming",
            Algorithm::Factorized => "factorized",
        };
        write!(f, "{s}")
    }
}

impl FromStr for Algorithm {
    type Err = String;

    /// Parses the short labels (`M`/`S`/`F`, case-insensitive) and the full
    /// names (`materialized`/`streaming`/`factorized`), round-tripping both
    /// [`Algorithm::label`] and the [`std::fmt::Display`] form — bench bins
    /// and examples share this instead of hand-rolling strategy parsing.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "m" | "materialized" => Ok(Algorithm::Materialized),
            "s" | "streaming" => Ok(Algorithm::Streaming),
            "f" | "factorized" => Ok(Algorithm::Factorized),
            other => Err(format!(
                "unknown algorithm {other:?} (expected M|S|F or materialized|streaming|factorized)"
            )),
        }
    }
}

/// The result of fitting any estimator: the model-family fit plus what every
/// family shares — the I/O the strategy incurred, the strategy itself, and
/// the wall-clock time of the whole `fit` call.
#[derive(Debug, Clone)]
pub struct Trained<F> {
    /// The underlying fit (model, objective trace, timing).
    pub fit: F,
    /// Storage I/O performed during training.
    pub io: IoSnapshot,
    /// The strategy that produced it.
    pub algorithm: Algorithm,
    /// Wall-clock time of the `fit` call (initialization + training).
    pub elapsed: Duration,
}

/// A trained GMM (alias easing migration from the pre-`Session` API).
pub type TrainedGmm = Trained<GmmFit>;

/// A trained NN (alias easing migration from the pre-`Session` API).
pub type TrainedNn = Trained<NnFit>;

impl Trained<GmmFit> {
    /// Convenience accessor for the final log-likelihood.
    pub fn final_log_likelihood(&self) -> f64 {
        self.fit.final_log_likelihood()
    }
}

impl Trained<NnFit> {
    /// Convenience accessor for the final training loss.
    pub fn final_loss(&self) -> f64 {
        self.fit.final_loss()
    }
}

/// A model family that can be fitted over a normalized join under a shared
/// [`ExecPolicy`].  Implementations dispatch on their configured
/// [`Algorithm`] and wrap their training call in [`fit_measured`], which
/// provides the measurement scaffolding (I/O delta, wall-time) shared by
/// every family.
pub trait Estimator {
    /// The model-family-specific fit (e.g. [`GmmFit`], [`NnFit`]).
    type Fit;

    /// Fits the model over the join described by `spec`, measuring the I/O
    /// delta the chosen strategy incurs.
    fn fit(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
    ) -> StoreResult<Trained<Self::Fit>>;
}

/// Runs `train` bracketed by the shared measurement scaffolding (I/O
/// snapshot delta + wall-time) — every [`Estimator`] impl, including
/// third-party model families, should funnel through this so the
/// [`Trained`] accounting is identical across families.
pub fn fit_measured<F>(
    db: &Database,
    algorithm: Algorithm,
    train: impl FnOnce() -> StoreResult<F>,
) -> StoreResult<Trained<F>> {
    let before = db.stats().snapshot();
    let start = Instant::now();
    let fit = train()?;
    Ok(Trained {
        fit,
        io: db.stats().snapshot().delta_since(&before),
        algorithm,
        elapsed: start.elapsed(),
    })
}

/// Gaussian Mixture Model estimator: a [`GmmConfig`] plus the strategy to fit
/// it with.
#[derive(Debug, Clone, Default)]
pub struct Gmm {
    config: GmmConfig,
    algorithm: Algorithm,
}

impl Gmm {
    /// An estimator over an explicit model configuration (factorized strategy
    /// by default).
    pub fn new(config: GmmConfig) -> Self {
        Self {
            config,
            algorithm: Algorithm::default(),
        }
    }

    /// Convenience constructor fixing the component count.
    pub fn with_k(k: usize) -> Self {
        Self::new(GmmConfig::with_k(k))
    }

    /// Selects the training strategy.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy with a different iteration budget.
    pub fn iterations(mut self, max_iters: usize) -> Self {
        self.config.max_iters = max_iters;
        self
    }

    /// Returns a copy with a different convergence tolerance.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.config.tol = tol;
        self
    }

    /// The model configuration.
    pub fn config(&self) -> &GmmConfig {
        &self.config
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Algorithm {
        self.algorithm
    }
}

impl Estimator for Gmm {
    type Fit = GmmFit;

    fn fit(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
    ) -> StoreResult<Trained<GmmFit>> {
        fit_measured(db, self.algorithm, || match self.algorithm {
            Algorithm::Materialized => MaterializedGmm::train(db, spec, &self.config, exec),
            Algorithm::Streaming => StreamingGmm::train(db, spec, &self.config, exec),
            Algorithm::Factorized => FactorizedGmm::train(db, spec, &self.config, exec),
        })
    }
}

/// Feed-forward neural-network estimator: an [`NnConfig`] plus the strategy
/// to fit it with.
#[derive(Debug, Clone, Default)]
pub struct Nn {
    config: NnConfig,
    algorithm: Algorithm,
}

impl Nn {
    /// An estimator over an explicit model configuration (factorized strategy
    /// by default).
    pub fn new(config: NnConfig) -> Self {
        Self {
            config,
            algorithm: Algorithm::default(),
        }
    }

    /// Convenience constructor fixing the hidden width `n_h`.
    pub fn with_hidden(n_h: usize) -> Self {
        Self::new(NnConfig::with_hidden(n_h))
    }

    /// Selects the training strategy.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy with a different epoch budget.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Returns a copy with a different hidden activation.
    pub fn activation(mut self, activation: Activation) -> Self {
        self.config.activation = activation;
        self
    }

    /// The model configuration.
    pub fn config(&self) -> &NnConfig {
        &self.config
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Algorithm {
        self.algorithm
    }
}

impl Estimator for Nn {
    type Fit = NnFit;

    fn fit(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
    ) -> StoreResult<Trained<NnFit>> {
        fit_measured(db, self.algorithm, || match self.algorithm {
            Algorithm::Materialized => MaterializedNn::train(db, spec, &self.config, exec),
            Algorithm::Streaming => StreamingNn::train(db, spec, &self.config, exec),
            Algorithm::Factorized => FactorizedNn::train(db, spec, &self.config, exec),
        })
    }
}

/// The single documented entry point: binds a database, a join spec and an
/// execution policy, then fits any [`Estimator`] over them.
///
/// One session can fit many estimators (both model families, every strategy)
/// over the same join under the same execution policy — which is exactly how
/// the paper's comparisons are structured.
#[derive(Clone)]
pub struct Session<'a> {
    db: &'a Database,
    spec: Option<JoinSpec>,
    exec: ExecPolicy,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec)
            .field("exec", &self.exec)
            .finish_non_exhaustive()
    }
}

impl<'a> Session<'a> {
    /// Opens a session over a database, with a default [`ExecPolicy`].
    pub fn new(db: &'a Database) -> Self {
        Self {
            db,
            spec: None,
            exec: ExecPolicy::new(),
        }
    }

    /// Selects the join to train over.
    pub fn join(mut self, spec: &JoinSpec) -> Self {
        self.spec = Some(spec.clone());
        self
    }

    /// Replaces the session's execution policy.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The session's execution policy.
    pub fn exec_policy(&self) -> &ExecPolicy {
        &self.exec
    }

    /// The fully resolved execution settings (builder > environment >
    /// default) this session's fits and scores will run under — what a
    /// caller reports or branches on (e.g. the serving benches label runs
    /// with the resolved worker count) without re-deriving the precedence.
    pub fn exec_settings(&self) -> fml_linalg::ExecSettings {
        self.exec.resolve()
    }

    /// The database this session is bound to.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The join selected with [`Session::join`], if any.  Serving-layer
    /// extension traits (e.g. `fml-serve`'s `SessionScoring`) read this to
    /// run over the same join the session trains over.
    pub fn join_spec(&self) -> Option<&JoinSpec> {
        self.spec.as_ref()
    }

    /// Fits an estimator over the session's join.
    ///
    /// When observability is on, the whole call is wrapped in a `fit` span
    /// (the per-iteration `fit_iteration` spans nest inside it).  The
    /// session's [`ExecPolicy`] obs setting is applied here so the span
    /// honors the same builder > env > default precedence the trainers use.
    ///
    /// # Errors
    /// [`StoreError::NoJoin`] when [`Session::join`] was never called — a
    /// session without a join has nothing to train over — and otherwise the
    /// estimator's own errors.
    pub fn fit<E: Estimator>(&self, estimator: E) -> StoreResult<Trained<E::Fit>> {
        let spec = self.spec.as_ref().ok_or(StoreError::NoJoin)?;
        let _obs = self.exec.resolve().obs_scope();
        let _span = fml_obs::span!("fit");
        estimator.fit(self.db, spec, &self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::SyntheticConfig;
    use fml_linalg::{KernelPolicy, SparseMode, TraceObserver};

    fn workload(with_target: bool) -> fml_data::Workload {
        SyntheticConfig {
            n_s: 300,
            n_r: 12,
            d_s: 2,
            d_r: 4,
            k: 2,
            noise_std: 0.6,
            with_target,
            seed: 5,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn algorithm_labels_and_display() {
        assert_eq!(Algorithm::all().len(), 3);
        assert_eq!(Algorithm::Factorized.label(), "F");
        assert_eq!(Algorithm::Materialized.to_string(), "materialized");
        assert_eq!(Algorithm::default(), Algorithm::Factorized);
    }

    #[test]
    fn algorithm_from_str_round_trips_labels_and_names() {
        for a in Algorithm::all() {
            assert_eq!(a.label().parse::<Algorithm>().unwrap(), a);
            assert_eq!(a.to_string().parse::<Algorithm>().unwrap(), a);
            // case-insensitive
            assert_eq!(a.label().to_lowercase().parse::<Algorithm>().unwrap(), a);
            assert_eq!(
                a.to_string().to_uppercase().parse::<Algorithm>().unwrap(),
                a
            );
        }
        let err = "bogus".parse::<Algorithm>().unwrap_err();
        assert!(err.contains("bogus"), "error must name the value: {err}");
    }

    #[test]
    fn session_fits_gmm_across_all_strategies_and_agrees() {
        let w = workload(false);
        let session = Session::new(&w.db).join(&w.spec);
        let results: Vec<Trained<GmmFit>> = Algorithm::all()
            .into_iter()
            .map(|a| {
                session
                    .fit(Gmm::with_k(2).iterations(3).algorithm(a))
                    .unwrap()
            })
            .collect();
        for r in &results[1..] {
            assert!(results[0].fit.model.max_param_diff(&r.fit.model) < 1e-6);
        }
        // materialized writes pages; the others do not
        assert!(results[0].io.pages_written > 0);
        assert_eq!(results[1].io.pages_written, 0);
        assert_eq!(results[2].io.pages_written, 0);
        // the generic wall-time covers the fit
        assert!(results.iter().all(|r| r.elapsed >= r.fit.elapsed));
    }

    #[test]
    fn session_fits_nn_across_all_strategies_and_agrees() {
        let w = workload(true);
        let session = Session::new(&w.db).join(&w.spec);
        let results: Vec<Trained<NnFit>> = Algorithm::all()
            .into_iter()
            .map(|a| {
                session
                    .fit(Nn::with_hidden(5).epochs(3).algorithm(a))
                    .unwrap()
            })
            .collect();
        for r in &results[1..] {
            assert!(results[0].fit.model.max_param_diff(&r.fit.model) < 1e-9);
        }
        assert!(results[0].final_loss().is_finite());
    }

    #[test]
    fn one_session_covers_both_model_families() {
        // The point of the Estimator abstraction: the same session object
        // (same join, same exec policy) fits heterogeneous model families.
        let w = workload(true);
        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().kernel_policy(KernelPolicy::Blocked));
        let gmm = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
        let nn = session.fit(Nn::with_hidden(4).epochs(2)).unwrap();
        assert_eq!(gmm.algorithm, Algorithm::Factorized);
        assert_eq!(nn.algorithm, Algorithm::Factorized);
        assert!(gmm.final_log_likelihood().is_finite());
        assert!(nn.final_loss().is_finite());
    }

    #[test]
    fn exec_policy_seed_controls_initialization() {
        let w = workload(false);
        let session = Session::new(&w.db).join(&w.spec);
        let fit = |seed: u64| {
            session
                .clone()
                .exec(ExecPolicy::new().seed(seed))
                .fit(Gmm::with_k(2).iterations(1))
                .unwrap()
        };
        let a = fit(1);
        let b = fit(1);
        let c = fit(2);
        assert_eq!(a.fit.model.max_param_diff(&b.fit.model), 0.0);
        assert!(a.fit.model.max_param_diff(&c.fit.model) > 0.0);
    }

    #[test]
    fn observer_sees_one_event_per_iteration_for_every_strategy() {
        let w = workload(false);
        let iters = 3;
        for alg in Algorithm::all() {
            let trace = TraceObserver::new();
            let trained = Session::new(&w.db)
                .join(&w.spec)
                .exec(ExecPolicy::new().observe(trace.clone()))
                .fit(Gmm::with_k(2).iterations(iters).algorithm(alg))
                .unwrap();
            let events = trace.events();
            assert_eq!(events.len(), iters, "{alg}: one event per iteration");
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.iteration, i, "{alg}");
                assert!(e.objective.is_finite(), "{alg}");
            }
            // the telemetry objective matches the fit's trace
            for (e, ll) in events.iter().zip(trained.fit.log_likelihood.iter()) {
                assert_eq!(e.objective, *ll, "{alg}");
            }
            // every EM iteration is exactly one pass over the strategy's
            // source — the join for S and F, the materialized table for M —
            // and event 0 brackets exactly the first iteration: init scans
            // and materialization happen before the notifier's baseline
            // reading
            let pages = |name: &str| w.db.relation(name).unwrap().lock().num_pages() as u64;
            let one_pass = match alg {
                Algorithm::Materialized => {
                    pages(&fml_gmm::MaterializedGmm::temp_table_name(&w.spec))
                }
                // R fits one scan window: |R| + |S|
                _ => pages(&w.spec.dimensions[0]) + pages(&w.spec.fact),
            };
            assert!(
                events.iter().all(|e| e.pages_io == one_pass),
                "{alg}: one pass of {one_pass} pages per iteration: {events:?}"
            );
            // elapsed is cumulative
            for pair in events.windows(2) {
                assert!(pair[1].elapsed >= pair[0].elapsed, "{alg}");
            }
        }
    }

    #[test]
    fn observer_sees_one_event_per_epoch_for_nn() {
        let w = workload(true);
        let epochs = 4;
        let trace = TraceObserver::new();
        let trained = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().observe(trace.clone()))
            .fit(Nn::with_hidden(4).epochs(epochs))
            .unwrap();
        let events = trace.events();
        assert_eq!(events.len(), epochs);
        for (e, loss) in events.iter().zip(trained.fit.loss_trace.iter()) {
            assert_eq!(e.objective, *loss);
        }
    }

    #[test]
    fn estimator_accessors() {
        let g = Gmm::with_k(4).algorithm(Algorithm::Streaming);
        assert_eq!(g.strategy(), Algorithm::Streaming);
        assert_eq!(g.config().k, 4);
        let n = Nn::with_hidden(32).algorithm(Algorithm::Factorized);
        assert_eq!(n.strategy(), Algorithm::Factorized);
        assert_eq!(n.config().hidden, vec![32]);
    }

    #[test]
    fn exec_policy_sparse_mode_reaches_the_trainers() {
        // Dense mode through the Session surface must keep the sparse
        // kernels silent (the counters only ever increase).
        let w = workload(false);
        let before = fml_linalg::sparse::onehot_kernel_calls();
        let _ = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().sparse_mode(SparseMode::Dense))
            .fit(Gmm::with_k(2).iterations(1))
            .unwrap();
        assert_eq!(fml_linalg::sparse::onehot_kernel_calls(), before);
    }

    #[test]
    fn session_without_join_is_a_typed_error() {
        let w = workload(false);
        let err = Session::new(&w.db).fit(Gmm::with_k(2)).unwrap_err();
        assert!(matches!(err, StoreError::NoJoin), "{err}");
        assert!(err.to_string().contains("Session::join"), "{err}");
    }

    #[test]
    fn block_pages_defaults_agree_across_crates() {
        // ExecPolicy's default block size is documented to equal the storage
        // engine's; the two constants live in different crates (linalg cannot
        // depend on store), so pin the equality here.
        assert_eq!(
            fml_linalg::exec::DEFAULT_BLOCK_PAGES,
            fml_store::DEFAULT_BLOCK_PAGES
        );
    }
}
