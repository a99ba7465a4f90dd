//! Execution policy shared by every trainer, and the fit-telemetry hooks.
//!
//! The model configs (`GmmConfig`, `NnConfig` in the learner crates) describe
//! *what* to fit — component counts, layer widths, iteration budgets.  How the
//! fit executes — driver fan-out, sparse or expanded rows, scan block size,
//! worker threads, RNG seed — is a model-independent concern, captured once
//! here as [`ExecPolicy`] and threaded through every training strategy.
//!
//! ## Precedence
//!
//! Every knob resolves **builder > environment > default**, in exactly one
//! place ([`ExecPolicy::resolve`]):
//!
//! | field | builder | environment | default |
//! |-------|---------|-------------|---------|
//! | `kernel_policy` (`parallel` = the drivers fan out) | [`ExecPolicy::kernel_policy`] | — | `blocked` |
//! | `threads` (workers per driver fan-out) | [`ExecPolicy::threads`] | `FML_THREADS` | available parallelism |
//! | `sparse_mode` | [`ExecPolicy::sparse_mode`] | — | [`SparseMode::Auto`] |
//! | `block_pages` | [`ExecPolicy::block_pages`] | — | [`DEFAULT_BLOCK_PAGES`] |
//! | `seed` | [`ExecPolicy::seed`] | — | [`DEFAULT_SEED`] |
//! | `obs` | [`ExecPolicy::obs`] | `FML_OBS` | [`ObsMode::Off`] |
//!
//! Invalid environment values are rejected with a one-time warning naming the
//! value and the fallback (see [`crate::policy`]); they never silently change
//! the run.
//!
//! ## Telemetry
//!
//! An [`ExecPolicy`] optionally carries a [`FitObserver`].  Every trainer
//! emits one [`FitEvent`] per EM iteration / training epoch — the iteration's
//! objective (log-likelihood or mean loss), cumulative wall-time, and the page
//! / field I/O performed during that iteration — so benches, figures and
//! serving paths consume one telemetry stream instead of poking at fit
//! internals.  [`TraceObserver`] is a ready-made collecting observer.
//!
//! The same [`FitNotifier`] that drives observers also emits into the
//! `fml-obs` registry (`fml_fit_iterations_total`, the `fml_fit_iteration_ns`
//! histogram, and a `fit_iteration` span per iteration), so callback-based
//! and registry-based telemetry share one delta-arithmetic substrate.  The
//! resolved [`ExecSettings::obs`] mode is installed process-wide for the
//! duration of a run via [`ExecSettings::obs_scope`].

use crate::policy::{self, KernelPolicy};
use crate::sparse::SparseMode;
use fml_obs::ObsMode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default pages per scan block (`BlockSize` in the paper's cost analysis).
/// Kept equal to `fml_store::DEFAULT_BLOCK_PAGES` — the storage crate cannot
/// be referenced from here without inverting the dependency graph, so the
/// equality is pinned by a cross-crate test in `fml-core`.
pub const DEFAULT_BLOCK_PAGES: usize = 64;

/// Default RNG seed for data-independent initialization (GMM means, NN
/// weights).  Matches the historical default of both learner configs.
pub const DEFAULT_SEED: u64 = 7;

/// One per-iteration telemetry record emitted to a [`FitObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct FitEvent {
    /// 0-based index of the iteration / epoch that just completed.
    pub iteration: usize,
    /// The iteration's objective: total log-likelihood for GMMs, mean training
    /// loss for NNs.
    pub objective: f64,
    /// Wall-clock time since the training loop started (cumulative).
    pub elapsed: Duration,
    /// Pages of storage I/O performed during this iteration (reads + writes),
    /// `0` when the trainer has no storage attached (in-memory sources).
    pub pages_io: u64,
    /// Feature fields read from storage during this iteration, `0` when no
    /// storage is attached.
    pub fields_read: u64,
}

/// Per-iteration callback hook carried by [`ExecPolicy`].
///
/// Observers are invoked from the training thread after each EM iteration /
/// epoch, never from inside parallel workers.
pub trait FitObserver: Send + Sync {
    /// Called once per completed iteration / epoch.
    fn on_iteration(&self, event: &FitEvent);
}

/// A [`FitObserver`] that records every event — the ready-made consumer for
/// benches, figures and tests.
#[derive(Debug, Default)]
pub struct TraceObserver {
    events: Mutex<Vec<FitEvent>>,
}

impl TraceObserver {
    /// Creates a shareable trace observer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<FitEvent> {
        self.events.lock().expect("trace lock").clone()
    }
}

impl FitObserver for TraceObserver {
    fn on_iteration(&self, event: &FitEvent) {
        self.events.lock().expect("trace lock").push(event.clone());
    }
}

/// The execution knobs resolved by [`ExecPolicy::resolve`] — what the
/// trainers actually read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSettings {
    /// Whether the drivers fan out (see [`crate::policy`]).
    pub kernel_policy: KernelPolicy,
    /// Stored (sparse) or expanded rows (see [`crate::sparse::SparseMode`]).
    pub sparse: SparseMode,
    /// Pages per scan block.
    pub block_pages: usize,
    /// Worker threads for the chunk fan-out (per dense tuple batch /
    /// per factorized scoring block) under
    /// [`KernelPolicy::BlockedParallel`] — the only fan-out there is.
    pub threads: usize,
    /// Seed for the data-independent model initialization.
    pub seed: u64,
    /// Observability mode for the run (see [`fml_obs::ObsMode`]): installed
    /// process-wide by [`ExecSettings::obs_scope`] at trainer/scorer entry.
    pub obs: ObsMode,
}

impl ExecSettings {
    /// Worker count for a trainer-level parallel region: the resolved thread
    /// count when the fan-out is `engaged`, otherwise 1 (inline).
    pub fn workers(&self, engaged: bool) -> usize {
        if engaged {
            self.threads
        } else {
            1
        }
    }

    /// Installs the resolved observability mode process-wide until the
    /// returned guard drops (see [`fml_obs::apply_mode`]).  Every trainer and
    /// scorer installs this at entry, which is what extends the builder >
    /// `FML_OBS` > default precedence to the instrumentation on fan-out threads
    /// and storage scans.  The mode is
    /// process-global, so overlapping runs requesting *different* modes race
    /// benignly (last writer wins until its guard drops).
    pub fn obs_scope(&self) -> fml_obs::ModeGuard {
        fml_obs::apply_mode(self.obs)
    }
}

/// Model-independent execution policy: driver fan-out, sparse mode,
/// scan block size, worker threads, seed, and an optional telemetry observer.
///
/// Construct with builder calls; unset fields resolve through the documented
/// precedence (builder > `FML_*` environment > default) when a trainer calls
/// [`ExecPolicy::resolve`]:
///
/// ```
/// use fml_linalg::{ExecPolicy, KernelPolicy, SparseMode};
/// let exec = ExecPolicy::new()
///     .kernel_policy(KernelPolicy::Blocked)
///     .sparse_mode(SparseMode::Auto)
///     .seed(42);
/// assert_eq!(exec.resolve().seed, 42);
/// ```
#[derive(Clone, Default)]
pub struct ExecPolicy {
    kernel_policy: Option<KernelPolicy>,
    sparse: Option<SparseMode>,
    block_pages: Option<usize>,
    threads: Option<usize>,
    seed: Option<u64>,
    obs: Option<ObsMode>,
    observer: Option<Arc<dyn FitObserver>>,
}

impl std::fmt::Debug for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPolicy")
            .field("kernel_policy", &self.kernel_policy)
            .field("sparse", &self.sparse)
            .field("block_pages", &self.block_pages)
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field("obs", &self.obs)
            .field("observer", &self.observer.as_ref().map(|_| "<dyn>"))
            .finish()
    }
}

impl ExecPolicy {
    /// A policy with every knob unset (everything resolves through
    /// environment / defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the driver fan-out (default [`KernelPolicy::Blocked`]: none).
    pub fn kernel_policy(mut self, kernel_policy: KernelPolicy) -> Self {
        self.kernel_policy = Some(kernel_policy);
        self
    }

    /// Pins the sparse-path mode.
    pub fn sparse_mode(mut self, sparse: SparseMode) -> Self {
        self.sparse = Some(sparse);
        self
    }

    /// Pins the pages-per-scan-block count.
    pub fn block_pages(mut self, block_pages: usize) -> Self {
        assert!(block_pages > 0, "block_pages must be positive");
        self.block_pages = Some(block_pages);
        self
    }

    /// Pins the trainer-level worker-thread count (beats `FML_THREADS`).
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.threads = Some(threads);
        self
    }

    /// Pins the initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Pins the observability mode (beats `FML_OBS`).
    pub fn obs(mut self, obs: ObsMode) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a per-iteration telemetry observer.
    pub fn observe(mut self, observer: Arc<dyn FitObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&dyn FitObserver> {
        self.observer.as_deref()
    }

    /// Resolves every knob through the documented precedence — **the** single
    /// place execution settings are decided.
    ///
    /// Builder-set values win outright.  Unset `kernel_policy` is
    /// [`KernelPolicy::Blocked`]; unset `threads` falls back to
    /// [`crate::policy::num_threads`] (`FML_THREADS`, else available
    /// parallelism); unset `obs` falls back to the process-wide mode
    /// ([`fml_obs::mode()`]: `FML_OBS`, else off).  Invalid environment values
    /// warn once and use the default.  The remaining fields have no
    /// environment override.
    pub fn resolve(&self) -> ExecSettings {
        ExecSettings {
            kernel_policy: self.kernel_policy.unwrap_or(KernelPolicy::Blocked),
            sparse: self.sparse.unwrap_or_default(),
            block_pages: self.block_pages.unwrap_or(DEFAULT_BLOCK_PAGES),
            threads: self.threads.unwrap_or_else(policy::num_threads).max(1),
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            obs: self.obs.unwrap_or_else(fml_obs::mode),
        }
    }

    /// [`ExecPolicy::resolve`] against explicit raw environment values — the
    /// pure core the precedence tests exercise (the public `resolve` reads
    /// the real, process-cached environment).  Returns the settings plus any
    /// invalid-value warnings the environment produced.
    #[cfg(test)]
    fn resolve_raw(
        &self,
        env_threads: Option<&str>,
        env_obs: Option<&str>,
        available: usize,
    ) -> (ExecSettings, Vec<String>) {
        let mut warnings = Vec::new();
        let threads = match self.threads {
            Some(t) => t,
            None => {
                let (t, w) = policy::resolve_threads_env(env_threads, available);
                warnings.extend(w);
                t
            }
        };
        let obs = match self.obs {
            Some(m) => m,
            None => {
                let (m, w) = fml_obs::resolve_env(env_obs);
                warnings.extend(w);
                m
            }
        };
        (
            ExecSettings {
                kernel_policy: self.kernel_policy.unwrap_or(KernelPolicy::Blocked),
                sparse: self.sparse.unwrap_or_default(),
                block_pages: self.block_pages.unwrap_or(DEFAULT_BLOCK_PAGES),
                threads: threads.max(1),
                seed: self.seed.unwrap_or(DEFAULT_SEED),
                obs,
            },
            warnings,
        )
    }
}

/// Cumulative I/O counter probe: returns `(total_page_io, fields_read)` so
/// the notifier can difference consecutive readings.  Trainers with storage
/// attached pass a closure over the database stats; in-memory sources pass
/// `None`.
pub type IoProbe<'a> = Option<&'a dyn Fn() -> (u64, u64)>;

/// Drives the per-iteration [`FitObserver`] notifications for one training
/// run: tracks the iteration index, the wall-clock origin and the last I/O
/// reading, so every trainer shares the same delta arithmetic.
///
/// Constructing a notifier is free when no observer is attached, and
/// [`FitNotifier::notify`] is a no-op then.
pub struct FitNotifier<'a> {
    observer: Option<&'a dyn FitObserver>,
    io: IoProbe<'a>,
    start: Instant,
    /// Start of the current iteration, for the per-iteration histogram/span
    /// (`start` stays the cumulative-elapsed origin the events report).
    iter_mark: Instant,
    last_io: (u64, u64),
    iteration: usize,
}

impl<'a> FitNotifier<'a> {
    /// Starts a notification stream for one training run.  The I/O baseline
    /// is read immediately, so work performed *before* this call (e.g. join
    /// materialization) is excluded from the first event's delta.
    pub fn new(exec: &'a ExecPolicy, io: IoProbe<'a>) -> Self {
        let observer = exec.observer();
        let last_io = match (observer.is_some(), io) {
            (true, Some(probe)) => probe(),
            _ => (0, 0),
        };
        let start = Instant::now();
        Self {
            observer,
            io,
            start,
            iter_mark: start,
            last_io,
            iteration: 0,
        }
    }

    /// Emits the event for the iteration that just completed — to the
    /// attached [`FitObserver`] (if any), and, when observability is on, to
    /// the `fml-obs` registry (`fml_fit_iterations_total`, the
    /// `fml_fit_iteration_ns` latency histogram, a `fit_iteration` span).
    pub fn notify(&mut self, objective: f64) {
        if fml_obs::metrics_enabled() {
            let now = Instant::now();
            fml_obs::counter!("fml_fit_iterations_total").inc();
            fml_obs::histogram!("fml_fit_iteration_ns")
                .record_duration(now.saturating_duration_since(self.iter_mark));
            fml_obs::record_span("fit_iteration", self.iter_mark, now);
            self.iter_mark = now;
        }
        if let Some(observer) = self.observer {
            let now = self.io.map(|probe| probe()).unwrap_or((0, 0));
            observer.on_iteration(&FitEvent {
                iteration: self.iteration,
                objective,
                elapsed: self.start.elapsed(),
                pages_io: now.0.saturating_sub(self.last_io.0),
                fields_read: now.1.saturating_sub(self.last_io.1),
            });
            self.last_io = now;
        }
        self.iteration += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_without_builders() {
        let (s, warnings) = ExecPolicy::new().resolve_raw(None, None, 8);
        assert_eq!(s.kernel_policy, KernelPolicy::Blocked);
        assert_eq!(s.sparse, SparseMode::Auto);
        assert_eq!(s.block_pages, DEFAULT_BLOCK_PAGES);
        assert_eq!(s.threads, 8);
        assert_eq!(s.seed, DEFAULT_SEED);
        assert_eq!(s.obs, ObsMode::Off);
        assert!(warnings.is_empty());
    }

    #[test]
    fn env_beats_defaults() {
        let (s, warnings) = ExecPolicy::new().resolve_raw(Some("3"), Some("metrics"), 8);
        assert_eq!(s.threads, 3);
        assert_eq!(s.obs, ObsMode::Metrics);
        assert!(warnings.is_empty());
    }

    #[test]
    fn builder_beats_env() {
        let exec = ExecPolicy::new()
            .kernel_policy(KernelPolicy::BlockedParallel)
            .threads(2)
            .seed(99)
            .block_pages(16)
            .sparse_mode(SparseMode::Dense)
            .obs(ObsMode::Trace);
        let (s, warnings) = exec.resolve_raw(Some("12"), Some("off"), 8);
        assert_eq!(s.kernel_policy, KernelPolicy::BlockedParallel);
        assert_eq!(s.threads, 2);
        assert_eq!(s.seed, 99);
        assert_eq!(s.block_pages, 16);
        assert_eq!(s.sparse, SparseMode::Dense);
        assert_eq!(s.obs, ObsMode::Trace);
        // builder-set knobs never consult the environment, so an invalid env
        // value does not even produce a warning
        assert!(warnings.is_empty());
    }

    #[test]
    fn invalid_env_warns_and_falls_back_unless_builder_set() {
        // unset builder: the typo is reported and the default used
        let (s, warnings) = ExecPolicy::new().resolve_raw(Some("zero"), Some("traec"), 4);
        assert_eq!(s.threads, 4);
        assert_eq!(s.obs, ObsMode::Off);
        assert_eq!(warnings.len(), 2, "one warning per invalid variable");
        assert!(warnings[0].contains("zero"));
        assert!(warnings[1].contains("traec"));
        // builder-set: same raw environment, no warning at all
        let exec = ExecPolicy::new().threads(1).obs(ObsMode::Off);
        let (s, warnings) = exec.resolve_raw(Some("zero"), Some("traec"), 4);
        assert_eq!(s.threads, 1);
        assert!(warnings.is_empty());
    }

    #[test]
    fn workers_collapse_to_one_when_not_engaged() {
        let s = ExecPolicy::new().threads(6).resolve();
        assert_eq!(s.workers(true), 6);
        assert_eq!(s.workers(false), 1);
    }

    #[test]
    fn resolve_matches_resolve_raw_for_builder_set_policies() {
        // With every knob pinned, the cached real environment is irrelevant:
        // resolve() and resolve_raw() must agree exactly.
        let exec = ExecPolicy::new()
            .kernel_policy(KernelPolicy::BlockedParallel)
            .sparse_mode(SparseMode::Dense)
            .block_pages(8)
            .threads(2)
            .seed(5)
            .obs(ObsMode::Metrics);
        assert_eq!(exec.resolve(), exec.resolve_raw(None, None, 1).0);
    }

    #[test]
    fn obs_scope_installs_and_restores_the_resolved_mode() {
        let s = ExecPolicy::new().obs(ObsMode::Metrics).resolve();
        let before = fml_obs::mode();
        {
            let _guard = s.obs_scope();
            assert_eq!(fml_obs::mode(), ObsMode::Metrics);
        }
        assert_eq!(fml_obs::mode(), before);
    }

    #[test]
    fn notifier_and_trace_observer_round_trip() {
        let trace = TraceObserver::new();
        let exec = ExecPolicy::new().observe(trace.clone());
        let pages = std::sync::atomic::AtomicU64::new(10);
        let probe = || (pages.load(std::sync::atomic::Ordering::Relaxed), 100);
        let mut notifier = FitNotifier::new(&exec, Some(&probe));
        pages.store(17, std::sync::atomic::Ordering::Relaxed);
        notifier.notify(-5.0);
        notifier.notify(-4.0);
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].iteration, 0);
        assert_eq!(events[0].objective, -5.0);
        // first delta: 17 - 10 pages since the baseline reading
        assert_eq!(events[0].pages_io, 7);
        // second iteration performed no I/O
        assert_eq!(events[1].iteration, 1);
        assert_eq!(events[1].pages_io, 0);
        assert_eq!(events[1].fields_read, 0);
    }

    #[test]
    fn notifier_without_observer_is_inert() {
        let exec = ExecPolicy::new();
        let mut notifier = FitNotifier::new(&exec, None);
        notifier.notify(1.0);
        notifier.notify(2.0);
        // nothing to assert beyond "does not panic" — no observer, no events
    }

    #[test]
    fn debug_shows_observer_presence_not_contents() {
        let exec = ExecPolicy::new().observe(TraceObserver::new());
        let dbg = format!("{exec:?}");
        assert!(dbg.contains("observer"), "{dbg}");
        assert!(dbg.contains("<dyn>"), "{dbg}");
    }
}
