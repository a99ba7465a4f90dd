//! `fml-obs` — the workspace's dependency-free observability substrate:
//! a lock-free metrics registry, a span tracing layer, and the `FML_OBS`
//! mode switch that keeps both free when disabled.
//!
//! ## Why a separate crate
//!
//! The ROADMAP's north star is a serving runtime that stays observable under
//! production traffic.  The paper this repo reproduces (Cheng et al.,
//! ICDE 2021) makes its factorized-learning argument through *counted*
//! page/field I/O and per-phase cost accounting — numbers the runtime should
//! export, not recompute in ad-hoc test probes.  `fml-obs` sits below
//! `fml-linalg` in the dependency graph with no dependencies of its own
//! (hand-rolled exports), so every crate — kernels, store, trainers,
//! scorers, benches — can emit into one substrate.
//!
//! ## The three pieces
//!
//! - **[`registry`]** — [`Counter`] / [`Gauge`] / [`Histogram`] handles
//!   obtained through the [`counter!`] / [`gauge!`] / [`histogram!`] macros
//!   (per-site caches, so steady-state recording is one relaxed atomic RMW),
//!   exported via [`prometheus_text`] and [`metrics_json`].
//! - **[`trace`]** — scoped [`span!`] guards recording into per-thread ring
//!   buffers, drained to Chrome `trace_event` JSON by [`chrome_trace_json`]
//!   and readable back with [`parse_chrome_trace`].
//! - **[`mode()`]** — [`ObsMode`] (`off` / `metrics` / `trace`) resolved once
//!   from `FML_OBS`, overridable through `ExecPolicy` (builder > env >
//!   default, like every other knob); [`metrics_enabled`] /
//!   [`trace_enabled`] are single relaxed loads, so `Off` keeps the
//!   bit-identity and performance guarantees of an uninstrumented build.
//!
//! A small set of counters record **unconditionally** regardless of mode:
//! the sparse-path invocation and fan-out thread counts that correctness
//! tests assert on, and the environment-warning counter behind
//! [`warn_once`].  These are plain relaxed increments — cheap enough to
//! always pay.
//!
//! ## Usage
//!
//! ```
//! use fml_obs::{counter, histogram, span};
//!
//! fml_obs::set_mode(fml_obs::ObsMode::Trace);
//! let _span = span!("phase");
//! counter!("fml_doc_example_total").inc();
//! histogram!("fml_doc_example_ns").record(1234);
//! assert!(fml_obs::prometheus_text().contains("fml_doc_example_total 1"));
//! drop(_span);
//! assert!(fml_obs::chrome_trace_json().contains("\"phase\""));
//! # fml_obs::set_mode(fml_obs::ObsMode::Off);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod mode;
pub mod registry;
pub mod trace;

pub use mode::{
    apply_mode, metrics_enabled, mode, resolve_env, set_mode, trace_enabled, ModeGuard, ObsMode,
};
pub use registry::{
    counter as counter_handle, gauge as gauge_handle, histogram as histogram_handle, metric_count,
    metric_names, prometheus_text, Counter, Gauge, Histogram, LazyCounter, LazyGauge,
    LazyHistogram, HISTOGRAM_BUCKETS,
};
pub use trace::{
    chrome_trace_json, clear_spans, dropped_spans, parse_chrome_trace, record_span, snapshot_spans,
    span, thread_buffer_count, SpanGuard, SpanRecord, TraceEvent, RING_CAPACITY,
};

/// Renders the registry as JSON (re-exported under a name that doesn't
/// collide with the conventional local binding `json`).
pub fn metrics_json() -> String {
    registry::json()
}

use std::sync::atomic::{AtomicBool, Ordering};

static ENV_WARNINGS: LazyCounter = LazyCounter::new("fml_env_warnings_total");

/// Prints `warning: {msg}` to stderr the first time `guard` is seen, and
/// counts **every** call (first or suppressed) in `fml_env_warnings_total` —
/// so a run can tell how many invalid-environment events occurred even
/// though only one line reached stderr.
///
/// This is the workspace's single warn-once sink: `fml-linalg`'s
/// `FML_THREADS` resolution and the
/// `FML_OBS` resolution in [`mode()`] all route here.  The counter records
/// unconditionally (warnings are rare and must be countable even with
/// observability off).
#[expect(clippy::print_stderr, reason = "the one warn-once sink")]
pub fn warn_once(guard: &AtomicBool, msg: &str) {
    ENV_WARNINGS.get().inc();
    if !guard.swap(true, Ordering::Relaxed) {
        eprintln!("warning: {msg}");
    }
}

/// Obtains the per-call-site cached [`Counter`] named by the literal
/// argument.  Expands to a function-local `static` [`LazyCounter`], so the
/// registry lock is taken at most once per site.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __FML_OBS_COUNTER: $crate::LazyCounter = $crate::LazyCounter::new($name);
        __FML_OBS_COUNTER.get()
    }};
}

/// Obtains the per-call-site cached [`Gauge`] named by the literal argument
/// (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __FML_OBS_GAUGE: $crate::LazyGauge = $crate::LazyGauge::new($name);
        __FML_OBS_GAUGE.get()
    }};
}

/// Obtains the per-call-site cached [`Histogram`] named by the literal
/// argument (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __FML_OBS_HISTOGRAM: $crate::LazyHistogram = $crate::LazyHistogram::new($name);
        __FML_OBS_HISTOGRAM.get()
    }};
}

/// Opens a scoped span named by the literal argument; the interval is
/// recorded when the returned guard drops.  Bind it (`let _span = …`) — an
/// unbound guard drops immediately.  One relaxed load when tracing is off.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_once_prints_once_but_counts_every_call() {
        let guard = AtomicBool::new(false);
        let before = counter!("fml_env_warnings_total").get();
        warn_once(&guard, "test warning a");
        warn_once(&guard, "test warning a");
        warn_once(&guard, "test warning a");
        assert!(guard.load(Ordering::Relaxed));
        let after = counter!("fml_env_warnings_total").get();
        assert_eq!(after - before, 3);
    }

    #[test]
    fn macros_cache_per_site() {
        fn site() -> &'static Counter {
            counter!("fml_test_macro_site_total")
        }
        assert!(std::ptr::eq(site(), site()));
        site().inc();
        assert!(metric_names().contains(&"fml_test_macro_site_total"));
    }
}
