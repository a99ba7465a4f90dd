//! End-to-end observability suite: a real factorized fit + score run must
//! (a) produce **bit-identical** models and scores whether observability is
//! off, metrics-only, or tracing — instrumentation may never perturb the
//! numerics — and (b) when tracing, populate the `fml-obs` registry with the
//! fan-out, kernel, storage, fit and score metrics, plus a
//! Chrome trace whose spans nest (`fit_iteration` inside `fit`,
//! `score_batch` inside `score`).
//!
//! The observability mode is process-global state, so every test that flips
//! it serializes on one mutex.

use fml_core::prelude::*;
use fml_core::Session;
use fml_data::SyntheticConfig;
use fml_obs::ObsMode;
use fml_serve::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global observability mode.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn workload(with_target: bool) -> fml_data::Workload {
    SyntheticConfig {
        n_s: 240,
        n_r: 12,
        d_s: 3,
        d_r: 5,
        k: 2,
        noise_std: 0.7,
        with_target,
        seed: 23,
    }
    .generate()
    .unwrap()
}

fn exec(obs: ObsMode) -> ExecPolicy {
    ExecPolicy::new()
        .kernel_policy(KernelPolicy::BlockedParallel)
        .threads(2)
        .seed(7)
        .obs(obs)
}

/// One factorized GMM fit + factorized score under the given obs mode,
/// reduced to comparable bit patterns.
fn gmm_run_bits(w: &fml_data::Workload, obs: ObsMode) -> (Vec<u64>, Vec<(u64, usize, u64)>) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(obs));
    let trained = session.fit(Gmm::with_k(2).iterations(3)).unwrap();
    let scores = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let model_bits = trained
        .fit
        .log_likelihood
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let score_bits = scores
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, r.cluster, r.log_likelihood.to_bits()))
        .collect();
    (model_bits, score_bits)
}

/// One factorized NN fit + factorized score under the given obs mode.
fn nn_run_bits(w: &fml_data::Workload, obs: ObsMode) -> (Vec<u64>, Vec<(u64, u64)>) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(obs));
    let trained = session.fit(Nn::with_hidden(5).epochs(3)).unwrap();
    let scores = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let model_bits = trained.fit.loss_trace.iter().map(|v| v.to_bits()).collect();
    let score_bits = scores
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, r.to_bits()))
        .collect();
    (model_bits, score_bits)
}

#[test]
fn observability_modes_are_bit_identical_for_gmm_fit_and_score() {
    let _guard = mode_lock();
    let w = workload(false);
    let off = gmm_run_bits(&w, ObsMode::Off);
    let metrics = gmm_run_bits(&w, ObsMode::Metrics);
    let trace = gmm_run_bits(&w, ObsMode::Trace);
    assert_eq!(off, metrics, "metrics mode must not perturb GMM numerics");
    assert_eq!(off, trace, "trace mode must not perturb GMM numerics");
}

#[test]
fn observability_modes_are_bit_identical_for_nn_fit_and_score() {
    let _guard = mode_lock();
    let w = workload(true);
    let off = nn_run_bits(&w, ObsMode::Off);
    let metrics = nn_run_bits(&w, ObsMode::Metrics);
    let trace = nn_run_bits(&w, ObsMode::Trace);
    assert_eq!(off, metrics, "metrics mode must not perturb NN numerics");
    assert_eq!(off, trace, "trace mode must not perturb NN numerics");
}

#[test]
fn trace_run_exports_complete_metrics_and_nested_spans() {
    let _guard = mode_lock();
    fml_obs::clear_spans();
    // The factorized score fans out under `exec`'s parallel policy, so
    // `fml_fanout_threads_total` moves.
    let w = SyntheticConfig {
        n_s: 240,
        n_r: 12,
        d_s: 6,
        d_r: 29,
        k: 4,
        noise_std: 0.7,
        with_target: false,
        seed: 23,
    }
    .generate()
    .unwrap();
    let session = Session::new(&w.db).join(&w.spec).exec(exec(ObsMode::Trace));
    let trained = session.fit(Gmm::with_k(4).iterations(3)).unwrap();
    session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();

    // -- Prometheus exposition: every subsystem reported in.
    let text = fml_obs::prometheus_text();
    for name in [
        // fan-out
        "fml_fanout_threads_total",
        // kernels (factorized GMM runs on GEMV + sparse kernels, not GEMM)
        "fml_gemv_calls_total",
        "fml_kernel_flops_total",
        // storage
        "fml_store_pages_read_total",
        "fml_store_fields_read_total",
        // training + scoring phases
        "fml_fit_iterations_total",
        "fml_fit_iteration_ns",
        "fml_score_batches_total",
        "fml_score_rows_total",
        "fml_score_batch_ns",
    ] {
        assert!(
            text.contains(name),
            "prometheus export is missing {name}:\n{text}"
        );
    }
    // Counters actually moved: three EM iterations, at least one batch.
    let counter_value = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample line for {name}"))
    };
    assert!(counter_value("fml_fit_iterations_total") >= 3);
    assert!(counter_value("fml_score_batches_total") >= 1);
    assert!(counter_value("fml_kernel_flops_total") > 0);
    assert!(counter_value("fml_store_pages_read_total") > 0);
    assert!(counter_value("fml_fanout_threads_total") > 0);

    // -- JSON export stays parseable alongside the text form.
    let json = fml_obs::metrics_json();
    assert!(json.contains("\"fml_fit_iteration_ns\""));

    // -- Chrome trace: the promised spans, properly nested.
    let trace = fml_obs::chrome_trace_json();
    let events = fml_obs::parse_chrome_trace(&trace).expect("trace JSON parses");
    let find = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();
    let fits = find("fit");
    let iters = find("fit_iteration");
    let scores = find("score");
    let batches = find("score_batch");
    assert_eq!(fits.len(), 1, "one fit span:\n{trace}");
    assert_eq!(iters.len(), 3, "one span per EM iteration:\n{trace}");
    assert_eq!(scores.len(), 1, "one score span:\n{trace}");
    assert!(!batches.is_empty(), "at least one score_batch span");
    let inside = |outer: &fml_obs::TraceEvent, inner: &fml_obs::TraceEvent| {
        inner.ts >= outer.ts && inner.ts + inner.dur <= outer.ts + outer.dur
    };
    for it in &iters {
        assert!(inside(fits[0], it), "fit_iteration nests inside fit");
    }
    for b in &batches {
        assert!(inside(scores[0], b), "score_batch nests inside score");
    }
}
