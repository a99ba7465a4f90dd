//! Shared helpers for the benchmark harness that regenerates the paper's tables
//! and figures (Section VII).
//!
//! Every experiment is expressed as a *sweep*: a list of workload configurations,
//! each trained with the three strategies (`M-*`, `S-*`, `F-*`), reporting
//! wall-clock time and speed-ups.  The Criterion benches in `benches/` measure a
//! representative subset of each sweep; the `reproduce` binary runs the full
//! sweeps and prints the series / tables in the paper's layout.
//!
//! Workload sizes default to a laptop-friendly scale; set `FML_SCALE=paper` to use
//! the paper's original cardinalities (hours of runtime), or `FML_SCALE=<factor>`
//! for a custom multiplier on the default sizes.

#![allow(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod timing;

use fml_core::prelude::*;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{EmulatedDataset, SyntheticConfig, Workload};
use std::time::Duration;

/// Scale factor applied to the fact-table cardinalities of the synthetic sweeps.
/// The paper uses `n_S = 10^6`; the default here is 1/50 of that so the whole
/// suite completes in minutes.
pub fn scale_factor() -> f64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "FML_SCALE sizes the harness's sweeps, not an engine setting"
    )]
    match std::env::var("FML_SCALE").ok().as_deref() {
        Some("paper") => 1.0,
        Some(v) => v.parse().unwrap_or(0.02),
        None => 0.02,
    }
}

/// Scaled version of the paper's `n_S` choices.
pub fn scaled(n: u64) -> u64 {
    ((n as f64 * scale_factor()).round() as u64).max(1_000)
}

/// Result of running one workload with one strategy.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub algorithm: Algorithm,
    pub elapsed: Duration,
    pub quality: f64,
    pub pages_io: u64,
}

/// Runs all three GMM strategies on a workload under one execution policy,
/// returning their timings.
pub fn run_gmm_all_with(w: &Workload, config: &GmmConfig, exec: &ExecPolicy) -> Vec<RunResult> {
    let session = Session::new(&w.db).join(&w.spec).exec(exec.clone());
    Algorithm::all()
        .into_iter()
        .map(|alg| {
            let fit = session
                .fit(Gmm::new(config.clone()).algorithm(alg))
                .expect("GMM training failed");
            RunResult {
                algorithm: alg,
                elapsed: fit.fit.elapsed,
                quality: fit.final_log_likelihood(),
                pages_io: fit.io.total_page_io(),
            }
        })
        .collect()
}

/// [`run_gmm_all_with`] under the default execution policy.
pub fn run_gmm_all(w: &Workload, config: &GmmConfig) -> Vec<RunResult> {
    run_gmm_all_with(w, config, &ExecPolicy::new())
}

/// Runs all three NN strategies on a workload under one execution policy,
/// returning their timings.
pub fn run_nn_all_with(w: &Workload, config: &NnConfig, exec: &ExecPolicy) -> Vec<RunResult> {
    let session = Session::new(&w.db).join(&w.spec).exec(exec.clone());
    Algorithm::all()
        .into_iter()
        .map(|alg| {
            let fit = session
                .fit(Nn::new(config.clone()).algorithm(alg))
                .expect("NN training failed");
            RunResult {
                algorithm: alg,
                elapsed: fit.fit.elapsed,
                quality: fit.final_loss(),
                pages_io: fit.io.total_page_io(),
            }
        })
        .collect()
}

/// [`run_nn_all_with`] under the default execution policy.
pub fn run_nn_all(w: &Workload, config: &NnConfig) -> Vec<RunResult> {
    run_nn_all_with(w, config, &ExecPolicy::new())
}

// ---------------------------------------------------------------------------
// Workload builders, one per experiment (see DESIGN.md §3 for the mapping).
// ---------------------------------------------------------------------------

/// Figure 3(a) / 5(a): synthetic binary join, varying the tuple ratio `rr`.
pub fn binary_vary_rr(rr: u64, d_r: usize, with_target: bool) -> Workload {
    SyntheticConfig {
        n_s: 0,
        n_r: 1000,
        d_s: 5,
        d_r,
        k: 5,
        noise_std: 1.0,
        with_target,
        seed: 1000 + rr,
    }
    .with_tuple_ratio(scaled(1000 * rr) / 1000)
    .generate()
    .expect("generate")
}

/// Figure 3(b) / 5(b): synthetic binary join, varying `d_R`.
pub fn binary_vary_dr(d_r: usize, n_s: u64, with_target: bool) -> Workload {
    SyntheticConfig {
        n_s: scaled(n_s),
        n_r: 1000,
        d_s: 5,
        d_r,
        k: 5,
        noise_std: 1.0,
        with_target,
        seed: 2000 + d_r as u64,
    }
    .generate()
    .expect("generate")
}

/// Figure 3(c): synthetic binary join, varying `K` (GMM components).
/// Figure 5(c) uses the same workload with `n_h` varied at training time.
pub fn binary_vary_k(with_target: bool, seed: u64) -> Workload {
    SyntheticConfig {
        n_s: scaled(1_000_000),
        n_r: 1000,
        d_s: 5,
        d_r: 15,
        k: 5,
        noise_std: 1.0,
        with_target,
        seed,
    }
    .generate()
    .expect("generate")
}

/// Figures 4 and 6: Movies-3way-like star schema (ratings ⋈ users ⋈ movies) with
/// synthetic tuples injected into `R1` to control the tuple ratio.
pub fn multiway_movies_like(rr: u64, d_r1: usize, with_target: bool) -> Workload {
    let n_r1 = 1000u64;
    MultiwayConfig {
        n_s: (n_r1 * rr).min(scaled(1_000_000).max(n_r1 * rr.min(50))),
        d_s: 1,
        dims: vec![DimSpec::new(n_r1, d_r1), DimSpec::new(500, 21)],
        k: 5,
        noise_std: 1.0,
        with_target,
        seed: 3000 + rr + d_r1 as u64,
    }
    .generate()
    .expect("generate")
}

/// Tables VI and VII: the emulated real datasets, scaled down.
pub fn emulated(dataset: EmulatedDataset) -> Workload {
    dataset
        .generate(scale_factor().min(1.0), 4000)
        .expect("generate emulated dataset")
}

/// Default GMM configuration used by the sweeps (paper: K=5, 10 EM iterations;
/// scaled down to 3 iterations for the benches — the per-iteration cost is what
/// the comparison measures).
pub fn bench_gmm_config(k: usize) -> GmmConfig {
    GmmConfig {
        k,
        max_iters: 3,
        tol: 0.0,
        ..GmmConfig::default()
    }
}

/// Default NN configuration used by the sweeps (paper: n_h=50, 10 epochs; scaled
/// down to 3 epochs for the benches).
pub fn bench_nn_config(n_h: usize) -> NnConfig {
    NnConfig {
        hidden: vec![n_h],
        epochs: 3,
        ..NnConfig::default()
    }
}
