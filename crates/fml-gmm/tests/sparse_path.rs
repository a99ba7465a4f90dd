//! Integration tests for the one-hot sparse path of the factorized GMM
//! trainers: the emulated categorical datasets must engage it **by default**
//! ([`SparseMode::Auto`]), execute their dimension-side accumulation through
//! the one-hot kernels (verified via the process-global kernel counter), and
//! learn the same model as the forced-dense baseline up to the rounding
//! tolerance of the mean decomposition.
//!
//! The kernel-invocation counter is process-global and this binary's tests run
//! concurrently, so **every** test in this binary serializes on `LOCK` — a
//! training run in another thread would otherwise bump the counter between a
//! delta test's before/after reads.

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::EmulatedDataset;
use fml_gmm::{FactorizedGmm, GmmConfig, MaterializedGmm, StreamingGmm};
use fml_linalg::csr::csr_kernel_calls;
use fml_linalg::sparse::{detect_calls, onehot_indices, onehot_kernel_calls, SparseMode};
use fml_linalg::{ExecPolicy, KernelPolicy};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn walmart_sparse() -> fml_data::Workload {
    EmulatedDataset::WalmartSparse
        .generate(0.001, 11)
        .expect("generate WalmartSparse")
}

fn dense_exec() -> ExecPolicy {
    ExecPolicy::new().sparse_mode(SparseMode::Dense)
}

fn config() -> GmmConfig {
    GmmConfig {
        k: 2,
        max_iters: 2,
        ..GmmConfig::default()
    }
}

#[test]
fn categorical_dataset_hits_sparse_path_by_default_and_matches_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();

    // Forced dense: the baseline, and it must never touch a one-hot kernel.
    let before_dense = onehot_kernel_calls();
    let dense =
        FactorizedGmm::train(&w.db, &w.spec, &config(), &dense_exec()).expect("dense training");
    assert_eq!(
        onehot_kernel_calls(),
        before_dense,
        "SparseMode::Dense must not invoke one-hot kernels"
    );

    // Default (Auto): the one-hot dimension blocks must go through the sparse
    // kernels — the default config needs no opt-in.
    assert_eq!(ExecPolicy::new().resolve().sparse, SparseMode::Auto);
    let before_auto = onehot_kernel_calls();
    let auto =
        FactorizedGmm::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).expect("auto training");
    assert!(
        onehot_kernel_calls() > before_auto,
        "Auto mode must route the categorical blocks through the one-hot kernels"
    );

    // Same model up to the rounding of the mean decomposition.
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-6, "sparse vs dense model diff {diff}");
    for (a, b) in dense.log_likelihood.iter().zip(auto.log_likelihood.iter()) {
        assert!(
            (a - b).abs() / a.abs().max(1.0) < 1e-8,
            "log-likelihood diverged: {a} vs {b}"
        );
    }
}

#[test]
fn every_categorical_dimension_tuple_is_detected() {
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let spec = w.onehot[1].clone().expect("dimension block is one-hot");
    let rel = w.spec.dimension_relations(&w.db).unwrap()[0].clone();
    let tuples = fml_store::batch::scan_all(&rel, 32).unwrap();
    assert!(!tuples.is_empty());
    for t in &tuples {
        let idx = onehot_indices(&t.features)
            .expect("every emulated categorical tuple must auto-detect as one-hot");
        assert_eq!(idx.len(), spec.num_columns());
    }
}

/// Small star schema with one categorical dimension — cheap enough to train
/// repeatedly in debug builds.
fn categorical_multiway() -> fml_data::Workload {
    MultiwayConfig {
        n_s: 400,
        d_s: 2,
        dims: vec![DimSpec::categorical(12, 9), DimSpec::new(6, 4)],
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 19,
    }
    .generate()
    .unwrap()
}

#[test]
fn multiway_categorical_auto_matches_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = categorical_multiway();
    let dense = FactorizedGmm::train(&w.db, &w.spec, &config(), &dense_exec()).unwrap();
    let auto = FactorizedGmm::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).unwrap();
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-6, "multiway sparse vs dense diff {diff}");
}

#[test]
fn sparse_path_is_stable_across_kernel_policies() {
    let _guard = LOCK.lock().unwrap();
    let w = categorical_multiway();
    let reference = FactorizedGmm::train(
        &w.db,
        &w.spec,
        &config(),
        &ExecPolicy::new().kernel_policy(KernelPolicy::Naive),
    )
    .unwrap();
    for p in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let fit = FactorizedGmm::train(
            &w.db,
            &w.spec,
            &config(),
            &ExecPolicy::new().kernel_policy(p),
        )
        .unwrap();
        let diff = reference.model.max_param_diff(&fit.model);
        assert!(diff < 1e-6, "{p}: sparse-path policy diff {diff}");
    }
}

/// Binary star with a weighted-sparse (general CSR) dimension block.
fn sparse_numeric_binary() -> fml_data::Workload {
    MultiwayConfig {
        n_s: 400,
        d_s: 2,
        dims: vec![DimSpec::sparse_numeric(12, 16, 3)],
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 37,
    }
    .generate()
    .unwrap()
}

/// The same shape with a dimension wide and long enough to span several
/// pages (`8 + 8·64` bytes per tuple, 15 to a page).
fn sparse_numeric_binary_wide() -> fml_data::Workload {
    MultiwayConfig {
        n_s: 600,
        d_s: 2,
        dims: vec![DimSpec::sparse_numeric(60, 64, 4)],
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 43,
    }
    .generate()
    .unwrap()
}

#[test]
fn weighted_sparse_blocks_hit_the_csr_path_and_match_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = sparse_numeric_binary();

    // Forced dense: must never touch a CSR kernel.
    let before_dense = csr_kernel_calls();
    let dense =
        FactorizedGmm::train(&w.db, &w.spec, &config(), &dense_exec()).expect("dense training");
    assert_eq!(
        csr_kernel_calls(),
        before_dense,
        "SparseMode::Dense must not invoke CSR kernels"
    );

    // Default (Auto): the weighted-sparse dimension block must go through the
    // CSR kernels — detection generalizes past 0/1 values.
    let before_auto = csr_kernel_calls();
    let auto =
        FactorizedGmm::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).expect("auto training");
    assert!(
        csr_kernel_calls() > before_auto,
        "Auto mode must route weighted-sparse blocks through the CSR kernels"
    );

    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-6, "CSR vs dense model diff {diff}");
    for (a, b) in dense.log_likelihood.iter().zip(auto.log_likelihood.iter()) {
        assert!(
            (a - b).abs() / a.abs().max(1.0) < 1e-8,
            "log-likelihood diverged: {a} vs {b}"
        );
    }
}

#[test]
fn multiway_weighted_sparse_auto_matches_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = MultiwayConfig {
        n_s: 300,
        d_s: 2,
        dims: vec![DimSpec::sparse_numeric(10, 16, 3), DimSpec::new(5, 3)],
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 41,
    }
    .generate()
    .unwrap();
    let dense = FactorizedGmm::train(&w.db, &w.spec, &config(), &dense_exec()).unwrap();
    let auto = FactorizedGmm::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).unwrap();
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-6, "multiway CSR vs dense diff {diff}");
}

#[test]
fn detection_runs_at_most_once_per_tuple_across_iterations() {
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let n_s = w.n_fact().unwrap();
    let n_r = w.n_dim(0).unwrap();

    // Binary factorized trainer, several EM iterations: every pass of every
    // iteration re-reads the same immutable tuples, but detection must run at
    // most once per tuple (the caches are filled during the first E-step).
    let iters = 3;
    let three_iters = GmmConfig {
        k: 2,
        max_iters: iters,
        ..GmmConfig::default()
    };
    let before = detect_calls();
    let _ = FactorizedGmm::train(&w.db, &w.spec, &three_iters, &ExecPolicy::new()).unwrap();
    let delta = detect_calls() - before;
    // One detection per fact tuple plus one per referenced dimension tuple.
    assert!(
        delta <= n_s + n_r,
        "detection ran {delta} times for {n_s} facts / {n_r} dims over {iters} iterations \
         — per-iteration rescan regression"
    );
    // Sanity: it DID run (Auto mode detects).
    assert!(delta >= n_s, "detection must cover every fact tuple once");

    // Multiway: the same bound — facts by scan position, dimension tuples by
    // ordinal, each detected once for the whole run.
    let w = categorical_multiway();
    let n_s = w.n_fact().unwrap();
    let n_r: u64 = (0..2).map(|i| w.n_dim(i).unwrap()).sum();
    let before = detect_calls();
    let _ = FactorizedGmm::train(&w.db, &w.spec, &three_iters, &ExecPolicy::new()).unwrap();
    let delta = detect_calls() - before;
    assert!(
        delta <= n_s + n_r,
        "multiway detection ran {delta} times for {n_s} facts / {n_r} dimension tuples"
    );

    // A binary join whose R spans several windows: every window re-scans the
    // facts, yet each fact and each dimension tuple is still detected once.
    let w = sparse_numeric_binary_wide();
    let (n_s, n_r) = (w.n_fact().unwrap(), w.n_dim(0).unwrap());
    let r_pages = w.spec.dimension_relations(&w.db).unwrap()[0]
        .lock()
        .num_pages();
    assert!(r_pages >= 3, "R must span several one-page windows");
    let before = detect_calls();
    let windowed = FactorizedGmm::train(
        &w.db,
        &w.spec,
        &three_iters,
        &ExecPolicy::new().block_pages(1),
    )
    .unwrap();
    let delta = detect_calls() - before;
    assert!(
        (n_s..=n_s + n_r).contains(&delta),
        "windowed detection ran {delta} times for {n_s} facts / {n_r} dimension tuples"
    );
    // and the windows do not change what is learned
    let resident = FactorizedGmm::train(&w.db, &w.spec, &three_iters, &ExecPolicy::new()).unwrap();
    let diff = resident.model.max_param_diff(&windowed.model);
    assert!(diff < 1e-6, "one window vs {r_pages}: {diff}");
}

#[test]
fn streaming_and_materialized_honor_sparse_mode() {
    // The dense-pass trainers share one driver; both must engage the sparse
    // kernels on sparse denormalized rows under Auto (they used to silently
    // run dense regardless of `SparseMode`) and match the forced-dense model.
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let cfg = config();

    let before_dense = onehot_kernel_calls() + csr_kernel_calls();
    let s_dense =
        StreamingGmm::train(&w.db, &w.spec, &cfg, &dense_exec()).expect("dense streaming");
    assert_eq!(
        onehot_kernel_calls() + csr_kernel_calls(),
        before_dense,
        "SparseMode::Dense must keep the streaming trainer fully dense"
    );

    let before_auto = onehot_kernel_calls() + csr_kernel_calls();
    let s_auto =
        StreamingGmm::train(&w.db, &w.spec, &cfg, &ExecPolicy::new()).expect("auto streaming");
    assert!(
        onehot_kernel_calls() + csr_kernel_calls() > before_auto,
        "Auto mode must route the streaming trainer's sparse rows through the sparse kernels"
    );
    let diff = s_dense.model.max_param_diff(&s_auto.model);
    assert!(diff < 1e-6, "streaming sparse vs dense diff {diff}");

    // Materialized shares the driver: same behavior, same model.
    let m_auto = MaterializedGmm::train(&w.db, &w.spec, &cfg, &ExecPolicy::new())
        .expect("auto materialized");
    let diff = m_auto.model.max_param_diff(&s_auto.model);
    assert!(diff < 1e-8, "M vs S sparse-path diff {diff}");
}
