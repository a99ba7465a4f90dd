//! Integration tests for the one-hot sparse path of the factorized NN
//! trainers: categorical datasets must engage the gather/scatter first layer
//! by default and learn the same network as the forced-dense baseline.
//!
//! The kernel-invocation counter is process-global and this binary's tests run
//! concurrently, so **every** test in this binary serializes on `LOCK` — a
//! training run in another thread would otherwise bump the counter between a
//! delta test's before/after reads.

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::EmulatedDataset;
use fml_linalg::csr::csr_kernel_calls;
use fml_linalg::sparse::{onehot_kernel_calls, SparseMode};
use fml_linalg::ExecPolicy;
use fml_nn::{FactorizedNn, NnConfig, StreamingNn};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn walmart_sparse() -> fml_data::Workload {
    EmulatedDataset::WalmartSparse
        .generate(0.001, 13)
        .expect("generate WalmartSparse")
}

/// The registry counter the per-row representation classifier bumped while
/// the trainers ran it; representation is now read off the stored rows.
fn detect_calls() -> u64 {
    fml_obs::counter_handle("fml_sparse_detect_calls_total").get()
}

fn dense_exec() -> ExecPolicy {
    ExecPolicy::new().sparse_mode(SparseMode::Dense)
}

fn config() -> NnConfig {
    NnConfig {
        hidden: vec![8],
        epochs: 2,
        ..NnConfig::default()
    }
}

#[test]
fn categorical_dataset_hits_sparse_path_by_default_and_matches_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();

    let before_dense = onehot_kernel_calls();
    let dense =
        FactorizedNn::train(&w.db, &w.spec, &config(), &dense_exec()).expect("dense training");
    assert_eq!(
        onehot_kernel_calls(),
        before_dense,
        "SparseMode::Dense must not invoke one-hot kernels"
    );

    assert_eq!(ExecPolicy::new().resolve().sparse, SparseMode::Auto);
    let before_auto = onehot_kernel_calls();
    let auto =
        FactorizedNn::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).expect("auto training");
    assert!(
        onehot_kernel_calls() > before_auto,
        "Auto mode must gather/scatter the one-hot first layer"
    );

    // The gather path performs the same multiplications (by 1.0) in the same
    // order as the zero-skipped dense sums; only dead zero-terms differ, so
    // the learned parameters agree to fine precision.
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-9, "sparse vs dense model diff {diff}");
    for (a, b) in dense.loss_trace.iter().zip(auto.loss_trace.iter()) {
        assert!((a - b).abs() < 1e-9, "loss traces diverged: {a} vs {b}");
    }
}

#[test]
fn multiway_categorical_auto_matches_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = MultiwayConfig {
        n_s: 300,
        d_s: 2,
        dims: vec![DimSpec::categorical(10, 12), DimSpec::new(5, 3)],
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 23,
    }
    .generate()
    .unwrap();
    let dense = FactorizedNn::train(&w.db, &w.spec, &config(), &dense_exec()).unwrap();
    let auto = FactorizedNn::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).unwrap();
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-9, "multiway sparse vs dense diff {diff}");
}

#[test]
fn sparse_path_still_matches_materialized_oracle() {
    // End-to-end: the auto-sparse factorized trainer against the dense
    // materialized trainer (different algorithm, same model).
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let m = fml_nn::MaterializedNn::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).unwrap();
    let f = FactorizedNn::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).unwrap();
    let diff = m.model.max_param_diff(&f.model);
    assert!(diff < 1e-8, "M-NN vs sparse F-NN diff {diff}");
}

#[test]
fn weighted_sparse_blocks_hit_the_csr_path_and_match_dense() {
    let _guard = LOCK.lock().unwrap();
    let w = MultiwayConfig {
        n_s: 300,
        d_s: 2,
        dims: vec![DimSpec::sparse_numeric(10, 16, 3)],
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 31,
    }
    .generate()
    .unwrap();

    let before_dense = csr_kernel_calls();
    let dense =
        FactorizedNn::train(&w.db, &w.spec, &config(), &dense_exec()).expect("dense training");
    assert_eq!(
        csr_kernel_calls(),
        before_dense,
        "SparseMode::Dense must not invoke CSR kernels"
    );

    let before_auto = csr_kernel_calls();
    let auto =
        FactorizedNn::train(&w.db, &w.spec, &config(), &ExecPolicy::new()).expect("auto training");
    assert!(
        csr_kernel_calls() > before_auto,
        "Auto mode must gather/scatter the weighted-sparse first layer"
    );

    // The CSR gathers perform the dense kernels' nonzero multiplications in
    // the same order, so the learned parameters agree to fine precision.
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-9, "CSR vs dense model diff {diff}");
    for (a, b) in dense.loss_trace.iter().zip(auto.loss_trace.iter()) {
        assert!((a - b).abs() < 1e-9, "loss traces diverged: {a} vs {b}");
    }
}

#[test]
fn detection_runs_at_most_once_per_tuple_across_epochs() {
    // Every tuple arrives in its stored form, so no epoch classifies any
    // tuple — zero detections — while the sparse kernels do the work.
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let three_epochs = NnConfig {
        hidden: vec![6],
        epochs: 3,
        ..NnConfig::default()
    };
    let (before, kernels) = (detect_calls(), onehot_kernel_calls());
    let _ = FactorizedNn::train(&w.db, &w.spec, &three_epochs, &ExecPolicy::new()).unwrap();
    assert_eq!(detect_calls(), before, "a fit classified stored rows");
    assert!(onehot_kernel_calls() > kernels, "the one-hot kernels ran");

    // A binary join whose R spans several windows (`8 + 12·4` bytes per
    // tuple, 146 to a page): every window re-scans the facts, and still
    // nothing is classified.
    let w = MultiwayConfig {
        n_s: 600,
        d_s: 2,
        dims: vec![DimSpec::sparse_numeric(600, 64, 4)],
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 43,
    }
    .generate()
    .unwrap();
    let r_pages = w.spec.dimension_relations(&w.db).unwrap()[0]
        .lock()
        .num_pages();
    assert!(r_pages >= 3, "R must span several one-page windows");
    let (before, kernels) = (detect_calls(), csr_kernel_calls());
    let windowed = FactorizedNn::train(
        &w.db,
        &w.spec,
        &three_epochs,
        &ExecPolicy::new().block_pages(1),
    )
    .unwrap();
    assert_eq!(
        detect_calls(),
        before,
        "a windowed fit classified stored rows"
    );
    assert!(csr_kernel_calls() > kernels, "the CSR kernels ran");
    // and the windows do not change what is learned
    let resident = FactorizedNn::train(&w.db, &w.spec, &three_epochs, &ExecPolicy::new()).unwrap();
    let diff = resident.model.max_param_diff(&windowed.model);
    assert!(diff < 1e-9, "one window vs {r_pages}: {diff}");
}

#[test]
fn streaming_honors_sparse_mode() {
    // The streaming trainer used to ignore `SparseMode` and always run dense;
    // it now routes sparse denormalized rows through the gather/scatter first
    // layer under Auto and matches the forced-dense model.
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let cfg = config();

    let before_dense = onehot_kernel_calls() + csr_kernel_calls();
    let s_dense = StreamingNn::train(&w.db, &w.spec, &cfg, &dense_exec()).expect("dense streaming");
    assert_eq!(
        onehot_kernel_calls() + csr_kernel_calls(),
        before_dense,
        "SparseMode::Dense must keep the streaming trainer fully dense"
    );

    let before_auto = onehot_kernel_calls() + csr_kernel_calls();
    let s_auto =
        StreamingNn::train(&w.db, &w.spec, &cfg, &ExecPolicy::new()).expect("auto streaming");
    assert!(
        onehot_kernel_calls() + csr_kernel_calls() > before_auto,
        "Auto mode must route the streaming trainer's sparse rows through the sparse kernels"
    );
    let diff = s_dense.model.max_param_diff(&s_auto.model);
    assert!(diff < 1e-9, "streaming sparse vs dense diff {diff}");
    for (a, b) in s_dense.loss_trace.iter().zip(s_auto.loss_trace.iter()) {
        assert!((a - b).abs() < 1e-9, "loss traces diverged: {a} vs {b}");
    }
}
