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

mod reference;

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::EmulatedDataset;
use fml_gmm::{FactorizedGmm, GmmConfig, MaterializedGmm, StreamingGmm};
use fml_linalg::csr::csr_kernel_calls;
use fml_linalg::sparse::{onehot_kernel_calls, SparseMode};
use fml_linalg::{BlockVec, ExecPolicy, KernelPolicy};
use fml_store::batch::{BlockScan, RowBlock};
use fml_store::DEFAULT_BLOCK_PAGES;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn walmart_sparse() -> fml_data::Workload {
    EmulatedDataset::WalmartSparse
        .generate(0.001, 11)
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
    // The dimension's schema stores one code per categorical column, and
    // every tuple decodes to one active column per categorical column.
    let _guard = LOCK.lock().unwrap();
    let w = walmart_sparse();
    let rel = w.spec.dimension_relations(&w.db).unwrap()[0].clone();
    let spec = fml_data::OneHotSpec::auto(175);
    assert_eq!(rel.lock().schema().groups(), [spec.group()]);
    let (mut rows, mut tuples) = (RowBlock::default(), 0);
    let mut scan = BlockScan::new(rel, 32);
    while scan.next_into(&mut rows).unwrap() {
        for r in 0..rows.len() {
            let BlockVec::OneHot(idx) = rows.row(r) else {
                panic!("tuple {r} decoded to {:?}", rows.row(r));
            };
            assert_eq!(idx.len(), spec.num_columns());
            tuples += 1;
        }
    }
    assert!(tuples > 0);
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
    let config = config();
    let (rows, initial) = reference::joined(&w, config.k, DEFAULT_BLOCK_PAGES);
    let want = reference::per_row_em(&rows, &initial, config.max_iters, config.ridge);
    for p in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let fit =
            FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new().kernel_policy(p))
                .unwrap();
        let diff = want.model.max_param_diff(&fit.model);
        assert!(
            diff < 1e-6,
            "{p}: sparse path vs the per-row reference: {diff}"
        );
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

/// The same shape with a dimension long enough to span several pages
/// (`8 + 12·4` bytes per tuple, 146 to a page).
fn sparse_numeric_binary_wide() -> fml_data::Workload {
    MultiwayConfig {
        n_s: 600,
        d_s: 2,
        dims: vec![DimSpec::sparse_numeric(600, 64, 4)],
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
    // CSR kernels — its stored form is weighted pairs, not codes.
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
    // Every tuple arrives in its stored form, so no iteration classifies
    // any tuple — zero detections, binary, star or windowed — while the
    // sparse kernels do the work.
    let _guard = LOCK.lock().unwrap();
    let three_iters = GmmConfig {
        k: 2,
        max_iters: 3,
        ..GmmConfig::default()
    };
    for w in [walmart_sparse(), categorical_multiway()] {
        let (before, kernels) = (detect_calls(), onehot_kernel_calls());
        let _ = FactorizedGmm::train(&w.db, &w.spec, &three_iters, &ExecPolicy::new()).unwrap();
        assert_eq!(
            detect_calls(),
            before,
            "{}: a fit classified stored rows",
            w.name
        );
        assert!(
            onehot_kernel_calls() > kernels,
            "{}: the one-hot kernels ran",
            w.name
        );
    }

    // A binary join whose R spans several windows: every window re-scans
    // the facts, and still nothing is classified.
    let w = sparse_numeric_binary_wide();
    let r_pages = w.spec.dimension_relations(&w.db).unwrap()[0]
        .lock()
        .num_pages();
    assert!(r_pages >= 3, "R must span several one-page windows");
    let (before, kernels) = (detect_calls(), csr_kernel_calls());
    let windowed = FactorizedGmm::train(
        &w.db,
        &w.spec,
        &three_iters,
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
