//! Cross-variant integration tests: M-GMM, S-GMM and F-GMM must learn the same
//! model on the same workload, for binary and multi-way joins, across parameter
//! settings (the paper's "no loss in accuracy" guarantee).

mod reference;

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::SyntheticConfig;
use fml_gmm::{FactorizedGmm, GmmConfig, MaterializedGmm, StreamingGmm};
use fml_linalg::{ExecPolicy, KernelPolicy};
use fml_store::DEFAULT_BLOCK_PAGES;

fn assert_equivalent(w: &fml_data::Workload, config: &GmmConfig, tol: f64) {
    let exec = ExecPolicy::new();
    let m = MaterializedGmm::train(&w.db, &w.spec, config, &exec).unwrap();
    let s = StreamingGmm::train(&w.db, &w.spec, config, &exec).unwrap();
    let f = FactorizedGmm::train(&w.db, &w.spec, config, &exec).unwrap();
    assert_eq!(m.iterations, s.iterations);
    assert_eq!(m.iterations, f.iterations);
    let ms = m.model.max_param_diff(&s.model);
    let mf = m.model.max_param_diff(&f.model);
    assert!(ms < tol, "M vs S diff {ms} exceeds {tol} on {}", w.name);
    assert!(mf < tol, "M vs F diff {mf} exceeds {tol} on {}", w.name);
    // log-likelihood traces must coincide as well
    for (a, b) in m.log_likelihood.iter().zip(f.log_likelihood.iter()) {
        assert!(
            (a - b).abs() / a.abs().max(1.0) < 1e-7,
            "LL trace diverged: {a} vs {b}"
        );
    }
}

#[test]
fn binary_equivalence_across_tuple_ratios() {
    for rr in [5u64, 20, 60] {
        let w = SyntheticConfig {
            n_s: 0, // set via with_tuple_ratio
            n_r: 12,
            d_s: 2,
            d_r: 4,
            k: 3,
            noise_std: 0.8,
            with_target: false,
            seed: 100 + rr,
        }
        .with_tuple_ratio(rr)
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 3,
            max_iters: 5,
            ..GmmConfig::default()
        };
        assert_equivalent(&w, &config, 1e-6);
    }
}

#[test]
fn binary_equivalence_across_dimension_widths() {
    for d_r in [2usize, 8, 16] {
        let w = SyntheticConfig {
            n_s: 400,
            n_r: 16,
            d_s: 3,
            d_r,
            k: 2,
            noise_std: 0.7,
            with_target: false,
            seed: 200 + d_r as u64,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 4,
            ..GmmConfig::default()
        };
        assert_equivalent(&w, &config, 1e-6);
    }
}

#[test]
fn binary_equivalence_across_component_counts() {
    for k in [1usize, 2, 4] {
        let w = SyntheticConfig {
            n_s: 350,
            n_r: 14,
            d_s: 2,
            d_r: 5,
            k: k.max(2),
            noise_std: 0.8,
            with_target: false,
            seed: 300 + k as u64,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k,
            max_iters: 4,
            ..GmmConfig::default()
        };
        assert_equivalent(&w, &config, 1e-6);
    }
}

#[test]
fn multiway_equivalence() {
    let w = MultiwayConfig {
        n_s: 500,
        d_s: 2,
        dims: vec![DimSpec::new(15, 3), DimSpec::new(8, 5)],
        k: 3,
        noise_std: 0.8,
        with_target: false,
        seed: 55,
    }
    .generate()
    .unwrap();
    let config = GmmConfig {
        k: 3,
        max_iters: 4,
        ..GmmConfig::default()
    };
    let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
    let s = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
    let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
    assert!(m.model.max_param_diff(&f.model) < 1e-6);
    assert!(s.model.max_param_diff(&f.model) < 1e-6);
}

#[test]
fn factorized_io_never_exceeds_streaming_io() {
    // F-GMM reads exactly the same pages as S-GMM (base relations only) and far
    // fewer than M-GMM (which also writes and re-reads the join result).
    let w = SyntheticConfig {
        n_s: 2000,
        n_r: 20,
        d_s: 3,
        d_r: 10,
        k: 2,
        noise_std: 0.8,
        with_target: false,
        seed: 77,
    }
    .generate()
    .unwrap();
    let config = GmmConfig {
        k: 2,
        max_iters: 2,
        ..GmmConfig::default()
    };

    w.db.stats().reset();
    let _ = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
    let s_io = w.db.stats().snapshot();

    w.db.stats().reset();
    let _ = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
    let f_io = w.db.stats().snapshot();

    w.db.stats().reset();
    let _ = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
    let m_io = w.db.stats().snapshot();

    assert_eq!(
        f_io.pages_read, s_io.pages_read,
        "F and S read the same pages"
    );
    assert_eq!(f_io.pages_written, 0);
    assert_eq!(s_io.pages_written, 0);
    assert!(m_io.pages_written > 0, "M-GMM materializes the join");
    assert!(
        m_io.total_page_io() > f_io.total_page_io(),
        "M-GMM total I/O {} should exceed F-GMM {}",
        m_io.total_page_io(),
        f_io.total_page_io()
    );
}

#[test]
fn every_strategy_and_policy_learns_the_per_row_reference_model() {
    // One workload, both driver policies, every variant: the learned models
    // must agree with the per-row three-pass oracle over the reference
    // kernels within rounding tolerance.
    let w = SyntheticConfig {
        n_s: 300,
        n_r: 12,
        d_s: 2,
        d_r: 5,
        k: 2,
        noise_std: 0.8,
        with_target: false,
        seed: 77,
    }
    .generate()
    .unwrap();
    let base = GmmConfig {
        k: 2,
        max_iters: 4,
        ..GmmConfig::default()
    };
    let (rows, initial) = reference::joined(&w, base.k, DEFAULT_BLOCK_PAGES);
    let want = reference::per_row_em(&rows, &initial, base.max_iters, base.ridge);
    for policy in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let exec = ExecPolicy::new().kernel_policy(policy);
        let m = MaterializedGmm::train(&w.db, &w.spec, &base, &exec).unwrap();
        let s = StreamingGmm::train(&w.db, &w.spec, &base, &exec).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &base, &exec).unwrap();
        for (label, fit) in [("M", &m), ("S", &s), ("F", &f)] {
            let diff = want.model.max_param_diff(&fit.model);
            assert!(
                diff < 1e-6,
                "{label}-GMM under {policy} diverged from the per-row reference: {diff}"
            );
        }
    }
}

#[test]
fn multiway_policies_learn_the_per_row_reference_model() {
    let w = MultiwayConfig {
        n_s: 250,
        d_s: 2,
        dims: vec![DimSpec::new(10, 3), DimSpec::new(5, 2)],
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 78,
    }
    .generate()
    .unwrap();
    let base = GmmConfig {
        k: 2,
        max_iters: 3,
        ..GmmConfig::default()
    };
    let (rows, initial) = reference::joined(&w, base.k, DEFAULT_BLOCK_PAGES);
    let want = reference::per_row_em(&rows, &initial, base.max_iters, base.ridge);
    for policy in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let f = FactorizedGmm::train(
            &w.db,
            &w.spec,
            &base,
            &ExecPolicy::new().kernel_policy(policy),
        )
        .unwrap();
        let diff = want.model.max_param_diff(&f.model);
        assert!(diff < 1e-6, "F-multiway under {policy} diverged: {diff}");
    }
}
