//! Cross-policy integration tests: every training variant must learn the same
//! network under every kernel policy (the policies reorder floating-point
//! additions but never change the computation).

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::SyntheticConfig;
use fml_linalg::{ExecPolicy, KernelPolicy};
use fml_nn::{FactorizedNn, MaterializedNn, NnConfig, NnFit, StreamingNn};

#[test]
fn policies_learn_the_same_network_binary() {
    let w = SyntheticConfig {
        n_s: 250,
        n_r: 10,
        d_s: 2,
        d_r: 5,
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 41,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![6],
        epochs: 3,
        ..NnConfig::default()
    };
    let reference = MaterializedNn::train(
        &w.db,
        &w.spec,
        &base,
        &ExecPolicy::new().kernel_policy(KernelPolicy::Naive),
    )
    .unwrap();
    for policy in KernelPolicy::ALL {
        let exec = ExecPolicy::new().kernel_policy(policy);
        let m = MaterializedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        for (label, fit) in [("M", &m), ("S", &s), ("F", &f)] {
            let diff = reference.model.max_param_diff(&fit.model);
            assert!(
                diff < 1e-8,
                "{label}-NN under {policy} diverged from naive reference: {diff}"
            );
        }
    }
}

#[test]
fn policies_learn_the_same_network_multiway() {
    let w = MultiwayConfig {
        n_s: 200,
        d_s: 2,
        dims: vec![DimSpec::new(8, 2), DimSpec::new(4, 3)],
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 43,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![5],
        epochs: 3,
        ..NnConfig::default()
    };
    let reference = FactorizedNn::train(
        &w.db,
        &w.spec,
        &base,
        &ExecPolicy::new().kernel_policy(KernelPolicy::Naive),
    )
    .unwrap();
    for policy in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let f = FactorizedNn::train(
            &w.db,
            &w.spec,
            &base,
            &ExecPolicy::new().kernel_policy(policy),
        )
        .unwrap();
        let diff = reference.model.max_param_diff(&f.model);
        assert!(diff < 1e-8, "F-multiway-NN under {policy} diverged: {diff}");
    }
}

/// Every parameter and every loss-trace entry of a fit, as bits.
fn bits(fit: &NnFit) -> Vec<u64> {
    let mut bits = Vec::new();
    for layer in fit.model.layers() {
        bits.extend(layer.weights.as_slice().iter().map(|x| x.to_bits()));
        bits.extend(layer.bias.iter().map(|x| x.to_bits()));
    }
    bits.extend(fit.loss_trace.iter().map(|x| x.to_bits()));
    bits
}

#[test]
fn materialized_and_streaming_fits_are_bit_identical() {
    // M reads its table as the fact-only join and S inlines every dimension:
    // the same rows, in the same order, through the one epoch driver.
    let binary = SyntheticConfig {
        n_s: 200,
        n_r: 10,
        d_s: 2,
        d_r: 5,
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 47,
    }
    .generate()
    .unwrap();
    let star = MultiwayConfig {
        n_s: 200,
        d_s: 2,
        dims: vec![DimSpec::categorical(8, 6), DimSpec::new(4, 3)],
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 53,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![16, 4],
        epochs: 3,
        ..NnConfig::default()
    };
    for w in [binary, star] {
        for policy in KernelPolicy::ALL {
            let exec = ExecPolicy::new().kernel_policy(policy);
            let m = MaterializedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
            let s = StreamingNn::train(&w.db, &w.spec, &base, &exec).unwrap();
            assert_eq!(bits(&m), bits(&s), "S-NN vs M-NN under {policy}");
        }
    }
}

#[test]
fn materialized_fits_are_bit_stable_across_worker_counts() {
    let w = SyntheticConfig {
        n_s: 200,
        n_r: 10,
        d_s: 2,
        d_r: 5,
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 47,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![128],
        epochs: 2,
        ..NnConfig::default()
    };
    let fit = |threads| {
        let exec = ExecPolicy::new()
            .kernel_policy(KernelPolicy::BlockedParallel)
            .threads(threads);
        bits(&MaterializedNn::train(&w.db, &w.spec, &base, &exec).unwrap())
    };
    let one = fit(1);
    for threads in [2, 4] {
        assert_eq!(one, fit(threads), "threads({threads}) vs threads(1)");
    }
}
