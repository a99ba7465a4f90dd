//! Every training variant against one oracle: full-batch gradient descent
//! written out per example over the sequential `fml_linalg::reference`
//! kernels, independent of the trainers' embedding-table first layer, their
//! workspace passes and the blocked dense kernels — under both driver
//! policies.

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{SyntheticConfig, Workload};
use fml_linalg::{reference, vector, ExecPolicy, KernelPolicy, SparseMode};
use fml_nn::layer::LayerGradient;
use fml_nn::{Activation, FactorizedNn, MaterializedNn, Mlp, NnConfig, NnFit, StreamingNn};
use fml_store::join::RowSource;
use fml_store::{Database, FeatureGroup, JoinSpec, Schema, Tuple, DEFAULT_BLOCK_PAGES};

const POLICIES: [KernelPolicy; 2] = [KernelPolicy::Blocked, KernelPolicy::BlockedParallel];

/// One example's forward and backward pass, accumulated into `grads`:
/// `h_l = f_l(W_l·h_{l−1} + b_l)` through [`reference::matvec`], then per
/// layer from the output down `∂W_l += δ_l·h_{l−1}ᵀ` entry by entry and
/// `δ_{l−1} = (W_lᵀ·δ_l) ⊙ f'(h_{l−1})`.
fn reference_example(net: &Mlp, x: &[f64], y: f64, grads: &mut [LayerGradient]) {
    let mut h = vec![x.to_vec()];
    for layer in net.layers() {
        let mut a = reference::matvec(&layer.weights, &h[h.len() - 1]);
        vector::axpy(1.0, &layer.bias, &mut a);
        layer.activation.apply_slice(&mut a);
        h.push(a);
    }
    let mut delta = vec![h[net.layers().len()][0] - y];
    for (l, layer) in net.layers().iter().enumerate().rev() {
        for (i, &d) in delta.iter().enumerate() {
            for (j, &v) in h[l].iter().enumerate() {
                grads[l].d_weights[(i, j)] += d * v;
            }
            grads[l].d_bias[i] += d;
        }
        if l > 0 {
            let back = reference::matvec(&layer.weights.transpose(), &delta);
            let below = net.layers()[l - 1].activation;
            delta = (back.iter().zip(&h[l]))
                .map(|(b, &hv)| b * below.derivative_from_output(hv))
                .collect();
        }
    }
}

/// `config.epochs` full-batch steps of [`reference_example`] over `rows`
/// from the network every trainer starts from.
fn reference_fit(rows: &[(Vec<f64>, f64)], config: &NnConfig, seed: u64) -> Mlp {
    let mut net = Mlp::new(rows[0].0.len(), &config.hidden, config.activation, seed);
    for _ in 0..config.epochs {
        let mut grads = net.zero_grads();
        for (x, y) in rows {
            reference_example(&net, x, *y, &mut grads);
        }
        net.apply_grads(&grads, config.learning_rate, rows.len() as f64);
    }
    net
}

/// The denormalized rows of `w`'s join with their targets, in scan order.
fn joined_rows(w: &Workload) -> Vec<(Vec<f64>, f64)> {
    let mut rows = Vec::new();
    let source = RowSource::join(&w.db, w.spec.clone(), DEFAULT_BLOCK_PAGES).unwrap();
    let expanded = source.sparse_mode(SparseMode::Dense);
    expanded
        .for_each_row(&mut |x, y| {
            let fml_linalg::BlockVec::Dense(x) = x else {
                panic!("an expanded row is dense");
            };
            rows.push((x.to_vec(), y.unwrap_or(0.0)));
        })
        .unwrap();
    rows
}

#[test]
fn every_strategy_learns_the_per_example_reference_network_binary() {
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
    let seed = ExecPolicy::new().resolve().seed;
    let reference = reference_fit(&joined_rows(&w), &base, seed);
    for policy in POLICIES {
        let exec = ExecPolicy::new().kernel_policy(policy);
        let m = MaterializedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        for (label, fit) in [("M", &m), ("S", &s), ("F", &f)] {
            let diff = reference.max_param_diff(&fit.model);
            assert!(
                diff < 1e-8,
                "{label}-NN under {policy} diverged from the per-example reference: {diff}"
            );
        }
    }
}

#[test]
fn every_strategy_learns_the_per_example_reference_network_multiway() {
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
    let seed = ExecPolicy::new().resolve().seed;
    let reference = reference_fit(&joined_rows(&w), &base, seed);
    for policy in POLICIES {
        let f = FactorizedNn::train(
            &w.db,
            &w.spec,
            &base,
            &ExecPolicy::new().kernel_policy(policy),
        )
        .unwrap();
        let diff = reference.max_param_diff(&f.model);
        assert!(diff < 1e-8, "F-multiway-NN under {policy} diverged: {diff}");
    }
}

/// `rows` stored as a fact relation with no foreign keys, its features as
/// `group`: the `q = 0` join, which the one epoch driver trains as the
/// partition `[d]`.
fn fact_only_as(rows: &[(Vec<f64>, f64)], group: FeatureGroup) -> (Database, JoinSpec) {
    let db = Database::in_memory();
    let schema = Schema::fact_with_target("S", 0, 0).with_groups(vec![group]);
    let rel = db.create_relation(schema).unwrap();
    let mut rel = rel.lock();
    for (key, (x, y)) in (0u64..).zip(rows) {
        rel.append(&Tuple::fact_with_target(key, vec![], *y, x.clone()))
            .unwrap();
    }
    rel.flush().unwrap();
    drop(rel);
    (db, JoinSpec::multiway("S", vec![]))
}

#[test]
fn table_engine_matches_the_per_example_reference_per_parameter() {
    // One-hot, CSR and dense row sets, each stored in its form as a
    // fact-only relation and trained through the one epoch driver,
    // against the per-example reference in the same row order.
    let onehot = |i: usize| {
        let mut x = vec![0.0; 12];
        x[i % 5] = 1.0;
        x[5 + i % 7] = 1.0;
        x
    };
    let csr = |i: usize| {
        let mut x = vec![0.0; 12];
        x[(3 * i) % 12] = 0.25 * (i % 9) as f64 - 1.0;
        x[(3 * i + 5) % 12] = 1.5 - 0.5 * (i % 4) as f64;
        x
    };
    let dense = |i: usize| {
        (0..12)
            .map(|j| ((i * 7 + j * 3) % 11) as f64 / 5.0 - 1.0)
            .collect()
    };
    let one_hot = FeatureGroup::OneHot {
        cardinalities: vec![5, 7],
    };
    let sparse = FeatureGroup::SparseNumeric {
        width: 12,
        max_nnz: 2,
    };
    let row_sets: [(&str, Vec<Vec<f64>>, FeatureGroup); 3] = [
        ("one-hot", (0..40).map(onehot).collect(), one_hot),
        ("csr", (0..40).map(csr).collect(), sparse),
        (
            "dense",
            (0..40).map(dense).collect(),
            FeatureGroup::Dense(12),
        ),
    ];
    let config = NnConfig {
        hidden: vec![6, 4],
        activation: Activation::Sigmoid,
        epochs: 3,
        learning_rate: 0.3,
    };
    for (label, xs, group) in row_sets {
        let rows: Vec<(Vec<f64>, f64)> = xs
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x, (i % 5) as f64 / 4.0))
            .collect();
        let (db, spec) = fact_only_as(&rows, group);
        let reference = reference_fit(&rows, &config, 5);
        for policy in POLICIES {
            let exec = ExecPolicy::new().kernel_policy(policy).seed(5);
            let fit = FactorizedNn::train(&db, &spec, &config, &exec).unwrap();
            let diff = fit.model.max_param_diff(&reference);
            assert!(diff < 1e-12, "{label} under {policy}: {diff}");
        }
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
        for policy in POLICIES {
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
