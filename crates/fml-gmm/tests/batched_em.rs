//! The batched dense EM driver (`em.rs`: whiten-and-norm E-step, weighted
//! SYRK scatter, one call per 1024-row batch and component) against its
//! oracles:
//!
//! * the `Naive` kernel policy — the same driver with the kernels' strictly
//!   sequential per-row reference loops;
//! * a hand-rolled per-row EM on [`Precomputed::responsibilities_dense`] (the
//!   `Σ⁻¹` quadratic form) and [`gemm::ger`] — the arithmetic the driver ran
//!   before it was batched, independent of the whitened form;
//! * the forced-dense fit, for batches that mix sparse and dense rows.

use fml_gmm::em::{finalize_m_step, means_from_sums, train_dense_from, GmmFit, VecSource};
use fml_gmm::{GmmConfig, GmmModel, Precomputed};
use fml_linalg::csr::csr_indices;
use fml_linalg::sparse::{onehot_indices, SparseMode};
use fml_linalg::testutil::TestRng;
use fml_linalg::{gemm, vector, ExecPolicy, KernelPolicy, Matrix, Vector};

/// `n` rows around `k` well-separated centres in `d` dimensions, and an
/// initial model near (not at) the truth: centres nudged, identity
/// covariances, uniform weights.
fn blobs(n: usize, d: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, GmmModel) {
    let mut rng = TestRng::new(seed);
    let centres: Vec<Vec<f64>> = (0..k).map(|_| rng.vec_in(d, -4.0, 4.0)).collect();
    let rows = (0..n)
        .map(|i| {
            let c = &centres[i % k];
            c.iter().map(|m| m + rng.f64_in(-1.0, 1.0)).collect()
        })
        .collect();
    let means = centres
        .iter()
        .map(|c| Vector::from_vec(c.iter().map(|m| m + rng.f64_in(-0.3, 0.3)).collect()))
        .collect();
    let initial = GmmModel::new(vec![1.0 / k as f64; k], means, vec![Matrix::identity(d); k]);
    (rows, initial)
}

fn fit(rows: &[Vec<f64>], initial: &GmmModel, iters: usize, exec: &ExecPolicy) -> GmmFit {
    let config = GmmConfig {
        k: initial.k(),
        max_iters: iters,
        ..GmmConfig::default()
    };
    let mut source = VecSource::new(rows.to_vec());
    train_dense_from(&mut source, &config, exec, initial.clone(), None).expect("fit")
}

fn policy(p: KernelPolicy) -> ExecPolicy {
    ExecPolicy::new().kernel_policy(p)
}

/// Parameters within `1e-9`, every per-iteration log-likelihood within
/// `1e-10` relative.
fn assert_same_fit(label: &str, want: &GmmFit, got: &GmmFit) {
    assert_eq!(want.iterations, got.iterations, "{label}: iterations");
    let diff = want.model.max_param_diff(&got.model);
    assert!(diff < 1e-9, "{label}: parameter diff {diff}");
    for (i, (a, b)) in want
        .log_likelihood
        .iter()
        .zip(got.log_likelihood.iter())
        .enumerate()
    {
        assert!(a.is_finite() && b.is_finite(), "{label}: iteration {i}");
        assert!(
            (a - b).abs() <= 1e-10 * a.abs().max(1.0),
            "{label}: log-likelihood at iteration {i}: {a} vs {b}"
        );
    }
}

#[test]
fn blocked_matches_the_naive_oracle_across_widths_and_batch_boundaries() {
    for d in [2usize, 26, 85] {
        // one row short of a batch, exactly one, one over, and 2.4 batches
        for n in [1023usize, 1024, 1025, 2500] {
            let (rows, initial) = blobs(n, d, 3, (d * 10_000 + n) as u64);
            let naive = fit(&rows, &initial, 3, &policy(KernelPolicy::Naive));
            let blocked = fit(&rows, &initial, 3, &policy(KernelPolicy::Blocked));
            assert_same_fit(&format!("d={d} n={n}"), &naive, &blocked);
        }
    }
}

/// Algorithm 1 one row at a time, as `em.rs` ran it before batching: the
/// `Σ⁻¹` quadratic form per row and component, one full GER per row and
/// component, the shared M-step finalization.
fn per_row_em(rows: &[Vec<f64>], initial: &GmmModel, iters: usize, ridge: f64) -> GmmFit {
    let (k, d, n) = (initial.k(), initial.dim(), rows.len());
    let mut model = initial.clone();
    let mut log_likelihood = Vec::new();
    for _ in 0..iters {
        let pre = Precomputed::from_model(&model, ridge);
        let mut gammas = Vec::with_capacity(n * k);
        let mut nk = vec![0.0; k];
        let mut ll = 0.0;
        for x in rows {
            let (resp, tuple_ll) = pre.responsibilities_dense(x);
            vector::axpy(1.0, &resp, &mut nk);
            ll += tuple_ll;
            gammas.extend_from_slice(&resp);
        }
        let mut mean_sums = vec![Vector::zeros(d); k];
        for (x, g) in rows.iter().zip(gammas.chunks_exact(k)) {
            for c in 0..k {
                vector::axpy(g[c], x, mean_sums[c].as_mut_slice());
            }
        }
        let new_means = means_from_sums(&nk, &mean_sums);
        let mut scatter = vec![Matrix::zeros(d, d); k];
        let mut centered = vec![0.0; d];
        for (x, g) in rows.iter().zip(gammas.chunks_exact(k)) {
            for c in 0..k {
                vector::sub_into(x, new_means[c].as_slice(), &mut centered);
                gemm::ger_with(
                    KernelPolicy::Blocked,
                    g[c],
                    &centered,
                    &centered,
                    &mut scatter[c],
                );
            }
        }
        model = finalize_m_step(&nk, mean_sums, scatter, n as u64, ridge);
        log_likelihood.push(ll);
    }
    GmmFit {
        model,
        iterations: iters,
        log_likelihood,
        n_tuples: n as u64,
        elapsed: std::time::Duration::ZERO,
    }
}

#[test]
fn naive_and_blocked_fits_match_the_hand_rolled_per_row_em() {
    let (rows, initial) = blobs(200, 11, 3, 7);
    let reference = per_row_em(&rows, &initial, 4, GmmConfig::default().ridge);
    for p in [KernelPolicy::Naive, KernelPolicy::Blocked] {
        let got = fit(&rows, &initial, 4, &policy(p));
        assert_same_fit(&format!("{p} vs per-row EM"), &reference, &got);
    }
}

#[test]
fn a_batch_mixing_sparse_and_dense_rows_matches_the_all_dense_fit() {
    // Every third row is 0/1-valued (one-hot), every third a weighted sparse
    // row (CSR), the rest dense — interleaved, so every chunk of every batch
    // compacts its dense rows into the panel around the sparse ones.
    let (d, n) = (24usize, 1500usize);
    let mut rng = TestRng::new(31);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| match i % 3 {
            0 => {
                let mut x = vec![0.0; d];
                for b in 0..3 {
                    x[b * 8 + rng.range(0, 8)] = 1.0;
                }
                x
            }
            1 => {
                let mut x = vec![0.0; d];
                for _ in 0..4 {
                    x[rng.range(0, d)] = rng.f64_in(0.5, 2.0);
                }
                x
            }
            _ => rng.vec_in(d, -1.0, 2.0),
        })
        .collect();
    assert!(
        onehot_indices(&rows[0]).is_some(),
        "row 0 must detect one-hot"
    );
    assert!(csr_indices(&rows[1]).is_some(), "row 1 must detect CSR");
    assert!(onehot_indices(&rows[2]).is_none() && csr_indices(&rows[2]).is_none());

    let means = (0..3)
        .map(|c| Vector::from_vec(rows[c].iter().map(|v| v + 0.1).collect()))
        .collect();
    let initial = GmmModel::new(vec![1.0 / 3.0; 3], means, vec![Matrix::identity(d); 3]);
    for p in [KernelPolicy::Naive, KernelPolicy::Blocked] {
        let dense = fit(
            &rows,
            &initial,
            3,
            &policy(p).sparse_mode(SparseMode::Dense),
        );
        let auto = fit(&rows, &initial, 3, &policy(p).sparse_mode(SparseMode::Auto));
        // the sparse path's own tolerance (tests/sparse_path.rs)
        let diff = dense.model.max_param_diff(&auto.model);
        assert!(diff < 1e-6, "{p}: mixed vs all-dense model diff {diff}");
        for (a, b) in dense.log_likelihood.iter().zip(auto.log_likelihood.iter()) {
            assert!(
                (a - b).abs() / a.abs().max(1.0) < 1e-8,
                "{p}: log-likelihood diverged: {a} vs {b}"
            );
        }
    }
}

#[test]
fn a_repaired_covariance_whitens_with_the_repaired_factor() {
    // Four distinct points, each repeated, and more components than points:
    // components collapse onto single points.  The initial covariances are
    // rank one, so the very first precompute needs the ridge repair.
    let points = [
        [0.0, 0.0, 0.0],
        [4.0, 0.0, 1.0],
        [0.0, 5.0, 2.0],
        [3.0, 3.0, 3.0],
    ];
    let rows: Vec<Vec<f64>> = (0..240).map(|i| points[i % 4].to_vec()).collect();
    let k = 5;
    let rank_one = {
        let mut m = Matrix::zeros(3, 3);
        gemm::ger_with(
            KernelPolicy::Blocked,
            1.0,
            &[1.0, 2.0, -1.0],
            &[1.0, 2.0, -1.0],
            &mut m,
        );
        m
    };
    assert!(fml_linalg::Cholesky::factor(&rank_one).is_err());
    let means = (0..k)
        .map(|c| Vector::from_vec(points[c % 4].iter().map(|v| v + 0.5 * c as f64).collect()))
        .collect();
    let initial = GmmModel::new(vec![1.0 / k as f64; k], means, vec![rank_one; k]);

    // U·Uᵀ is the inverse `Precomputed` reports — same repaired factor.
    let ridge = GmmConfig::default().ridge;
    let pre = Precomputed::from_model(&initial, ridge);
    for c in 0..k {
        let u = pre.whitener(c);
        let uut = gemm::matmul_with(KernelPolicy::Blocked, &u, &u.transpose());
        let scale = pre.inverses[c]
            .as_slice()
            .iter()
            .fold(1.0f64, |m, v| m.max(v.abs()));
        let diff = uut.max_abs_diff(&pre.inverses[c]);
        assert!(
            diff <= 1e-10 * scale,
            "component {c}: {diff} at scale {scale}"
        );
    }

    let naive = fit(&rows, &initial, 6, &policy(KernelPolicy::Naive));
    let blocked = fit(&rows, &initial, 6, &policy(KernelPolicy::Blocked));
    for f in [&naive, &blocked] {
        assert!(f.log_likelihood.iter().all(|ll| ll.is_finite()));
        for w in f.log_likelihood.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                "log-likelihood decreased: {:?}",
                f.log_likelihood
            );
        }
        let sum: f64 = f.model.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
    // Collapsed components have covariances near the ridge, where the
    // density is steep: the two policies agree on the trace, loosely.
    for (a, b) in naive
        .log_likelihood
        .iter()
        .zip(blocked.log_likelihood.iter())
    {
        assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
    }
}
