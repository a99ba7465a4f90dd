//! The GMM oracle the integration tests share: Algorithm 1 as the paper
//! states it, one row at a time over the sequential `fml_linalg::reference`
//! kernels, and the rows and starting model of a join to run it on.

use fml_data::Workload;
use fml_gmm::em::{GmmFit, EMPTY_COMPONENT_MASS};
use fml_gmm::{GmmConfig, GmmInit, GmmModel, Precomputed};
use fml_linalg::{gemm, reference, vector, BlockVec, ExecPolicy, Matrix, SparseMode, Vector};
use fml_store::join::RowSource;

/// Algorithm 1 one row at a time and in three passes per iteration —
/// responsibilities on the `Σ⁻¹` quadratic form
/// ([`reference::quadratic_form`]), means `Σγx/N`, then one full GER per row
/// and component around the *new* means — with its own finalization (`/N`,
/// symmetrize, ridge, the empty-component reset).  It shares no kernel
/// reduction and no M-step arithmetic with the crate: this is the
/// independent oracle the fused one-pass drivers are held to.
pub fn per_row_em(rows: &[Vec<f64>], initial: &GmmModel, iters: usize, ridge: f64) -> GmmFit {
    let (k, d, n) = (initial.k(), initial.dim(), rows.len());
    let mut model = initial.clone();
    let mut log_likelihood = Vec::new();
    let mut centered = vec![0.0; d];
    for _ in 0..iters {
        let pre = Precomputed::from_model(&model, ridge);
        let mut gammas = Vec::with_capacity(n * k);
        let mut nk = vec![0.0; k];
        let mut ll = 0.0;
        for x in rows {
            let mut resp: Vec<f64> = (0..k)
                .map(|c| {
                    vector::sub_into(x, pre.means[c].as_slice(), &mut centered);
                    let quad = reference::quadratic_form(&centered, &pre.inverses[c], &centered);
                    pre.log_norm[c] - 0.5 * quad
                })
                .collect();
            ll += pre.finish_responsibilities_in_place(&mut resp);
            vector::axpy(1.0, &resp, &mut nk);
            gammas.extend_from_slice(&resp);
        }
        let mut means = vec![Vector::zeros(d); k];
        for (x, g) in rows.iter().zip(gammas.chunks_exact(k)) {
            for c in 0..k {
                vector::axpy(g[c], x, means[c].as_mut_slice());
            }
        }
        for c in 0..k {
            means[c].scale(1.0 / nk[c].max(EMPTY_COMPONENT_MASS));
        }
        let mut covariances = vec![Matrix::zeros(d, d); k];
        for (x, g) in rows.iter().zip(gammas.chunks_exact(k)) {
            for c in 0..k {
                vector::sub_into(x, means[c].as_slice(), &mut centered);
                gemm::ger(g[c], &centered, &centered, &mut covariances[c]);
            }
        }
        for c in 0..k {
            if nk[c] < EMPTY_COMPONENT_MASS {
                covariances[c] = Matrix::identity(d);
                continue;
            }
            covariances[c].scale(1.0 / nk[c]);
            covariances[c].symmetrize();
            covariances[c].add_diag(ridge);
        }
        let weights = nk.iter().map(|m| m / n as f64).collect();
        model = GmmModel::new(weights, means, covariances);
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

/// The denormalized rows of `w`'s join, in scan order (what `S-GMM` sees),
/// and the `k`-component model [`GmmInit::from_relations`] starts every
/// strategy from under the default seed.
pub fn joined(w: &Workload, k: usize, block_pages: usize) -> (Vec<Vec<f64>>, GmmModel) {
    let mut rows = Vec::new();
    let source = RowSource::join(&w.db, w.spec.clone(), block_pages).unwrap();
    let expanded = source.sparse_mode(SparseMode::Dense);
    expanded
        .for_each_row(&mut |x, _| {
            let BlockVec::Dense(x) = x else {
                panic!("an expanded row is dense");
            };
            rows.push(x.to_vec());
        })
        .unwrap();
    let seed = ExecPolicy::new().resolve().seed;
    let initial = GmmInit::new(seed, GmmConfig::default().init_spread)
        .from_relations(&w.db, &w.spec, k)
        .unwrap();
    (rows, initial)
}
