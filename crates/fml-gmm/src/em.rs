//! The shared EM driver for "dense" tuple sources (Algorithm 1 of the paper).
//!
//! `M-GMM` and `S-GMM` differ only in *where* the denormalized feature vectors come
//! from (a materialized table vs an on-the-fly join); the EM computation itself is
//! identical.  [`train_dense`] implements that computation once, against the
//! [`DensePassSource`] abstraction: a data source that can replay the same sequence
//! of joined feature vectors once per pass.
//!
//! Following Algorithm 1, every EM iteration makes **three passes** over the data:
//!
//! 1. **E-step** — compute and store the responsibilities `γ_k^{(n)}` (and the
//!    iteration's log-likelihood);
//! 2. **M-step (means)** — accumulate `Σ_n γ_k^{(n)} x^{(n)}` and update `µ_k`;
//! 3. **M-step (covariances)** — accumulate
//!    `Σ_n γ_k^{(n)} (x^{(n)}−µ_k)(x^{(n)}−µ_k)ᵀ` around the *new* means and
//!    update `Σ_k`, then update `π_k = N_k / N`.

use crate::init::GmmInit;
use crate::model::{GmmModel, Precomputed};
use crate::sparse::SparseFormPre;
use crate::GmmConfig;
use fml_linalg::exec::{ExecPolicy, FitNotifier, IoProbe};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_linalg::sparse::SparseMode;
use fml_linalg::{gemm, vector, Matrix, Vector};
use fml_store::StoreResult;
use std::time::{Duration, Instant};

/// Number of joined tuples buffered per parallel batch.  Each batch is split
/// into per-thread chunks whose partial sufficient statistics merge in chunk
/// order, so the reduction tree is fixed for a given `(batch, thread count)`.
pub const PAR_BATCH_TUPLES: usize = 1024;

/// Minimum `k·d²·batch` work (≈ flops per E-step batch) below which the
/// parallel policy stays inline: the scoped-thread fan-out costs tens of
/// microseconds per batch, which tiny models cannot amortize.
pub const PAR_MIN_BATCH_FLOPS: usize = 1 << 22;

/// A source of denormalized (joined) feature vectors that can be scanned once per
/// EM pass.  Implementations: the materialized table `T` (`M-GMM`) and the
/// on-the-fly join (`S-GMM`).
pub trait DensePassSource {
    /// Invokes `f` once per joined feature vector, in a deterministic order.
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64])) -> StoreResult<()>;
    /// Number of tuples produced per pass (`N`).
    fn num_tuples(&self) -> u64;
    /// Dimensionality `d` of the joined feature vectors.
    fn dim(&self) -> usize;
}

/// Replays `source` once, handing `flush` the rows in batches of
/// [`PAR_BATCH_TUPLES`] (row-major in `batch`, which is reused across passes)
/// — so the per-batch work can fan out over threads even though the source
/// itself is a strictly sequential callback scan.
fn for_each_batch(
    source: &mut dyn DensePassSource,
    batch: &mut Vec<f64>,
    mut flush: impl FnMut(&[f64]),
) -> StoreResult<()> {
    let full = source.dim() * PAR_BATCH_TUPLES;
    batch.clear();
    source.for_each(&mut |x: &[f64]| {
        batch.extend_from_slice(x);
        if batch.len() >= full {
            flush(batch);
            batch.clear();
        }
    })?;
    if !batch.is_empty() {
        flush(batch);
    }
    Ok(())
}

/// Options controlling the EM loop (a view over [`GmmConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmOptions {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Early-stopping tolerance on the log-likelihood change (0 = disabled).
    pub tol: f64,
    /// Covariance regularization ridge.
    pub ridge: f64,
}

impl From<&GmmConfig> for EmOptions {
    fn from(c: &GmmConfig) -> Self {
        Self {
            max_iters: c.max_iters,
            tol: c.tol,
            ridge: c.ridge,
        }
    }
}

/// The result of fitting a GMM.
#[derive(Debug, Clone)]
pub struct GmmFit {
    /// The trained model.
    pub model: GmmModel,
    /// Number of EM iterations actually performed.
    pub iterations: usize,
    /// Total data log-likelihood after each iteration.
    pub log_likelihood: Vec<f64>,
    /// Number of training tuples `N`.
    pub n_tuples: u64,
    /// Wall-clock training time (excludes data generation, includes any join or
    /// materialization work the algorithm variant performs).
    pub elapsed: Duration,
}

impl GmmFit {
    /// Final log-likelihood (NaN if no iterations ran).
    pub fn final_log_likelihood(&self) -> f64 {
        self.log_likelihood.last().copied().unwrap_or(f64::NAN)
    }
}

/// Checks the early-stopping criterion used by every variant.
pub fn converged(prev_ll: Option<f64>, ll: f64, tol: f64) -> bool {
    match (prev_ll, tol) {
        (_, t) if t <= 0.0 => false,
        (None, _) => false,
        (Some(prev), t) => (ll - prev).abs() < t,
    }
}

/// Responsibility mass below which a component is considered "empty"; its
/// covariance is reset to the identity so every variant treats the degenerate
/// case identically instead of dividing near-zero scatter by near-zero mass.
pub const EMPTY_COMPONENT_MASS: f64 = 1e-6;

/// Finalizes the M-step: turns accumulated sufficient statistics into model
/// parameters.  Shared by the dense and factorized paths so the final arithmetic
/// (division order, symmetrization) is literally the same code.
pub fn finalize_m_step(
    nk: &[f64],
    mean_sums: Vec<Vector>,
    mut scatter: Vec<Matrix>,
    n_total: u64,
    ridge: f64,
) -> GmmModel {
    let k = nk.len();
    let d = mean_sums[0].len();
    let mut weights = Vec::with_capacity(k);
    let mut means = Vec::with_capacity(k);
    for c in 0..k {
        if nk[c] < EMPTY_COMPONENT_MASS {
            // Empty component: deterministic reset (mean from whatever tiny mass
            // it has, identity covariance, ~zero weight).
            let mut m = mean_sums[c].clone();
            m.scale(1.0 / nk[c].max(EMPTY_COMPONENT_MASS));
            means.push(m);
            scatter[c] = Matrix::identity(d);
            weights.push(nk[c] / n_total as f64);
            continue;
        }
        let mut m = mean_sums[c].clone();
        m.scale(1.0 / nk[c]);
        means.push(m);
        scatter[c].scale(1.0 / nk[c]);
        scatter[c].symmetrize();
        // Deterministic regularization applied by every variant: keeps the
        // covariance comfortably SPD so the next E-step never needs the
        // escalating (and rounding-sensitive) repair path.
        scatter[c].add_diag(ridge);
        weights.push(nk[c] / n_total as f64);
    }
    GmmModel::new(weights, means, scatter)
}

/// Computes the new means from the mean sums (needed before the covariance pass).
pub fn means_from_sums(nk: &[f64], mean_sums: &[Vector]) -> Vec<Vector> {
    nk.iter()
        .zip(mean_sums.iter())
        .map(|(n, s)| {
            let mut m = s.clone();
            m.scale(1.0 / if *n > 0.0 { *n } else { 1.0 });
            m
        })
        .collect()
}

/// Trains a GMM with the three-pass EM of Algorithm 1 over a dense tuple source,
/// initializing with the data-independent [`GmmInit::initial_model`].
pub fn train_dense(
    source: &mut dyn DensePassSource,
    config: &GmmConfig,
    exec: &ExecPolicy,
) -> StoreResult<GmmFit> {
    let initial =
        GmmInit::new(exec.resolve().seed, config.init_spread).initial_model(config.k, source.dim());
    train_dense_from(source, config, exec, initial, None)
}

/// Trains a GMM with the three-pass EM of Algorithm 1 over a dense tuple source,
/// starting from an explicit initial model (shared by every variant so the
/// model-equivalence guarantee holds).  `io` is the optional cumulative I/O
/// probe behind the per-iteration [`fml_linalg::FitObserver`] events.
pub fn train_dense_from(
    source: &mut dyn DensePassSource,
    config: &GmmConfig,
    exec: &ExecPolicy,
    initial: GmmModel,
    io: IoProbe<'_>,
) -> StoreResult<GmmFit> {
    let start = Instant::now();
    let opts = EmOptions::from(config);
    let ex = exec.resolve();
    // Kernels invoked under a parallel policy on this thread fan out to
    // exactly the resolved thread count while training runs.
    let _kernel_threads = ex.kernel_thread_scope();
    // The resolved observability mode governs instrumentation on every
    // thread this run touches (pool workers, storage scans).
    let _obs = ex.obs_scope();
    let mut notifier = FitNotifier::new(exec, io);
    let d = source.dim();
    let n = source.num_tuples();
    let k = config.k;
    assert_eq!(initial.dim(), d, "initial model dimension mismatch");
    assert_eq!(initial.k(), k, "initial model component count mismatch");
    let mut model = initial;

    let mut log_likelihood = Vec::with_capacity(opts.max_iters);
    let mut iterations = 0;
    let mut gammas: Vec<f64> = Vec::with_capacity((n as usize) * k);

    // Per-tuple kernels run single-threaded inside the per-chunk workers; the
    // parallelism lives at the tuple-batch level.  Fanning out only pays when a
    // batch carries enough flops to amortize the pool dispatch, so tiny models
    // — and every sequential policy — run each batch inline as one chunk.
    let kp = ex.kernel_policy.sequential();
    let par = ex.kernel_policy.is_parallel() && k * d * d * PAR_BATCH_TUPLES >= PAR_MIN_BATCH_FLOPS;
    let workers = ex.workers(par);
    let auto_sparse = ex.sparse == SparseMode::Auto;
    // Per-tuple representation cache, filled lazily during the first E-step
    // pass — the sources replay tuples in a deterministic order, so later
    // passes and iterations index it by tuple position.  No extra scan is
    // performed (the streaming cost model stays exact) and detection runs at
    // most once per tuple.  Memory is O(total nnz), which does not change
    // this driver's memory class: `gammas` below already retains O(n·k)
    // responsibilities across passes.
    let mut reps = RepCache::new(ex.sparse);
    let mut batch: Vec<f64> = Vec::with_capacity(d * PAR_BATCH_TUPLES);

    for _iter in 0..opts.max_iters {
        let pre = Precomputed::from_model(&model, opts.ridge);
        // Sparse-path constants, O(k·d²) once per iteration — the per-tuple
        // E-step on sparse rows is then pure gathers.
        let sparse_pre: Vec<SparseFormPre> = if auto_sparse {
            (0..k)
                .map(|c| SparseFormPre::build_flat(&pre.inverses[c], pre.means[c].as_slice(), kp))
                .collect()
        } else {
            Vec::new()
        };

        // ---- Pass 1: E-step — responsibilities + log-likelihood ----
        // Each batch fans out over deterministic chunks that compute
        // (responsibilities, Σγ, log-likelihood) locally, and the partials
        // merge in chunk order (including, on the first pass, the detected
        // representations — the RepCache segment protocol).
        gammas.clear();
        let mut nk = vec![0.0; k];
        let mut ll = 0.0;
        let mut row_cursor = 0usize;
        for_each_batch(source, &mut batch, |rows| {
            let n_rows = rows.len() / d;
            let base = row_cursor;
            let reps_ref: &RepCache = &reps;
            let parts = par_chunks_with_threads(workers, n_rows, 1, |range| {
                let mut local_gammas = Vec::with_capacity(range.len() * k);
                let mut seg = reps_ref.segment(base + range.start);
                let mut local_nk = vec![0.0; k];
                let mut local_ll = 0.0;
                let mut log_dens = vec![0.0; k];
                let mut centered = vec![0.0; d];
                for r in range {
                    let x = &rows[r * d..(r + 1) * d];
                    let rep = seg.rep_or_detect(base + r, x);
                    for (c, ld) in log_dens.iter_mut().enumerate() {
                        let quad = match rep {
                            Some(rep) => sparse_pre[c].quad_flat(&pre.inverses[c], rep),
                            None => {
                                vector::sub_into(x, pre.means[c].as_slice(), &mut centered);
                                gemm::quadratic_form_sym_with(kp, &centered, &pre.inverses[c])
                            }
                        };
                        *ld = pre.log_norm[c] - 0.5 * quad;
                    }
                    let (resp, tuple_ll) = pre.finish_responsibilities(&mut log_dens);
                    for c in 0..k {
                        local_nk[c] += resp[c];
                    }
                    local_ll += tuple_ll;
                    local_gammas.extend_from_slice(&resp);
                }
                (local_gammas, local_nk, local_ll, seg.into_detected())
            });
            for (local_gammas, local_nk, local_ll, detected) in parts {
                gammas.extend_from_slice(&local_gammas);
                vector::axpy(1.0, &local_nk, &mut nk);
                ll += local_ll;
                reps.merge(detected);
            }
            row_cursor += n_rows;
        })?;
        reps.finish_fill();

        // ---- Pass 2: M-step — means ----
        let mut mean_sums = vec![Vector::zeros(d); k];
        let mut row_cursor = 0usize;
        for_each_batch(source, &mut batch, |rows| {
            let n_rows = rows.len() / d;
            let base = row_cursor;
            let parts = par_chunks_with_threads(workers, n_rows, 1, |range| {
                let mut local = vec![Vector::zeros(d); k];
                for r in range {
                    let x = &rows[r * d..(r + 1) * d];
                    let g = &gammas[(base + r) * k..(base + r + 1) * k];
                    let rep = reps.get(base + r);
                    for c in 0..k {
                        match rep {
                            Some(rep) => rep.axpy_into(g[c], local[c].as_mut_slice()),
                            None => vector::axpy(g[c], x, local[c].as_mut_slice()),
                        }
                    }
                }
                local
            });
            for local in parts {
                for c in 0..k {
                    mean_sums[c].axpy(1.0, &local[c]);
                }
            }
            row_cursor += n_rows;
        })?;
        let new_means = means_from_sums(&nk, &mean_sums);

        // ---- Pass 3: M-step — covariances around the new means ----
        // Sparse rows use the mean decomposition: raw γ·x xᵀ pair scatters per
        // tuple, dense corrections `−(Σγx)µᵀ − µ(Σγx)ᵀ + (Σγ)µµᵀ` once per
        // pass per component.
        let mut scatter = vec![Matrix::zeros(d, d); k];
        let mut sparse_gx = vec![vec![0.0; d]; k];
        let mut sparse_gamma = vec![0.0; k];
        let mut any_sparse = false;
        let mut row_cursor = 0usize;
        for_each_batch(source, &mut batch, |rows| {
            let n_rows = rows.len() / d;
            let base = row_cursor;
            let parts = par_chunks_with_threads(workers, n_rows, 1, |range| {
                let mut local = vec![Matrix::zeros(d, d); k];
                let mut local_gx = vec![vec![0.0; d]; k];
                let mut local_gamma = vec![0.0; k];
                let mut local_any = false;
                let mut centered = vec![0.0; d];
                for r in range {
                    let x = &rows[r * d..(r + 1) * d];
                    let g = &gammas[(base + r) * k..(base + r + 1) * k];
                    match reps.get(base + r) {
                        Some(rep) => {
                            local_any = true;
                            for c in 0..k {
                                rep.scatter_pair(g[c], &mut local[c]);
                                rep.axpy_into(g[c], &mut local_gx[c]);
                                local_gamma[c] += g[c];
                            }
                        }
                        None => {
                            for c in 0..k {
                                vector::sub_into(x, new_means[c].as_slice(), &mut centered);
                                gemm::ger_with(kp, g[c], &centered, &centered, &mut local[c]);
                            }
                        }
                    }
                }
                (local, local_gx, local_gamma, local_any)
            });
            for (local, local_gx, local_gamma, local_any) in parts {
                for c in 0..k {
                    scatter[c].add_assign(&local[c]);
                    vector::axpy(1.0, &local_gx[c], &mut sparse_gx[c]);
                    sparse_gamma[c] += local_gamma[c];
                }
                any_sparse |= local_any;
            }
            row_cursor += n_rows;
        })?;
        if any_sparse {
            for c in 0..k {
                let mu = new_means[c].as_slice();
                gemm::ger_with(kp, -1.0, &sparse_gx[c], mu, &mut scatter[c]);
                gemm::ger_with(kp, -1.0, mu, &sparse_gx[c], &mut scatter[c]);
                gemm::ger_with(kp, sparse_gamma[c], mu, mu, &mut scatter[c]);
            }
        }

        model = finalize_m_step(&nk, mean_sums, scatter, n, opts.ridge);
        iterations += 1;
        notifier.notify(ll);

        let prev = log_likelihood.last().copied();
        log_likelihood.push(ll);
        if converged(prev, ll, opts.tol) {
            break;
        }
    }

    Ok(GmmFit {
        model,
        iterations,
        log_likelihood,
        n_tuples: n,
        elapsed: start.elapsed(),
    })
}

/// An in-memory dense source, useful for tests and for training over data that is
/// already denormalized outside the storage engine.
pub struct VecSource {
    rows: Vec<Vec<f64>>,
    dim: usize,
}

impl VecSource {
    /// Creates a source over in-memory rows.
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "VecSource: ragged rows"
        );
        Self { rows, dim }
    }
}

impl DensePassSource for VecSource {
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64])) -> StoreResult<()> {
        for r in &self.rows {
            f(r);
        }
        Ok(())
    }

    fn num_tuples(&self) -> u64 {
        self.rows.len() as u64
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_rows(n_per: usize) -> Vec<Vec<f64>> {
        // Deterministic, well separated pseudo-clusters around (0,0) and (10,10),
        // with a cheap hash-based jitter so the within-cluster covariance has
        // full rank.
        let jitter = |i: usize, salt: u64| {
            let h = (i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000;
            (h as f64) / 1000.0 - 0.5
        };
        let mut rows = Vec::new();
        for i in 0..n_per {
            let t = (i as f64) / (n_per as f64);
            rows.push(vec![
                0.3 * (t - 0.5) + jitter(i, 1),
                0.2 * (0.5 - t) + jitter(i, 7),
            ]);
            rows.push(vec![
                10.0 + 0.3 * (t - 0.5) + jitter(i, 13),
                10.0 + 0.2 * (t - 0.5) + jitter(i, 29),
            ]);
        }
        rows
    }

    #[test]
    fn em_separates_two_blobs() {
        let rows = two_blob_rows(200);
        let mut source = VecSource::new(rows);
        let config = GmmConfig {
            k: 2,
            max_iters: 15,
            ..GmmConfig::default()
        };
        let fit = train_dense(&mut source, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(fit.iterations, 15);
        assert_eq!(fit.n_tuples, 400);
        // one mean near (0,0), one near (10,10)
        let mut m: Vec<f64> = fit.model.means.iter().map(|m| m[0] + m[1]).collect();
        m.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(m[0].abs() < 1.0, "low mean {:?}", fit.model.means);
        assert!((m[1] - 20.0).abs() < 1.0, "high mean {:?}", fit.model.means);
        // weights roughly 0.5 / 0.5
        assert!((fit.model.weights[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn log_likelihood_is_monotone_nondecreasing() {
        let rows = two_blob_rows(100);
        let mut source = VecSource::new(rows);
        let config = GmmConfig {
            k: 2,
            max_iters: 12,
            ..GmmConfig::default()
        };
        let fit = train_dense(&mut source, &config, &ExecPolicy::new()).unwrap();
        for w in fit.log_likelihood.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "log-likelihood decreased: {:?}",
                fit.log_likelihood
            );
        }
        assert!(fit.final_log_likelihood().is_finite());
    }

    #[test]
    fn early_stopping_respects_tolerance() {
        let rows = two_blob_rows(100);
        let mut source = VecSource::new(rows);
        let config = GmmConfig {
            k: 2,
            max_iters: 50,
            tol: 1e-3,
            ..GmmConfig::default()
        };
        let fit = train_dense(&mut source, &config, &ExecPolicy::new()).unwrap();
        assert!(
            fit.iterations < 50,
            "should converge early, ran {}",
            fit.iterations
        );
    }

    #[test]
    fn converged_helper() {
        assert!(!converged(None, 1.0, 1e-3));
        assert!(!converged(Some(0.0), 1.0, 0.0));
        assert!(converged(Some(1.0), 1.0000001, 1e-3));
        assert!(!converged(Some(0.0), 1.0, 1e-3));
    }

    #[test]
    fn weights_sum_to_one_and_covariances_are_spd() {
        let rows = two_blob_rows(150);
        let mut source = VecSource::new(rows);
        let config = GmmConfig {
            k: 3,
            max_iters: 8,
            ..GmmConfig::default()
        };
        let fit = train_dense(&mut source, &config, &ExecPolicy::new()).unwrap();
        let sum: f64 = fit.model.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for cov in &fit.model.covariances {
            // after the ridge-protected precompute the covariances may need
            // regularization, but they must at least be symmetric and finite
            assert!(fml_linalg::sym::is_symmetric(cov, 1e-9));
            assert!(cov.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn vec_source_rejects_ragged_rows() {
        VecSource::new(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn parallel_policy_with_engaged_fanout_matches_blocked() {
        // d and k chosen so k·d²·batch clears PAR_MIN_BATCH_FLOPS and the
        // buffered parallel branch actually runs (small models stay inline).
        let d = 32;
        let k = 4;
        assert!(k * d * d * PAR_BATCH_TUPLES >= PAR_MIN_BATCH_FLOPS);
        let mut rng = fml_linalg::testutil::TestRng::new(5);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let shift = if i % 2 == 0 { 0.0 } else { 25.0 };
                (0..d).map(|_| rng.f64_in(0.0, 10.0) + shift).collect()
            })
            .collect();
        let base = GmmConfig {
            k,
            max_iters: 2,
            ..GmmConfig::default()
        };
        let blocked = train_dense(
            &mut VecSource::new(rows.clone()),
            &base,
            &ExecPolicy::new().kernel_policy(fml_linalg::KernelPolicy::Blocked),
        )
        .unwrap();
        let parallel = train_dense(
            &mut VecSource::new(rows),
            &base,
            &ExecPolicy::new().kernel_policy(fml_linalg::KernelPolicy::BlockedParallel),
        )
        .unwrap();
        let diff = blocked.model.max_param_diff(&parallel.model);
        assert!(diff < 1e-7, "parallel EM diverged from blocked: {diff}");
    }
}
