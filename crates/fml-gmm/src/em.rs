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
//!
//! **Execution shape.**  The source is a sequential callback scan; each pass
//! buffers it into batches of [`PAR_BATCH_TUPLES`] rows, and a batch fans
//! out over per-worker chunks whose partial sums merge in chunk order (one
//! chunk under a sequential policy or a small model).  Within a chunk the
//! dense rows are compacted into a panel and passes 1 and 3 run one level-3
//! kernel call **per component**, not per row:
//!
//! * E-step: centre the panel around `µ_c`, whiten it —
//!   `Y = (X − 1µ_cᵀ)·L_c⁻ᵀ` with [`gemm::matmul_upper_acc_with`] and the
//!   whitener of the same (possibly ridge-repaired) Cholesky factor
//!   [`Precomputed::from_model`] inverts — and the Mahalanobis distance of
//!   row `r` is `‖Y_r‖²`, non-negative by construction.  The responsibilities
//!   are finished in place in the chunk's band of the `n × K` buffer.
//! * Covariances: centre around the new `µ_c`, then one weighted SYRK
//!   ([`gemm::syrk_upper_acc_with`]) with `γ_c` read at stride `K` out of
//!   that buffer.  Only the upper triangle is maintained; it is mirrored once
//!   at the end of the pass.
//!
//! Rows that carry a [`fml_linalg::SparseRep`] (under
//! [`SparseMode::Auto`]) stay on the per-row gather path of [`crate::sparse`]:
//! `Σ⁻¹` pair gathers in the E-step, pair scatters plus once-per-pass mean
//! corrections in the M-step.  The means pass is one AXPY per row and
//! component (it is ~1 % of an iteration).
//!
//! **Bit contract.**  `M-GMM` and `S-GMM` feed this driver the same rows in
//! the same order, so their fits are **bit-identical** on every join shape.
//! A row's E-step bits do not depend on its position in a batch (edge panels
//! are zero-padded, every row runs the same micro-kernel); the scatter sums
//! rows in `KC`-deep blocks per batch, so its bits depend on the batch
//! boundaries — which are a function of the row order alone — and, exactly
//! as before, on the worker count (chunk-order merge).  Under
//! [`fml_linalg::KernelPolicy::Naive`] the two kernels are their strictly
//! sequential per-row reference loops (the whitened form one row at a time;
//! today's GER order on the upper triangle): the oracle the blocked form is
//! tolerance-tested against (`tests/batched_em.rs`: parameters within 1e-9,
//! log-likelihood trace within 1e-10 relative), with the `Σ⁻¹` form of
//! [`Precomputed::responsibilities_dense`] as the independent cross-check.
//! The whitened form is not bit-equal to the `Σ⁻¹` form `F-GMM` and the
//! scorer evaluate; the three strategies agree to rounding, as they always
//! have (objective within 1e-6).

use crate::init::GmmInit;
use crate::model::{GmmModel, Precomputed};
use crate::sparse::SparseFormPre;
use crate::GmmConfig;
use fml_linalg::exec::{ExecPolicy, FitNotifier, IoProbe};
use fml_linalg::policy::{par_chunks_with_threads, par_row_bands_map_with_threads};
use fml_linalg::repcache::RepCache;
use fml_linalg::sparse::SparseMode;
use fml_linalg::{gemm, vector, Matrix, Vector};
use fml_store::StoreResult;
use std::borrow::Cow;
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

/// Centres the rows `picked` (indices into the row-major, `d`-wide `rows`)
/// around `mu` into the leading rows of the panel `out`, in order.
fn center_rows(rows: &[f64], d: usize, picked: &[usize], mu: &[f64], out: &mut [f64]) {
    for (&r, out_row) in picked.iter().zip(out.chunks_exact_mut(d)) {
        vector::sub_into(&rows[r * d..(r + 1) * d], mu, out_row);
    }
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

    // Kernels are sequential; the parallelism lives at the tuple-batch
    // level.  Fanning out only pays when a batch carries enough flops to
    // amortize the pool dispatch, so tiny models — and every sequential
    // policy — run each batch inline as one chunk.
    let kp = ex.kernel_policy;
    let par = ex.kernel_policy.is_parallel() && k * d * d * PAR_BATCH_TUPLES >= PAR_MIN_BATCH_FLOPS;
    let workers = ex.workers(par);
    let auto_sparse = ex.sparse == SparseMode::Auto;
    // Per-tuple representation cache, filled lazily during the first E-step
    // pass — the sources replay tuples in a deterministic order, so later
    // passes and iterations index it by tuple position.  No extra scan is
    // performed (the streaming cost model stays exact) and detection runs at
    // most once per tuple.  Memory is O(total nnz), which does not change
    // this driver's memory class: `gammas` above already retains O(n·k)
    // responsibilities across passes.
    let mut reps = RepCache::new(ex.sparse);
    let mut batch: Vec<f64> = Vec::with_capacity(d * PAR_BATCH_TUPLES);

    for _iter in 0..opts.max_iters {
        let pre = Precomputed::from_model(&model, opts.ridge);
        let whiteners: Vec<Matrix> = (0..k).map(|c| pre.whitener(c)).collect();
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
        // Each batch fans out over deterministic chunks, each writing the
        // responsibilities of its rows straight into its band of `gammas`
        // and returning (Σγ, log-likelihood) plus, on the first pass, the
        // detected representations; the partials merge in chunk order (the
        // RepCache segment protocol).
        let mut nk = vec![0.0; k];
        let mut ll = 0.0;
        let mut row_cursor = 0usize;
        for_each_batch(source, &mut batch, |rows| {
            let n_rows = rows.len() / d;
            let base = row_cursor;
            if gammas.len() < (base + n_rows) * k {
                gammas.resize((base + n_rows) * k, 0.0);
            }
            let reps_ref: &RepCache = &reps;
            let band = &mut gammas[base * k..(base + n_rows) * k];
            let parts = par_row_bands_map_with_threads(workers, band, k, 1, |first, band| {
                let chunk = &rows[first * d..first * d + band.len() / k * d];
                let mut seg = reps_ref.segment(base + first);
                // Sparse rows take the gather form as they are detected;
                // dense rows are collected for the batched form below.
                let mut dense = Vec::with_capacity(band.len() / k);
                for (r, x) in chunk.chunks_exact(d).enumerate() {
                    match seg.rep_or_detect(base + first + r, x) {
                        Some(rep) => {
                            for c in 0..k {
                                let quad = sparse_pre[c].quad_flat(&pre.inverses[c], rep);
                                band[r * k + c] = pre.log_norm[c] - 0.5 * quad;
                            }
                        }
                        None => dense.push(r),
                    }
                }
                // Per component: Y = (X − 1µᵀ)·L⁻ᵀ over the dense rows, then
                // the Mahalanobis distance of row r is ‖Y_r‖².
                let mut centered = vec![0.0; dense.len() * d];
                let mut whitened = vec![0.0; dense.len() * d];
                let mut quads = vec![0.0; dense.len()];
                for c in 0..k {
                    center_rows(chunk, d, &dense, pre.means[c].as_slice(), &mut centered);
                    whitened.fill(0.0);
                    gemm::matmul_upper_acc_with(kp, &centered, &whiteners[c], &mut whitened);
                    gemm::row_sq_norms_with(kp, &whitened, d, &mut quads);
                    for (&r, &quad) in dense.iter().zip(quads.iter()) {
                        band[r * k + c] = pre.log_norm[c] - 0.5 * quad;
                    }
                }
                let mut local_nk = vec![0.0; k];
                let mut local_ll = 0.0;
                for resp in band.chunks_exact_mut(k) {
                    let tuple_ll = pre.finish_responsibilities_in_place(resp);
                    for c in 0..k {
                        local_nk[c] += resp[c];
                    }
                    local_ll += tuple_ll;
                }
                (local_nk, local_ll, seg.into_detected())
            });
            for (local_nk, local_ll, detected) in parts {
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
        // Dense rows: per component, one weighted SYRK over the chunk's
        // centred rows, upper triangle only.  Sparse rows use the mean
        // decomposition: raw γ·x xᵀ pair scatters per tuple, dense
        // corrections `−(Σγx)µᵀ − µ(Σγx)ᵀ + (Σγ)µµᵀ` once per pass per
        // component.
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
                let chunk = &rows[range.start * d..range.end * d];
                let chunk_gammas = &gammas[(base + range.start) * k..(base + range.end) * k];
                let mut dense = Vec::with_capacity(range.len());
                for (r, g) in chunk_gammas.chunks_exact(k).enumerate() {
                    match reps.get(base + range.start + r) {
                        Some(rep) => {
                            for c in 0..k {
                                rep.scatter_pair(g[c], &mut local[c]);
                                rep.axpy_into(g[c], &mut local_gx[c]);
                                local_gamma[c] += g[c];
                            }
                        }
                        None => dense.push(r),
                    }
                }
                let any_sparse = dense.len() < range.len();
                if !dense.is_empty() {
                    // The panel rows' responsibilities, row-major × k: the
                    // chunk's own slice of `gammas` when every row is dense,
                    // compacted alongside the rows otherwise.  Component c's
                    // weights are then column c, read at stride k.
                    let panel_gammas: Cow<[f64]> = if any_sparse {
                        let picked = dense
                            .iter()
                            .flat_map(|&r| &chunk_gammas[r * k..(r + 1) * k]);
                        Cow::Owned(picked.copied().collect())
                    } else {
                        Cow::Borrowed(chunk_gammas)
                    };
                    let mut centered = vec![0.0; dense.len() * d];
                    for c in 0..k {
                        center_rows(chunk, d, &dense, new_means[c].as_slice(), &mut centered);
                        let weights = &panel_gammas[c..];
                        gemm::syrk_upper_acc_with(kp, &centered, weights, k, &mut local[c]);
                    }
                }
                (local, local_gx, local_gamma, any_sparse)
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
        // The SYRKs maintained the upper triangle only.
        for s in &mut scatter {
            s.mirror_upper();
        }
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
