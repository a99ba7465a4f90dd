//! The shared EM driver for "dense" tuple sources (Algorithm 1 of the paper,
//! in one pass per iteration).
//!
//! `M-GMM` and `S-GMM` differ only in *where* the denormalized feature vectors come
//! from (a materialized table vs an on-the-fly join); the EM computation itself is
//! identical.  [`train_dense_from`] implements that computation once, against the
//! [`DensePassSource`] abstraction: a data source that can replay the same sequence
//! of joined feature vectors once per pass.
//!
//! **One pass per iteration.**  Algorithm 1 scans the data three times per
//! iteration — responsibilities, means, covariances — only because it centres
//! the covariances on the *new* means.  This driver scans once: as soon as a
//! batch's responsibilities `γ` are finished it accumulates the sufficient
//! statistics centred on the **current** means `µ_k`, which the E-step has
//! already subtracted,
//!
//! * `N_k = Σ γ`, `s_k = Σ γ·(x − µ_k)`, `S_k = Σ γ·(x − µ_k)(x − µ_k)ᵀ`,
//!
//! and [`finalize_m_step`] closes the iteration with
//!
//! * `µ'_k = µ_k + s_k/N_k`, `Σ'_k = S_k/N_k − (s_k/N_k)(s_k/N_k)ᵀ`, `π'_k = N_k/N`.
//!
//! That is the M-step of Algorithm 1 exactly (same fixed point, same iterates
//! up to rounding).  It is the shifted-data form, not the raw-moment form:
//! the subtracted term is the squared *step* of the mean, so the rounding
//! error it leaves in `Σ'_k` is `≈ ε·‖µ'_k − µ_k‖²` and vanishes as EM
//! converges (`tests/batched_em.rs` pins the bound against a per-row
//! three-pass Algorithm 1 on a fixture whose first step is `≥ 50σ`).
//!
//! **Execution shape.**  The source is a sequential callback scan; the pass
//! buffers its dense rows into batches of [`PAR_BATCH_TUPLES`] rows, and a
//! batch fans out over per-worker row bands whose partial statistics merge in
//! band order (one band under the default `Blocked` policy or a small model).  A
//! band's rows form a panel and run one level-3 kernel call **per
//! component**, not per row.  The bands' statistics and panels are scratch
//! allocated once per fit, so a batch allocates nothing:
//!
//! * E-step: centre the panel around `µ_c`, whiten it —
//!   `Y = (X − 1µ_cᵀ)·L_c⁻ᵀ` with [`gemm::matmul_upper_acc`] and the
//!   whitener of the same (possibly ridge-repaired) Cholesky factor
//!   [`Precomputed::from_model`] inverts — and the Mahalanobis distance of
//!   row `r` is `‖Y_r‖²`, non-negative by construction.  The responsibilities
//!   are finished in place in the band's rows of a `rows × K` buffer.
//! * Statistics: centre the panel around `µ_c` again (an `O(n·d)` copy next
//!   to the `O(n·d²)` product; `K` centred panels are never held at once),
//!   then one weighted SYRK ([`gemm::syrk_upper_acc`]) with `γ_c` read
//!   at stride `K` out of the band, and `s_c += Xᵀγ_c`.  Only the upper
//!   triangle of `S_c` is maintained; it is mirrored once at the end of the
//!   pass.
//!
//! Rows the source hands out one-hot or CSR (their relations' stored form,
//! under [`SparseMode::Auto`]) take the per-row gather path of
//! [`crate::sparse`] on the driving thread as they arrive: `Σ⁻¹` pair
//! gathers in the E-step, then raw `γ·x xᵀ` pair scatters and `γ·x` sums,
//! corrected around `µ_c` once per pass — after which they are in the same
//! shifted form as the dense rows.
//!
//! **Bit contract.**  `M-GMM` and `S-GMM` feed this driver the same rows in
//! the same order, so their fits are **bit-identical** on every join shape.
//! A row's E-step bits do not depend on its position in a batch (edge panels
//! are zero-padded, every row runs the same micro-kernel); the scatter sums
//! rows in `KC`-deep blocks per batch, so its bits depend on the batch
//! boundaries — which are a function of the row order alone — and on the
//! worker count (band-order merge).  The oracle the driver is
//! tolerance-tested against (`tests/batched_em.rs`: parameters within 1e-9,
//! log-likelihood trace within 1e-10 relative) is a hand-rolled per-row
//! three-pass Algorithm 1 on the `Σ⁻¹` quadratic form over the sequential
//! [`fml_linalg::reference`] loops, independent of the whitened form and of
//! the one-pass mean-shifted M-step.
//! The whitened form is not bit-equal to the `Σ⁻¹` form `F-GMM` and the
//! scorer evaluate; the three strategies agree to rounding, as they always
//! have (objective within 1e-6).

use crate::model::{GmmModel, Precomputed};
use crate::sparse::SparseFormPre;
use crate::GmmConfig;
use fml_linalg::exec::{ExecPolicy, FitNotifier, IoProbe};
use fml_linalg::policy::par_row_bands_with_threads;
use fml_linalg::{gemm, vector, BlockVec, Matrix, SparseMode, Vector};
use fml_store::join::RowSource;
use fml_store::{StoreError, StoreResult};
use std::time::{Duration, Instant};

/// Number of joined tuples buffered per parallel batch.  Each batch is split
/// into per-thread row bands whose partial sufficient statistics merge in band
/// order, so the reduction tree is fixed for a given `(batch, thread count)`.
pub const PAR_BATCH_TUPLES: usize = 1024;

/// Minimum `k·d²·batch` work (≈ flops per E-step batch) below which the
/// parallel policy stays inline: the scoped-thread fan-out costs tens of
/// microseconds per batch, which tiny models cannot amortize.
pub const PAR_MIN_BATCH_FLOPS: usize = 1 << 22;

/// A source of denormalized (joined) feature vectors that can be scanned once per
/// EM iteration.  Implementations: the materialized table `T` (`M-GMM`) and the
/// on-the-fly join (`S-GMM`).
pub trait DensePassSource {
    /// Invokes `f` once per joined feature vector, in its stored form, in a
    /// deterministic order.
    fn for_each(&mut self, f: &mut dyn FnMut(BlockVec<'_>)) -> StoreResult<()>;
    /// Number of tuples produced per pass (`N`).
    fn num_tuples(&self) -> u64;
    /// Dimensionality `d` of the joined feature vectors.
    fn dim(&self) -> usize;
}

/// Centres the `d`-wide rows of the row-major panel `rows` around `mu` into
/// `out`, in order.
fn center_rows(rows: &[f64], d: usize, mu: &[f64], out: &mut [f64]) {
    for (x, out_row) in rows.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        vector::sub_into(x, mu, out_row);
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

/// Finalizes the M-step: turns the sufficient statistics accumulated around
/// the iteration's starting `means` — `nk[c] = Σγ`, `shift_sums[c] =
/// Σγ·(x − µ_c)`, `scatter[c] = Σγ·(x − µ_c)(x − µ_c)ᵀ` — into model
/// parameters: `µ'_c = µ_c + s_c/N_c`, `Σ'_c = S_c/N_c − (s_c/N_c)(s_c/N_c)ᵀ`
/// (symmetrized, plus `ridge`), `π'_c = N_c/N`.  Shared by the dense and
/// factorized paths so the final arithmetic (division order, symmetrization)
/// is literally the same code.
pub fn finalize_m_step(
    means: &[Vector],
    nk: &[f64],
    shift_sums: Vec<Vector>,
    mut scatter: Vec<Matrix>,
    n_total: u64,
    ridge: f64,
) -> GmmModel {
    let k = nk.len();
    let d = means[0].len();
    let mut weights = Vec::with_capacity(k);
    let mut new_means = Vec::with_capacity(k);
    for (c, mut step) in shift_sums.into_iter().enumerate() {
        weights.push(nk[c] / n_total as f64);
        if nk[c] < EMPTY_COMPONENT_MASS {
            // Empty component: deterministic reset (mean from whatever tiny
            // mass it has — `Σγx = N_c·µ_c + s_c` over the floor mass —
            // identity covariance, ~zero weight).
            step.axpy(nk[c], &means[c]);
            step.scale(1.0 / EMPTY_COMPONENT_MASS);
            new_means.push(step);
            scatter[c] = Matrix::identity(d);
            continue;
        }
        step.scale(1.0 / nk[c]);
        scatter[c].scale(1.0 / nk[c]);
        for (i, &si) in step.iter().enumerate() {
            vector::axpy(-si, step.as_slice(), scatter[c].row_mut(i));
        }
        scatter[c].symmetrize();
        // Deterministic regularization applied by every variant: keeps the
        // covariance comfortably SPD so the next E-step never needs the
        // escalating (and rounding-sensitive) repair path.
        scatter[c].add_diag(ridge);
        step.axpy(1.0, &means[c]);
        new_means.push(step);
    }
    GmmModel::new(weights, new_means, scatter)
}

/// One band's (or one pass's) sufficient statistics, centred on the
/// iteration's starting means; bands merge in band order.
struct ShiftedStats {
    /// `Σγ` per component.
    nk: Vec<f64>,
    /// Log-likelihood of the rows seen.
    ll: f64,
    /// `Σγ·(x − µ_c)` over the dense rows.
    shift: Vec<Vector>,
    /// Upper triangle of `Σγ·(x − µ_c)(x − µ_c)ᵀ` over the dense rows, plus
    /// the raw `Σγ·x xᵀ` of the sparse rows.
    scatter: Vec<Matrix>,
}

impl ShiftedStats {
    fn zeros(k: usize, d: usize) -> Self {
        Self {
            nk: vec![0.0; k],
            ll: 0.0,
            shift: vec![Vector::zeros(d); k],
            scatter: vec![Matrix::zeros(d, d); k],
        }
    }

    fn fill_zero(&mut self) {
        self.nk.fill(0.0);
        self.ll = 0.0;
        self.shift.iter_mut().for_each(Vector::fill_zero);
        self.scatter.iter_mut().for_each(Matrix::fill_zero);
    }

    fn merge(&mut self, other: &ShiftedStats) {
        vector::axpy(1.0, &other.nk, &mut self.nk);
        self.ll += other.ll;
        for c in 0..self.nk.len() {
            self.shift[c].axpy(1.0, &other.shift[c]);
            self.scatter[c].add_assign(&other.scatter[c]);
        }
    }
}

/// One row band's share of a dense batch: its partial statistics and its
/// centred and whitened panels, allocated once per fit and reused by every
/// batch.
struct BandScratch {
    stats: ShiftedStats,
    centered: Vec<f64>,
    whitened: Vec<f64>,
    quads: Vec<f64>,
}

/// Trains a GMM with one-pass EM over a dense tuple source — the rows of
/// the join over fact relation `relation` — starting from an explicit
/// initial model (shared by every variant so the model-equivalence
/// guarantee holds).  `io` is the optional cumulative I/O probe behind the
/// per-iteration [`fml_linalg::FitObserver`] events.
///
/// # Errors
/// [`StoreError::NonFiniteFeature`] naming `relation` when an iteration's
/// log-likelihood is not finite, before its M-step turns it into a
/// covariance no Cholesky factor accepts.
pub fn train_dense_from(
    source: &mut dyn DensePassSource,
    relation: &str,
    config: &GmmConfig,
    exec: &ExecPolicy,
    initial: GmmModel,
    io: IoProbe<'_>,
) -> StoreResult<GmmFit> {
    let start = Instant::now();
    let opts = EmOptions::from(config);
    let ex = exec.resolve();
    // The resolved observability mode governs instrumentation on every
    // thread this run touches (fan-out threads, storage scans).
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

    // Kernels are sequential; the parallelism lives at the tuple-batch
    // level.  Fanning out only pays when a batch carries enough flops to
    // amortize the thread spawns, so tiny models — and the default
    // `Blocked` policy — run each batch inline as one band.
    let par = ex.kernel_policy.is_parallel() && k * d * d * PAR_BATCH_TUPLES >= PAR_MIN_BATCH_FLOPS;
    let workers = ex.workers(par);
    let auto_sparse = ex.sparse == SparseMode::Auto;
    let full = d * PAR_BATCH_TUPLES;
    let mut batch: Vec<f64> = Vec::with_capacity(full);
    let mut resp = vec![0.0; k];
    // A batch's responsibilities, one `k`-wide row per row of the batch,
    // and each band's scratch.
    let mut gammas = vec![0.0; k * PAR_BATCH_TUPLES];
    let mut bands: Vec<BandScratch> = (0..workers)
        .map(|_| BandScratch {
            stats: ShiftedStats::zeros(k, d),
            centered: Vec::new(),
            whitened: Vec::new(),
            quads: Vec::new(),
        })
        .collect();

    for _iter in 0..opts.max_iters {
        let pre = Precomputed::from_model(&model, opts.ridge);
        let whiteners: Vec<Matrix> = (0..k).map(|c| pre.whitener(c)).collect();
        // Sparse-path constants, O(k·d²) once per iteration — the per-tuple
        // E-step on sparse rows is then pure gathers.
        let sparse_pre: Vec<SparseFormPre> = if auto_sparse {
            (0..k)
                .map(|c| SparseFormPre::build_flat(&pre.inverses[c], pre.means[c].as_slice()))
                .collect()
        } else {
            Vec::new()
        };

        // A batch of dense rows fans out over deterministic row bands; a
        // band finishes the responsibilities of its rows and accumulates
        // their statistics around `pre.means`; the partials merge in band
        // order.
        let mut dense_batch = |rows: &[f64], stats: &mut ShiftedStats| {
            let gammas = &mut gammas[..rows.len() / d * k];
            let used =
                par_row_bands_with_threads(workers, gammas, k, 1, &mut bands, |first, band, s| {
                    let n = band.len() / k;
                    let panel = &rows[first * d..(first + n) * d];
                    let local = &mut s.stats;
                    local.fill_zero();
                    s.centered.resize(n * d, 0.0);
                    s.whitened.resize(n * d, 0.0);
                    s.quads.resize(n, 0.0);
                    let (centered, whitened, quads) =
                        (&mut s.centered, &mut s.whitened, &mut s.quads);
                    // Per component: Y = (X − 1µᵀ)·L⁻ᵀ, then the Mahalanobis
                    // distance of row r is ‖Y_r‖².
                    for c in 0..k {
                        center_rows(panel, d, pre.means[c].as_slice(), centered);
                        whitened.fill(0.0);
                        gemm::matmul_upper_acc(centered, &whiteners[c], whitened);
                        gemm::row_sq_norms(whitened, d, quads);
                        for (resp, &quad) in band.chunks_exact_mut(k).zip(quads.iter()) {
                            resp[c] = pre.log_norm[c] - 0.5 * quad;
                        }
                    }
                    for resp in band.chunks_exact_mut(k) {
                        local.ll += pre.finish_responsibilities_in_place(resp);
                        vector::axpy(1.0, resp, &mut local.nk);
                    }
                    // Per component: re-centre the panel, one weighted SYRK on
                    // the upper triangle and `s_c += Xᵀγ_c`, with γ_c = column c
                    // of the band, read at stride k.
                    for c in 0..k {
                        center_rows(panel, d, pre.means[c].as_slice(), centered);
                        let weights = &band[c..];
                        gemm::syrk_upper_acc(centered, weights, k, &mut local.scatter[c]);
                        let shift = local.shift[c].as_mut_slice();
                        for (x, &g) in centered.chunks_exact(d).zip(weights.iter().step_by(k)) {
                            vector::axpy(g, x, shift);
                        }
                    }
                });
            for band in &bands[..used] {
                stats.merge(&band.stats);
            }
        };

        // The iteration's one pass.  A sparse row is finished on the spot:
        // `Σ⁻¹` pair gathers, then raw `γ·x xᵀ` pair scatters and the sums
        // `Σγ·x` and `Σγ`.  Dense rows are buffered for the batched form
        // above.
        let mut stats = ShiftedStats::zeros(k, d);
        let (mut sparse_gx, mut sparse_gamma) = (vec![Vector::zeros(d); k], vec![0.0; k]);
        let mut any_sparse = false;
        batch.clear();
        source.for_each(&mut |row| match row {
            BlockVec::Dense(x) => {
                batch.extend_from_slice(x);
                if batch.len() == full {
                    dense_batch(&batch, &mut stats);
                    batch.clear();
                }
            }
            rep => {
                for (c, ld) in resp.iter_mut().enumerate() {
                    let quad = sparse_pre[c].quad_flat(&pre.inverses[c], rep);
                    *ld = pre.log_norm[c] - 0.5 * quad;
                }
                stats.ll += pre.finish_responsibilities_in_place(&mut resp);
                for (c, &g) in resp.iter().enumerate() {
                    stats.nk[c] += g;
                    rep.scatter_pair(g, &mut stats.scatter[c]);
                    rep.axpy_into(g, sparse_gx[c].as_mut_slice());
                    sparse_gamma[c] += g;
                }
                any_sparse = true;
            }
        })?;
        if !batch.is_empty() {
            dense_batch(&batch, &mut stats);
        }

        // The SYRKs maintained the upper triangle only.
        for s in &mut stats.scatter {
            s.mirror_upper();
        }
        // Sparse rows: the dense corrections
        // `−(Σγx)µᵀ − µ(Σγx)ᵀ + (Σγ)µµᵀ` and `Σγx − (Σγ)µ`, once per pass
        // per component, bring their raw sums into the shifted form.
        if any_sparse {
            for c in 0..k {
                let (mu, gx) = (pre.means[c].as_slice(), sparse_gx[c].as_slice());
                gemm::ger(-1.0, gx, mu, &mut stats.scatter[c]);
                gemm::ger(-1.0, mu, gx, &mut stats.scatter[c]);
                gemm::ger(sparse_gamma[c], mu, mu, &mut stats.scatter[c]);
                let shift = stats.shift[c].as_mut_slice();
                vector::axpy(1.0, gx, shift);
                vector::axpy(-sparse_gamma[c], mu, shift);
            }
        }

        let ll = stats.ll;
        if !ll.is_finite() {
            return Err(StoreError::NonFiniteFeature {
                relation: relation.to_string(),
            });
        }
        model = finalize_m_step(
            &pre.means,
            &stats.nk,
            stats.shift,
            stats.scatter,
            n,
            opts.ridge,
        );
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

/// The `M-GMM` / `S-GMM` source: the join's rows, from its materialized
/// table or joined on the fly.
impl DensePassSource for RowSource<'_> {
    fn for_each(&mut self, f: &mut dyn FnMut(BlockVec<'_>)) -> StoreResult<()> {
        self.for_each_row(&mut |x, _| f(x))
    }

    fn num_tuples(&self) -> u64 {
        self.num_rows()
    }

    fn dim(&self) -> usize {
        self.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingGmm;
    use fml_linalg::KernelPolicy;
    use fml_store::{Database, JoinSpec, Schema, Tuple};

    /// A fact-only relation `rows` holding `rows`: the join `S-GMM` scans
    /// as stored, the fact-only join `q = 0`.
    fn stored(rows: &[Vec<f64>]) -> (Database, JoinSpec) {
        let db = Database::in_memory();
        let rel = db
            .create_relation(Schema::fact("rows", rows[0].len(), 0))
            .unwrap();
        for (i, x) in rows.iter().enumerate() {
            rel.lock()
                .append(&Tuple::fact(i as u64, vec![], x.clone()))
                .unwrap();
        }
        rel.lock().flush().unwrap();
        (db, JoinSpec::multiway("rows", vec![]))
    }

    fn fit(rows: &[Vec<f64>], config: &GmmConfig, exec: &ExecPolicy) -> GmmFit {
        let (db, spec) = stored(rows);
        StreamingGmm::train(&db, &spec, config, exec).unwrap()
    }

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
        let config = GmmConfig {
            k: 2,
            max_iters: 15,
            ..GmmConfig::default()
        };
        let fit = fit(&rows, &config, &ExecPolicy::new());
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
        let config = GmmConfig {
            k: 2,
            max_iters: 12,
            ..GmmConfig::default()
        };
        let fit = fit(&rows, &config, &ExecPolicy::new());
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
        let config = GmmConfig {
            k: 2,
            max_iters: 50,
            tol: 1e-3,
            ..GmmConfig::default()
        };
        let fit = fit(&rows, &config, &ExecPolicy::new());
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
        let config = GmmConfig {
            k: 3,
            max_iters: 8,
            ..GmmConfig::default()
        };
        let fit = fit(&rows, &config, &ExecPolicy::new());
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
        let blocked = fit(&rows, &base, &ExecPolicy::new());
        // four workers: a genuine four-band split on any machine
        let exec = ExecPolicy::new()
            .kernel_policy(KernelPolicy::BlockedParallel)
            .threads(4);
        let parallel = fit(&rows, &base, &exec);
        let diff = blocked.model.max_param_diff(&parallel.model);
        assert!(diff < 1e-7, "parallel EM diverged from blocked: {diff}");
    }
}
