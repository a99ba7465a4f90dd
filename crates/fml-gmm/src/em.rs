//! The shared EM driver for "dense" tuple sources (Algorithm 1 of the paper,
//! in one pass per iteration).
//!
//! `M-GMM` and `S-GMM` differ only in *where* the denormalized feature vectors come
//! from (a materialized table vs an on-the-fly join); the EM computation itself is
//! identical.  [`train_dense`] implements that computation once, against the
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
//! buffers it into batches of [`PAR_BATCH_TUPLES`] rows, and a batch fans
//! out over per-worker chunks whose partial statistics merge in chunk order
//! (one chunk under a sequential policy or a small model).  Within a chunk
//! the dense rows are compacted into a panel and run one level-3 kernel call
//! **per component**, not per row:
//!
//! * E-step: centre the panel around `µ_c`, whiten it —
//!   `Y = (X − 1µ_cᵀ)·L_c⁻ᵀ` with [`gemm::matmul_upper_acc_with`] and the
//!   whitener of the same (possibly ridge-repaired) Cholesky factor
//!   [`Precomputed::from_model`] inverts — and the Mahalanobis distance of
//!   row `r` is `‖Y_r‖²`, non-negative by construction.  The responsibilities
//!   are finished in place in a chunk-local `rows × K` band.
//! * Statistics: centre the panel around `µ_c` again (an `O(n·d)` copy next
//!   to the `O(n·d²)` product; `K` centred panels are never held at once),
//!   then one weighted SYRK ([`gemm::syrk_upper_acc_with`]) with `γ_c` read
//!   at stride `K` out of the band, and `s_c += Xᵀγ_c`.  Only the upper
//!   triangle of `S_c` is maintained; it is mirrored once at the end of the
//!   pass.
//!
//! Rows that carry a [`fml_linalg::SparseRep`] (under
//! [`SparseMode::Auto`]) stay on the per-row gather path of [`crate::sparse`]:
//! `Σ⁻¹` pair gathers in the E-step, then raw `γ·x xᵀ` pair scatters and
//! `γ·x` sums, corrected around `µ_c` once per pass — after which they are in
//! the same shifted form as the dense rows.
//!
//! **Bit contract.**  `M-GMM` and `S-GMM` feed this driver the same rows in
//! the same order, so their fits are **bit-identical** on every join shape.
//! A row's E-step bits do not depend on its position in a batch (edge panels
//! are zero-padded, every row runs the same micro-kernel); the scatter sums
//! rows in `KC`-deep blocks per batch, so its bits depend on the batch
//! boundaries — which are a function of the row order alone — and on the
//! worker count (chunk-order merge).  Under
//! [`fml_linalg::KernelPolicy::Naive`] the two kernels are their strictly
//! sequential per-row reference loops (the whitened form one row at a time;
//! GER order on the upper triangle): the oracle the blocked form is
//! tolerance-tested against (`tests/batched_em.rs`: parameters within 1e-9,
//! log-likelihood trace within 1e-10 relative), with a hand-rolled per-row
//! three-pass Algorithm 1 on the `Σ⁻¹` form of
//! [`Precomputed::responsibilities_dense`] as the independent cross-check.
//! The whitened form is not bit-equal to the `Σ⁻¹` form `F-GMM` and the
//! scorer evaluate; the three strategies agree to rounding, as they always
//! have (objective within 1e-6).

use crate::init::GmmInit;
use crate::model::{GmmModel, Precomputed};
use crate::sparse::SparseFormPre;
use crate::GmmConfig;
use fml_linalg::exec::{ExecPolicy, FitNotifier, IoProbe};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_linalg::sparse::SparseMode;
use fml_linalg::{gemm, vector, Matrix, Vector};
use fml_store::join::RowSource;
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
/// EM iteration.  Implementations: the materialized table `T` (`M-GMM`) and the
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

/// One chunk's (or one pass's) sufficient statistics, centred on the
/// iteration's starting means; chunks merge in chunk order.
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
    /// `Σγ·x` over the sparse rows.
    sparse_gx: Vec<Vector>,
    /// `Σγ` over the sparse rows.
    sparse_gamma: Vec<f64>,
    any_sparse: bool,
}

impl ShiftedStats {
    fn zeros(k: usize, d: usize) -> Self {
        Self {
            nk: vec![0.0; k],
            ll: 0.0,
            shift: vec![Vector::zeros(d); k],
            scatter: vec![Matrix::zeros(d, d); k],
            sparse_gx: vec![Vector::zeros(d); k],
            sparse_gamma: vec![0.0; k],
            any_sparse: false,
        }
    }

    fn merge(&mut self, other: &ShiftedStats) {
        vector::axpy(1.0, &other.nk, &mut self.nk);
        self.ll += other.ll;
        for c in 0..self.nk.len() {
            self.shift[c].axpy(1.0, &other.shift[c]);
            self.scatter[c].add_assign(&other.scatter[c]);
            self.sparse_gx[c].axpy(1.0, &other.sparse_gx[c]);
            self.sparse_gamma[c] += other.sparse_gamma[c];
        }
        self.any_sparse |= other.any_sparse;
    }
}

/// Trains a GMM with one-pass EM over a dense tuple source, initializing
/// with the data-independent [`GmmInit::initial_model`].
pub fn train_dense(
    source: &mut dyn DensePassSource,
    config: &GmmConfig,
    exec: &ExecPolicy,
) -> StoreResult<GmmFit> {
    let initial =
        GmmInit::new(exec.resolve().seed, config.init_spread).initial_model(config.k, source.dim());
    train_dense_from(source, config, exec, initial, None)
}

/// Trains a GMM with one-pass EM over a dense tuple source, starting from an
/// explicit initial model (shared by every variant so the model-equivalence
/// guarantee holds).  `io` is the optional cumulative I/O probe behind the
/// per-iteration [`fml_linalg::FitObserver`] events.
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

    // Kernels are sequential; the parallelism lives at the tuple-batch
    // level.  Fanning out only pays when a batch carries enough flops to
    // amortize the pool dispatch, so tiny models — and every sequential
    // policy — run each batch inline as one chunk.
    let kp = ex.kernel_policy;
    let par = ex.kernel_policy.is_parallel() && k * d * d * PAR_BATCH_TUPLES >= PAR_MIN_BATCH_FLOPS;
    let workers = ex.workers(par);
    let auto_sparse = ex.sparse == SparseMode::Auto;
    // Per-tuple representation cache, filled lazily during the first
    // iteration's pass — the sources replay tuples in a deterministic order,
    // so later iterations index it by tuple position.  No extra scan is
    // performed (the streaming cost model stays exact) and detection runs at
    // most once per tuple.  Memory is O(total nnz) — nothing for an all-dense
    // source, which leaves a streaming fit with no O(n) state at all.
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

        // The iteration's one pass.  Each batch fans out over deterministic
        // chunks; a chunk finishes the responsibilities of its rows,
        // accumulates their statistics around `pre.means` and returns them
        // plus, during the first iteration, the detected representations;
        // the partials merge in chunk order (the RepCache segment protocol).
        let mut stats = ShiftedStats::zeros(k, d);
        let mut row_cursor = 0usize;
        for_each_batch(source, &mut batch, |rows| {
            let n_rows = rows.len() / d;
            let base = row_cursor;
            let reps_ref: &RepCache = &reps;
            let parts = par_chunks_with_threads(workers, n_rows, 1, |range| {
                let chunk = &rows[range.start * d..range.end * d];
                let mut seg = reps_ref.segment(base + range.start);
                let mut local = ShiftedStats::zeros(k, d);
                // A sparse row is finished on the spot: `Σ⁻¹` pair gathers,
                // then raw `γ·x xᵀ` pair scatters and `γ·x` sums.  Dense
                // rows are collected for the batched form below.
                let mut resp = vec![0.0; k];
                let mut dense = Vec::with_capacity(range.len());
                for (r, x) in chunk.chunks_exact(d).enumerate() {
                    let Some(rep) = seg.rep_or_detect(base + range.start + r, x) else {
                        dense.push(r);
                        continue;
                    };
                    for (c, ld) in resp.iter_mut().enumerate() {
                        let quad = sparse_pre[c].quad_flat(&pre.inverses[c], rep);
                        *ld = pre.log_norm[c] - 0.5 * quad;
                    }
                    local.ll += pre.finish_responsibilities_in_place(&mut resp);
                    for (c, &g) in resp.iter().enumerate() {
                        local.nk[c] += g;
                        rep.scatter_pair(g, &mut local.scatter[c]);
                        rep.axpy_into(g, local.sparse_gx[c].as_mut_slice());
                        local.sparse_gamma[c] += g;
                    }
                    local.any_sparse = true;
                }
                if dense.is_empty() {
                    return (local, seg.into_detected());
                }
                // Per component: Y = (X − 1µᵀ)·L⁻ᵀ over the dense rows, then
                // the Mahalanobis distance of row r is ‖Y_r‖².
                let mut centered = vec![0.0; dense.len() * d];
                let mut whitened = vec![0.0; dense.len() * d];
                let mut quads = vec![0.0; dense.len()];
                let mut band = vec![0.0; dense.len() * k];
                for c in 0..k {
                    center_rows(chunk, d, &dense, pre.means[c].as_slice(), &mut centered);
                    whitened.fill(0.0);
                    gemm::matmul_upper_acc_with(kp, &centered, &whiteners[c], &mut whitened);
                    gemm::row_sq_norms_with(kp, &whitened, d, &mut quads);
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
                    center_rows(chunk, d, &dense, pre.means[c].as_slice(), &mut centered);
                    let weights = &band[c..];
                    gemm::syrk_upper_acc_with(kp, &centered, weights, k, &mut local.scatter[c]);
                    let shift = local.shift[c].as_mut_slice();
                    for (x, &g) in centered.chunks_exact(d).zip(weights.iter().step_by(k)) {
                        vector::axpy(g, x, shift);
                    }
                }
                (local, seg.into_detected())
            });
            for (local, detected) in parts {
                stats.merge(&local);
                reps.merge(detected);
            }
            row_cursor += n_rows;
        })?;
        reps.finish_fill();

        // The SYRKs maintained the upper triangle only.
        for s in &mut stats.scatter {
            s.mirror_upper();
        }
        // Sparse rows: the dense corrections
        // `−(Σγx)µᵀ − µ(Σγx)ᵀ + (Σγ)µµᵀ` and `Σγx − (Σγ)µ`, once per pass
        // per component, bring their raw sums into the shifted form.
        if stats.any_sparse {
            for c in 0..k {
                let (mu, gx) = (pre.means[c].as_slice(), stats.sparse_gx[c].as_slice());
                gemm::ger_with(kp, -1.0, gx, mu, &mut stats.scatter[c]);
                gemm::ger_with(kp, -1.0, mu, gx, &mut stats.scatter[c]);
                gemm::ger_with(kp, stats.sparse_gamma[c], mu, mu, &mut stats.scatter[c]);
                let shift = stats.shift[c].as_mut_slice();
                vector::axpy(1.0, gx, shift);
                vector::axpy(-stats.sparse_gamma[c], mu, shift);
            }
        }

        let ll = stats.ll;
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

/// The `M-GMM` / `S-GMM` source: the join's rows, from its materialized
/// table or joined on the fly.
impl DensePassSource for RowSource<'_> {
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64])) -> StoreResult<()> {
        self.for_each_row(&mut |x, _| f(x))
    }

    fn num_tuples(&self) -> u64 {
        self.num_rows()
    }

    fn dim(&self) -> usize {
        self.width()
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
