//! Matrix product kernels: GEMM, GEMV, rank-1 (GER) updates and quadratic
//! forms, each implemented under every [`KernelPolicy`].
//!
//! Three implementations back every entry point:
//!
//! * **naive** — the reference triple loops with the inner loop running along
//!   contiguous row-major memory and strictly sequential accumulation.
//! * **blocked** — BLIS-style cache tiling.  `C += A·B` is decomposed into
//!   `NC`-column × `KC`-depth panels of `B` and `MC`-row panels of `A`, both
//!   packed into contiguous buffers, and the innermost computation is a
//!   register-blocked `MR×NR` micro-kernel that holds a `4×8` accumulator tile
//!   in registers and streams packed panels with unit stride.  Vector kernels
//!   (GEMV, quadratic forms) use 4-way unrolled dot products for instruction-
//!   level parallelism.
//! * **parallel** — the blocked kernels with the output rows split into bands
//!   aligned to the `MR` register tile and fanned out over scoped threads
//!   ([`crate::policy::par_row_bands`]).  Because band boundaries are aligned
//!   to the register tile and reductions are merged in fixed chunk order, the
//!   parallel results are bit-identical to the single-threaded blocked results
//!   for output-disjoint kernels (GEMM, GEMV, GER) and tolerance-identical for
//!   scalar reductions.
//!
//! ### Tiling parameters
//!
//! | constant | value | role |
//! |----------|-------|------|
//! | `MR`     | 4     | micro-kernel rows (A panel interleave) |
//! | `NR`     | 8     | micro-kernel columns (B panel interleave) |
//! | `KC`     | 256   | depth of packed panels (L1/L2 resident) |
//! | `MC`     | 64    | rows of A packed per macro block |
//! | `NC`     | 512   | columns of B packed per macro block |
//!
//! The non-`_with` entry points dispatch on [`crate::policy::default_policy`];
//! `_with` variants take an explicit policy, which the training crates thread
//! through from their configs.
//!
//! ### SIMD
//!
//! The blocked/parallel inner loops (micro-kernel, dot products, row AXPYs)
//! run through the explicit `f64x4` layer in [`crate::simd`]: each kernel
//! reads [`crate::simd::current_level`] **once at entry** and passes it into
//! its banded closures, so every band of a parallel fan-out computes with the
//! same arithmetic.  The default level is bit-identical to the scalar
//! fallback, so the cross-policy bit contracts above are unaffected by SIMD
//! being on or off; the `Naive` policy never routes through the SIMD layer at
//! all — it stays the strictly sequential oracle.  Parallel dispatch degrades
//! to `Blocked` below [`policy::PAR_MIN_FLOPS`]
//! (or [`policy::GER_PAR_MIN_FLOPS`] for the bandwidth-bound rank-1 update)
//! via [`policy::effective_policy`], so small shapes never pay fan-out
//! bookkeeping.

use crate::matrix::Matrix;
use crate::policy::{self, KernelPolicy};
use crate::simd::{self, SimdLevel};
use crate::vector;

/// Micro-kernel rows.
pub const MR: usize = 4;
/// Micro-kernel columns.
pub const NR: usize = 8;
/// Packed panel depth.
pub const KC: usize = 256;
/// Rows of `A` packed per macro block.
pub const MC: usize = 64;
/// Columns of `B` packed per macro block.
pub const NC: usize = 512;

use policy::{GER_PAR_MIN_FLOPS, PAR_MIN_FLOPS};

// ---------------------------------------------------------------------------
// Kernel invocation accounting (fml-obs)
// ---------------------------------------------------------------------------

static GEMM_CALLS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_gemm_calls_total");
static GEMV_CALLS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_gemv_calls_total");
static GER_CALLS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_ger_calls_total");
static KERNEL_FLOPS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_kernel_flops_total");

/// Records one kernel invocation and its nominal FLOP count (`2·m·n·k`-style,
/// counting multiply+add) into the registry.  Gated on the single relaxed
/// `metrics_enabled` load, so `FML_OBS=off` pays a few nanoseconds per kernel
/// *entry* (never per element) and records nothing.
#[inline]
fn record_kernel(calls: &'static fml_obs::LazyCounter, flops: usize) {
    if fml_obs::metrics_enabled() {
        calls.get().inc();
        KERNEL_FLOPS.get().add(flops as u64);
    }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// `C = A · B` for dense matrices, under the default policy.
///
/// # Panics
/// Panics when `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(policy::default_policy(), a, b)
}

/// `C = A · B` under an explicit policy.
pub fn matmul_with(policy: KernelPolicy, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions do not agree ({}x{} · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_acc_with(policy, a, b, &mut c);
    c
}

/// `C += A · B`, writing into an existing output matrix (no allocation), under
/// the default policy.
pub fn matmul_acc(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    matmul_acc_with(policy::default_policy(), a, b, c);
}

/// `C += A · B` under an explicit policy.
pub fn matmul_acc_with(policy: KernelPolicy, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul_acc: inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "matmul_acc: output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "matmul_acc: output cols mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    record_kernel(&GEMM_CALLS, 2 * m * n * k);
    match policy::effective_policy(policy, 2 * m * n * k, PAR_MIN_FLOPS) {
        KernelPolicy::Naive => naive_matmul_acc(a, b, c),
        KernelPolicy::Blocked => {
            let lv = simd::current_level();
            blocked_matmul_rows(a.as_slice(), k, 0, b.as_slice(), n, c.as_mut_slice(), lv)
        }
        KernelPolicy::BlockedParallel => {
            let parallel = m >= 2 * MR;
            let lv = simd::current_level();
            let (a_s, b_s) = (a.as_slice(), b.as_slice());
            policy::par_row_bands(parallel, c.as_mut_slice(), n, MR, |first_row, band| {
                blocked_matmul_rows(a_s, k, first_row, b_s, n, band, lv);
            });
        }
    }
}

/// `C = A · B` into a pre-zeroed output, under the default policy.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    c.fill_zero();
    matmul_acc(a, b, c);
}

/// Reference triple loop (`i`-`k`-`j` order, output row borrow hoisted out of
/// the `k` loop, no zero-skip — the dense path must not branch per element).
fn naive_matmul_acc(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let n = b.cols();
    for i in 0..a.rows() {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (k, &aik) in arow.iter().enumerate() {
            let brow = b.row(k);
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

/// `C += A · B` skipping zero entries of `A` — profitable only when `A`'s rows
/// are sparse (e.g. one-hot encoded categorical blocks), where most `aik` skip
/// the whole inner loop.  Dense inputs should use [`matmul_acc`]: the per-entry
/// branch costs more than it saves.  Runs under the default policy; purely
/// one-hot blocks should prefer [`crate::sparse::spmm_onehot`], which skips the
/// per-entry scan entirely.
pub fn matmul_acc_sparse(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    matmul_acc_sparse_with(policy::default_policy(), a, b, c);
}

/// [`matmul_acc_sparse`] under an explicit policy.
///
/// All policies run the same zero-skipping row loop (the skip *is* the
/// optimization — cache tiling would re-densify the traversal); the parallel
/// policy fans the disjoint output rows over [`policy::par_row_bands`] with the
/// same per-row arithmetic, so every policy produces identical bits.
pub fn matmul_acc_sparse_with(policy: KernelPolicy, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_acc_sparse: inner dimension mismatch"
    );
    assert_eq!(
        c.rows(),
        a.rows(),
        "matmul_acc_sparse: output rows mismatch"
    );
    assert_eq!(
        c.cols(),
        b.cols(),
        "matmul_acc_sparse: output cols mismatch"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    record_kernel(&GEMM_CALLS, 2 * m * n * k);
    // The flop estimate assumes dense inputs; genuinely sparse inputs do less
    // work per row, which only makes staying inline more attractive.
    let parallel = policy.is_parallel() && 2 * m * n * k >= PAR_MIN_FLOPS;
    policy::par_row_bands(parallel, c.as_mut_slice(), n, 1, |first_row, band| {
        for (i, crow) in band.chunks_exact_mut(n).enumerate() {
            let arow = a.row(first_row + i);
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(kk);
                for (dst, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *dst += aik * bv;
                }
            }
        }
    });
}

/// Packs the `KC×NR` panel of `B` starting at `(kc, j0)` into k-major order.
fn pack_b_panel(b: &[f64], n: usize, kc: usize, kb: usize, j0: usize, out: &mut [f64]) {
    for (kk, chunk) in out[..kb * NR].chunks_exact_mut(NR).enumerate() {
        let base = (kc + kk) * n + j0;
        chunk.copy_from_slice(&b[base..base + NR]);
    }
}

/// Packs the `MR×KC` panel of `A` rows `i0..i0+MR` (absolute), cols
/// `kc..kc+kb`, into k-major interleaved order (`out[kk*MR + r]`).
fn pack_a_panel(a: &[f64], lda: usize, i0: usize, kc: usize, kb: usize, out: &mut [f64]) {
    for r in 0..MR {
        let base = (i0 + r) * lda + kc;
        let arow = &a[base..base + kb];
        for (kk, &v) in arow.iter().enumerate() {
            out[kk * MR + r] = v;
        }
    }
}

/// Blocked `C_band += A[rows] · B` where `c_band` holds the rows of `C`
/// starting at absolute row `row0` (the parallel driver hands each thread a
/// disjoint, `MR`-aligned band).  Per-element accumulation order depends only
/// on `(k, n)` tiling — never on the banding — so any row split produces bits
/// identical to the single-band call.  The `MR×NR` micro-kernel is
/// [`simd::microkernel`] at the level `lv` the caller captured at entry.
fn blocked_matmul_rows(
    a: &[f64],
    k: usize,
    row0: usize,
    b: &[f64],
    n: usize,
    c_band: &mut [f64],
    lv: SimdLevel,
) {
    let m = c_band.len() / n;
    let mut pa = vec![0.0f64; MC.min(m.next_multiple_of(MR)) * KC.min(k)];
    let mut pb = vec![0.0f64; KC.min(k) * NC.min(n.next_multiple_of(NR))];
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let n_full = nc / NR * NR;
        let mut kc = 0;
        while kc < k {
            let kb = KC.min(k - kc);
            // pack the NR-wide panels of B for this (kc, jc) block
            let mut j0 = 0;
            while j0 < n_full {
                pack_b_panel(b, n, kc, kb, jc + j0, &mut pb[j0 * kb..(j0 + NR) * kb]);
                j0 += NR;
            }
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                let m_full = mc / MR * MR;
                let mut i0 = 0;
                while i0 < m_full {
                    pack_a_panel(
                        a,
                        k,
                        row0 + ic + i0,
                        kc,
                        kb,
                        &mut pa[i0 * kb..(i0 + MR) * kb],
                    );
                    i0 += MR;
                }
                let mut i0 = 0;
                while i0 < m_full {
                    let pa_panel = &pa[i0 * kb..(i0 + MR) * kb];
                    let mut j0 = 0;
                    while j0 < n_full {
                        simd::microkernel(
                            lv,
                            pa_panel,
                            &pb[j0 * kb..(j0 + NR) * kb],
                            kb,
                            c_band,
                            n,
                            ic + i0,
                            jc + j0,
                        );
                        j0 += NR;
                    }
                    // j remainder: per-row dot accumulation over this k block
                    for j in jc + n_full..jc + nc {
                        for r in 0..MR {
                            let ai = row0 + ic + i0 + r;
                            let arow = &a[ai * k + kc..ai * k + kc + kb];
                            let mut s = 0.0;
                            for (kk, &av) in arow.iter().enumerate() {
                                s += av * b[(kc + kk) * n + j];
                            }
                            c_band[(ic + i0 + r) * n + j] += s;
                        }
                    }
                    i0 += MR;
                }
                // i remainder: plain axpy rows (only the final rows of C)
                for i in m_full..mc {
                    let ai = row0 + ic + i;
                    let arow = &a[ai * k + kc..ai * k + kc + kb];
                    for (kk, &aik) in arow.iter().enumerate() {
                        let brow = &b[(kc + kk) * n + jc..(kc + kk) * n + jc + nc];
                        let crow = &mut c_band[(ic + i) * n + jc..(ic + i) * n + jc + nc];
                        simd::axpy(lv, aik, brow, crow);
                    }
                }
                ic += mc;
            }
            kc += kb;
        }
        jc += nc;
    }
}

// ---------------------------------------------------------------------------
// GEMV
// ---------------------------------------------------------------------------

/// `y = A · x` (matrix-vector product) under the default policy.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    matvec_with(policy::default_policy(), a, x)
}

/// `y = A · x` under an explicit policy.
pub fn matvec_with(policy: KernelPolicy, a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    matvec_into_with(policy, a, x, &mut y);
    y
}

/// `y = A · x` into an existing buffer, under the default policy.
pub fn matvec_into(a: &Matrix, x: &[f64], y: &mut [f64]) {
    matvec_into_with(policy::default_policy(), a, x, y);
}

/// `y = A · x` into an existing buffer, under an explicit policy.
pub fn matvec_into_with(policy: KernelPolicy, a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "matvec_into: dimension mismatch");
    assert_eq!(a.rows(), y.len(), "matvec_into: output dimension mismatch");
    record_kernel(&GEMV_CALLS, 2 * a.rows() * a.cols());
    match policy::effective_policy(policy, 2 * a.rows() * a.cols(), PAR_MIN_FLOPS) {
        KernelPolicy::Naive => {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = vector::dot(a.row(i), x);
            }
        }
        KernelPolicy::Blocked => {
            let lv = simd::current_level();
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = simd::dot(lv, a.row(i), x);
            }
        }
        KernelPolicy::BlockedParallel => {
            let lv = simd::current_level();
            policy::par_row_bands(true, y, 1, 8, |first_row, band| {
                for (i, yi) in band.iter_mut().enumerate() {
                    *yi = simd::dot(lv, a.row(first_row + i), x);
                }
            });
        }
    }
}

/// `y += A · x` into an existing buffer, under the default policy.
pub fn matvec_acc(a: &Matrix, x: &[f64], y: &mut [f64]) {
    matvec_acc_with(policy::default_policy(), a, x, y);
}

/// `y += A · x` under an explicit policy.
pub fn matvec_acc_with(policy: KernelPolicy, a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "matvec_acc: dimension mismatch");
    assert_eq!(a.rows(), y.len(), "matvec_acc: output dimension mismatch");
    record_kernel(&GEMV_CALLS, 2 * a.rows() * a.cols());
    match policy {
        KernelPolicy::Naive => {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi += vector::dot(a.row(i), x);
            }
        }
        _ => {
            let lv = simd::current_level();
            for (i, yi) in y.iter_mut().enumerate() {
                *yi += simd::dot(lv, a.row(i), x);
            }
        }
    }
}

/// `y = Aᵀ · x` without materializing the transpose, under the default policy.
pub fn matvec_transposed(a: &Matrix, x: &[f64]) -> Vec<f64> {
    matvec_transposed_with(policy::default_policy(), a, x)
}

/// `y = Aᵀ · x` under an explicit policy.
///
/// The parallel path gives each thread a chunk of `A`'s **rows**, accumulates a
/// private output vector, and merges the partials front-to-back (fixed
/// reduction order) — the per-element result groups additions by chunk but
/// never reorders within a chunk.
pub fn matvec_transposed_with(policy: KernelPolicy, a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.cols()];
    matvec_transposed_into_with(policy, a, x, &mut y);
    y
}

/// `y = Aᵀ · x` into an existing buffer, under an explicit policy — one AXPY
/// of `A`'s row `i` per entry of `x`, front to back; the sequential policies
/// allocate nothing.
pub fn matvec_transposed_into_with(policy: KernelPolicy, a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.rows(), x.len(), "matvec_transposed: dimension mismatch");
    let cols = a.cols();
    assert_eq!(
        cols,
        y.len(),
        "matvec_transposed: output dimension mismatch"
    );
    record_kernel(&GEMV_CALLS, 2 * a.rows() * cols);
    y.fill(0.0);
    match policy::effective_policy(policy, 2 * a.rows() * cols, PAR_MIN_FLOPS) {
        KernelPolicy::Naive => {
            for (i, &xi) in x.iter().enumerate() {
                vector::axpy(xi, a.row(i), y);
            }
        }
        KernelPolicy::Blocked => {
            let lv = simd::current_level();
            for (i, &xi) in x.iter().enumerate() {
                simd::axpy(lv, xi, a.row(i), y);
            }
        }
        KernelPolicy::BlockedParallel => {
            let lv = simd::current_level();
            let partials = policy::par_chunks(true, a.rows(), 8, |range| {
                let mut part = vec![0.0; cols];
                for i in range {
                    simd::axpy(lv, x[i], a.row(i), &mut part);
                }
                part
            });
            for part in partials {
                simd::add_assign(lv, y, &part);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rank-1 updates and quadratic forms
// ---------------------------------------------------------------------------

/// Rank-1 update `A += alpha * x yᵀ` (BLAS GER), under the default policy.
///
/// Used to accumulate NN weight gradients `∂E/∂W += δ · xᵀ` and GMM scatter
/// contributions `γ (x−µ)(x−µ)ᵀ`.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    ger_with(policy::default_policy(), alpha, x, y, a);
}

/// Rank-1 update under an explicit policy.
///
/// GER does 2 flops per element it reads *and* writes, so it is
/// memory-bandwidth-bound; parallel dispatch uses the much higher
/// [`policy::GER_PAR_MIN_FLOPS`] cutoff — below it, extra threads only
/// contend for the bus and the parallel policy degrades to the blocked
/// (bit-identical) row loop.
pub fn ger_with(policy: KernelPolicy, alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    assert_eq!(a.rows(), x.len(), "ger: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "ger: col dimension mismatch");
    let cols = a.cols();
    record_kernel(&GER_CALLS, 2 * x.len() * cols);
    match policy::effective_policy(policy, 2 * x.len() * cols, GER_PAR_MIN_FLOPS) {
        KernelPolicy::Naive => {
            // The reference path is branch-free: one AXPY per row.
            for (i, &xi) in x.iter().enumerate() {
                vector::axpy(alpha * xi, y, a.row_mut(i));
            }
        }
        KernelPolicy::Blocked => {
            let lv = simd::current_level();
            for (i, &xi) in x.iter().enumerate() {
                simd::axpy(lv, alpha * xi, y, a.row_mut(i));
            }
        }
        KernelPolicy::BlockedParallel => {
            let lv = simd::current_level();
            policy::par_row_bands(true, a.as_mut_slice(), cols, MR, |first_row, band| {
                for (i, row) in band.chunks_exact_mut(cols).enumerate() {
                    simd::axpy(lv, alpha * x[first_row + i], y, row);
                }
            });
        }
    }
}

/// Rank-1 update skipping zero entries of `x` — for sparse/one-hot `x` (e.g.
/// one-hot categorical feature blocks), where the skip avoids whole-row AXPYs.
/// Dense callers should use [`ger`]; callers that already hold index form
/// should use [`crate::sparse::ger_onehot`].  Runs under the default policy.
pub fn ger_sparse(alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    ger_sparse_with(policy::default_policy(), alpha, x, y, a);
}

/// [`ger_sparse`] under an explicit policy: the zero-skipping row loop, with
/// the parallel policy fanning the disjoint output rows over
/// [`policy::par_row_bands`].  Identical bits under every policy.
pub fn ger_sparse_with(policy: KernelPolicy, alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    assert_eq!(a.rows(), x.len(), "ger_sparse: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "ger_sparse: col dimension mismatch");
    let cols = a.cols();
    if x.is_empty() || cols == 0 {
        return;
    }
    record_kernel(&GER_CALLS, 2 * x.len() * cols);
    let parallel = policy.is_parallel() && 2 * x.len() * cols >= PAR_MIN_FLOPS;
    policy::par_row_bands(parallel, a.as_mut_slice(), cols, 1, |first_row, band| {
        for (i, row) in band.chunks_exact_mut(cols).enumerate() {
            let xi = x[first_row + i];
            if xi == 0.0 {
                continue;
            }
            vector::axpy(alpha * xi, y, row);
        }
    });
}

/// Outer product `x yᵀ` as a fresh matrix.
pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(x.len(), y.len());
    ger(1.0, x, y, &mut m);
    m
}

/// Quadratic form `xᵀ A y` evaluated without forming intermediates, under the
/// default policy.
pub fn quadratic_form(x: &[f64], a: &Matrix, y: &[f64]) -> f64 {
    quadratic_form_with(policy::default_policy(), x, a, y)
}

/// Quadratic form under an explicit policy.
pub fn quadratic_form_with(policy: KernelPolicy, x: &[f64], a: &Matrix, y: &[f64]) -> f64 {
    assert_eq!(a.rows(), x.len(), "quadratic_form: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "quadratic_form: col dimension mismatch");
    match policy::effective_policy(policy, 2 * x.len() * y.len(), PAR_MIN_FLOPS) {
        KernelPolicy::Naive => {
            let mut acc = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                acc += xi * vector::dot(a.row(i), y);
            }
            acc
        }
        KernelPolicy::Blocked => {
            let lv = simd::current_level();
            let mut acc = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                acc += xi * simd::dot(lv, a.row(i), y);
            }
            acc
        }
        KernelPolicy::BlockedParallel => {
            let lv = simd::current_level();
            let partials = policy::par_chunks(true, x.len(), 8, |range| {
                let mut acc = 0.0;
                for i in range {
                    acc += x[i] * simd::dot(lv, a.row(i), y);
                }
                acc
            });
            partials.into_iter().sum()
        }
    }
}

/// Symmetric quadratic form `xᵀ A x`, under the default policy.
pub fn quadratic_form_sym(x: &[f64], a: &Matrix) -> f64 {
    quadratic_form(x, a, x)
}

/// Symmetric quadratic form under an explicit policy.
pub fn quadratic_form_sym_with(policy: KernelPolicy, x: &[f64], a: &Matrix) -> f64 {
    quadratic_form_with(policy, x, a, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn m(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    /// Deterministic pseudo-random matrix for cross-policy comparisons.
    fn pseudo(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut rng = crate::testutil::TestRng::new(salt);
        Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
    }

    #[test]
    fn matmul_known_result() {
        for p in KernelPolicy::ALL {
            let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
            let b = m(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
            let c = matmul_with(p, &a, &b);
            assert_eq!(c.row(0), &[19.0, 22.0], "{p}");
            assert_eq!(c.row(1), &[43.0, 50.0], "{p}");
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        for p in KernelPolicy::ALL {
            let a = m(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
            let id = Matrix::identity(3);
            assert_eq!(matmul_with(p, &a, &id), a);
            let id2 = Matrix::identity(2);
            assert_eq!(matmul_with(p, &id2, &a), a);
        }
    }

    #[test]
    fn matmul_rectangular_shapes() {
        for p in KernelPolicy::ALL {
            let a = Matrix::zeros(3, 5);
            let b = Matrix::zeros(5, 2);
            assert_eq!(matmul_with(p, &a, &b).shape(), (3, 2));
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn blocked_and_parallel_match_naive_on_awkward_shapes() {
        // shapes chosen to exercise every remainder path of the tiling
        for &(mm, kk, nn) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (33, 47, 29),
            (65, 70, 130),
        ] {
            let a = pseudo(mm, kk, 1);
            let b = pseudo(kk, nn, 2);
            let reference = matmul_with(KernelPolicy::Naive, &a, &b);
            for p in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
                let c = matmul_with(p, &a, &b);
                assert!(
                    reference.max_abs_diff(&c) < 1e-12,
                    "{p} diverged on {mm}x{kk}x{nn}: {}",
                    reference.max_abs_diff(&c)
                );
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_blocked() {
        let a = pseudo(100, 64, 3);
        let b = pseudo(64, 50, 4);
        let blocked = matmul_with(KernelPolicy::Blocked, &a, &b);
        let parallel = matmul_with(KernelPolicy::BlockedParallel, &a, &b);
        assert_eq!(blocked, parallel);
    }

    #[test]
    fn banded_execution_is_bit_identical_to_single_band() {
        // Drive the band split directly with a forced worker count, so the
        // bit-identity invariant is checked against a *genuinely* banded run
        // even on machines where num_threads() == 1 or the work is below the
        // parallel threshold.
        let (m, k, n) = (37usize, 65usize, 29usize); // remainders on every axis
        let a = pseudo(m, k, 11);
        let b = pseudo(k, n, 12);
        let lv = simd::current_level();
        let mut single = Matrix::zeros(m, n);
        blocked_matmul_rows(
            a.as_slice(),
            k,
            0,
            b.as_slice(),
            n,
            single.as_mut_slice(),
            lv,
        );
        let mut banded = Matrix::zeros(m, n);
        policy::par_row_bands_with_threads(4, banded.as_mut_slice(), n, MR, |first_row, band| {
            blocked_matmul_rows(a.as_slice(), k, first_row, b.as_slice(), n, band, lv);
        });
        assert_eq!(single, banded, "band split changed bits");
    }

    #[test]
    fn matmul_acc_accumulates_on_top() {
        for p in KernelPolicy::ALL {
            let a = m(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
            let b = m(&[vec![2.0, 3.0], vec![4.0, 5.0]]);
            let mut c = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
            matmul_acc_with(p, &a, &b, &mut c);
            assert_eq!(c.row(0), &[3.0, 4.0], "{p}");
            assert_eq!(c.row(1), &[5.0, 6.0], "{p}");
        }
    }

    #[test]
    fn sparse_matmul_matches_dense() {
        // one-hot-ish A: single nonzero per row
        let mut a = Matrix::zeros(6, 9);
        for i in 0..6 {
            a[(i, (i * 2) % 9)] = 1.0;
        }
        let b = pseudo(9, 5, 7);
        let mut dense = Matrix::zeros(6, 5);
        matmul_acc_with(KernelPolicy::Naive, &a, &b, &mut dense);
        for p in KernelPolicy::ALL {
            let mut sparse = Matrix::zeros(6, 5);
            matmul_acc_sparse_with(p, &a, &b, &mut sparse);
            assert_eq!(dense, sparse, "{p}");
        }
    }

    #[test]
    fn sparse_matmul_banded_execution_is_bit_identical() {
        // Force a real band split so the policy-routing path is exercised even
        // below the parallel work threshold.
        let a = pseudo(13, 9, 21);
        let b = pseudo(9, 6, 22);
        let mut single = Matrix::zeros(13, 6);
        matmul_acc_sparse_with(KernelPolicy::Naive, &a, &b, &mut single);
        let mut banded = Matrix::zeros(13, 6);
        policy::par_row_bands_with_threads(4, banded.as_mut_slice(), 6, 1, |first_row, band| {
            for (i, crow) in band.chunks_exact_mut(6).enumerate() {
                for (kk, &aik) in a.row(first_row + i).iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    for (dst, &bv) in crow.iter_mut().zip(b.row(kk).iter()) {
                        *dst += aik * bv;
                    }
                }
            }
        });
        assert_eq!(single, banded);
    }

    #[test]
    fn matvec_and_transpose() {
        for p in KernelPolicy::ALL {
            let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
            assert_eq!(matvec_with(p, &a, &[1.0, 1.0]), vec![3.0, 7.0, 11.0], "{p}");
            assert_eq!(
                matvec_transposed_with(p, &a, &[1.0, 1.0, 1.0]),
                vec![9.0, 12.0],
                "{p}"
            );
            let mut y = vec![1.0, 1.0, 1.0];
            matvec_acc_with(p, &a, &[1.0, 0.0], &mut y);
            assert_eq!(y, vec![2.0, 4.0, 6.0], "{p}");
        }
    }

    #[test]
    fn ger_and_outer() {
        let x = [1.0, 2.0];
        let y = [3.0, 4.0, 5.0];
        let o = outer(&x, &y);
        assert_eq!(o.row(0), &[3.0, 4.0, 5.0]);
        assert_eq!(o.row(1), &[6.0, 8.0, 10.0]);

        for p in KernelPolicy::ALL {
            let mut a = Matrix::zeros(2, 3);
            ger_with(p, 2.0, &x, &y, &mut a);
            assert_eq!(a.row(1), &[12.0, 16.0, 20.0], "{p}");
        }

        for p in KernelPolicy::ALL {
            let mut s = Matrix::zeros(2, 3);
            ger_sparse_with(p, 2.0, &[0.0, 2.0], &y, &mut s);
            assert_eq!(s.row(0), &[0.0, 0.0, 0.0], "{p}");
            assert_eq!(s.row(1), &[12.0, 16.0, 20.0], "{p}");
        }
    }

    #[test]
    fn quadratic_form_matches_explicit_product() {
        for p in KernelPolicy::ALL {
            let a = m(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
            let x = [1.0, 2.0];
            // xᵀ A x = [1 2] [[2 1][1 3]] [1 2]ᵀ = [4, 7]·[1,2] = 18
            assert!(approx_eq(quadratic_form_sym_with(p, &x, &a), 18.0, 1e-12));
            let y = [3.0, -1.0];
            // xᵀ A y = [4,7]·[3,-1] = 5
            assert!(approx_eq(quadratic_form_with(p, &x, &a, &y), 5.0, 1e-12));
        }
    }

    #[test]
    fn matmul_associativity_small() {
        let a = m(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        let b = m(&[vec![3.0, 0.0], vec![1.0, 1.0]]);
        let c = m(&[vec![1.0, 1.0], vec![2.0, 0.0]]);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.max_abs_diff(&right) < 1e-12);
    }

    #[test]
    fn empty_matrices_are_fine_under_every_policy() {
        for p in KernelPolicy::ALL {
            let a = Matrix::zeros(0, 0);
            assert_eq!(matmul_with(p, &a, &a).shape(), (0, 0));
            let b = Matrix::zeros(0, 4);
            let c = Matrix::zeros(4, 0);
            assert_eq!(matmul_with(p, &b, &Matrix::zeros(4, 3)).shape(), (0, 3));
            assert_eq!(matmul_with(p, &Matrix::zeros(3, 4), &c).shape(), (3, 0));
            assert!(matvec_with(p, &b, &[1.0; 4]).is_empty());
        }
    }
}
