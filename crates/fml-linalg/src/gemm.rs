//! Matrix product kernels: GEMM, GEMV, rank-1 (GER) updates and quadratic
//! forms, each a sequential function of its operands.
//!
//! There is one arithmetic, BLIS-style cache tiling.  `C += A·B` is
//! decomposed into `NC`-column × `KC`-depth panels of `B` and `MC`-row panels
//! of `A`, both packed into contiguous buffers, and the innermost computation
//! is a register-blocked `MR×NR` micro-kernel that holds a `4×8` accumulator
//! tile in registers and streams packed panels with unit stride.  Vector
//! kernels (GEMV, quadratic forms) use 4-way unrolled dot products for
//! instruction-level parallelism.  The strictly sequential loops these are
//! tested against live in [`crate::reference`].
//!
//! No kernel fans out: parallelism lives in the drivers' chunk loops
//! ([`crate::policy`]), which call these kernels on disjoint row bands or
//! private accumulators.
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
//! **Edge panels are zero-padded, not special-cased.**  The last `MR`-row
//! panel of `A` and the last `NR`-column panel of `B` are packed to full
//! width with zeros, every tile runs the same micro-kernel, and an edge tile
//! lands in a stack `MR×NR` scratch from which only the in-range entries are
//! added to `C`.  There is no scalar remainder loop: a width like 85 or 26
//! runs at the rate of 88 or 32, and a row's result does not depend on where
//! in the matrix it sits.
//!
//! ### Structured products
//!
//! One blocked loop nest (`blocked_product_rows`) serves three operand
//! shapes, each a `Panels` implementation that says how its panels are
//! packed and which part of the tile grid carries work:
//!
//! | entry point | product | what the structure saves |
//! |---|---|---|
//! | [`matmul_acc`] | `C += A·B` | — |
//! | [`matmul_upper_acc`] | `C += A·U`, `U` upper-triangular | B panel `j0` is packed and multiplied only to depth `j0+NR`: half the work |
//! | [`syrk_upper_acc`] | upper triangle of `C += Xᵀ·diag(γ)·X` | A panels are 4-wide column reads of the row-major `X`, B panels its `γ_r`-scaled rows; tiles strictly below the diagonal are skipped: half the work |
//!
//! The GMM trainers' dense E-step (`Y = (X − 1µᵀ)·L⁻ᵀ`, then row norms) and
//! covariance scatter run on the last two, one call per 1024-row batch and
//! component.
//!
//! ### Lanes
//!
//! The blocked reductions (micro-kernel, dot products) run through the
//! 4-lane scalar kernels in [`crate::simd`].  Row AXPYs (GER, transposed
//! GEMV) are element-wise, with no reduction order to choose, and run
//! [`vector::axpy`].

use crate::matrix::Matrix;
use crate::simd;
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

// ---------------------------------------------------------------------------
// Kernel invocation accounting (fml-obs)
// ---------------------------------------------------------------------------

static GEMM_CALLS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_gemm_calls_total");
static GEMV_CALLS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_gemv_calls_total");
static GER_CALLS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_ger_calls_total");
static KERNEL_FLOPS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_kernel_flops_total");

/// Records one kernel invocation and its FLOP count (multiply+add = 2) into
/// the registry.  Gated on the single relaxed `metrics_enabled` load, so
/// `FML_OBS=off` pays a few nanoseconds per kernel *entry* (never per
/// element) and records nothing.
///
/// What `fml_kernel_flops_total` covers: GEMM, GEMV and GER entries at their
/// nominal `2·m·n·k`-style count, and the two structured products at the
/// FLOPs they execute (`m·n·(n+1)` each — the triangle, not the square).
/// **Quadratic forms are deliberately uncounted**: the factorized E-step
/// evaluates `d_S`-wide forms in ~30 ns each, and two atomics per call would
/// show on its wall time.  A trainer that spends its E-step in
/// [`quadratic_form`] therefore reports about half the FLOPs it
/// executes — the "4.2 counted GFLOP/s" once read off the per-row `M-GMM`
/// was half its true 8–9 GFLOP/s.
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

/// `C = A · B` for dense matrices.
///
/// # Panics
/// Panics when `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
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
    matmul_acc(a.as_slice(), b, c.as_mut_slice());
    c
}

/// `C += A · B`, writing into an existing output (no allocation).
///
/// `a` and `c` are row-major `m × k` and `m × n` with `(k, n) = b.shape()`.
/// A row of `C` has the same bits whatever `m` is and wherever the row sits
/// in `A`, so a batch may be multiplied in row panels of any size.
///
/// # Panics
/// Panics when `c` is not `m × n` or `a` is not `m × k`.
pub fn matmul_acc(a: &[f64], b: &Matrix, c: &mut [f64]) {
    let (k, n) = b.shape();
    if c.is_empty() {
        return;
    }
    assert!(
        n > 0 && c.len().is_multiple_of(n),
        "matmul_acc: output cols mismatch"
    );
    let m = c.len() / n;
    assert_eq!(a.len(), m * k, "matmul_acc: inner dimension mismatch");
    if k == 0 {
        return;
    }
    record_kernel(&GEMM_CALLS, 2 * m * n * k);
    let panels = DensePanels {
        a,
        m,
        k,
        b: b.as_slice(),
        n,
    };
    blocked_product(&panels, k, n, c);
}

// ---------------------------------------------------------------------------
// Structured products: C += A·U (U upper-triangular), upper(C) += Xᵀ·diag(γ)·X
// ---------------------------------------------------------------------------

/// `C += A · U` for an upper-triangular `U`.
///
/// `a` and `c` are row-major `m × n` with `n = u.rows()`.  Entries of `u`
/// strictly below the diagonal are **never read** (they may hold anything).
/// Column panel `j0` of `U` is packed and multiplied only to depth
/// `j0 + NR`, so the product executes half the FLOPs of the full one.
///
/// # Panics
/// Panics when `u` is not square or `a` / `c` are not `m × n`.
pub fn matmul_upper_acc(a: &[f64], u: &Matrix, c: &mut [f64]) {
    assert!(u.is_square(), "matmul_upper_acc: U must be square");
    let n = u.rows();
    assert_eq!(a.len(), c.len(), "matmul_upper_acc: output shape mismatch");
    if a.is_empty() {
        return;
    }
    assert!(
        n > 0 && a.len().is_multiple_of(n),
        "matmul_upper_acc: A is not m x n"
    );
    let m = a.len() / n;
    record_kernel(&GEMM_CALLS, m * n * (n + 1));
    let panels = UpperPanels {
        a,
        m,
        u: u.as_slice(),
        n,
    };
    blocked_product(&panels, n, n, c);
}

/// The upper triangle of `C += Xᵀ · diag(γ) · X` — a weighted SYRK.
///
/// `x` is a row-major `m × n` batch with `n = c.rows()`; row `r` carries the
/// weight `γ_r = weights[r * stride]`, so a column of a row-major
/// responsibility matrix is read in place.  Entries of `c` strictly below
/// the diagonal are **neither read nor written**; callers mirror once when
/// every batch is in ([`Matrix::mirror_upper`]).  The micro-kernel runs over
/// the batch as the depth dimension and skips the tiles below the diagonal.
///
/// # Panics
/// Panics when `c` is not square, `x` is not `m × n`, or `weights` is too
/// short for `m` strided reads.
pub fn syrk_upper_acc(x: &[f64], weights: &[f64], stride: usize, c: &mut Matrix) {
    assert!(c.is_square(), "syrk_upper_acc: C must be square");
    let n = c.rows();
    if x.is_empty() {
        return;
    }
    assert!(
        n > 0 && x.len().is_multiple_of(n),
        "syrk_upper_acc: X is not m x n"
    );
    let m = x.len() / n;
    assert!(
        stride > 0 && weights.len() > (m - 1) * stride,
        "syrk_upper_acc: weights too short for {m} reads at stride {stride}"
    );
    record_kernel(&GEMM_CALLS, m * n * (n + 1));
    let panels = GramPanels {
        x,
        n,
        weights,
        stride,
    };
    blocked_product(&panels, m, n, c.as_mut_slice());
}

/// `out[r] = ‖Y_r‖²` for every row of the row-major `m × n` matrix `y` — the
/// Mahalanobis distances of a whitened batch — through the 4-lane dot
/// product.
///
/// # Panics
/// Panics when `y` is not `out.len() × n`.
pub fn row_sq_norms(y: &[f64], n: usize, out: &mut [f64]) {
    assert_eq!(y.len(), out.len() * n, "row_sq_norms: Y is not m x n");
    if n == 0 {
        out.fill(0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(y.chunks_exact(n)) {
        *o = simd::dot(row, row);
    }
}

// ---------------------------------------------------------------------------
// The blocked loop nest and its operand shapes
// ---------------------------------------------------------------------------

/// Packs `w ≤ W` contiguous entries of each of the rows `kc..kc+kb` of the
/// row-major `src` (leading dimension `ld`), starting at column `j0`, k-major
/// into `W`-wide slots (`out[kk*W + c]`), zero-filling columns `w..W`.  With
/// `W = NR` this is a B panel; with `W = MR` it is an A panel of `srcᵀ`.
fn pack_row_panel<const W: usize>(
    src: &[f64],
    ld: usize,
    kc: usize,
    kb: usize,
    j0: usize,
    w: usize,
    out: &mut [f64],
) {
    for (kk, slot) in out[..kb * W].chunks_exact_mut(W).enumerate() {
        let base = (kc + kk) * ld + j0;
        slot[..w].copy_from_slice(&src[base..base + w]);
        slot[w..].fill(0.0);
    }
}

/// Packs the `MR×KC` panel of `A` rows `i0..i0+rows` (`rows ≤ MR`; the
/// missing rows are zero), cols `kc..kc+kb`, into k-major interleaved order
/// (`out[kk*MR + r]`).
fn pack_a_panel(
    a: &[f64],
    lda: usize,
    i0: usize,
    rows: usize,
    kc: usize,
    kb: usize,
    out: &mut [f64],
) {
    if rows < MR {
        out[..kb * MR].fill(0.0);
    }
    for r in 0..rows {
        let base = (i0 + r) * lda + kc;
        let arow = &a[base..base + kb];
        for (kk, &v) in arow.iter().enumerate() {
            out[kk * MR + r] = v;
        }
    }
}

/// The operands of one packed-panel product `C += A·B` as the blocked loop
/// nest sees them: how to pack an `MR`-row panel of `A` and an `NR`-column
/// panel of `B` for one depth block, and which part of the tile grid carries
/// work.  Panels past the last row / column are zero-padded by the packer.
trait Panels {
    /// Whether only the upper triangle (`j ≥ i`) of `C` is produced: tiles
    /// strictly below the diagonal are skipped and the tiles that straddle
    /// it write their `j ≥ i` entries only.
    const UPPER_C: bool = false;

    /// Packs rows `i0..i0+MR` of `A`, depth `kc..kc+kb`, k-major interleaved
    /// (`out[kk*MR + r]`).
    fn pack_a(&self, i0: usize, kc: usize, kb: usize, out: &mut [f64]);

    /// Packs columns `j0..j0+NR` of `B`, depth `kc..kc+kb`, k-major
    /// (`out[kk*NR + c]`).
    fn pack_b(&self, j0: usize, kc: usize, kb: usize, out: &mut [f64]);

    /// Leading part of the depth block `kc..kc+kb` beyond which column panel
    /// `j0` of `B` is all zero (the block is packed and multiplied only that
    /// deep).
    fn panel_depth(&self, _j0: usize, _kc: usize, kb: usize) -> usize {
        kb
    }
}

/// Dense `A (m×k) · B (k×n)`.
struct DensePanels<'a> {
    a: &'a [f64],
    m: usize,
    k: usize,
    b: &'a [f64],
    n: usize,
}

impl Panels for DensePanels<'_> {
    fn pack_a(&self, i0: usize, kc: usize, kb: usize, out: &mut [f64]) {
        pack_a_panel(self.a, self.k, i0, MR.min(self.m - i0), kc, kb, out);
    }

    fn pack_b(&self, j0: usize, kc: usize, kb: usize, out: &mut [f64]) {
        pack_row_panel::<NR>(self.b, self.n, kc, kb, j0, NR.min(self.n - j0), out);
    }
}

/// `A (m×n) · U (n×n)` with `U` upper-triangular: column `j` of `U` is zero
/// below row `j`, so panel `j0` ends at depth `j0 + NR`.
struct UpperPanels<'a> {
    a: &'a [f64],
    m: usize,
    u: &'a [f64],
    n: usize,
}

impl Panels for UpperPanels<'_> {
    fn pack_a(&self, i0: usize, kc: usize, kb: usize, out: &mut [f64]) {
        pack_a_panel(self.a, self.n, i0, MR.min(self.m - i0), kc, kb, out);
    }

    /// Row `k` of the panel holds `U[k][j0..j0+w]`; the entries left of the
    /// diagonal (`j < k`) are written as zeros without reading `U`.
    fn pack_b(&self, j0: usize, kc: usize, kb: usize, out: &mut [f64]) {
        let w = NR.min(self.n - j0);
        for (kk, slot) in out[..kb * NR].chunks_exact_mut(NR).enumerate() {
            let k = kc + kk;
            let below = k.saturating_sub(j0).min(w);
            slot[..below].fill(0.0);
            slot[below..w].copy_from_slice(&self.u[k * self.n + j0 + below..k * self.n + j0 + w]);
            slot[w..].fill(0.0);
        }
    }

    fn panel_depth(&self, j0: usize, kc: usize, kb: usize) -> usize {
        (j0 + NR).min(self.n).saturating_sub(kc).min(kb)
    }
}

/// `Xᵀ · diag(γ) · X` for a row-major `m×n` batch `X`: the batch is the depth
/// dimension, `A = Xᵀ` (an A panel is a 4-wide column read of `X`) and
/// `B = diag(γ)·X` (a B panel is `X`'s rows scaled by their weights).
struct GramPanels<'a> {
    x: &'a [f64],
    n: usize,
    weights: &'a [f64],
    stride: usize,
}

impl Panels for GramPanels<'_> {
    const UPPER_C: bool = true;

    fn pack_a(&self, i0: usize, kc: usize, kb: usize, out: &mut [f64]) {
        pack_row_panel::<MR>(self.x, self.n, kc, kb, i0, MR.min(self.n - i0), out);
    }

    fn pack_b(&self, j0: usize, kc: usize, kb: usize, out: &mut [f64]) {
        let w = NR.min(self.n - j0);
        for (kk, slot) in out[..kb * NR].chunks_exact_mut(NR).enumerate() {
            let r = kc + kk;
            let g = self.weights[r * self.stride];
            let xrow = &self.x[r * self.n + j0..r * self.n + j0 + w];
            for (dst, &xv) in slot[..w].iter_mut().zip(xrow.iter()) {
                *dst = g * xv;
            }
            slot[w..].fill(0.0);
        }
    }
}

thread_local! {
    /// The packed `A` and `B` panels of [`blocked_product`], per thread: they
    /// grow to the largest call's size once and are reused, so a kernel call
    /// allocates nothing.  Every slot a tile reads is packed first.
    static PACK: std::cell::RefCell<(Vec<f64>, Vec<f64>)> = const {
        std::cell::RefCell::new((Vec::new(), Vec::new()))
    };
}

/// Blocked `C += A · B` over depth `k` for the row-major `n`-column `C`.
/// Per-element accumulation order depends only on the `(k, n)` tiling — never
/// on a row's position in its panel or in the matrix — so a driver that
/// splits a batch into row bands and calls the kernel once per band gets the
/// bits of the single call.  The `MR×NR` micro-kernel is
/// [`simd::microkernel`].
fn blocked_product<P: Panels>(p: &P, k: usize, n: usize, c: &mut [f64]) {
    let m = c.len() / n;
    let mut pack = PACK.with(|pack| pack.take());
    let (pa, pb) = &mut pack;
    pa.resize(
        pa.len().max(MC.min(m.next_multiple_of(MR)) * KC.min(k)),
        0.0,
    );
    pb.resize(
        pb.len().max(KC.min(k) * NC.min(n.next_multiple_of(NR))),
        0.0,
    );
    let mut edge = [0.0f64; MR * NR];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for kc in (0..k).step_by(KC) {
            let kb = KC.min(k - kc);
            for j0 in (0..nc).step_by(NR) {
                let depth = p.panel_depth(jc + j0, kc, kb);
                p.pack_b(jc + j0, kc, depth, &mut pb[j0 * kb..j0 * kb + depth * NR]);
            }
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for i0 in (0..mc).step_by(MR) {
                    p.pack_a(ic + i0, kc, kb, &mut pa[i0 * kb..(i0 + MR) * kb]);
                }
                for i0 in (0..mc).step_by(MR) {
                    let pa_panel = &pa[i0 * kb..(i0 + MR) * kb];
                    let i = ic + i0;
                    let rows = MR.min(m - i);
                    for j0 in (0..nc).step_by(NR) {
                        let j = jc + j0;
                        if P::UPPER_C && i >= j + NR {
                            continue;
                        }
                        let depth = p.panel_depth(j, kc, kb);
                        let pb_panel = &pb[j0 * kb..j0 * kb + depth * NR];
                        let cols = NR.min(n - j);
                        let straddles = P::UPPER_C && i + MR > j + 1;
                        if rows == MR && cols == NR && !straddles {
                            simd::microkernel(pa_panel, pb_panel, depth, c, n, i, j);
                            continue;
                        }
                        edge.fill(0.0);
                        simd::microkernel(pa_panel, pb_panel, depth, &mut edge, NR, 0, 0);
                        for r in 0..rows {
                            let first = if P::UPPER_C {
                                (i + r).saturating_sub(j).min(cols)
                            } else {
                                0
                            };
                            let crow = &mut c[(i + r) * n + j..(i + r) * n + j + cols];
                            for (dst, &v) in crow[first..].iter_mut().zip(&edge[r * NR + first..]) {
                                *dst += v;
                            }
                        }
                    }
                }
            }
        }
    }
    PACK.with(|slot| slot.replace(pack));
}

// ---------------------------------------------------------------------------
// GEMV
// ---------------------------------------------------------------------------

/// `y = A · x` (matrix-vector product).
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    matvec_into(a, x, &mut y);
    y
}

/// `y = A · x` into an existing buffer.
pub fn matvec_into(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "matvec_into: dimension mismatch");
    assert_eq!(a.rows(), y.len(), "matvec_into: output dimension mismatch");
    record_kernel(&GEMV_CALLS, 2 * a.rows() * a.cols());
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = simd::dot(a.row(i), x);
    }
}

/// `y = Aᵀ · x` without materializing the transpose.
pub fn matvec_transposed(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.cols()];
    matvec_transposed_into(a, x, &mut y);
    y
}

/// `y = Aᵀ · x` into an existing buffer — one AXPY of `A`'s row `i` per entry
/// of `x`, front to back; allocates nothing.
pub fn matvec_transposed_into(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.rows(), x.len(), "matvec_transposed: dimension mismatch");
    let cols = a.cols();
    assert_eq!(
        cols,
        y.len(),
        "matvec_transposed: output dimension mismatch"
    );
    record_kernel(&GEMV_CALLS, 2 * a.rows() * cols);
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        vector::axpy(xi, a.row(i), y);
    }
}

// ---------------------------------------------------------------------------
// Rank-1 updates and quadratic forms
// ---------------------------------------------------------------------------

/// Rank-1 update `A += alpha * x yᵀ` (BLAS GER): one branch-free AXPY per
/// row.
///
/// Used to accumulate NN weight gradients `∂E/∂W += δ · xᵀ` and GMM scatter
/// contributions `γ (x−µ)(x−µ)ᵀ`.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    assert_eq!(a.rows(), x.len(), "ger: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "ger: col dimension mismatch");
    record_kernel(&GER_CALLS, 2 * x.len() * a.cols());
    for (i, &xi) in x.iter().enumerate() {
        vector::axpy(alpha * xi, y, a.row_mut(i));
    }
}

/// Outer product `x yᵀ` as a fresh matrix.
pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(x.len(), y.len());
    ger(1.0, x, y, &mut m);
    m
}

/// Quadratic form `xᵀ A y` evaluated without forming intermediates.  Every
/// row of `A` is visited, zero entries of `x` included — the dense path must
/// not branch per element.
pub fn quadratic_form(x: &[f64], a: &Matrix, y: &[f64]) -> f64 {
    assert_eq!(a.rows(), x.len(), "quadratic_form: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "quadratic_form: col dimension mismatch");
    let mut acc = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        acc += xi * simd::dot(a.row(i), y);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, policy, reference};

    fn m(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    /// Deterministic pseudo-random matrix for kernel-vs-reference comparisons.
    fn pseudo(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut rng = crate::testutil::TestRng::new(salt);
        Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
    }

    /// `A · B` through the reference loop.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        reference::matmul_acc(a.as_slice(), b, c.as_mut_slice());
        c
    }

    #[test]
    fn matmul_known_result() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = m(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        for (what, c) in [
            ("kernel", matmul(&a, &b)),
            ("reference", reference_matmul(&a, &b)),
        ] {
            assert_eq!(c.row(0), &[19.0, 22.0], "{what}");
            assert_eq!(c.row(1), &[43.0, 50.0], "{what}");
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3);
        assert_eq!(matmul(&a, &id), a);
        let id2 = Matrix::identity(2);
        assert_eq!(matmul(&id2, &a), a);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Matrix::zeros(3, 5);
        let b = Matrix::zeros(5, 2);
        assert_eq!(matmul(&a, &b).shape(), (3, 2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn blocked_matches_the_reference_on_awkward_shapes() {
        // shapes chosen to exercise every remainder path of the tiling
        for &(mm, kk, nn) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (33, 47, 29),
            (65, 70, 130),
            (257, 85, 85), // padded edge panels on both axes, MC remainder
            (6, 300, 26),  // straddles KC with a padded column panel
        ] {
            let a = pseudo(mm, kk, 1);
            let b = pseudo(kk, nn, 2);
            let want = reference_matmul(&a, &b);
            let diff = want.max_abs_diff(&matmul(&a, &b));
            assert!(diff < 1e-12, "diverged on {mm}x{kk}x{nn}: {diff}");
        }
    }

    #[test]
    fn banded_execution_is_bit_identical_to_single_band() {
        // The drivers' row-band fan-out: one kernel call per band of A and C,
        // with a forced worker count so the split is genuine even on machines
        // where num_threads() == 1.  No band boundary may move a bit.
        let (m, k, n) = (37usize, 65usize, 29usize); // remainders on every axis
        let a = pseudo(m, k, 11);
        let b = pseudo(k, n, 12);
        let single = matmul(&a, &b);
        let mut banded = vec![0.0; m * n];
        let bands = policy::par_row_bands_with_threads(
            4,
            &mut banded,
            n,
            MR,
            &mut [(); 4],
            |first_row, band, _| {
                let rows = band.len() / n;
                let a_band = a.sub_block(first_row, first_row + rows, 0, k);
                band.copy_from_slice(matmul(&a_band, &b).as_slice());
            },
        );
        assert_eq!(bands, 4, "the split must be genuine");
        assert_eq!(single.as_slice(), &banded[..], "band split changed bits");
    }

    /// The shapes the structured products are pinned on: widths around the
    /// `NR` panel (incl. the benchmark's 26 and 85) × row counts straddling
    /// `MR` and `KC`.
    const WIDTHS: [usize; 7] = [1, 3, 5, 8, 26, 85, 130];
    const ROWS: [usize; 10] = [0, 1, 3, 4, 5, 255, 256, 257, 1024, 1025];

    /// An upper-triangular `n×n` factor whose lower triangle is NaN: a kernel
    /// that reads below the diagonal poisons its output.
    fn upper_with_nan_below(n: usize, salt: u64) -> Matrix {
        let mut u = pseudo(n, n, salt);
        for i in 0..n {
            for j in 0..i {
                u[(i, j)] = f64::NAN;
            }
        }
        u
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    #[test]
    fn upper_product_matches_naive_and_never_reads_below_the_diagonal() {
        for &n in &WIDTHS {
            let u = upper_with_nan_below(n, 40 + n as u64);
            for &m in &ROWS {
                let a = pseudo(m, n, 41);
                let seed_c = pseudo(m, n, 42); // nonzero C exercises accumulation
                let mut want = seed_c.clone();
                reference::matmul_upper_acc(a.as_slice(), &u, want.as_mut_slice());
                assert!(
                    want.as_slice().iter().all(|v| v.is_finite()),
                    "the reference read below the diagonal at {m}x{n}"
                );
                // independent cross-check: the full product against U with an
                // explicit zero lower triangle
                let mut u0 = u.clone();
                for i in 0..n {
                    for j in 0..i {
                        u0[(i, j)] = 0.0;
                    }
                }
                let mut full = seed_c.clone();
                reference::matmul_acc(a.as_slice(), &u0, full.as_mut_slice());
                assert!(want.max_abs_diff(&full) < 1e-12, "{m}x{n} vs full GEMM");
                let mut c = seed_c.clone();
                matmul_upper_acc(a.as_slice(), &u, c.as_mut_slice());
                let diff = want.max_abs_diff(&c);
                assert!(diff < 1e-12, "diverged on {m}x{n}: {diff}");
            }
        }
    }

    #[test]
    fn weighted_syrk_matches_naive_and_leaves_the_lower_triangle_alone() {
        for &n in &WIDTHS {
            for &m in &ROWS {
                let x = pseudo(m, n, 50);
                // weights read at stride 3 from offset 1 of a wider buffer
                let stride = 3;
                let mut rng = crate::testutil::TestRng::new(51);
                let wbuf = rng.vec_in(m * stride + 1, 0.0, 1.0);
                let weights = &wbuf[1..];
                // the lower triangle starts as NaN: never read, never written
                let mut seed_c = pseudo(n, n, 52);
                for i in 0..n {
                    for j in 0..i {
                        seed_c[(i, j)] = f64::NAN;
                    }
                }
                let mut want = seed_c.clone();
                reference::syrk_upper_acc(x.as_slice(), weights, stride, &mut want);
                // "today's GER order on the upper triangle": one full rank-1
                // update per row reproduces the reference's upper triangle bit
                // for bit
                let mut gers = seed_c.clone();
                for r in 0..m {
                    ger(weights[r * stride], x.row(r), x.row(r), &mut gers);
                }
                let scale = 1.0 + max_abs(x.as_slice()).powi(2) * m as f64;
                let mut blocked = seed_c.clone();
                syrk_upper_acc(x.as_slice(), weights, stride, &mut blocked);
                for (what, c) in [("reference", &want), ("kernel", &blocked)] {
                    for i in 0..n {
                        for j in 0..n {
                            if j < i {
                                assert!(c[(i, j)].is_nan(), "{what} wrote ({i},{j}) at {m}x{n}");
                                continue;
                            }
                            let diff = (c[(i, j)] - want[(i, j)]).abs();
                            assert!(
                                diff < 1e-12 * scale,
                                "{what} diverged at ({i},{j}) on {m}x{n}: {diff}"
                            );
                        }
                    }
                }
                for i in 0..n {
                    for j in i..n {
                        assert_eq!(
                            want[(i, j)].to_bits(),
                            gers[(i, j)].to_bits(),
                            "the reference SYRK is not GER order at ({i},{j}) on {m}x{n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_syrk_handles_zero_denormal_and_equal_weights() {
        let (m, n) = (257usize, 26usize);
        let x = pseudo(m, n, 60);
        let denormal = f64::MIN_POSITIVE / 4.0;
        for (label, weights) in [
            ("zero", vec![0.0; m]),
            ("denormal", vec![denormal; m]),
            ("equal", vec![0.375; m]),
        ] {
            let mut want = Matrix::zeros(n, n);
            reference::syrk_upper_acc(x.as_slice(), &weights, 1, &mut want);
            let mut c = Matrix::zeros(n, n);
            syrk_upper_acc(x.as_slice(), &weights, 1, &mut c);
            assert!(c.as_slice().iter().all(|v| v.is_finite()), "{label}");
            let diff = want.max_abs_diff(&c);
            assert!(diff < 1e-12, "{label}: {diff}");
            if label == "zero" {
                assert_eq!(c, Matrix::zeros(n, n));
            }
        }
    }

    #[test]
    fn structured_products_are_bit_identical_across_bands() {
        let (m, n) = (261usize, 85usize); // remainders on every axis
        let a = pseudo(m, n, 70);
        let u = upper_with_nan_below(n, 71);
        let mut whole = vec![0.0; m * n];
        matmul_upper_acc(a.as_slice(), &u, &mut whole);
        // a genuine 4-way row-band split of the batch, also on a 1-core
        // machine: one kernel call per band, as the dense trainer issues them
        let mut banded = vec![0.0; m * n];
        policy::par_row_bands_with_threads(
            4,
            &mut banded,
            n,
            MR,
            &mut [(); 4],
            |first_row, band, _| {
                let rows = first_row * n..first_row * n + band.len();
                matmul_upper_acc(&a.as_slice()[rows], &u, band);
            },
        );
        assert_eq!(whole, banded, "band split changed bits");
    }

    #[test]
    fn a_rows_product_does_not_depend_on_its_position_in_the_batch() {
        // Padded edge panels: the last rows of a batch run the same
        // micro-kernel as the first, so splitting a batch anywhere leaves
        // every row's bits unchanged.
        let (m, n) = (11usize, 85usize);
        let a = pseudo(m, n, 80);
        let u = upper_with_nan_below(n, 81);
        let mut whole = vec![0.0; m * n];
        matmul_upper_acc(a.as_slice(), &u, &mut whole);
        for r in 0..m {
            let mut single = vec![0.0; n];
            matmul_upper_acc(a.row(r), &u, &mut single);
            assert_eq!(&whole[r * n..(r + 1) * n], &single[..], "row {r}");
        }
    }

    #[test]
    fn row_sq_norms_match_dot_products() {
        let y = pseudo(7, 13, 90);
        let (mut kernel, mut want) = (vec![f64::NAN; 7], vec![f64::NAN; 7]);
        row_sq_norms(y.as_slice(), 13, &mut kernel);
        reference::row_sq_norms(y.as_slice(), 13, &mut want);
        for (what, out) in [("kernel", &kernel), ("reference", &want)] {
            for (r, &v) in out.iter().enumerate() {
                assert!(v >= 0.0);
                assert!(
                    approx_eq(v, vector::dot(y.row(r), y.row(r)), 1e-12),
                    "{what}"
                );
            }
        }
        let mut none: [f64; 0] = [];
        row_sq_norms(&[], 5, &mut none);
        reference::row_sq_norms(&[], 5, &mut none);
    }

    #[test]
    fn matmul_acc_accumulates_on_top() {
        let a = m(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = m(&[vec![2.0, 3.0], vec![4.0, 5.0]]);
        let ones = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let (mut kernel, mut want) = (ones.clone(), ones);
        matmul_acc(a.as_slice(), &b, kernel.as_mut_slice());
        reference::matmul_acc(a.as_slice(), &b, want.as_mut_slice());
        for c in [kernel, want] {
            assert_eq!(c.row(0), &[3.0, 4.0]);
            assert_eq!(c.row(1), &[5.0, 6.0]);
        }
    }

    #[test]
    fn matvec_and_transpose() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(matvec(&a, &[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(reference::matvec(&a, &[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(matvec_transposed(&a, &[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn ger_and_outer() {
        let x = [1.0, 2.0];
        let y = [3.0, 4.0, 5.0];
        let o = outer(&x, &y);
        assert_eq!(o.row(0), &[3.0, 4.0, 5.0]);
        assert_eq!(o.row(1), &[6.0, 8.0, 10.0]);

        let mut a = Matrix::zeros(2, 3);
        ger(2.0, &x, &y, &mut a);
        assert_eq!(a.row(1), &[12.0, 16.0, 20.0]);
    }

    #[test]
    fn quadratic_form_matches_explicit_product() {
        let a = m(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = [1.0, 2.0];
        let y = [3.0, -1.0];
        for (what, form) in [
            (
                "kernel",
                quadratic_form as fn(&[f64], &Matrix, &[f64]) -> f64,
            ),
            ("reference", reference::quadratic_form),
        ] {
            // xᵀ A x = [1 2] [[2 1][1 3]] [1 2]ᵀ = [4, 7]·[1,2] = 18
            assert!(approx_eq(form(&x, &a, &x), 18.0, 1e-12), "{what}");
            // xᵀ A y = [4,7]·[3,-1] = 5
            assert!(approx_eq(form(&x, &a, &y), 5.0, 1e-12), "{what}");
        }
    }

    /// The reference visits every row like the kernel does: a zero in `x`
    /// does not hide a non-finite row of `A` from one of them only.
    #[test]
    fn quadratic_form_and_reference_agree_on_a_non_finite_row_behind_a_zero() {
        let a = m(&[vec![f64::INFINITY, 1.0], vec![1.0, 2.0]]);
        for q in [
            quadratic_form(&[0.0, 1.0], &a, &[1.0, 1.0]),
            reference::quadratic_form(&[0.0, 1.0], &a, &[1.0, 1.0]),
        ] {
            assert!(q.is_nan(), "0·∞ must poison the sum, got {q}");
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
    fn empty_matrices_are_fine_in_kernel_and_reference() {
        let products: [fn(&Matrix, &Matrix) -> Matrix; 2] = [matmul, reference_matmul];
        for product in products {
            let a = Matrix::zeros(0, 0);
            assert_eq!(product(&a, &a).shape(), (0, 0));
            let b = Matrix::zeros(0, 4);
            let c = Matrix::zeros(4, 0);
            assert_eq!(product(&b, &Matrix::zeros(4, 3)).shape(), (0, 3));
            assert_eq!(product(&Matrix::zeros(3, 4), &c).shape(), (3, 0));
        }
        let b = Matrix::zeros(0, 4);
        assert!(matvec(&b, &[1.0; 4]).is_empty());
        assert!(reference::matvec(&b, &[1.0; 4]).is_empty());
    }
}
