//! Matrix product kernels: GEMM, GEMV, rank-1 (GER) updates and quadratic
//! forms, each a sequential function of `(policy, operands)`.
//!
//! The [`KernelPolicy`] picks one of two arithmetics:
//!
//! * **naive** — the reference triple loops with the inner loop running along
//!   contiguous row-major memory and strictly sequential accumulation.
//! * **blocked** (`Blocked` and `BlockedParallel` alike) — BLIS-style cache
//!   tiling.  `C += A·B` is decomposed into `NC`-column × `KC`-depth panels of
//!   `B` and `MC`-row panels of `A`, both packed into contiguous buffers, and
//!   the innermost computation is a register-blocked `MR×NR` micro-kernel that
//!   holds a `4×8` accumulator tile in registers and streams packed panels
//!   with unit stride.  Vector kernels (GEMV, quadratic forms) use 4-way
//!   unrolled dot products for instruction-level parallelism.
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
//! | [`matmul_acc_with`] | `C += A·B` | — |
//! | [`matmul_upper_acc_with`] | `C += A·U`, `U` upper-triangular | B panel `j0` is packed and multiplied only to depth `j0+NR`: half the work |
//! | [`syrk_upper_acc_with`] | upper triangle of `C += Xᵀ·diag(γ)·X` | A panels are 4-wide column reads of the row-major `X`, B panels its `γ_r`-scaled rows; tiles strictly below the diagonal are skipped: half the work |
//!
//! The GMM trainers' dense E-step (`Y = (X − 1µᵀ)·L⁻ᵀ`, then row norms) and
//! covariance scatter run on the last two, one call per 1024-row batch and
//! component.  Under `Naive` each is a strictly sequential per-row loop.
//!
//! Every entry point takes its policy explicitly; the training crates thread
//! it through from their resolved [`crate::ExecPolicy`].
//!
//! ### SIMD
//!
//! The blocked inner loops (micro-kernel, dot products, row AXPYs) run
//! through the explicit `f64x4` layer in [`crate::simd`] at the level
//! [`crate::simd::current_level`] reports when the kernel is entered.  The
//! default level is bit-identical to the scalar fallback, so the
//! cross-policy contracts above are unaffected by SIMD being on or off; the
//! `Naive` policy never routes through the SIMD layer at all — it stays the
//! strictly sequential oracle.

use crate::matrix::Matrix;
use crate::policy::KernelPolicy;
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
/// [`quadratic_form_with`] therefore reports about half the FLOPs it
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

/// `C += A · B`, writing into an existing output matrix (no allocation).
pub fn matmul_acc_with(policy: KernelPolicy, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul_acc: inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "matmul_acc: output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "matmul_acc: output cols mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    record_kernel(&GEMM_CALLS, 2 * m * n * k);
    match policy {
        KernelPolicy::Naive => naive_matmul_acc(a, b, c),
        _ => {
            let panels = DensePanels {
                a: a.as_slice(),
                m,
                k,
                b: b.as_slice(),
                n,
            };
            blocked_product(&panels, k, n, c.as_mut_slice());
        }
    }
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

// ---------------------------------------------------------------------------
// Structured products: C += A·U (U upper-triangular), upper(C) += Xᵀ·diag(γ)·X
// ---------------------------------------------------------------------------

/// `C += A · U` for an upper-triangular `U`.
///
/// `a` and `c` are row-major `m × n` with `n = u.rows()`.  Entries of `u`
/// strictly below the diagonal are **never read** (they may hold anything).
/// The blocked form packs and multiplies column panel `j0` of `U` only to
/// depth `j0 + NR`, so it executes half the FLOPs of the full product; the
/// `Naive` form is the `i`-`k`-`j` reference loop restricted to `j ≥ k`.
///
/// # Panics
/// Panics when `u` is not square or `a` / `c` are not `m × n`.
pub fn matmul_upper_acc_with(policy: KernelPolicy, a: &[f64], u: &Matrix, c: &mut [f64]) {
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
    if policy == KernelPolicy::Naive {
        for (arow, crow) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
            for (k, &aik) in arow.iter().enumerate() {
                vector::axpy(aik, &u.row(k)[k..], &mut crow[k..]);
            }
        }
        return;
    }
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
/// every batch is in ([`Matrix::mirror_upper`]).  The blocked form runs the
/// micro-kernel over the batch as the depth dimension and skips the tiles
/// below the diagonal; the `Naive` form is one rank-1 update per row in GER
/// order (`c[i][i..] += (γ_r·x_i)·x[i..]`).
///
/// # Panics
/// Panics when `c` is not square, `x` is not `m × n`, or `weights` is too
/// short for `m` strided reads.
pub fn syrk_upper_acc_with(
    policy: KernelPolicy,
    x: &[f64],
    weights: &[f64],
    stride: usize,
    c: &mut Matrix,
) {
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
    if policy == KernelPolicy::Naive {
        for (r, xrow) in x.chunks_exact(n).enumerate() {
            let g = weights[r * stride];
            for (i, &xi) in xrow.iter().enumerate() {
                vector::axpy(g * xi, &xrow[i..], &mut c.row_mut(i)[i..]);
            }
        }
        return;
    }
    let panels = GramPanels {
        x,
        n,
        weights,
        stride,
    };
    blocked_product(&panels, m, n, c.as_mut_slice());
}

/// `out[r] = ‖Y_r‖²` for every row of the row-major `m × n` matrix `y` — the
/// Mahalanobis distances of a whitened batch.  `Naive` sums each row
/// sequentially; the blocked arithmetic uses the 4-lane dot product.
///
/// # Panics
/// Panics when `y` is not `out.len() × n`.
pub fn row_sq_norms_with(policy: KernelPolicy, y: &[f64], n: usize, out: &mut [f64]) {
    assert_eq!(y.len(), out.len() * n, "row_sq_norms: Y is not m x n");
    if n == 0 {
        out.fill(0.0);
        return;
    }
    match policy {
        KernelPolicy::Naive => {
            for (o, row) in out.iter_mut().zip(y.chunks_exact(n)) {
                *o = vector::dot(row, row);
            }
        }
        _ => {
            let lv = simd::current_level();
            for (o, row) in out.iter_mut().zip(y.chunks_exact(n)) {
                *o = simd::dot(lv, row, row);
            }
        }
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

/// Blocked `C += A · B` over depth `k` for the row-major `n`-column `C`.
/// Per-element accumulation order depends only on the `(k, n)` tiling — never
/// on a row's position in its panel or in the matrix — so a driver that
/// splits a batch into row bands and calls the kernel once per band gets the
/// bits of the single call.  The `MR×NR` micro-kernel is
/// [`simd::microkernel`] at the level current on entry.
fn blocked_product<P: Panels>(p: &P, k: usize, n: usize, c: &mut [f64]) {
    let lv = simd::current_level();
    let m = c.len() / n;
    let mut pa = vec![0.0f64; MC.min(m.next_multiple_of(MR)) * KC.min(k)];
    let mut pb = vec![0.0f64; KC.min(k) * NC.min(n.next_multiple_of(NR))];
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
                            simd::microkernel(lv, pa_panel, pb_panel, depth, c, n, i, j);
                            continue;
                        }
                        edge.fill(0.0);
                        simd::microkernel(lv, pa_panel, pb_panel, depth, &mut edge, NR, 0, 0);
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
}

// ---------------------------------------------------------------------------
// GEMV
// ---------------------------------------------------------------------------

/// `y = A · x` (matrix-vector product).
pub fn matvec_with(policy: KernelPolicy, a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    matvec_into_with(policy, a, x, &mut y);
    y
}

/// `y = A · x` into an existing buffer.
pub fn matvec_into_with(policy: KernelPolicy, a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "matvec_into: dimension mismatch");
    assert_eq!(a.rows(), y.len(), "matvec_into: output dimension mismatch");
    record_kernel(&GEMV_CALLS, 2 * a.rows() * a.cols());
    match policy {
        KernelPolicy::Naive => {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = vector::dot(a.row(i), x);
            }
        }
        _ => {
            let lv = simd::current_level();
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = simd::dot(lv, a.row(i), x);
            }
        }
    }
}

/// `y = Aᵀ · x` without materializing the transpose.
pub fn matvec_transposed_with(policy: KernelPolicy, a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.cols()];
    matvec_transposed_into_with(policy, a, x, &mut y);
    y
}

/// `y = Aᵀ · x` into an existing buffer — one AXPY of `A`'s row `i` per entry
/// of `x`, front to back; allocates nothing.
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
    match policy {
        KernelPolicy::Naive => {
            for (i, &xi) in x.iter().enumerate() {
                vector::axpy(xi, a.row(i), y);
            }
        }
        _ => {
            let lv = simd::current_level();
            for (i, &xi) in x.iter().enumerate() {
                simd::axpy(lv, xi, a.row(i), y);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rank-1 updates and quadratic forms
// ---------------------------------------------------------------------------

/// Rank-1 update `A += alpha * x yᵀ` (BLAS GER).
///
/// Used to accumulate NN weight gradients `∂E/∂W += δ · xᵀ` and GMM scatter
/// contributions `γ (x−µ)(x−µ)ᵀ`.
pub fn ger_with(policy: KernelPolicy, alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) {
    assert_eq!(a.rows(), x.len(), "ger: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "ger: col dimension mismatch");
    record_kernel(&GER_CALLS, 2 * x.len() * a.cols());
    match policy {
        KernelPolicy::Naive => {
            // The reference path is branch-free: one AXPY per row.
            for (i, &xi) in x.iter().enumerate() {
                vector::axpy(alpha * xi, y, a.row_mut(i));
            }
        }
        _ => {
            let lv = simd::current_level();
            for (i, &xi) in x.iter().enumerate() {
                simd::axpy(lv, alpha * xi, y, a.row_mut(i));
            }
        }
    }
}

/// Outer product `x yᵀ` as a fresh matrix.
pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(x.len(), y.len());
    ger_with(KernelPolicy::Blocked, 1.0, x, y, &mut m);
    m
}

/// Quadratic form `xᵀ A y` evaluated without forming intermediates.  Both
/// arithmetics visit every row of `A`, zero entries of `x` included — the
/// dense path must not branch per element.
pub fn quadratic_form_with(policy: KernelPolicy, x: &[f64], a: &Matrix, y: &[f64]) -> f64 {
    assert_eq!(a.rows(), x.len(), "quadratic_form: row dimension mismatch");
    assert_eq!(a.cols(), y.len(), "quadratic_form: col dimension mismatch");
    let mut acc = 0.0;
    match policy {
        KernelPolicy::Naive => {
            for (i, &xi) in x.iter().enumerate() {
                acc += xi * vector::dot(a.row(i), y);
            }
        }
        _ => {
            let lv = simd::current_level();
            for (i, &xi) in x.iter().enumerate() {
                acc += xi * simd::dot(lv, a.row(i), y);
            }
        }
    }
    acc
}

/// Symmetric quadratic form `xᵀ A x`.
pub fn quadratic_form_sym_with(policy: KernelPolicy, x: &[f64], a: &Matrix) -> f64 {
    quadratic_form_with(policy, x, a, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdLevel;
    use crate::{approx_eq, policy};

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
        matmul_with(
            KernelPolicy::Blocked,
            &Matrix::zeros(2, 3),
            &Matrix::zeros(2, 3),
        );
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
            (257, 85, 85), // padded edge panels on both axes, MC remainder
            (6, 300, 26),  // straddles KC with a padded column panel
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
        // The drivers' row-band fan-out: one kernel call per band of A and C,
        // with a forced worker count so the split is genuine even on machines
        // where num_threads() == 1.  No band boundary may move a bit.
        let (m, k, n) = (37usize, 65usize, 29usize); // remainders on every axis
        let a = pseudo(m, k, 11);
        let b = pseudo(k, n, 12);
        let single = matmul_with(KernelPolicy::Blocked, &a, &b);
        let mut banded = vec![0.0; m * n];
        let bands =
            policy::par_row_bands_map_with_threads(4, &mut banded, n, MR, |first_row, band| {
                let rows = band.len() / n;
                let a_band = a.sub_block(first_row, first_row + rows, 0, k);
                let c_band = matmul_with(KernelPolicy::Blocked, &a_band, &b);
                band.copy_from_slice(c_band.as_slice());
            });
        assert_eq!(bands.len(), 4, "the split must be genuine");
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
                let mut reference = seed_c.clone();
                matmul_upper_acc_with(
                    KernelPolicy::Naive,
                    a.as_slice(),
                    &u,
                    reference.as_mut_slice(),
                );
                assert!(
                    reference.as_slice().iter().all(|v| v.is_finite()),
                    "naive read below the diagonal at {m}x{n}"
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
                matmul_acc_with(KernelPolicy::Naive, &a, &u0, &mut full);
                assert!(
                    reference.max_abs_diff(&full) < 1e-12,
                    "{m}x{n} vs full GEMM"
                );
                for p in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
                    let mut c = seed_c.clone();
                    matmul_upper_acc_with(p, a.as_slice(), &u, c.as_mut_slice());
                    let diff = reference.max_abs_diff(&c);
                    assert!(diff < 1e-12, "{p} diverged on {m}x{n}: {diff}");
                }
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
                let mut reference = seed_c.clone();
                syrk_upper_acc_with(
                    KernelPolicy::Naive,
                    x.as_slice(),
                    weights,
                    stride,
                    &mut reference,
                );
                // "today's GER order on the upper triangle": one full rank-1
                // update per row reproduces the naive upper triangle bit for bit
                let mut gers = seed_c.clone();
                for r in 0..m {
                    ger_with(
                        KernelPolicy::Naive,
                        weights[r * stride],
                        x.row(r),
                        x.row(r),
                        &mut gers,
                    );
                }
                let scale = 1.0 + max_abs(x.as_slice()).powi(2) * m as f64;
                for p in KernelPolicy::ALL {
                    let mut c = seed_c.clone();
                    syrk_upper_acc_with(p, x.as_slice(), weights, stride, &mut c);
                    for i in 0..n {
                        for j in 0..n {
                            if j < i {
                                assert!(c[(i, j)].is_nan(), "{p} wrote ({i},{j}) at {m}x{n}");
                                continue;
                            }
                            let diff = (c[(i, j)] - reference[(i, j)]).abs();
                            assert!(
                                diff < 1e-12 * scale,
                                "{p} diverged at ({i},{j}) on {m}x{n}: {diff}"
                            );
                        }
                    }
                }
                for i in 0..n {
                    for j in i..n {
                        assert_eq!(
                            reference[(i, j)].to_bits(),
                            gers[(i, j)].to_bits(),
                            "naive SYRK is not GER order at ({i},{j}) on {m}x{n}"
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
            let mut reference = Matrix::zeros(n, n);
            syrk_upper_acc_with(
                KernelPolicy::Naive,
                x.as_slice(),
                &weights,
                1,
                &mut reference,
            );
            let mut c = Matrix::zeros(n, n);
            syrk_upper_acc_with(KernelPolicy::Blocked, x.as_slice(), &weights, 1, &mut c);
            assert!(c.as_slice().iter().all(|v| v.is_finite()), "{label}");
            let diff = reference.max_abs_diff(&c);
            assert!(diff < 1e-12, "{label}: {diff}");
            if label == "zero" {
                assert_eq!(c, Matrix::zeros(n, n));
            }
        }
    }

    #[test]
    fn structured_products_are_bit_identical_across_bands_and_simd_levels() {
        let (m, n) = (261usize, 85usize); // remainders on every axis
        let a = pseudo(m, n, 70);
        let u = upper_with_nan_below(n, 71);
        let weights = pseudo_weights(m, 72);

        let upper = |policy: KernelPolicy| {
            let mut c = vec![0.0; m * n];
            matmul_upper_acc_with(policy, a.as_slice(), &u, &mut c);
            c
        };
        let syrk = |policy: KernelPolicy| {
            let mut c = Matrix::zeros(n, n);
            syrk_upper_acc_with(policy, a.as_slice(), &weights, 1, &mut c);
            c
        };
        // a genuine 4-way row-band split of the batch, also on a 1-core
        // machine: one kernel call per band, as the dense trainer issues them
        let mut banded = vec![0.0; m * n];
        policy::par_row_bands_map_with_threads(4, &mut banded, n, MR, |first_row, band| {
            let rows = first_row * n..first_row * n + band.len();
            matmul_upper_acc_with(KernelPolicy::Blocked, &a.as_slice()[rows], &u, band);
        });
        assert_eq!(
            upper(KernelPolicy::Blocked),
            banded,
            "band split changed bits"
        );
        // `BlockedParallel` is the blocked arithmetic
        assert_eq!(
            (upper(KernelPolicy::Blocked), syrk(KernelPolicy::Blocked)),
            (
                upper(KernelPolicy::BlockedParallel),
                syrk(KernelPolicy::BlockedParallel)
            )
        );
        let scalar = simd::with_level(SimdLevel::Scalar, || {
            (upper(KernelPolicy::Blocked), syrk(KernelPolicy::Blocked))
        });
        let lanes = simd::with_level(SimdLevel::Lanes, || {
            (upper(KernelPolicy::Blocked), syrk(KernelPolicy::Blocked))
        });
        assert_eq!(scalar, lanes, "SIMD off and lanes differ");
    }

    fn pseudo_weights(m: usize, salt: u64) -> Vec<f64> {
        crate::testutil::TestRng::new(salt).vec_in(m, 0.0, 1.0)
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
        matmul_upper_acc_with(KernelPolicy::Blocked, a.as_slice(), &u, &mut whole);
        for r in 0..m {
            let mut single = vec![0.0; n];
            matmul_upper_acc_with(KernelPolicy::Blocked, a.row(r), &u, &mut single);
            assert_eq!(&whole[r * n..(r + 1) * n], &single[..], "row {r}");
        }
    }

    #[test]
    fn row_sq_norms_match_dot_products() {
        let y = pseudo(7, 13, 90);
        for p in KernelPolicy::ALL {
            let mut out = vec![f64::NAN; 7];
            row_sq_norms_with(p, y.as_slice(), 13, &mut out);
            for (r, &v) in out.iter().enumerate() {
                assert!(v >= 0.0);
                assert!(approx_eq(v, vector::dot(y.row(r), y.row(r)), 1e-12), "{p}");
            }
        }
        let mut none: [f64; 0] = [];
        row_sq_norms_with(KernelPolicy::Blocked, &[], 5, &mut none);
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
    fn matvec_and_transpose() {
        for p in KernelPolicy::ALL {
            let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
            assert_eq!(matvec_with(p, &a, &[1.0, 1.0]), vec![3.0, 7.0, 11.0], "{p}");
            assert_eq!(
                matvec_transposed_with(p, &a, &[1.0, 1.0, 1.0]),
                vec![9.0, 12.0],
                "{p}"
            );
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

    /// The oracle visits every row like the blocked form does: a zero in `x`
    /// does not hide a non-finite row of `A` from one policy only.
    #[test]
    fn quadratic_form_policies_agree_on_a_non_finite_row_behind_a_zero() {
        let a = m(&[vec![f64::INFINITY, 1.0], vec![1.0, 2.0]]);
        for p in KernelPolicy::ALL {
            let q = quadratic_form_with(p, &[0.0, 1.0], &a, &[1.0, 1.0]);
            assert!(q.is_nan(), "{p}: 0·∞ must poison the sum, got {q}");
        }
    }

    #[test]
    fn matmul_associativity_small() {
        let a = m(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        let b = m(&[vec![3.0, 0.0], vec![1.0, 1.0]]);
        let c = m(&[vec![1.0, 1.0], vec![2.0, 0.0]]);
        let kp = KernelPolicy::Blocked;
        let left = matmul_with(kp, &matmul_with(kp, &a, &b), &c);
        let right = matmul_with(kp, &a, &matmul_with(kp, &b, &c));
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
