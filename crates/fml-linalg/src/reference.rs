//! The oracle: strictly sequential reference loops for the dense kernels of
//! [`crate::gemm`].
//!
//! Every function here accumulates left to right in index order, through
//! the frozen sequential [`vector`] kernels, with no tiling, packing or
//! lanes: the arithmetic the blocked kernels are tested against (within
//! rounding; they regroup additions but never change the multiplication
//! set) and the one the sparse exactness contracts of [`crate::sparse`] and
//! [`crate::csr`] are stated against (bit for bit on the densified row).
//! Nothing here is counted in the kernel registry metrics.
//!
//! Only tests, the kernel benches and the dense arm of
//! [`crate::BlockVec::quadratic_form_pair`] call these.  GER and the
//! transposed GEMV have no reference twin: they are element-wise AXPYs with
//! no reduction order to choose, so [`crate::gemm::ger`] and
//! [`crate::gemm::matvec_transposed`] serve as their own oracles.

use crate::matrix::Matrix;
use crate::vector;

/// `C += A · B`: the `i`-`k`-`j` triple loop, no zero-skip.  `a` and `c` are
/// row-major `m × k` and `m × n` with `(k, n) = b.shape()`.
///
/// # Panics
/// Panics when `a` / `c` do not have the shapes above.
pub fn matmul_acc(a: &[f64], b: &Matrix, c: &mut [f64]) {
    let (k, n) = b.shape();
    if c.is_empty() {
        return;
    }
    assert!(
        n > 0 && c.len().is_multiple_of(n),
        "reference::matmul_acc: output cols mismatch"
    );
    let m = c.len() / n;
    assert_eq!(
        a.len(),
        m * k,
        "reference::matmul_acc: inner dimension mismatch"
    );
    if k == 0 {
        return;
    }
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (kk, &aik) in arow.iter().enumerate() {
            vector::axpy(aik, b.row(kk), crow);
        }
    }
}

/// `C += A · U` for an upper-triangular `U`: the `i`-`k`-`j` loop restricted
/// to `j ≥ k`, so entries of `u` below the diagonal are never read.
///
/// # Panics
/// Panics when `u` is not square or `a` / `c` are not `m × n`.
pub fn matmul_upper_acc(a: &[f64], u: &Matrix, c: &mut [f64]) {
    assert!(
        u.is_square(),
        "reference::matmul_upper_acc: U must be square"
    );
    let n = u.rows();
    assert_eq!(
        a.len(),
        c.len(),
        "reference::matmul_upper_acc: shape mismatch"
    );
    if a.is_empty() {
        return;
    }
    for (arow, crow) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
        for (k, &aik) in arow.iter().enumerate() {
            vector::axpy(aik, &u.row(k)[k..], &mut crow[k..]);
        }
    }
}

/// The upper triangle of `C += Xᵀ · diag(γ) · X`, one rank-1 update per row
/// in GER order (`c[i][i..] += (γ_r·x_i)·x[i..]`), with `γ_r =
/// weights[r * stride]`.  Entries strictly below the diagonal are neither
/// read nor written.
///
/// # Panics
/// Panics when `c` is not square or `x` is not `m × n`.
pub fn syrk_upper_acc(x: &[f64], weights: &[f64], stride: usize, c: &mut Matrix) {
    assert!(c.is_square(), "reference::syrk_upper_acc: C must be square");
    let n = c.rows();
    if x.is_empty() {
        return;
    }
    for (r, xrow) in x.chunks_exact(n).enumerate() {
        let g = weights[r * stride];
        for (i, &xi) in xrow.iter().enumerate() {
            vector::axpy(g * xi, &xrow[i..], &mut c.row_mut(i)[i..]);
        }
    }
}

/// `out[r] = ‖Y_r‖²` for every row of the row-major `m × n` matrix `y`, each
/// summed sequentially.
///
/// # Panics
/// Panics when `y` is not `out.len() × n`.
pub fn row_sq_norms(y: &[f64], n: usize, out: &mut [f64]) {
    assert_eq!(
        y.len(),
        out.len() * n,
        "reference::row_sq_norms: Y is not m x n"
    );
    if n == 0 {
        out.fill(0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(y.chunks_exact(n)) {
        *o = vector::dot(row, row);
    }
}

/// `y = A · x`, one sequential dot product per row.
///
/// # Panics
/// Panics when `a.cols() != x.len()`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "reference::matvec: dimension mismatch");
    (0..a.rows()).map(|i| vector::dot(a.row(i), x)).collect()
}

/// `xᵀ A y`: per row of `A` — zero entries of `x` included — `x_i` times
/// the sequential dot of the row with `y`, summed in row order.
///
/// # Panics
/// Panics when `a` is not `x.len() × y.len()`.
pub fn quadratic_form(x: &[f64], a: &Matrix, y: &[f64]) -> f64 {
    assert_eq!(a.rows(), x.len(), "reference::quadratic_form: row mismatch");
    let mut acc = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        acc += xi * vector::dot(a.row(i), y);
    }
    acc
}
