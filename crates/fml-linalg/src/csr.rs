//! General CSR kernels for *weighted* sparse feature blocks.
//!
//! [`crate::sparse`] handles the one-hot case (every nonzero is exactly `1.0`,
//! fixed nnz per row); real normalized data also carries weighted sparse
//! numerics — TF-IDF-ish encodings, scaled indicators, near-sparse measure
//! columns — with arbitrary values and variable row support.  This module
//! generalizes the gather/scatter machinery to compressed sparse rows:
//!
//! * a single sparse **row** is `(idx, vals)` — ascending column indices plus
//!   the matching nonzero values;
//! * a sparse **block** of rows is a [`CsrBlock`] (`values` + `col_idx` +
//!   `row_ptr`), the classic CSR triplet.
//!
//! ## Exactness contract
//!
//! Every kernel here performs the same multiplications as the dense
//! [`KernelPolicy::Naive`] reference, in the same ascending-index order; the
//! only terms skipped are products with an exactly-`0.0` operand, which
//! contribute an exact `±0.0` to the dense accumulation.  The results are
//! therefore equal (under `f64` comparison, which identifies `-0.0 == 0.0`) to
//! the dense naive oracle — the property tests in `tests/proptests.rs` assert
//! this under **every** policy: the `_with` variants take one for API
//! uniformity with [`crate::gemm`] and run the same sequential loops under
//! each.
//!
//! ## Detection
//!
//! [`csr_indices`] recognizes a dense slice that is profitably sparse but not
//! one-hot: occupancy at most [`MAX_CSR_OCCUPANCY_NUM`]`/`[`MAX_CSR_OCCUPANCY_DEN`]
//! (¼ — the weighted kernels still pay one multiply per nonzero, so the
//! break-even occupancy is lower than the multiply-free one-hot cutoff of ½).
//! The shared trainer gate is [`crate::sparse::SparseMode::detect`], which
//! tries the one-hot form first and falls back to CSR.

use crate::matrix::Matrix;
use crate::policy::KernelPolicy;
use crate::simd;

/// Total number of CSR kernel invocations in this process (monotonic) — the
/// weighted-sparse counterpart of [`crate::sparse::onehot_kernel_calls`],
/// held as the `fml_sparse_csr_kernel_calls_total` registry counter and
/// recorded unconditionally in every `FML_OBS` mode.
static CSR_KERNEL_CALLS: fml_obs::LazyCounter =
    fml_obs::LazyCounter::new("fml_sparse_csr_kernel_calls_total");

#[inline]
fn count_call() {
    CSR_KERNEL_CALLS.get().inc();
}

/// Records one CSR kernel invocation performed outside this module (the
/// block-dispatch methods in [`crate::block`] call this for their CSR arms).
#[inline]
pub fn record_csr_call() {
    count_call();
}

/// Reads the process-global CSR kernel invocation counter.
pub fn csr_kernel_calls() -> u64 {
    CSR_KERNEL_CALLS.get().get()
}

/// Maximum occupancy (`nnz / width`) at which [`csr_indices`] still reports a
/// slice as worth treating as weighted-sparse.
pub const MAX_CSR_OCCUPANCY_NUM: usize = 1;
/// Denominator of the CSR detection cutoff (`nnz/width ≤ 1/4`).
pub const MAX_CSR_OCCUPANCY_DEN: usize = 4;

/// Returns the ascending nonzero `(indices, values)` of `x` when the slice is
/// sparse enough to profit from the weighted kernels (occupancy ≤ ¼).  Returns
/// `None` otherwise.  Callers that also want the cheaper one-hot form should
/// try [`crate::sparse::onehot_indices`] first — 0/1 data at ≤ ½ occupancy is
/// better served there.
pub fn csr_indices(x: &[f64]) -> Option<(Vec<u32>, Vec<f64>)> {
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    let cutoff = x.len() * MAX_CSR_OCCUPANCY_NUM / MAX_CSR_OCCUPANCY_DEN;
    for (i, &v) in x.iter().enumerate() {
        if v != 0.0 {
            if idx.len() >= cutoff {
                return None; // too dense, bail before scanning the rest
            }
            idx.push(i as u32);
            vals.push(v);
        }
    }
    Some((idx, vals))
}

/// A compressed-sparse-row block: `rows()` sparse rows over `cols` columns.
///
/// Row `r` holds `col_idx[row_ptr[r]..row_ptr[r+1]]` (ascending) with values
/// `values[row_ptr[r]..row_ptr[r+1]]`.  Row supports may differ — the
/// generalization over [`crate::sparse`]'s fixed-nnz one-hot layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrBlock {
    values: Vec<f64>,
    col_idx: Vec<u32>,
    row_ptr: Vec<usize>,
    cols: usize,
}

impl CsrBlock {
    /// Builds a block from the raw CSR triplet.
    ///
    /// # Panics
    /// Panics when the triplet is inconsistent: `row_ptr` must start at 0, be
    /// non-decreasing and end at `values.len()`; `values` and `col_idx` must
    /// have equal length; every row's indices must be strictly ascending and
    /// in range.
    pub fn new(values: Vec<f64>, col_idx: Vec<u32>, row_ptr: Vec<usize>, cols: usize) -> Self {
        assert_eq!(
            values.len(),
            col_idx.len(),
            "CsrBlock: values/col_idx length mismatch"
        );
        assert!(!row_ptr.is_empty(), "CsrBlock: row_ptr must not be empty");
        assert_eq!(row_ptr[0], 0, "CsrBlock: row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap(),
            values.len(),
            "CsrBlock: row_ptr must end at nnz"
        );
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "CsrBlock: row_ptr must be non-decreasing");
            let row = &col_idx[w[0]..w[1]];
            for pair in row.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "CsrBlock: column indices must be strictly ascending per row"
                );
            }
            if let Some(&last) = row.last() {
                assert!(
                    (last as usize) < cols,
                    "CsrBlock: column index {last} out of range for width {cols}"
                );
            }
        }
        Self {
            values,
            col_idx,
            row_ptr,
            cols,
        }
    }

    /// Compresses a dense matrix, keeping every nonzero entry.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut values = Vec::new();
        let mut col_idx = Vec::new();
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        row_ptr.push(0);
        for r in 0..m.rows() {
            for (j, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    values.push(v);
                    col_idx.push(j as u32);
                }
            }
            row_ptr.push(values.len());
        }
        Self {
            values,
            col_idx,
            row_ptr,
            cols: m.cols(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns (the encoded block width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of the dense `rows × cols` layout that is stored (`1.0` for an
    /// empty shape, mirroring `FeatureBlock::occupancy`).
    pub fn occupancy(&self) -> f64 {
        let dense = self.rows() * self.cols;
        if dense == 0 {
            return 1.0;
        }
        self.nnz() as f64 / dense as f64
    }

    /// Row `r` as `(indices, values)`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Expands to a dense matrix (tests and oracles).
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            let (idx, vals) = self.row(r);
            let row = m.row_mut(r);
            for (&j, &v) in idx.iter().zip(vals.iter()) {
                row[j as usize] = v;
            }
        }
        m
    }
}

#[inline]
fn check_row(idx: &[u32], vals: &[f64], bound: usize, what: &str) {
    assert_eq!(idx.len(), vals.len(), "{what}: index/value length mismatch");
    for &i in idx {
        assert!(
            (i as usize) < bound,
            "{what}: index {i} out of range for width {bound}"
        );
    }
}

// ---------------------------------------------------------------------------
// Gathers (products that READ selected rows/columns, weighted)
// ---------------------------------------------------------------------------

/// `x · v = Σ_t vals[t] · v[idx[t]]` — the weighted counterpart of
/// [`crate::sparse::gather_sum`].
///
/// Runs through [`simd::gather_dot`]: the bit-exact levels keep the strictly
/// sequential accumulation the exactness contract requires; the opt-in FMA
/// level vectorizes the gather (tolerance-equal).
#[inline]
pub fn gather_dot(v: &[f64], idx: &[u32], vals: &[f64]) -> f64 {
    count_call();
    simd::gather_dot(simd::current_level(), v, idx, vals)
}

/// `y = A · x` for sparse `x`: each output element sums its row's selected
/// entries scaled by the matching values, in ascending index order — the
/// exact nonzero subsequence of the naive dense GEMV.
pub fn matvec_csr_with(_policy: KernelPolicy, a: &Matrix, idx: &[u32], vals: &[f64]) -> Vec<f64> {
    check_row(idx, vals, a.cols(), "matvec_csr");
    count_call();
    let lv = simd::current_level();
    (0..a.rows())
        .map(|i| simd::gather_dot(lv, a.row(i), idx, vals))
        .collect()
}

/// `y = Aᵀ · x` for sparse `x`, into an existing buffer:
/// `Σ_t vals[t]·A.row(idx[t])`, added to a zeroed `y` front-to-back in index
/// order — the naive dense transposed GEMV with the zero AXPYs skipped.
pub fn matvec_transposed_csr_into_with(
    _policy: KernelPolicy,
    a: &Matrix,
    idx: &[u32],
    vals: &[f64],
    y: &mut [f64],
) {
    assert_eq!(
        a.cols(),
        y.len(),
        "matvec_transposed_csr: output dimension mismatch"
    );
    check_row(idx, vals, a.rows(), "matvec_transposed_csr");
    count_call();
    let lv = simd::current_level();
    y.fill(0.0);
    for (&i, &w) in idx.iter().zip(vals.iter()) {
        simd::axpy(lv, w, a.row(i as usize), y);
    }
}

/// CSR × dense product `C += X · B`: each output row of `C` accumulates
/// `vals[t] · B.row(idx[t])` in ascending index order — the exact nonzero
/// subsequence of the naive dense GEMM's `i`-`k`-`j` loop.
///
/// # Panics
/// Panics when the shapes disagree (`x.rows() == c.rows()`,
/// `x.cols() == b.rows()`, `b.cols() == c.cols()`).
pub fn spmm_csr_with(_policy: KernelPolicy, x: &CsrBlock, b: &Matrix, c: &mut Matrix) {
    assert_eq!(x.rows(), c.rows(), "spmm_csr: output rows mismatch");
    assert_eq!(x.cols(), b.rows(), "spmm_csr: inner dimension mismatch");
    assert_eq!(b.cols(), c.cols(), "spmm_csr: output cols mismatch");
    count_call();
    let n = b.cols();
    if x.rows() == 0 || n == 0 {
        return;
    }
    let lv = simd::current_level();
    for (r, crow) in c.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let (idx, vals) = x.row(r);
        for (&k, &w) in idx.iter().zip(vals.iter()) {
            simd::axpy(lv, w, b.row(k as usize), crow);
        }
    }
}

// ---------------------------------------------------------------------------
// Scatters (rank-1 updates that WRITE selected rows/columns, weighted)
// ---------------------------------------------------------------------------

/// `A += alpha · x yᵀ` for sparse `x`: adds `(alpha·vals[t]) · y` to row
/// `idx[t]` — the naive dense GER restricted to the nonzero rows, same scaling
/// order (`alpha * x_i` first, then times `y_j`).
pub fn ger_csr_with(
    _policy: KernelPolicy,
    alpha: f64,
    idx: &[u32],
    vals: &[f64],
    y: &[f64],
    a: &mut Matrix,
) {
    assert_eq!(a.cols(), y.len(), "ger_csr: col dimension mismatch");
    check_row(idx, vals, a.rows(), "ger_csr");
    count_call();
    let lv = simd::current_level();
    for (&i, &w) in idx.iter().zip(vals.iter()) {
        simd::axpy(lv, alpha * w, y, a.row_mut(i as usize));
    }
}

/// `A[i][j] += alpha · x_i · y_j` over the nonzero index pairs — the outer
/// product of two sparse rows, scattered directly into the accumulator with
/// the dense GER's scaling order (`s = alpha·x_i`, then `s·y_j`).
pub fn scatter_csr_pair(
    alpha: f64,
    rows_idx: &[u32],
    rows_vals: &[f64],
    cols_idx: &[u32],
    cols_vals: &[f64],
    a: &mut Matrix,
) {
    check_row(rows_idx, rows_vals, a.rows(), "scatter_csr_pair rows");
    check_row(cols_idx, cols_vals, a.cols(), "scatter_csr_pair cols");
    count_call();
    for (&i, &xi) in rows_idx.iter().zip(rows_vals.iter()) {
        let row = a.row_mut(i as usize);
        let s = alpha * xi;
        for (&j, &yj) in cols_idx.iter().zip(cols_vals.iter()) {
            row[j as usize] += s * yj;
        }
    }
}

/// `x[idx[t]] += alpha · vals[t]` — AXPY with a sparse right-hand side.
/// Runs through [`simd::scatter_axpy`] (scalar at the bit-exact levels, fused
/// multiply-adds in FMA mode).
pub fn axpy_csr(alpha: f64, idx: &[u32], vals: &[f64], x: &mut [f64]) {
    check_row(idx, vals, x.len(), "axpy_csr");
    count_call();
    simd::scatter_axpy(simd::current_level(), alpha, idx, vals, x);
}

// ---------------------------------------------------------------------------
// Quadratic forms
// ---------------------------------------------------------------------------

/// `xᵀ A y` for sparse `x` **and** sparse `y`:
/// `Σ_t vals[t] · (Σ_u A[i_t][j_u]·yvals[u])` — `nnz_x · nnz_y` multiply-adds.
pub fn quadratic_form_csr_pair(
    rows_idx: &[u32],
    rows_vals: &[f64],
    a: &Matrix,
    cols_idx: &[u32],
    cols_vals: &[f64],
) -> f64 {
    check_row(
        rows_idx,
        rows_vals,
        a.rows(),
        "quadratic_form_csr_pair rows",
    );
    check_row(
        cols_idx,
        cols_vals,
        a.cols(),
        "quadratic_form_csr_pair cols",
    );
    count_call();
    // The inner sum is itself a gather: `Σ_u A[i][j_u]·yvals[u]`.  Routing it
    // through the SIMD layer keeps sequential bits at the exact levels and
    // vectorizes the gather−µᵀw cross terms of the factorized GMM in FMA mode.
    let lv = simd::current_level();
    let mut acc = 0.0;
    for (&i, &xi) in rows_idx.iter().zip(rows_vals.iter()) {
        let inner = simd::gather_dot(lv, a.row(i as usize), cols_idx, cols_vals);
        acc += xi * inner;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm, vector};

    fn pseudo(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut rng = crate::testutil::TestRng::new(salt);
        Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
    }

    fn densify(idx: &[u32], vals: &[f64], width: usize) -> Vec<f64> {
        let mut v = vec![0.0; width];
        for (&i, &w) in idx.iter().zip(vals.iter()) {
            v[i as usize] = w;
        }
        v
    }

    #[test]
    fn detection_accepts_sparse_and_rejects_dense() {
        // 2 nonzeros of 8 (25%) qualifies exactly at the cutoff
        let x = [0.0, 1.5, 0.0, 0.0, -0.3, 0.0, 0.0, 0.0];
        assert_eq!(csr_indices(&x), Some((vec![1, 4], vec![1.5, -0.3])));
        // 3 of 8 is too dense
        assert_eq!(csr_indices(&[1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]), None);
        // all-zero slices qualify (empty row)
        assert_eq!(csr_indices(&[0.0; 4]), Some((vec![], vec![])));
        assert_eq!(csr_indices(&[]), Some((vec![], vec![])));
        // short slices where the cutoff rounds to zero reject any nonzero
        assert_eq!(csr_indices(&[1.0, 0.0]), None);
    }

    #[test]
    fn csr_block_geometry_and_round_trip() {
        let m = Matrix::from_rows(&[
            vec![0.0, 2.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![-1.0, 0.0, 0.0, 0.5],
        ]);
        let b = CsrBlock::from_dense(&m);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 4);
        assert_eq!(b.nnz(), 3);
        assert_eq!(b.occupancy(), 0.25);
        assert_eq!(b.row(0), (&[1u32][..], &[2.0][..]));
        assert_eq!(b.row(1), (&[][..], &[][..]));
        assert_eq!(b.to_matrix(), m);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn csr_block_rejects_unsorted_rows() {
        CsrBlock::new(vec![1.0, 2.0], vec![3, 1], vec![0, 2], 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn csr_block_rejects_out_of_range_index() {
        CsrBlock::new(vec![1.0], vec![4], vec![0, 1], 4);
    }

    #[test]
    fn gathers_match_dense_naive() {
        let a = pseudo(9, 7, 1);
        let idx = [1u32, 4, 6];
        let vals = [0.5, -2.0, 1.25];
        let x = densify(&idx, &vals, 7);
        let xr = densify(&idx, &vals, 9);
        for p in KernelPolicy::ALL {
            let dense = gemm::matvec_with(KernelPolicy::Naive, &a, &x);
            assert_eq!(matvec_csr_with(p, &a, &idx, &vals), dense, "{p}");
            let dense_t = gemm::matvec_transposed_with(KernelPolicy::Naive, &a, &xr);
            let mut gathered = vec![f64::NAN; 7];
            matvec_transposed_csr_into_with(p, &a, &idx, &vals, &mut gathered);
            assert_eq!(gathered, dense_t, "{p}");
        }
        assert_eq!(gather_dot(&[1.0, 2.0, 3.0], &[0, 2], &[2.0, -1.0]), -1.0);
    }

    #[test]
    fn spmm_matches_dense_naive() {
        let b = pseudo(9, 5, 2);
        let mut dense_x = Matrix::zeros(4, 9);
        dense_x[(0, 3)] = 1.5;
        dense_x[(0, 7)] = -0.25;
        // row 1 empty
        dense_x[(2, 0)] = 2.0;
        dense_x[(3, 8)] = -3.0;
        let x = CsrBlock::from_dense(&dense_x);
        let seed = pseudo(4, 5, 3);
        let mut reference = seed.clone();
        gemm::matmul_acc_with(KernelPolicy::Naive, &dense_x, &b, &mut reference);
        for p in KernelPolicy::ALL {
            let mut c = seed.clone();
            spmm_csr_with(p, &x, &b, &mut c);
            assert_eq!(c, reference, "{p}");
        }
    }

    #[test]
    fn scatters_match_dense_naive() {
        let idx = [2u32, 5];
        let vals = [1.5, -0.5];
        let y = crate::testutil::TestRng::new(3).vec_in(6, -1.0, 1.0);
        let x_rows = densify(&idx, &vals, 8);
        for p in KernelPolicy::ALL {
            let mut dense = pseudo(8, 6, 4);
            let mut sparse = dense.clone();
            gemm::ger_with(KernelPolicy::Naive, 0.7, &x_rows, &y, &mut dense);
            ger_csr_with(p, 0.7, &idx, &vals, &y, &mut sparse);
            assert_eq!(dense, sparse, "{p}");
        }
    }

    #[test]
    fn pair_scatter_and_axpy_match_dense() {
        let ridx = [1u32, 3];
        let rvals = [2.0, -1.0];
        let cidx = [0u32, 2];
        let cvals = [0.5, 4.0];
        let xr = densify(&ridx, &rvals, 4);
        let yc = densify(&cidx, &cvals, 4);
        let mut dense = pseudo(4, 4, 7);
        let mut sparse = dense.clone();
        gemm::ger_with(KernelPolicy::Naive, 0.5, &xr, &yc, &mut dense);
        scatter_csr_pair(0.5, &ridx, &rvals, &cidx, &cvals, &mut sparse);
        assert_eq!(dense, sparse);

        let mut v = vec![1.0; 4];
        let mut dense_v = v.clone();
        axpy_csr(2.0, &cidx, &cvals, &mut v);
        vector::axpy(2.0, &yc, &mut dense_v);
        assert_eq!(v, dense_v);
    }

    #[test]
    fn quadratic_forms_match_dense_naive() {
        let a = pseudo(7, 7, 8);
        let idx = [0u32, 2, 6];
        let vals = [1.1, -0.4, 2.5];
        let x = densify(&idx, &vals, 7);
        let jdx = [1u32, 5];
        let jvals = [3.0, -0.25];
        let yj = densify(&jdx, &jvals, 7);
        let dense_pair = gemm::quadratic_form_with(KernelPolicy::Naive, &x, &a, &yj);
        let sparse_pair = quadratic_form_csr_pair(&idx, &vals, &a, &jdx, &jvals);
        assert_eq!(dense_pair, sparse_pair);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let a = pseudo(4, 4, 10);
        let kp = KernelPolicy::Blocked;
        assert_eq!(matvec_csr_with(kp, &a, &[], &[]), vec![0.0; 4]);
        let mut gathered = vec![f64::NAN; 4];
        matvec_transposed_csr_into_with(KernelPolicy::Naive, &a, &[], &[], &mut gathered);
        assert_eq!(gathered, vec![0.0; 4]);
        assert_eq!(quadratic_form_csr_pair(&[], &[], &a, &[], &[]), 0.0);
        let empty = CsrBlock::new(vec![], vec![], vec![0, 0], 4);
        assert_eq!(empty.rows(), 1);
        let mut c = Matrix::zeros(1, 4);
        spmm_csr_with(kp, &empty, &a, &mut c);
        assert_eq!(c, Matrix::zeros(1, 4));
        let mut m = pseudo(4, 4, 11);
        let before = m.clone();
        ger_csr_with(kp, 1.0, &[], &[], &[0.0; 4], &mut m);
        assert_eq!(m, before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let a = Matrix::zeros(3, 3);
        let _ = matvec_csr_with(KernelPolicy::Blocked, &a, &[3], &[1.0]);
    }

    #[test]
    fn kernel_counter_is_monotonic() {
        let before = csr_kernel_calls();
        let _ = gather_dot(&[1.0], &[0], &[2.0]);
        assert!(csr_kernel_calls() > before);
    }
}
