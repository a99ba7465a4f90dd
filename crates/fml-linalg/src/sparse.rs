//! One-hot / sparse kernels for categorical feature blocks.
//!
//! The paper's "Sparse" workloads one-hot encode categorical attributes, so a
//! width-`d` feature block carries only `s ≪ d` nonzeros per row — and every
//! nonzero is exactly `1.0`.  The kernels here exploit that structure directly:
//! a one-hot row is represented as its sorted **active column indices**
//! (`&[u32]`), and every dense multiply against such a row degenerates into a
//! gather (read the selected rows/columns) or a scatter-add (write the selected
//! rows/columns).  No multiplications are performed at all.
//!
//! ## Exactness contract
//!
//! Each kernel accumulates in **ascending index order**, which is exactly the
//! order in which the naive dense kernels visit the same nonzero terms.
//! Because the nonzero values are `1.0` (`1.0 * b == b` bitwise) and skipped
//! terms contribute an exact `±0.0`, every kernel in this module reproduces the
//! dense [`KernelPolicy::Naive`] reference **bit-for-bit** on one-hot inputs
//! (the property tests in `tests/proptests.rs` assert this).  The `_with`
//! variants accept a policy for API uniformity with [`crate::gemm`]; every
//! policy runs the same sequential loops, so the bit-exactness guarantee holds
//! under *every* policy — a stronger contract than the dense kernels offer.
//!
//! ## Representation helpers
//!
//! [`onehot_indices`] recognizes a dense slice that is secretly one-hot (all
//! entries `0.0`/`1.0`, occupancy ≤ ½) and returns its index form; the trainers
//! use it to engage the sparse path automatically ([`SparseMode::Auto`]).
//! [`BlockVec`] is the typed per-block view (`Dense` slice vs `OneHot`
//! indices) that [`crate::block::BlockScatter`] dispatches on.

use crate::csr;
use crate::matrix::Matrix;
use crate::policy::KernelPolicy;
use crate::simd;

/// How a trainer decides between the dense and sparse kernel paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparseMode {
    /// Detect sparse blocks at scan time — one-hot first
    /// ([`onehot_indices`], 0/1 values at ≤ ½ occupancy), weighted CSR second
    /// ([`csr::csr_indices`], any values at ≤ ¼ occupancy) — and route them
    /// through the sparse kernels.  The default.
    #[default]
    Auto,
    /// Always use the dense kernels, even for sparse blocks.  Used as the
    /// comparison baseline by the equivalence tests and the bench sweeps.
    Dense,
}

/// Number of [`SparseMode::detect`] invocations in this process (monotonic).
///
/// The trainers cache detection per tuple; the regression tests use the delta
/// of this counter to prove that an EM iteration / epoch does **not** rescan
/// immutable data (detection runs at most once per tuple, not once per pass).
static DETECT_CALLS: fml_obs::LazyCounter =
    fml_obs::LazyCounter::new("fml_sparse_detect_calls_total");

/// Reads the process-global detection-invocation counter (an `fml-obs`
/// registry counter, `fml_sparse_detect_calls_total` — recorded
/// unconditionally so the counter-delta tests hold in every `FML_OBS` mode).
pub fn detect_calls() -> u64 {
    DETECT_CALLS.get().get()
}

/// An owned sparse representation of one feature row, as produced by
/// [`SparseMode::detect`] and cached per tuple by the trainers.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseRep {
    /// Ascending active indices; every active value is exactly `1.0`.
    OneHot(Vec<u32>),
    /// Ascending nonzero indices with their (arbitrary) values.
    Csr {
        /// Ascending column indices of the nonzeros.
        idx: Vec<u32>,
        /// The nonzero values, matching `idx`.
        vals: Vec<f64>,
    },
}

impl SparseRep {
    /// Borrows the representation as a [`BlockVec`] for the block-dispatch
    /// methods in [`crate::block`].
    pub fn as_block_vec(&self) -> BlockVec<'_> {
        match self {
            SparseRep::OneHot(idx) => BlockVec::OneHot(idx),
            SparseRep::Csr { idx, vals } => BlockVec::Csr { idx, vals },
        }
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        match self {
            SparseRep::OneHot(idx) => idx.len(),
            SparseRep::Csr { idx, .. } => idx.len(),
        }
    }

    /// `x · v` for this sparse `x` and a dense `v` — a gather-sum for one-hot
    /// rows, a weighted gather for CSR rows.
    pub fn gather_dot(&self, v: &[f64]) -> f64 {
        match self {
            SparseRep::OneHot(idx) => gather_sum(v, idx),
            SparseRep::Csr { idx, vals } => csr::gather_dot(v, idx, vals),
        }
    }

    /// `out[i] += alpha · x[i]` over the nonzeros of this sparse `x`.
    pub fn axpy_into(&self, alpha: f64, out: &mut [f64]) {
        match self {
            SparseRep::OneHot(idx) => axpy_onehot(alpha, idx, out),
            SparseRep::Csr { idx, vals } => csr::axpy_csr(alpha, idx, vals, out),
        }
    }

    /// `A · x` for this sparse `x` (a column gather for one-hot rows).
    pub fn matvec(&self, kp: KernelPolicy, a: &Matrix) -> Vec<f64> {
        match self {
            SparseRep::OneHot(idx) => matvec_onehot_with(kp, a, idx),
            SparseRep::Csr { idx, vals } => csr::matvec_csr_with(kp, a, idx, vals),
        }
    }

    /// `Aᵀ · x` for this sparse `x` (a row gather for one-hot rows).
    pub fn matvec_transposed(&self, kp: KernelPolicy, a: &Matrix) -> Vec<f64> {
        let mut y = vec![0.0; a.cols()];
        self.matvec_transposed_into(kp, a, &mut y);
        y
    }

    /// [`Self::matvec_transposed`] into an existing buffer — the NN
    /// first-layer gather over an embedding table (`a`'s row `j` holds the
    /// weights of input column `j`).
    pub fn matvec_transposed_into(&self, kp: KernelPolicy, a: &Matrix, y: &mut [f64]) {
        match self {
            SparseRep::OneHot(idx) => matvec_transposed_onehot_into_with(kp, a, idx, y),
            SparseRep::Csr { idx, vals } => {
                csr::matvec_transposed_csr_into_with(kp, a, idx, vals, y)
            }
        }
    }

    /// `A += alpha · x yᵀ` for this sparse `x` — the NN first-layer gradient
    /// row scatter into an embedding-table-shaped accumulator.
    pub fn ger(&self, kp: KernelPolicy, alpha: f64, y: &[f64], a: &mut Matrix) {
        match self {
            SparseRep::OneHot(idx) => ger_onehot_with(kp, alpha, idx, y, a),
            SparseRep::Csr { idx, vals } => csr::ger_csr_with(kp, alpha, idx, vals, y, a),
        }
    }

    /// `xᵀ A x` for this sparse `x` — the raw (uncentered) diagonal quadratic
    /// form used by the mean decomposition.
    pub fn quadratic_form_pair(&self, a: &Matrix) -> f64 {
        match self {
            SparseRep::OneHot(idx) => quadratic_form_onehot_pair(idx, a, idx),
            SparseRep::Csr { idx, vals } => csr::quadratic_form_csr_pair(idx, vals, a, idx, vals),
        }
    }

    /// `A += alpha · x xᵀ` over the nonzero index pairs of this sparse `x` —
    /// the raw scatter of the M-step mean decomposition.
    pub fn scatter_pair(&self, alpha: f64, a: &mut Matrix) {
        match self {
            SparseRep::OneHot(idx) => scatter_onehot_pair(alpha, idx, idx, a),
            SparseRep::Csr { idx, vals } => csr::scatter_csr_pair(alpha, idx, vals, idx, vals, a),
        }
    }
}

impl SparseMode {
    /// Short lowercase label (`auto` / `dense`).
    pub fn label(self) -> &'static str {
        match self {
            SparseMode::Auto => "auto",
            SparseMode::Dense => "dense",
        }
    }

    /// The trainers' detection gate: under `Auto`, tries [`onehot_indices`]
    /// first (multiply-free kernels, ≤ ½ occupancy) and falls back to
    /// [`csr::csr_indices`] (weighted kernels, ≤ ¼ occupancy); always `None`
    /// under `Dense`.  Lives here so every trainer shares one detection
    /// policy.  Each call bumps [`detect_calls`] — callers are expected to
    /// cache the result per tuple rather than re-detect per pass.
    pub fn detect(self, features: &[f64]) -> Option<SparseRep> {
        match self {
            SparseMode::Auto => {
                DETECT_CALLS.get().inc();
                if let Some(idx) = onehot_indices(features) {
                    return Some(SparseRep::OneHot(idx));
                }
                csr::csr_indices(features).map(|(idx, vals)| SparseRep::Csr { idx, vals })
            }
            SparseMode::Dense => None,
        }
    }
}

/// Total number of one-hot kernel invocations in this process (monotonic).
///
/// The trainer integration tests use the delta of this counter to prove that
/// the sparse path actually engaged (or stayed silent under
/// [`SparseMode::Dense`]).  Monotonic and process-global, so concurrent tests
/// can only *increase* deltas — assertions should use `>=` / `== 0` patterns
/// inside single-test binaries.
static ONEHOT_KERNEL_CALLS: fml_obs::LazyCounter =
    fml_obs::LazyCounter::new("fml_sparse_onehot_kernel_calls_total");

#[inline]
fn count_call() {
    ONEHOT_KERNEL_CALLS.get().inc();
}

/// Records one one-hot kernel invocation performed outside this module (the
/// block-dispatch methods in [`crate::block`] call this for their one-hot arms).
#[inline]
pub fn record_onehot_call() {
    count_call();
}

/// Reads the process-global one-hot kernel invocation counter (the
/// `fml_sparse_onehot_kernel_calls_total` registry counter, recorded
/// unconditionally in every `FML_OBS` mode).
pub fn onehot_kernel_calls() -> u64 {
    ONEHOT_KERNEL_CALLS.get().get()
}

/// Maximum occupancy (`nnz / width`) at which [`onehot_indices`] still reports
/// a slice as one-hot.  Above half occupancy the dense kernels win on memory
/// traffic, so detection declines even for genuinely 0/1-valued data.
pub const MAX_AUTO_OCCUPANCY_NUM: usize = 1;
/// Denominator of the auto-detection occupancy cutoff (`nnz/width ≤ 1/2`).
pub const MAX_AUTO_OCCUPANCY_DEN: usize = 2;

/// Returns the ascending active indices of `x` when it is a one-hot block
/// worth treating sparsely: every entry exactly `0.0` or `1.0` and occupancy
/// at most ½.  Empty slices qualify (zero indices).  Returns `None` for
/// anything else — including 0/1 data that is too dense to profit.
pub fn onehot_indices(x: &[f64]) -> Option<Vec<u32>> {
    let mut idx = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        if v == 1.0 {
            idx.push(i as u32);
        } else if v != 0.0 {
            return None;
        }
    }
    if idx.len() * MAX_AUTO_OCCUPANCY_DEN > x.len() * MAX_AUTO_OCCUPANCY_NUM {
        return None;
    }
    Some(idx)
}

/// A per-relation block of one feature vector, in whichever representation the
/// data actually has.  [`crate::block::BlockScatter::add_outer_rep`]
/// dispatches on this.
#[derive(Debug, Clone, Copy)]
pub enum BlockVec<'a> {
    /// A dense slice of block width.
    Dense(&'a [f64]),
    /// Sorted active indices of a one-hot block (every active value is `1.0`).
    OneHot(&'a [u32]),
    /// Sorted nonzero indices of a weighted-sparse block with their values.
    Csr {
        /// Ascending column indices of the nonzeros.
        idx: &'a [u32],
        /// The nonzero values, matching `idx`.
        vals: &'a [f64],
    },
}

impl<'a> BlockVec<'a> {
    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        match self {
            BlockVec::Dense(x) => x.iter().filter(|&&v| v != 0.0).count(),
            BlockVec::OneHot(idx) => idx.len(),
            BlockVec::Csr { idx, .. } => idx.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Gathers (products that READ selected rows/columns)
// ---------------------------------------------------------------------------

/// `Σ_{i ∈ idx} v[i]` — the dot product `x · v` for one-hot `x`.
///
/// # Panics
/// Panics when any index is out of range.
#[inline]
pub fn gather_sum(v: &[f64], idx: &[u32]) -> f64 {
    count_call();
    let mut acc = 0.0;
    for &i in idx {
        acc += v[i as usize];
    }
    acc
}

/// `y = A · x` for one-hot `x`: the sum of the columns of `A` selected by
/// `idx`.
pub fn matvec_onehot_with(policy: KernelPolicy, a: &Matrix, idx: &[u32]) -> Vec<f64> {
    let mut y = vec![0.0; a.rows()];
    matvec_onehot_acc_with(policy, a, idx, &mut y);
    y
}

/// `y += A · x` for one-hot `x` (column gather-sum).
///
/// Row-major `A` is walked row by row; each output element accumulates its
/// row's selected entries in ascending index order, matching the naive dense
/// GEMV term order bit-for-bit.
pub fn matvec_onehot_acc_with(_policy: KernelPolicy, a: &Matrix, idx: &[u32], y: &mut [f64]) {
    assert_eq!(
        a.rows(),
        y.len(),
        "matvec_onehot: output dimension mismatch"
    );
    check_indices(idx, a.cols(), "matvec_onehot");
    count_call();
    for (i, yi) in y.iter_mut().enumerate() {
        let row = a.row(i);
        let mut acc = 0.0;
        for &j in idx {
            acc += row[j as usize];
        }
        *yi += acc;
    }
}

/// `y = Aᵀ · x` for one-hot `x`, into an existing buffer: the sum of the
/// **rows** of `A` selected by `idx`.
///
/// Rows are added to a zeroed `y` front-to-back in index order (the same
/// order as the naive dense transposed GEMV visits its nonzero terms).  Each
/// row add is a pure lane-wise [`simd::add_assign`] (`1.0 * b == b` bitwise),
/// identical at every SIMD level.
pub fn matvec_transposed_onehot_into_with(
    _policy: KernelPolicy,
    a: &Matrix,
    idx: &[u32],
    y: &mut [f64],
) {
    assert_eq!(
        a.cols(),
        y.len(),
        "matvec_transposed_onehot: output dimension mismatch"
    );
    check_indices(idx, a.rows(), "matvec_transposed_onehot");
    count_call();
    let lv = simd::current_level();
    y.fill(0.0);
    for &i in idx {
        simd::add_assign(lv, y, a.row(i as usize));
    }
}

/// One-hot × dense product `C += X · B` where row `r` of `X` is one-hot with
/// active indices `rows_idx[r·nnz .. (r+1)·nnz]`: each output row of `C`
/// gathers (sums) the rows of `B` its indices select — no multiplications at
/// all.
///
/// # Panics
/// Panics when `rows_idx.len()` is not a multiple of `nnz_per_row` (unless
/// both are zero), when the implied row count disagrees with `c.rows()`, or
/// when any index is out of range for `b.rows()`.
pub fn spmm_onehot_with(
    _policy: KernelPolicy,
    rows_idx: &[u32],
    nnz_per_row: usize,
    b: &Matrix,
    c: &mut Matrix,
) {
    let m = c.rows();
    if nnz_per_row == 0 {
        assert!(rows_idx.is_empty(), "spmm_onehot: indices with zero nnz");
        return;
    }
    assert_eq!(
        rows_idx.len(),
        m * nnz_per_row,
        "spmm_onehot: expected {m} rows of {nnz_per_row} indices, got {} indices",
        rows_idx.len()
    );
    check_indices(rows_idx, b.rows(), "spmm_onehot");
    count_call();
    let n = b.cols();
    if m == 0 || n == 0 {
        return;
    }
    let lv = simd::current_level();
    let rows = c.as_mut_slice().chunks_exact_mut(n);
    for (crow, idx) in rows.zip(rows_idx.chunks_exact(nnz_per_row)) {
        for &k in idx {
            // Plain adds — the active values are 1.0, so no multiply at
            // all (bit-identical to `+= 1.0 * b`, one vector op cheaper).
            // Pure lane-wise adds are identical at every SIMD level.
            simd::add_assign(lv, crow, b.row(k as usize));
        }
    }
}

// ---------------------------------------------------------------------------
// Scatters (rank-1 updates that WRITE selected rows/columns)
// ---------------------------------------------------------------------------

/// `A += alpha · x yᵀ` for one-hot `x`: adds `alpha · y` to the rows of `A`
/// selected by `idx`.
///
/// Touches `s` rows where the dense GER touches all of them; the written rows
/// are disjoint and visited in ascending order, so the result is bit-identical
/// to the dense naive GER on the equivalent one-hot vector.
pub fn ger_onehot_with(_policy: KernelPolicy, alpha: f64, idx: &[u32], y: &[f64], a: &mut Matrix) {
    assert_eq!(a.cols(), y.len(), "ger_onehot: col dimension mismatch");
    check_indices(idx, a.rows(), "ger_onehot");
    count_call();
    let lv = simd::current_level();
    for &i in idx {
        simd::axpy(lv, alpha, y, a.row_mut(i as usize));
    }
}

/// `A[i][j] += alpha` for every `(i, j) ∈ rows_idx × cols_idx` — the outer
/// product of two one-hot vectors, scattered directly into the accumulator.
pub fn scatter_onehot_pair(alpha: f64, rows_idx: &[u32], cols_idx: &[u32], a: &mut Matrix) {
    check_indices(rows_idx, a.rows(), "scatter_onehot_pair rows");
    check_indices(cols_idx, a.cols(), "scatter_onehot_pair cols");
    count_call();
    for &i in rows_idx {
        let row = a.row_mut(i as usize);
        for &j in cols_idx {
            row[j as usize] += alpha;
        }
    }
}

/// `x[i] += alpha` for every `i ∈ idx` — AXPY with a one-hot right-hand side.
pub fn axpy_onehot(alpha: f64, idx: &[u32], x: &mut [f64]) {
    check_indices(idx, x.len(), "axpy_onehot");
    count_call();
    for &i in idx {
        x[i as usize] += alpha;
    }
}

// ---------------------------------------------------------------------------
// Quadratic forms
// ---------------------------------------------------------------------------

/// `xᵀ A y` for one-hot `x` **and** one-hot `y`:
/// `Σ_{i ∈ rows} Σ_{j ∈ cols} A[i][j]` — `s²` loads, zero multiplications.
pub fn quadratic_form_onehot_pair(rows_idx: &[u32], a: &Matrix, cols_idx: &[u32]) -> f64 {
    check_indices(rows_idx, a.rows(), "quadratic_form_onehot_pair rows");
    check_indices(cols_idx, a.cols(), "quadratic_form_onehot_pair cols");
    count_call();
    let mut acc = 0.0;
    for &i in rows_idx {
        let row = a.row(i as usize);
        let mut row_acc = 0.0;
        for &j in cols_idx {
            row_acc += row[j as usize];
        }
        acc += row_acc;
    }
    acc
}

#[inline]
fn check_indices(idx: &[u32], bound: usize, what: &str) {
    for &i in idx {
        assert!(
            (i as usize) < bound,
            "{what}: index {i} out of range for width {bound}"
        );
    }
}

/// Bounds-checks a one-hot index set against a block width (shared with the
/// block-dispatch methods in [`crate::block`]).
///
/// # Panics
/// Panics when any index is `>= bound`.
#[inline]
pub fn check_block_indices(idx: &[u32], bound: usize, what: &str) {
    check_indices(idx, bound, what);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;

    fn pseudo(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut rng = crate::testutil::TestRng::new(salt);
        Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
    }

    /// Dense 0/1 vector from indices.
    fn densify(idx: &[u32], width: usize) -> Vec<f64> {
        let mut v = vec![0.0; width];
        for &i in idx {
            v[i as usize] = 1.0;
        }
        v
    }

    #[test]
    fn detection_accepts_onehot_and_rejects_dense() {
        assert_eq!(
            onehot_indices(&[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
            Some(vec![1, 4])
        );
        assert_eq!(onehot_indices(&[]), Some(vec![]));
        assert_eq!(onehot_indices(&[0.0, 0.0]), Some(vec![]));
        // non-0/1 value
        assert_eq!(onehot_indices(&[0.0, 0.5]), None);
        // above half occupancy: correct but not profitable
        assert_eq!(onehot_indices(&[1.0, 1.0, 1.0, 0.0]), None);
        // exactly half occupancy still qualifies
        assert_eq!(onehot_indices(&[1.0, 0.0, 1.0, 0.0]), Some(vec![0, 2]));
        // cardinality-1 column alone is all ones
        assert_eq!(onehot_indices(&[1.0]), None);
    }

    #[test]
    fn gathers_match_dense_naive_bitwise() {
        let a = pseudo(9, 7, 1);
        let idx = [1u32, 4, 6];
        let x = densify(&idx, 7);
        let xr = densify(&idx[..2], 9);
        for p in KernelPolicy::ALL {
            // A·x: dense naive GEMV vs column gather
            let dense = gemm::matvec_with(KernelPolicy::Naive, &a, &x);
            assert_eq!(matvec_onehot_with(p, &a, &idx), dense, "{p}");
            // Aᵀ·x: dense naive transposed GEMV vs row gather (into a dirty
            // buffer: the kernel overwrites, it does not accumulate)
            let dense_t = gemm::matvec_transposed_with(KernelPolicy::Naive, &a, &xr);
            let mut gathered = vec![f64::NAN; 7];
            matvec_transposed_onehot_into_with(p, &a, &[1, 4], &mut gathered);
            assert_eq!(gathered, dense_t, "{p}");
        }
        assert_eq!(gather_sum(&[1.0, 2.0, 3.0], &[0, 2]), 4.0);
    }

    #[test]
    fn spmm_matches_dense_naive_bitwise() {
        let b = pseudo(9, 5, 2);
        let rows_idx: Vec<u32> = vec![0, 3, 1, 4, 2, 8, 0, 7];
        let nnz = 2;
        let m = rows_idx.len() / nnz;
        let mut x = Matrix::zeros(m, 9);
        for (r, pair) in rows_idx.chunks_exact(nnz).enumerate() {
            for &j in pair {
                x[(r, j as usize)] = 1.0;
            }
        }
        let mut dense = Matrix::zeros(m, 5);
        gemm::matmul_acc_with(KernelPolicy::Naive, &x, &b, &mut dense);
        for p in KernelPolicy::ALL {
            let mut c = Matrix::zeros(m, 5);
            spmm_onehot_with(p, &rows_idx, nnz, &b, &mut c);
            assert_eq!(c, dense, "{p}");
        }
    }

    #[test]
    fn scatters_match_dense_naive_bitwise() {
        let y = crate::testutil::TestRng::new(3).vec_in(6, -1.0, 1.0);
        let idx = [2u32, 5];
        let x_rows = densify(&idx, 8);
        for p in KernelPolicy::ALL {
            let mut dense = pseudo(8, 6, 4);
            let mut sparse = dense.clone();
            gemm::ger_with(KernelPolicy::Naive, 0.7, &x_rows, &y, &mut dense);
            ger_onehot_with(p, 0.7, &idx, &y, &mut sparse);
            assert_eq!(dense, sparse, "{p}");
        }
    }

    #[test]
    fn pair_scatter_and_axpy() {
        let mut a = Matrix::zeros(4, 4);
        scatter_onehot_pair(0.5, &[1, 3], &[0, 2], &mut a);
        assert_eq!(a[(1, 0)], 0.5);
        assert_eq!(a[(3, 2)], 0.5);
        assert_eq!(a[(0, 0)], 0.0);

        let mut v = vec![1.0; 4];
        axpy_onehot(2.0, &[0, 3], &mut v);
        assert_eq!(v, vec![3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn quadratic_forms_match_dense_naive_bitwise() {
        let a = pseudo(7, 7, 8);
        let idx = [0u32, 2, 6];
        let x = densify(&idx, 7);
        let jdx = [1u32, 5];
        let yj = densify(&jdx, 7);
        let dense_pair = gemm::quadratic_form_with(KernelPolicy::Naive, &x, &a, &yj);
        let sparse_pair = quadratic_form_onehot_pair(&idx, &a, &jdx);
        assert!((dense_pair - sparse_pair).abs() < 1e-15);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let a = pseudo(4, 4, 10);
        let kp = KernelPolicy::Blocked;
        assert_eq!(matvec_onehot_with(kp, &a, &[]), vec![0.0; 4]);
        assert_eq!(
            SparseRep::OneHot(vec![]).matvec_transposed(KernelPolicy::Naive, &a),
            vec![0.0; 4]
        );
        assert_eq!(quadratic_form_onehot_pair(&[], &a, &[]), 0.0);
        let mut c = Matrix::zeros(0, 4);
        spmm_onehot_with(kp, &[], 2, &a, &mut c);
        spmm_onehot_with(kp, &[], 0, &a, &mut c);
        let mut m = pseudo(4, 4, 11);
        let before = m.clone();
        ger_onehot_with(kp, 1.0, &[], &[0.0; 4], &mut m);
        assert_eq!(m, before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let a = Matrix::zeros(3, 3);
        let _ = matvec_onehot_with(KernelPolicy::Blocked, &a, &[3]);
    }

    #[test]
    fn kernel_counter_is_monotonic() {
        let before = onehot_kernel_calls();
        let _ = gather_sum(&[1.0], &[0]);
        assert!(onehot_kernel_calls() > before);
    }

    #[test]
    fn sparse_mode_labels() {
        assert_eq!(SparseMode::default(), SparseMode::Auto);
        assert_eq!(SparseMode::Auto.label(), "auto");
        assert_eq!(SparseMode::Dense.label(), "dense");
    }

    #[test]
    fn detect_prefers_onehot_then_csr_then_dense() {
        let before = detect_calls();
        // 0/1 at ≤ ½ occupancy → one-hot
        assert_eq!(
            SparseMode::Auto.detect(&[0.0, 1.0, 0.0, 0.0]),
            Some(SparseRep::OneHot(vec![1]))
        );
        // weighted nonzeros at ≤ ¼ occupancy → CSR
        assert_eq!(
            SparseMode::Auto.detect(&[0.0, 0.0, 2.5, 0.0, 0.0, 0.0, -1.0, 0.0]),
            Some(SparseRep::Csr {
                idx: vec![2, 6],
                vals: vec![2.5, -1.0],
            })
        );
        // weighted but too dense → dense path
        assert_eq!(SparseMode::Auto.detect(&[1.5, 2.5, 0.0, 0.0]), None);
        // Auto detection must bump the process-global counter (≥, not ==:
        // other tests in this binary may detect concurrently)
        assert!(
            detect_calls() >= before + 3,
            "Auto detection must bump the counter"
        );
        // Dense mode never detects (and takes the non-counting arm)
        assert_eq!(SparseMode::Dense.detect(&[0.0, 1.0]), None);
    }

    #[test]
    fn sparse_rep_helpers_dispatch_to_the_right_kernels() {
        let onehot = SparseRep::OneHot(vec![0, 2]);
        let csr = SparseRep::Csr {
            idx: vec![0, 2],
            vals: vec![2.0, -1.0],
        };
        assert_eq!(onehot.nnz(), 2);
        assert_eq!(csr.nnz(), 2);
        let v = [1.0, 10.0, 3.0];
        assert_eq!(onehot.gather_dot(&v), 4.0);
        assert_eq!(csr.gather_dot(&v), -1.0);
        let mut out = vec![0.0; 3];
        onehot.axpy_into(2.0, &mut out);
        assert_eq!(out, vec![2.0, 0.0, 2.0]);
        let mut out = vec![0.0; 3];
        csr.axpy_into(2.0, &mut out);
        assert_eq!(out, vec![4.0, 0.0, -2.0]);
        // quadratic form pair: xᵀ A x against the densified oracle
        let a = pseudo(3, 3, 21);
        let x_one = densify(&[0, 2], 3);
        let dense = crate::gemm::quadratic_form_with(KernelPolicy::Naive, &x_one, &a, &x_one);
        assert_eq!(onehot.quadratic_form_pair(&a), dense);
        let x_csr = [2.0, 0.0, -1.0];
        let dense = crate::gemm::quadratic_form_with(KernelPolicy::Naive, &x_csr, &a, &x_csr);
        assert_eq!(csr.quadratic_form_pair(&a), dense);
    }
}
