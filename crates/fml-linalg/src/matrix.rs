//! Row-major dense matrices.
//!
//! [`Matrix`] is the workhorse container for GMM covariance matrices, NN weight
//! matrices and all intermediate scatter/gradient accumulators.  Heavier kernels
//! (matrix-matrix and matrix-vector products, rank-1/rank-k updates) live in
//! [`crate::gemm`]; this module provides construction, element access, slicing of
//! sub-blocks and the cheap elementwise operations.

use crate::vector;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row index {} out of bounds ({})",
            i,
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row index {} out of bounds ({})",
            i,
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col index {} out of bounds ({})",
            j,
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the diagonal as a `Vec`.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Extracts the rectangular sub-block with rows `r0..r1` and columns `c0..c1`.
    ///
    /// This is the primitive behind the paper's `UL / UR / LL / LR` partition of a
    /// covariance inverse (Equations 9–12) and its multi-way generalization
    /// `I_{mn}` (Equation 21).
    pub fn sub_block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "sub_block: bad row range");
        assert!(c0 <= c1 && c1 <= self.cols, "sub_block: bad col range");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Elementwise addition in place: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        vector::axpy(1.0, &other.data, &mut self.data);
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        vector::scale(alpha, &mut self.data);
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Maximum absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        vector::max_abs_diff(&self.data, &other.data)
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Makes the matrix exactly symmetric by averaging with its transpose.
    ///
    /// Accumulated scatter matrices can drift from exact symmetry by a few ULPs;
    /// the GMM M-step symmetrizes before the next Cholesky factorization.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Copies the upper triangle onto the lower one (`a[j][i] = a[i][j]` for
    /// `j > i`) — the closing step of an accumulation that only maintained
    /// the upper triangle ([`crate::gemm::syrk_upper_acc`]).
    pub fn mirror_upper(&mut self) {
        assert!(self.is_square(), "mirror_upper: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                self[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Adds `value` to every diagonal entry (ridge/regularization term).
    pub fn add_diag(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert!(!m.is_square());
    }

    #[test]
    fn identity_and_diag() {
        let id = Matrix::identity(3);
        assert_eq!(id.diag(), vec![1.0, 1.0, 1.0]);
        assert_eq!(id.trace(), 3.0);
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(1, 1)], 3.0);
    }

    #[test]
    fn from_rows_and_transpose() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.row(0), &[1.0, 3.0, 5.0]);
        assert_eq!(t.row(1), &[2.0, 4.0, 6.0]);
        // transposing twice gives the original back
        assert_eq!(t.transpose(), m);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn sub_block_extracts_the_window() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
            vec![9.0, 10.0, 11.0, 12.0],
        ]);
        let b = m.sub_block(1, 3, 2, 4);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[7.0, 8.0]);
        assert_eq!(b.row(1), &[11.0, 12.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0], vec![30.0, 40.0]]);
        a.add_assign(&b);
        assert_eq!(a.row(0), &[11.0, 22.0]);
        a.axpy(-1.0, &b);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[2.0, 4.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[7.0, 14.0]);
        a.fill_zero();
        assert_eq!(a.frobenius_norm(), 0.0);
    }

    #[test]
    fn symmetrize_and_add_diag() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 5.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
        m.add_diag(0.5);
        assert_eq!(m[(0, 0)], 1.5);
        assert_eq!(m[(1, 1)], 5.5);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
