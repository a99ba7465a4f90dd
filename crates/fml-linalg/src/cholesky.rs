//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The GMM E-step needs, for every component `k`, the quantities `Σ_k⁻¹` (to
//! evaluate Mahalanobis distances) and `log|Σ_k|` (for the Gaussian normalizer).
//! Both are obtained from a single Cholesky factorization `Σ = L·Lᵀ`:
//!
//! * `log|Σ| = 2·Σ_i log L_ii`
//! * `Σ⁻¹ b` via forward/backward substitution, and the explicit inverse when a
//!   matrix is needed for the blocked decompositions of the factorized E-step.
//!
//! A failed factorization signals a non-SPD covariance (e.g. a degenerate cluster);
//! callers regularize (`Matrix::add_diag`) and retry.

use crate::matrix::Matrix;

/// Error returned when a matrix is not symmetric positive-definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the pivot at which the factorization broke down.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (non-positive pivot at index {})",
            self.pivot
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L·Lᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers do not need to
    /// symmetrize a slightly asymmetric accumulator first (though doing so keeps
    /// all algorithm variants bit-identical).
    pub fn factor(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert!(a.is_square(), "Cholesky::factor: matrix must be square");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor.
    pub fn lower(&self) -> &Matrix {
        &self.l
    }

    /// `log|A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        self.log_det().exp()
    }

    /// Solves `A x = b` using forward then backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim(), "Cholesky::solve: dimension mismatch");
        let n = self.dim();
        // forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, &yk) in y[..i].iter().enumerate() {
                sum -= self.l[(i, k)] * yk;
            }
            y[i] = sum / self.l[(i, i)];
        }
        // backward: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (off, &xk) in x[i + 1..].iter().enumerate() {
                sum -= self.l[(i + 1 + off, i)] * xk;
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Explicit inverse `A⁻¹`, built column by column from unit vectors.
    ///
    /// The factorized GMM E-step partitions this inverse into blocks (Eq. 9–12 and
    /// Eq. 21), so the dense inverse is materialized once per EM iteration per
    /// component and then reused for every tuple.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        // Enforce exact symmetry (solve() introduces tiny asymmetries).
        inv.symmetrize();
        inv
    }

    /// The whitening factor `U = L⁻ᵀ` (upper-triangular, zeros below the
    /// diagonal): `A⁻¹ = U·Uᵀ`, so `xᵀ A⁻¹ x = ‖xᵀU‖²` and a whole batch of
    /// Mahalanobis distances is one triangular product
    /// ([`crate::gemm::matmul_upper_acc_with`]) plus row norms.
    ///
    /// Row `j` of `U` is column `j` of `L⁻¹`, built by forward substitution
    /// over contiguous rows of `L` and `U` (`O(n³/3)`).
    pub fn whitener(&self) -> Matrix {
        let n = self.dim();
        let mut u = Matrix::zeros(n, n);
        for j in 0..n {
            u[(j, j)] = 1.0 / self.l[(j, j)];
            for i in j + 1..n {
                let sum = crate::vector::dot(&self.l.row(i)[j..i], &u.row(j)[j..i]);
                u[(j, i)] = -sum / self.l[(i, i)];
            }
        }
        u
    }

    /// Mahalanobis squared distance `xᵀ A⁻¹ x` computed via a triangular solve,
    /// without forming the inverse.
    pub fn mahalanobis_sq(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "mahalanobis_sq: dimension mismatch");
        // Solve L z = x, then xᵀ A⁻¹ x = zᵀ z.
        let n = self.dim();
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = x[i];
            for (k, &zk) in z[..i].iter().enumerate() {
                sum -= self.l[(i, k)] * zk;
            }
            z[i] = sum / self.l[(i, i)];
        }
        z.iter().map(|v| v * v).sum()
    }
}

/// Convenience: inverse and log-determinant of an SPD matrix in one call.
pub fn inverse_and_log_det(a: &Matrix) -> Result<(Matrix, f64), NotPositiveDefinite> {
    let ch = Cholesky::factor(a)?;
    Ok((ch.inverse(), ch.log_det()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::gemm;
    use crate::KernelPolicy::Blocked;

    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        gemm::matmul_with(Blocked, a, b)
    }

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn factor_reconstructs_original() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.lower();
        let rec = matmul(l, &l.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn identity_factorization() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert_eq!(ch.lower(), &Matrix::identity(4));
        assert!(approx_eq(ch.log_det(), 0.0, 1e-15));
        assert!(approx_eq(ch.det(), 1.0, 1e-15));
    }

    #[test]
    fn log_det_matches_known_value() {
        // det of diag(2, 3, 4) = 24
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(approx_eq(ch.det(), 24.0, 1e-12));
        assert!(approx_eq(ch.log_det(), 24.0_f64.ln(), 1e-12));
    }

    #[test]
    fn solve_and_inverse_agree() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = ch.solve(&b);
        // A x should equal b
        let ax = gemm::matvec_with(Blocked, &a, &x);
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*got, *want, 1e-10), "{got} vs {want}");
        }
        // inverse * A = I
        let inv = ch.inverse();
        let prod = matmul(&inv, &a);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn mahalanobis_matches_inverse_quadratic_form() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let x = [0.3, -1.2, 2.0];
        let via_solve = ch.mahalanobis_sq(&x);
        let inv = ch.inverse();
        let via_inv = gemm::quadratic_form_sym_with(Blocked, &x, &inv);
        assert!(approx_eq(via_solve, via_inv, 1e-10));
    }

    #[test]
    fn whitener_is_the_upper_triangular_square_root_of_the_inverse() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let u = ch.whitener();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(u[(i, j)], 0.0, "below the diagonal at ({i},{j})");
            }
        }
        let uut = matmul(&u, &u.transpose());
        assert!(uut.max_abs_diff(&ch.inverse()) < 1e-14);
        // ‖xᵀU‖² is the Mahalanobis distance
        let x = [0.3, -1.2, 2.0];
        let y = gemm::matvec_transposed_with(Blocked, &u, &x);
        let norm: f64 = y.iter().map(|v| v * v).sum();
        assert!(approx_eq(norm, ch.mahalanobis_sq(&x), 1e-12));
    }

    #[test]
    fn non_spd_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // indefinite
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        let zero = Matrix::zeros(2, 2);
        assert!(Cholesky::factor(&zero).is_err());
    }

    #[test]
    fn regularization_recovers_spd() {
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]); // singular
        assert!(Cholesky::factor(&a).is_err());
        a.add_diag(1e-6);
        assert!(Cholesky::factor(&a).is_ok());
    }

    #[test]
    fn inverse_and_log_det_helper() {
        let a = spd3();
        let (inv, ld) = inverse_and_log_det(&a).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        assert!(approx_eq(ld, ch.log_det(), 1e-14));
        assert!(inv.max_abs_diff(&ch.inverse()) < 1e-14);
    }
}
