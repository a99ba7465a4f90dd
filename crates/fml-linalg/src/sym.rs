//! Helpers for symmetric (covariance-like) matrices.
//!
//! The GMM M-step produces sample covariance matrices that can be numerically
//! non-SPD when a mixture component collapses onto few points (or a feature has
//! zero variance within a component).  These helpers detect and repair such
//! matrices so that the next E-step's Cholesky factorization succeeds, identically
//! across the materialized / streaming / factorized training paths.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;

/// Default ridge added to covariance diagonals when regularization is needed.
pub const DEFAULT_RIDGE: f64 = 1e-6;

/// Returns `true` when `m` is symmetric to within `tol` (absolute).
pub fn is_symmetric(m: &Matrix, tol: f64) -> bool {
    if !m.is_square() {
        return false;
    }
    for i in 0..m.rows() {
        for j in (i + 1)..m.cols() {
            if (m[(i, j)] - m[(j, i)]).abs() > tol {
                return false;
            }
        }
    }
    true
}

/// Ensures `m` is SPD by symmetrizing it and, if necessary, repeatedly adding an
/// increasing ridge to the diagonal.  Returns the total ridge that was added.
///
/// The escalation sequence is deterministic (`ridge`, `10·ridge`, `100·ridge`, …)
/// so that every algorithm variant applies exactly the same repair and the final
/// models stay comparable.
pub fn ensure_spd(m: &mut Matrix, ridge: f64) -> f64 {
    assert!(m.is_square(), "ensure_spd: matrix must be square");
    assert!(ridge > 0.0, "ensure_spd: ridge must be positive");
    m.symmetrize();
    if Cholesky::factor(m).is_ok() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut step = ridge;
    for _ in 0..40 {
        m.add_diag(step);
        total += step;
        if Cholesky::factor(m).is_ok() {
            return total;
        }
        step *= 10.0;
    }
    panic!("ensure_spd: could not regularize matrix into SPD form (total ridge {total})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;

    #[test]
    fn symmetry_check() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 3.0]]);
        assert!(is_symmetric(&m, 1e-12));
        let m2 = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.5, 3.0]]);
        assert!(!is_symmetric(&m2, 1e-12));
        assert!(is_symmetric(&m2, 1.0));
        assert!(!is_symmetric(&Matrix::zeros(2, 3), 1e-12));
    }

    #[test]
    fn ensure_spd_on_already_spd_is_noop() {
        let mut m = Matrix::identity(3);
        let added = ensure_spd(&mut m, DEFAULT_RIDGE);
        assert_eq!(added, 0.0);
        assert_eq!(m, Matrix::identity(3));
    }

    #[test]
    fn ensure_spd_repairs_singular() {
        // rank-1 matrix: singular
        let mut m = gemm::outer(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]);
        let added = ensure_spd(&mut m, 1e-6);
        assert!(added > 0.0);
        assert!(Cholesky::factor(&m).is_ok());
    }
}
