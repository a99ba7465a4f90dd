//! The GMM model and the per-iteration precomputation shared by all variants.

use fml_linalg::block::{BlockPartition, BlockQuadraticForm};
use fml_linalg::cholesky::Cholesky;
use fml_linalg::{gemm, sym, vector, KernelPolicy, Matrix, Vector};

/// A Gaussian mixture model with full (non-diagonal) covariance matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmModel {
    /// Mixing coefficients `π_k` (sum to 1).
    pub weights: Vec<f64>,
    /// Component means `µ_k`.
    pub means: Vec<Vector>,
    /// Component covariances `Σ_k`.
    pub covariances: Vec<Matrix>,
}

impl GmmModel {
    /// Creates a model, validating dimensional consistency.
    pub fn new(weights: Vec<f64>, means: Vec<Vector>, covariances: Vec<Matrix>) -> Self {
        assert_eq!(weights.len(), means.len(), "weights/means length mismatch");
        assert_eq!(
            weights.len(),
            covariances.len(),
            "weights/covariances length mismatch"
        );
        assert!(
            !weights.is_empty(),
            "model must have at least one component"
        );
        let d = means[0].len();
        assert!(
            means.iter().all(|m| m.len() == d),
            "all means must share one dimension"
        );
        assert!(
            covariances.iter().all(|c| c.shape() == (d, d)),
            "all covariances must be d×d"
        );
        Self {
            weights,
            means,
            covariances,
        }
    }

    /// Number of mixture components `K`.
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Feature dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.means[0].len()
    }

    /// Largest absolute difference between any parameter of two models — the
    /// metric the equivalence tests use to show that `M-`, `S-` and `F-GMM` learn
    /// the same model.
    pub fn max_param_diff(&self, other: &GmmModel) -> f64 {
        assert_eq!(self.k(), other.k(), "component count mismatch");
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let mut diff = vector::max_abs_diff(&self.weights, &other.weights);
        for (a, b) in self.means.iter().zip(other.means.iter()) {
            diff = diff.max(vector::max_abs_diff(a.as_slice(), b.as_slice()));
        }
        for (a, b) in self.covariances.iter().zip(other.covariances.iter()) {
            diff = diff.max(a.max_abs_diff(b));
        }
        diff
    }

    /// Posterior responsibilities `γ_k(x)` for a single (joined) feature vector.
    pub fn responsibilities(&self, x: &[f64], pre: &Precomputed) -> Vec<f64> {
        pre.responsibilities_dense(x).0
    }

    /// The most probable component for a feature vector (hard cluster assignment).
    pub fn predict(&self, x: &[f64], pre: &Precomputed) -> usize {
        let (resp, _) = pre.responsibilities_dense(x);
        argmax(&resp)
    }

    /// Batch prediction over many (joined) feature vectors, reusing one
    /// [`Precomputed`] across all rows: per row, the hard cluster assignment
    /// **and** the row's log-likelihood contribution.
    ///
    /// This is the batch variant scoring paths should use instead of calling
    /// [`GmmModel::predict`] per row and re-deriving the log-likelihood with a
    /// second [`Precomputed`] — the covariance inverses and log-normalizers
    /// are computed exactly once for the whole batch.
    pub fn predict_batch<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a [f64]>,
        pre: &Precomputed,
    ) -> GmmBatchPrediction {
        let mut assignments = Vec::new();
        let mut log_likelihoods = Vec::new();
        for x in rows {
            let (resp, ll) = pre.responsibilities_dense(x);
            assignments.push(argmax(&resp));
            log_likelihoods.push(ll);
        }
        GmmBatchPrediction {
            assignments,
            log_likelihoods,
        }
    }

    /// Log-likelihood of a set of (joined) feature vectors under the model.
    pub fn log_likelihood<'a>(&self, data: impl IntoIterator<Item = &'a [f64]>) -> f64 {
        let pre = Precomputed::from_model(self, 0.0);
        data.into_iter()
            .map(|x| pre.responsibilities_dense(x).1)
            .sum()
    }
}

/// Index of the largest responsibility (the hard assignment).  `max_by` keeps
/// the *last* maximum on exact ties, matching the historical
/// [`GmmModel::predict`] behaviour — the batch variant and the scoring paths
/// (`fml-serve`) share this helper so assignments can never diverge on ties.
pub fn argmax(resp: &[f64]) -> usize {
    resp.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The result of [`GmmModel::predict_batch`]: per-row hard assignments and
/// log-likelihood contributions, index-aligned with the input rows.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmBatchPrediction {
    /// Most probable component per row.
    pub assignments: Vec<usize>,
    /// Log-likelihood contribution `ln p(x)` per row.
    pub log_likelihoods: Vec<f64>,
}

impl GmmBatchPrediction {
    /// Number of predicted rows.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Total log-likelihood of the batch (sum of the per-row contributions).
    pub fn total_log_likelihood(&self) -> f64 {
        self.log_likelihoods.iter().sum()
    }
}

/// Splits each mean according to the partition; `result[k][b]` is the slice of
/// `means[k]` for relation block `b`.
pub fn split_means(means: &[Vector], partition: &BlockPartition) -> Vec<Vec<Vec<f64>>> {
    means
        .iter()
        .map(|m| {
            partition
                .split(m.as_slice())
                .into_iter()
                .map(|s| s.to_vec())
                .collect()
        })
        .collect()
}

/// Per-EM-iteration precomputation: covariance inverses, log-determinants and the
/// constant part of each component's log-density.
///
/// The E-step of every variant evaluates
/// `ln π_k − ½(d·ln 2π + ln|Σ_k|) − ½ (x−µ_k)ᵀ Σ_k⁻¹ (x−µ_k)`;
/// everything except the quadratic form is independent of `x` and computed here
/// once per iteration (this mirrors the paper's observation that
/// `1/√((2π)^d |Σ_k|)` does not involve the feature vectors).
#[derive(Debug, Clone)]
pub struct Precomputed {
    /// `Σ_k⁻¹` for every component.
    pub inverses: Vec<Matrix>,
    /// `ln π_k − ½(d ln 2π + ln|Σ_k|)` for every component.
    pub log_norm: Vec<f64>,
    /// Component means (cloned so the E-step needs no access to the model).
    pub means: Vec<Vector>,
    /// The Cholesky factor each inverse came from — of the ridge-repaired
    /// covariance where a repair was needed — kept for [`Self::whitener`].
    factors: Vec<Cholesky>,
}

impl Precomputed {
    /// Builds the precomputation from a model.  When a covariance is not positive
    /// definite it is regularized with an escalating ridge starting at `ridge`
    /// (`ridge = 0` disables repair and panics on a singular covariance).
    pub fn from_model(model: &GmmModel, ridge: f64) -> Self {
        let d = model.dim() as f64;
        let mut inverses = Vec::with_capacity(model.k());
        let mut log_norm = Vec::with_capacity(model.k());
        let mut factors = Vec::with_capacity(model.k());
        for (k, cov) in model.covariances.iter().enumerate() {
            let ch = match Cholesky::factor(cov) {
                Ok(ch) => ch,
                Err(_) if ridge > 0.0 => {
                    let mut repaired = cov.clone();
                    sym::ensure_spd(&mut repaired, ridge);
                    Cholesky::factor(&repaired).expect("regularized covariance must be SPD")
                }
                Err(e) => panic!("component {k}: covariance not SPD and ridge disabled: {e}"),
            };
            inverses.push(ch.inverse());
            log_norm.push(
                model.weights[k].max(f64::MIN_POSITIVE).ln()
                    - 0.5 * (d * (2.0 * std::f64::consts::PI).ln() + ch.log_det()),
            );
            factors.push(ch);
        }
        Self {
            inverses,
            log_norm,
            means: model.means.clone(),
            factors,
        }
    }

    /// The whitening factor `U_c = L_c⁻ᵀ` of component `c` (upper-triangular,
    /// `Σ_c⁻¹ = U_c·U_cᵀ`), from the same — possibly ridge-repaired — factor
    /// as [`Self::inverses`]: `(x−µ_c)ᵀ Σ_c⁻¹ (x−µ_c) = ‖(x−µ_c)ᵀ U_c‖²`.
    /// Computed on demand (`O(d³/3)`); only the batched dense E-step asks.
    pub fn whitener(&self, c: usize) -> Matrix {
        self.factors[c].whitener()
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.log_norm.len()
    }

    /// Splits each component's covariance inverse into relation-aligned blocks
    /// (Equations 9–12 / 21) for the factorized E-step, with `policy` for the
    /// per-tile evaluations.
    pub fn block_forms_with(
        &self,
        partition: &BlockPartition,
        policy: fml_linalg::KernelPolicy,
    ) -> Vec<BlockQuadraticForm> {
        self.inverses
            .iter()
            .map(|inv| BlockQuadraticForm::new_with(partition.clone(), inv, policy))
            .collect()
    }

    /// Splits each component mean according to the partition; `result[k][b]` is
    /// the mean slice of component `k` for relation block `b`.
    pub fn split_means(&self, partition: &BlockPartition) -> Vec<Vec<Vec<f64>>> {
        split_means(&self.means, partition)
    }

    /// Converts per-component log-densities into responsibilities and the tuple's
    /// log-likelihood contribution, using a numerically stable log-sum-exp.
    pub fn finish_responsibilities(&self, log_dens: &mut [f64]) -> (Vec<f64>, f64) {
        let ll = self.finish_responsibilities_in_place(log_dens);
        (log_dens.to_vec(), ll)
    }

    /// [`Self::finish_responsibilities`] without the per-tuple allocation: the
    /// responsibilities replace the log-densities in `log_dens` and the
    /// tuple's log-likelihood contribution is returned.
    pub fn finish_responsibilities_in_place(&self, log_dens: &mut [f64]) -> f64 {
        let max = log_dens.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for ld in log_dens.iter_mut() {
            *ld = (*ld - max).exp();
            sum += *ld;
        }
        for ld in log_dens.iter_mut() {
            *ld /= sum;
        }
        max + sum.ln()
    }

    /// Responsibilities and log-likelihood contribution of a dense (joined)
    /// feature vector — the computation path used by `M-GMM` and `S-GMM`.
    pub fn responsibilities_dense(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let mut log_dens = vec![0.0; self.k()];
        let mut centered = vec![0.0; x.len()];
        for (k, ld) in log_dens.iter_mut().enumerate() {
            vector::sub_into(x, self.means[k].as_slice(), &mut centered);
            let quad =
                gemm::quadratic_form_sym_with(KernelPolicy::Blocked, &centered, &self.inverses[k]);
            *ld = self.log_norm[k] - 0.5 * quad;
        }
        self.finish_responsibilities(&mut log_dens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::approx_eq;

    fn simple_model() -> GmmModel {
        GmmModel::new(
            vec![0.4, 0.6],
            vec![
                Vector::from_slice(&[0.0, 0.0]),
                Vector::from_slice(&[5.0, 5.0]),
            ],
            vec![Matrix::identity(2), Matrix::from_diag(&[2.0, 0.5])],
        )
    }

    #[test]
    fn model_shape_accessors() {
        let m = simple_model();
        assert_eq!(m.k(), 2);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_components_rejected() {
        GmmModel::new(
            vec![1.0],
            vec![Vector::zeros(2), Vector::zeros(2)],
            vec![Matrix::identity(2), Matrix::identity(2)],
        );
    }

    #[test]
    fn responsibilities_prefer_nearest_component() {
        let m = simple_model();
        let pre = Precomputed::from_model(&m, 1e-6);
        let r_near_0 = m.responsibilities(&[0.1, -0.1], &pre);
        assert!(r_near_0[0] > 0.99);
        let r_near_1 = m.responsibilities(&[5.0, 4.9], &pre);
        assert!(r_near_1[1] > 0.99);
        assert!(approx_eq(r_near_0.iter().sum::<f64>(), 1.0, 1e-12));
        assert_eq!(m.predict(&[0.0, 0.0], &pre), 0);
        assert_eq!(m.predict(&[5.0, 5.0], &pre), 1);
    }

    #[test]
    fn density_matches_closed_form_single_gaussian() {
        // Single standard normal component: log p(x) = -0.5*(d ln 2π + ||x||²)
        let m = GmmModel::new(vec![1.0], vec![Vector::zeros(2)], vec![Matrix::identity(2)]);
        let pre = Precomputed::from_model(&m, 0.0);
        let (_, ll) = pre.responsibilities_dense(&[1.0, 2.0]);
        let expected = -0.5 * (2.0 * (2.0 * std::f64::consts::PI).ln() + 5.0);
        assert!(approx_eq(ll, expected, 1e-12), "{ll} vs {expected}");
    }

    #[test]
    fn log_likelihood_sums_tuples() {
        let m = simple_model();
        let data = [vec![0.0, 0.0], vec![5.0, 5.0]];
        let ll = m.log_likelihood(data.iter().map(|v| v.as_slice()));
        let pre = Precomputed::from_model(&m, 0.0);
        let expected: f64 = data.iter().map(|v| pre.responsibilities_dense(v).1).sum();
        assert!(approx_eq(ll, expected, 1e-12));
    }

    #[test]
    fn predict_batch_matches_per_row_predict_and_likelihood() {
        let m = simple_model();
        let pre = Precomputed::from_model(&m, 0.0);
        let rows: Vec<Vec<f64>> = vec![
            vec![0.1, -0.1],
            vec![5.0, 4.9],
            vec![2.5, 2.5], // between the components
            vec![-3.0, 7.0],
        ];
        let batch = m.predict_batch(rows.iter().map(|r| r.as_slice()), &pre);
        assert_eq!(batch.len(), rows.len());
        assert!(!batch.is_empty());
        let mut total = 0.0;
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch.assignments[i], m.predict(row, &pre), "row {i}");
            let (_, ll) = pre.responsibilities_dense(row);
            assert_eq!(batch.log_likelihoods[i], ll, "row {i}");
            total += ll;
        }
        assert!(approx_eq(batch.total_log_likelihood(), total, 1e-12));
        // and the totals agree with the dedicated log_likelihood entry point
        let direct = m.log_likelihood(rows.iter().map(|r| r.as_slice()));
        assert!(approx_eq(batch.total_log_likelihood(), direct, 1e-12));
    }

    #[test]
    fn predict_batch_of_nothing_is_empty() {
        let m = simple_model();
        let pre = Precomputed::from_model(&m, 0.0);
        let batch = m.predict_batch(std::iter::empty(), &pre);
        assert!(batch.is_empty());
        assert_eq!(batch.total_log_likelihood(), 0.0);
    }

    #[test]
    fn precompute_repairs_singular_covariance() {
        let m = GmmModel::new(vec![1.0], vec![Vector::zeros(2)], vec![Matrix::zeros(2, 2)]);
        let pre = Precomputed::from_model(&m, 1e-6);
        assert!(pre.log_norm[0].is_finite());
    }

    #[test]
    fn max_param_diff_detects_changes() {
        let a = simple_model();
        let mut b = simple_model();
        assert_eq!(a.max_param_diff(&b), 0.0);
        b.means[1][0] += 0.25;
        assert!(approx_eq(a.max_param_diff(&b), 0.25, 1e-12));
    }

    #[test]
    fn block_forms_and_split_means_follow_partition() {
        let m = simple_model();
        let pre = Precomputed::from_model(&m, 0.0);
        let p = BlockPartition::binary(1, 1);
        let forms = pre.block_forms_with(&p, KernelPolicy::Blocked);
        assert_eq!(forms.len(), 2);
        let means = pre.split_means(&p);
        assert_eq!(means[1][0], vec![5.0]);
        assert_eq!(means[1][1], vec![5.0]);
        // blocked quadratic form equals dense quadratic form
        let x = [1.0, -2.0];
        let centered: Vec<f64> = x
            .iter()
            .zip(m.means[0].iter())
            .map(|(a, b)| a - b)
            .collect();
        let dense =
            gemm::quadratic_form_sym_with(KernelPolicy::Blocked, &centered, &pre.inverses[0]);
        let blocked = forms[0].eval_dense(&centered);
        assert!(approx_eq(dense, blocked, 1e-12));
    }
}
