//! Order-independent GMM initialization.
//!
//! The three training variants visit tuples in different orders (materialized scan
//! vs dimension-grouped scan), so an initializer that depended on "the first few
//! tuples seen" would give them different starting points and make the
//! model-equivalence guarantee meaningless.  [`GmmInit`] therefore derives the
//! initial parameters only from `(K, seed)` and per-column statistics of the
//! base relations: means are drawn from a seeded normal around the column
//! means, covariances start as the diagonal variances, weights start uniform.
//! Every variant trained with the same configuration starts from bit-identical
//! parameters.

use crate::model::GmmModel;
use fml_linalg::{Matrix, Vector};
use fml_store::batch::{BlockScan, RowBlock};
use fml_store::{Database, JoinSpec, StoreError, StoreResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded standard-normal draw (Box–Muller), kept local so the model crate does
/// not depend on the data-generation crate.
fn normal(rng: &mut StdRng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    mean + std_dev * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Initialization strategy shared by every variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmInit {
    /// RNG seed.
    pub seed: u64,
    /// Standard deviation of the initial mean placement.
    pub spread: f64,
}

impl GmmInit {
    /// Creates an initializer.
    pub fn new(seed: u64, spread: f64) -> Self {
        assert!(spread > 0.0, "spread must be positive");
        Self { seed, spread }
    }

    /// Produces an initial model informed by the *normalized* relations:
    /// per-column means and variances are computed from one scan of each base
    /// relation (never from the join result), then the `K` initial means are
    /// placed at `mean + spread·std·ε` with seeded normal draws `ε`, and the
    /// initial covariances are the diagonal variance matrices.
    ///
    /// Because the statistics come from the base relations — not from the joined
    /// stream — every training variant computes exactly the same initial model,
    /// while still starting at the right location and scale for the data (which
    /// keeps EM well-conditioned and avoids empty components).
    ///
    /// Tuples with a non-finite feature are left out of the statistics: the
    /// scan covers dimension tuples no fact references, and one hostile tuple
    /// there must not turn every initial mean into NaN.
    ///
    /// # Errors
    /// This is the one preamble every GMM strategy shares, so it also makes
    /// their one precondition check: an empty fact relation is a typed
    /// [`StoreError::SchemaMismatch`] (EM over no tuples divides `0` by `0`).
    pub fn from_relations(
        &self,
        db: &Database,
        spec: &JoinSpec,
        k: usize,
    ) -> StoreResult<GmmModel> {
        let mut mean = Vec::new();
        let mut var = Vec::new();
        let fact = spec.fact_relation(db)?;
        if fact.lock().num_tuples() == 0 {
            return Err(StoreError::SchemaMismatch {
                relation: spec.fact.clone(),
                detail: "GMM training requires at least one fact tuple, the relation is empty"
                    .to_string(),
            });
        }
        let mut relations = vec![fact];
        relations.extend(spec.dimension_relations(db)?);
        // Column statistics over the rows expanded to dense, whatever their
        // stored form.
        let mut rows = RowBlock::expanding();
        for rel in relations {
            let d_rel = rel.lock().schema().num_features;
            let mut sum = vec![0.0; d_rel];
            let mut sum_sq = vec![0.0; d_rel];
            let mut count = 0u64;
            let mut scan = BlockScan::new(rel, fml_store::DEFAULT_BLOCK_PAGES);
            while scan.next_into(&mut rows)? {
                for r in 0..rows.len() {
                    let features = rows.features(r);
                    if !features.iter().all(|x| x.is_finite()) {
                        continue;
                    }
                    for (j, x) in features.iter().enumerate() {
                        sum[j] += x;
                        sum_sq[j] += x * x;
                    }
                    count += 1;
                }
            }
            let n = (count.max(1)) as f64;
            for j in 0..d_rel {
                let m = sum[j] / n;
                mean.push(m);
                var.push((sum_sq[j] / n - m * m).max(1e-3));
            }
        }
        Ok(self.model_from_stats(k, &mean, &var))
    }

    /// Builds the initial model from explicit per-column means and variances.
    pub fn model_from_stats(&self, k: usize, mean: &[f64], var: &[f64]) -> GmmModel {
        assert!(k > 0, "k must be positive");
        assert_eq!(mean.len(), var.len(), "mean/var length mismatch");
        let d = mean.len();
        assert!(d > 0, "d must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let weights = vec![1.0 / k as f64; k];
        let means = (0..k)
            .map(|_| {
                Vector::from_vec(
                    (0..d)
                        .map(|j| mean[j] + normal(&mut rng, 0.0, self.spread * var[j].sqrt()))
                        .collect(),
                )
            })
            .collect();
        let covariances = (0..k).map(|_| Matrix::from_diag(var)).collect();
        GmmModel::new(weights, means, covariances)
    }
}

impl Default for GmmInit {
    fn default() -> Self {
        Self {
            seed: 7,
            spread: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The initial model over `d` columns of mean 0 and variance 1.
    fn unit_model(init: GmmInit, k: usize, d: usize) -> GmmModel {
        init.model_from_stats(k, &vec![0.0; d], &vec![1.0; d])
    }

    #[test]
    fn initial_model_shape_and_weights() {
        let init = GmmInit::new(3, 2.0);
        let m = unit_model(init, 4, 6);
        assert_eq!(m.k(), 4);
        assert_eq!(m.dim(), 6);
        assert!((m.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(m.weights.iter().all(|w| (*w - 0.25).abs() < 1e-12));
        assert_eq!(m.covariances[2], Matrix::identity(6));
    }

    #[test]
    fn same_seed_gives_identical_models() {
        let a = unit_model(GmmInit::new(11, 4.0), 3, 5);
        let b = unit_model(GmmInit::new(11, 4.0), 3, 5);
        assert_eq!(a.max_param_diff(&b), 0.0);
    }

    #[test]
    fn different_seeds_give_different_means() {
        let a = unit_model(GmmInit::new(1, 4.0), 3, 5);
        let b = unit_model(GmmInit::new(2, 4.0), 3, 5);
        assert!(a.max_param_diff(&b) > 0.0);
    }

    #[test]
    fn means_are_distinct_across_components() {
        let m = unit_model(GmmInit::default(), 5, 3);
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert!(
                    fml_linalg::vector::max_abs_diff(m.means[i].as_slice(), m.means[j].as_slice())
                        > 1e-6,
                    "components {i} and {j} initialized identically"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "spread must be positive")]
    fn zero_spread_rejected() {
        GmmInit::new(0, 0.0);
    }
}
