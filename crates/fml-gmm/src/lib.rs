//! # fml-gmm
//!
//! Gaussian Mixture Models with full covariances trained by Expectation-
//! Maximization over **normalized** relational data, implementing the three
//! algorithm variants of the paper:
//!
//! * [`materialized::MaterializedGmm`] (`M-GMM`) — materialize the PK/FK join as a
//!   table `T`, then run EM scanning `T` once per iteration (Algorithm 1 scans it
//!   three times; [`em`] fuses the three passes on mean-shifted statistics).
//! * [`streaming::StreamingGmm`] (`S-GMM`) — identical EM, but each pass joins the
//!   base relations on the fly and feeds the denormalized tuples to the learner.
//! * [`factorized::FactorizedGmm`] (`F-GMM`) — the paper's contribution: every
//!   quantity that depends only on a dimension tuple `x_R` (the centered vector
//!   `PD_R`, the quadratic-form term `LR`, the scatter block `PD_R PD_Rᵀ`) is
//!   computed once per dimension tuple and reused for all matching fact tuples
//!   (Sections V-B and V-C: one driver, a binary join being the star with one
//!   dimension).
//!
//! The factorized E-step arithmetic lives in exactly one place, [`estep`]:
//! the trainer and the batch scorer (`fml-serve`) both fill
//! per-dimension-tuple rows with [`EStep::fill_row`] and evaluate facts with
//! [`EStep::log_densities`].
//!
//! All three produce the same model (up to floating-point associativity): the EM
//! update is decomposed exactly, never approximated.  The integration tests assert
//! this equivalence on every workload shape.
//!
//! Every trainer takes the same pair of arguments: a [`GmmConfig`] describing
//! the *model* (components, iteration budget, regularization) and an
//! [`fml_linalg::ExecPolicy`] describing the *execution* (kernel policy,
//! sparse-path mode, scan block size, worker threads, seed, telemetry
//! observer).  The preferred entry point is `fml_core::Session`, which fits
//! any model family through one surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod em;
pub mod estep;
pub mod factorized;
pub mod init;
pub mod materialized;
pub mod model;
pub mod sparse;
pub mod streaming;

pub use em::{EmOptions, GmmFit};
pub use estep::EStep;
pub use factorized::FactorizedGmm;
pub use init::GmmInit;
pub use materialized::MaterializedGmm;
pub use model::{GmmBatchPrediction, GmmModel, Precomputed};
pub use streaming::StreamingGmm;

/// Model configuration shared by every GMM training variant.
///
/// Holds only *model* concerns.  Execution knobs (kernel policy, sparse mode,
/// block size, threads, seed) live on [`fml_linalg::ExecPolicy`], which every
/// trainer takes alongside this config.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmConfig {
    /// Number of mixture components `K`.
    pub k: usize,
    /// Maximum number of EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the change of the total log-likelihood between
    /// consecutive iterations (`0.0` disables early stopping, so every variant
    /// performs exactly `max_iters` iterations — the fairest timing comparison).
    pub tol: f64,
    /// Ridge added to covariance diagonals whenever a component's covariance is
    /// not positive definite.
    pub ridge: f64,
    /// Spread of the random initial means.
    pub init_spread: f64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        Self {
            k: 5,
            max_iters: 10,
            tol: 0.0,
            ridge: 1e-6,
            init_spread: 1.0,
        }
    }
}

impl GmmConfig {
    /// Convenience constructor fixing the component count.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Returns a copy with a different iteration budget.
    pub fn iterations(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Returns a copy with a different convergence tolerance.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = GmmConfig::default();
        assert_eq!(c.k, 5);
        assert_eq!(c.max_iters, 10);
        assert_eq!(c.tol, 0.0);
        assert!(c.ridge > 0.0);
    }

    #[test]
    fn builder_methods() {
        let c = GmmConfig::with_k(3).iterations(25).tolerance(1e-4);
        assert_eq!(c.k, 3);
        assert_eq!(c.max_iters, 25);
        assert_eq!(c.tol, 1e-4);
    }
}
