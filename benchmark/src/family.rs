//! The two model families behind one face, so the end-to-end loop and the
//! traced run are each written once.
//!
//! Everything goes through the public `Session` surface (`fit`, `score_with`)
//! and the `ModelStore` save/load pair; model configurations are the values
//! the repository's own sweeps use (`bench_gmm_config` / `bench_nn_config`).

use fml_core::fml_store::StoreResult;
use fml_core::prelude::*;
use fml_serve::prelude::*;
use std::path::Path;

/// EM iterations / training epochs of every fit in the benchmark.
pub const ITERATIONS: usize = 3;

/// A model family as the benchmark drives it.
pub trait Family {
    /// The family's fit type.
    type Fit: Scorer;

    /// Passes over the training data per iteration, for the Section V-A
    /// page-I/O prediction (E-step, mean and covariance passes for EM; one
    /// forward/backward pass per epoch for the network).
    const PASSES_PER_ITERATION: u64;

    /// Fits with the given strategy.
    fn fit(session: &Session<'_>, algorithm: Algorithm) -> StoreResult<Trained<Self::Fit>>;

    /// The final training objective (log-likelihood / loss).
    fn objective(trained: &Trained<Self::Fit>) -> f64;

    /// One score row as comparable bits.
    fn row_bits(row: &<Self::Fit as Scorer>::Row) -> [u64; 2];

    /// Saves the model to `path`.
    fn save(trained: &Trained<Self::Fit>, path: &Path) -> Result<(), PersistError>;

    /// Loads a model from `path`.
    fn load(path: &Path) -> Result<Trained<Self::Fit>, PersistError>;
}

/// Gaussian mixture: K = 5, 3 EM iterations, no early stop.
pub struct GmmFamily;

impl Family for GmmFamily {
    type Fit = GmmFit;
    const PASSES_PER_ITERATION: u64 = 3;

    fn fit(session: &Session<'_>, algorithm: Algorithm) -> StoreResult<Trained<GmmFit>> {
        session.fit(
            Gmm::with_k(5)
                .iterations(ITERATIONS)
                .tolerance(0.0)
                .algorithm(algorithm),
        )
    }

    fn objective(trained: &Trained<GmmFit>) -> f64 {
        trained.final_log_likelihood()
    }

    fn row_bits(row: &GmmScore) -> [u64; 2] {
        [row.cluster as u64, row.log_likelihood.to_bits()]
    }

    fn save(trained: &Trained<GmmFit>, path: &Path) -> Result<(), PersistError> {
        trained.save(path)
    }

    fn load(path: &Path) -> Result<Trained<GmmFit>, PersistError> {
        Trained::<GmmFit>::load(path)
    }
}

/// Feed-forward network: one hidden layer of 50 units, 3 epochs.
pub struct NnFamily;

impl Family for NnFamily {
    type Fit = NnFit;
    const PASSES_PER_ITERATION: u64 = 1;

    fn fit(session: &Session<'_>, algorithm: Algorithm) -> StoreResult<Trained<NnFit>> {
        session.fit(Nn::with_hidden(50).epochs(ITERATIONS).algorithm(algorithm))
    }

    fn objective(trained: &Trained<NnFit>) -> f64 {
        trained.final_loss()
    }

    fn row_bits(row: &f64) -> [u64; 2] {
        [0, row.to_bits()]
    }

    fn save(trained: &Trained<NnFit>, path: &Path) -> Result<(), PersistError> {
        trained.save(path)
    }

    fn load(path: &Path) -> Result<Trained<NnFit>, PersistError> {
        Trained::<NnFit>::load(path)
    }
}

/// The metric suffix of a strategy (`m`, `s`, `f`).
pub fn suffix(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Materialized => "m",
        Algorithm::Streaming => "s",
        Algorithm::Factorized => "f",
    }
}
