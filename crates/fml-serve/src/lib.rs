//! # fml-serve
//!
//! The serving layer over the `fml` estimator surface: **factorized batch
//! scoring** and **model persistence** for trained models.
//!
//! Training (`fml-core`'s [`Session::fit`](fml_core::Session::fit)) pushes
//! model construction through the join; this crate closes the loop at
//! inference time.  A [`Trained`](fml_core::Trained) fit scores every fact
//! row of a normalized join without materializing it — per-dimension-tuple
//! score terms are computed once per distinct dimension tuple and reused for
//! all matching facts, with the same sparse-representation dispatch
//! (one-hot / CSR gathers, GMM mean-decomposition quadratic forms) and
//! [`ExecPolicy`](fml_linalg::ExecPolicy)-routed kernels the trainers use:
//!
//! ```no_run
//! use fml_core::prelude::*;
//! use fml_serve::prelude::*;
//!
//! let workload = fml_core::fml_data::SyntheticConfig::gmm_default().generate().unwrap();
//! let session = Session::new(&workload.db).join(&workload.spec);
//! let trained = session.fit(Gmm::with_k(5)).unwrap();
//!
//! // Factorized batch scoring: cluster + log-likelihood per fact row,
//! // computed through the join (never densified).
//! let scores = session.score(&trained).unwrap();
//! println!("{} rows, total ll {}", scores.len(), scores.total_log_likelihood());
//!
//! // Persistence: exact (bit-level) round-trip across processes.
//! trained.save("model.fml").unwrap();
//! let back = TrainedGmm::load("model.fml").unwrap();
//! assert_eq!(back.fit.model.max_param_diff(&trained.fit.model), 0.0);
//! ```
//!
//! The three scoring strategies mirror the training strategies
//! ([`Algorithm`](fml_core::Algorithm)): materialize-then-score (the oracle),
//! stream-and-score, and the factorized default — and the factorized path is
//! **bit-identical** to the materialized oracle under every kernel policy and
//! sparse mode (see [`scorer`]).  [`ScoreObserver`] provides per-batch
//! telemetry (rows, wall-time, I/O deltas) symmetric to the training-side
//! [`FitObserver`](fml_linalg::FitObserver) stream, and [`ModelStore`] is the
//! versioned save/load surface with explicit corruption and
//! version-mismatch errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod observe;
pub mod persist;
pub mod scorer;

pub use observe::{ScoreEvent, ScoreNotifier, ScoreObserver, ScoreTrace};
pub use persist::{ModelFamily, ModelStore, PersistError, FORMAT_VERSION, MAGIC};
pub use scorer::{GmmScore, Scorer, Scores, Scoring, SessionScoring};

/// One-stop imports for the serving surface: `use fml_serve::prelude::*;`.
pub mod prelude {
    pub use crate::observe::{ScoreEvent, ScoreObserver, ScoreTrace};
    pub use crate::persist::{ModelStore, PersistError};
    pub use crate::scorer::{GmmScore, Scorer, Scores, Scoring, SessionScoring};
}
