//! # fml-core
//!
//! The public façade of the `fml` workspace: train nonlinear models (Gaussian
//! Mixture Models and feed-forward Neural Networks) **directly over normalized
//! relational data**, choosing between the three algorithm strategies studied in
//! the paper — materialize, stream, or factorize — through one estimator surface.
//!
//! A [`Session`] binds a database, a join and an
//! [`ExecPolicy`](fml_linalg::ExecPolicy) (kernel policy, sparse mode, block
//! size, threads, seed, telemetry observer — every execution knob in one
//! place); any [`Estimator`] — [`Gmm`], [`Nn`], or your own — then fits over
//! it:
//!
//! ```no_run
//! use fml_core::prelude::*;
//!
//! let workload = fml_core::fml_data::SyntheticConfig::gmm_default().generate().unwrap();
//! let trained = Session::new(&workload.db)
//!     .join(&workload.spec)
//!     .exec(ExecPolicy::new().seed(42))
//!     .fit(Gmm::with_k(5).algorithm(Algorithm::Factorized))
//!     .unwrap();
//! println!("log-likelihood: {}", trained.final_log_likelihood());
//! println!("pages of I/O:   {}", trained.io.total_page_io());
//! ```
//!
//! Besides the estimators, the crate exposes the paper's analytic cost models
//! ([`cost`]) and small reporting helpers ([`report`]) used by the benchmark
//! harness that regenerates the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod api;
pub mod cost;
pub mod report;

pub use api::{Algorithm, Estimator, Gmm, Nn, Session, Trained, TrainedGmm, TrainedNn};
pub use cost::{GmmIoCostModel, SavingRateModel};

/// One-stop imports for the estimator API: `use fml_core::prelude::*;`.
pub mod prelude {
    pub use crate::api::{Algorithm, Estimator, Gmm, Nn, Session, Trained, TrainedGmm, TrainedNn};
    pub use fml_gmm::{GmmConfig, GmmFit};
    pub use fml_linalg::{
        ExecPolicy, FitEvent, FitObserver, KernelPolicy, SparseMode, TraceObserver,
    };
    pub use fml_nn::{Activation, NnConfig, NnFit};
}

// Re-export the building blocks so downstream users need a single dependency.
pub use fml_data;
pub use fml_gmm;
pub use fml_linalg;
pub use fml_nn;
pub use fml_store;
