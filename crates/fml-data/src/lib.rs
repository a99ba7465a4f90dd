//! # fml-data
//!
//! Workload generators for the paper's evaluation: normalized (star-schema)
//! datasets with controllable redundancy, stored through [`fml_store`].
//!
//! * [`rng`] — deterministic random sampling helpers (Box–Muller normals, mixture
//!   sampling) so every experiment is reproducible from a seed.
//! * [`synthetic`] — the synthetic binary-join datasets of Tables II & III:
//!   parameters `n_S`, `n_R`, `d_S`, `d_R`, `K`, tuple ratio `rr = n_S/n_R`.
//! * [`multiway`] — synthetic star schemas with `q` dimension tables, mirroring
//!   the Movies-3way construction of Section VII-A.
//! * [`emulated`] — stand-ins for the real Hamlet-Plus datasets (Expedia 1–5,
//!   Walmart, Movies) reproducing their cardinalities and dimensionalities
//!   (Tables IV & V) with synthetic values, including the one-hot "Sparse"
//!   variants used for the NN experiments.
//! * [`feature_block`] — the typed per-relation feature representation
//!   ([`FeatureBlock`]): dense matrices, one-hot index sets or weighted CSR
//!   rows, generated in that form and stored as such — each relation's
//!   schema declares its feature groups, so nothing is densified on the
//!   way to the page.
//! * [`onehot`] — one-hot encoding utilities used to build the sparse variants.
//! * [`workload`] — a small bundle type (`Database` + `JoinSpec` + metadata) handed
//!   to trainers and the benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod emulated;
pub mod feature_block;
pub mod multiway;
pub mod onehot;
pub mod rng;
pub mod synthetic;
pub mod workload;

pub use emulated::EmulatedDataset;
pub use feature_block::FeatureBlock;
pub use multiway::MultiwayConfig;
pub use onehot::OneHotSpec;
pub use synthetic::SyntheticConfig;
pub use workload::Workload;
