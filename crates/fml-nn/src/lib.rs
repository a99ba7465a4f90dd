//! # fml-nn
//!
//! Feed-forward neural networks trained by back-propagation over **normalized**
//! relational data, implementing the three algorithm variants of the paper
//! (Section VI):
//!
//! * [`MaterializedNn`] (`M-NN`) — materialize the PK/FK join, then train
//!   scanning the denormalized table each epoch.
//! * [`StreamingNn`] (`S-NN`) — join on the fly each epoch and feed the
//!   joined tuples to an unchanged trainer.
//! * [`FactorizedNn`] (`F-NN`) — push the first-layer computation
//!   through the join: the partial pre-activation `W¹_R·x_R + b¹` is computed once
//!   per dimension tuple and reused for every matching fact tuple during forward
//!   propagation, and the first-layer weight gradient's dimension-side block is
//!   accumulated per dimension tuple during backward propagation; the redundant
//!   dimension fields are never read from storage (Section VI-A3's I/O saving).
//!   One driver serves binary and star joins (Section VI-B).
//!
//! The three are one epoch driver ([`factorized`]) over three scans: `F`
//! factorizes every dimension, `S` inlines every dimension into the fact's
//! row, and `M` reads its materialized table as the fact-only join
//! (`q = 0`) — so `M` and `S` are the one-block partition `[d]` and their
//! fits are bit-identical.
//!
//! The first-layer arithmetic lives in exactly one place, [`first_layer`]:
//! `W¹` is hoisted once per epoch into one embedding table per relation
//! (`d_b × n_h`, row `j` = the weights of input column `j`), and the driver
//! and the batch scorer (`fml-serve`) take their partial products from
//! [`FirstLayer::partial`] and accumulate the weight gradient in
//! [`FirstLayerGrad`].  The per-example pass above the first layer runs in a
//! reusable [`Workspace`] and allocates nothing.
//!
//! [`layer_reuse`] contains the paper's negative result about layers ≥ 2: only
//! additive activation functions admit exact reuse beyond the first layer, and
//! even then the reused evaluation costs at least as many operations as the direct
//! one (Section VI-A2).
//!
//! All variants run full-batch gradient descent by default, which makes the
//! learned parameters independent of tuple order and therefore identical across
//! variants up to floating-point rounding — the property the integration tests
//! assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod factorized;
pub mod first_layer;
pub mod gradcheck;
pub mod layer;
pub mod layer_reuse;
pub mod loss;
pub mod mlp;
pub mod trainer;

pub use activation::Activation;
pub use factorized::FactorizedNn;
pub use first_layer::{FirstLayer, FirstLayerGrad};
pub use layer::DenseLayer;
pub use mlp::{Mlp, Workspace};
pub use trainer::{MaterializedNn, NnConfig, NnFit, StreamingNn};
