//! # fml-linalg
//!
//! Dense linear-algebra kernels used by the factorized machine-learning crates
//! (`fml-gmm`, `fml-nn`).  The crate deliberately implements only the pieces the
//! paper's algorithms need, with predictable `f64` semantics:
//!
//! * [`Vector`] / free slice kernels ([`vector`]) — dot products, AXPY, elementwise ops.
//! * [`Matrix`] ([`matrix`]) — row-major dense matrices with GEMM/GEMV ([`gemm`]),
//!   outer products and sub-block extraction.
//! * [`Cholesky`] ([`cholesky`]) — factorization of symmetric positive-definite
//!   matrices, used for `Σ⁻¹` and `log|Σ|` in the GMM E-step.
//! * [`BlockPartition`] ([`block`]) — the block decompositions at the heart of the
//!   paper: partition a feature vector / covariance matrix along relation
//!   boundaries `[d_S, d_{R_1}, …, d_{R_q}]` and evaluate quadratic forms and
//!   scatter matrices block-by-block (Equations 7–24 of the paper).
//! * [`sparse`] — one-hot kernels for categorical feature blocks: gathers,
//!   scatter-adds and quadratic forms over active-index sets, bit-identical
//!   to the dense [`reference`](mod@reference) loops, and [`BlockVec`], a
//!   row in its stored form (dense, one-hot or CSR) with one method per
//!   operation over the three.
//! * [`csr`] — general weighted-sparse kernels ([`CsrBlock`], `spmm_csr`,
//!   CSR gathers/scatters/quadratic forms) for near-sparse numeric blocks;
//!   same exactness contract as [`sparse`], with the multiplications kept.
//! * [`simd`] — the 4-lane scalar kernels the blocked kernels run on (dot,
//!   add, the GEMM micro-kernel, sparse gather / scatter).
//! * [`reference`](mod@reference) — the oracle: the strictly sequential
//!   loops the kernels are tested against.
//! * [`sym`] — helpers for symmetric matrices (regularization, SPD checks).
//! * [`exec`] — the model-independent [`ExecPolicy`] every trainer consumes
//!   (driver fan-out, sparse mode, block size, threads, seed, telemetry
//!   observer), with builder > environment > default precedence resolved in
//!   one place.
//!
//! ## One kernel arithmetic, one optional fan-out
//!
//! Every heavy kernel is a sequential function of its operands: cache-tiled
//! GEMM with packed panels and a register-blocked `4×8` micro-kernel, 4-way
//! unrolled reductions elsewhere.  The strictly sequential loops it replaced
//! are [`reference`](mod@reference), the oracle the kernels are tested
//! against; the blocked GEMM is ~3× faster than it on a 512³ product on one
//! core (see `BENCH_kernels.json`).
//!
//! What a run chooses is the [`KernelPolicy`] ([`policy`]): under
//! `BlockedParallel` the dense GMM trainers' per-batch loops and the
//! factorized scorer's per-block rows fan out through
//! [`policy::par_row_bands_with_threads`] — one `std::thread::scope` per
//! region, a scoped thread per band but the last, which runs inline; under
//! `Blocked` (the default) they run inline.  Pin it per training or scoring
//! run ([`ExecPolicy::kernel_policy`]); `FML_THREADS` sets the default
//! worker count of a fan-out: a region has at most that many bands.
//!
//! **Determinism guarantees.**  Every kernel is a pure function of its
//! inputs.  A driver's fan-out partitions its work by problem shape and
//! worker count only and merges partial results in chunk-index order (a
//! fixed reduction tree), so a fit or score is a pure function of its
//! inputs, policy and thread count.  Against the reference, results differ
//! only in the associativity of floating-point addition — the
//! multiplication set is identical — so they agree within
//! [`approx_eq`]-style tolerances.
//!
//! ## One arithmetic
//!
//! The blocked kernels' inner loops run through [`simd`]: portable scalar
//! code in 4-lane shape (four accumulators, multiply-then-add, the fixed
//! reduction tree `(l0+l1)+(l2+l3)`) that the compiler maps onto the host's
//! vector registers.  There is no runtime dispatch and no fused
//! multiply-add, so a kernel has one result per input on every CPU.
//!
//! `unsafe` is forbidden crate-wide, as in every library crate of the
//! workspace: the kernels reach vector ISA throughput through fixed-size
//! array tiles that the compiler fully unrolls, and the fan-out borrows the
//! caller's stack through `std::thread::scope`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod block;
pub mod cholesky;
pub mod csr;
pub mod exec;
pub mod gemm;
pub mod matrix;
pub mod policy;
pub mod reference;
pub mod simd;
pub mod sparse;
pub mod sym;
#[doc(hidden)]
pub mod testutil;
pub mod vector;

pub use block::{BlockPartition, BlockQuadraticForm, BlockScatter};
pub use cholesky::Cholesky;
pub use csr::CsrBlock;
pub use exec::{ExecPolicy, ExecSettings, FitEvent, FitNotifier, FitObserver, TraceObserver};
pub use matrix::Matrix;
pub use policy::KernelPolicy;
pub use sparse::{BlockVec, SparseMode};
pub use vector::Vector;

/// Absolute tolerance used by the crate's own tests when comparing two floating
/// point results that were produced by algebraically equivalent computations.
pub const TEST_EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely **or**
/// relatively (whichever is more permissive), which is the right comparison for
/// results of algebraically identical computations executed in different orders.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_magnitudes() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
        assert!(!approx_eq(0.0, 1e-3, 1e-12));
    }
}
