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
//!   scatter-adds and quadratic forms over active-index sets ([`BlockVec`]),
//!   bit-identical to the dense naive reference under every policy.
//! * [`csr`] — general weighted-sparse kernels ([`CsrBlock`], `spmm_csr`,
//!   CSR gathers/scatters/quadratic forms) for near-sparse numeric blocks;
//!   same exactness contract as [`sparse`], with the multiplications kept.
//! * [`simd`] — the explicit `f64x4` SIMD layer the blocked kernels run on:
//!   AVX2/FMA micro-kernels with runtime dispatch ([`SimdLevel`]), a
//!   bit-exact scalar fallback, and the `FML_SIMD` override.
//! * [`sym`] — helpers for symmetric matrices (regularization, SPD checks).
//! * [`exec`] — the model-independent [`ExecPolicy`] every trainer consumes
//!   (kernel policy, sparse mode, block size, threads, seed, telemetry
//!   observer), with builder > environment > default precedence resolved in
//!   one place.
//! * [`repcache`] — the per-tuple sparse-representation caches ([`RepCache`],
//!   [`KeyedRepCache`]) encoding the lazy scan-order fill protocol shared by
//!   all six trainers, and the ordinal-indexed [`OrdinalArena`] the star
//!   trainers keep their per-dimension-tuple terms in.
//!
//! ## Kernel policies
//!
//! Every heavy kernel is a sequential function of `(policy, operands)`; the
//! [`KernelPolicy`] ([`policy`]) picks its arithmetic:
//!
//! * `Naive` — the reference triple loops, strictly sequential accumulation.
//! * `Blocked` — cache-tiled GEMM with packed panels and a register-blocked
//!   `4×8` micro-kernel; 4-way unrolled reductions elsewhere.  ~3× faster than
//!   `Naive` on a 512³ product on one AVX2 core (see `BENCH_kernels.json`).
//! * `BlockedParallel` — the same blocked kernels; what it adds is the
//!   **drivers'** chunk fan-out (the trainers' per-batch / per-fact loops and
//!   the scorer's per-block chunks) over the persistent worker pool
//!   ([`pool`]): long-lived workers (spawned lazily, capped at
//!   [`policy::num_threads`]) with borrowed-closure dispatch, so a parallel
//!   region costs a queue push per chunk instead of a thread spawn.
//!
//! **Determinism guarantees.**  For a fixed policy every kernel is a pure
//! function of its inputs, and `BlockedParallel` is bit-identical to
//! `Blocked` kernel by kernel.  A driver's fan-out partitions its work by
//! problem shape and worker count only and merges partial results in
//! chunk-index order (a fixed reduction tree), so a fit or score is a pure
//! function of its inputs, policy and thread count.  *Across* arithmetics,
//! results differ only in the associativity of floating-point addition — the
//! multiplication set is identical — so they agree within
//! [`approx_eq`]-style tolerances, which is what the
//! materialized-vs-factorized equivalence tests rely on.
//!
//! The default policy is `Blocked`; choose another per call (every kernel
//! takes its policy as an argument), per training or scoring run
//! ([`ExecPolicy::kernel_policy`]), or per process
//! (`FML_KERNEL_POLICY=naive|blocked|parallel`, read by
//! [`ExecPolicy::resolve`] for runs that pin none).  `FML_THREADS` sets the
//! drivers' default worker count and caps the pool.
//!
//! ## SIMD layer
//!
//! The blocked kernels' inner loops run through an explicit `f64x4` SIMD
//! layer ([`simd`]): AVX2 lane primitives selected once at startup via
//! runtime CPU detection, with a scalar fallback that emulates the 4-lane
//! shape exactly.  The default mode is **bit-identical** to the scalar
//! fallback (lane-wise multiply-then-add, fixed reduction tree — no FMA
//! contraction), so every cross-policy contract above holds with SIMD on or
//! off; `FML_SIMD=off` forces the fallback and `FML_SIMD=fma` opts into a
//! fused-multiply-add fast mode that is tolerance-equal (≤ a few ULPs) to
//! the oracle instead of bit-equal.
//!
//! `unsafe` is denied crate-wide and allowed in exactly two leaf modules:
//! [`simd`]'s intrinsics module, where every `std::arch` call sits behind a
//! safe wrapper that re-verifies CPU support, and [`pool`]'s task-erasure
//! module, where the borrowed-closure dispatch is made sound by the
//! drain-before-return protocol documented there.  Everything else reaches
//! vector ISA throughput through fixed-size array tiles that the compiler
//! fully unrolls.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cholesky;
pub mod csr;
pub mod exec;
pub mod gemm;
pub mod matrix;
pub mod policy;
pub mod pool;
pub mod repcache;
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
pub use repcache::{KeyedRepCache, OrdinalArena, RepCache, RepSegment};
pub use simd::{SimdLevel, SimdMode};
pub use sparse::{BlockVec, SparseMode, SparseRep};
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
