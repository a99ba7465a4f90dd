//! The benchmark's workloads: what is generated, and why each one is here.
//!
//! Shapes (widths, tuple ratios, K, n_h, iterations) follow the repository's
//! paper-reproduction sweeps; cardinalities are cut so that one run — five
//! cold set-ups, a discarded warm-up round and `run_seconds` of timed rounds —
//! fits the driver's time cap on a 2-core machine.  The generator seed is the
//! run's `--seed`; the program under test only ever sees the generated
//! relations.

use fml_core::fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_core::fml_data::{EmulatedDataset, Workload};
use fml_core::fml_store::StoreResult;

/// Which model family a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Gaussian mixture: K = 5, 3 EM iterations, tol = 0.
    Gmm,
    /// Feed-forward network: one hidden layer of 50 units, 3 epochs.
    Nn,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, repeated in `BENCHMARK.json`.
    pub why: &'static str,
    pub family: FamilyKind,
    /// Factorized fits and scores per round.  The factorized strategy is an
    /// order of magnitude cheaper than M and S on the wide workload, so it is
    /// sampled more often there to keep its median as steady as theirs.
    pub f_reps: usize,
    build: fn(seed: u64, smoke: bool) -> StoreResult<Workload>,
}

impl WorkloadSpec {
    /// Generates the workload's relations into a fresh in-memory database.
    /// `smoke` shrinks the fact table to about 2 000 rows.
    pub fn generate(&self, seed: u64, smoke: bool) -> StoreResult<Workload> {
        (self.build)(seed, smoke)
    }
}

fn gmm_wide_binary(seed: u64, smoke: bool) -> StoreResult<Workload> {
    // Expedia4: d_S = 7, d_R = 78, rr ≈ 219.
    EmulatedDataset::Expedia4.generate(if smoke { 0.003 } else { 0.03 }, seed)
}

fn gmm_narrow_star(seed: u64, smoke: bool) -> StoreResult<Workload> {
    // Movies-3way: d_S = 1, dimensions (n × 4) and (n × 21).
    EmulatedDataset::Movies3Way.generate(if smoke { 0.002 } else { 0.08 }, seed)
}

fn nn_sparse_binary(seed: u64, smoke: bool) -> StoreResult<Workload> {
    // Walmart (Sparse): d_S = 126 one-hot, d_R = 175 one-hot, rr ≈ 180.
    EmulatedDataset::WalmartSparse.generate(if smoke { 0.005 } else { 0.08 }, seed)
}

fn nn_mixed_star(seed: u64, smoke: bool) -> StoreResult<Workload> {
    // One-hot, CSR and dense dimensions side by side; the dense one has rr = 2.
    let (n_s, cat, csr, dense) = if smoke {
        (2_000, 20, 80, 1_000)
    } else {
        (48_000, 240, 960, 24_000)
    };
    MultiwayConfig {
        n_s,
        d_s: 4,
        dims: vec![
            DimSpec::categorical(cat, 40),
            DimSpec::sparse_numeric(csr, 64, 6),
            DimSpec::new(dense, 16),
        ],
        k: 5,
        noise_std: 1.0,
        with_target: true,
        seed,
    }
    .generate()
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "gmm_wide_binary",
        why: "Dense d=85 binary join, rr~219: quadratic forms and GER are nearly all of M/S and F's dimension-side reuse removes them; kernel-bound, the store does little.",
        family: FamilyKind::Gmm,
        f_reps: 3,
        build: gmm_wide_binary,
    },
    WorkloadSpec {
        name: "gmm_narrow_star",
        why: "Width-26 three-way star, d_S=1: per-row trainer work, tuple decode and FK lookups dominate, counted kernel FLOPs are negligible; F ~ M on fit, 3.6x on score. A kernel change should move nothing here.",
        family: FamilyKind::Gmm,
        f_reps: 1,
        build: gmm_narrow_star,
    },
    WorkloadSpec {
        name: "nn_sparse_binary",
        why: "301 one-hot columns, binary join: first-layer gathers, representation detection and the scan-order cache; M's wide temp table makes page I/O and peak RSS live.",
        family: FamilyKind::Nn,
        f_reps: 1,
        build: nn_sparse_binary,
    },
    WorkloadSpec {
        name: "nn_mixed_star",
        why: "Star with one-hot, CSR and dense dimensions, the dense one at rr=2: FK-keyed cache and star NN arms; per-tuple overhead bought for high-rr reuse shows as a regression here.",
        family: FamilyKind::Nn,
        f_reps: 1,
        build: nn_mixed_star,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
