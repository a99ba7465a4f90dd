//! The paper's analytic cost models (Section V-A and V-B).
//!
//! * [`GmmIoCostModel`] — page-I/O cost of `M-GMM` versus `S-GMM`/`F-GMM` as a
//!   function of the relation sizes, the block size, the number of EM
//!   iterations and the passes an iteration makes over the data
//!   ([`PAPER_PASSES_PER_ITERATION`] for Algorithm 1 as the paper states it,
//!   [`ENGINE_PASSES_PER_ITERATION`] for this engine's fused EM), including
//!   the `BlockSize` crossover point below which materializing the join is
//!   cheaper.
//! * [`SavingRateModel`] — the computation-saving rate
//!   `∆τ/τ = ((n_S/n_R − 1)(τ_s + d_R·τ_m)) / ((n_S/n_R)(d_S/d_R + 1)(τ_s + d·τ_m))`
//!   of the factorized scatter computation (Section V-B), predicting how the
//!   speed-up grows with the tuple ratio and the dimension-table width.

/// Passes over the data per EM iteration in the paper's Algorithm 1:
/// responsibilities, means, covariances around the new means.
pub const PAPER_PASSES_PER_ITERATION: u64 = 3;

/// Passes over the data per EM iteration in this engine: `fml-gmm` fuses the
/// three on mean-shifted sufficient statistics.
pub const ENGINE_PASSES_PER_ITERATION: u64 = 1;

/// Page-I/O cost model for GMM training (Section V-A).  The formulas are the
/// paper's, with its `3·iter` written `passes·iter`: every method that counts
/// training passes takes the passes per iteration as an argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmIoCostModel {
    /// Pages of the fact table `|S|`.
    pub s_pages: u64,
    /// Pages of the dimension table `|R|`.
    pub r_pages: u64,
    /// Pages of the materialized join result `|T|`.
    pub t_pages: u64,
    /// Pages read per block of the outer relation (`BlockSize`).
    pub block_pages: u64,
    /// Number of EM iterations.
    pub iterations: u64,
}

impl GmmIoCostModel {
    /// Number of probe passes over `S` for one scan of `R` in blocks.
    fn probes(&self) -> u64 {
        self.r_pages.div_ceil(self.block_pages.max(1))
    }

    /// One on-the-fly join pass: `|R| + |R|/BlockSize·|S|` page reads.
    pub fn join_pass_reads(&self) -> u64 {
        self.r_pages + self.probes() * self.s_pages
    }

    /// Total page I/O of `M-GMM`: join + materialize + `passes·iter` scans of
    /// `T`.
    pub fn materialized_io(&self, passes: u64) -> u64 {
        self.join_pass_reads() + self.t_pages + passes * self.iterations * self.t_pages
    }

    /// Total page I/O of `S-GMM` / `F-GMM`: `passes·iter` on-the-fly join
    /// passes.
    pub fn streaming_io(&self, passes: u64) -> u64 {
        passes * self.iterations * self.join_pass_reads()
    }

    /// Whether the streaming strategies beat materialization on I/O with the
    /// configured block size.
    pub fn streaming_wins(&self, passes: u64) -> bool {
        self.streaming_io(passes) < self.materialized_io(passes)
    }

    /// The `BlockSize` threshold of Section V-A: with `m = passes·iter`,
    /// streaming has lower I/O cost whenever the block size exceeds
    /// `((m − 1)·|R|·|S|) / ((m + 1)·|T| − (m − 1)·|R|)`.
    /// Returns `None` when the denominator is non-positive (then streaming wins
    /// for every block size).
    pub fn crossover_block_pages(&self, passes: u64) -> Option<f64> {
        let m = (passes * self.iterations) as f64;
        let numer = (m - 1.0) * self.r_pages as f64 * self.s_pages as f64;
        let denom = (m + 1.0) * self.t_pages as f64 - (m - 1.0) * self.r_pages as f64;
        if denom <= 0.0 {
            None
        } else {
            Some(numer / denom)
        }
    }
}

/// The computation-saving model of Section V-B for the factorized scatter update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingRateModel {
    /// Fact-table cardinality `n_S`.
    pub n_s: u64,
    /// Dimension-table cardinality `n_R`.
    pub n_r: u64,
    /// Fact-table feature count `d_S`.
    pub d_s: usize,
    /// Dimension-table feature count `d_R`.
    pub d_r: usize,
    /// Cost of one subtraction (`τ_s`), in arbitrary units.
    pub tau_sub: f64,
    /// Cost of one multiplication (`τ_m`), in arbitrary units.
    pub tau_mul: f64,
}

impl SavingRateModel {
    /// Builds the model with unit operation costs (`τ_s = τ_m = 1`).
    pub fn unit_costs(n_s: u64, n_r: u64, d_s: usize, d_r: usize) -> Self {
        Self {
            n_s,
            n_r,
            d_s,
            d_r,
            tau_sub: 1.0,
            tau_mul: 1.0,
        }
    }

    /// Tuple ratio `rr = n_S / n_R`.
    pub fn tuple_ratio(&self) -> f64 {
        self.n_s as f64 / self.n_r as f64
    }

    /// Total dimensionality `d = d_S + d_R`.
    pub fn d(&self) -> usize {
        self.d_s + self.d_r
    }

    /// Baseline cost `τ = N·d·(τ_s + d·τ_m)` of the dense scatter computation.
    pub fn baseline_cost(&self) -> f64 {
        let d = self.d() as f64;
        self.n_s as f64 * d * (self.tau_sub + d * self.tau_mul)
    }

    /// Absolute saving `∆τ = (n_S − n_R)·d_R·(τ_s + d_R·τ_m)` of the factorized
    /// computation.
    pub fn saving(&self) -> f64 {
        (self.n_s.saturating_sub(self.n_r)) as f64
            * self.d_r as f64
            * (self.tau_sub + self.d_r as f64 * self.tau_mul)
    }

    /// The saving rate `∆τ/τ` (a number in `[0, 1)`).
    pub fn saving_rate(&self) -> f64 {
        self.saving() / self.baseline_cost()
    }

    /// The predicted speed-up factor `τ / (τ − ∆τ)` of the factorized scatter
    /// computation over the dense one.
    pub fn predicted_speedup(&self) -> f64 {
        1.0 / (1.0 - self.saving_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GmmIoCostModel {
        GmmIoCostModel {
            s_pages: 1000,
            r_pages: 10,
            t_pages: 2000,
            block_pages: 64,
            iterations: 10,
        }
    }

    #[test]
    fn io_costs_follow_the_formulas() {
        let m = model();
        // one join pass: 10 + ceil(10/64)*1000 = 1010
        assert_eq!(m.join_pass_reads(), 1010);
        // the paper's Algorithm 1 — M: 1010 + 2000 + 3*10*2000 = 63010
        assert_eq!(m.materialized_io(PAPER_PASSES_PER_ITERATION), 63_010);
        // S/F: 3*10*1010 = 30300
        assert_eq!(m.streaming_io(PAPER_PASSES_PER_ITERATION), 30_300);
        assert!(m.streaming_wins(PAPER_PASSES_PER_ITERATION));
        // this engine — M: 1010 + 2000 + 10*2000 = 23010, S/F: 10*1010 = 10100
        assert_eq!(m.materialized_io(ENGINE_PASSES_PER_ITERATION), 23_010);
        assert_eq!(m.streaming_io(ENGINE_PASSES_PER_ITERATION), 10_100);
        assert!(m.streaming_wins(ENGINE_PASSES_PER_ITERATION));
    }

    #[test]
    fn tiny_blocks_favor_materialization() {
        let m = GmmIoCostModel {
            block_pages: 1,
            ..model()
        };
        // S/F must rescan S once per R page: iter*(10 + 10*1000) per pass ≫
        // M's cost, whichever pass count
        for passes in [PAPER_PASSES_PER_ITERATION, ENGINE_PASSES_PER_ITERATION] {
            assert!(!m.streaming_wins(passes));
            assert!(m.materialized_io(passes) < m.streaming_io(passes));
        }
    }

    #[test]
    fn crossover_threshold_separates_the_regimes() {
        let m = model();
        for passes in [PAPER_PASSES_PER_ITERATION, ENGINE_PASSES_PER_ITERATION] {
            let threshold = m.crossover_block_pages(passes).expect("finite crossover");
            // Just below the threshold materialization wins, just above streaming wins.
            let below = GmmIoCostModel {
                block_pages: threshold.floor().max(1.0) as u64,
                ..m
            };
            let above = GmmIoCostModel {
                block_pages: threshold.ceil() as u64 + 1,
                ..m
            };
            assert!(!below.streaming_wins(passes) || threshold < 1.5);
            assert!(above.streaming_wins(passes));
        }
    }

    #[test]
    fn crossover_none_when_denominator_nonpositive() {
        // |T| pathologically small relative to |R|
        let m = GmmIoCostModel {
            s_pages: 10,
            r_pages: 1000,
            t_pages: 10,
            block_pages: 4,
            iterations: 5,
        };
        assert!(m
            .crossover_block_pages(PAPER_PASSES_PER_ITERATION)
            .is_none());
    }

    #[test]
    fn saving_rate_grows_with_tuple_ratio_and_dimension_width() {
        let base = SavingRateModel::unit_costs(100_000, 1000, 5, 5);
        let higher_rr = SavingRateModel::unit_costs(1_000_000, 1000, 5, 5);
        let wider_r = SavingRateModel::unit_costs(100_000, 1000, 5, 15);
        assert!(higher_rr.saving_rate() > base.saving_rate());
        assert!(wider_r.saving_rate() > base.saving_rate());
        assert!(base.saving_rate() > 0.0 && base.saving_rate() < 1.0);
        assert!(wider_r.predicted_speedup() > 1.0);
    }

    #[test]
    fn no_saving_without_redundancy() {
        // n_S == n_R: every dimension tuple matches exactly one fact tuple.
        let m = SavingRateModel::unit_costs(1000, 1000, 5, 15);
        assert_eq!(m.saving(), 0.0);
        assert_eq!(m.saving_rate(), 0.0);
        assert_eq!(m.predicted_speedup(), 1.0);
        assert_eq!(m.tuple_ratio(), 1.0);
        assert_eq!(m.d(), 20);
    }
}
