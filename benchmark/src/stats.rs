//! Sample summaries and the bound comparison.
//!
//! Timings are reported as the **median** of the timed samples, with minimum,
//! maximum and count beside it — not the min-of-windows estimator the kernel
//! micro-benches use, which hides exactly the slow cases an end-to-end user
//! pays for.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Linear-interpolated percentile `p ∈ [0, 100]` of `samples` (any order).
///
/// # Panics
/// Panics on an empty slice: every caller summarizes at least one sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            median: median(samples),
            min: percentile(samples, 0.0),
            max: percentile(samples, 100.0),
            n: samples.len(),
        }
    }
}

/// By what share of `base` the value `new` is **worse** (negative when it is
/// better), in the metric's own direction.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Whether two runs of the same code agree on a metric: neither is worse than
/// the other by more than `bound`.
pub fn repeats_within(better: Better, bound: f64, a: f64, b: f64) -> bool {
    worsening(better, a, b) <= bound && worsening(better, b, a) <= bound
}

/// Relative difference `|a − b| / max(|a|, |b|)`, `0` when both are zero.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale > 0.0 {
        (a - b).abs() / scale
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 2.0, 3.0]), 2.5));
        assert!(close(median(&[7.5]), 7.5));
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!(close(percentile(&xs, 0.0), 10.0));
        assert!(close(percentile(&xs, 25.0), 20.0));
        assert!(close(percentile(&xs, 90.0), 46.0));
        assert!(close(percentile(&xs, 100.0), 50.0));
        assert!(close(percentile(&xs, 250.0), 50.0));
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[0.5, 0.2, 0.9, 0.4]);
        assert!(close(s.median, 0.45));
        assert!(close(s.min, 0.2));
        assert!(close(s.max, 0.9));
        assert_eq!(s.n, 4);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        // a time that grew 10% is 10% worse; a rate that grew 10% is better
        assert!(close(worsening(Better::Lower, 2.0, 2.2), 0.1));
        assert!(close(worsening(Better::Higher, 2.0, 2.2), -0.1));
        assert!(close(worsening(Better::Higher, 2.0, 1.5), 0.25));
    }

    #[test]
    fn repeat_check_is_symmetric_and_respects_the_bound() {
        assert!(repeats_within(Better::Lower, 0.10, 1.00, 1.09));
        assert!(repeats_within(Better::Lower, 0.10, 1.09, 1.00));
        assert!(!repeats_within(Better::Lower, 0.10, 1.00, 1.12));
        assert!(!repeats_within(Better::Lower, 0.10, 1.12, 1.00));
        // exact metrics: only identical values repeat
        assert!(repeats_within(Better::Higher, 0.0, 4096.0, 4096.0));
        assert!(!repeats_within(Better::Higher, 0.0, 4096.0, 4097.0));
    }

    #[test]
    fn rel_diff_handles_zero_and_sign() {
        assert!(close(rel_diff(0.0, 0.0), 0.0));
        assert!(close(rel_diff(-100.0, -100.0001), 1e-6 / 1.000001));
        assert!(rel_diff(1.0, -1.0) > 1.9);
    }
}
