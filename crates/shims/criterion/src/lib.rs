//! Offline shim for `criterion`.
//!
//! A minimal wall-clock benchmarking harness exposing the subset of criterion's
//! API the `fml-bench` targets use: `benchmark_group`, `bench_with_input` /
//! `bench_function`, `BenchmarkId`, `Bencher::iter`, and the `criterion_group!`
//! / `criterion_main!` macros.  No statistics beyond mean/min — the goal is
//! comparable relative timings and a harness that runs with zero dependencies.
//!
//! Environment knobs:
//! * `FML_BENCH_SMOKE=1` — run every benchmark body exactly once (CI smoke
//!   mode; catches panics and API drift without paying measurement time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::iter_over_hash_type)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a benchmark result.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Returns true when the harness should only smoke-test each benchmark body.
pub fn smoke_mode() -> bool {
    #[expect(
        clippy::disallowed_methods,
        reason = "FML_BENCH_SMOKE is the bench harness's own toggle"
    )]
    std::env::var("FML_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Identifier for one benchmark within a group (criterion-compatible).
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Identifier from a bare parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        Self { name }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] measures the closure.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Mean nanoseconds per iteration, filled by `iter`.
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Runs `f` repeatedly and records the mean wall-clock time per call.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        if smoke_mode() {
            black_box(f());
            self.mean_ns = 0.0;
            self.iters = 1;
            return;
        }
        // Warm-up: run until the warm-up budget is spent, estimating the
        // per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // Measurement: aim for `sample_size` samples within the measurement
        // budget, at least one iteration per sample.
        let budget = self.measurement_time.as_secs_f64();
        let total_iters =
            ((budget / per_iter.max(1e-9)) as u64).clamp(self.sample_size as u64, 10_000_000);
        let start = Instant::now();
        for _ in 0..total_iters {
            black_box(f());
        }
        let elapsed = start.elapsed().as_secs_f64();
        self.mean_ns = elapsed * 1e9 / total_iters as f64;
        self.iters = total_iters;
    }
}

/// A named collection of benchmarks (criterion-compatible).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the target number of samples (advisory in this shim).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            mean_ns: 0.0,
            iters: 0,
        };
        f(&mut bencher, input);
        self.report(&id, &bencher);
        self
    }

    /// Benchmarks `f` with no input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            mean_ns: 0.0,
            iters: 0,
        };
        f(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    fn report(&mut self, id: &BenchmarkId, bencher: &Bencher) {
        if smoke_mode() {
            println!("{}/{}: ok (smoke)", self.name, id.name);
        } else {
            println!(
                "{}/{}: {} iters, mean {}",
                self.name,
                id.name,
                bencher.iters,
                format_ns(bencher.mean_ns)
            );
        }
        self.criterion
            .results
            .push((format!("{}/{}", self.name, id.name), bencher.mean_ns));
    }

    /// Ends the group (prints a separator).
    pub fn finish(&mut self) {
        println!();
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Top-level harness state (criterion-compatible entry point).
#[derive(Default)]
pub struct Criterion {
    results: Vec<(String, f64)>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }

    /// All `(name, mean_ns)` results recorded so far.
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }

    /// Runs final reporting (no-op in this shim).
    pub fn final_summary(&mut self) {}
}

/// Declares a benchmark group function list (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` (criterion-compatible; requires `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_results() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2)
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(2));
            g.bench_with_input(BenchmarkId::new("f", 1), &3u64, |b, &x| b.iter(|| x * 2));
            g.finish();
        }
        assert_eq!(c.results().len(), 1);
        assert!(c.results()[0].0.starts_with("g/f"));
    }
}
