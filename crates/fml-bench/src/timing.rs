//! The shared measurement core every bench harness in this crate uses.
//!
//! One timer, one smoke switch, one noise model — extracted from
//! `benches/linalg_kernels.rs` so `serve_scoring` (and future harnesses)
//! stop re-inventing ad-hoc warm-up/mean loops with different noise
//! behavior.  The estimator is **min of window means**: scheduler
//! preemptions and VM steal-time only ever *inflate* a window, so the
//! minimum is the noise-robust estimate of the true cost (one bad window is
//! discarded instead of polluting a grand mean — tiny kernels measure
//! microseconds per window and a single preemption is bigger than the
//! signal).

use std::time::Instant;

/// Whether `FML_BENCH_SMOKE=1` is set: harnesses run every measured case
/// exactly once (correctness/API smoke in CI) instead of paying
/// measurement-grade repetition.
pub use criterion::smoke_mode as smoke;

/// Number of measurement windows; the minimum window mean is reported.
const WINDOWS: usize = 5;

/// Total measurement budget in seconds (split across the windows).
const TARGET_SECS: f64 = 0.8;

/// Measures `f`, returning ns/iter (a single timed call in smoke mode).
///
/// One warm-up call, then a probe call sizes the repetition budget
/// (~`TARGET_SECS` total, capped at 200 reps for heavyweight bodies and
/// much higher for sub-10µs kernels — still only milliseconds of wall
/// time), split into `WINDOWS` windows whose **minimum** mean wins.
pub fn measure_ns<F: FnMut()>(mut f: F) -> f64 {
    f();
    if smoke() {
        let t = Instant::now();
        f();
        return t.elapsed().as_nanos() as f64;
    }
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let cap = if per_iter < 1e-5 { 50_000 } else { 200 };
    let reps = ((TARGET_SECS / per_iter) as usize).clamp(WINDOWS, cap);
    let window = (reps / WINDOWS).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let t = Instant::now();
        for _ in 0..window {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / window as f64);
    }
    best
}

/// [`measure_ns`] reported in milliseconds — the unit the scoring-level
/// harnesses print and emit.
pub fn measure_ms<F: FnMut()>(f: F) -> f64 {
    measure_ns(f) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The timer always runs the body at least once beyond the warm-up and
    /// returns a positive, finite estimate.
    #[test]
    fn measure_runs_the_body_and_reports_positive_time() {
        let calls = AtomicUsize::new(0);
        let ns = measure_ns(|| {
            calls.fetch_add(1, Ordering::Relaxed);
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(ns.is_finite() && ns > 0.0, "got {ns}");
        assert!(
            calls.load(Ordering::Relaxed) >= 2,
            "warm-up plus at least one measured call"
        );
    }

    #[test]
    fn ms_is_the_ns_unit_scaled() {
        let ms = measure_ms(|| {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(ms.is_finite() && ms > 0.0 && ms < 1e3, "got {ms} ms");
    }
}
