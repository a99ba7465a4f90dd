//! Integration tests for the fml-obs substrate: histogram correctness under
//! concurrent recording, Chrome trace round-trip through the crate's own
//! reader, and the disabled-path guarantees (no recording, no registry or
//! thread-local growth) that back the workspace's bit-identity contract.
//!
//! The observability mode is process-global and tests in this binary run on
//! parallel threads, so every test that flips the mode serializes on
//! [`mode_lock`] and restores `Off` before releasing it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use fml_obs::{
    chrome_trace_json, clear_spans, counter, gauge, metric_count, metric_names, parse_chrome_trace,
    prometheus_text, set_mode, snapshot_spans, span, thread_buffer_count, ObsMode,
};

/// Serializes tests that flip the process-global mode.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[test]
fn histogram_percentiles_are_correct_under_concurrent_recording() {
    let h = fml_obs::histogram_handle("fml_test_concurrent_hist");
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs concurrent recorders of its own"
    )]
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                // Thread t records t*PER_THREAD+1 ..= (t+1)*PER_THREAD, so the
                // union is exactly 1..=40_000 regardless of interleaving.
                for v in (t * PER_THREAD + 1)..=((t + 1) * PER_THREAD) {
                    h.record(v);
                }
            });
        }
    });
    let n = THREADS * PER_THREAD;
    assert_eq!(h.count(), n, "no recordings lost to races");
    assert_eq!(h.sum(), n * (n + 1) / 2, "sum is exact despite concurrency");
    // Quantile estimates are upper bucket bounds: within [true, 2*true).
    for (q, true_val) in [(0.50, n / 2), (0.90, n * 9 / 10), (0.99, n * 99 / 100)] {
        let est = h.quantile(q).unwrap();
        assert!(
            est >= true_val && est < true_val * 2,
            "q={q}: estimate {est} outside [{true_val}, {})",
            true_val * 2
        );
    }
}

#[test]
fn prometheus_exposition_has_cumulative_buckets() {
    let h = fml_obs::histogram_handle("fml_test_prom_hist_ns");
    h.record(1); // bucket le=1
    h.record(2); // bucket le=3
    h.record(3); // bucket le=3
    let text = prometheus_text();
    assert!(text.contains("# TYPE fml_test_prom_hist_ns histogram"));
    assert!(text.contains("fml_test_prom_hist_ns_bucket{le=\"1\"} 1"));
    assert!(text.contains("fml_test_prom_hist_ns_bucket{le=\"3\"} 3"));
    assert!(text.contains("fml_test_prom_hist_ns_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("fml_test_prom_hist_ns_sum 6"));
    assert!(text.contains("fml_test_prom_hist_ns_count 3"));
}

#[test]
fn json_export_parses_as_balanced_object() {
    counter!("fml_test_json_counter").add(2);
    gauge!("fml_test_json_gauge").set(-5);
    let doc = fml_obs::metrics_json();
    assert!(doc.starts_with('{') && doc.ends_with('}'));
    assert!(doc.contains("\"fml_test_json_counter\":"));
    assert!(doc.contains("\"fml_test_json_gauge\":-5"));
    // Balanced braces/brackets outside strings — metric names contain no
    // quotes, so a flat scan suffices.
    let (mut brace, mut bracket) = (0i64, 0i64);
    for c in doc.chars() {
        match c {
            '{' => brace += 1,
            '}' => brace -= 1,
            '[' => bracket += 1,
            ']' => bracket -= 1,
            _ => {}
        }
        assert!(brace >= 0 && bracket >= 0);
    }
    assert_eq!((brace, bracket), (0, 0));
}

#[test]
fn chrome_trace_round_trips_through_the_reader() {
    let _guard = mode_lock();
    set_mode(ObsMode::Trace);
    clear_spans();
    {
        let _outer = span!("fit");
        std::thread::sleep(Duration::from_millis(2));
        for _ in 0..3 {
            let _inner = span!("fit_iteration");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    fml_obs::record_span("manual", Instant::now(), Instant::now());
    set_mode(ObsMode::Off);
    let json = chrome_trace_json();
    let events = parse_chrome_trace(&json).expect("emitted trace must parse");
    assert_eq!(events.len(), 5, "one outer + three inner + one manual");
    assert!(events.iter().all(|e| e.ph == "X"));
    let outer = events.iter().find(|e| e.name == "fit").unwrap();
    let inners: Vec<_> = events
        .iter()
        .filter(|e| e.name == "fit_iteration")
        .collect();
    assert_eq!(inners.len(), 3);
    for inner in &inners {
        assert!(
            inner.ts >= outer.ts && inner.ts + inner.dur <= outer.ts + outer.dur + 0.001,
            "inner span must nest within the outer"
        );
        assert!(inner.dur >= 1_000.0, "slept 1ms, so dur >= 1000us");
    }
    assert!(outer.dur >= 5_000.0, "outer covers ~5ms of sleeps");
    clear_spans();
}

#[test]
fn ring_buffer_eviction_is_bounded_and_counted() {
    let _guard = mode_lock();
    set_mode(ObsMode::Trace);
    clear_spans();
    let before_dropped = fml_obs::dropped_spans();
    let now = Instant::now();
    for _ in 0..(fml_obs::RING_CAPACITY + 100) {
        fml_obs::record_span("evict_me", now, now);
    }
    set_mode(ObsMode::Off);
    let mine = snapshot_spans()
        .iter()
        .filter(|s| s.name == "evict_me")
        .count();
    assert!(mine <= fml_obs::RING_CAPACITY, "ring stays bounded");
    assert!(
        fml_obs::dropped_spans() - before_dropped >= 100,
        "evictions are counted"
    );
    clear_spans();
}

#[test]
fn disabled_mode_records_nothing_and_grows_nothing() {
    let _guard = mode_lock();
    set_mode(ObsMode::Off);
    clear_spans();
    // Warm the registry so handle creation is out of the picture, then take
    // the observable baselines the disabled path must not move: registered
    // metric count, per-thread trace buffers, recorded spans.
    let warm = fml_obs::histogram_handle("fml_test_disabled_hist");
    let warm_count = warm.count();
    let spans_before = snapshot_spans().len();
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs a fresh thread that never touched a trace buffer"
    )]
    let handle = std::thread::spawn(move || {
        // A fresh thread that only ever records while off must not even
        // register a trace buffer (the thread-local is never touched).
        let buffers_before = thread_buffer_count();
        for _ in 0..1000 {
            let _s = span!("disabled_span");
            fml_obs::record_span("disabled_manual", Instant::now(), Instant::now());
        }
        assert!(!fml_obs::metrics_enabled());
        assert!(!fml_obs::trace_enabled());
        assert_eq!(
            thread_buffer_count(),
            buffers_before,
            "disabled spans must not touch the thread-local buffer"
        );
    });
    handle.join().unwrap();
    assert_eq!(warm.count(), warm_count);
    // Span recording never touches the registry, and no disabled-path code
    // created a metric (other tests register their own concurrently, so the
    // check is by name, not by count).
    assert!(
        !metric_names().iter().any(|n| n.contains("disabled_span")),
        "disabled spans must not create registry entries"
    );
    assert!(metric_count() >= 1);
    assert_eq!(snapshot_spans().len(), spans_before, "no spans recorded");
}

#[test]
fn mode_guard_restores_lifo() {
    let _guard = mode_lock();
    set_mode(ObsMode::Off);
    {
        let _outer = fml_obs::apply_mode(ObsMode::Metrics);
        assert!(fml_obs::metrics_enabled() && !fml_obs::trace_enabled());
        {
            let _inner = fml_obs::apply_mode(ObsMode::Trace);
            assert!(fml_obs::trace_enabled());
        }
        assert_eq!(fml_obs::mode(), ObsMode::Metrics);
    }
    assert_eq!(fml_obs::mode(), ObsMode::Off);
}

#[test]
fn warn_once_suppressed_repeats_are_countable() {
    let guard = AtomicBool::new(false);
    let warnings = counter!("fml_env_warnings_total");
    let before = warnings.get();
    for _ in 0..5 {
        fml_obs::warn_once(&guard, "integration test warning");
    }
    assert!(guard.load(Ordering::Relaxed));
    assert_eq!(warnings.get() - before, 5);
}

#[test]
fn metric_names_are_sorted_and_deduplicated() {
    counter!("fml_test_names_b").inc();
    counter!("fml_test_names_a").inc();
    counter!("fml_test_names_a").inc();
    let names = metric_names();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
    assert_eq!(
        names.iter().filter(|n| **n == "fml_test_names_a").count(),
        1
    );
}
