//! The global metrics registry: lock-free counters, gauges and log-bucketed
//! histograms, exported as Prometheus text exposition and hand-rolled JSON.
//!
//! ## Recording model
//!
//! Metric handles are `&'static` references into a process-global registry.
//! Instrumentation sites obtain a handle **once** through the
//! [`counter!`](crate::counter) / [`gauge!`](crate::gauge) /
//! [`histogram!`](crate::histogram) macros (a per-site `OnceLock` cache), so
//! the steady-state cost of a record is one relaxed atomic RMW — no locks,
//! no allocation, no hashing.  The registry itself is only locked at handle
//! creation and at export time.
//!
//! ## Histograms
//!
//! [`Histogram`] buckets by `floor(log2(v)) + 1` — bucket `i` holds values
//! in `[2^(i-1), 2^i)`, bucket `0` holds zero — so recording is a
//! `leading_zeros` plus one atomic increment, and any u64 magnitude
//! (nanosecond latencies, byte sizes, row counts) fits in 65 buckets.
//! Quantile queries ([`Histogram::quantile`]) walk the cumulative
//! distribution and return the **upper bound** of the bucket containing the
//! requested rank — an upward-biased estimate with at most 2× relative
//! error, which is the standard trade for fixed-size lock-free buckets.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Locks a mutex, ignoring poisoning: registry state is plain maps of
/// `&'static` handles whose invariants hold at every point, and no user code
/// runs under the lock.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so it can back a `static`).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, worker counts,
/// resolved levels).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge (const, so it can back a `static`).
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count of [`Histogram`]: one zero bucket plus one per possible
/// `floor(log2)` of a nonzero u64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of u64 observations (latencies in nanoseconds,
/// sizes in bytes/rows) supporting concurrent lock-free recording and
/// quantile queries.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`: `0` for zero, `floor(log2(v)) + 1`
/// otherwise.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram (const, so it can back a `static`).
    pub const fn new() -> Self {
        // The const-repeat idiom for `[AtomicU64; N]`: each array slot gets
        // its own fresh atomic — the per-use copy clippy warns about is the
        // point here, not a bug.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating at
    /// `u64::MAX` — ~584 years).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`0.0 ≤ q ≤ 1.0`), or `None` when nothing has been recorded.
    ///
    /// The estimate is upward-biased by at most one bucket (2× relative).
    /// Concurrent recording can make the per-bucket snapshot lag `count()`
    /// slightly; the walk uses its own snapshot total, so the answer is
    /// always a value some recorded observation could have had.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * total), at least 1.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in snapshot.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(bucket_upper(HISTOGRAM_BUCKETS - 1))
    }

    /// Convenience accessors for the common percentiles.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 90th percentile (see [`Histogram::quantile`]).
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// The 99th percentile (see [`Histogram::quantile`]).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// `(upper_bound, cumulative_count)` rows up to and including the highest
    /// non-empty bucket — the Prometheus exposition shape.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        let mut last_nonzero = 0usize;
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        for (i, &c) in snapshot.iter().enumerate() {
            if c > 0 {
                last_nonzero = i;
            }
        }
        for (i, &c) in snapshot.iter().take(last_nonzero + 1).enumerate() {
            cumulative += c;
            out.push((bucket_upper(i), cumulative));
        }
        out
    }
}

/// One registered metric: the name maps to exactly one kind for the life of
/// the process.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Looks up or creates the counter named `name`.
///
/// The handle is `&'static` (the metric lives for the life of the process —
/// one bounded leak per distinct name).  Prefer the caching
/// [`counter!`](crate::counter) macro at instrumentation sites; this
/// function takes the registry lock on every call.
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind — a
/// programmer error (metric names are compile-time literals).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock_unpoisoned(registry());
    let metric = reg
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))));
    match metric {
        Metric::Counter(c) => c,
        other => panic!("metric {name:?} already registered as a {}", other.kind()),
    }
}

/// Looks up or creates the gauge named `name` (see [`counter`] for the
/// handle contract).
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = lock_unpoisoned(registry());
    let metric = reg
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))));
    match metric {
        Metric::Gauge(g) => g,
        other => panic!("metric {name:?} already registered as a {}", other.kind()),
    }
}

/// Looks up or creates the histogram named `name` (see [`counter`] for the
/// handle contract).
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock_unpoisoned(registry());
    let metric = reg
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))));
    match metric {
        Metric::Histogram(h) => h,
        other => panic!("metric {name:?} already registered as a {}", other.kind()),
    }
}

/// Per-call-site cache for a [`Counter`] handle — what the
/// [`counter!`](crate::counter) macro expands to.  `const`-constructible so
/// it can live in a function-local `static`.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A cache for the counter named `name` (nothing is registered until the
    /// first [`LazyCounter::get`]).
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The cached handle, registering the counter on first use.
    #[inline]
    pub fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }
}

/// Per-call-site cache for a [`Gauge`] handle (see [`LazyCounter`]).
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A cache for the gauge named `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The cached handle, registering the gauge on first use.
    #[inline]
    pub fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }
}

/// Per-call-site cache for a [`Histogram`] handle (see [`LazyCounter`]).
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A cache for the histogram named `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The cached handle, registering the histogram on first use.
    #[inline]
    pub fn get(&self) -> &'static Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }
}

/// Names of every registered metric, sorted — the observable registry
/// surface the disabled-path tests assert against.
pub fn metric_names() -> Vec<&'static str> {
    lock_unpoisoned(registry()).keys().copied().collect()
}

/// Number of registered metrics.
pub fn metric_count() -> usize {
    lock_unpoisoned(registry()).len()
}

/// Renders every registered metric in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` lines, counter/gauge samples, and cumulative
/// `_bucket{le="…"}` / `_sum` / `_count` rows for histograms.  Iteration is
/// over the sorted name map, so output order is deterministic.
pub fn prometheus_text() -> String {
    use std::fmt::Write as _;
    let reg = lock_unpoisoned(registry());
    let mut out = String::new();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", g.get());
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let count = h.count();
                for (le, cumulative) in h.cumulative_buckets() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {count}");
            }
        }
    }
    out
}

/// Renders every registered metric as a JSON document:
///
/// ```json
/// {"counters":{...},"gauges":{...},
///  "histograms":{"name":{"count":..,"sum":..,"p50":..,"p90":..,"p99":..,
///                        "buckets":[[le,cumulative],...]}}}
/// ```
///
/// Hand-rolled (no serialization dependency); metric names are compile-time
/// literals, escaped anyway for robustness.
pub fn json() -> String {
    use std::fmt::Write as _;
    let reg = lock_unpoisoned(registry());
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histograms = String::new();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                if !counters.is_empty() {
                    counters.push(',');
                }
                let _ = write!(counters, "{}:{}", json_string(name), c.get());
            }
            Metric::Gauge(g) => {
                if !gauges.is_empty() {
                    gauges.push(',');
                }
                let _ = write!(gauges, "{}:{}", json_string(name), g.get());
            }
            Metric::Histogram(h) => {
                if !histograms.is_empty() {
                    histograms.push(',');
                }
                let buckets = h
                    .cumulative_buckets()
                    .iter()
                    .map(|(le, c)| format!("[{le},{c}]"))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    histograms,
                    "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
                    json_string(name),
                    h.count(),
                    h.sum(),
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    buckets
                );
            }
        }
    }
    format!(
        "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
    )
}

/// Escapes `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_bounds_tile_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // every value falls in a bucket whose bounds contain it
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v} above its bucket's upper bound");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "{v} within the previous bucket");
            }
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_quantiles_bound_the_recorded_values() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        // p50 of 1..=1000 is 500; its bucket [512,1023] upper bound is 1023,
        // within the documented 2x upward bias
        let p50 = h.p50().unwrap();
        assert!((500..=1023).contains(&p50), "p50 estimate {p50}");
        let p99 = h.p99().unwrap();
        assert!((990..=1023).contains(&p99), "p99 estimate {p99}");
        // quantile(0) is the first non-empty bucket's bound
        assert_eq!(h.quantile(0.0).unwrap(), 1);
        // quantile(1) covers the max
        assert!(h.quantile(1.0).unwrap() >= 1000);
    }

    #[test]
    fn histogram_zero_values_land_in_the_zero_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.p50(), Some(0));
        assert_eq!(h.cumulative_buckets(), vec![(0, 2)]);
    }

    #[test]
    fn registry_returns_stable_handles_and_unions_kinds() {
        let a = counter("fml_test_registry_counter");
        let b = counter("fml_test_registry_counter");
        assert!(std::ptr::eq(a, b), "same name must yield the same handle");
        a.inc();
        assert_eq!(b.get(), 1);
        let names = metric_names();
        assert!(names.contains(&"fml_test_registry_counter"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        counter("fml_test_registry_kind_clash");
        gauge("fml_test_registry_kind_clash");
    }

    #[test]
    fn prometheus_text_and_json_render_all_kinds() {
        counter("fml_test_export_counter").add(3);
        gauge("fml_test_export_gauge").set(-2);
        let h = histogram("fml_test_export_hist");
        h.record(5);
        h.record(100);
        let text = prometheus_text();
        assert!(text.contains("# TYPE fml_test_export_counter counter"));
        assert!(text.contains("fml_test_export_counter 3"));
        assert!(text.contains("# TYPE fml_test_export_gauge gauge"));
        assert!(text.contains("fml_test_export_gauge -2"));
        assert!(text.contains("# TYPE fml_test_export_hist histogram"));
        assert!(text.contains("fml_test_export_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fml_test_export_hist_sum 105"));
        assert!(text.contains("fml_test_export_hist_count 2"));
        let json = json();
        assert!(json.contains("\"fml_test_export_counter\":3"));
        assert!(json.contains("\"fml_test_export_gauge\":-2"));
        assert!(json.contains("\"fml_test_export_hist\":{\"count\":2,\"sum\":105"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn lazy_handles_register_on_first_get_only() {
        static LAZY: LazyCounter = LazyCounter::new("fml_test_lazy_counter");
        let before = metric_names().contains(&"fml_test_lazy_counter");
        assert!(!before, "declaring the cache must not register");
        LAZY.get().inc();
        assert!(metric_names().contains(&"fml_test_lazy_counter"));
        assert_eq!(LAZY.get().get(), 1);
    }
}
