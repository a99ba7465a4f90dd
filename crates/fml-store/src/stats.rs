//! I/O accounting.
//!
//! The paper's cost analysis (Section V-A) argues about algorithm choice in terms
//! of page reads and writes (`|S|`, `|R|`, `|T|`, `BlockSize`) and, for the NN
//! backward pass, in terms of how many 8-byte fields are fetched
//! (`n_S·d_S + n_R·d_R` versus `N·d`).  [`IoStats`] is a cheap shareable counter
//! bundle that every heap file and scan updates, so experiments can report
//! *measured* I/O next to the analytic model.
//!
//! When observability is on (`FML_OBS=metrics|trace`), every `add_*` call
//! additionally mirrors its increment into the process-wide `fml-obs`
//! registry (`fml_store_pages_read_total` etc.), so exported metrics carry
//! the same page/field accounting the per-database [`IoStats`] handles do —
//! gated on one relaxed load so the off path is unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Counters {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    tuples_read: AtomicU64,
    tuples_written: AtomicU64,
    fields_read: AtomicU64,
    index_probes: AtomicU64,
}

/// Shareable handle onto a set of I/O counters.
///
/// Cloning an `IoStats` yields a handle onto the *same* counters, so a database,
/// its relations and all scans derived from them report into one place.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Pages fetched from storage.
    pub pages_read: u64,
    /// Pages written to storage.
    pub pages_written: u64,
    /// Tuples decoded from pages.
    pub tuples_read: u64,
    /// Tuples appended to relations.
    pub tuples_written: u64,
    /// Individual 8-byte fields materialized for the learner.
    pub fields_read: u64,
    /// Hash-index probe operations.
    pub index_probes: u64,
}

impl IoSnapshot {
    /// Difference `self - earlier`, counter by counter (saturating).
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            tuples_read: self.tuples_read.saturating_sub(earlier.tuples_read),
            tuples_written: self.tuples_written.saturating_sub(earlier.tuples_written),
            fields_read: self.fields_read.saturating_sub(earlier.fields_read),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
        }
    }

    /// Total page I/O (reads + writes), the quantity the paper's formulas bound.
    pub fn total_page_io(&self) -> u64 {
        self.pages_read + self.pages_written
    }
}

impl IoStats {
    /// Creates a fresh, zeroed counter bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` page reads.
    pub fn add_pages_read(&self, n: u64) {
        self.inner.pages_read.fetch_add(n, Ordering::Relaxed);
        if fml_obs::metrics_enabled() {
            fml_obs::counter!("fml_store_pages_read_total").add(n);
        }
    }

    /// Records `n` page writes.
    pub fn add_pages_written(&self, n: u64) {
        self.inner.pages_written.fetch_add(n, Ordering::Relaxed);
        if fml_obs::metrics_enabled() {
            fml_obs::counter!("fml_store_pages_written_total").add(n);
        }
    }

    /// Records `n` tuples decoded.
    pub fn add_tuples_read(&self, n: u64) {
        self.inner.tuples_read.fetch_add(n, Ordering::Relaxed);
        if fml_obs::metrics_enabled() {
            fml_obs::counter!("fml_store_tuples_read_total").add(n);
        }
    }

    /// Records `n` tuples appended.
    pub fn add_tuples_written(&self, n: u64) {
        self.inner.tuples_written.fetch_add(n, Ordering::Relaxed);
        if fml_obs::metrics_enabled() {
            fml_obs::counter!("fml_store_tuples_written_total").add(n);
        }
    }

    /// Records `n` 8-byte fields handed to the learner.
    pub fn add_fields_read(&self, n: u64) {
        self.inner.fields_read.fetch_add(n, Ordering::Relaxed);
        if fml_obs::metrics_enabled() {
            fml_obs::counter!("fml_store_fields_read_total").add(n);
        }
    }

    /// Records `n` index probes.
    pub fn add_index_probes(&self, n: u64) {
        self.inner.index_probes.fetch_add(n, Ordering::Relaxed);
        if fml_obs::metrics_enabled() {
            fml_obs::counter!("fml_store_index_probes_total").add(n);
        }
    }

    /// Takes a snapshot of the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.inner.pages_read.load(Ordering::Relaxed),
            pages_written: self.inner.pages_written.load(Ordering::Relaxed),
            tuples_read: self.inner.tuples_read.load(Ordering::Relaxed),
            tuples_written: self.inner.tuples_written.load(Ordering::Relaxed),
            fields_read: self.inner.fields_read.load(Ordering::Relaxed),
            index_probes: self.inner.index_probes.load(Ordering::Relaxed),
        }
    }

    /// Cumulative `(total_page_io, fields_read)` probe — the reading shape the
    /// trainers hand to `fml_linalg::exec::FitNotifier` for per-iteration I/O
    /// deltas.  Defined once here so every trainer probes the same counters.
    pub fn io_probe(&self) -> impl Fn() -> (u64, u64) + '_ {
        || {
            let s = self.snapshot();
            (s.total_page_io(), s.fields_read)
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.inner.pages_read.store(0, Ordering::Relaxed);
        self.inner.pages_written.store(0, Ordering::Relaxed);
        self.inner.tuples_read.store(0, Ordering::Relaxed);
        self.inner.tuples_written.store(0, Ordering::Relaxed);
        self.inner.fields_read.store(0, Ordering::Relaxed);
        self.inner.index_probes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = IoStats::new();
        stats.add_pages_read(3);
        stats.add_pages_written(2);
        stats.add_tuples_read(10);
        stats.add_tuples_written(4);
        stats.add_fields_read(100);
        stats.add_index_probes(7);
        let snap = stats.snapshot();
        assert_eq!(snap.pages_read, 3);
        assert_eq!(snap.pages_written, 2);
        assert_eq!(snap.tuples_read, 10);
        assert_eq!(snap.tuples_written, 4);
        assert_eq!(snap.fields_read, 100);
        assert_eq!(snap.index_probes, 7);
        assert_eq!(snap.total_page_io(), 5);
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn clones_share_counters() {
        let stats = IoStats::new();
        let clone = stats.clone();
        clone.add_pages_read(5);
        assert_eq!(stats.snapshot().pages_read, 5);
    }

    #[test]
    fn delta_since() {
        let stats = IoStats::new();
        stats.add_pages_read(5);
        let before = stats.snapshot();
        stats.add_pages_read(3);
        stats.add_fields_read(11);
        let after = stats.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.pages_read, 3);
        assert_eq!(d.fields_read, 11);
        assert_eq!(d.pages_written, 0);
    }
}
