//! Per-batch scoring telemetry, symmetric to the training-side
//! [`fml_linalg::FitObserver`] stream.
//!
//! Training emits one [`fml_linalg::FitEvent`] per EM iteration / epoch;
//! scoring emits one [`ScoreEvent`] per **scan batch** (one fact block of the
//! factorized scan, or one block of the materialized table).  Each event carries the rows scored in that
//! batch, the cumulative wall-time, and the page / field I/O the batch
//! performed — the same delta arithmetic [`fml_linalg::FitNotifier`] uses, so
//! dashboards consume one shape for both directions of the pipeline.
//!
//! Like its training twin, [`ScoreNotifier`] also emits into the `fml-obs`
//! registry when observability is on: `fml_score_batches_total`,
//! `fml_score_rows_total`, the `fml_score_batch_ns` latency histogram, and a
//! `score_batch` span per batch.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One per-batch telemetry record emitted to a [`ScoreObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreEvent {
    /// 0-based index of the scan batch that just finished scoring.
    pub batch: usize,
    /// Rows scored in this batch.
    pub rows: u64,
    /// Wall-clock time since scoring started (cumulative).
    pub elapsed: Duration,
    /// Pages of storage I/O performed during this batch (reads + writes).
    pub pages_io: u64,
    /// Feature fields read from storage during this batch.
    pub fields_read: u64,
}

/// Per-batch callback hook for scoring runs (see [`crate::Scoring::observe`]).
///
/// Observers are invoked from the scoring thread after each batch, never from
/// inside parallel workers.
pub trait ScoreObserver: Send + Sync {
    /// Called once per scored batch.
    fn on_batch(&self, event: &ScoreEvent);
}

/// A [`ScoreObserver`] that records every event — the ready-made consumer for
/// benches and tests, mirroring [`fml_linalg::TraceObserver`].
#[derive(Debug, Default)]
pub struct ScoreTrace {
    events: Mutex<Vec<ScoreEvent>>,
}

impl ScoreTrace {
    /// Creates a shareable trace observer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<ScoreEvent> {
        self.events.lock().expect("score trace lock").clone()
    }

    /// Total rows scored across all recorded events.
    pub fn total_rows(&self) -> u64 {
        self.events().iter().map(|e| e.rows).sum()
    }
}

impl ScoreObserver for ScoreTrace {
    fn on_batch(&self, event: &ScoreEvent) {
        self.events
            .lock()
            .expect("score trace lock")
            .push(event.clone());
    }
}

/// Drives the per-batch [`ScoreObserver`] notifications for one scoring run:
/// tracks the batch index, the wall-clock origin and the last I/O reading —
/// the scoring-side twin of [`fml_linalg::FitNotifier`].
///
/// Construction is free when no observer is attached, and
/// [`ScoreNotifier::notify`] is a no-op then.
pub struct ScoreNotifier<'a> {
    observer: Option<&'a dyn ScoreObserver>,
    io: Option<&'a dyn Fn() -> (u64, u64)>,
    start: Instant,
    /// Start of the current batch, for the per-batch histogram/span (`start`
    /// stays the cumulative-elapsed origin the events report).
    batch_mark: Instant,
    last_io: (u64, u64),
    batch: usize,
}

impl<'a> ScoreNotifier<'a> {
    /// Starts a notification stream.  The I/O baseline is read immediately,
    /// so work performed *before* this call (e.g. loading a model) is
    /// excluded from the first batch's delta.
    pub fn new(
        observer: Option<&'a dyn ScoreObserver>,
        io: Option<&'a dyn Fn() -> (u64, u64)>,
    ) -> Self {
        let last_io = match (observer.is_some(), io) {
            (true, Some(probe)) => probe(),
            _ => (0, 0),
        };
        let start = Instant::now();
        Self {
            observer,
            io,
            start,
            batch_mark: start,
            last_io,
            batch: 0,
        }
    }

    /// Emits the event for the batch that just completed — to the attached
    /// [`ScoreObserver`] (if any), and, when observability is on, to the
    /// `fml-obs` registry.
    pub fn notify(&mut self, rows: u64) {
        if fml_obs::metrics_enabled() {
            let now = Instant::now();
            fml_obs::counter!("fml_score_batches_total").inc();
            fml_obs::counter!("fml_score_rows_total").add(rows);
            fml_obs::histogram!("fml_score_batch_ns")
                .record_duration(now.saturating_duration_since(self.batch_mark));
            fml_obs::record_span("score_batch", self.batch_mark, now);
            self.batch_mark = now;
        }
        if let Some(observer) = self.observer {
            let now = self.io.map(|probe| probe()).unwrap_or((0, 0));
            observer.on_batch(&ScoreEvent {
                batch: self.batch,
                rows,
                elapsed: self.start.elapsed(),
                pages_io: now.0.saturating_sub(self.last_io.0),
                fields_read: now.1.saturating_sub(self.last_io.1),
            });
            self.last_io = now;
        }
        self.batch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn notifier_and_trace_round_trip_with_io_deltas() {
        let trace = ScoreTrace::new();
        let pages = AtomicU64::new(100);
        let probe = || (pages.load(Ordering::Relaxed), 7);
        let mut notifier = ScoreNotifier::new(Some(trace.as_ref()), Some(&probe));
        pages.store(104, Ordering::Relaxed);
        notifier.notify(32);
        notifier.notify(8);
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].batch, 0);
        assert_eq!(events[0].rows, 32);
        // baseline was read at construction: only the 4-page delta shows
        assert_eq!(events[0].pages_io, 4);
        assert_eq!(events[1].batch, 1);
        assert_eq!(events[1].pages_io, 0);
        assert_eq!(events[1].fields_read, 0);
        assert!(events[1].elapsed >= events[0].elapsed);
        assert_eq!(trace.total_rows(), 40);
    }

    #[test]
    fn notifier_without_observer_is_inert() {
        let mut notifier = ScoreNotifier::new(None, None);
        notifier.notify(1);
        notifier.notify(2);
        // no observer, no events; must simply not panic
    }
}
