//! Span tracing: scoped guards recording into per-thread ring buffers,
//! drained into Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev)).
//!
//! ## Recording model
//!
//! [`span()`] (or the [`span!`](macro@crate::span) macro) returns a guard that
//! timestamps its creation; on drop, if tracing is still enabled, it pushes
//! one [`SpanRecord`] into the calling thread's ring buffer.  Buffers are
//! bounded ([`RING_CAPACITY`] spans per thread) — when full, the **oldest**
//! record is evicted and counted in [`dropped_spans`], so tracing can stay
//! on indefinitely with bounded memory.  Each thread's buffer registers
//! itself in a global list on first use and stays readable after the thread
//! exits (a fan-out's scoped threads end with their region).
//!
//! ## Cost model
//!
//! When tracing is disabled ([`crate::trace_enabled`] is false — one relaxed
//! load), a span guard records nothing, touches no thread-local, and
//! allocates nothing; the enabled check happens at construction *and* drop
//! so spans opened before a mode flip don't record half a story.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::mode::trace_enabled;
use crate::registry::json_string;

/// Maximum spans retained per thread; older records are evicted first.
pub const RING_CAPACITY: usize = 4096;

/// One completed span: a named interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static phase name (`"fit"`, `"score_batch"`, …).
    pub name: &'static str,
    /// Start offset from the process trace origin, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's id (dense, assigned at buffer registration).
    pub tid: u64,
}

struct ThreadBuffer {
    spans: Mutex<Vec<SpanRecord>>,
    /// Next eviction slot when the ring is full.
    head: Mutex<usize>,
    tid: u64,
}

impl ThreadBuffer {
    fn push(&self, record: SpanRecord) {
        let mut spans = lock(&self.spans);
        if spans.len() < RING_CAPACITY {
            spans.push(record);
        } else {
            let mut head = lock(&self.head);
            spans[*head] = record;
            *head = (*head + 1) % RING_CAPACITY;
            DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static DROPPED_SPANS: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuffer> = {
        let buf = Arc::new(ThreadBuffer {
            spans: Mutex::new(Vec::new()),
            head: Mutex::new(0),
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        });
        lock(buffers()).push(Arc::clone(&buf));
        buf
    };
}

/// The process trace origin: all span timestamps are offsets from this.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Records a completed span directly (what the [`SpanGuard`] drop does).
/// No-op unless tracing is enabled.
pub fn record_span(name: &'static str, start: Instant, end: Instant) {
    if !trace_enabled() {
        return;
    }
    let origin = origin();
    let start_ns =
        u64::try_from(start.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
    let dur_ns = u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    LOCAL.with(|buf| {
        buf.push(SpanRecord {
            name,
            start_ns,
            dur_ns,
            tid: buf.tid,
        });
    });
}

/// Scoped span guard: records the interval from construction to drop (see
/// [`span`]).
#[derive(Debug)]
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// A guard that records nothing — what [`span`] returns when tracing is
    /// disabled, so the off path never reads the clock.
    pub const fn disabled(name: &'static str) -> Self {
        SpanGuard { name, start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_span(self.name, start, Instant::now());
        }
    }
}

/// Opens a span named `name`, recorded when the returned guard drops.
/// `name` must be a static string (phase names are compile-time literals).
///
/// When tracing is disabled this is one relaxed atomic load — no clock
/// read, no thread-local touch, no allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if trace_enabled() {
        SpanGuard {
            name,
            start: Some(Instant::now()),
        }
    } else {
        SpanGuard::disabled(name)
    }
}

/// Number of spans evicted from full ring buffers since process start.
pub fn dropped_spans() -> u64 {
    DROPPED_SPANS.load(Ordering::Relaxed)
}

/// Number of threads that have registered a span buffer — an observable
/// proxy the disabled-path tests use ("recording while off must not touch
/// thread-locals").
pub fn thread_buffer_count() -> usize {
    lock(buffers()).len()
}

/// Snapshots every recorded span across all threads, ordered by start time.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    let bufs = lock(buffers());
    let mut out = Vec::new();
    for buf in bufs.iter() {
        out.extend(lock(&buf.spans).iter().cloned());
    }
    out.sort_by_key(|r| (r.start_ns, r.tid));
    out
}

/// Clears every thread's recorded spans (tests and between-run resets).
/// Buffers stay registered; [`dropped_spans`] is not reset.
pub fn clear_spans() {
    let bufs = lock(buffers());
    for buf in bufs.iter() {
        lock(&buf.spans).clear();
        *lock(&buf.head) = 0;
    }
}

/// Drains all recorded spans into Chrome `trace_event` JSON — an object with
/// a `traceEvents` array of complete (`"ph":"X"`) events, timestamps and
/// durations in **microseconds** (fractional, preserving nanosecond
/// precision) as the format requires.  The output loads directly in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    use std::fmt::Write as _;
    let spans = snapshot_spans();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            json_string(s.name),
            format_us(s.start_ns),
            format_us(s.dur_ns),
            s.tid
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Formats nanoseconds as a microsecond decimal (`1234` → `"1.234"`) without
/// going through floating point, so the round-trip test can compare exactly.
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// A Chrome trace event as read back by [`parse_chrome_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Phase (`"X"` for the complete events this crate emits).
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Thread id.
    pub tid: u64,
}

/// Minimal reader for the Chrome trace JSON this crate emits (and any
/// conforming `{"traceEvents":[…]}` document with flat string/number
/// fields): enough of a JSON parser to verify the export round-trips,
/// hand-rolled because the registry is offline.
pub fn parse_chrome_trace(input: &str) -> Result<Vec<TraceEvent>, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut events = Vec::new();
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        if key == "traceEvents" {
            p.expect(b'[')?;
            p.skip_ws();
            if p.peek() == Some(b']') {
                p.pos += 1;
            } else {
                loop {
                    events.push(p.parse_event()?);
                    p.skip_ws();
                    match p.next()? {
                        b',' => continue,
                        b']' => break,
                        c => return Err(format!("expected ',' or ']' in traceEvents, got {c:?}")),
                    }
                }
            }
        } else {
            p.skip_value()?;
        }
        p.skip_ws();
        match p.next()? {
            b',' => continue,
            b'}' => break,
            c => return Err(format!("expected ',' or '}}' at top level, got {c:?}")),
        }
    }
    Ok(events)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, got {:?}",
                want as char,
                self.pos - 1,
                got as char
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next()?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad \\u digit {:?}", d as char))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    c => return Err(format!("unsupported escape \\{:?}", c as char)),
                },
                c => out.push(c as char),
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn parse_event(&mut self) -> Result<TraceEvent, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut ev = TraceEvent {
            name: String::new(),
            ph: String::new(),
            ts: 0.0,
            dur: 0.0,
            tid: 0,
        };
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "name" => ev.name = self.parse_string()?,
                "ph" => ev.ph = self.parse_string()?,
                "ts" => ev.ts = self.parse_number()?,
                "dur" => ev.dur = self.parse_number()?,
                "tid" => ev.tid = self.parse_number()? as u64,
                _ => self.skip_value()?,
            }
            self.skip_ws();
            match self.next()? {
                b',' => continue,
                b'}' => return Ok(ev),
                c => return Err(format!("expected ',' or '}}' in event, got {c:?}")),
            }
        }
    }

    /// Skips any JSON value (used for fields the reader doesn't care about).
    fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'"' => {
                self.parse_string()?;
            }
            b'{' | b'[' => {
                let open = self.next()?;
                let close = if open == b'{' { b'}' } else { b']' };
                let mut depth = 1usize;
                while depth > 0 {
                    match self.next()? {
                        b'"' => {
                            self.pos -= 1;
                            self.parse_string()?;
                        }
                        c if c == open => depth += 1,
                        c if c == close => depth -= 1,
                        _ => {}
                    }
                }
            }
            b't' | b'f' | b'n' => {
                while matches!(self.peek(), Some(b'a'..=b'z')) {
                    self.pos += 1;
                }
            }
            _ => {
                self.parse_number()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_us_preserves_nanosecond_digits() {
        assert_eq!(format_us(0), "0.000");
        assert_eq!(format_us(999), "0.999");
        assert_eq!(format_us(1000), "1.000");
        assert_eq!(format_us(1_234_567), "1234.567");
    }

    #[test]
    fn parser_reads_a_minimal_document() {
        let events = parse_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"fit\",\"ph\":\"X\",\"ts\":1.5,\"dur\":2.25,\
             \"pid\":1,\"tid\":3}],\"displayTimeUnit\":\"ns\"}",
        )
        .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "fit");
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[0].ts, 1.5);
        assert_eq!(events[0].dur, 2.25);
        assert_eq!(events[0].tid, 3);
    }

    #[test]
    fn parser_handles_empty_and_unknown_fields() {
        assert_eq!(parse_chrome_trace("{\"traceEvents\":[]}").unwrap().len(), 0);
        let events = parse_chrome_trace(
            "{\"otherDisplay\":{\"a\":[1,2]},\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\
             \"ts\":0.001,\"dur\":0.002,\"pid\":1,\"tid\":0,\"args\":{\"k\":\"v\"}}]}",
        )
        .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "x");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_chrome_trace("").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{]}").is_err());
        assert!(parse_chrome_trace("[1,2,3]").is_err());
    }
}
