//! The process-wide observability mode and its `FML_OBS` resolution.
//!
//! Instrumentation all over the workspace guards its work behind
//! [`metrics_enabled`] / [`trace_enabled`] — a single relaxed atomic load
//! plus a compare, so the disabled path costs a few nanoseconds and performs
//! no allocation.  The mode is resolved **once per process** from the
//! `FML_OBS` environment variable (mirroring `FML_THREADS` resolution in
//! `fml-linalg`), overridable at runtime with
//! [`set_mode`] or the scoped [`apply_mode`] guard that
//! `fml_linalg::ExecSettings::obs_scope` installs — which is how the
//! builder > environment > default precedence of `ExecPolicy` extends to
//! observability.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// How much telemetry the process records.
///
/// The levels are strictly ordered: `Trace` implies `Metrics` (a trace run
/// records both spans and registry metrics), and `Off` disables everything
/// except the always-on counters the correctness tests read (sparse-path
/// invocation counts, fan-out threads, environment warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum ObsMode {
    /// No metrics, no spans — the production default.  Bit-identity and
    /// performance are guaranteed unchanged relative to a build without the
    /// observability layer.
    #[default]
    Off = 0,
    /// Registry metrics on (counters, gauges, histograms); spans off.
    Metrics = 1,
    /// Metrics *and* span tracing on.
    Trace = 2,
}

impl ObsMode {
    /// All modes, in increasing order of telemetry volume.
    pub const ALL: [ObsMode; 3] = [ObsMode::Off, ObsMode::Metrics, ObsMode::Trace];

    /// Short lowercase label (`off` / `metrics` / `trace`).
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Metrics => "metrics",
            ObsMode::Trace => "trace",
        }
    }
}

impl fmt::Display for ObsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ObsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Ok(ObsMode::Off),
            "metrics" | "on" => Ok(ObsMode::Metrics),
            "trace" | "full" => Ok(ObsMode::Trace),
            other => Err(format!(
                "unknown observability mode {other:?} (expected off|metrics|trace)"
            )),
        }
    }
}

/// Resolves a raw `FML_OBS` value to a mode, with a warning for rejected
/// values (a typo must not silently disable the telemetry a run expected to
/// collect).  Unset resolves to [`ObsMode::Off`].
pub fn resolve_env(raw: Option<&str>) -> (ObsMode, Option<String>) {
    match raw {
        None => (ObsMode::Off, None),
        Some(s) => match s.parse::<ObsMode>() {
            Ok(m) => (m, None),
            Err(e) => (
                ObsMode::Off,
                Some(format!("FML_OBS: {e}; observability stays off")),
            ),
        },
    }
}

const MODE_UNSET: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn mode_from_u8(v: u8) -> ObsMode {
    match v {
        1 => ObsMode::Metrics,
        2 => ObsMode::Trace,
        _ => ObsMode::Off,
    }
}

/// Slow path of the enabled checks: resolves `FML_OBS` exactly once and
/// caches the result in [`MODE`].
#[cold]
fn resolve_mode() -> u8 {
    static OBS_WARNED: AtomicBool = AtomicBool::new(false);
    #[expect(clippy::disallowed_methods, reason = "the one FML_OBS resolve site")]
    let raw = std::env::var("FML_OBS").ok();
    let (mode, warning) = resolve_env(raw.as_deref());
    if let Some(msg) = warning {
        crate::warn_once(&OBS_WARNED, &msg);
    }
    // Racing initializations agree (the environment is stable), so a relaxed
    // store is fine.
    MODE.store(mode as u8, Ordering::Relaxed);
    mode as u8
}

#[inline]
fn mode_u8() -> u8 {
    let v = MODE.load(Ordering::Relaxed);
    if v == MODE_UNSET {
        resolve_mode()
    } else {
        v
    }
}

/// The current process-wide observability mode (resolved from `FML_OBS` on
/// first use, default [`ObsMode::Off`]).
pub fn mode() -> ObsMode {
    mode_from_u8(mode_u8())
}

/// Overrides the process-wide mode.  Prefer the scoped [`apply_mode`] in
/// library code; this raw setter exists for benches and process entry points.
pub fn set_mode(mode: ObsMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// Whether registry metrics are being recorded — one relaxed load plus a
/// compare on the hot path.  Instrumentation sites gate every non-essential
/// metric behind this so the `Off` mode stays free.
#[inline]
pub fn metrics_enabled() -> bool {
    mode_u8() >= ObsMode::Metrics as u8
}

/// Whether span tracing is being recorded — same cost as
/// [`metrics_enabled`].  `trace_enabled()` implies `metrics_enabled()`.
#[inline]
pub fn trace_enabled() -> bool {
    mode_u8() >= ObsMode::Trace as u8
}

/// RAII guard restoring the previous process-wide mode on drop (see
/// [`apply_mode`]).
#[derive(Debug)]
#[must_use = "the previous mode is restored when the guard drops"]
pub struct ModeGuard {
    prev: ObsMode,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_mode(self.prev);
    }
}

/// Installs `mode` as the process-wide observability mode until the returned
/// guard drops, then restores whatever was active before.
///
/// The mode is **process-global**, not thread-scoped: instrumentation runs on
/// fan-out threads and storage threads that a thread-local could never reach.
/// Guards therefore restore in LIFO order and are intended for the
/// one-run-at-a-time shape the trainers and scorers have (each installs its
/// resolved `ExecPolicy` mode at entry); two concurrent runs requesting
/// *different* modes race benignly — last writer wins until its guard drops.
pub fn apply_mode(mode: ObsMode) -> ModeGuard {
    let prev = self::mode();
    set_mode(mode);
    ModeGuard { prev }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_parsing_round_trip() {
        for m in ObsMode::ALL {
            assert_eq!(m.label().parse::<ObsMode>().unwrap(), m);
        }
        assert_eq!("on".parse::<ObsMode>().unwrap(), ObsMode::Metrics);
        assert_eq!("full".parse::<ObsMode>().unwrap(), ObsMode::Trace);
        assert!("bogus".parse::<ObsMode>().is_err());
    }

    #[test]
    fn resolve_env_warns_on_invalid_and_defaults_off() {
        assert_eq!(resolve_env(None), (ObsMode::Off, None));
        assert_eq!(resolve_env(Some("trace")), (ObsMode::Trace, None));
        let (m, warning) = resolve_env(Some("traec"));
        assert_eq!(m, ObsMode::Off);
        let msg = warning.expect("typo must warn");
        assert!(msg.contains("traec"), "warning must name the value: {msg}");
    }

    #[test]
    fn ordering_makes_trace_imply_metrics() {
        assert!(ObsMode::Trace > ObsMode::Metrics);
        assert!(ObsMode::Metrics > ObsMode::Off);
    }
}
