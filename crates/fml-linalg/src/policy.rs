//! Kernel execution policies and the deterministic data-parallel helpers.
//!
//! Every heavy kernel in this crate ([`crate::gemm`], [`crate::sparse`],
//! [`crate::csr`], [`crate::block`]) is a sequential function of
//! `(policy, operands)`, and the [`KernelPolicy`] picks one of two
//! arithmetics:
//!
//! * [`KernelPolicy::Naive`] — the straightforward triple loops of the original
//!   implementation.  Reference semantics: strictly sequential accumulation in
//!   index order.  Kept as the oracle for the equivalence property tests.
//! * [`KernelPolicy::Blocked`] — cache-tiled kernels with packed panels and a
//!   register-blocked `MR×NR` micro-kernel (see [`crate::gemm`] for the tiling
//!   parameters).  Changes the *grouping* of floating-point additions (never the
//!   multiplication set), so results agree with `Naive` to within
//!   [`crate::TEST_EPS`]-style tolerances but are not bit-identical.
//!
//! [`KernelPolicy::BlockedParallel`] is the blocked arithmetic — every kernel
//! treats it exactly as `Blocked` — plus the **drivers'** chunk fan-out: the
//! trainers and the scorer split their batches / fact blocks with
//! [`par_chunks_with_threads`] / [`par_row_bands_map_with_threads`] over the
//! persistent worker pool ([`crate::pool`]).  Chunk boundaries depend only on
//! the problem shape and the worker count, and per-chunk results are merged
//! **in chunk-index order** (a fixed-shape reduction tree), so a given
//! configuration always produces the same bits.  No kernel fans out on its
//! own.
//!
//! The default policy is `Blocked`, overridable with the `FML_KERNEL_POLICY`
//! environment variable (`naive` | `blocked` | `parallel`), which
//! [`crate::ExecPolicy::resolve`] reads through [`default_policy`].  The
//! worker count defaults to the machine's available parallelism, overridable
//! with `FML_THREADS`.

use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::OnceLock;

/// Selects the kernels' arithmetic and whether the drivers fan out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Reference triple loops, strictly sequential accumulation.
    Naive,
    /// Cache-tiled, register-blocked kernels.
    Blocked,
    /// The blocked kernels, with the trainers' and the scorer's chunk loops
    /// fanned out over the worker pool.
    BlockedParallel,
}

impl KernelPolicy {
    /// All policies, in increasing order of sophistication.
    pub const ALL: [KernelPolicy; 3] = [
        KernelPolicy::Naive,
        KernelPolicy::Blocked,
        KernelPolicy::BlockedParallel,
    ];

    /// Short lowercase label (`naive` / `blocked` / `parallel`).
    pub fn label(self) -> &'static str {
        match self {
            KernelPolicy::Naive => "naive",
            KernelPolicy::Blocked => "blocked",
            KernelPolicy::BlockedParallel => "parallel",
        }
    }

    /// Whether the drivers may fan their chunk loops out to the thread pool.
    pub fn is_parallel(self) -> bool {
        matches!(self, KernelPolicy::BlockedParallel)
    }
}

impl fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for KernelPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(KernelPolicy::Naive),
            "blocked" => Ok(KernelPolicy::Blocked),
            "parallel" | "blocked_parallel" | "blocked+parallel" => {
                Ok(KernelPolicy::BlockedParallel)
            }
            other => Err(format!(
                "unknown kernel policy {other:?} (expected naive|blocked|parallel)"
            )),
        }
    }
}

/// Resolves the default policy from a raw `FML_KERNEL_POLICY` value.
///
/// Returns the chosen policy and, when the raw value was present but invalid,
/// a warning describing the rejection and the fallback — invalid overrides
/// must never be silently swallowed (a typo like `blokced` would otherwise
/// benchmark the wrong kernels without any indication).
pub(crate) fn resolve_policy_env(raw: Option<&str>) -> (KernelPolicy, Option<String>) {
    match raw {
        None => (KernelPolicy::Blocked, None),
        Some(s) => match s.parse::<KernelPolicy>() {
            Ok(p) => (p, None),
            Err(e) => (
                KernelPolicy::Blocked,
                Some(format!(
                    "FML_KERNEL_POLICY: {e}; falling back to the default policy `blocked`"
                )),
            ),
        },
    }
}

/// Resolves the worker-thread count from a raw `FML_THREADS` value, falling
/// back to `available` (the machine's available parallelism).
///
/// Returns the chosen count and a warning when the raw value was present but
/// rejected — unparsable strings and the meaningless `0` both fall back.
pub(crate) fn resolve_threads_env(raw: Option<&str>, available: usize) -> (usize, Option<String>) {
    match raw {
        None => (available, None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => (
                available,
                Some(format!(
                    "FML_THREADS: thread count must be >= 1, got 0; \
                     falling back to available parallelism ({available})"
                )),
            ),
            Ok(n) => (n, None),
            Err(_) => (
                available,
                Some(format!(
                    "FML_THREADS: invalid thread count {s:?}; \
                     falling back to available parallelism ({available})"
                )),
            ),
        },
    }
}

/// Prints an environment-override warning exactly once per guard flag, and
/// counts every occurrence (first or suppressed) in the `fml-obs`
/// `fml_env_warnings_total` counter — the workspace's single warn-once sink.
fn warn_once(guard: &std::sync::atomic::AtomicBool, msg: &str) {
    fml_obs::warn_once(guard, msg);
}

/// The policy a run uses when its [`crate::ExecPolicy`] pins none:
/// `FML_KERNEL_POLICY`, read once per process, falling back to `Blocked`
/// (with a one-time warning naming any rejected value).
pub fn default_policy() -> KernelPolicy {
    static POLICY: OnceLock<KernelPolicy> = OnceLock::new();
    *POLICY.get_or_init(|| {
        static POLICY_WARNED: std::sync::atomic::AtomicBool =
            std::sync::atomic::AtomicBool::new(false);
        let raw = std::env::var("FML_KERNEL_POLICY").ok();
        let (policy, warning) = resolve_policy_env(raw.as_deref());
        if let Some(msg) = warning {
            warn_once(&POLICY_WARNED, &msg);
        }
        policy
    })
}

/// Number of worker threads the `BlockedParallel` policy fans out to:
/// `FML_THREADS` if set and valid, otherwise the machine's available
/// parallelism.  Invalid values (unparsable, or `0`) emit a one-time warning
/// naming the rejected value and the fallback.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        static THREADS_WARNED: std::sync::atomic::AtomicBool =
            std::sync::atomic::AtomicBool::new(false);
        let raw = std::env::var("FML_THREADS").ok();
        let (threads, warning) = resolve_threads_env(raw.as_deref(), available);
        if let Some(msg) = warning {
            warn_once(&THREADS_WARNED, &msg);
        }
        threads
    })
}

/// Deterministic chunk boundaries: splits `0..n` into at most `max_chunks`
/// contiguous ranges of near-equal length, each a multiple of `align` except
/// possibly the last.  Depends only on the arguments — never on scheduling.
pub fn chunk_ranges(n: usize, max_chunks: usize, align: usize) -> Vec<Range<usize>> {
    let align = align.max(1);
    if n == 0 || max_chunks <= 1 {
        let mut whole = Vec::new();
        if n > 0 {
            whole.push(0..n);
        }
        return whole;
    }
    let aligned_units = n.div_ceil(align);
    let chunks = max_chunks.min(aligned_units);
    let units_per_chunk = aligned_units.div_ceil(chunks);
    let step = units_per_chunk * align;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    while start < n {
        let end = (start + step).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs `f` over deterministic chunks of `0..n` — on the persistent worker
/// pool ([`crate::pool`]) when `threads > 1` and the work splits — and
/// returns the per-chunk results **in chunk-index order**.  Callers merge the
/// returned values front-to-back, which fixes the reduction order regardless
/// of which thread finished first.
///
/// The worker count is explicit: the drivers pass
/// [`crate::ExecSettings::workers`], and tests on single-core machines force
/// a genuine multi-chunk fan-out regardless of `FML_THREADS` / available
/// parallelism.
pub fn par_chunks_with_threads<T, F>(threads: usize, n: usize, align: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n, threads, align);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    // Each chunk writes its own slot, so the merge below is in chunk-index
    // order no matter which pool worker (or the caller, via help-first
    // draining) ran it.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(ranges.len());
    slots.resize_with(ranges.len(), || None);
    crate::pool::run(
        slots
            .iter_mut()
            .zip(ranges)
            .map(|(slot, range)| {
                let f = &f;
                move || *slot = Some(f(range))
            })
            .collect(),
    );
    slots
        .into_iter()
        .map(|s| s.expect("pool task completed"))
        .collect()
}

/// Splits `data` into at most `threads` bands of whole `row_len`-element
/// rows and runs `f(first_row_of_band, band_slice)` on each — on the pool
/// when there is more than one band.  Each band writes its disjoint rows of
/// `data` and yields a partial result, and the partials come back **in band
/// order** — the [`par_chunks_with_threads`] merge contract and a row-band
/// write contract in one fan-out.  The band boundaries are
/// [`chunk_ranges`]`(rows, threads, align_rows)`, the same split
/// `par_chunks_with_threads` makes of `0..rows`; each element of `data`
/// belongs to exactly one band, so the result is independent of scheduling.
pub fn par_row_bands_map_with_threads<T, F>(
    threads: usize,
    data: &mut [f64],
    row_len: usize,
    align_rows: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut [f64]) -> T + Sync,
{
    if data.is_empty() {
        return Vec::new();
    }
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "par_row_bands: ragged data"
    );
    let rows = data.len() / row_len;
    let ranges = chunk_ranges(rows, threads, align_rows);
    if ranges.len() <= 1 {
        return vec![f(0, data)];
    }
    // Bands are disjoint `split_at_mut` slices, so the pool tasks never
    // alias; determinism comes from the band boundaries alone, and each band
    // fills its own slot, so the results are in band order whoever ran them.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(ranges.len());
    slots.resize_with(ranges.len(), || None);
    let mut rest = data;
    let mut tasks = Vec::with_capacity(ranges.len());
    for (slot, range) in slots.iter_mut().zip(ranges) {
        let band_len = (range.end - range.start) * row_len;
        let (band, tail) = rest.split_at_mut(band_len);
        rest = tail;
        let f = &f;
        let first_row = range.start;
        tasks.push(move || *slot = Some(f(first_row, band)));
    }
    debug_assert!(rest.is_empty());
    crate::pool::run(tasks);
    slots
        .into_iter()
        .map(|s| s.expect("pool task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn labels_and_parsing_roundtrip() {
        for p in KernelPolicy::ALL {
            assert_eq!(p.label().parse::<KernelPolicy>().unwrap(), p);
        }
        assert!("bogus".parse::<KernelPolicy>().is_err());
    }

    #[test]
    fn policy_env_resolution_warns_on_invalid_values() {
        // valid values parse with no warning
        assert_eq!(
            resolve_policy_env(Some("naive")),
            (KernelPolicy::Naive, None)
        );
        assert_eq!(
            resolve_policy_env(Some("parallel")),
            (KernelPolicy::BlockedParallel, None)
        );
        // unset falls back silently
        assert_eq!(resolve_policy_env(None), (KernelPolicy::Blocked, None));
        // a typo falls back to blocked WITH a warning naming the value
        let (p, warning) = resolve_policy_env(Some("blokced"));
        assert_eq!(p, KernelPolicy::Blocked);
        let msg = warning.expect("invalid policy must warn");
        assert!(
            msg.contains("blokced"),
            "warning must name the value: {msg}"
        );
        assert!(
            msg.contains("blocked"),
            "warning must name the fallback: {msg}"
        );
    }

    /// The invalid-value warning is guarded per flag: a second resolution of
    /// the same variable must not warn again (one warning per process, not
    /// one per training run).
    #[test]
    fn warn_once_fires_exactly_once_per_guard() {
        let guard = std::sync::atomic::AtomicBool::new(false);
        assert!(!guard.load(Ordering::Relaxed));
        warn_once(&guard, "first");
        assert!(
            guard.load(Ordering::Relaxed),
            "first call must trip the guard"
        );
        // the second call sees the tripped guard and stays silent — the swap
        // returning true is exactly the "already warned" branch
        warn_once(&guard, "second");
        assert!(guard.swap(true, Ordering::Relaxed), "guard stays tripped");
    }

    #[test]
    fn threads_env_resolution_warns_on_invalid_values() {
        assert_eq!(resolve_threads_env(None, 8), (8, None));
        assert_eq!(resolve_threads_env(Some("3"), 8), (3, None));
        // zero is meaningless and must warn
        let (n, warning) = resolve_threads_env(Some("0"), 8);
        assert_eq!(n, 8);
        assert!(warning.expect("zero must warn").contains("0"));
        // unparsable strings must warn and name the value
        let (n, warning) = resolve_threads_env(Some("four"), 2);
        assert_eq!(n, 2);
        let msg = warning.expect("garbage must warn");
        assert!(msg.contains("four"), "warning must name the value: {msg}");
        assert!(msg.contains("2"), "warning must name the fallback: {msg}");
    }

    /// Property test over randomized shapes: the ranges tile `0..n` exactly
    /// once in order, every range but the last ends on an `align` multiple,
    /// and the count never exceeds `max_chunks` (nor 1 when `n` fits).
    #[test]
    fn chunk_ranges_invariants_hold_across_randomized_shapes() {
        let mut rng = crate::testutil::TestRng::new(42);
        for case in 0..500 {
            let n = rng.range(0, 5000);
            let max_chunks = rng.range(1, 33);
            let align = rng.range(1, 65);
            let ranges = chunk_ranges(n, max_chunks, align);
            // tiles 0..n exactly: contiguous, in order, non-empty
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "case {case}: gap/overlap at {}", r.start);
                assert!(r.end > r.start, "case {case}: empty range");
                next = r.end;
            }
            assert_eq!(next, n, "case {case}: ranges must cover 0..{n}");
            // n == 0 produces no ranges at all
            if n == 0 {
                assert!(ranges.is_empty(), "case {case}");
            }
            // all but the last range end on an align multiple
            for r in ranges.iter().rev().skip(1) {
                assert_eq!(
                    r.end % align,
                    0,
                    "case {case}: range end {} not a multiple of {align}",
                    r.end
                );
            }
            // never more than max_chunks ranges
            assert!(
                ranges.len() <= max_chunks,
                "case {case}: {} ranges exceeds max_chunks {max_chunks}",
                ranges.len()
            );
        }
    }

    #[test]
    fn chunk_ranges_cover_everything_exactly_once() {
        for n in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8] {
                for align in [1usize, 4, 8] {
                    let ranges = chunk_ranges(n, chunks, align);
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next);
                        assert!(r.end > r.start);
                        next = r.end;
                    }
                    assert_eq!(next, n, "n={n} chunks={chunks} align={align}");
                    // all but the last chunk are aligned
                    for r in ranges.iter().rev().skip(1) {
                        assert_eq!(r.end % align, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn par_chunks_preserves_chunk_order() {
        // explicit thread count: spawns real scoped threads even on 1 core
        let results = par_chunks_with_threads(4, 100, 1, |r| r.start);
        assert!(results.len() > 1, "fan-out must actually split");
        let mut sorted = results.clone();
        sorted.sort_unstable();
        assert_eq!(results, sorted, "results must arrive in chunk order");
        let total: usize = par_chunks_with_threads(4, 1000, 8, |r| r.len())
            .iter()
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn par_row_bands_touches_each_row_once() {
        let rows = 37;
        let cols = 5;
        let mut data = vec![0.0f64; rows * cols];
        let bands = par_row_bands_map_with_threads(4, &mut data, cols, 4, |first_row, band| {
            for (i, row) in band.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + i) as f64;
                }
            }
            first_row
        });
        assert_eq!(bands, vec![0, 12, 24, 36], "partials arrive in band order");
        for (i, row) in data.chunks_exact(cols).enumerate() {
            assert!(row.iter().all(|&v| v == i as f64), "row {i} wrong: {row:?}");
        }
    }
}
