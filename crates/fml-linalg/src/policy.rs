//! Kernel execution policies and the deterministic data-parallel helpers.
//!
//! Every heavy kernel in this crate ([`crate::gemm`], [`crate::block`]) is
//! implemented three ways and selected by a [`KernelPolicy`]:
//!
//! * [`KernelPolicy::Naive`] — the straightforward triple loops of the original
//!   implementation.  Reference semantics: strictly sequential accumulation in
//!   index order.  Kept as the oracle for the equivalence property tests.
//! * [`KernelPolicy::Blocked`] — cache-tiled kernels with packed panels and a
//!   register-blocked `MR×NR` micro-kernel (see [`crate::gemm`] for the tiling
//!   parameters).  Changes the *grouping* of floating-point additions (never the
//!   multiplication set), so results agree with `Naive` to within
//!   [`crate::TEST_EPS`]-style tolerances but are not bit-identical.
//! * [`KernelPolicy::BlockedParallel`] — the blocked kernels with the outer loop
//!   split over the persistent worker pool ([`crate::pool`]).  Work is
//!   partitioned into chunks whose
//!   boundaries depend only on the problem shape and the thread count, and
//!   per-chunk results are merged **in chunk-index order** (a fixed-shape
//!   reduction tree), so a given machine configuration always produces the same
//!   bits.  Output-disjoint kernels (GEMM row bands aligned to the register
//!   tile) are bit-identical to `Blocked`; reductions (dot products, scatter
//!   merges) agree within tolerance.
//!
//! The process-wide default policy is `Blocked`, overridable with the
//! `FML_KERNEL_POLICY` environment variable (`naive` | `blocked` | `parallel`)
//! or [`set_default_policy`].  Thread count defaults to the machine's available
//! parallelism, overridable with `FML_THREADS`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Selects which implementation of the dense kernels runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelPolicy {
    /// Reference triple loops, strictly sequential accumulation.
    Naive,
    /// Cache-tiled, register-blocked kernels (single thread).
    Blocked,
    /// Blocked kernels with deterministic multi-threaded outer loops.
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

    /// Whether this policy may fan work out to the thread pool.
    pub fn is_parallel(self) -> bool {
        matches!(self, KernelPolicy::BlockedParallel)
    }

    /// The single-threaded policy with the same per-kernel arithmetic.
    ///
    /// Training drivers that parallelize at a coarser granularity (per tuple
    /// or fact chunk) run the kernels *inside* each worker under this
    /// policy, so the pool is never entered twice.
    pub fn sequential(self) -> KernelPolicy {
        match self {
            KernelPolicy::BlockedParallel => KernelPolicy::Blocked,
            p => p,
        }
    }
}

impl Default for KernelPolicy {
    /// The process-wide default — see [`default_policy`].
    fn default() -> Self {
        default_policy()
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

/// Below this many scalar flops the parallel policy is not worth a fan-out:
/// dispatch bookkeeping dominates.  Kernels pass their flop estimate
/// (`2·m·n·k` for GEMM-shaped work) through [`effective_policy`] so
/// `BlockedParallel` degrades to the bit-identical `Blocked` kernel instead of
/// paying per-call fan-out bookkeeping (partial-result buffers, queue pushes,
/// condvar wakeups) for work that fits comfortably on one core.
///
/// Historically `1 << 20`: each parallel region paid a fresh
/// `std::thread::scope` spawn per chunk (~tens of µs).  The persistent pool
/// ([`crate::pool`]) cut the per-region cost to single-digit µs, so the
/// cutoff dropped 4× — mid-size kernels that used to run sequentially now
/// amortize a pool dispatch.
pub const PAR_MIN_FLOPS: usize = 1 << 18;

/// The fan-out cutoff for rank-1 (GER) updates, far higher than
/// [`PAR_MIN_FLOPS`]: GER reads **and writes** its whole output matrix while
/// doing only 2 flops per element, so it is memory-bandwidth-bound and extra
/// threads mostly contend for the same bus.  Dropped from `1 << 24` with the
/// persistent pool (dispatch is cheaper than a spawn, so slightly smaller
/// outer products can win), but only to `3 << 22`: below ~2048×3072 the
/// bandwidth wall — not dispatch cost — still makes extra threads useless,
/// so a 2048² update stays on the sequential blocked kernel.
pub const GER_PAR_MIN_FLOPS: usize = 3 << 22;

/// Degrades `BlockedParallel` to `Blocked` when `flops` is below `min_flops`.
///
/// The two policies are bit-identical by construction (MR-aligned bands,
/// chunk-order merges), so this is purely a dispatch decision: below the
/// cutoff the blocked kernel is *always* at least as fast, because the
/// parallel wrapper adds fan-out bookkeeping even when it ends up running a
/// single chunk.  `Naive` and `Blocked` pass through untouched.
#[inline]
pub fn effective_policy(policy: KernelPolicy, flops: usize, min_flops: usize) -> KernelPolicy {
    if policy.is_parallel() && flops < min_flops {
        KernelPolicy::Blocked
    } else {
        policy
    }
}

const POLICY_UNSET: u8 = u8::MAX;

static DEFAULT_POLICY: AtomicU8 = AtomicU8::new(POLICY_UNSET);

fn policy_to_u8(p: KernelPolicy) -> u8 {
    match p {
        KernelPolicy::Naive => 0,
        KernelPolicy::Blocked => 1,
        KernelPolicy::BlockedParallel => 2,
    }
}

fn policy_from_u8(v: u8) -> KernelPolicy {
    match v {
        0 => KernelPolicy::Naive,
        2 => KernelPolicy::BlockedParallel,
        _ => KernelPolicy::Blocked,
    }
}

/// Resolves the initial default policy from a raw `FML_KERNEL_POLICY` value.
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

/// The process-wide default policy used by the non-`_with` kernel entry points.
///
/// Initialized on first use from `FML_KERNEL_POLICY` (falling back to
/// `Blocked`, with a one-time warning naming any rejected value); changeable
/// at runtime with [`set_default_policy`].
pub fn default_policy() -> KernelPolicy {
    let v = DEFAULT_POLICY.load(Ordering::Relaxed);
    if v != POLICY_UNSET {
        return policy_from_u8(v);
    }
    static POLICY_WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let raw = std::env::var("FML_KERNEL_POLICY").ok();
    let (initial, warning) = resolve_policy_env(raw.as_deref());
    if let Some(msg) = warning {
        warn_once(&POLICY_WARNED, &msg);
    }
    // Racing initializations agree (env is stable), so a relaxed store is fine.
    DEFAULT_POLICY.store(policy_to_u8(initial), Ordering::Relaxed);
    initial
}

/// Overrides the process-wide default policy.
pub fn set_default_policy(policy: KernelPolicy) {
    DEFAULT_POLICY.store(policy_to_u8(policy), Ordering::Relaxed);
}

std::thread_local! {
    /// Per-thread worker-count override installed by [`override_threads`].
    ///
    /// When a trainer or scorer resolves an explicit `ExecPolicy::threads`
    /// value, it installs the resolved count here for the duration of its
    /// run, so `par_row_bands`-based kernels invoked under the
    /// `BlockedParallel` policy fan out to exactly that many workers instead
    /// of the process-global [`num_threads`] pool size.
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// RAII guard for a scoped worker-count override (see [`override_threads`]).
/// Dropping the guard restores the previous override, so guards nest.
#[derive(Debug)]
#[must_use = "the override is removed when the guard drops"]
pub struct ThreadCountGuard {
    prev: Option<usize>,
}

impl Drop for ThreadCountGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Installs a worker-count override for the current thread until the returned
/// guard drops: every [`par_chunks`] / [`par_row_bands`] fan-out on this
/// thread splits into at most `threads` chunks, regardless of `FML_THREADS`
/// or the machine's available parallelism.
///
/// This is how a builder-set [`crate::ExecPolicy::threads`] becomes exact
/// *inside* `BlockedParallel` kernel regions, not just in the trainers'
/// explicit [`par_chunks_with_threads`] fan-outs: the trainers and the
/// scoring paths install the resolved count at entry, and any kernel they
/// (or the caller) invoke under the parallel policy reads it through
/// [`current_threads`].
pub fn override_threads(threads: usize) -> ThreadCountGuard {
    let threads = threads.max(1);
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(threads)));
    ThreadCountGuard { prev }
}

/// Convenience wrapper running `f` under [`override_threads`].
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = override_threads(threads);
    f()
}

/// The worker count a parallel fan-out on this thread should use: the scoped
/// override installed by [`override_threads`] when present, otherwise the
/// process-wide [`num_threads`].
pub fn current_threads() -> usize {
    current_override().unwrap_or_else(num_threads)
}

/// The raw scoped override, if any — `None` when the thread runs under the
/// global default.  Pool dispatch ([`crate::pool::run`]) captures this and
/// installs it in each worker for the duration of the task, so builder-set
/// `ExecPolicy::threads` stays exact inside nested fan-outs.
pub(crate) fn current_override() -> Option<usize> {
    THREAD_OVERRIDE.with(|c| c.get())
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
/// pool ([`crate::pool`]) when `parallel` is true and the work splits — and
/// returns the per-chunk results **in chunk-index order**.  Callers merge the
/// returned values front-to-back, which fixes the reduction order regardless
/// of which thread finished first.
///
/// The worker count is [`current_threads`]: a scoped [`override_threads`]
/// installed by the caller (the trainers and scorers install their resolved
/// `ExecPolicy::threads`) beats the process-global pool size.
pub fn par_chunks<T, F>(parallel: bool, n: usize, align: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = if parallel { current_threads() } else { 1 };
    par_chunks_with_threads(threads, n, align, f)
}

/// [`par_chunks`] with an explicit worker count — lets callers (and tests on
/// single-core machines) force a genuine multi-chunk fan-out regardless of
/// `FML_THREADS` / available parallelism.
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

/// Splits `data` into bands of `band_rows * row_len` elements and runs `f` on
/// each band — in parallel when `parallel` is true.  Band boundaries are
/// row-aligned and deterministic; each element of `data` belongs to exactly one
/// band, so the result is independent of scheduling.
///
/// `f` receives `(first_row_of_band, band_slice)`.
///
/// The worker count is [`current_threads`], so a scoped [`override_threads`]
/// (the resolved `ExecPolicy::threads` of the enclosing training or scoring
/// run) bounds the fan-out of every policy-routed kernel exactly.
pub fn par_row_bands<F>(parallel: bool, data: &mut [f64], row_len: usize, align_rows: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let threads = if parallel { current_threads() } else { 1 };
    par_row_bands_with_threads(threads, data, row_len, align_rows, f);
}

/// [`par_row_bands`] with an explicit worker count (see
/// [`par_chunks_with_threads`] for why this exists).
pub fn par_row_bands_with_threads<F>(
    threads: usize,
    data: &mut [f64],
    row_len: usize,
    align_rows: usize,
    f: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    par_row_bands_map_with_threads(threads, data, row_len, align_rows, f);
}

/// [`par_row_bands_with_threads`] for bands that also *return* something:
/// each band writes its disjoint rows of `data` and yields a partial result,
/// and the partials come back **in band order** — the
/// [`par_chunks_with_threads`] merge contract and the row-band write
/// contract in one fan-out.  The band boundaries are
/// [`chunk_ranges`]`(rows, threads, align_rows)`, the same split
/// `par_chunks_with_threads` makes of `0..rows`.
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

    #[test]
    fn labels_and_parsing_roundtrip() {
        for p in KernelPolicy::ALL {
            assert_eq!(p.label().parse::<KernelPolicy>().unwrap(), p);
        }
        assert!("bogus".parse::<KernelPolicy>().is_err());
    }

    /// Pins the small-kernel cutoff: `BlockedParallel` degrades to `Blocked`
    /// strictly below the threshold, stays parallel at and above it, and the
    /// sequential policies are never touched.  This is the fix for the
    /// small-`d` quadratic-form regression (parallel at 0.56–0.73× naive on
    /// dR5–dR15): those shapes are orders of magnitude below `PAR_MIN_FLOPS`,
    /// so they now route to the plain blocked kernel with zero fan-out
    /// bookkeeping.
    #[test]
    fn effective_policy_degrades_parallel_below_cutoff() {
        let par = KernelPolicy::BlockedParallel;
        assert_eq!(
            effective_policy(par, PAR_MIN_FLOPS - 1, PAR_MIN_FLOPS),
            KernelPolicy::Blocked
        );
        assert_eq!(effective_policy(par, PAR_MIN_FLOPS, PAR_MIN_FLOPS), par);
        assert_eq!(effective_policy(par, usize::MAX, PAR_MIN_FLOPS), par);
        // a dR15 quadratic form (2·15·15 flops) is far below the cutoff
        assert_eq!(
            effective_policy(par, 2 * 15 * 15, PAR_MIN_FLOPS),
            KernelPolicy::Blocked
        );
        // sequential policies pass through regardless of size
        for p in [KernelPolicy::Naive, KernelPolicy::Blocked] {
            assert_eq!(effective_policy(p, 0, PAR_MIN_FLOPS), p);
            assert_eq!(effective_policy(p, usize::MAX, PAR_MIN_FLOPS), p);
        }
        // the GER cutoff is deliberately much higher: a 2048² outer product
        // (8.4M flops) must stay sequential under the bandwidth-bound cutoff
        assert_eq!(
            effective_policy(par, 2 * 2048 * 2048, GER_PAR_MIN_FLOPS),
            KernelPolicy::Blocked
        );
    }

    #[test]
    fn default_policy_is_settable() {
        let before = default_policy();
        set_default_policy(KernelPolicy::Naive);
        assert_eq!(default_policy(), KernelPolicy::Naive);
        set_default_policy(before);
        assert_eq!(default_policy(), before);
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

    /// A "counting pool probe": each band/chunk invokes `f` exactly once, so
    /// counting invocations measures how many workers the fan-out engaged.
    fn probe_row_bands(parallel: bool, rows: usize) -> usize {
        use std::sync::atomic::AtomicUsize;
        let bands = AtomicUsize::new(0);
        let mut data = vec![0.0f64; rows * 3];
        par_row_bands(parallel, &mut data, 3, 1, |_, _| {
            bands.fetch_add(1, Ordering::Relaxed);
        });
        bands.load(Ordering::Relaxed)
    }

    #[test]
    fn override_threads_bounds_par_row_bands_exactly() {
        // With the override installed, the fan-out splits into exactly the
        // overridden count (the shape is large enough to split further).
        for n in [1usize, 2, 3] {
            let bands = with_threads(n, || probe_row_bands(true, 64));
            assert_eq!(bands, n, "override {n} must bound the band count");
        }
        // Sequential fan-outs ignore the override entirely.
        assert_eq!(with_threads(4, || probe_row_bands(false, 64)), 1);
    }

    #[test]
    fn override_threads_bounds_par_chunks_exactly() {
        for n in [1usize, 2, 5] {
            let chunks = with_threads(n, || par_chunks(true, 100, 1, |r| r.len()).len());
            assert_eq!(chunks, n, "override {n} must bound the chunk count");
        }
    }

    #[test]
    fn override_guard_nests_and_restores() {
        let outer = override_threads(2);
        assert_eq!(current_threads(), 2);
        {
            let _inner = override_threads(3);
            assert_eq!(current_threads(), 3);
        }
        assert_eq!(current_threads(), 2, "inner guard must restore the outer");
        drop(outer);
        assert_eq!(
            current_threads(),
            num_threads(),
            "dropping the last guard must restore the global pool size"
        );
        // zero is clamped: an override can never disable the caller itself
        let _g = override_threads(0);
        assert_eq!(current_threads(), 1);
    }

    #[test]
    fn override_is_thread_local() {
        let _guard = override_threads(2);
        // A bare `std::thread::spawn` does not inherit the override — it
        // reads the global pool size.  Pool workers are the exception: a
        // dispatch through `pool::run` explicitly captures and installs the
        // caller's override (see `pool::tests`).
        let seen = std::thread::spawn(current_threads).join().unwrap();
        assert_eq!(seen, num_threads());
    }

    #[test]
    fn par_row_bands_touches_each_row_once() {
        let rows = 37;
        let cols = 5;
        let mut data = vec![0.0f64; rows * cols];
        par_row_bands_with_threads(4, &mut data, cols, 4, |first_row, band| {
            for (i, row) in band.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + i) as f64;
                }
            }
        });
        for (i, row) in data.chunks_exact(cols).enumerate() {
            assert!(row.iter().all(|&v| v == i as f64), "row {i} wrong: {row:?}");
        }
    }
}
