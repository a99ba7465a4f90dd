//! The driver fan-out: [`KernelPolicy`] and the deterministic
//! data-parallel helper.
//!
//! Every heavy kernel in this crate ([`crate::gemm`], [`crate::sparse`],
//! [`crate::csr`], [`crate::block`]) is a sequential function of its
//! operands with one arithmetic; the strictly sequential loops it is tested
//! against live in [`crate::reference`].  What a run still chooses is
//! whether its drivers fan out: under [`KernelPolicy::BlockedParallel`] the
//! dense GMM trainers split their tuple batches and the factorized scorer
//! its fact blocks with [`par_row_bands_with_threads`], one scoped thread
//! per band but the last.  Band boundaries depend only on the problem shape
//! and the worker count, and per-band results are merged **in band order**
//! (a fixed-shape reduction tree), so a given configuration always produces
//! the same bits.  No kernel fans out on its own.
//!
//! The default is [`KernelPolicy::Blocked`] (no fan-out); a run pins the
//! other through [`crate::ExecPolicy::kernel_policy`].  The worker count
//! defaults to the machine's available parallelism, overridable with
//! `FML_THREADS`.

use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// Whether the drivers fan out.  Both values run the same blocked kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Every driver runs its chunks inline on the calling thread.
    Blocked,
    /// The dense GMM trainers' batches and the factorized scorer's fact
    /// blocks fanned out over scoped threads.
    BlockedParallel,
}

impl KernelPolicy {
    /// Short lowercase label (`blocked` / `parallel`).
    pub fn label(self) -> &'static str {
        match self {
            KernelPolicy::Blocked => "blocked",
            KernelPolicy::BlockedParallel => "parallel",
        }
    }

    /// Whether the trainers and the scorer may fan their chunk loops out
    /// over threads.
    pub fn is_parallel(self) -> bool {
        matches!(self, KernelPolicy::BlockedParallel)
    }
}

impl fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
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
        #[expect(
            clippy::disallowed_methods,
            reason = "the one FML_THREADS resolve site"
        )]
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
pub(crate) fn chunk_ranges(
    n: usize,
    max_chunks: usize,
    align: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> {
    let align = align.max(1);
    let units = n.div_ceil(align);
    let chunks = max_chunks.clamp(1, units.max(1));
    let step = (units.div_ceil(chunks) * align).max(1);
    (0..n.div_ceil(step)).map(move |c| c * step..(c * step + step).min(n))
}

/// Threads [`par_row_bands_with_threads`] has spawned: the
/// `fml_fanout_threads_total` registry counter, recorded unconditionally
/// because tests assert on its deltas in every `FML_OBS` mode.
static FANOUT_THREADS: fml_obs::LazyCounter = fml_obs::LazyCounter::new("fml_fanout_threads_total");

/// The drivers' one fan-out: splits `data` into at most `threads` bands of
/// whole `row_len`-element rows and runs
/// `f(first_row_of_band, band_slice, &mut scratch[b])` on band `b` — every
/// band but the last on a scoped thread of its own, the last inline — and
/// returns the number of bands.  Each band writes its disjoint rows of
/// `data` and its own caller-owned scratch (per-band buffers and partial
/// results, allocated once by the caller), which the caller merges **in band
/// order**, so the reduction order does not depend on which thread finished
/// first.  Band boundaries split `0..rows` into near-equal runs of whole
/// `align_rows` multiples and depend only on the arguments; each element of
/// `data` belongs to exactly one band, so the result is independent of
/// scheduling.  One band spawns and allocates nothing.
///
/// The worker count is explicit: the drivers pass
/// [`crate::ExecSettings::workers`], and tests on single-core machines force
/// a genuine multi-band fan-out regardless of `FML_THREADS` / available
/// parallelism.
///
/// # Panics
/// When `data` is not whole rows, or `scratch` has fewer slots than bands;
/// and with the original payload when `f` panics on any band (the first in
/// band order among the spawned ones), after every band has finished.
pub fn par_row_bands_with_threads<T, S, F>(
    threads: usize,
    data: &mut [T],
    row_len: usize,
    align_rows: usize,
    scratch: &mut [S],
    f: F,
) -> usize
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    if data.is_empty() {
        return 0;
    }
    assert!(
        row_len > 0 && data.len().is_multiple_of(row_len),
        "par_row_bands: ragged data"
    );
    let ranges = chunk_ranges(data.len() / row_len, threads, align_rows);
    let bands = ranges.len();
    assert!(
        scratch.len() >= bands,
        "par_row_bands: {bands} bands, {} scratch slots",
        scratch.len()
    );
    if bands == 1 {
        f(0, data, &mut scratch[0]);
        return 1;
    }
    // Bands are disjoint `split_at_mut` slices and each owns one scratch
    // slot, so the threads never alias; determinism comes from the band
    // boundaries alone.
    let (f, mut rest) = (&f, data);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one fan-out, where threads are born"
    )]
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(bands - 1);
        for (b, (range, slot)) in ranges.zip(scratch).enumerate() {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * row_len);
            rest = tail;
            if b + 1 == bands {
                f(range.start, band, slot);
            } else {
                FANOUT_THREADS.get().inc();
                handles.push(s.spawn(move || f(range.start, band, slot)));
            }
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    bands
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Sums `f(first_row, band)` over a `threads`-way split of `n` unit
    /// rows, each band reporting through its own scratch slot.
    fn sum_bands(threads: usize, n: usize, f: impl Fn(usize, &[u8]) -> usize + Sync) -> usize {
        let mut data = vec![0u8; n];
        let mut sums = vec![0usize; threads];
        let bands =
            par_row_bands_with_threads(threads, &mut data, 1, 1, &mut sums, |first, band, s| {
                *s = f(first, band);
            });
        sums[..bands].iter().sum()
    }

    #[test]
    fn labels_name_the_fan_out() {
        assert_eq!(KernelPolicy::Blocked.to_string(), "blocked");
        assert_eq!(KernelPolicy::BlockedParallel.to_string(), "parallel");
        assert!(KernelPolicy::BlockedParallel.is_parallel());
        assert!(!KernelPolicy::Blocked.is_parallel());
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
            let ranges: Vec<_> = chunk_ranges(n, max_chunks, align).collect();
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
                    let ranges: Vec<_> = chunk_ranges(n, chunks, align).collect();
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
    fn par_row_bands_fill_scratch_in_band_order() {
        // explicit thread count: a real fan-out even on 1 core
        let mut data = vec![0u32; 1000];
        let mut spans = [(0usize, 0usize); 4];
        let bands = par_row_bands_with_threads(4, &mut data, 1, 8, &mut spans, |first, band, s| {
            *s = (first, band.len());
        });
        assert!(bands > 1, "fan-out must actually split");
        let mut next = 0;
        for &(first, len) in &spans[..bands] {
            assert_eq!(first, next, "band order");
            next += len;
        }
        assert_eq!(next, 1000);
        // all but the last band are whole multiples of the alignment
        assert!(spans[..bands - 1].iter().all(|&(_, len)| len % 8 == 0));
    }

    #[test]
    fn par_row_bands_touches_each_row_once() {
        let rows = 37;
        let cols = 5;
        let mut data = vec![0.0f64; rows * cols];
        let mut firsts = [usize::MAX; 5];
        let bands = par_row_bands_with_threads(
            4,
            &mut data,
            cols,
            4,
            &mut firsts,
            |first_row, band, first| {
                for (i, row) in band.chunks_exact_mut(cols).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first_row + i) as f64;
                    }
                }
                *first = first_row;
            },
        );
        assert_eq!(bands, 4);
        assert_eq!(
            firsts,
            [0, 12, 24, 36, usize::MAX],
            "band b fills scratch slot b"
        );
        for (i, row) in data.chunks_exact(cols).enumerate() {
            assert!(row.iter().all(|&v| v == i as f64), "row {i} wrong: {row:?}");
        }
    }

    /// Every band runs exactly once and its result lands in its own slot,
    /// whichever thread ran it.
    #[test]
    fn par_row_bands_run_each_band_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let mut slots = [0usize; 8];
        let bands = par_row_bands_with_threads(8, &mut [(); 8], 1, 1, &mut slots, |first, _, s| {
            counts[first].fetch_add(1, Ordering::Relaxed);
            *s = first * 10;
        });
        assert_eq!(bands, 8);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "band {i} ran once");
        }
        assert_eq!(slots, [0, 10, 20, 30, 40, 50, 60, 70]);
    }

    /// No rows run nothing; one band runs inline on the calling thread.
    #[test]
    fn par_row_bands_run_empty_and_singleton_regions_inline() {
        let none = par_row_bands_with_threads(4, &mut [0u8; 0], 1, 1, &mut [(); 0], |_, _, _| {
            panic!("an empty region ran a band")
        });
        assert_eq!(none, 0);
        let mut ran_on = [None];
        let one = par_row_bands_with_threads(4, &mut [0u8; 3], 3, 1, &mut ran_on, |_, _, s| {
            *s = Some(std::thread::current().id());
        });
        assert_eq!(one, 1);
        assert_eq!(ran_on[0], Some(std::thread::current().id()));
    }

    /// Three levels of regions, each band of a region opening one of its
    /// own, complete with every row covered once.
    #[test]
    fn nested_regions_complete_without_deadlock() {
        let outer = sum_bands(4, 16, |_, outer_band| {
            let inner = sum_bands(4, 16, |_, inner_band| {
                let mut data = vec![1.0f64; 32];
                par_row_bands_with_threads(2, &mut data, 1, 1, &mut [(); 2], |_, band, _| {
                    for v in band.iter_mut() {
                        *v += 1.0;
                    }
                });
                assert!(data.iter().all(|&v| v == 2.0));
                inner_band.len()
            });
            assert_eq!(inner, 16);
            outer_band.len()
        });
        assert_eq!(outer, 16);
    }

    /// A panic on a spawned band resurfaces on the caller with its original
    /// payload, and the next region runs normally.
    #[test]
    fn worker_panics_resurface_on_the_caller() {
        let result = std::panic::catch_unwind(|| {
            sum_bands(4, 100, |first, band| {
                if first == 0 {
                    panic!("chunk zero exploded");
                }
                band.len()
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("chunk zero exploded"), "payload: {msg}");
        assert_eq!(sum_bands(4, 100, |_, band| band.len()), 100);
    }
}
