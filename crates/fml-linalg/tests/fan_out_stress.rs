//! Stress test for the fan-out: many OS threads opening nested
//! regions concurrently and panicking bands mid-region — the interleavings
//! no static lint can see.
//!
//! This is the target of the nightly ThreadSanitizer job
//! (`.github/workflows/nightly.yml`): every assertion here is also a data-
//! race probe when built with `-Zsanitizer=thread`.  Iterations and thread
//! counts are bounded (at most about 30 threads alive at once) so the test
//! stays cheap in the normal tier-1 suite, and it reads no environment
//! variables — worker counts are forced through the explicit
//! `par_row_bands_with_threads` argument so behavior is identical under TSan
//! and `cargo test`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use fml_linalg::policy::par_row_bands_with_threads;

/// Rounds per submitter thread — bounded so the whole test runs in well
/// under a second without sanitizers.
const ROUNDS: usize = 20;
/// Concurrent submitter threads, each opening its own regions.
const SUBMITTERS: usize = 4;
const N: usize = 96;

/// Sums `f(first_row, band)` over a `threads`-way split of `n` unit rows,
/// each band reporting through its own scratch slot.
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
fn concurrent_nested_regions_stay_deterministic() {
    let tasks_run = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs concurrent submitters of its own"
    )]
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            let tasks_run = &tasks_run;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    // Every band of the outer region opens an inner region
                    // of its own, so regions from all submitters nest and
                    // interleave.
                    let total = sum_bands(3, N, |start, band| {
                        sum_bands(2, band.len(), |first, inner| {
                            tasks_run.fetch_add(1, Ordering::Relaxed);
                            (first..first + inner.len()).map(|i| start + i).sum()
                        })
                    });
                    // Band boundaries are deterministic and every index is
                    // covered exactly once, whatever the interleaving.
                    assert_eq!(total, N * (N - 1) / 2);
                }
            });
        }
    });
    assert!(tasks_run.load(Ordering::Relaxed) >= SUBMITTERS * ROUNDS);
}

#[test]
fn panicking_bands_join_and_leave_the_fan_out_usable() {
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs concurrent submitters of its own"
    )]
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    // One band of the region panics; the region must still
                    // join every band and resume the payload on the
                    // submitting thread.
                    let poisoned = round; // index whose chunk panics
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        sum_bands(4, ROUNDS, |first, band| {
                            if (first..first + band.len()).contains(&poisoned) {
                                panic!("fan-out-stress deliberate panic");
                            }
                            band.len()
                        })
                    }));
                    let payload = caught.expect_err("the poisoned chunk must panic");
                    let msg = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .unwrap_or("non-str payload");
                    assert_eq!(msg, "fan-out-stress deliberate panic");

                    // An immediate clean fan-out on the same thread
                    // completes with full coverage.
                    assert_eq!(sum_bands(4, N, |_, band| band.len()), N);
                }
            });
        }
    });
}

#[test]
fn disjoint_row_bands_never_alias_across_submitters() {
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs concurrent submitters of its own"
    )]
    std::thread::scope(|s| {
        for submitter in 0..SUBMITTERS {
            s.spawn(move || {
                const ROW: usize = 8;
                const ROWS: usize = 24;
                let mut data = vec![0.0f64; ROWS * ROW];
                for round in 0..ROUNDS {
                    let stamp = (submitter * ROUNDS + round + 1) as f64;
                    par_row_bands_with_threads(
                        3,
                        &mut data,
                        ROW,
                        1,
                        &mut [(); 3],
                        |first_row, band, _| {
                            for (r, row) in band.chunks_mut(ROW).enumerate() {
                                for v in row.iter_mut() {
                                    *v = stamp + (first_row + r) as f64;
                                }
                            }
                        },
                    );
                    // Every row was written by exactly the band that owns it.
                    for (r, row) in data.chunks(ROW).enumerate() {
                        let want = (stamp + r as f64).to_bits();
                        assert!(row.iter().all(|v| v.to_bits() == want));
                    }
                }
            });
        }
    });
}
