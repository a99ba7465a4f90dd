//! Stress test for the persistent worker pool: many OS threads submitting
//! nested regions concurrently and panicking tasks mid-region — the
//! interleavings the static lint cannot see.
//!
//! This is the target of the nightly ThreadSanitizer job
//! (`.github/workflows/nightly.yml`): every assertion here is also a data-
//! race probe when built with `-Zsanitizer=thread`.  Iterations are bounded
//! so the test stays cheap in the normal tier-1 suite, and it reads no
//! environment variables — worker counts are forced through the explicit
//! `*_with_threads` entry points so behavior is identical under TSan, Miri
//! and `cargo test`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use fml_linalg::policy::{par_chunks_with_threads, par_row_bands_map_with_threads};

/// Rounds per submitter thread — bounded so the whole test runs in well
/// under a second without sanitizers.
const ROUNDS: usize = 20;
/// Concurrent submitter threads sharing the one process-wide pool.
const SUBMITTERS: usize = 4;
const N: usize = 96;

#[test]
fn concurrent_nested_regions_stay_deterministic() {
    let tasks_run = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            let tasks_run = &tasks_run;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    // Outer region fans out on the shared pool; every outer
                    // chunk opens an inner region of its own, so regions
                    // from all submitters nest and interleave on the same
                    // workers.
                    let outer = par_chunks_with_threads(3, N, 1, |range| {
                        let len = range.len();
                        let inner = par_chunks_with_threads(2, len, 1, |r| {
                            tasks_run.fetch_add(1, Ordering::Relaxed);
                            r.map(|i| range.start + i).sum::<usize>()
                        });
                        inner.into_iter().sum::<usize>()
                    });
                    // Chunk boundaries are deterministic and every index is
                    // covered exactly once, whatever the interleaving.
                    let total: usize = outer.into_iter().sum();
                    assert_eq!(total, N * (N - 1) / 2);
                }
            });
        }
    });
    assert!(tasks_run.load(Ordering::Relaxed) >= SUBMITTERS * ROUNDS);
}

#[test]
fn panicking_tasks_drain_and_leave_the_pool_usable() {
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    // One task of the region panics; the dispatcher must
                    // still drain the region (DrainOnUnwind) and resume the
                    // payload on the submitting thread.
                    let poisoned = round; // index whose chunk panics
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        par_chunks_with_threads(4, ROUNDS, 1, |r| {
                            if r.contains(&poisoned) {
                                panic!("pool-stress deliberate panic");
                            }
                            r.len()
                        })
                    }));
                    let payload = caught.expect_err("the poisoned chunk must panic");
                    let msg = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .unwrap_or("non-str payload");
                    assert_eq!(msg, "pool-stress deliberate panic");

                    // The pool survives: an immediate clean fan-out on the
                    // same thread completes with full coverage.
                    let clean = par_chunks_with_threads(4, N, 1, |r| r.len());
                    assert_eq!(clean.into_iter().sum::<usize>(), N);
                }
            });
        }
    });
}

#[test]
fn disjoint_row_bands_never_alias_across_submitters() {
    std::thread::scope(|s| {
        for submitter in 0..SUBMITTERS {
            s.spawn(move || {
                const ROW: usize = 8;
                const ROWS: usize = 24;
                let mut data = vec![0.0f64; ROWS * ROW];
                for round in 0..ROUNDS {
                    let stamp = (submitter * ROUNDS + round + 1) as f64;
                    par_row_bands_map_with_threads(3, &mut data, ROW, 1, |first_row, band| {
                        for (r, row) in band.chunks_mut(ROW).enumerate() {
                            for v in row.iter_mut() {
                                *v = stamp + (first_row + r) as f64;
                            }
                        }
                    });
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
