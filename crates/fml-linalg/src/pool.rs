//! The persistent worker pool behind every parallel fan-out.
//!
//! Parallel regions come from the drivers only — the trainers' and the
//! scorer's chunk loops, through [`crate::policy::par_row_bands_with_threads`];
//! no kernel
//! dispatches here.  A region used to pay a fresh `std::thread::scope` —
//! one OS thread spawn **per chunk per region** (~20–60 µs each).  The pool
//! replaces that with a fixed set of long-lived workers and a
//! borrowed-closure dispatch whose per-region cost is one queue push plus a
//! condvar wakeup per chunk (single-digit microseconds for a whole region).
//!
//! ## Dispatch protocol
//!
//! [`run`] takes a `Vec` of closures that may **borrow from the caller's
//! stack** (no `'static` bound — the same ergonomics `std::thread::scope`
//! gave the old code).  It enqueues all but the last onto the shared queue,
//! runs the last inline on the calling thread, then *helps*: it drains its
//! own region's still-queued tasks inline before sleeping, and only blocks
//! once every remaining task of the region is actively running on a worker.
//! The call returns (or resumes a worker's panic) strictly after every task
//! has finished, which is the invariant that makes the borrowed closures
//! sound.
//!
//! ## Sizing
//!
//! The pool holds at most [`crate::policy::num_threads`] workers
//! (`FML_THREADS`, else available parallelism), spawned lazily on first
//! demand and kept for the life of the process.  Help-first draining covers
//! every region that asks for more chunks than there are free workers: the
//! dispatcher never waits on a task nobody is running, so the extra chunks
//! run on the dispatcher itself, a task that opens a region of its own makes
//! progress the same way, and everything completes even with zero workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::policy;

/// Locks a mutex, ignoring poisoning: pool bookkeeping is plain counters and
/// queues whose invariants hold at every await point, and task panics are
/// caught before they can unwind through a guard.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The type-erased borrowed tasks.  This is the only module in the crate
/// that needs `unsafe`: a closure borrowing the dispatcher's
/// stack is sent to a long-lived worker as a raw pointer, and the safety
/// argument (the dispatcher never returns before the region drains) lives in
/// [`run`].
#[allow(unsafe_code)]
mod raw {
    /// A type-erased pointer to an `Option<F>` on the dispatcher's stack,
    /// plus the monomorphized shim that takes and calls the closure.
    pub(super) struct RawTask {
        data: *mut (),
        call: unsafe fn(*mut ()),
    }

    // SAFETY: `RawTask` is only constructed by `run<F>` where `F: Send`, and
    // the pointee outlives the task (the dispatcher blocks until the region
    // drains), so moving the pointer to a worker thread is exactly moving
    // the `F` — which is `Send` by bound.
    unsafe impl Send for RawTask {}

    impl RawTask {
        /// Erases `cell` (which must stay alive and untouched by the caller
        /// until the task has run) into a sendable task.
        pub(super) fn new<F: FnOnce()>(cell: &mut Option<F>) -> Self {
            /// Takes and calls the closure behind the erased pointer.
            ///
            /// # Safety
            /// `data` must point to the live `Option<F>` this shim was
            /// monomorphized for, with no concurrent access — guaranteed by
            /// the dispatch protocol: each task is popped from the queue
            /// exactly once, and the dispatcher keeps the pointee alive
            /// until the region drains.
            unsafe fn shim<F: FnOnce()>(data: *mut ()) {
                // SAFETY: `data` is the `Option<F>` this shim was erased
                // from; the dispatch protocol guarantees it is still alive
                // and that no other thread touches it concurrently (each
                // task is popped from the queue exactly once).
                let cell = unsafe { &mut *(data as *mut Option<F>) };
                if let Some(f) = cell.take() {
                    f();
                }
            }
            RawTask {
                data: (cell as *mut Option<F>).cast(),
                call: shim::<F>,
            }
        }

        /// Runs the erased closure.
        ///
        /// # Safety
        /// The `Option<F>` behind `data` must still be alive, and this task
        /// must be invoked at most once.  Both are guaranteed by [`super::run`]:
        /// tasks are popped from the queue exactly once, and the dispatcher
        /// does not return (even on panic) until the region has drained.
        pub(super) unsafe fn invoke(self) {
            // SAFETY: forwarding the caller's own contract — the pointee is
            // alive and this is the task's single invocation.
            unsafe { (self.call)(self.data) }
        }
    }
}

use raw::RawTask;

/// Completion state of one [`run`] call: the count of dispatched tasks not
/// yet finished, and the first worker panic (resumed on the dispatcher).
struct Region {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Region {
    fn new(tasks: usize) -> Arc<Self> {
        Arc::new(Self {
            pending: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Marks one task finished and wakes the dispatcher when the region is
    /// fully drained.
    fn finish_one(&self) {
        let mut pending = lock_unpoisoned(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every dispatched task of this region has finished.
    fn wait_drained(&self) {
        let mut pending = lock_unpoisoned(&self.pending);
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records the first task panic (later ones are dropped — one resume is
    /// all the dispatcher can do).
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock_unpoisoned(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// One queued unit of work: the erased task, its region, and (when metrics
/// are on) the enqueue time for the dispatch-latency histogram.
struct Message {
    task: RawTask,
    region: Arc<Region>,
    submitted: Option<Instant>,
}

impl Message {
    /// Runs the task (catching panics into the region) and marks it done.
    fn execute(self) {
        // SAFETY: `invoke`'s contract holds — this message was popped from
        // the queue exactly once, and its dispatcher is blocked in
        // `wait_drained`/help until `finish_one` below runs.
        #[allow(unsafe_code)]
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { self.task.invoke() }));
        if let Err(payload) = result {
            self.region.record_panic(payload);
        }
        self.region.finish_one();
    }
}

struct PoolState {
    queue: VecDeque<Message>,
    /// Workers currently blocked waiting for work.
    idle: usize,
    /// Workers ever spawned (never shrinks; capped at [`policy::num_threads`]).
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();
/// Total tasks ever executed by pool workers (tasks the dispatcher runs
/// inline — the last chunk, help-first steals — are not counted): the
/// `fml_pool_worker_tasks_total` registry counter, recorded unconditionally
/// because tests assert on its deltas in every `FML_OBS` mode.
static WORKER_TASKS: fml_obs::LazyCounter =
    fml_obs::LazyCounter::new("fml_pool_worker_tasks_total");

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            idle: 0,
            workers: 0,
        }),
        work: Condvar::new(),
    })
}

impl Pool {
    /// Enqueues `messages` and makes sure enough workers exist to drain them
    /// (spawning lazily up to the [`policy::num_threads`] cap).
    fn submit(&self, messages: Vec<Message>) {
        let mut state = lock_unpoisoned(&self.state);
        for m in messages {
            state.queue.push_back(m);
        }
        if fml_obs::metrics_enabled() {
            fml_obs::gauge!("fml_pool_queue_depth").set(state.queue.len() as i64);
        }
        let cap = policy::num_threads();
        while state.workers < cap && state.idle < state.queue.len() {
            #[expect(
                clippy::disallowed_methods,
                reason = "the pool is where threads are born"
            )]
            match std::thread::Builder::new()
                .name(format!("fml-pool-{}", state.workers))
                .spawn(worker_loop)
            {
                // The new worker counts as idle until it first checks the
                // queue, so a burst of submissions does not over-spawn.
                Ok(_) => {
                    state.workers += 1;
                    state.idle += 1;
                }
                // Spawn failure is not fatal: help-first draining completes
                // every region even with zero workers.
                Err(_) => break,
            }
        }
        if fml_obs::metrics_enabled() {
            fml_obs::gauge!("fml_pool_workers").set(state.workers as i64);
            fml_obs::gauge!("fml_pool_idle_workers").set(state.idle as i64);
        }
        drop(state);
        self.work.notify_all();
    }

    /// Removes one still-queued task belonging to `region`, if any.
    fn steal_own(&self, region: &Arc<Region>) -> Option<Message> {
        let mut state = lock_unpoisoned(&self.state);
        let at = state
            .queue
            .iter()
            .position(|m| Arc::ptr_eq(&m.region, region))?;
        state.queue.remove(at)
    }
}

fn worker_loop() {
    let pool = pool();
    // Compensate for the optimistic `idle += 1` performed at spawn.
    lock_unpoisoned(&pool.state).idle -= 1;
    loop {
        let msg = {
            let mut state = lock_unpoisoned(&pool.state);
            loop {
                if let Some(m) = state.queue.pop_front() {
                    break m;
                }
                state.idle += 1;
                state = pool.work.wait(state).unwrap_or_else(|e| e.into_inner());
                state.idle -= 1;
            }
        };
        WORKER_TASKS.get().inc();
        if let Some(submitted) = msg.submitted {
            // Dispatch latency: enqueue to worker pickup.  `submitted` is only
            // stamped when metrics were on at dispatch, so this records at
            // most what the run's resolved mode asked for.
            fml_obs::histogram!("fml_pool_dispatch_ns").record_duration(submitted.elapsed());
        }
        msg.execute();
    }
}

/// Waits out the region even when the dispatcher's own inline work panics:
/// workers may still hold pointers into this stack frame, so unwinding past
/// it before the region drains would be unsound.
struct DrainOnUnwind<'a> {
    region: &'a Arc<Region>,
    armed: bool,
}

impl Drop for DrainOnUnwind<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Help with our own queued tasks first so the drain cannot
            // depend on workers being available.
            while let Some(msg) = pool().steal_own(self.region) {
                msg.execute();
            }
            self.region.wait_drained();
        }
    }
}

/// Runs every closure in `tasks` to completion — the last inline on the
/// calling thread, the rest on the persistent pool — and returns only once
/// all have finished.  A panic in any task is resumed on the caller after
/// the region drains.
///
/// The closures may borrow the caller's stack (no `'static` bound); the
/// drain-before-return protocol is what makes that sound.  Execution order
/// across threads is unspecified — callers that need deterministic merges
/// write into per-task slots, as [`crate::policy::par_row_bands_with_threads`]
/// does.
pub fn run<F>(mut tasks: Vec<F>)
where
    F: FnOnce() + Send,
{
    let Some(local) = tasks.pop() else { return };
    if tasks.is_empty() {
        local();
        return;
    }
    let region = Region::new(tasks.len());
    let metrics = fml_obs::metrics_enabled();
    let submitted = if metrics { Some(Instant::now()) } else { None };
    let mut cells: Vec<Option<F>> = tasks.into_iter().map(Some).collect();
    let messages: Vec<Message> = cells
        .iter_mut()
        .map(|cell| Message {
            task: RawTask::new(cell),
            region: Arc::clone(&region),
            submitted,
        })
        .collect();
    pool().submit(messages);
    {
        let mut drain = DrainOnUnwind {
            region: &region,
            armed: true,
        };
        local();
        // Help-first: run our own still-queued tasks inline, then block
        // until the ones running on workers finish.
        while let Some(msg) = pool().steal_own(&region) {
            if metrics {
                fml_obs::counter!("fml_pool_inline_steals_total").inc();
            }
            msg.execute();
        }
        region.wait_drained();
        drain.armed = false;
    }
    let payload = lock_unpoisoned(&region.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Number of pool workers currently alive (0 until the first multi-chunk
/// parallel region runs; never exceeds [`policy::num_threads`]).
pub fn worker_count() -> usize {
    POOL.get()
        .map(|p| lock_unpoisoned(&p.state).workers)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::par_row_bands_with_threads;
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

    /// Every task runs exactly once and borrowed results land in the right
    /// slots regardless of which thread executed them.
    #[test]
    fn run_executes_each_task_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let mut slots = vec![0usize; 8];
        run(slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let counts = &counts;
                move || {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                    *slot = i * 10;
                }
            })
            .collect());
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} ran once");
        }
        assert_eq!(slots, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_handles_empty_and_singleton_regions_inline() {
        run(Vec::<fn()>::new());
        let mut hit = false;
        run(vec![|| hit = true]);
        assert!(hit);
    }

    /// Workers persist across regions: the worker count after many regions
    /// is bounded by the pool cap, not by the number of regions dispatched.
    #[test]
    fn workers_are_reused_across_regions() {
        for _ in 0..20 {
            assert_eq!(sum_bands(4, 64, |_, band| band.len()), 64);
        }
        assert!(
            worker_count() <= crate::policy::num_threads(),
            "pool must not grow past num_threads(): {} workers",
            worker_count()
        );
    }

    /// The no-deadlock property for nested fan-outs: every task of an outer
    /// region dispatches its own inner region, with a third level
    /// underneath.  With help-first draining this completes on any pool size
    /// — including the zero/one-worker pools of single-core machines.
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

    /// A panic inside a pool-dispatched task resurfaces on the dispatching
    /// thread with the original payload, after the region has drained (the
    /// pool must stay usable afterwards).
    #[test]
    fn worker_panics_propagate_to_the_dispatcher() {
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
        // The pool survives: the next region runs normally.
        assert_eq!(sum_bands(4, 100, |_, band| band.len()), 100);
    }

    /// Tasks dispatched to workers are really executed there once the pool
    /// has workers (on multi-core hosts); on a 1-core host the cap is 1 and
    /// this still holds because the single worker drains the queue.
    #[test]
    fn pool_workers_actually_execute_tasks() {
        let before = WORKER_TASKS.get().get();
        for _ in 0..50 {
            sum_bands(2, 8, |_, band| band.len());
        }
        // 50 regions × 1 dispatched chunk each: unless every single steal
        // raced ahead of every worker wakeup (vanishingly unlikely across
        // 50 rounds), the counter moved.  Tolerate the race by only
        // requiring *some* worker execution across the whole batch.
        assert!(WORKER_TASKS.get().get() >= before, "counter is monotonic");
        assert!(worker_count() >= 1, "a worker must have been spawned");
    }
}
