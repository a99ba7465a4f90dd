//! "No allocation per fact, per dimension tuple or per batch", measured.
//!
//! A counting global allocator tallies the heap allocations the test thread
//! makes.  The steady-state cost of one EM iteration or NN epoch is
//! `(fit at 4 − fit at 2) / 2`: setup, initialization and first-iteration
//! growth of reusable buffers cancel.  For every model family and strategy
//! that cost must not change when the facts double or when every dimension's
//! cardinality doubles — anything allocated per fact, per tuple, per fact
//! block or per dense batch would make it grow.
//!
//! The sizes cross every boundary where such an allocation would hide: more
//! than two 1 024-row dense batches, several fact blocks, and a dense
//! dimension of 300 tuples after doubling, which `F-GMM` fills in two
//! 256-tuple `fill_rows` panels.
//! The policy is pinned to `Blocked` — no fan-out, so a fit runs wholly on
//! the test thread, whose allocations alone are counted (tests may run in
//! parallel) — with observability off, so the counts do not depend on
//! `FML_THREADS`, `FML_KERNEL_POLICY`, `FML_OBS` or the SIMD level.

use fml_core::prelude::*;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_gmm::em::PAR_BATCH_TUPLES;
use fml_obs::ObsMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting the calls that obtain memory on the
/// calling thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` with no destructor, so touching it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Pages per fact block: a block of about 1 100 facts references nearly
/// every tuple of a 300-tuple dimension first, so `F-GMM` fills it in two
/// 256-tuple panels, and every workload below spans several blocks.
const BLOCK_PAGES: usize = 8;

/// A star of `n_s` facts (`d_S = 3`) over two dense dimensions 6 and 4
/// wide, of `n_1` and `n_2` tuples.
fn star(n_s: u64, n_1: u64, n_2: u64) -> fml_data::Workload {
    let w = MultiwayConfig {
        n_s,
        d_s: 3,
        dims: vec![DimSpec::new(n_1, 6), DimSpec::new(n_2, 4)],
        k: 3,
        noise_std: 0.5,
        with_target: true,
        seed: 7,
    }
    .generate()
    .unwrap();
    assert!(
        n_s > 2 * PAR_BATCH_TUPLES as u64,
        "more than two dense batches"
    );
    let pages = w.spec.fact_relation(&w.db).unwrap().lock().num_pages();
    assert!(pages > BLOCK_PAGES, "more than one fact block");
    w
}

/// Allocations per iteration (GMM) or epoch (NN) of `algorithm` on `w`.
fn per_iteration(w: &fml_data::Workload, nn: bool, algorithm: Algorithm) -> u64 {
    let exec = ExecPolicy::new()
        .kernel_policy(KernelPolicy::Blocked)
        .obs(ObsMode::Off)
        .block_pages(BLOCK_PAGES);
    let session = Session::new(&w.db).join(&w.spec).exec(exec);
    let fit = |iterations: usize| {
        let before = allocations();
        if nn {
            let nn = Nn::with_hidden(20).algorithm(algorithm).epochs(iterations);
            session.fit(nn).unwrap();
        } else {
            let gmm = Gmm::with_k(3).algorithm(algorithm).iterations(iterations);
            session.fit(gmm.tolerance(0.0)).unwrap();
        }
        allocations() - before
    };
    // One fit first: the two measured fits then start from the same process
    // state (lazily built statics, grown per-thread buffers).
    fit(1);
    let (two, four) = (fit(2), fit(4));
    assert!(
        four >= two,
        "{algorithm:?}: fit at 4 allocated less than at 2"
    );
    (four - two) / 2
}

/// Asserts that every strategy of one family allocates as much per
/// iteration at base size as with twice the facts and with twice every
/// cardinality; prints the counts (`--nocapture` shows them).
fn assert_steady(nn: bool) {
    let workloads = [
        star(2_100, 150, 40),
        star(4_200, 150, 40),
        star(2_100, 300, 80),
    ];
    let family = if nn { "NN" } else { "GMM" };
    let mut grown = Vec::new();
    for algorithm in Algorithm::all() {
        let counts: Vec<u64> = (workloads.iter())
            .map(|w| per_iteration(w, nn, algorithm))
            .collect();
        eprintln!("{family} {algorithm:?}: {counts:?} allocations per iteration");
        if counts.iter().any(|&c| c != counts[0]) {
            grown.push(format!("{family} {algorithm:?}: {counts:?}"));
        }
    }
    assert!(
        grown.is_empty(),
        "allocations per iteration at (base, facts x2, cardinalities x2): {grown:?}"
    );
}

#[test]
fn gmm_allocations_per_iteration_do_not_grow_with_facts_or_cardinalities() {
    assert_steady(false);
}

#[test]
fn nn_allocations_per_epoch_do_not_grow_with_facts_or_cardinalities() {
    assert_steady(true);
}
