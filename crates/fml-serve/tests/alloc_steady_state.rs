//! "No allocation per fact, per dimension tuple, per window or per batch",
//! measured for fits and scores.
//!
//! A counting global allocator tallies the heap allocations the test thread
//! makes.  The steady-state cost of one EM iteration or NN epoch is
//! `(fit at 4 − fit at 2) / 2`: setup, initialization and first-iteration
//! growth of reusable buffers cancel.  For every model family and strategy
//! that cost must not change when the facts double, when every dimension's
//! cardinality doubles, or when a binary join's dimension spans twice as many
//! scan windows — anything allocated per fact, per tuple, per window, per
//! fact block or per dense batch would make it grow.  One scoring call, after
//! a warm-up call, must allocate as much with twice the facts.
//!
//! The sizes cross every boundary where such an allocation would hide: more
//! than two 1 024-row dense batches, several fact blocks, a dense dimension
//! of 300 tuples after doubling, which `F-GMM` fills in two 256-tuple
//! `fill_rows` panels, and a dimension of three or more windows.
//! The policy is pinned to `Blocked` — no fan-out, so a fit or score runs
//! wholly on the test thread, whose allocations alone are counted (tests may
//! run in parallel) — with observability off, so the counts do not depend on
//! `FML_THREADS` or `FML_OBS`.

use fml_core::prelude::*;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{SyntheticConfig, Workload};
use fml_gmm::em::PAR_BATCH_TUPLES;
use fml_obs::ObsMode;
use fml_serve::prelude::*;
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

/// Pages per fact block on the star: a block of about 1 100 facts references
/// nearly every tuple of a 300-tuple dimension first, so `F-GMM` fills it in
/// two 256-tuple panels, and every star below spans several blocks.
const STAR_PAGES: usize = 8;

/// Pages per block and window on the binary join: its dimension spans three
/// or more windows.
const BINARY_PAGES: usize = 2;

/// A star of `n_s` facts (`d_S = 3`) over two dense dimensions 6 and 4
/// wide, of `n_1` and `n_2` tuples.
fn star(n_s: u64, n_1: u64, n_2: u64) -> Workload {
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
    assert!(pages > STAR_PAGES, "more than one fact block");
    w
}

/// The star at base size, with the facts doubled and with every
/// cardinality doubled.
fn stars() -> [Workload; 3] {
    [
        star(2_100, 150, 40),
        star(4_200, 150, 40),
        star(2_100, 300, 80),
    ]
}

/// A binary join of 2 100 facts (`d_S = 3`) with a dense dimension of `n_r`
/// tuples, 6 wide, that spans at least three windows of [`BINARY_PAGES`].
fn binary(n_r: u64) -> Workload {
    let w = SyntheticConfig {
        n_s: 2_100,
        n_r,
        d_s: 3,
        d_r: 6,
        k: 3,
        noise_std: 0.5,
        with_target: true,
        seed: 7,
    }
    .generate()
    .unwrap();
    let pages =
        w.db.relation(&w.spec.dimensions[0])
            .unwrap()
            .lock()
            .num_pages();
    assert!(pages > 2 * BINARY_PAGES, "three or more windows");
    w
}

/// `Blocked` kernels, observability off, `block_pages` pages per block.
fn exec(block_pages: usize) -> ExecPolicy {
    ExecPolicy::new()
        .kernel_policy(KernelPolicy::Blocked)
        .obs(ObsMode::Off)
        .block_pages(block_pages)
}

/// Allocations per iteration (GMM) or epoch (NN) of `algorithm` on `w`.
fn per_iteration(w: &Workload, block_pages: usize, nn: bool, algorithm: Algorithm) -> u64 {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(block_pages));
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

/// Allocations of one `algorithm` scoring call on the star `w`, after a
/// warm-up call, of a model fitted beforehand.
fn per_score(w: &Workload, nn: bool, algorithm: Algorithm) -> u64 {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(STAR_PAGES));
    let opts = Scoring::new().algorithm(algorithm);
    let count = |score: &dyn Fn() -> usize| {
        score();
        let before = allocations();
        assert!(score() > 0, "scored no rows");
        allocations() - before
    };
    if nn {
        let trained = session.fit(Nn::with_hidden(20).epochs(1)).unwrap();
        count(&|| session.score_with(&trained, &opts).unwrap().len())
    } else {
        let trained = session.fit(Gmm::with_k(3).iterations(1)).unwrap();
        count(&|| session.score_with(&trained, &opts).unwrap().len())
    }
}

/// Asserts that `measure` gives every strategy of `algorithms` the same
/// count on every workload; prints the counts (`--nocapture` shows them).
fn assert_steady(
    what: &str,
    workloads: &[Workload],
    algorithms: &[Algorithm],
    measure: impl Fn(&Workload, Algorithm) -> u64,
) {
    let mut grown = Vec::new();
    for &algorithm in algorithms {
        let counts: Vec<u64> = workloads.iter().map(|w| measure(w, algorithm)).collect();
        eprintln!("{what} {algorithm:?}: {counts:?} allocations");
        if counts.iter().any(|&c| c != counts[0]) {
            grown.push(format!("{algorithm:?}: {counts:?}"));
        }
    }
    assert!(grown.is_empty(), "{what} allocations grew: {grown:?}");
}

#[test]
fn gmm_allocations_per_iteration_do_not_grow_with_facts_or_cardinalities() {
    assert_steady(
        "GMM per iteration at (base, facts x2, cardinalities x2)",
        &stars(),
        &Algorithm::all(),
        |w, a| per_iteration(w, STAR_PAGES, false, a),
    );
}

#[test]
fn nn_allocations_per_epoch_do_not_grow_with_facts_or_cardinalities() {
    assert_steady(
        "NN per epoch at (base, facts x2, cardinalities x2)",
        &stars(),
        &Algorithm::all(),
        |w, a| per_iteration(w, STAR_PAGES, true, a),
    );
}

#[test]
fn allocations_per_iteration_do_not_grow_with_the_windows_of_a_binary_join() {
    let joins = [binary(800), binary(1_600)];
    for (family, nn) in [("GMM", false), ("NN", true)] {
        assert_steady(
            &format!("{family} per iteration at (|R|, |R| x2)"),
            &joins,
            &Algorithm::all(),
            |w, a| per_iteration(w, BINARY_PAGES, nn, a),
        );
    }
}

/// M scoring is left out: it materializes the join into a temp table first,
/// whose pages grow with the data by design.
#[test]
fn scoring_allocations_do_not_grow_with_facts() {
    let stars = stars();
    for (family, nn) in [("GMM", false), ("NN", true)] {
        assert_steady(
            &format!("{family} per scoring call at (base, facts x2)"),
            &stars[..2],
            &[Algorithm::Streaming, Algorithm::Factorized],
            |w, a| per_score(w, nn, a),
        );
    }
}
