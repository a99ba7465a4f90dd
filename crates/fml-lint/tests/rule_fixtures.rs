//! Fixture-based negative tests: one deliberately-violating snippet per
//! rule, asserting the exact `file:line` diagnostic the check reports,
//! plus positive fixtures proving the sanctioned forms pass.
//!
//! The snippets live in string literals, so the check's own walk over this
//! file sees only masked string contents — the fixtures cannot trip the
//! workspace self-clean test.  Each fixture is checked against the single
//! rule under test.

use fml_lint::check_file;

/// Diagnostics of `rule` only, rendered as `path:line: [rule] message`.
fn diags(rule: &str, path: &str, src: &str) -> Vec<String> {
    check_file(path, src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.to_string())
        .collect()
}

/// Whether the snippet is clean under `rule`.
fn clean(rule: &str, path: &str, src: &str) -> bool {
    diags(rule, path, src).is_empty()
}

// ---------------------------------------------------------------------------
// guard-across-dispatch
// ---------------------------------------------------------------------------

#[test]
fn guard_live_across_pool_dispatch_is_flagged_with_exact_diagnostic() {
    let src = "fn flush(m: &std::sync::Mutex<Vec<f64>>) {\n    \
               let guard = m.lock().unwrap();\n    \
               pool::run(4, || { step(); });\n}\n";
    assert_eq!(
        diags(
            "guard-across-dispatch",
            "crates/fml-serve/src/session.rs",
            src
        ),
        vec![
            "crates/fml-serve/src/session.rs:2: [guard-across-dispatch] \
             lock guard `guard` is live across the pool dispatch on line 3: \
             workers contending on this lock while the dispatch blocks is a \
             deadlock/latency hazard the pool's help-first draining cannot \
             save — copy the data out and `drop(guard)` before dispatching"
                .to_string()
        ]
    );
}

#[test]
fn guard_discipline_escapes_pass() {
    // Explicit drop before the dispatch clears the hazard.
    let dropped = "fn flush(m: &std::sync::Mutex<Vec<f64>>) {\n    \
                   let guard = m.lock().unwrap();\n    let n = guard.len();\n    \
                   drop(guard);\n    pool::run(n, || { step(); });\n}\n";
    assert!(clean(
        "guard-across-dispatch",
        "crates/fml-serve/src/session.rs",
        dropped
    ));
    // Copying the data out inside the initializer never binds a guard.
    let copied = "fn flush(m: &std::sync::Mutex<Vec<f64>>) {\n    \
                  let data = m.lock().unwrap().clone();\n    \
                  pool::run(data.len(), || { step(); });\n}\n";
    assert!(clean(
        "guard-across-dispatch",
        "crates/fml-serve/src/session.rs",
        copied
    ));
    // RwLock::read guards are caught too.
    let read_guard = "fn flush(m: &std::sync::RwLock<Vec<f64>>) {\n    \
                      let g = m.read().unwrap();\n    par_chunks(&g, || {});\n}\n";
    assert_eq!(
        diags(
            "guard-across-dispatch",
            "crates/fml-serve/src/session.rs",
            read_guard
        )
        .len(),
        1
    );
    // The pool itself is exempt: holding its own locks across its own
    // dispatch is the audited help-first protocol.
    let in_pool = "fn run_inner(m: &std::sync::Mutex<u32>) {\n    \
                   let g = m.lock().unwrap();\n    pool::run(1, || {});\n    \
                   let _ = g;\n}\n";
    assert!(clean(
        "guard-across-dispatch",
        "crates/fml-linalg/src/pool.rs",
        in_pool
    ));
}

// ---------------------------------------------------------------------------
// alloc-in-hot-loop
// ---------------------------------------------------------------------------

#[test]
fn allocation_inside_kernel_loop_is_flagged_with_exact_diagnostic() {
    let src = "fn kernel(n: usize) {\n    for i in 0..n {\n        \
               let buf = vec![0.0; 4];\n        let _ = (i, buf);\n    }\n}\n";
    assert_eq!(
        diags("alloc-in-hot-loop", "crates/fml-linalg/src/gemm.rs", src),
        vec!["crates/fml-linalg/src/gemm.rs:3: [alloc-in-hot-loop] \
             `vec![…]` allocates inside a kernel loop: a per-iteration heap \
             allocation serializes threads on the allocator and evicts the \
             working set — hoist the buffer out of the loop and reuse it"
            .to_string()]
    );
}

#[test]
fn collect_clone_and_vec_new_in_loops_are_flagged() {
    let src = "fn kernel(rows: &[Vec<f64>]) {\n    for r in rows {\n        \
               let a = Vec::new();\n        let b = r.clone();\n        \
               let c: Vec<f64> = r.iter().map(|x| x * 2.0).collect();\n        \
               use_all(a, b, c);\n    }\n}\n";
    for hot in [
        "crates/fml-serve/src/scorer.rs",
        "crates/fml-store/src/batch.rs",
        "crates/fml-store/src/factorized_scan.rs",
    ] {
        let v = diags("alloc-in-hot-loop", hot, src);
        let whats: Vec<bool> = ["`Vec::new()`", "`.clone()`", "`.collect()`"]
            .iter()
            .map(|w| v.iter().any(|d| d.contains(w)))
            .collect();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(whats.iter().all(|&b| b), "{v:?}");
    }
}

#[test]
fn hoisted_buffers_and_non_hot_files_pass() {
    let hoisted = "fn kernel(n: usize) {\n    let mut buf = vec![0.0; 4];\n    \
                   for i in 0..n {\n        buf[0] += i as f64;\n    }\n}\n";
    assert!(clean(
        "alloc-in-hot-loop",
        "crates/fml-linalg/src/gemm.rs",
        hoisted
    ));
    let alloc_in_loop = "fn setup(n: usize) {\n    for _ in 0..n {\n        \
                         let v = Vec::new();\n        push(v);\n    }\n}\n";
    // Cold-path files are out of scope: the rule is about kernels — and so
    // are the store's `Vec<Tuple>` row views.
    for cold in ["crates/fml-gmm/src/em.rs", "crates/fml-store/src/rows.rs"] {
        assert!(clean("alloc-in-hot-loop", cold, alloc_in_loop));
    }
    // Test code inside a hot file is exempt.
    let in_test = "#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   for _ in 0..4 {\n            let v = vec![1];\n            \
                   drop(v);\n        }\n    }\n}\n";
    assert!(clean(
        "alloc-in-hot-loop",
        "crates/fml-linalg/src/gemm.rs",
        in_test
    ));
}
