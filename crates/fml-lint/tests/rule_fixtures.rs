//! Fixture-based negative tests: one deliberately-violating snippet per
//! rule, asserting the exact `file:line` diagnostic the binary would print,
//! plus positive fixtures proving the sanctioned forms pass.
//!
//! The snippets live in string literals, so the lint's own walk over this
//! file sees only masked string contents — the fixtures cannot trip the
//! workspace self-clean test.  Each fixture is checked against the single
//! rule under test (ten rules now overlap on any snippet: an undocumented
//! `pub fn` fixture for `float-eq` would otherwise also trip `pub-doc`).

use fml_lint::check_file;

/// Diagnostics of `rule` only, rendered as the binary prints them.
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
// unsafe-audit
// ---------------------------------------------------------------------------

#[test]
fn unsafe_outside_leaf_modules_is_flagged_with_exact_diagnostic() {
    let src = "pub fn f(p: *mut u8) {\n    unsafe { *p = 0; }\n}\n";
    assert_eq!(
        diags("unsafe-audit", "crates/fml-gmm/src/em.rs", src),
        vec![
            "crates/fml-gmm/src/em.rs:2: [unsafe-audit] `unsafe` code is \
             restricted to the audited leaf modules (fml-linalg/src/simd.rs, \
             fml-linalg/src/pool.rs, crates/shims)"
                .to_string()
        ]
    );
}

#[test]
fn unsafe_block_without_safety_comment_is_flagged_in_allowed_module() {
    let src = "fn f(p: *mut u8) {\n    unsafe { *p = 0; }\n}\n";
    assert_eq!(
        diags("unsafe-audit", "crates/fml-linalg/src/simd.rs", src),
        vec!["crates/fml-linalg/src/simd.rs:2: [unsafe-audit] `unsafe` \
             block/impl lacks a preceding `// SAFETY:` comment stating the \
             invariant"
            .to_string()]
    );
}

#[test]
fn safety_comment_within_window_satisfies_the_audit() {
    let src =
        "fn f(p: *mut u8) {\n    // SAFETY: p is valid by contract.\n    unsafe { *p = 0; }\n}\n";
    assert!(clean("unsafe-audit", "crates/fml-linalg/src/simd.rs", src));
}

#[test]
fn unsafe_impl_requires_safety_comment() {
    let bad = "struct T(*mut ());\nunsafe impl Send for T {}\n";
    let v = diags("unsafe-audit", "crates/fml-linalg/src/pool.rs", bad);
    assert_eq!(v.len(), 1);
    assert!(v[0].contains(":2:"), "{}", v[0]);
    assert!(v[0].contains("SAFETY:"), "{}", v[0]);
    let good = "struct T(*mut ());\n// SAFETY: T is a plain counter.\nunsafe impl Send for T {}\n";
    assert!(clean("unsafe-audit", "crates/fml-linalg/src/pool.rs", good));
}

#[test]
fn unsafe_fn_requires_safety_doc_section() {
    let bad = "/// Does things.\npub unsafe fn zap(p: *mut u8) { }\n";
    let v = diags("unsafe-audit", "crates/fml-linalg/src/simd.rs", bad);
    assert_eq!(v.len(), 1);
    assert!(
        v[0].contains("# Safety"),
        "diagnostic must name the missing doc section: {}",
        v[0]
    );
    let good =
        "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn zap(p: *mut u8) { }\n";
    assert!(clean("unsafe-audit", "crates/fml-linalg/src/simd.rs", good));
}

#[test]
fn unsafe_fn_pointer_type_is_not_audited() {
    // `unsafe fn(…)` in type position declares no executable code.
    let src = "struct S { call: unsafe fn(*mut ()) }\n";
    assert!(clean("unsafe-audit", "crates/fml-linalg/src/pool.rs", src));
}

#[test]
fn unsafe_in_doc_comment_or_string_is_invisible() {
    let src = "/// Misusing this is unsafe in spirit.\npub fn f() { let _ = \"unsafe { }\"; }\n";
    assert!(clean("unsafe-audit", "crates/fml-gmm/src/em.rs", src));
}

// ---------------------------------------------------------------------------
// no-raw-spawn
// ---------------------------------------------------------------------------

#[test]
fn raw_spawn_outside_pool_is_flagged_with_exact_diagnostic() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert_eq!(
        diags("no-raw-spawn", "crates/fml-serve/src/scorer.rs", src),
        vec!["crates/fml-serve/src/scorer.rs:2: [no-raw-spawn] \
             `std::thread::spawn` outside the pool: a bare spawn escapes \
             the `FML_THREADS` worker cap and drops the thread-local SIMD \
             level, silently changing kernel behavior on the new thread; \
             dispatch through `fml_linalg::pool::run`"
            .to_string()]
    );
}

#[test]
fn spawn_is_allowed_in_cfg_test_and_test_files() {
    let in_test_mod =
        "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
    assert!(clean(
        "no-raw-spawn",
        "crates/fml-serve/src/scorer.rs",
        in_test_mod
    ));
    let in_test_file = "fn t() { std::thread::spawn(|| {}); }\n";
    assert!(clean(
        "no-raw-spawn",
        "crates/fml-linalg/tests/pool_stress.rs",
        in_test_file
    ));
}

#[test]
fn spawn_in_pool_rs_is_allowed() {
    let src = "fn grow() { std::thread::spawn(worker_loop); }\nfn worker_loop() {}\n";
    assert!(clean("no-raw-spawn", "crates/fml-linalg/src/pool.rs", src));
}

// ---------------------------------------------------------------------------
// env-centralization
// ---------------------------------------------------------------------------

#[test]
fn fml_env_read_outside_resolve_sites_is_flagged_with_exact_diagnostic() {
    let src = "pub fn threads() -> usize {\n    std::env::var(\"FML_THREADS\").ok().and_then(|s| s.parse().ok()).unwrap_or(1)\n}\n";
    assert_eq!(
        diags("env-centralization", "crates/fml-nn/src/trainer.rs", src),
        vec![
            "crates/fml-nn/src/trainer.rs:2: [env-centralization] `FML_*` \
             environment read outside the designated resolve sites \
             (fml-linalg policy.rs/simd.rs/exec.rs, fml-bench): precedence \
             is builder > env > default, decided in exactly one place — \
             consume the resolved value via `ExecPolicy::resolve` or the \
             `policy`/`simd` accessors instead"
                .to_string()
        ]
    );
}

#[test]
fn non_fml_env_reads_and_designated_sites_pass() {
    let non_fml = "fn home() { let _ = std::env::var(\"HOME\"); }\n";
    assert!(clean(
        "env-centralization",
        "crates/fml-store/src/heap.rs",
        non_fml
    ));
    let fml = "fn raw() { let _ = std::env::var(\"FML_THREADS\"); }\n";
    assert!(clean(
        "env-centralization",
        "crates/fml-linalg/src/policy.rs",
        fml
    ));
    assert!(clean(
        "env-centralization",
        "crates/fml-bench/src/timing.rs",
        fml
    ));
}

#[test]
fn fml_obs_read_outside_its_resolve_sites_is_flagged_with_exact_diagnostic() {
    let src = "pub fn mode() -> u8 {\n    std::env::var(\"FML_OBS\").map(|_| 1).unwrap_or(0)\n}\n";
    assert_eq!(
        diags("env-centralization", "crates/fml-gmm/src/em.rs", src),
        vec![
            "crates/fml-gmm/src/em.rs:2: [env-centralization] `FML_OBS` \
             environment read outside its designated resolve sites (fml-obs, \
             fml-linalg exec.rs, fml-bench): the observability mode follows \
             builder > env > default, decided once — consume \
             `fml_obs::mode()` or `ExecSettings::obs` instead"
                .to_string()
        ]
    );
}

#[test]
fn fml_obs_resolve_sites_pass_but_other_fml_reads_in_fml_obs_are_flagged() {
    let obs = "fn raw() { let _ = std::env::var(\"FML_OBS\"); }\n";
    // The designated resolve sites may read FML_OBS.
    assert!(clean(
        "env-centralization",
        "crates/fml-obs/src/mode.rs",
        obs
    ));
    assert!(clean(
        "env-centralization",
        "crates/fml-linalg/src/exec.rs",
        obs
    ));
    // fml-obs owns only FML_OBS: other FML_* reads there are still flagged.
    let other = "fn raw() { let _ = std::env::var(\"FML_THREADS\"); }\n";
    assert!(!clean(
        "env-centralization",
        "crates/fml-obs/src/registry.rs",
        other
    ));
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

#[test]
fn float_equality_in_production_code_is_flagged_with_exact_diagnostic() {
    let src = "pub fn f(x: f64) -> bool {\n    x == 1.0\n}\n";
    assert_eq!(
        diags("float-eq", "crates/fml-gmm/src/model.rs", src),
        vec!["crates/fml-gmm/src/model.rs:2: [float-eq] floating-point \
             equality in production code: rounding-sensitive values must \
             compare via `f64::to_bits` (bit contracts) or `approx_eq` \
             (tolerances)"
            .to_string()]
    );
}

#[test]
fn float_assert_eq_is_flagged_and_to_bits_escapes() {
    let bad = "pub fn f(x: f64) {\n    assert_eq!(x, 0.5);\n}\n";
    let v = diags("float-eq", "crates/fml-nn/src/loss.rs", bad);
    assert_eq!(v.len(), 1);
    assert!(v[0].contains(":2:"), "{}", v[0]);
    let bits = "pub fn f(x: f64) {\n    assert_eq!(x.to_bits(), 0.5f64.to_bits());\n}\n";
    assert!(clean("float-eq", "crates/fml-nn/src/loss.rs", bits));
    let cmp_bits = "pub fn f(x: f64) -> bool {\n    x.to_bits() == 0.5f64.to_bits()\n}\n";
    assert!(clean("float-eq", "crates/fml-nn/src/loss.rs", cmp_bits));
}

#[test]
fn float_equality_in_test_code_is_the_equivalence_suite_and_passes() {
    let in_test_mod =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::f(), 1.5); }\n}\n";
    assert!(clean("float-eq", "crates/fml-nn/src/loss.rs", in_test_mod));
    let in_test_file = "fn t(a: f64) { assert!(a == 1.5); }\n";
    assert!(clean(
        "float-eq",
        "crates/fml-gmm/tests/equivalence.rs",
        in_test_file
    ));
    let in_testutil = "pub fn close(a: f64) -> bool { a == 0.5 }\n";
    assert!(clean(
        "float-eq",
        "crates/fml-linalg/src/testutil.rs",
        in_testutil
    ));
}

#[test]
fn integer_equality_and_float_inequalities_pass() {
    let src = "pub fn f(x: usize, y: f64) -> bool {\n    x == 3 && y <= 0.5\n}\n";
    assert!(clean("float-eq", "crates/fml-core/src/cost.rs", src));
}

// ---------------------------------------------------------------------------
// no-stray-io
// ---------------------------------------------------------------------------

#[test]
fn stray_println_in_library_code_is_flagged_with_exact_diagnostic() {
    let src = "pub fn f() {\n    println!(\"done\");\n}\n";
    assert_eq!(
        diags("no-stray-io", "crates/fml-store/src/page.rs", src),
        vec![
            "crates/fml-store/src/page.rs:2: [no-stray-io] stray `println!` \
             in library code: console I/O belongs to bins, tests and the \
             warn-once resolve sites; return the condition to the caller \
             instead"
                .to_string()
        ]
    );
}

#[test]
fn dbg_and_eprintln_are_flagged_too() {
    let src = "pub fn f(x: u32) -> u32 {\n    eprintln!(\"warn\");\n    dbg!(x)\n}\n";
    assert_eq!(
        diags("no-stray-io", "crates/fml-store/src/page.rs", src).len(),
        2
    );
}

#[test]
fn io_is_allowed_in_bins_tests_and_benches() {
    let src = "fn main() { println!(\"hello\"); }\n";
    for path in [
        "crates/fml-bench/src/bin/reproduce.rs",
        "crates/fml-lint/src/main.rs",
        "examples/src/bin/quickstart.rs",
        "crates/fml-gmm/tests/equivalence.rs",
        "crates/fml-bench/benches/linalg_kernels.rs",
    ] {
        assert!(clean("no-stray-io", path, src), "{path} must allow I/O");
    }
}

// ---------------------------------------------------------------------------
// panic-policy
// ---------------------------------------------------------------------------

#[test]
fn unwrap_in_result_fn_is_flagged_with_exact_diagnostic() {
    let src = "fn read_page(i: usize) -> Result<u32, String> {\n    \
               let v = table().get(i).unwrap();\n    Ok(v)\n}\n";
    assert_eq!(
        diags("panic-policy", "crates/fml-store/src/heap.rs", src),
        vec![
            "crates/fml-store/src/heap.rs:2: [panic-policy] `.unwrap()` \
             inside `read_page`, a `Result`-returning production function: \
             propagate the typed error (`?`/`ok_or_else`/`map_err`) — a \
             panic here tears down a pool worker mid-batch; provable \
             invariants go in lint-allowlist.txt with the proof as the \
             reason"
                .to_string()
        ]
    );
}

#[test]
fn expect_and_panic_macros_in_result_fns_are_flagged() {
    let expect = "fn load() -> Result<u32, String> {\n    \
                  let v = table().get(0).expect(\"present\");\n    Ok(v)\n}\n";
    let v = diags("panic-policy", "crates/fml-serve/src/persist.rs", expect);
    assert_eq!(v.len(), 1);
    assert!(v[0].contains("`.expect()`"), "{}", v[0]);
    let bang = "fn load() -> Result<u32, String> {\n    panic!(\"corrupt\");\n}\n";
    let v = diags("panic-policy", "crates/fml-serve/src/persist.rs", bang);
    assert_eq!(v.len(), 1);
    assert!(v[0].contains("`panic!`"), "{}", v[0]);
}

#[test]
fn panic_policy_scopes_to_result_fns_of_store_and_serve() {
    // Non-Result functions may assert programmer-error contracts.
    let infallible = "fn len() -> usize {\n    table().get(0).unwrap()\n}\n";
    assert!(clean(
        "panic-policy",
        "crates/fml-store/src/heap.rs",
        infallible
    ));
    // Other crates are out of scope (their policies differ: kernels assert).
    let elsewhere = "fn f() -> Result<u32, String> {\n    Ok(g().unwrap())\n}\n";
    assert!(clean("panic-policy", "crates/fml-gmm/src/em.rs", elsewhere));
    // Test code is exempt: unwrap in tests is the concise failure mode.
    let in_test_mod = "#[cfg(test)]\nmod tests {\n    fn t() -> Result<u32, String> \
                       {\n        Ok(g().unwrap())\n    }\n}\n";
    assert!(clean(
        "panic-policy",
        "crates/fml-store/src/heap.rs",
        in_test_mod
    ));
    // The typed-error propagation the rule demands passes.
    let propagated = "fn read_page(i: usize) -> Result<u32, String> {\n    \
                      table().get(i).ok_or_else(|| format!(\"no page {i}\"))\n}\n";
    assert!(clean(
        "panic-policy",
        "crates/fml-store/src/heap.rs",
        propagated
    ));
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
// nondet-iteration
// ---------------------------------------------------------------------------

#[test]
fn hashmap_iteration_feeding_accumulation_is_flagged_with_exact_diagnostic() {
    let src = "fn total() -> f64 {\n    \
               let map = std::collections::HashMap::from([(1u64, 2.0f64)]);\n    \
               let mut total = 0.0;\n    \
               for (_k, v) in &map {\n        total += v;\n    }\n    total\n}\n";
    assert_eq!(
        diags("nondet-iteration", "crates/fml-gmm/src/em.rs", src),
        vec![
            "crates/fml-gmm/src/em.rs:4: [nondet-iteration] iteration over \
             a hash-ordered container feeds float accumulation: \
             `HashMap`/`HashSet` order is randomized per process, so the \
             sum's rounding differs run to run and breaks the bit-identity \
             oracle — materialize the keys, `sort_unstable()`, and iterate \
             the sorted keys instead"
                .to_string()
        ]
    );
}

#[test]
fn sorted_key_staging_is_the_sanctioned_escape() {
    let src = "fn total(map: &std::collections::HashMap<u64, f64>) -> f64 {\n    \
               let mut total = 0.0;\n    \
               let mut sorted_keys: Vec<u64> = map.keys().copied().collect();\n    \
               sorted_keys.sort_unstable();\n    \
               for k in &sorted_keys {\n        total += map[k];\n    }\n    total\n}\n";
    assert!(clean("nondet-iteration", "crates/fml-gmm/src/em.rs", src));
}

#[test]
fn hashmap_iteration_without_accumulation_passes() {
    // Pure lookups/side-effect-free iteration carries no rounding hazard.
    let src = "fn count() -> usize {\n    \
               let map = std::collections::HashMap::from([(1u64, 2.0f64)]);\n    \
               let mut n = 0;\n    \
               for _ in &map {\n        n = n + 1;\n    }\n    n\n}\n";
    assert!(clean("nondet-iteration", "crates/fml-gmm/src/em.rs", src));
}

#[test]
fn vec_of_maps_taints_its_elements() {
    // Iterating the Vec is fine (Vec order), but iterating an *element*
    // (a map pulled out of it) is hash-ordered.
    let src = "fn total() -> f64 {\n    \
               let arenas = vec![std::collections::HashMap::from([(1u64, 2.0f64)])];\n    \
               let mut total = 0.0;\n    \
               for arena in &arenas {\n        \
               for (_k, v) in arena {\n            total += v;\n        }\n    }\n    \
               total\n}\n";
    let v = diags("nondet-iteration", "crates/fml-nn/src/multiway.rs", src);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].contains(":5:"),
        "inner loop is the violation: {}",
        v[0]
    );
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

// ---------------------------------------------------------------------------
// pub-doc
// ---------------------------------------------------------------------------

#[test]
fn undocumented_pub_item_is_flagged_with_exact_diagnostic() {
    let src = "//! Module header.\npub struct Schema { pub cols: usize }\n";
    assert_eq!(
        diags("pub-doc", "crates/fml-core/src/schema.rs", src),
        vec!["crates/fml-core/src/schema.rs:2: [pub-doc] public struct \
             `Schema` has no doc comment: every exported item states its \
             contract — the doc is where invariants like bit-identity and \
             merge order become API, not folklore"
            .to_string()]
    );
}

#[test]
fn missing_module_header_is_flagged_at_line_one() {
    let src = "/// Documented fine.\npub fn f() {}\n";
    assert_eq!(
        diags("pub-doc", "crates/fml-core/src/schema.rs", src),
        vec![
            "crates/fml-core/src/schema.rs:1: [pub-doc] library file has no \
             `//!` module header: the header is what documents the `pub \
             mod` declaration that exports this file"
                .to_string()
        ]
    );
}

#[test]
fn documented_restricted_and_exempt_items_pass() {
    let documented = "//! m\n/// Doc.\npub fn f() {}\n";
    assert!(clean(
        "pub-doc",
        "crates/fml-core/src/schema.rs",
        documented
    ));
    // pub(crate)/pub(super) are not API surface.
    let restricted = "//! m\npub(crate) fn f() {}\npub(super) struct S;\n";
    assert!(clean(
        "pub-doc",
        "crates/fml-core/src/schema.rs",
        restricted
    ));
    // `pub mod x;` is documented by x.rs's own header; `pub use` re-exports
    // carry the source item's docs; trait-impl methods inherit trait docs.
    let exempt = "//! m\npub mod x;\npub use x::Y;\nimpl std::fmt::Debug for Z {\n    \
                  pub fn fmt(&self) {}\n}\n";
    assert!(clean("pub-doc", "crates/fml-core/src/schema.rs", exempt));
    // Bins and tests are exempt wholesale.
    let undocumented = "pub fn f() {}\n";
    assert!(clean(
        "pub-doc",
        "crates/fml-bench/src/bin/reproduce.rs",
        undocumented
    ));
    assert!(clean(
        "pub-doc",
        "crates/fml-gmm/tests/equivalence.rs",
        undocumented
    ));
}
