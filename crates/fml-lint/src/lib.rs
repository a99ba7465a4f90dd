//! `fml-lint`: the workspace static-analysis pass enforcing the invariants
//! `rustc` cannot check for us.
//!
//! The system's headline claims — factorized results bit-identical to the
//! materialized oracle, `FML_*` precedence resolved in exactly one place,
//! thread fan-out only through the worker pool, `unsafe` sound by the
//! drain-before-return protocol — all live in prose and tests.  This crate
//! makes them machine-checked: a minimal hand-rolled Rust lexer
//! ([`lexer`] — no `syn`/`dylint`, the registry is offline) feeds two rule
//! layers that walk every workspace source file and report `file:line`
//! diagnostics.
//!
//! **Token/line rules** ([`rules`]):
//!
//! * **`unsafe-audit`** — `unsafe` only in the audited leaf modules
//!   (`fml-linalg/src/simd.rs`, `fml-linalg/src/pool.rs`, the shims), every
//!   block/impl preceded by a `// SAFETY:` comment, every `unsafe fn`
//!   documented with a `# Safety` section.
//! * **`no-raw-spawn`** — `std::thread::spawn` only in `pool.rs` and test
//!   code: a bare spawn escapes the `FML_THREADS` worker cap and drops the
//!   thread-local SIMD level, silently changing kernel behavior on the new
//!   thread.
//! * **`env-centralization`** — `env::var("FML_…")` only at the designated
//!   resolve sites (`policy.rs`, `simd.rs`, `exec.rs`, `fml-bench`).
//! * **`float-eq`** — no floating-point `==`/`!=`/`assert_eq!` in
//!   production code; bit contracts go through `f64::to_bits`, tolerances
//!   through the approx helpers.  Test code is exempt by design: the test
//!   corpus *is* the designated equivalence suite and its exact comparisons
//!   are deliberate bit-contract pins.
//! * **`no-stray-io`** — no `println!`/`eprintln!`/`dbg!` in library code.
//!
//! **Syntax-aware rules** ([`semantic`]), built on a dependency-free
//! recursive-descent parser ([`parse`]) that recovers items, function
//! signatures and return types, brace-matched blocks, loop nesting, and
//! `let`-binding scopes from the token stream:
//!
//! * **`panic-policy`** — no `unwrap`/`expect`/`panic!`-family calls inside
//!   `Result`-returning production functions of `fml-store`/`fml-serve`;
//!   fallible paths propagate typed errors.
//! * **`guard-across-dispatch`** — no `Mutex`/`RwLock` guard bound by `let`
//!   and still live at a worker-pool dispatch (`pool::run*`,
//!   `par_chunks*`, `par_row_bands*`) in the same scope: the closure fans
//!   out to worker threads while the caller holds the lock.
//! * **`nondet-iteration`** — no iteration over `HashMap`/`HashSet` state
//!   that feeds floating-point accumulation: hash order is randomized per
//!   process, so such loops break the bit-identity contract.  Sorted-key
//!   staging (`sorted_keys`/`sort_unstable`) is the sanctioned escape.
//! * **`alloc-in-hot-loop`** — no `Vec::new`/`vec![…]`/`.to_vec()`/
//!   `.collect()`/`.clone()` inside loops of the kernel files (`gemm.rs`,
//!   `simd.rs`, `sparse.rs`, `csr.rs`), the serving scorer, or fml-store's
//!   page decoder (`batch.rs`) and join scan (`factorized_scan.rs`); buffers
//!   are hoisted and reused.
//! * **`pub-doc`** — every externally-`pub` library item carries a doc
//!   comment, and every library file opens with a `//!` header.
//!
//! The parser is deliberately not a Rust front-end: it tracks the shapes
//! the rules need (items, signatures, blocks, loops, `let` scopes) and
//! nothing else — no expressions, no types beyond token runs, no name
//! resolution, no macro expansion.  Rules built on it are heuristic and
//! tuned to this workspace's idioms; the escape hatch for false positives
//! is a *reasoned* allowlist entry, never a weaker rule.
//!
//! Justified exceptions live in `lint-allowlist.txt` at the workspace root
//! ([`allowlist`]) — plain text, one `[warn] rule path-glob reason` entry
//! per line.  Paths are globs (`*`, `**`, `?`); a `warn` prefix downgrades
//! matches to non-fatal warnings for hazards that are tracked rather than
//! proven impossible; entries that no longer match anything are themselves
//! errors.
//!
//! The pass ships three ways: the `fml-lint` binary (CI and humans, with
//! `--json`/`--github`/`--summary` outputs — see [`report`]), the
//! workspace self-clean test in `tests/workspace_clean.rs` (so tier-1
//! `cargo test -q` enforces it forever), and the CI step wiring.  What the
//! lint cannot see statically — real interleavings through the pool's
//! lifetime-erased `RawTask`s — is covered dynamically by the nightly Miri
//! and ThreadSanitizer jobs (see `.github/workflows/nightly.yml`).

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

pub use rules::{check_file, Violation};

/// Name of the allowlist file expected at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allowlist.txt";

/// The outcome of a workspace run after the allowlist is applied.
#[derive(Debug)]
pub struct Report {
    /// Deny-severity violations that survived the allowlist (empty means
    /// clean); includes `stale-allowlist` diagnostics for dead entries.
    pub violations: Vec<Violation>,
    /// Violations downgraded by `warn` allowlist entries: reported but
    /// non-fatal.
    pub warnings: Vec<Violation>,
    /// Per-rule counts of violations suppressed by plain allowlist entries.
    pub suppressed: BTreeMap<String, usize>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run found nothing fatal: no surviving deny violations.
    /// Warnings and suppressed counts do not affect cleanliness.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every rule over every workspace source file under `root`, applies
/// the allowlist, and turns stale allowlist entries into violations.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let files = walk::rust_files(root)?;
    let mut violations = Vec::new();
    for (rel, abs) in &files {
        let source =
            std::fs::read_to_string(abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        violations.extend(rules::check_file(rel, &source));
    }
    let allow_path = root.join(ALLOWLIST_FILE);
    let entries = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        allowlist::parse(&text)?
    } else {
        Vec::new()
    };
    let mut applied = allowlist::apply(&entries, violations);
    let mut kept = applied.deny;
    for entry in applied.stale {
        kept.push(Violation {
            rule: "stale-allowlist",
            path: ALLOWLIST_FILE.to_string(),
            line: entry.line,
            message: format!(
                "allowlist entry `{} {}` matched no violation — the exception \
                 is no longer needed; remove it",
                entry.rule, entry.path
            ),
        });
    }
    let by_location = |a: &Violation, b: &Violation| (&a.path, a.line).cmp(&(&b.path, b.line));
    kept.sort_by(by_location);
    applied.warnings.sort_by(by_location);
    Ok(Report {
        violations: kept,
        warnings: applied.warnings,
        suppressed: applied.suppressed,
        files_scanned: files.len(),
    })
}
