//! `fml-lint`: the workspace check for the two invariants no rustc or
//! clippy lint expresses.
//!
//! Every other workspace invariant — `unsafe` confinement, documented public
//! items, one thread birthplace and one `FML_*` resolve site, no float
//! equality, no library console I/O, no panic path in the store and the
//! serving layer, no hash-order iteration — is a rustc or clippy lint
//! declared in the crates and the root `clippy.toml` (README "Static
//! analysis & unsafe audit").  What remains here needs loop and `let`-scope
//! information that no lint has:
//!
//! * **`guard-across-dispatch`** — no `Mutex`/`RwLock` guard bound by `let`
//!   and still live at a worker-pool dispatch (`pool::run*`,
//!   `par_chunks*`, `par_row_bands*`) in the same scope: the closure fans
//!   out to worker threads while the caller holds the lock.
//! * **`alloc-in-hot-loop`** — no `Vec::new`/`vec![…]`/`.to_vec()`/
//!   `.collect()`/`.clone()` inside loops of the kernel files (`gemm.rs`,
//!   `simd.rs`, `sparse.rs`, `csr.rs`), the serving scorer, or fml-store's
//!   page decoder (`batch.rs`) and join scan (`factorized_scan.rs`); buffers
//!   are hoisted and reused.
//!
//! A minimal hand-rolled lexer ([`lexer`] — no `syn`/`dylint`, the registry
//! is offline) feeds a recursive-descent pass ([`parse`]) that recovers loop
//! spans and `let`-binding scopes; [`rules`] checks both invariants over
//! every source file [`walk`] finds.  There is no allowlist: both rules hold
//! over the whole tree without exceptions.  `tests/workspace_clean.rs` runs
//! the check over the live tree, so tier-1 `cargo test` enforces it.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parse;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use rules::{check_file, Violation};

/// The outcome of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// Every violation found, sorted by location (empty means clean).
    pub violations: Vec<Violation>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run found no violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs both rules over every workspace source file under `root`.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let files = walk::rust_files(root)?;
    let mut violations = Vec::new();
    for (rel, abs) in &files {
        let source =
            std::fs::read_to_string(abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        violations.extend(rules::check_file(rel, &source));
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(Report {
        violations,
        files_scanned: files.len(),
    })
}
