//! The workspace self-clean gate: `cargo test -q` runs both rules over the
//! live tree, so a violation introduced anywhere in the workspace fails
//! tier-1.  There is no allowlist to consult: the tree must be clean.

use std::path::Path;

use fml_lint::run_workspace;

#[test]
fn workspace_is_lint_clean() {
    // crates/fml-lint -> crates -> workspace root
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("fml-lint sits two levels below the workspace root");
    assert!(
        root.join("Cargo.toml").exists(),
        "resolved workspace root has no Cargo.toml: {}",
        root.display()
    );
    let report = run_workspace(root).expect("walk workspace sources");
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.is_clean(),
        "fml-lint found {} violation(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
    // Sanity: the walk actually visited the tree (the crates + examples).
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}
