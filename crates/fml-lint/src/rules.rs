//! The rule engine: five token/line-level rules over one lexed file.
//!
//! Every rule reports [`Violation`]s carrying the rule name, the
//! workspace-relative path, the 1-based line, and a message explaining the
//! invariant — the diagnostics the binary prints and the fixtures pin.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-audit` | `unsafe` only in the audited leaf modules, every block/impl preceded by `// SAFETY:`, every `unsafe fn` documented with `# Safety` |
//! | `no-raw-spawn` | `thread::spawn` only in `pool.rs` and test code (bare spawns escape the `FML_THREADS` cap and drop the SIMD level) |
//! | `env-centralization` | `FML_*` environment reads only at the designated resolve sites |
//! | `float-eq` | no float `==`/`!=`/`assert_eq!` in production code — `to_bits` or approx helpers instead |
//! | `no-stray-io` | no `println!`/`eprintln!`/`dbg!` in library code |
//!
//! ## Scope classification
//!
//! Rules distinguish three contexts, derived from the path and from
//! `#[cfg(test)]` regions found by brace matching:
//!
//! * **test code** — files under `tests/` or `benches/`, and `#[cfg(test)]`
//!   item spans inside `src` files.  The repo's test corpus *is* the
//!   designated equivalence suite: its exact float comparisons are
//!   deliberate bit-contract pins, so `float-eq` does not apply there, and
//!   `no-raw-spawn`/`no-stray-io` are relaxed.
//! * **bin code** — `src/main.rs`, `src/bin/**`, and `examples/**`: console
//!   I/O is the product there.
//! * **library code** — everything else: all five rules apply in full.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// One diagnostic: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// `unsafe-audit` rule name.
pub const RULE_UNSAFE: &str = "unsafe-audit";
/// `no-raw-spawn` rule name.
pub const RULE_SPAWN: &str = "no-raw-spawn";
/// `env-centralization` rule name.
pub const RULE_ENV: &str = "env-centralization";
/// `float-eq` rule name.
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// `no-stray-io` rule name.
pub const RULE_STRAY_IO: &str = "no-stray-io";

/// Files allowed to contain `unsafe` at all.  The leaf modules whose safety
/// arguments the audit enforces, plus the offline dependency shims (which
/// currently `#![forbid(unsafe_code)]` anyway — listed so a shim that must
/// grow an intrinsic does not silently widen the audit surface elsewhere).
const UNSAFE_ALLOWED: [&str; 2] = [
    "crates/fml-linalg/src/simd.rs",
    "crates/fml-linalg/src/pool.rs",
];
const UNSAFE_ALLOWED_PREFIX: &str = "crates/shims/";

/// The designated `FML_*` resolve sites: builder > env > default precedence
/// is decided in exactly these places, so a read anywhere else forks the
/// precedence logic.
const ENV_ALLOWED: [&str; 3] = [
    "crates/fml-linalg/src/policy.rs",
    "crates/fml-linalg/src/simd.rs",
    "crates/fml-linalg/src/exec.rs",
];
const ENV_ALLOWED_PREFIX: &str = "crates/fml-bench/";
/// fml-obs files may read `FML_OBS` (the mode resolve site lives there) but
/// no other `FML_*` variable.
const ENV_OBS_ALLOWED_PREFIX: &str = "crates/fml-obs/";

/// How many lines above an `unsafe` block/impl a `// SAFETY:` comment may
/// sit (attributes and the statement's own wrapped lines eat a few).
const SAFETY_WINDOW: usize = 6;
/// How many lines above an `unsafe fn` its doc comment (with the `# Safety`
/// section) may start — doc blocks run long.
const SAFETY_DOC_WINDOW: usize = 40;

/// Runs every rule over one file.  `rel_path` must be workspace-relative
/// with forward slashes — it is matched against the allow-sets verbatim.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let ctx = Context::new(rel_path, &lexed.tokens);
    // Outer docs only: a `//!`/`/*!` inner doc documents the enclosing
    // module, not the item that happens to follow it.
    let doc_lines: Vec<usize> = lexed
        .comments
        .iter()
        .filter(|c| c.doc && !c.text.starts_with("//!") && !c.text.starts_with("/*!"))
        .map(|c| c.line)
        .collect();
    let tree = crate::parse::parse(&lexed.tokens, &doc_lines);
    let mut out = Vec::new();
    rule_unsafe_audit(&ctx, &lexed.tokens, &lexed.comments, &mut out);
    rule_no_raw_spawn(&ctx, &lexed.tokens, &mut out);
    rule_env_centralization(&ctx, &lexed.tokens, &mut out);
    rule_float_eq(&ctx, &lexed.tokens, &mut out);
    rule_no_stray_io(&ctx, &lexed.tokens, &mut out);
    crate::semantic::check(&ctx, &lexed.tokens, &lexed.comments, &tree, &mut out);
    out
}

pub(crate) struct Context<'a> {
    pub(crate) rel_path: &'a str,
    /// Whole file is test code (`tests/`, `benches/`).
    pub(crate) test_file: bool,
    /// Whole file is bin code (`src/main.rs`, `src/bin/**`, `examples/**`).
    pub(crate) bin_file: bool,
    /// Line spans of `#[cfg(test)]` items inside a `src` file.
    test_regions: Vec<(usize, usize)>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(rel_path: &'a str, tokens: &[Token]) -> Self {
        let test_file = rel_path.contains("/tests/") || rel_path.contains("/benches/");
        let bin_file = rel_path.ends_with("/src/main.rs")
            || rel_path.contains("/src/bin/")
            || rel_path.starts_with("examples/");
        Self {
            rel_path,
            test_file,
            bin_file,
            test_regions: find_test_regions(tokens),
        }
    }

    pub(crate) fn in_test(&self, line: usize) -> bool {
        self.test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    pub(crate) fn violation(&self, rule: &'static str, line: usize, message: String) -> Violation {
        Violation {
            rule,
            path: self.rel_path.to_string(),
            line,
            message,
        }
    }
}

/// Finds the line spans of items annotated `#[cfg(test)]` by scanning for
/// the attribute token sequence and brace-matching the item that follows.
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_attr = tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "test"
            && tokens[i + 5].text == ")"
            && tokens[i + 6].text == "]";
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Walk to the item's body: first `{` opens the span; a `;` first
        // means a braceless item (`#[cfg(test)] use …;`).
        let mut j = i + 7;
        let mut end_line = start_line;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                ";" => {
                    end_line = tokens[j].line;
                    break;
                }
                "{" => {
                    let mut depth = 1usize;
                    j += 1;
                    while j < tokens.len() && depth > 0 {
                        match tokens[j].text.as_str() {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    end_line = tokens[j.saturating_sub(1).min(tokens.len() - 1)].line;
                    break;
                }
                _ => j += 1,
            }
        }
        regions.push((start_line, end_line));
        i = j.max(i + 7);
    }
    regions
}

// ---------------------------------------------------------------------------
// Rule 1: unsafe-audit
// ---------------------------------------------------------------------------

fn rule_unsafe_audit(
    ctx: &Context,
    tokens: &[Token],
    comments: &[Comment],
    out: &mut Vec<Violation>,
) {
    let file_allowed =
        UNSAFE_ALLOWED.contains(&ctx.rel_path) || ctx.rel_path.starts_with(UNSAFE_ALLOWED_PREFIX);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !file_allowed {
            out.push(
                ctx.violation(
                    RULE_UNSAFE,
                    t.line,
                    "`unsafe` code is restricted to the audited leaf modules \
                 (fml-linalg/src/simd.rs, fml-linalg/src/pool.rs, crates/shims)"
                        .to_string(),
                ),
            );
            continue;
        }
        let next = tokens.get(i + 1).map(|t| t.text.as_str());
        if next == Some("fn") {
            // `unsafe fn(` is a function-pointer *type*: nothing executes at
            // the declaration, the obligations attach to the call sites.
            if tokens.get(i + 2).map(|t| t.text.as_str()) == Some("(") {
                continue;
            }
            if !has_safety_doc_section(comments, t.line) {
                out.push(ctx.violation(
                    RULE_UNSAFE,
                    t.line,
                    "`unsafe fn` lacks a `# Safety` section in its doc comment".to_string(),
                ));
            }
        } else if !has_safety_comment(comments, t.line) {
            out.push(
                ctx.violation(
                    RULE_UNSAFE,
                    t.line,
                    "`unsafe` block/impl lacks a preceding `// SAFETY:` comment \
                 stating the invariant"
                        .to_string(),
                ),
            );
        }
    }
}

/// A comment containing `SAFETY:` on the same line or within the window
/// above `line` justifies an `unsafe` block/impl.
fn has_safety_comment(comments: &[Comment], line: usize) -> bool {
    let lo = line.saturating_sub(SAFETY_WINDOW);
    comments
        .iter()
        .any(|c| (lo..=line).contains(&c.line) && c.text.contains("SAFETY:"))
}

/// A doc comment containing a `# Safety` section within the doc window above
/// `line` documents an `unsafe fn`'s contract.
fn has_safety_doc_section(comments: &[Comment], line: usize) -> bool {
    let lo = line.saturating_sub(SAFETY_DOC_WINDOW);
    comments
        .iter()
        .any(|c| c.doc && (lo..=line).contains(&c.line) && c.text.contains("# Safety"))
}

// ---------------------------------------------------------------------------
// Rule 2: no-raw-spawn
// ---------------------------------------------------------------------------

fn rule_no_raw_spawn(ctx: &Context, tokens: &[Token], out: &mut Vec<Violation>) {
    if ctx.rel_path == "crates/fml-linalg/src/pool.rs" {
        return; // the pool is where threads are born
    }
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].text == "thread" && tokens[i + 1].text == "::" && tokens[i + 2].text == "spawn"
        {
            let line = tokens[i].line;
            if ctx.in_test(line) {
                continue;
            }
            out.push(
                ctx.violation(
                    RULE_SPAWN,
                    line,
                    "`std::thread::spawn` outside the pool: a bare spawn escapes \
                 the `FML_THREADS` worker cap and drops the thread-local SIMD \
                 level, silently changing kernel behavior on the new thread; \
                 dispatch through `fml_linalg::pool::run`"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: env-centralization
// ---------------------------------------------------------------------------

fn rule_env_centralization(ctx: &Context, tokens: &[Token], out: &mut Vec<Violation>) {
    if ENV_ALLOWED.contains(&ctx.rel_path) || ctx.rel_path.starts_with(ENV_ALLOWED_PREFIX) {
        return;
    }
    // fml-obs owns the `FML_OBS` resolve site, but nothing else: its files
    // may read `FML_OBS` and no other `FML_*` variable.
    let in_obs = ctx.rel_path.starts_with(ENV_OBS_ALLOWED_PREFIX);
    for i in 0..tokens.len().saturating_sub(2) {
        let is_read = tokens[i].text == "env"
            && tokens[i + 1].text == "::"
            && (tokens[i + 2].text == "var" || tokens[i + 2].text == "var_os");
        if !is_read {
            continue;
        }
        // The variable name is the first string literal after the call.
        let Some(var) = tokens[i + 3..]
            .iter()
            .take(4)
            .find(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
        else {
            continue;
        };
        if !var.starts_with("FML_") {
            continue;
        }
        if var == "FML_OBS" {
            if in_obs {
                continue;
            }
            out.push(
                ctx.violation(
                    RULE_ENV,
                    tokens[i].line,
                    "`FML_OBS` environment read outside its designated resolve \
                 sites (fml-obs, fml-linalg exec.rs, fml-bench): the \
                 observability mode follows builder > env > default, decided \
                 once — consume `fml_obs::mode()` or `ExecSettings::obs` \
                 instead"
                        .to_string(),
                ),
            );
        } else {
            out.push(
                ctx.violation(
                    RULE_ENV,
                    tokens[i].line,
                    "`FML_*` environment read outside the designated resolve sites \
                 (fml-linalg policy.rs/simd.rs/exec.rs, fml-bench): precedence \
                 is builder > env > default, decided in exactly one place — \
                 consume the resolved value via `ExecPolicy::resolve` or the \
                 `policy`/`simd` accessors instead"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: float-eq
// ---------------------------------------------------------------------------

/// Token texts that end the operand window around `==`/`!=` — crossing one
/// would compare tokens from a different expression.
fn is_operand_boundary(text: &str) -> bool {
    matches!(
        text,
        ";" | "," | "{" | "}" | "==" | "!=" | "=" | "&&" | "||" | "=>"
    )
}

const FLOAT_EQ_MACROS: [&str; 4] = [
    "assert_eq",
    "assert_ne",
    "debug_assert_eq",
    "debug_assert_ne",
];
const FLOAT_EQ_ESCAPES: [&str; 2] = ["to_bits", "approx_eq"];

fn rule_float_eq(ctx: &Context, tokens: &[Token], out: &mut Vec<Violation>) {
    if ctx.test_file || ctx.rel_path.ends_with("testutil.rs") {
        return; // the equivalence suites own their exact comparisons
    }
    let float_msg = "floating-point equality in production code: rounding-\
                     sensitive values must compare via `f64::to_bits` (bit \
                     contracts) or `approx_eq` (tolerances)";
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        // `x == 1.0` / `x != 1.0` with a float literal operand.  A
        // `to_bits`/`approx_eq` call in either operand window is the
        // sanctioned escape (`x.to_bits() == 0.0f64.to_bits()`).
        if t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
            let mut found = false;
            let mut escaped = false;
            let forward = tokens[i + 1..].iter().take(6);
            let backward = tokens[..i].iter().rev().take(6);
            for window in [forward.collect::<Vec<_>>(), backward.collect::<Vec<_>>()] {
                for tok in window {
                    if is_operand_boundary(&tok.text) {
                        break;
                    }
                    found |= tok.kind == TokenKind::Float;
                    escaped |= tok.kind == TokenKind::Ident
                        && FLOAT_EQ_ESCAPES.contains(&tok.text.as_str());
                }
            }
            if found && !escaped {
                out.push(ctx.violation(RULE_FLOAT_EQ, t.line, float_msg.to_string()));
            }
        }
        // `assert_eq!(…)` whose argument span holds a float literal.
        if t.kind == TokenKind::Ident
            && FLOAT_EQ_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("!")
            && tokens.get(i + 2).map(|t| t.text.as_str()) == Some("(")
        {
            let mut depth = 1usize;
            let mut has_float = false;
            let mut escaped = false;
            for tok in &tokens[i + 3..] {
                match tok.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                has_float |= tok.kind == TokenKind::Float;
                escaped |=
                    tok.kind == TokenKind::Ident && FLOAT_EQ_ESCAPES.contains(&tok.text.as_str());
            }
            if has_float && !escaped {
                out.push(ctx.violation(RULE_FLOAT_EQ, t.line, float_msg.to_string()));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: no-stray-io
// ---------------------------------------------------------------------------

const IO_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

fn rule_no_stray_io(ctx: &Context, tokens: &[Token], out: &mut Vec<Violation>) {
    if ctx.test_file || ctx.bin_file {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !IO_MACROS.contains(&t.text.as_str()) {
            continue;
        }
        if tokens.get(i + 1).map(|t| t.text.as_str()) != Some("!") {
            continue;
        }
        // `.print()`-style method calls are not the macro.
        if i > 0 && tokens[i - 1].text == "." {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        out.push(ctx.violation(
            RULE_STRAY_IO,
            t.line,
            format!(
                "stray `{}!` in library code: console I/O belongs to bins, \
                 tests and the warn-once resolve sites; return the condition \
                 to the caller instead",
                t.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_are_brace_matched() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let lexed = lex(src);
        let regions = find_test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_on_braceless_item_spans_to_semicolon() {
        let src = "#[cfg(test)]\nuse std::thread;\nfn c() {}\n";
        let lexed = lex(src);
        let regions = find_test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(1, 2)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod prod { }\n";
        let lexed = lex(src);
        assert!(find_test_regions(&lexed.tokens).is_empty());
    }

    #[test]
    fn operand_window_does_not_cross_statements() {
        // the float literal belongs to the previous statement; `x == y` is
        // an integer comparison and must not be flagged
        let src = "//! m\nfn f(x: usize, y: usize) { let a = 1.0; if x == y {} }\n";
        let v = check_file("crates/fml-core/src/cost.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }
}
