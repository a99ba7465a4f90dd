//! The two rules, over one lexed and parsed file.
//!
//! Every rule reports [`Violation`]s carrying the rule name, the
//! workspace-relative path, the 1-based line, and a message explaining the
//! invariant — the diagnostics the fixtures in `tests/` pin.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `guard-across-dispatch` | no `Mutex`/`RwLock` guard binding live across a `pool::run`/`par_chunks*`/`par_row_bands*` call — a static deadlock/latency hazard |
//! | `alloc-in-hot-loop` | no `Vec::new`/`vec!`/`to_vec`/`collect`/`clone` inside loops of the kernel files, the scorer and the store's decode / join-scan files |
//!
//! Test code is exempt from both: files under `tests/` or `benches/`, and
//! `#[cfg(test)]` item spans inside `src` files, found by brace matching.

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{LetBinding, Tree};

/// One diagnostic: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule's name.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and how to fix it.
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

/// `guard-across-dispatch` rule name.
pub const RULE_GUARD: &str = "guard-across-dispatch";
/// `alloc-in-hot-loop` rule name.
pub const RULE_ALLOC: &str = "alloc-in-hot-loop";

/// The pool implementation itself may hold its own locks across its own
/// dispatch — that is the help-first protocol, audited by hand + TSan.
const GUARD_EXEMPT: [&str; 1] = ["crates/fml-linalg/src/pool.rs"];

/// Kernel files where a per-iteration allocation serializes on the global
/// allocator: matched by file name under any crate `src/`.
const HOT_FILE_NAMES: [&str; 4] = ["/gemm.rs", "/simd.rs", "/sparse.rs", "/csr.rs"];
/// Non-kernel files with hot row loops, matched exactly: the scorer, the
/// store's page decoder and its factorized join scan.
const HOT_FILE_EXACT: [&str; 3] = [
    "crates/fml-serve/src/scorer.rs",
    "crates/fml-store/src/batch.rs",
    "crates/fml-store/src/factorized_scan.rs",
];

/// Method idents whose presence in a loop means a fresh allocation per
/// iteration (`.to_vec()`, `.collect()`, `.clone()`).
const ALLOC_METHODS: [&str; 3] = ["to_vec", "collect", "clone"];

/// Runs both rules over one file.  `rel_path` must be workspace-relative
/// with forward slashes — it is matched against the path sets verbatim.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let ctx = Context::new(rel_path, &lexed.tokens);
    // Neither rule reads item docs, so no doc lines are attached.
    let tree = crate::parse::parse(&lexed.tokens, &[]);
    let mut out = Vec::new();
    rule_guard_across_dispatch(&ctx, &lexed.tokens, &tree, &mut out);
    rule_alloc_in_hot_loop(&ctx, &lexed.tokens, &tree, &mut out);
    out
}

struct Context<'a> {
    rel_path: &'a str,
    /// Whole file is test code (`tests/`, `benches/`).
    test_file: bool,
    /// Line spans of `#[cfg(test)]` items inside a `src` file.
    test_regions: Vec<(usize, usize)>,
}

impl<'a> Context<'a> {
    fn new(rel_path: &'a str, tokens: &[Token]) -> Self {
        Self {
            rel_path,
            test_file: rel_path.contains("/tests/") || rel_path.contains("/benches/"),
            test_regions: find_test_regions(tokens),
        }
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    fn violation(&self, rule: &'static str, line: usize, message: String) -> Violation {
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

fn text(tokens: &[Token], i: usize) -> &str {
    tokens.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

// ---------------------------------------------------------------------------
// guard-across-dispatch
// ---------------------------------------------------------------------------

/// Whether the binding's initializer is a lock acquisition: it contains a
/// zero-argument `.lock()`/`.read()`/`.write()` call (the zero-argument
/// form separates `Mutex::lock`/`RwLock::read` from `io::Read::read(&mut
/// buf)`), and everything after it is guard-preserving (`.unwrap()`,
/// `.expect("…")`, `?`).
fn guard_acquisition(tokens: &[Token], l: &LetBinding) -> bool {
    let (start, end) = l.init;
    let toks = &tokens[start.min(tokens.len())..end.min(tokens.len())];
    let mut acquired_at = None;
    for i in 0..toks.len() {
        if matches!(toks[i].text.as_str(), "lock" | "read" | "write")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(")")
        {
            acquired_at = Some(i + 3);
        }
    }
    let Some(after) = acquired_at else {
        return false;
    };
    toks[after..].iter().all(|t| {
        matches!(t.text.as_str(), "." | "unwrap" | "expect" | "(" | ")" | "?")
            || t.kind == TokenKind::Str
    })
}

/// Token index and line of the first pool-dispatch call at index `>= from`
/// on a line `<= until`.
fn first_dispatch(tokens: &[Token], from: usize, until: usize) -> Option<(usize, usize)> {
    for i in from..tokens.len() {
        if tokens[i].line > until {
            return None;
        }
        let is_pool_run = tokens[i].text == "pool"
            && text(tokens, i + 1) == "::"
            && text(tokens, i + 2).starts_with("run");
        let is_par_helper = tokens[i].kind == TokenKind::Ident
            && (tokens[i].text.starts_with("par_chunks")
                || tokens[i].text.starts_with("par_row_bands"))
            && text(tokens, i + 1) == "(";
        if is_pool_run || is_par_helper {
            return Some((i, tokens[i].line));
        }
    }
    None
}

/// Token index of `drop(<name>)` at index `>= from` on a line `<= until`.
fn explicit_drop(tokens: &[Token], name: &str, from: usize, until: usize) -> Option<usize> {
    for i in from..tokens.len() {
        if tokens[i].line > until {
            return None;
        }
        if tokens[i].text == "drop"
            && text(tokens, i + 1) == "("
            && text(tokens, i + 2) == name
            && text(tokens, i + 3) == ")"
        {
            return Some(i);
        }
    }
    None
}

fn rule_guard_across_dispatch(
    ctx: &Context,
    tokens: &[Token],
    tree: &Tree,
    out: &mut Vec<Violation>,
) {
    if GUARD_EXEMPT.contains(&ctx.rel_path) || ctx.rel_path.starts_with("crates/shims/") {
        return;
    }
    for l in &tree.lets {
        if ctx.in_test(l.line) || l.names.len() != 1 || !guard_acquisition(tokens, l) {
            continue;
        }
        let name = &l.names[0];
        if name == "_" {
            continue; // `let _ = m.lock()` drops the guard immediately
        }
        let drop_at = explicit_drop(tokens, name, l.init.1, l.scope_end);
        let Some((dispatch_idx, dispatch_line)) = first_dispatch(tokens, l.init.1, l.scope_end)
        else {
            continue;
        };
        if drop_at.map(|d| d < dispatch_idx).unwrap_or(false) {
            continue; // guard explicitly dropped before the dispatch
        }
        out.push(ctx.violation(
            RULE_GUARD,
            l.line,
            format!(
                "lock guard `{name}` is live across the pool dispatch on line \
                 {dispatch_line}: workers contending on this lock while the \
                 dispatch blocks is a deadlock/latency hazard the pool's \
                 help-first draining cannot save — copy the data out and \
                 `drop({name})` before dispatching"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// alloc-in-hot-loop
// ---------------------------------------------------------------------------

fn rule_alloc_in_hot_loop(ctx: &Context, tokens: &[Token], tree: &Tree, out: &mut Vec<Violation>) {
    let hot = HOT_FILE_EXACT.contains(&ctx.rel_path)
        || (ctx.rel_path.contains("/src/")
            && HOT_FILE_NAMES.iter().any(|n| ctx.rel_path.ends_with(n)));
    if !hot || ctx.test_file {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !tree.in_loop(t.line) || ctx.in_test(t.line) {
            continue;
        }
        let what = if t.text == "Vec" && text(tokens, i + 1) == "::" && text(tokens, i + 2) == "new"
        {
            "`Vec::new()`".to_string()
        } else if t.text == "vec" && text(tokens, i + 1) == "!" {
            "`vec![…]`".to_string()
        } else if t.kind == TokenKind::Ident
            && ALLOC_METHODS.contains(&t.text.as_str())
            && i > 0
            && text(tokens, i - 1) == "."
            && matches!(text(tokens, i + 1), "(" | "::")
        {
            format!("`.{}()`", t.text)
        } else {
            continue;
        };
        out.push(ctx.violation(
            RULE_ALLOC,
            t.line,
            format!(
                "{what} allocates inside a kernel loop: a per-iteration heap \
                 allocation serializes threads on the allocator and evicts the \
                 working set — hoist the buffer out of the loop and reuse it"
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
}
