//! The syntax-aware rules: five analyses over the [`crate::parse::Tree`]
//! that the token/line rules structurally cannot express.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic-policy` | no `unwrap`/`expect`/`panic!`-family inside `Result`-returning production functions of `fml-store`/`fml-serve` — the typed error propagates |
//! | `guard-across-dispatch` | no `Mutex`/`RwLock` guard binding live across a `pool::run`/`par_chunks*`/`par_row_bands*` call — a static deadlock/latency hazard |
//! | `nondet-iteration` | no `HashMap`/`HashSet` iteration feeding float accumulation — hash order is per-process random and breaks the bit-identity oracle |
//! | `alloc-in-hot-loop` | no `Vec::new`/`vec!`/`to_vec`/`collect`/`clone` inside loops of the kernel files, the scorer and the store's decode / join-scan files |
//! | `pub-doc` | every externally-`pub` item in library crates carries a doc comment |
//!
//! Scope classification (test/bin/library) is shared with the token rules
//! via `rules::Context`; each rule narrows further by path where the
//! invariant is path-specific.

use crate::lexer::{Comment, Token, TokenKind};
use crate::parse::{ItemKind, LetBinding, Tree};
use crate::rules::Context;
use crate::rules::Violation;

/// `panic-policy` rule name.
pub const RULE_PANIC: &str = "panic-policy";
/// `guard-across-dispatch` rule name.
pub const RULE_GUARD: &str = "guard-across-dispatch";
/// `nondet-iteration` rule name.
pub const RULE_NONDET: &str = "nondet-iteration";
/// `alloc-in-hot-loop` rule name.
pub const RULE_ALLOC: &str = "alloc-in-hot-loop";
/// `pub-doc` rule name.
pub const RULE_PUB_DOC: &str = "pub-doc";

/// Crates whose production `Result` paths must propagate typed errors: the
/// persistence and serving layers, where a panic tears down a pool worker
/// mid-batch or poisons session state.
const PANIC_SCOPE: [&str; 2] = ["crates/fml-store/src/", "crates/fml-serve/src/"];

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

/// Panic-family macros (the `!` is checked at the call site).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Method idents whose presence in a loop means a fresh allocation per
/// iteration (`.to_vec()`, `.collect()`, `.clone()`).
const ALLOC_METHODS: [&str; 3] = ["to_vec", "collect", "clone"];

/// Idents that testify a loop body accumulates floats: compound assignment
/// is caught via punctuation, these catch the kernel entry points.
const ACCUM_IDENTS: [&str; 9] = [
    "axpy",
    "axpy_into",
    "ger",
    "ger_with",
    "add_outer",
    "add_assign",
    "record",
    "fma",
    "accumulate",
];

/// Idents in a `for` head that sanction the iteration: the keys were
/// materialized and sorted first, so the order is deterministic.
const NONDET_ESCAPES: [&str; 3] = ["sorted_keys", "sorted", "sort_unstable"];

/// Runs the five syntax-aware rules over one parsed file.
pub(crate) fn check(
    ctx: &Context,
    tokens: &[Token],
    comments: &[Comment],
    tree: &Tree,
    out: &mut Vec<Violation>,
) {
    rule_panic_policy(ctx, tokens, tree, out);
    rule_guard_across_dispatch(ctx, tokens, tree, out);
    rule_nondet_iteration(ctx, tokens, tree, out);
    rule_alloc_in_hot_loop(ctx, tokens, tree, out);
    rule_pub_doc(ctx, tokens, comments, tree, out);
}

fn text(tokens: &[Token], i: usize) -> &str {
    tokens.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

// ---------------------------------------------------------------------------
// Rule 6: panic-policy
// ---------------------------------------------------------------------------

fn rule_panic_policy(ctx: &Context, tokens: &[Token], tree: &Tree, out: &mut Vec<Violation>) {
    if !PANIC_SCOPE.iter().any(|p| ctx.rel_path.starts_with(p)) || ctx.test_file || ctx.bin_file {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let what = match t.text.as_str() {
            // `.unwrap()` / `.expect(…)` method calls only — a local fn
            // named `unwrap` would be pathological enough to flag anyway.
            "unwrap" | "expect"
                if i > 0 && text(tokens, i - 1) == "." && text(tokens, i + 1) == "(" =>
            {
                format!("`.{}()`", t.text)
            }
            m if PANIC_MACROS.contains(&m) && text(tokens, i + 1) == "!" => {
                format!("`{m}!`")
            }
            _ => continue,
        };
        let Some(f) = tree.enclosing_fn(t.line) else {
            continue;
        };
        if !f.returns_result() {
            continue;
        }
        out.push(ctx.violation(
            RULE_PANIC,
            t.line,
            format!(
                "{what} inside `{}`, a `Result`-returning production function: \
                 propagate the typed error (`?`/`ok_or_else`/`map_err`) — a panic \
                 here tears down a pool worker mid-batch; provable invariants go \
                 in lint-allowlist.txt with the proof as the reason",
                f.name
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule 7: guard-across-dispatch
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
// Rule 8: nondet-iteration
// ---------------------------------------------------------------------------

/// Classification of a binding that holds hash-ordered state.
struct HashBind {
    name: String,
    /// `Vec<HashMap<…>>`-style: iterating the binding itself is fine (Vec
    /// order), but its *elements* are hash-ordered.
    container: bool,
}

fn classify_hash_binds(tokens: &[Token], tree: &Tree) -> Vec<HashBind> {
    let mut binds = Vec::new();
    for l in &tree.lets {
        if l.names.len() != 1 {
            continue;
        }
        let ty_hash = l.ty.iter().any(|t| t == "HashMap" || t == "HashSet");
        let ty_vec = l.ty.iter().any(|t| t == "Vec");
        let init_toks = &tokens[l.init.0.min(tokens.len())..l.init.1.min(tokens.len())];
        let init_hash = init_toks
            .iter()
            .any(|t| t.text == "HashMap" || t.text == "HashSet");
        let init_vec = init_toks.iter().any(|t| t.text == "Vec" || t.text == "vec");
        let (is_hash, container) = if ty_hash {
            (true, ty_vec)
        } else if !l.ty.is_empty() {
            // An explicit non-hash annotation (e.g. `Vec<u64>` of sorted
            // keys) overrides whatever the initializer mentions.
            (false, false)
        } else if init_hash {
            (true, init_vec)
        } else {
            (false, false)
        };
        if is_hash {
            binds.push(HashBind {
                name: l.names[0].clone(),
                container,
            });
        }
    }
    binds
}

fn rule_nondet_iteration(ctx: &Context, tokens: &[Token], tree: &Tree, out: &mut Vec<Violation>) {
    if ctx.test_file || ctx.bin_file {
        return;
    }
    let binds = classify_hash_binds(tokens, tree);
    // Pattern idents bound by iterating a container-of-maps: they hold
    // `&HashMap` references, so iterating *them* is hash-ordered.
    let mut tainted: Vec<String> = Vec::new();
    // `for_loops` is completion-ordered (inner loops first); taint must flow
    // outer→inner, so process in source order.
    let mut order: Vec<&crate::parse::ForLoop> = tree.for_loops.iter().collect();
    order.sort_by_key(|f| f.line);
    for fl in order {
        if ctx.in_test(fl.line) {
            continue;
        }
        let head = &tokens[fl.head.0.min(tokens.len())..fl.head.1.min(tokens.len())];
        if head
            .iter()
            .any(|t| NONDET_ESCAPES.contains(&t.text.as_str()))
        {
            continue; // keys were materialized and sorted: deterministic
        }
        let mut hash_iter = false;
        for (i, t) in head.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let indexed = head.get(i + 1).map(|n| n.text == "[").unwrap_or(false);
            if let Some(b) = binds.iter().find(|b| b.name == t.text) {
                if !b.container || indexed {
                    hash_iter = true; // the map itself, or `maps[i]`
                } else {
                    // Iterating the Vec of maps: the pattern now binds maps.
                    tainted.extend(fl.pat.iter().cloned());
                }
            }
            if tainted.contains(&t.text) {
                // A tainted ident may itself be a container element that is
                // a map — iterating it is hash-ordered.
                hash_iter = true;
            }
        }
        if !hash_iter {
            continue;
        }
        let accumulates = tokens.iter().any(|t| {
            fl.body.contains(t.line)
                && (matches!(t.text.as_str(), "+=" | "-=" | "*=")
                    || (t.kind == TokenKind::Ident && ACCUM_IDENTS.contains(&t.text.as_str())))
        });
        if !accumulates {
            continue;
        }
        out.push(
            ctx.violation(
                RULE_NONDET,
                fl.line,
                "iteration over a hash-ordered container feeds float accumulation: \
             `HashMap`/`HashSet` order is randomized per process, so the sum's \
             rounding differs run to run and breaks the bit-identity oracle — \
             materialize the keys, `sort_unstable()`, and iterate the sorted \
             keys instead"
                    .to_string(),
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 9: alloc-in-hot-loop
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

// ---------------------------------------------------------------------------
// Rule 10: pub-doc
// ---------------------------------------------------------------------------

fn rule_pub_doc(
    ctx: &Context,
    tokens: &[Token],
    comments: &[Comment],
    tree: &Tree,
    out: &mut Vec<Violation>,
) {
    if ctx.test_file || ctx.bin_file {
        return;
    }
    // A `pub mod name;` declaration is documented by the module *file*'s
    // `//!` header (`missing_docs` semantics), which this per-file pass
    // cannot see — so the requirement flips: every library file must open
    // with a `//!` header, and `mod` declarations are exempt below.
    let first_code_line = tokens.first().map(|t| t.line).unwrap_or(1);
    let has_header = comments.iter().any(|c| {
        c.line <= first_code_line && (c.text.starts_with("//!") || c.text.starts_with("/*!"))
    });
    if !has_header {
        out.push(
            ctx.violation(
                RULE_PUB_DOC,
                1,
                "library file has no `//!` module header: the header is what \
             documents the `pub mod` declaration that exports this file"
                    .to_string(),
            ),
        );
    }
    for item in &tree.items {
        if !item.is_pub
            || item.pub_restricted
            || item.has_doc
            || item.in_trait_impl
            || ctx.in_test(item.line)
            || matches!(
                item.kind,
                ItemKind::Use
                    | ItemKind::Macro
                    | ItemKind::InherentImpl
                    | ItemKind::TraitImpl
                    | ItemKind::Mod
            )
        {
            continue;
        }
        let name = if item.name.is_empty() {
            String::new()
        } else {
            format!(" `{}`", item.name)
        };
        out.push(ctx.violation(
            RULE_PUB_DOC,
            item.line,
            format!(
                "public {}{name} has no doc comment: every exported item states \
                 its contract — the doc is where invariants like bit-identity \
                 and merge order become API, not folklore",
                item.kind.keyword()
            ),
        ));
    }
}
