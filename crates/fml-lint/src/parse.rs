//! A lightweight recursive-descent pass over the lexed token stream: just
//! enough *syntax* for scope-sensitive rules, with none of the semantics.
//!
//! [`parse`] builds a [`Tree`] recording four things a token stream alone
//! does not show:
//!
//! * **items** — functions, types, traits, impls, modules, consts — with
//!   their visibility, line span, and whether a doc comment is attached;
//! * **function signatures** — name, `pub`-ness, return-type tokens, and
//!   the brace-matched body span;
//! * **loop bodies** — `for`/`while`/`loop` spans, nested arbitrarily
//!   (the `alloc-in-hot-loop` rule), with `for` headers and pattern
//!   bindings;
//! * **`let` bindings** — pattern names, optional type-annotation tokens,
//!   initializer token range, and the line where the enclosing block
//!   closes, i.e. the binding's scope end (the `guard-across-dispatch`
//!   liveness check).
//!
//! ## Non-goals
//!
//! This is not a conforming parser and does not try to be: no expression
//! trees, no type resolution, no macro expansion.  Known, deliberate
//! approximations (all pinned by fixtures where they matter):
//!
//! * Blocks *inside* `let` initializers (`let x = { … };`, closure bodies
//!   in a call chain) are brace-balanced but not descended into, so loops
//!   or bindings defined there are invisible.  Statement-position closures
//!   and blocks are descended.
//! * Const-generic braces (`[u8; { N }]`) and `>=`-in-bounds corner cases
//!   may confuse span ends by a token; rules only consume line spans, so
//!   the blast radius is a line, not a file.
//! * Items declared inside function bodies are recorded, but their
//!   visibility context (a `pub fn` inside a private `mod`) is not
//!   resolved — `is_pub` is *lexical* `pub`.
//!
//! What the parser cannot see statically (dynamic dispatch, locks acquired
//! behind helper calls) is covered by the nightly Miri/TSan jobs, not this
//! crate.

use crate::lexer::{Token, TokenKind};

/// An inclusive 1-based line span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First line of the span.
    pub start: usize,
    /// Last line of the span.
    pub end: usize,
}

impl Span {
    /// Whether `line` falls inside the span.
    pub fn contains(&self, line: usize) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

/// What kind of item a [`Item`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, inherent-impl or trait member).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// `impl Type { … }`.
    InherentImpl,
    /// `impl Trait for Type { … }`.
    TraitImpl,
    /// `mod`.
    Mod,
    /// `const`.
    Const,
    /// `static`.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `use` / `extern crate` re-export.
    Use,
    /// `macro_rules!` / `macro` definition.
    Macro,
}

impl ItemKind {
    /// Human-facing keyword for diagnostics.
    pub fn keyword(&self) -> &'static str {
        match self {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Union => "union",
            ItemKind::Trait => "trait",
            ItemKind::InherentImpl => "impl",
            ItemKind::TraitImpl => "impl … for",
            ItemKind::Mod => "mod",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::Use => "use",
            ItemKind::Macro => "macro",
        }
    }
}

/// One item declaration.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item.
    pub kind: ItemKind,
    /// Declared name (empty for `impl` blocks and `use` trees).
    pub name: String,
    /// Lexically `pub` (any restriction: `pub(crate)` counts).
    pub is_pub: bool,
    /// Restricted visibility (`pub(crate)`/`pub(super)`): not part of the
    /// crate's external API (`missing_docs` skips it).
    pub pub_restricted: bool,
    /// Line of the introducing keyword.
    pub line: usize,
    /// Whether a doc comment is attached directly above the item (attributes
    /// between doc and keyword are fine).
    pub has_doc: bool,
    /// Whether this item is a member of an `impl Trait for Type` block —
    /// such members take their docs from the trait declaration.
    pub in_trait_impl: bool,
}

/// One function with a parsed signature.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Lexically `pub`.
    pub is_pub: bool,
    /// Return-type token texts (empty for `-> ()` implicit returns).
    pub ret: Vec<String>,
    /// Brace-matched body span; `None` for trait-method declarations.
    pub body: Option<Span>,
}

impl FnInfo {
    /// Whether the declared return type mentions a `Result` (including
    /// crate aliases like `StoreResult`).
    pub fn returns_result(&self) -> bool {
        self.ret
            .iter()
            .any(|t| t == "Result" || t.ends_with("Result"))
    }
}

/// One `for` loop: pattern bindings, header expression, body span.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// Line of the `for` keyword.
    pub line: usize,
    /// Identifiers bound by the loop pattern (`for (i, g) in …` → `i`, `g`).
    pub pat: Vec<String>,
    /// Token index range `[start, end)` of the iterated expression
    /// (everything between `in` and the body `{`).
    pub head: (usize, usize),
    /// Body span.
    pub body: Span,
}

/// One `let` binding with its scope.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// Identifiers bound by the pattern (path constructors like `Some`
    /// included — callers match on known names, so extras are harmless).
    pub names: Vec<String>,
    /// Line of the `let` keyword.
    pub line: usize,
    /// Type-annotation token texts (empty when inferred).
    pub ty: Vec<String>,
    /// Token index range `[start, end)` of the initializer (empty for
    /// `let x;` declarations).
    pub init: (usize, usize),
    /// Line on which the enclosing block closes — the end of the binding's
    /// scope (ignoring shadowing, which only ever *shortens* liveness).
    pub scope_end: usize,
}

/// The parsed file: flat collections the rules index by line/token.
#[derive(Debug, Default)]
pub struct Tree {
    /// Every item declaration, in source order.
    pub items: Vec<Item>,
    /// Every function with a parsed signature, in source order.
    pub fns: Vec<FnInfo>,
    /// Body spans of every `for`/`while`/`loop`, innermost included.
    pub loops: Vec<Span>,
    /// `for` loops with header/pattern detail.
    pub for_loops: Vec<ForLoop>,
    /// Every `let` binding inside a function body.
    pub lets: Vec<LetBinding>,
}

impl Tree {
    /// Whether `line` is inside any loop body.
    pub fn in_loop(&self, line: usize) -> bool {
        self.loops.iter().any(|s| s.contains(line))
    }

    /// The innermost function whose body contains `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.map(|b| b.contains(line)).unwrap_or(false))
            .min_by_key(|f| f.body.map(|b| b.end - b.start).unwrap_or(usize::MAX))
    }
}

/// Parses a lexed token stream into a [`Tree`].  Comments are consulted only
/// for doc-attachment; `doc_lines` must hold the starting line of every doc
/// comment in the file.
pub fn parse(tokens: &[Token], doc_lines: &[usize]) -> Tree {
    let mut p = Parser {
        toks: tokens,
        doc_lines,
        pos: 0,
        cur_restricted: false,
        tree: Tree::default(),
    };
    p.items(tokens.len(), false);
    p.tree
}

struct Parser<'a> {
    toks: &'a [Token],
    doc_lines: &'a [usize],
    pos: usize,
    /// Whether the visibility just parsed was `pub(…)`-restricted; consumed
    /// by `push_item` for the item currently being parsed.
    cur_restricted: bool,
    tree: Tree,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn line(&self, i: usize) -> usize {
        self.toks
            .get(i.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks
            .get(i)
            .map(|t| t.kind == TokenKind::Ident)
            .unwrap_or(false)
    }

    /// Skips one balanced delimiter group starting at `self.pos` (which must
    /// sit on the opener).  Returns the index just past the closer.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        debug_assert_eq!(self.text(self.pos), open);
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            let t = self.text(self.pos);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Skips generics at the cursor if present (`<` … `>` with nesting).
    fn skip_generics(&mut self) {
        if self.text(self.pos) != "<" {
            return;
        }
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                // A body brace or semicolon inside generics means we lost
                // the plot (const-generic braces); bail rather than swallow
                // the file.
                "{" | ";" => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Whether a doc comment is attached directly above the token at
    /// `item_start` (the first attribute/visibility token of the item):
    /// some doc comment line must fall between the previous code token and
    /// the item's first line.
    fn doc_attached(&self, item_start: usize) -> bool {
        let first_line = self.line(item_start);
        let prev_line = if item_start == 0 {
            0
        } else {
            self.line(item_start - 1)
        };
        self.doc_lines
            .iter()
            .any(|&l| l >= prev_line && l < first_line)
    }

    /// Parses items until `end` (exclusive token index).
    fn items(&mut self, end: usize, in_trait_impl: bool) {
        while self.pos < end && self.pos < self.toks.len() {
            let mut item_start = self.pos;
            // Attributes: `#[…]` belongs to the coming item; `#![…]` is the
            // enclosing module's, so it resets the doc-attachment anchor —
            // otherwise a file-top `#![forbid(…)]` would sit between an
            // item and its `///` doc and break attachment.
            while self.text(self.pos) == "#" {
                self.pos += 1;
                let inner = self.text(self.pos) == "!";
                if inner {
                    self.pos += 1;
                }
                if self.text(self.pos) == "[" {
                    self.skip_balanced("[", "]");
                    if inner {
                        item_start = self.pos;
                    }
                } else {
                    break;
                }
            }
            // Visibility.
            let mut is_pub = false;
            self.cur_restricted = false;
            if self.text(self.pos) == "pub" {
                is_pub = true;
                self.pos += 1;
                if self.text(self.pos) == "(" {
                    self.cur_restricted = true;
                    self.skip_balanced("(", ")");
                }
            }
            // Leading modifiers before `fn` / `impl` / `trait`.
            loop {
                match self.text(self.pos) {
                    "const" if self.text(self.pos + 1) == "fn" => self.pos += 1,
                    "async" | "default" => self.pos += 1,
                    "unsafe"
                        if matches!(
                            self.text(self.pos + 1),
                            "fn" | "impl" | "trait" | "extern"
                        ) =>
                    {
                        self.pos += 1
                    }
                    "extern" if self.text(self.pos + 1) != "crate" => {
                        // `extern "C" fn` / `extern fn` modifier or foreign
                        // block; the block case is handled below.
                        if self.toks.get(self.pos + 1).map(|t| t.kind) == Some(TokenKind::Str)
                            && self.text(self.pos + 2) == "fn"
                        {
                            self.pos += 2;
                        } else if self.text(self.pos + 1) == "fn" {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            let kw = self.text(self.pos).to_string();
            let has_doc = self.doc_attached(item_start);
            match kw.as_str() {
                "fn" => self.function(is_pub, has_doc, in_trait_impl),
                "struct" | "enum" | "union" => {
                    let kind = match kw.as_str() {
                        "struct" => ItemKind::Struct,
                        "enum" => ItemKind::Enum,
                        _ => ItemKind::Union,
                    };
                    // `union` is contextual: only an item when followed by a
                    // name (otherwise it is an expression identifier).
                    if kw == "union" && !self.is_ident(self.pos + 1) {
                        self.pos += 1;
                        continue;
                    }
                    let line = self.line(self.pos);
                    self.pos += 1;
                    let name = self.take_name();
                    self.skip_generics();
                    self.skip_to_body_or_semi();
                    self.push_item(kind, name, is_pub, line, has_doc, in_trait_impl);
                }
                "trait" => {
                    let line = self.line(self.pos);
                    self.pos += 1;
                    let name = self.take_name();
                    self.push_item(ItemKind::Trait, name, is_pub, line, has_doc, in_trait_impl);
                    self.skip_generics();
                    // Supertraits / where clause, then the member block.
                    while self.pos < self.toks.len()
                        && self.text(self.pos) != "{"
                        && self.text(self.pos) != ";"
                    {
                        self.pos += 1;
                    }
                    if self.text(self.pos) == "{" {
                        let body_end = self.matching_brace(self.pos);
                        self.pos += 1;
                        self.items(body_end, false);
                        self.pos = body_end + 1;
                    } else {
                        self.pos += 1;
                    }
                }
                "impl" => {
                    let line = self.line(self.pos);
                    self.pos += 1;
                    self.skip_generics();
                    // Scan the header for a `for` at angle-depth 0 — the
                    // trait-impl marker (`for<'a>` HRTBs live inside `<…>`
                    // and are skipped by the depth counter).
                    let mut angle = 0i32;
                    let mut is_trait_impl = false;
                    while self.pos < self.toks.len() {
                        match self.text(self.pos) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "for" if angle <= 0 => is_trait_impl = true,
                            "{" => break,
                            ";" => break,
                            _ => {}
                        }
                        self.pos += 1;
                    }
                    let kind = if is_trait_impl {
                        ItemKind::TraitImpl
                    } else {
                        ItemKind::InherentImpl
                    };
                    self.push_item(kind, String::new(), is_pub, line, has_doc, in_trait_impl);
                    if self.text(self.pos) == "{" {
                        let body_end = self.matching_brace(self.pos);
                        self.pos += 1;
                        self.items(body_end, is_trait_impl);
                        self.pos = body_end + 1;
                    } else {
                        self.pos += 1;
                    }
                }
                "mod" => {
                    let line = self.line(self.pos);
                    self.pos += 1;
                    let name = self.take_name();
                    self.push_item(ItemKind::Mod, name, is_pub, line, has_doc, in_trait_impl);
                    if self.text(self.pos) == "{" {
                        let body_end = self.matching_brace(self.pos);
                        self.pos += 1;
                        self.items(body_end, false);
                        self.pos = body_end + 1;
                    } else {
                        self.pos += 1; // `;`
                    }
                }
                "const" | "static" => {
                    let kind = if kw == "const" {
                        ItemKind::Const
                    } else {
                        ItemKind::Static
                    };
                    let line = self.line(self.pos);
                    self.pos += 1;
                    if self.text(self.pos) == "mut" {
                        self.pos += 1;
                    }
                    let name = self.take_name();
                    self.skip_to_semi_balanced();
                    self.push_item(kind, name, is_pub, line, has_doc, in_trait_impl);
                }
                "type" => {
                    let line = self.line(self.pos);
                    self.pos += 1;
                    let name = self.take_name();
                    self.skip_to_semi_balanced();
                    self.push_item(
                        ItemKind::TypeAlias,
                        name,
                        is_pub,
                        line,
                        has_doc,
                        in_trait_impl,
                    );
                }
                "use" => {
                    let line = self.line(self.pos);
                    self.skip_to_semi_balanced();
                    self.push_item(ItemKind::Use, String::new(), is_pub, line, has_doc, false);
                }
                "extern" => {
                    // `extern crate foo;` or `extern { … }` foreign block.
                    let line = self.line(self.pos);
                    if self.text(self.pos + 1) == "crate" {
                        self.skip_to_semi_balanced();
                        self.push_item(ItemKind::Use, String::new(), is_pub, line, has_doc, false);
                    } else {
                        while self.pos < self.toks.len()
                            && self.text(self.pos) != "{"
                            && self.text(self.pos) != ";"
                        {
                            self.pos += 1;
                        }
                        if self.text(self.pos) == "{" {
                            self.skip_balanced("{", "}");
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                "macro_rules" | "macro" => {
                    let line = self.line(self.pos);
                    self.pos += 1;
                    if self.text(self.pos) == "!" {
                        self.pos += 1;
                    }
                    let name = self.take_name();
                    match self.text(self.pos) {
                        "{" => self.skip_balanced("{", "}"),
                        "(" => {
                            self.skip_balanced("(", ")");
                            if self.text(self.pos) == "{" {
                                self.skip_balanced("{", "}");
                            }
                        }
                        _ => self.pos += 1,
                    }
                    self.push_item(ItemKind::Macro, name, is_pub, line, has_doc, in_trait_impl);
                }
                _ => {
                    // Not an item keyword: stray token at item level
                    // (macro invocation, `;`, …) — advance one token; skip
                    // whole delimiter groups so their contents cannot be
                    // misread as items.
                    match self.text(self.pos) {
                        "{" => self.skip_balanced("{", "}"),
                        "(" => self.skip_balanced("(", ")"),
                        "[" => self.skip_balanced("[", "]"),
                        _ => self.pos += 1,
                    }
                }
            }
        }
        self.pos = self.pos.max(end.min(self.toks.len()));
    }

    /// Index of the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.toks.len() {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    fn take_name(&mut self) -> String {
        if self.is_ident(self.pos) {
            let n = self.text(self.pos).to_string();
            self.pos += 1;
            n
        } else {
            String::new()
        }
    }

    /// Skips forward to just past the item body `{…}` or terminating `;`,
    /// whichever comes first at delimiter depth 0 (tuple-struct parens and
    /// where-clauses are crossed).
    fn skip_to_body_or_semi(&mut self) {
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "{" => {
                    self.skip_balanced("{", "}");
                    return;
                }
                ";" => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Skips to just past the next `;` at delimiter depth 0, crossing
    /// balanced groups (initializer blocks, use-trees, array types).
    fn skip_to_semi_balanced(&mut self) {
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "{" => self.skip_balanced("{", "}"),
                ";" => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_item(
        &mut self,
        kind: ItemKind,
        name: String,
        is_pub: bool,
        line: usize,
        has_doc: bool,
        in_trait_impl: bool,
    ) {
        self.tree.items.push(Item {
            kind,
            name,
            is_pub,
            pub_restricted: self.cur_restricted,
            line,
            has_doc,
            in_trait_impl,
        });
    }

    /// Parses a `fn` item at the cursor (which sits on `fn`).
    fn function(&mut self, is_pub: bool, has_doc: bool, in_trait_impl: bool) {
        let restricted = self.cur_restricted;
        let line = self.line(self.pos);
        self.pos += 1; // fn
        let name = self.take_name();
        self.skip_generics();
        if self.text(self.pos) == "(" {
            self.skip_balanced("(", ")");
        }
        // Return type: tokens between `->` and the body/`;`/`where`.
        let mut ret = Vec::new();
        if self.text(self.pos) == "->" {
            self.pos += 1;
            let mut angle = 0i32;
            while self.pos < self.toks.len() {
                let t = self.text(self.pos);
                match t {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" | ";" => break,
                    "where" if angle <= 0 => break,
                    _ => {}
                }
                ret.push(t.to_string());
                self.pos += 1;
            }
        }
        // Where clause.
        if self.text(self.pos) == "where" {
            while self.pos < self.toks.len()
                && self.text(self.pos) != "{"
                && self.text(self.pos) != ";"
            {
                self.pos += 1;
            }
        }
        let body = if self.text(self.pos) == "{" {
            Some(self.block())
        } else {
            self.pos += 1; // `;` — trait-method declaration
            None
        };
        self.tree.fns.push(FnInfo {
            name: name.clone(),
            line,
            is_pub,
            ret,
            body,
        });
        self.tree.items.push(Item {
            kind: ItemKind::Fn,
            name,
            is_pub,
            pub_restricted: restricted,
            line,
            has_doc,
            in_trait_impl,
        });
    }

    /// Parses a block at the cursor (which sits on `{`), recording loops
    /// and `let` bindings.  Returns the block's line span and leaves the
    /// cursor just past the closing `}`.
    fn block(&mut self) -> Span {
        let start_line = self.line(self.pos);
        self.pos += 1; // {
        let mut my_lets: Vec<usize> = Vec::new();
        loop {
            if self.pos >= self.toks.len() {
                break;
            }
            match self.text(self.pos) {
                "}" => break,
                "{" => {
                    self.block();
                }
                "let" => {
                    let idx = self.let_binding();
                    my_lets.push(idx);
                }
                "if" => {
                    // `if` / `if let` / `else if`: skip the condition to the
                    // branch `{` at depth 0 so a condition's `let` is never
                    // misread as a statement binding (the `{` arm recurses
                    // into the branch body).
                    self.pos += 1;
                    self.skip_loop_header();
                }
                "for" => {
                    self.for_loop();
                }
                "while" => {
                    self.pos += 1;
                    self.skip_loop_header();
                    if self.text(self.pos) == "{" {
                        let span = self.block();
                        self.tree.loops.push(span);
                    }
                }
                "loop" => {
                    self.pos += 1;
                    if self.text(self.pos) == "{" {
                        let span = self.block();
                        self.tree.loops.push(span);
                    }
                }
                "fn" => {
                    // Nested function: its body is parsed recursively so
                    // bindings/loops inside are still recorded.
                    self.cur_restricted = false;
                    self.function(false, false, false);
                }
                "(" => self.scan_group("(", ")"),
                "[" => self.scan_group("[", "]"),
                _ => self.pos += 1,
            }
        }
        let end_line = self.line(self.pos);
        self.pos += 1; // }
        for idx in my_lets {
            self.tree.lets[idx].scope_end = end_line;
        }
        Span {
            start: start_line,
            end: end_line,
        }
    }

    /// Walks a parenthesized/bracketed group, still recording any loops
    /// inside (closure bodies passed to `pool::run`/`par_row_bands` hold the
    /// kernels' hot loops).  `let` bindings inside closures are NOT recorded
    /// — their scope is the closure, which this parser does not model.
    fn scan_group(&mut self, open: &str, close: &str) {
        debug_assert_eq!(self.text(self.pos), open);
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                t if t == open => {
                    depth += 1;
                    self.pos += 1;
                }
                t if t == close => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return;
                    }
                }
                "for" => self.for_loop(),
                "while" => {
                    self.pos += 1;
                    self.skip_loop_header();
                    if self.text(self.pos) == "{" {
                        let span = self.block();
                        self.tree.loops.push(span);
                    }
                }
                "loop" => {
                    self.pos += 1;
                    if self.text(self.pos) == "{" {
                        let span = self.block();
                        self.tree.loops.push(span);
                    }
                }
                "if" => {
                    self.pos += 1;
                    self.skip_loop_header();
                }
                "{" => {
                    self.block();
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Parses a `let` statement at the cursor (on `let`); returns the index
    /// of the recorded binding (scope_end patched by the enclosing block).
    fn let_binding(&mut self) -> usize {
        let line = self.line(self.pos);
        self.pos += 1; // let
                       // Pattern: idents until `:`/`=`/`;` at depth 0.
        let mut names = Vec::new();
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            let t = self.text(self.pos);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ":" | "=" | ";" if depth <= 0 => break,
                _ => {
                    if self.is_ident(self.pos) && !matches!(t, "mut" | "ref" | "box") {
                        names.push(t.to_string());
                    }
                }
            }
            self.pos += 1;
        }
        // Type annotation.
        let mut ty = Vec::new();
        if self.text(self.pos) == ":" {
            self.pos += 1;
            let mut angle = 0i32;
            let mut depth = 0i32;
            while self.pos < self.toks.len() {
                let t = self.text(self.pos);
                match t {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" | ";" if angle <= 0 && depth <= 0 => break,
                    _ => {}
                }
                ty.push(t.to_string());
                self.pos += 1;
            }
        }
        // Initializer: from past `=` to the `;` at depth 0 (balanced
        // delimiters crossed; nested blocks NOT descended — see module
        // docs).
        let mut init = (self.pos, self.pos);
        if self.text(self.pos) == "=" {
            self.pos += 1;
            let start = self.pos;
            while self.pos < self.toks.len() {
                match self.text(self.pos) {
                    "(" => self.skip_balanced("(", ")"),
                    "[" => self.skip_balanced("[", "]"),
                    "{" => self.skip_balanced("{", "}"),
                    ";" => break,
                    _ => self.pos += 1,
                }
            }
            init = (start, self.pos);
        }
        if self.text(self.pos) == ";" {
            self.pos += 1;
        }
        self.tree.lets.push(LetBinding {
            names,
            line,
            ty,
            init,
            scope_end: line, // patched when the block closes
        });
        self.tree.lets.len() - 1
    }

    /// Parses a `for` loop at the cursor (on `for`).
    fn for_loop(&mut self) {
        let line = self.line(self.pos);
        self.pos += 1; // for
                       // Pattern idents until `in` at depth 0.
        let mut pat = Vec::new();
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            let t = self.text(self.pos);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "in" if depth <= 0 => break,
                // Safety net for `for<'a>` HRTBs in type position: never
                // scan past a statement/body boundary looking for `in`.
                "{" | ";" if depth <= 0 => break,
                _ => {
                    if self.is_ident(self.pos) && !matches!(t, "mut" | "ref") {
                        pat.push(t.to_string());
                    }
                }
            }
            self.pos += 1;
        }
        if self.text(self.pos) == "in" {
            self.pos += 1;
        }
        // Header expression: to the body `{` at delimiter depth 0 (Rust
        // forbids bare struct literals in loop headers, so the first
        // depth-0 `{` IS the body; closure blocks sit inside call parens).
        let head_start = self.pos;
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "{" | ";" => break,
                _ => self.pos += 1,
            }
        }
        let head = (head_start, self.pos);
        if self.text(self.pos) == "{" {
            let body = self.block();
            self.tree.loops.push(body);
            self.tree.for_loops.push(ForLoop {
                line,
                pat,
                head,
                body,
            });
        }
    }

    /// Skips a `while`/`while let` header to the body `{` at depth 0.
    fn skip_loop_header(&mut self) {
        while self.pos < self.toks.len() {
            match self.text(self.pos) {
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "{" | ";" => return,
                _ => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> Tree {
        let lexed = lex(src);
        let doc_lines: Vec<usize> = lexed
            .comments
            .iter()
            .filter(|c| c.doc)
            .map(|c| c.line)
            .collect();
        parse(&lexed.tokens, &doc_lines)
    }

    #[test]
    fn fn_signature_and_result_return() {
        let t = tree("pub fn load(p: &str) -> StoreResult<u32> { Ok(1) }\nfn plain() {}\n");
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].name, "load");
        assert!(t.fns[0].is_pub);
        assert!(t.fns[0].returns_result());
        assert!(!t.fns[1].returns_result());
        assert_eq!(t.fns[0].body.unwrap().start, 1);
    }

    #[test]
    fn generic_fn_with_where_clause_parses() {
        let t = tree(
            "fn f<T: Clone, E>(x: Vec<T>) -> Result<T, E>\nwhere\n    E: std::fmt::Debug,\n{\n    loop {}\n}\n",
        );
        assert_eq!(t.fns.len(), 1);
        assert!(t.fns[0].returns_result());
        assert_eq!(t.fns[0].body.unwrap(), Span { start: 4, end: 6 });
        assert_eq!(t.loops.len(), 1);
    }

    #[test]
    fn loops_nest_and_span_lines() {
        let t = tree("fn f() {\n  for i in 0..3 {\n    while i > 0 {\n      loop { break; }\n    }\n  }\n}\n");
        assert_eq!(t.loops.len(), 3);
        assert!(t.in_loop(4));
        assert!(!t.in_loop(1));
        assert_eq!(t.for_loops.len(), 1);
        assert_eq!(t.for_loops[0].pat, vec!["i".to_string()]);
    }

    #[test]
    fn let_bindings_record_scope_and_types() {
        let t = tree(
            "fn f() {\n  let mut m: HashMap<u64, f64> = HashMap::new();\n  {\n    let g = rel.lock();\n  }\n  let x = 1;\n}\n",
        );
        assert_eq!(t.lets.len(), 3);
        let m = &t.lets[0];
        assert_eq!(m.names, vec!["m".to_string()]);
        assert!(m.ty.iter().any(|s| s == "HashMap"));
        assert_eq!(m.scope_end, 7, "outer block closes on line 7");
        let g = &t.lets[1];
        assert_eq!(g.names, vec!["g".to_string()]);
        assert_eq!(g.scope_end, 5, "inner block closes on line 5");
    }

    #[test]
    fn trait_impl_members_are_marked() {
        let t = tree(
            "pub trait T { fn m(&self); }\nimpl T for S {\n    fn m(&self) {}\n}\nimpl S {\n    pub fn own(&self) {}\n}\n",
        );
        let fns: Vec<&Item> = t.items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].in_trait_impl, "trait decl member");
        assert!(fns[1].in_trait_impl, "trait impl member");
        assert!(!fns[2].in_trait_impl, "inherent impl member");
        let impls: Vec<&Item> = t
            .items
            .iter()
            .filter(|i| matches!(i.kind, ItemKind::TraitImpl | ItemKind::InherentImpl))
            .collect();
        assert_eq!(impls[0].kind, ItemKind::TraitImpl);
        assert_eq!(impls[1].kind, ItemKind::InherentImpl);
    }

    #[test]
    fn impl_generics_with_hrtb_for_is_not_a_trait_impl() {
        let t = tree("impl<F: for<'a> Fn(&'a u8)> S<F> {\n    fn call(&self) {}\n}\n");
        let imp = t
            .items
            .iter()
            .find(|i| matches!(i.kind, ItemKind::InherentImpl | ItemKind::TraitImpl))
            .unwrap();
        assert_eq!(
            imp.kind,
            ItemKind::InherentImpl,
            "`for<'a>` inside generics must not mark a trait impl"
        );
    }

    #[test]
    fn doc_attachment_is_per_item() {
        let t = tree(
            "/// Documented.\npub struct A;\n\npub struct B;\n\n/// Doc with attr between.\n#[derive(Debug)]\npub struct C;\n",
        );
        let docs: Vec<(String, bool)> = t
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Struct)
            .map(|i| (i.name.clone(), i.has_doc))
            .collect();
        assert_eq!(
            docs,
            vec![
                ("A".to_string(), true),
                ("B".to_string(), false),
                ("C".to_string(), true)
            ]
        );
    }

    #[test]
    fn closures_in_for_headers_do_not_eat_the_body() {
        let t = tree("fn f(v: Vec<u8>) {\n  for x in v.iter().map(|b| { *b as u32 }) {\n    work(x);\n  }\n}\n");
        assert_eq!(t.for_loops.len(), 1);
        assert_eq!(t.for_loops[0].body, Span { start: 2, end: 4 });
    }

    #[test]
    fn closure_blocks_in_statement_position_are_descended() {
        let t =
            tree("fn f() {\n  let c = |x: u32| x + 1;\n  run(|| {\n    let inner = 2;\n  });\n}\n");
        // `inner` is inside a closure inside call parens — by the documented
        // non-goal it is invisible; `c` is recorded.
        assert!(t.lets.iter().any(|l| l.names.contains(&"c".to_string())));
    }

    #[test]
    fn enums_consts_statics_types_macros_parse() {
        let t = tree(
            "pub enum E { A, B }\nconst N: usize = { 3 };\npub static S: u8 = 0;\ntype Alias = Vec<u8>;\nmacro_rules! m { () => {} }\nuse std::fmt;\n",
        );
        let kinds: Vec<ItemKind> = t.items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Enum,
                ItemKind::Const,
                ItemKind::Static,
                ItemKind::TypeAlias,
                ItemKind::Macro,
                ItemKind::Use
            ]
        );
        assert_eq!(t.items[1].name, "N");
    }

    #[test]
    fn tuple_struct_and_unit_struct_parse() {
        let t = tree("pub struct P(pub u32, f64);\nstruct U;\nstruct W { x: u8 }\n");
        let names: Vec<String> = t.items.iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["P", "U", "W"]);
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let t = tree("fn outer() {\n  fn inner() -> Result<(), ()> {\n    Err(())\n  }\n}\n");
        assert_eq!(t.enclosing_fn(3).unwrap().name, "inner");
        // Line 5 closes outer's body; inner's span ended on line 4.
        assert_eq!(t.enclosing_fn(5).unwrap().name, "outer");
    }

    #[test]
    fn restricted_visibility_is_recorded() {
        let t = tree(
            "pub(crate) fn helper() {}
pub fn api() {}
fn private() {}
",
        );
        assert!(t.items[0].is_pub && t.items[0].pub_restricted);
        assert!(t.items[1].is_pub && !t.items[1].pub_restricted);
        assert!(!t.items[2].is_pub);
    }

    #[test]
    fn raw_identifier_items_parse() {
        let t = tree("pub struct S { r#type: u32 }\nfn r#match() {}\n");
        assert_eq!(t.items[0].name, "S");
        assert!(t.fns.iter().any(|f| f.name == "r#match"));
    }
}
