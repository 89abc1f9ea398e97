//! Expression-level analysis over the lexer's token stream.
//!
//! v10-lint v1 matched flat token patterns; the semantic rule families
//! (U1 unit-safety, F1 float-determinism, O1 observer-purity, E1
//! event-exhaustiveness) need *structure*: which `pub fn` has which typed
//! parameters under which doc comment, where an `impl Trait for Type`
//! body starts and ends, what a comparator closure's body expression
//! compares. This module supplies exactly that structure with two
//! dependency-free layers:
//!
//! * an **item scanner** ([`ParsedFile::parse`]) that walks the token
//!   stream once, brace-matching item bodies and attaching `///` doc
//!   comments, producing public functions/constants/struct fields (with
//!   type text), `impl` regions (with trait and type names), `enum`
//!   variant tables, and a per-file `let`-binding symbol table;
//! * a tolerant **Pratt expression parser** ([`ExprParser`]) used on
//!   demand over small spans (comparator closure bodies, reduction
//!   chains). It never panics and never gets stuck: any construct it does
//!   not model becomes an [`Expr::Opaque`] leaf that consumed at least
//!   one token.
//!
//! The parser is a *view* over the lexer's stream — it neither re-lexes
//! nor drops tokens, so [`ParsedFile::tokens`] is byte-for-byte the v1
//! lexer output. The differential test in `tests/parser_differential.rs`
//! holds that invariant over every workspace file.

use crate::lexer::{lex, TokKind, Token};

/// One function parameter with its declared type text.
#[derive(Debug, Clone)]
pub struct Param {
    /// Pattern name (first identifier of the pattern; `_` patterns keep
    /// the underscore).
    pub name: String,
    /// Declared type, as concatenated token text (`f64`, `&[u64]`,
    /// `Option<Cycles>`, ...).
    pub ty: String,
    /// 1-based line of the parameter's type.
    pub line: u32,
    /// 1-based column of the parameter's type.
    pub col: u32,
}

/// A function item (free or associated).
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// Whether the function is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Whether that visibility is restricted (`pub(crate)`, `pub(super)`,
    /// `pub(in ..)`): the item is not part of the crate's public surface.
    pub restricted: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Attached `///` doc text (concatenated lines).
    pub doc: String,
    /// Parameters, `self` receivers excluded.
    pub params: Vec<Param>,
}

/// A `pub const` item.
#[derive(Debug, Clone)]
pub struct ConstDecl {
    /// Constant name.
    pub name: String,
    /// Whether the `pub` is restricted (`pub(crate)` and the like).
    pub restricted: bool,
    /// Declared type text.
    pub ty: String,
    /// 1-based line of the constant's name.
    pub line: u32,
    /// 1-based column of the constant's name.
    pub col: u32,
    /// Attached `///` doc text.
    pub doc: String,
}

/// A `pub` field of a `pub struct`.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Owning struct name.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Declared type text.
    pub ty: String,
    /// 1-based line of the field's name.
    pub line: u32,
    /// 1-based column of the field's name.
    pub col: u32,
    /// Attached `///` doc text.
    pub doc: String,
}

/// An `impl` block with its body's token span.
#[derive(Debug, Clone)]
pub struct ImplRegion {
    /// Trait being implemented (`impl Trait for Type`), if any; the last
    /// path segment before `for` (generic arguments stripped).
    pub trait_name: Option<String>,
    /// The implementing type's last path segment.
    pub type_name: String,
    /// Token index (into [`ParsedFile::tokens`]) of the opening `{`.
    pub body_start: usize,
    /// Token index of the matching closing `}`.
    pub body_end: usize,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// A `pub enum` with its variant table.
#[derive(Debug, Clone)]
pub struct EnumDecl {
    /// Enum name.
    pub name: String,
    /// 1-based line of the enum's name.
    pub line: u32,
    /// `(variant, line, col)` in declaration order.
    pub variants: Vec<(String, u32, u32)>,
}

/// A `let` binding in the per-file symbol table.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// Bound name (simple identifier patterns only).
    pub name: String,
    /// Type ascription text, if any (`f64`, `HashMap<K,V>`, ...).
    pub ty: Option<String>,
    /// First identifier of the initializer expression (`HashMap` for
    /// `HashMap::new()`), if the initializer starts with one.
    pub init_root: Option<String>,
    /// Whether the initializer's first token is a float literal.
    pub init_float: bool,
    /// 1-based line of the binding.
    pub line: u32,
}

/// The item-level facts of one file, plus the verbatim token stream.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// The v1 lexer's token stream, unchanged.
    pub tokens: Vec<Token>,
    /// Every `fn` item (the `is_pub` flag separates U1's public surface).
    pub fns: Vec<FnDecl>,
    /// `pub const` items.
    pub consts: Vec<ConstDecl>,
    /// `pub` fields of `pub struct`s.
    pub fields: Vec<FieldDecl>,
    /// `impl` regions with body spans.
    pub impls: Vec<ImplRegion>,
    /// `pub enum`s with variant tables.
    pub enums: Vec<EnumDecl>,
    /// `let` bindings (the symbol table for F1's float analysis).
    pub lets: Vec<LetBinding>,
}

impl ParsedFile {
    /// Parses `src`. Never fails: unmodeled constructs are skipped, and
    /// the token stream is retained verbatim.
    #[must_use]
    pub fn parse(src: &str) -> ParsedFile {
        let tokens = lex(src);
        let mut out = ParsedFile {
            tokens,
            ..ParsedFile::default()
        };
        let items = scan_items(&out.tokens, src);
        out.fns = items.fns;
        out.consts = items.consts;
        out.fields = items.fields;
        out.impls = items.impls;
        out.enums = items.enums;
        out.lets = items.lets;
        out
    }

    /// Indices (into `tokens`) of the non-comment tokens.
    #[must_use]
    pub fn code_indices(&self) -> Vec<usize> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Is the literal token at `t` a float literal? The lexer collapses
/// literal text, so classification slices the source via byte spans:
/// a numeric literal containing `.`, `e`/`E` exponent, or an `f32`/`f64`
/// suffix is a float.
#[must_use]
pub fn is_float_literal(src: &str, t: &Token) -> bool {
    if t.kind != TokKind::Literal {
        return false;
    }
    let Some(span) = src.get(t.offset..t.offset + t.len) else {
        return false;
    };
    let bytes = span.as_bytes();
    if bytes.first().is_none_or(|b| !b.is_ascii_digit()) {
        return false;
    }
    // Hex/octal/binary literals contain `e` but are integers.
    if span.starts_with("0x") || span.starts_with("0o") || span.starts_with("0b") {
        return false;
    }
    span.contains('.')
        || span.contains('e')
        || span.contains('E')
        || span.contains("f32")
        || span.contains("f64")
}

// ---------------------------------------------------------------------------
// Item scanner
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Items {
    fns: Vec<FnDecl>,
    consts: Vec<ConstDecl>,
    fields: Vec<FieldDecl>,
    impls: Vec<ImplRegion>,
    enums: Vec<EnumDecl>,
    lets: Vec<LetBinding>,
}

struct ItemScanner<'a> {
    /// Code tokens only (comments filtered), as `(token_index, &Token)`.
    code: Vec<(usize, &'a Token)>,
    /// Doc text attached to the code token at `doc[i]` (same indexing as
    /// `code`); empty when no `///` comment precedes it.
    doc: Vec<String>,
}

fn scan_items(tokens: &[Token], src: &str) -> Items {
    let mut out = Items::default();
    let scanner = build_scanner(tokens);
    let code = &scanner.code;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i].1;
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "pub" | "fn" | "const" | "struct" | "enum" => {
                let (is_pub, kw_i) = visibility_at(code, i);
                let restricted = is_pub && kw_i != i + 1;
                let Some((_, kw)) = code.get(kw_i) else {
                    i += 1;
                    continue;
                };
                let const_fn =
                    kw.text == "const" && code.get(kw_i + 1).is_some_and(|(_, t)| t.text == "fn");
                match kw.text.as_str() {
                    "fn" => {
                        let next = scan_fn(&mut out, &scanner, kw_i, i, is_pub, restricted);
                        i = next.max(i + 1);
                        continue;
                    }
                    "const" if const_fn => {
                        let next = scan_fn(&mut out, &scanner, kw_i + 1, i, is_pub, restricted);
                        i = next.max(i + 1);
                        continue;
                    }
                    "const" if is_pub => {
                        let next = scan_const(&mut out, &scanner, kw_i, i, restricted);
                        i = next.max(i + 1);
                        continue;
                    }
                    "struct" if is_pub => {
                        let next = scan_struct(&mut out, &scanner, kw_i, i);
                        i = next.max(i + 1);
                        continue;
                    }
                    "enum" if is_pub => {
                        let next = scan_enum(&mut out, &scanner, kw_i, i);
                        i = next.max(i + 1);
                        continue;
                    }
                    _ => {
                        i = kw_i.max(i + 1);
                        continue;
                    }
                }
            }
            "impl" => {
                let next = scan_impl(&mut out, &scanner, i);
                i = next.max(i + 1);
                continue;
            }
            "let" => {
                let next = scan_let(&mut out, &scanner, i, src);
                i = next.max(i + 1);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn build_scanner(tokens: &[Token]) -> ItemScanner<'_> {
    let mut code: Vec<(usize, &Token)> = Vec::new();
    let mut doc: Vec<String> = Vec::new();
    let mut pending = String::new();
    let mut k = 0usize;
    while k < tokens.len() {
        let t = &tokens[k];
        match t.kind {
            TokKind::LineComment if t.text.starts_with("///") => {
                pending.push_str(t.text.trim_start_matches('/').trim());
                pending.push('\n');
            }
            TokKind::LineComment | TokKind::BlockComment => {}
            // Attributes between a doc comment and its item keep the doc
            // pending: `/// doc` + `#[must_use]` + `pub fn` still attaches.
            TokKind::Punct if t.text == "#" => {
                code.push((k, t));
                doc.push(String::new());
                // Consume the bracketed attribute without clearing `pending`.
                let mut depth = 0usize;
                k += 1;
                while k < tokens.len() {
                    let a = &tokens[k];
                    if matches!(a.kind, TokKind::LineComment | TokKind::BlockComment) {
                        k += 1;
                        continue;
                    }
                    code.push((k, a));
                    doc.push(String::new());
                    if a.kind == TokKind::Punct && a.text == "[" {
                        depth += 1;
                    } else if a.kind == TokKind::Punct && a.text == "]" {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
            }
            _ => {
                code.push((k, t));
                doc.push(std::mem::take(&mut pending));
            }
        }
        k += 1;
    }
    ItemScanner { code, doc }
}

/// At code index `i` pointing at `pub` or directly at an item keyword:
/// returns `(is_pub, index_of_item_keyword)`, skipping `pub(crate)`-style
/// restrictions.
fn visibility_at(code: &[(usize, &Token)], i: usize) -> (bool, usize) {
    if code[i].1.text != "pub" {
        return (false, i);
    }
    let mut j = i + 1;
    if code.get(j).is_some_and(|(_, t)| t.text == "(") {
        let mut depth = 0usize;
        while let Some((_, t)) = code.get(j) {
            if t.text == "(" {
                depth += 1;
            } else if t.text == ")" {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    (true, j)
}

/// Advances past a balanced `<...>` generic list starting at `i` (which
/// must point at `<`); returns the index after the closing `>`.
fn skip_generics(code: &[(usize, &Token)], mut i: usize) -> usize {
    let mut depth = 0usize;
    while let Some((_, t)) = code.get(i) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            // `->` inside generic defaults cannot appear; `;`/`{` mean we
            // mis-parsed — bail out rather than run away.
            ";" | "{" => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds the matching close for the opener at code index `open` (`(`/`)`,
/// `[`/`]`, `{`/`}`). Returns the close's code index, or the last index.
fn matching(code: &[(usize, &Token)], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while let Some((_, t)) = code.get(i) {
        if t.kind == TokKind::Punct {
            if t.text == op {
                depth += 1;
            } else if t.text == cl {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

fn scan_fn(
    out: &mut Items,
    sc: &ItemScanner,
    kw_i: usize,
    doc_i: usize,
    is_pub: bool,
    restricted: bool,
) -> usize {
    let code = &sc.code;
    let Some((_, name_tok)) = code.get(kw_i + 1) else {
        return kw_i + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return kw_i + 1;
    }
    let mut j = kw_i + 2;
    if code.get(j).is_some_and(|(_, t)| t.text == "<") {
        j = skip_generics(code, j);
    }
    if code.get(j).is_none_or(|(_, t)| t.text != "(") {
        return j;
    }
    let close = matching(code, j, "(", ")");
    let mut params = Vec::new();
    // Split the parameter list at top-level commas.
    let mut seg_start = j + 1;
    let mut depth = 0usize;
    let mut k = j + 1;
    while k <= close {
        let t = code[k].1;
        let boundary = k == close || (depth == 0 && t.kind == TokKind::Punct && t.text == ",");
        if !boundary {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" | "{" => depth += 1,
                    ")" | "]" | ">" | "}" => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            k += 1;
            continue;
        }
        if let Some(p) = parse_param(code, seg_start, k) {
            params.push(p);
        }
        seg_start = k + 1;
        k += 1;
    }
    let doc = sc.doc.get(doc_i).cloned().unwrap_or_default();
    let kw = code[kw_i].1;
    out.fns.push(FnDecl {
        name: name_tok.text.clone(),
        is_pub,
        restricted,
        line: kw.line,
        col: kw.col,
        doc,
        params,
    });
    close + 1
}

/// Parses one parameter segment `pat: ty` between code indices
/// `[start, end)`; `self` receivers and empty segments yield `None`.
fn parse_param(code: &[(usize, &Token)], start: usize, end: usize) -> Option<Param> {
    if start >= end {
        return None;
    }
    // Find the top-level `:` separating pattern from type.
    let mut depth = 0usize;
    let mut colon = None;
    for k in start..end {
        let t = code[k].1;
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "<" | "{" => depth += 1,
            ")" | "]" | ">" | "}" => depth = depth.saturating_sub(1),
            ":" if depth == 0 => {
                // `::` is two adjacent colon puncts — not a separator.
                let adjacent_next = code
                    .get(k + 1)
                    .is_some_and(|(_, n)| n.text == ":" && n.offset == t.offset + t.len);
                let adjacent_prev = k > start && {
                    let p = code[k - 1].1;
                    p.text == ":" && t.offset == p.offset + p.len
                };
                if !adjacent_next && !adjacent_prev {
                    colon = Some(k);
                    break;
                }
            }
            _ => {}
        }
    }
    let colon = colon?;
    let name = (start..colon)
        .map(|k| code[k].1)
        .find(|t| t.kind == TokKind::Ident || (t.kind == TokKind::Punct && t.text == "_"))?
        .text
        .clone();
    if name == "self" {
        return None;
    }
    let ty_tok = code.get(colon + 1)?.1;
    let ty: String = (colon + 1..end).map(|k| code[k].1.text.as_str()).collect();
    if ty.is_empty() {
        return None;
    }
    Some(Param {
        name,
        ty,
        line: ty_tok.line,
        col: ty_tok.col,
    })
}

fn scan_const(
    out: &mut Items,
    sc: &ItemScanner,
    kw_i: usize,
    doc_i: usize,
    restricted: bool,
) -> usize {
    let code = &sc.code;
    let Some((_, name_tok)) = code.get(kw_i + 1) else {
        return kw_i + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return kw_i + 1;
    }
    if code.get(kw_i + 2).is_none_or(|(_, t)| t.text != ":") {
        return kw_i + 2;
    }
    let mut ty = String::new();
    let mut k = kw_i + 3;
    let mut depth = 0usize;
    while let Some((_, t)) = code.get(k) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" | "<" | "(" => depth += 1,
                "]" | ">" | ")" => depth = depth.saturating_sub(1),
                "=" | ";" if depth == 0 => break,
                _ => {}
            }
        }
        ty.push_str(&t.text);
        k += 1;
    }
    let doc = sc.doc.get(doc_i).cloned().unwrap_or_default();
    out.consts.push(ConstDecl {
        name: name_tok.text.clone(),
        restricted,
        ty,
        line: name_tok.line,
        col: name_tok.col,
        doc,
    });
    k
}

fn scan_struct(out: &mut Items, sc: &ItemScanner, kw_i: usize, _doc_i: usize) -> usize {
    let code = &sc.code;
    let Some((_, name_tok)) = code.get(kw_i + 1) else {
        return kw_i + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return kw_i + 1;
    }
    let owner = name_tok.text.clone();
    let mut j = kw_i + 2;
    if code.get(j).is_some_and(|(_, t)| t.text == "<") {
        j = skip_generics(code, j);
    }
    // Tuple structs / unit structs have no named public fields to check.
    if code.get(j).is_none_or(|(_, t)| t.text != "{") {
        return j;
    }
    let close = matching(code, j, "{", "}");
    let mut k = j + 1;
    while k < close {
        let t = code[k].1;
        // A field at body depth: `pub name : ty ,`. Skip attributes.
        if t.kind == TokKind::Punct && t.text == "#" {
            if code.get(k + 1).is_some_and(|(_, n)| n.text == "[") {
                k = matching(code, k + 1, "[", "]") + 1;
                continue;
            }
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "pub" {
            let (is_pub, name_i) = visibility_at(code, k);
            let field_tok = code.get(name_i).map(|&(_, t)| t);
            let has_colon = code.get(name_i + 1).is_some_and(|(_, c)| c.text == ":");
            if let (true, Some(ft), true) = (is_pub, field_tok, has_colon) {
                if ft.kind == TokKind::Ident {
                    let mut ty = String::new();
                    let mut m = name_i + 2;
                    let mut depth = 0usize;
                    while m < close {
                        let tt = code[m].1;
                        if tt.kind == TokKind::Punct {
                            match tt.text.as_str() {
                                "[" | "<" | "(" => depth += 1,
                                "]" | ">" | ")" => depth = depth.saturating_sub(1),
                                "," if depth == 0 => break,
                                _ => {}
                            }
                        }
                        ty.push_str(&tt.text);
                        m += 1;
                    }
                    out.fields.push(FieldDecl {
                        owner: owner.clone(),
                        name: ft.text.clone(),
                        ty,
                        line: ft.line,
                        col: ft.col,
                        doc: sc.doc.get(k).cloned().unwrap_or_default(),
                    });
                    k = m + 1;
                    continue;
                }
            }
        }
        // Skip nested groups so inner `pub` (e.g. in default expressions)
        // is not mistaken for a field.
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{") {
            let cl = match t.text.as_str() {
                "(" => ")",
                "[" => "]",
                _ => "}",
            };
            k = matching(code, k, &t.text.clone(), cl) + 1;
            continue;
        }
        k += 1;
    }
    close + 1
}

fn scan_enum(out: &mut Items, sc: &ItemScanner, kw_i: usize, _doc_i: usize) -> usize {
    let code = &sc.code;
    let Some((_, name_tok)) = code.get(kw_i + 1) else {
        return kw_i + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return kw_i + 1;
    }
    let mut j = kw_i + 2;
    if code.get(j).is_some_and(|(_, t)| t.text == "<") {
        j = skip_generics(code, j);
    }
    if code.get(j).is_none_or(|(_, t)| t.text != "{") {
        return j;
    }
    let close = matching(code, j, "{", "}");
    let mut variants = Vec::new();
    let mut k = j + 1;
    let mut expect_variant = true;
    while k < close {
        let t = code[k].1;
        if t.kind == TokKind::Punct && t.text == "#" {
            if code.get(k + 1).is_some_and(|(_, n)| n.text == "[") {
                k = matching(code, k + 1, "[", "]") + 1;
                continue;
            }
            k += 1;
            continue;
        }
        if expect_variant && t.kind == TokKind::Ident {
            variants.push((t.text.clone(), t.line, t.col));
            expect_variant = false;
            k += 1;
            continue;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "," => expect_variant = true,
                "{" => {
                    k = matching(code, k, "{", "}") + 1;
                    continue;
                }
                "(" => {
                    k = matching(code, k, "(", ")") + 1;
                    continue;
                }
                _ => {}
            }
        }
        k += 1;
    }
    out.enums.push(EnumDecl {
        name: name_tok.text.clone(),
        line: name_tok.line,
        variants,
    });
    close + 1
}

fn scan_impl(out: &mut Items, sc: &ItemScanner, kw_i: usize) -> usize {
    let code = &sc.code;
    let impl_tok = code[kw_i].1;
    let mut j = kw_i + 1;
    if code.get(j).is_some_and(|(_, t)| t.text == "<") {
        j = skip_generics(code, j);
    }
    // Collect path segments until `for` / `{` / `where`, tracking the last
    // identifier before each boundary.
    let mut last_ident: Option<String> = None;
    let mut trait_name: Option<String> = None;
    let mut depth = 0usize;
    while let Some((_, t)) = code.get(j) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => {
                j = skip_generics(code, j);
                continue;
            }
            (TokKind::Ident, "for") if depth == 0 => {
                trait_name = last_ident.take();
            }
            (TokKind::Ident, "where") if depth == 0 => {
                // Type name is fixed by now; scan on to the body.
                while let Some((_, w)) = code.get(j) {
                    if w.kind == TokKind::Punct && w.text == "{" {
                        break;
                    }
                    j += 1;
                }
                break;
            }
            (TokKind::Punct, "{") if depth == 0 => break,
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => depth = depth.saturating_sub(1),
            (TokKind::Ident, name) => last_ident = Some(name.to_string()),
            (TokKind::Punct, ";") => return j + 1,
            _ => {}
        }
        j += 1;
    }
    let Some(&(open_tok_idx, _)) = code.get(j) else {
        return j;
    };
    let close = matching(code, j, "{", "}");
    let close_tok_idx = code.get(close).map_or(open_tok_idx, |&(ti, _)| ti);
    out.impls.push(ImplRegion {
        trait_name,
        type_name: last_ident.unwrap_or_default(),
        body_start: open_tok_idx,
        body_end: close_tok_idx,
        line: impl_tok.line,
    });
    // Keep scanning *inside* the impl body for nested items (methods, lets).
    j + 1
}

fn scan_let(out: &mut Items, sc: &ItemScanner, kw_i: usize, src: &str) -> usize {
    let code = &sc.code;
    let mut j = kw_i + 1;
    if code.get(j).is_some_and(|(_, t)| t.text == "mut") {
        j += 1;
    }
    let Some((_, name_tok)) = code.get(j) else {
        return j;
    };
    if name_tok.kind != TokKind::Ident {
        return j; // destructuring patterns are not in the symbol table
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    j += 1;
    let mut ty = None;
    if code.get(j).is_some_and(|(_, t)| t.text == ":") {
        let mut text = String::new();
        let mut depth = 0usize;
        j += 1;
        while let Some((_, t)) = code.get(j) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "[" | "<" | "(" => depth += 1,
                    "]" | ">" | ")" => depth = depth.saturating_sub(1),
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
            }
            text.push_str(&t.text);
            j += 1;
        }
        if !text.is_empty() {
            ty = Some(text);
        }
    }
    let mut init_root = None;
    let mut init_float = false;
    if code.get(j).is_some_and(|(_, t)| t.text == "=") {
        if let Some((_, first)) = code.get(j + 1) {
            if first.kind == TokKind::Ident {
                init_root = Some(first.text.clone());
            }
            init_float = is_float_literal(src, first);
        }
    }
    out.lets.push(LetBinding {
        name,
        ty,
        init_root,
        init_float,
        line,
    });
    j
}

// ---------------------------------------------------------------------------
// Pratt expression parser
// ---------------------------------------------------------------------------

/// A parsed expression. Only the shapes the rules inspect are modeled;
/// everything else is [`Expr::Opaque`].
#[derive(Debug, Clone)]
pub enum Expr {
    /// An identifier or path (`x`, `f64::MAX` keeps the segments).
    Path(Vec<String>),
    /// A literal; `is_float` is classified from the source span.
    Literal {
        /// Whether the literal is a float.
        is_float: bool,
    },
    /// A binary operation with its operator text and source position.
    Binary {
        /// Operator text (`<`, `<=`, `+`, `&&`, ...).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
        /// 1-based column of the operator.
        col: u32,
    },
    /// A prefix operation (`-x`, `!x`, `&x`, `*x`); the operand is kept.
    Unary(Box<Expr>),
    /// A method call `recv.name::<turbofish>(args)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Turbofish type arguments as concatenated text (empty if none).
        turbofish: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: u32,
        /// 1-based column of the method name.
        col: u32,
    },
    /// A call `callee(args)`.
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// A field access `recv.name` (tuple indices keep their digits).
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
    },
    /// An index `recv[..]` (the index expression is not retained).
    Index(Box<Expr>),
    /// An `expr as ty` cast.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type text.
        ty: String,
    },
    /// A closure `|params| body`.
    Closure {
        /// Parameter names (patterns reduced to their first identifier).
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// A parenthesized group or tuple.
    Tuple(Vec<Expr>),
    /// Anything the parser does not model; consumed at least one token.
    Opaque,
}

impl Expr {
    /// Walks the expression tree, calling `f` on every node.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary(e) | Expr::Index(e) | Expr::Cast { expr: e, .. } => e.walk(f),
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Closure { body, .. } => body.walk(f),
            Expr::Tuple(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Path(_) | Expr::Literal { .. } | Expr::Opaque => {}
        }
    }

    /// The leftmost identifier of a postfix chain (`m` for
    /// `m.values().sum()`), if the chain roots in a path.
    #[must_use]
    pub fn chain_root(&self) -> Option<&str> {
        match self {
            Expr::Path(segs) => segs.first().map(String::as_str),
            Expr::MethodCall { recv, .. }
            | Expr::Field { recv, .. }
            | Expr::Cast { expr: recv, .. }
            | Expr::Index(recv)
            | Expr::Unary(recv) => recv.chain_root(),
            Expr::Call { callee, .. } => callee.chain_root(),
            _ => None,
        }
    }
}

/// A tolerant Pratt parser over a slice of *code* tokens (no comments).
pub struct ExprParser<'a> {
    src: &'a str,
    toks: Vec<&'a Token>,
    pos: usize,
}

impl<'a> ExprParser<'a> {
    /// A parser over `toks`, which must be comment-free. `src` is the
    /// original source (for literal classification via byte spans).
    #[must_use]
    pub fn new(src: &'a str, toks: Vec<&'a Token>) -> Self {
        ExprParser { src, toks, pos: 0 }
    }

    /// Parses one expression; tolerant, never panics. Returns
    /// [`Expr::Opaque`] (after consuming at least one token) on anything
    /// unmodeled.
    pub fn parse_expr(&mut self) -> Expr {
        self.parse_bp(0)
    }

    /// True when every token was consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Parses expressions until the stream is exhausted, skipping tokens
    /// the grammar does not model (statement keywords, braces). Guarantees
    /// progress: each iteration consumes at least one token.
    pub fn parse_all(&mut self) -> Vec<Expr> {
        let mut out = Vec::new();
        while !self.at_end() {
            let before = self.pos;
            out.push(self.parse_expr());
            if self.pos == before {
                self.bump();
            }
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos).copied();
        self.pos += 1;
        t
    }

    /// Two puncts form one operator only when byte-adjacent (`< =` is not
    /// `<=` across whitespace, and the lexer guarantees spans).
    fn adjacent(a: &Token, b: &Token) -> bool {
        b.offset == a.offset + a.len
    }

    /// The binary operator starting at the cursor, with its token length.
    fn peek_binop(&self) -> Option<(String, usize, u8, u8)> {
        let a = self.peek(0)?;
        if a.kind != TokKind::Punct {
            if a.kind == TokKind::Ident && a.text == "as" {
                return Some(("as".into(), 1, 23, 24));
            }
            return None;
        }
        let b = self.peek(1).filter(|b| Self::adjacent(a, b));
        let two = |s: &str| b.is_some_and(|b| b.kind == TokKind::Punct && b.text == s);
        let (op, n, l, r) = match a.text.as_str() {
            "=" if two("=") => ("==", 2, 9, 10),
            "!" if two("=") => ("!=", 2, 9, 10),
            "<" if two("=") => ("<=", 2, 9, 10),
            ">" if two("=") => (">=", 2, 9, 10),
            "<" if two("<") => ("<<", 2, 17, 18),
            ">" if two(">") => (">>", 2, 17, 18),
            "&" if two("&") => ("&&", 2, 7, 8),
            "|" if two("|") => ("||", 2, 5, 6),
            "<" => ("<", 1, 9, 10),
            ">" => (">", 1, 9, 10),
            "|" => ("|", 1, 11, 12),
            "^" => ("^", 1, 13, 14),
            "&" => ("&", 1, 15, 16),
            "+" => ("+", 1, 19, 20),
            "-" if !two(">") => ("-", 1, 19, 20),
            "*" => ("*", 1, 21, 22),
            "/" => ("/", 1, 21, 22),
            "%" => ("%", 1, 21, 22),
            _ => return None,
        };
        Some((op.to_string(), n, l, r))
    }

    fn parse_bp(&mut self, min_bp: u8) -> Expr {
        let mut lhs = self.parse_prefix();
        while let Some(t) = self.peek(0) {
            // Statement/group boundaries end the expression.
            if t.kind == TokKind::Punct
                && matches!(t.text.as_str(), "," | ")" | "]" | "}" | ";" | "{")
            {
                break;
            }
            // Postfix operators bind tightest.
            if t.kind == TokKind::Punct && t.text == "." {
                lhs = self.parse_postfix_dot(lhs);
                continue;
            }
            if t.kind == TokKind::Punct && t.text == "?" {
                self.bump();
                lhs = Expr::Unary(Box::new(lhs));
                continue;
            }
            if t.kind == TokKind::Punct && t.text == "(" {
                let args = self.parse_call_args();
                lhs = Expr::Call {
                    callee: Box::new(lhs),
                    args,
                };
                continue;
            }
            if t.kind == TokKind::Punct && t.text == "[" {
                self.bump();
                let _inner = self.parse_bp(0);
                if self.peek(0).is_some_and(|t| t.text == "]") {
                    self.bump();
                }
                lhs = Expr::Index(Box::new(lhs));
                continue;
            }
            // `as` casts.
            if t.kind == TokKind::Ident && t.text == "as" {
                self.bump();
                let ty = self.parse_type_text();
                lhs = Expr::Cast {
                    expr: Box::new(lhs),
                    ty,
                };
                continue;
            }
            let Some((op, n, l_bp, r_bp)) = self.peek_binop() else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            let (line, col) = (t.line, t.col);
            for _ in 0..n {
                self.bump();
            }
            let rhs = self.parse_bp(r_bp);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
                col,
            };
        }
        lhs
    }

    fn parse_prefix(&mut self) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Opaque;
        };
        match (t.kind, t.text.as_str()) {
            (TokKind::Literal, _) => {
                let is_float = is_float_literal(self.src, t);
                self.bump();
                Expr::Literal { is_float }
            }
            (TokKind::Punct, "-" | "!" | "*") => {
                self.bump();
                Expr::Unary(Box::new(self.parse_bp(25)))
            }
            (TokKind::Punct, "&") => {
                self.bump();
                if self.peek(0).is_some_and(|t| t.text == "mut") {
                    self.bump();
                }
                Expr::Unary(Box::new(self.parse_bp(25)))
            }
            (TokKind::Punct, "|") => self.parse_closure(),
            (TokKind::Punct, "(") => {
                let items = self.parse_call_args();
                Expr::Tuple(items)
            }
            (TokKind::Ident, "move") if self.peek(1).is_some_and(|n| n.text == "|") => {
                self.bump();
                self.parse_closure()
            }
            (TokKind::Ident, _) => self.parse_path(),
            _ => {
                self.bump();
                Expr::Opaque
            }
        }
    }

    /// `|a, b| body` — the params reduce to their identifiers.
    fn parse_closure(&mut self) -> Expr {
        self.bump(); // opening `|`
        let mut params = Vec::new();
        while let Some(t) = self.peek(0) {
            if t.kind == TokKind::Punct && t.text == "|" {
                self.bump();
                break;
            }
            if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref") {
                params.push(t.text.clone());
            }
            self.bump();
        }
        let body = self.parse_bp(2);
        Expr::Closure {
            params,
            body: Box::new(body),
        }
    }

    /// `a::b::<T>::c` path; a trailing turbofish is folded into the text.
    fn parse_path(&mut self) -> Expr {
        let mut segs = Vec::new();
        while let Some(t) = self.peek(0) {
            if t.kind == TokKind::Ident {
                segs.push(t.text.clone());
                self.bump();
            } else {
                break;
            }
            // `::` continuation (two adjacent colons).
            let (Some(c1), Some(c2)) = (self.peek(0), self.peek(1)) else {
                break;
            };
            let double_colon = c1.kind == TokKind::Punct
                && c1.text == ":"
                && c2.kind == TokKind::Punct
                && c2.text == ":"
                && Self::adjacent(c1, c2);
            if !double_colon {
                break;
            }
            self.bump();
            self.bump();
            // Turbofish in path position: `Vec::<u8>::new`.
            if self.peek(0).is_some_and(|t| t.text == "<") {
                self.skip_angle_group();
            }
        }
        if segs.is_empty() {
            self.bump();
            return Expr::Opaque;
        }
        Expr::Path(segs)
    }

    fn skip_angle_group(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.kind == TokKind::Punct {
                if t.text == "<" {
                    depth += 1;
                } else if t.text == ">" {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                } else if matches!(t.text.as_str(), ";" | "{") {
                    return;
                }
            }
            self.bump();
        }
    }

    /// `.name`, `.name(args)`, `.name::<T>(args)`, `.0` tuple index,
    /// `.await`.
    fn parse_postfix_dot(&mut self, recv: Expr) -> Expr {
        self.bump(); // `.`
        let Some(t) = self.peek(0) else {
            return Expr::Opaque;
        };
        if t.kind == TokKind::Literal {
            self.bump();
            let name = self
                .src
                .get(t.offset..t.offset + t.len)
                .unwrap_or("")
                .to_string();
            return Expr::Field {
                recv: Box::new(recv),
                name,
            };
        }
        if t.kind != TokKind::Ident {
            self.bump();
            return Expr::Opaque;
        }
        let name = t.text.clone();
        let (line, col) = (t.line, t.col);
        self.bump();
        // Optional turbofish.
        let mut turbofish = String::new();
        if let (Some(c1), Some(c2)) = (self.peek(0), self.peek(1)) {
            if c1.text == ":"
                && c2.text == ":"
                && Self::adjacent(c1, c2)
                && self.peek(2).is_some_and(|t| t.text == "<")
            {
                self.bump();
                self.bump();
                let start = self.pos;
                self.skip_angle_group();
                let raw: String = self.toks[start..self.pos]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect();
                turbofish = raw
                    .trim_start_matches('<')
                    .trim_end_matches('>')
                    .to_string();
            }
        }
        if self.peek(0).is_some_and(|t| t.text == "(") {
            let args = self.parse_call_args();
            Expr::MethodCall {
                recv: Box::new(recv),
                name,
                turbofish,
                args,
                line,
                col,
            }
        } else {
            Expr::Field {
                recv: Box::new(recv),
                name,
            }
        }
    }

    /// Parses `( e, e, ... )` starting at `(`; consumes the close.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        self.bump(); // `(`
        let mut args = Vec::new();
        while let Some(t) = self.peek(0) {
            if t.kind == TokKind::Punct && t.text == ")" {
                self.bump();
                break;
            }
            if t.kind == TokKind::Punct && t.text == "," {
                self.bump();
                continue;
            }
            let before = self.pos;
            args.push(self.parse_bp(0));
            if self.pos == before {
                // Tolerance: never loop without progress.
                self.bump();
            }
        }
        args
    }

    /// Consumes a type after `as`: a path with optional generics and
    /// references, as concatenated text.
    fn parse_type_text(&mut self) -> String {
        let mut text = String::new();
        while let Some(t) = self.peek(0) {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "&" | "*") if text.is_empty() => {
                    text.push_str(&t.text);
                    self.bump();
                }
                (TokKind::Ident, "mut" | "const") if text.ends_with(['&', '*']) => {
                    text.push_str(&t.text);
                    self.bump();
                }
                (TokKind::Ident, _) if text.is_empty() || text.ends_with("::") => {
                    text.push_str(&t.text);
                    self.bump();
                    // Path continuation.
                    if let (Some(c1), Some(c2)) = (self.peek(0), self.peek(1)) {
                        if c1.text == ":" && c2.text == ":" && Self::adjacent(c1, c2) {
                            text.push_str("::");
                            self.bump();
                            self.bump();
                            continue;
                        }
                    }
                    break;
                }
                (TokKind::Ident, "mut" | "const") => {
                    text.push_str(&t.text);
                    self.bump();
                }
                _ => break,
            }
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_toks(tokens: &[Token]) -> Vec<&Token> {
        tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect()
    }

    #[test]
    fn pub_fn_params_and_docs() {
        let src = "/// Advances the clock.\n///\n/// unit: `now` is in cycles.\n\
                   #[must_use]\npub fn advance(now: f64, steps: u64) -> f64 { now }\n\
                   fn helper(x: usize) {}\n";
        let p = ParsedFile::parse(src);
        assert_eq!(p.fns.len(), 2);
        let f = &p.fns[0];
        assert!(f.is_pub);
        assert_eq!(f.name, "advance");
        assert!(f.doc.contains("unit:"));
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.params[1].ty, "u64");
        assert!(!p.fns[1].is_pub);
    }

    #[test]
    fn restricted_visibility_and_const_fns() {
        let src = "pub(crate) fn a() {}\npub const fn b(x: u64) -> u64 { x }\n\
                   const fn c() {}\npub(super) const D: u8 = 1;\npub const E: u8 = 2;\n";
        let p = ParsedFile::parse(src);
        let fns: Vec<(&str, bool, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.restricted))
            .collect();
        assert_eq!(
            fns,
            vec![("a", true, true), ("b", true, false), ("c", false, false)]
        );
        assert_eq!(p.fns[1].params[0].ty, "u64");
        let consts: Vec<(&str, bool)> = p
            .consts
            .iter()
            .map(|c| (c.name.as_str(), c.restricted))
            .collect();
        assert_eq!(consts, vec![("D", true), ("E", false)]);
    }

    #[test]
    fn self_and_complex_params_skipped_or_typed() {
        let src = "impl T { pub fn m(&mut self, rate: f64, xs: &[u64]) {} }";
        let p = ParsedFile::parse(src);
        let f = &p.fns[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.params[1].ty, "&[u64]");
    }

    #[test]
    fn consts_fields_enums_impls() {
        let src = "/// unit: ratio.\npub const EPS: f64 = 1e-6;\n\
                   pub struct S {\n    /// Cycle count.\n    pub c: u64,\n    private: f64,\n}\n\
                   pub enum E { A, B(u8), C { x: u8 }, }\n\
                   impl SimObserver for S { fn on_event(&mut self) {} }\n";
        let p = ParsedFile::parse(src);
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.consts[0].ty, "f64");
        assert!(p.consts[0].doc.contains("unit:"));
        assert_eq!(p.fields.len(), 1);
        assert_eq!(p.fields[0].name, "c");
        assert_eq!(p.fields[0].owner, "S");
        let e = &p.enums[0];
        let names: Vec<&str> = e.variants.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
        let im = p.impls.iter().find(|i| i.trait_name.is_some()).unwrap();
        assert_eq!(im.trait_name.as_deref(), Some("SimObserver"));
        assert_eq!(im.type_name, "S");
        assert!(im.body_end > im.body_start);
    }

    #[test]
    fn let_bindings_capture_types_and_roots() {
        let src =
            "fn f() { let m: HashMap<u8, u8> = HashMap::new(); let x = 1.5; let y: f64 = 0.0; }";
        let p = ParsedFile::parse(src);
        assert_eq!(p.lets.len(), 3);
        assert!(p.lets[0].ty.as_deref().unwrap().starts_with("HashMap"));
        assert_eq!(p.lets[0].init_root.as_deref(), Some("HashMap"));
        assert!(p.lets[1].init_float);
        assert_eq!(p.lets[2].ty.as_deref(), Some("f64"));
    }

    #[test]
    fn pratt_parses_comparator_bodies() {
        let src = "a.1 < b.1 && a.rate >= 2.0";
        let tokens = lex(src);
        let mut p = ExprParser::new(src, code_toks(&tokens));
        let e = p.parse_expr();
        assert!(p.at_end());
        let mut cmp_ops = Vec::new();
        e.walk(&mut |n| {
            if let Expr::Binary { op, .. } = n {
                cmp_ops.push(op.clone());
            }
        });
        assert!(cmp_ops.contains(&"<".to_string()));
        assert!(cmp_ops.contains(&">=".to_string()));
        assert!(cmp_ops.contains(&"&&".to_string()));
    }

    #[test]
    fn pratt_method_chains_and_roots() {
        let src = "m.values().copied().sum::<f64>()";
        let tokens = lex(src);
        let mut p = ExprParser::new(src, code_toks(&tokens));
        let e = p.parse_expr();
        assert!(p.at_end());
        assert_eq!(e.chain_root(), Some("m"));
        let mut saw_sum = false;
        e.walk(&mut |n| {
            if let Expr::MethodCall {
                name, turbofish, ..
            } = n
            {
                if name == "sum" {
                    saw_sum = true;
                    assert_eq!(turbofish, "f64");
                }
            }
        });
        assert!(saw_sum);
    }

    #[test]
    fn pratt_never_panics_on_junk() {
        for src in [
            "} ) ] ..= ..",
            "match x { _ => 1 }",
            "|a| |b| a + b",
            "&mut *x as *const u8",
            "x..y",
            "",
        ] {
            let tokens = lex(src);
            let mut p = ExprParser::new(src, code_toks(&tokens));
            let mut guard = 0;
            while !p.at_end() && guard < 10_000 {
                let before = p.pos;
                let _ = p.parse_expr();
                if p.pos == before {
                    p.bump();
                }
                guard += 1;
            }
            assert!(guard < 10_000, "parser stalled on {src:?}");
        }
    }

    #[test]
    fn float_literals_classified_from_spans() {
        let src = "let a = 1.5; let b = 2e9; let c = 10; let d = 0xfeed; let e = 3f64;";
        let toks = lex(src);
        let floats: Vec<bool> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| is_float_literal(src, t))
            .collect();
        assert_eq!(floats, vec![true, true, false, false, true]);
    }

    #[test]
    fn casts_are_modeled() {
        let src = "x as f64 + y as u32";
        let tokens = lex(src);
        let mut p = ExprParser::new(src, code_toks(&tokens));
        let e = p.parse_expr();
        let mut tys = Vec::new();
        e.walk(&mut |n| {
            if let Expr::Cast { ty, .. } = n {
                tys.push(ty.clone());
            }
        });
        assert_eq!(tys, vec!["f64", "u32"]);
    }
}
