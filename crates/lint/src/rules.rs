//! The project-specific rule families and the scanner that applies them
//! to one file's token stream.
//!
//! The workspace's verification spine is bit-for-bit determinism: golden
//! runs must be byte-identical across executors, observer builds, and sweep
//! thread counts. Each rule bans a construct that silently breaks that
//! property (D1–D3) or undercuts the typed-`V10Error` story (P1):
//!
//! * **D1** — `std::collections::HashMap`/`HashSet` in sim-path code:
//!   iteration order is randomized per process, so any scheduling or
//!   serialization decision that touches it diverges between runs. Use
//!   `BTreeMap`/`BTreeSet` or a sorted `Vec`.
//! * **D2** — wall-clock or ambient randomness (`std::time::Instant`,
//!   `SystemTime`, `rand::thread_rng`) outside `v10-bench` timing code:
//!   simulated time must come from the simulated clock and all randomness
//!   from the seeded [`SimRng`](../../sim/src/rng.rs).
//! * **D3** — bare `as` numeric casts in cycle/byte accounting modules:
//!   silent truncation/precision loss drifts the figures. Use `try_from`,
//!   `f64::from`, or the checked helpers in `v10_sim::convert`.
//! * **P1** — `unwrap()`/`expect()`/panicking macros/slice indexing in
//!   non-test library code of the crates in `workspace::P1_CRATES`:
//!   public entry points promise typed `V10Error`s, not process teardown.
//!
//! The semantic families U1/F1/O1/E1 run on the [`crate::parser`]'s item
//! tables, and so does **S1** (see [`s1_findings`]): a `pub fn` or `pub
//! const` that nothing but its own crate's tests names is dead surface.
//!
//! Suppression: `// v10-lint: allow(<rule>) <reason>` on the offending
//! line or the line above (reason mandatory). There is no baseline: every
//! finding fails `--check`.

use crate::lexer::{lex, TokKind, Token};

/// A rule family identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Hash containers with nondeterministic iteration order.
    D1,
    /// Wall-clock time or ambient randomness.
    D2,
    /// Bare `as` numeric casts in accounting code.
    D3,
    /// Panic paths (unwrap/expect/panicking macros/indexing) in library code.
    P1,
    /// Undocumented raw-unit (`f64`/`u64`) public surface in accounting code.
    U1,
    /// Float comparisons/reductions whose order is not provably deterministic.
    F1,
    /// Ambient I/O, wall-clock, or OS randomness inside `SimObserver` impls.
    O1,
    /// `SimEvent` variants not counted and audited by the runtime checkers.
    E1,
    /// `pub fn`/`pub const` items nothing outside their own tests names.
    S1,
    /// Malformed `v10-lint:` directives (e.g. a missing reason).
    Meta,
}

impl RuleId {
    /// Stable textual id used in diagnostics and directives.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::P1 => "P1",
            RuleId::U1 => "U1",
            RuleId::F1 => "F1",
            RuleId::O1 => "O1",
            RuleId::E1 => "E1",
            RuleId::S1 => "S1",
            RuleId::Meta => "META",
        }
    }

    /// Stable rule-family label carried in the JSON diagnostic schema.
    #[must_use]
    pub fn family(self) -> &'static str {
        match self {
            RuleId::D1 => "hash-order",
            RuleId::D2 => "ambient-time-randomness",
            RuleId::D3 => "numeric-cast",
            RuleId::P1 => "panic-path",
            RuleId::U1 => "unit-safety",
            RuleId::F1 => "float-determinism",
            RuleId::O1 => "observer-purity",
            RuleId::E1 => "event-exhaustiveness",
            RuleId::S1 => "dead-public-surface",
            RuleId::Meta => "directive-hygiene",
        }
    }

    /// Parses a directive's rule id.
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "P1" => Some(RuleId::P1),
            "U1" => Some(RuleId::U1),
            "F1" => Some(RuleId::F1),
            "O1" => Some(RuleId::O1),
            "E1" => Some(RuleId::E1),
            "S1" => Some(RuleId::S1),
            "META" => Some(RuleId::Meta),
            _ => None,
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which rule families apply to one file. Derived from the file's path by
/// [`crate::workspace`]; constructed directly by the fixture self-tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// Check hash containers (all sim-path crates).
    pub d1: bool,
    /// Check wall-clock/randomness (all sim-path crates).
    pub d2: bool,
    /// Check bare `as` casts (accounting modules only).
    pub d3: bool,
    /// Check panic paths (`v10-core`/`v10-sim` library code only).
    pub p1: bool,
    /// Check raw-unit public surface (accounting modules only).
    pub u1: bool,
    /// Check float comparison/reduction order (all sim-path crates).
    pub f1: bool,
    /// Check `SimObserver` impl purity (all sim-path crates).
    pub o1: bool,
    /// Check `SimEvent` exhaustiveness (the event-definition file only;
    /// its findings are precomputed cross-file and passed as extras).
    pub e1: bool,
    /// Check for dead public surface (sim-path library sources; computed
    /// cross-file by [`s1_findings`] and passed as extras).
    pub s1: bool,
}

impl Scope {
    /// A scope with every rule family enabled.
    #[must_use]
    pub fn all() -> Self {
        Scope {
            d1: true,
            d2: true,
            d3: true,
            p1: true,
            u1: true,
            f1: true,
            o1: true,
            e1: true,
            s1: true,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule family that fired.
    pub rule: RuleId,
    /// Repo-relative path (unix separators) of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// `file:line:col: RULE: message` — the human diagnostic format.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// One JSON-lines record (machine-readable diagnostics, schema
    /// `v10-lint/2`): stable keys, the rule-family label, and a ready-made
    /// allow-directive suggestion. META findings carry no suggestion —
    /// directive-hygiene errors are never suppressible.
    #[must_use]
    pub fn render_json(&self) -> String {
        let allow = if self.rule == RuleId::Meta {
            String::new()
        } else {
            format!("// v10-lint: allow({}) <reason>", self.rule)
        };
        format!(
            r#"{{"schema":"v10-lint/2","file":"{}","line":{},"col":{},"rule":"{}","family":"{}","message":"{}","allow":"{}"}}"#,
            json_escape(&self.file),
            self.line,
            self.col,
            self.rule,
            self.rule.family(),
            json_escape(&self.message),
            json_escape(&allow)
        )
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An `// v10-lint: allow(<rule>) <reason>` directive.
#[derive(Debug, Clone)]
struct Allow {
    rule: RuleId,
    line: u32,
    used: bool,
}

const DIRECTIVE: &str = "v10-lint:";

/// Numeric types whose `as` casts D3 rejects.
const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Identifiers D2 bans: ambient wall-clock time and ambient randomness.
const D2_BANNED: [(&str, &str); 3] = [
    (
        "Instant",
        "wall-clock time in sim-path code; simulated time must come from the engine clock",
    ),
    (
        "SystemTime",
        "wall-clock time in sim-path code; simulated time must come from the engine clock",
    ),
    (
        "thread_rng",
        "ambient randomness in sim-path code; use the seeded v10_sim::SimRng",
    ),
];

/// Panicking macros P1 rejects in library code.
const P1_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that, immediately before `[`, mean "pattern or type position",
/// not a slice-indexing expression.
const NON_INDEX_KEYWORDS: [&str; 20] = [
    "let", "in", "return", "match", "if", "else", "while", "for", "move", "ref", "mut", "box",
    "break", "continue", "yield", "where", "as", "const", "static", "dyn",
];

/// Scans one file's source text under `scope`, returning its findings
/// (already filtered through inline `allow` directives; a used directive
/// suppresses, an unused or malformed one is itself a `META` finding).
#[must_use]
pub fn scan_source(file: &str, src: &str, scope: Scope) -> Vec<Finding> {
    scan_source_with(file, src, scope, &[])
}

/// [`scan_source`] with precomputed cross-file findings (`extra`) merged in
/// *before* the allow-directive pass, so inline `allow` directives and the
/// unused-directive META check apply to them exactly as to local findings.
/// E1's event-exhaustiveness findings (computed against the counter and
/// audit sources by [`e1_findings`]) arrive this way.
#[must_use]
pub fn scan_source_with(file: &str, src: &str, scope: Scope, extra: &[Finding]) -> Vec<Finding> {
    let parsed = crate::parser::ParsedFile::parse(src);
    let tokens = &parsed.tokens;
    let test_lines = test_region_lines(tokens);
    let (mut allows, mut findings) = collect_allows(file, tokens);
    findings.extend(extra.iter().cloned());

    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && !test_lines.contains(&t.line)
        })
        .collect();

    let mut in_use_decl = false;
    for (i, tok) in code.iter().enumerate() {
        // Track `use ...;` declarations so D3 skips `use x as y` renames.
        if tok.kind == TokKind::Ident && tok.text == "use" {
            in_use_decl = true;
        } else if tok.kind == TokKind::Punct && tok.text == ";" {
            in_use_decl = false;
        }

        if scope.d1 && tok.kind == TokKind::Ident {
            if let Some(alt) = match tok.text.as_str() {
                "HashMap" => Some("BTreeMap"),
                "HashSet" => Some("BTreeSet (or a sorted Vec)"),
                _ => None,
            } {
                findings.push(Finding {
                    rule: RuleId::D1,
                    file: file.to_string(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{} iteration order is nondeterministic; use {alt} so \
                         golden runs stay byte-identical",
                        tok.text
                    ),
                });
            }
        }

        if scope.d2 && tok.kind == TokKind::Ident {
            if let Some((_, why)) = D2_BANNED.iter().find(|(name, _)| *name == tok.text) {
                findings.push(Finding {
                    rule: RuleId::D2,
                    file: file.to_string(),
                    line: tok.line,
                    col: tok.col,
                    message: format!("{}: {why}", tok.text),
                });
            }
        }

        if scope.d3
            && !in_use_decl
            && tok.kind == TokKind::Ident
            && tok.text == "as"
            && i > 0
            && code.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && NUMERIC_TYPES.contains(&t.text.as_str())
            })
        {
            let target = &code[i + 1].text;
            findings.push(Finding {
                rule: RuleId::D3,
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "bare `as {target}` cast in accounting code; use try_from, \
                     f64::from, or a v10_sim::convert helper"
                ),
            });
        }

        if scope.p1 {
            p1_check(file, &code, i, &mut findings);
        }

        if scope.f1 {
            f1a_check(file, &code, i, &mut findings);
        }
    }

    if scope.u1 {
        u1_scan(file, &parsed, &test_lines, &mut findings);
    }
    if scope.f1 {
        f1_expr_scan(file, src, &parsed, &test_lines, &mut findings);
    }
    if scope.o1 {
        o1_scan(file, &parsed, &test_lines, &mut findings);
    }

    // Apply inline allow directives, then report the unused ones.
    findings.retain(|f| {
        !allows.iter_mut().any(|a| {
            let hit = a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line);
            if hit {
                a.used = true;
            }
            hit
        })
    });
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: RuleId::Meta,
                file: file.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "unused `v10-lint: allow({})` directive; delete it or move it to the \
                     offending line",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|a| (a.line, a.col));
    findings
}

/// P1 sub-checks at code token `i`: `.unwrap()`, `.expect(`, panicking
/// macros, and slice-indexing expressions.
fn p1_check(file: &str, code: &[&Token], i: usize, findings: &mut Vec<Finding>) {
    let tok = code[i];
    let prev = i.checked_sub(1).map(|p| code[p]);
    let next = code.get(i + 1).copied();

    if tok.kind == TokKind::Ident && (tok.text == "unwrap" || tok.text == "expect") {
        let dotted = prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == ".");
        let called = next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
        if dotted && called {
            findings.push(Finding {
                rule: RuleId::P1,
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    ".{}() in library code; return a V10Error (ok_or_else, map_err, `?`) \
                     instead of panicking",
                    tok.text
                ),
            });
        }
    }

    if tok.kind == TokKind::Ident
        && P1_MACROS.contains(&tok.text.as_str())
        && next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "!")
    {
        findings.push(Finding {
            rule: RuleId::P1,
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            message: format!(
                "{}! in library code; return a V10Error instead of panicking",
                tok.text
            ),
        });
    }

    // Slice indexing: `expr[...]` — a `[` directly after an expression
    // tail (identifier, `)`, `]`, or `?`). Patterns/types (`let [a, b]`,
    // `[u64; 4]`, `#[attr]`, `vec![..]`) are preceded by other tokens.
    if tok.kind == TokKind::Punct && tok.text == "[" {
        let indexes = match prev {
            Some(p) if p.kind == TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
            Some(p) if p.kind == TokKind::Punct => matches!(p.text.as_str(), ")" | "]" | "?"),
            _ => false,
        };
        if indexes {
            findings.push(Finding {
                rule: RuleId::P1,
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                message: "slice indexing in library code panics on out-of-bounds; use .get() \
                          or an iterator, or justify with an allow directive"
                    .to_string(),
            });
        }
    }
}

/// Raw-unit types U1 requires a typed quantity or a `/// unit:` doc for.
const U1_RAW_UNITS: [&str; 2] = ["f64", "u64"];

/// U1 — unit safety. In accounting modules, a `pub fn` parameter, `pub
/// const`, or `pub` struct field whose type is a *bare* `f64`/`u64` is a
/// unit bug waiting to happen (cycles? microseconds? bytes? a ratio?).
/// Either migrate it to a typed quantity (`Cycles`, `Micros`, `Bytes`,
/// `CycleCount`) or state the unit in the item's doc comment with the
/// `/// unit: ...` convention, which this rule recognizes.
fn u1_scan(
    file: &str,
    parsed: &crate::parser::ParsedFile,
    test_lines: &std::collections::BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    let documented = |doc: &str| doc.contains("unit:");
    for f in &parsed.fns {
        if !f.is_pub || test_lines.contains(&f.line) || documented(&f.doc) {
            continue;
        }
        for p in &f.params {
            if U1_RAW_UNITS.contains(&p.ty.as_str()) {
                findings.push(Finding {
                    rule: RuleId::U1,
                    file: file.to_string(),
                    line: p.line,
                    col: p.col,
                    message: format!(
                        "pub fn {}: parameter `{}: {}` is a raw unit in accounting code; \
                         use a typed quantity (Cycles, Micros, Bytes, CycleCount) or state \
                         the unit in the doc comment (`/// unit: ...`)",
                        f.name, p.name, p.ty
                    ),
                });
            }
        }
    }
    for c in &parsed.consts {
        if test_lines.contains(&c.line) || documented(&c.doc) {
            continue;
        }
        if U1_RAW_UNITS.contains(&c.ty.as_str()) {
            findings.push(Finding {
                rule: RuleId::U1,
                file: file.to_string(),
                line: c.line,
                col: c.col,
                message: format!(
                    "pub const {}: {} is a raw unit in accounting code; use a typed \
                     quantity or state the unit in the doc comment (`/// unit: ...`)",
                    c.name, c.ty
                ),
            });
        }
    }
    for fd in &parsed.fields {
        if test_lines.contains(&fd.line) || documented(&fd.doc) {
            continue;
        }
        if U1_RAW_UNITS.contains(&fd.ty.as_str()) {
            findings.push(Finding {
                rule: RuleId::U1,
                file: file.to_string(),
                line: fd.line,
                col: fd.col,
                message: format!(
                    "pub field {}.{}: {} is a raw unit in accounting code; use a typed \
                     quantity or state the unit in the doc comment (`/// unit: ...`)",
                    fd.owner, fd.name, fd.ty
                ),
            });
        }
    }
}

/// F1a — `.partial_cmp(` on floats yields `Option<Ordering>` and every
/// caller either unwraps (a P1) or silently reorders on NaN. Flag the token
/// triple `.` `partial_cmp` `(`; the fix is `total_cmp`, which is total and
/// deterministic.
fn f1a_check(file: &str, code: &[&Token], i: usize, findings: &mut Vec<Finding>) {
    let tok = code[i];
    if tok.kind != TokKind::Ident || tok.text != "partial_cmp" {
        return;
    }
    let dotted = i
        .checked_sub(1)
        .is_some_and(|p| code[p].kind == TokKind::Punct && code[p].text == ".");
    let called = code
        .get(i + 1)
        .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
    if dotted && called {
        findings.push(Finding {
            rule: RuleId::F1,
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            message: ".partial_cmp() is not total over floats (NaN breaks the order); \
                      use f64::total_cmp for a deterministic comparator"
                .to_string(),
        });
    }
}

/// Comparator-taking methods whose closure F1b inspects.
const F1_COMPARATORS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// F1b + F1c — expression-level float-order checks.
///
/// * **F1b**: inside a comparator closure passed to `sort_by`-family
///   methods, a raw `<`/`>`/`<=`/`>=` whose operand is provably floaty
///   (float literal, `as f64`/`as f32` cast, `.as_f64()`/`.to_f64()` call,
///   or an identifier the file's `let` symbol table types as `f64`) is a
///   NaN-unstable order. Use `total_cmp`.
/// * **F1c**: a `.sum::<f64>()` reduction whose postfix chain roots in a
///   binding initialized from a `HashMap`/`HashSet` sums in hash-iteration
///   order; float addition is non-associative, so the total drifts between
///   processes.
fn f1_expr_scan(
    file: &str,
    src: &str,
    parsed: &crate::parser::ParsedFile,
    test_lines: &std::collections::BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    use crate::parser::{Expr, ExprParser};

    let code: Vec<&Token> = parsed
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    // The per-file symbol table: which names are provably f64, and which
    // root in a hash container.
    let f64_names: std::collections::BTreeSet<&str> = parsed
        .lets
        .iter()
        .filter(|l| l.ty.as_deref() == Some("f64") || l.init_float)
        .map(|l| l.name.as_str())
        .collect();
    let hash_names: std::collections::BTreeSet<&str> = parsed
        .lets
        .iter()
        .filter(|l| {
            let ty_hash =
                l.ty.as_deref()
                    .is_some_and(|t| t.starts_with("HashMap") || t.starts_with("HashSet"));
            let init_hash = l
                .init_root
                .as_deref()
                .is_some_and(|r| r == "HashMap" || r == "HashSet");
            ty_hash || init_hash
        })
        .map(|l| l.name.as_str())
        .collect();

    let floaty = |e: &Expr| -> bool {
        match e {
            Expr::Literal { is_float } => *is_float,
            Expr::Cast { ty, .. } => ty == "f64" || ty == "f32",
            Expr::MethodCall { name, .. } => name == "as_f64" || name == "to_f64",
            Expr::Path(segs) => segs.first().is_some_and(|s| f64_names.contains(s.as_str())),
            Expr::Field { recv, .. } => {
                // `a.1` / `a.rate` where `a` is a known-f64 tuple is out of
                // reach; only the root-ident case is provable.
                matches!(&**recv, Expr::Path(segs)
                    if segs.first().is_some_and(|s| f64_names.contains(s.as_str())))
            }
            _ => false,
        }
    };

    for (i, tok) in code.iter().enumerate() {
        if test_lines.contains(&tok.line) {
            continue;
        }
        // F1b: comparator method followed by `(` — parse the argument list.
        if tok.kind == TokKind::Ident
            && F1_COMPARATORS.contains(&tok.text.as_str())
            && i > 0
            && code[i - 1].kind == TokKind::Punct
            && code[i - 1].text == "."
            && code.get(i + 1).is_some_and(|t| t.text == "(")
        {
            let close = matching_code(&code, i + 1, "(", ")");
            let arg_toks: Vec<&Token> = code[i + 2..close].to_vec();
            let mut p = ExprParser::new(src, arg_toks);
            // Comparator bodies often open with `if`/`match`, which the
            // expression grammar does not model; parse_all still reaches
            // every comparison nested past them.
            for expr in p.parse_all() {
                expr.walk(&mut |n| {
                    if let Expr::Binary {
                        op,
                        lhs,
                        rhs,
                        line,
                        col,
                    } = n
                    {
                        let is_cmp = matches!(op.as_str(), "<" | ">" | "<=" | ">=");
                        if is_cmp && (floaty(lhs) || floaty(rhs)) {
                            findings.push(Finding {
                                rule: RuleId::F1,
                                file: file.to_string(),
                                line: *line,
                                col: *col,
                                message: format!(
                                    "raw `{op}` on a float inside a comparator closure is not \
                                     a total order (NaN); use f64::total_cmp"
                                ),
                            });
                        }
                    }
                });
            }
        }

        // F1c: `.sum::<f64>()` whose chain roots in a hash container.
        if tok.kind == TokKind::Ident
            && tok.text == "sum"
            && i > 0
            && code[i - 1].kind == TokKind::Punct
            && code[i - 1].text == "."
        {
            let turbofish_f64 = code.get(i + 1).is_some_and(|t| t.text == ":")
                && code.get(i + 2).is_some_and(|t| t.text == ":")
                && code.get(i + 3).is_some_and(|t| t.text == "<")
                && code.get(i + 4).is_some_and(|t| t.text == "f64")
                && code.get(i + 5).is_some_and(|t| t.text == ">");
            if turbofish_f64 {
                if let Some(root) = chain_root_ident(&code, i - 1) {
                    if hash_names.contains(root) {
                        findings.push(Finding {
                            rule: RuleId::F1,
                            file: file.to_string(),
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                ".sum::<f64>() over `{root}` iterates a hash container; \
                                 float addition is non-associative, so the total depends on \
                                 hash order — collect into a BTreeMap/sorted Vec first"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Walks a postfix chain *backwards* from the code index of a `.` to find
/// the chain's root identifier: skips balanced `(...)`/`[...]` groups and
/// `.name`/`::` links. Returns `None` when the chain roots in a literal or
/// an unmodeled shape.
fn chain_root_ident<'a>(code: &[&'a Token], dot: usize) -> Option<&'a str> {
    let mut i = dot; // points at the `.`
    let mut root: Option<&str> = None;
    while i > 0 {
        i -= 1;
        let t = code[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ")") => {
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    match code[i].text.as_str() {
                        ")" => depth += 1,
                        "(" => depth -= 1,
                        _ => {}
                    }
                }
            }
            (TokKind::Punct, "]") => {
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    match code[i].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
            }
            (TokKind::Ident, name) => {
                root = Some(name);
                // Continue only through `.` or `::` immediately before.
                let prev = i.checked_sub(1).map(|p| code[p]);
                let link = prev
                    .is_some_and(|p| p.kind == TokKind::Punct && (p.text == "." || p.text == ":"));
                if !link {
                    return root;
                }
            }
            (TokKind::Punct, "." | ":") => {}
            _ => return root,
        }
    }
    root
}

/// Finds the matching close for the opener at code index `open`.
fn matching_code(code: &[&Token], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        let t = code[i];
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

/// Identifiers O1 bans inside a `SimObserver` impl body: wall-clock, OS
/// randomness, and ambient I/O. `writeln` is deliberately absent — the
/// JsonLines observer writes through its injected sink, which is the one
/// sanctioned output channel.
const O1_BANNED: [&str; 14] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "File",
    "OpenOptions",
    "stdin",
    "stdout",
    "stderr",
    "env",
    "println",
    "eprintln",
    "print",
    "eprint",
    "dbg",
];

/// O1 — observer purity. Observers run inside the deterministic event loop;
/// any wall-clock read, OS randomness, or ambient I/O in an observer callback
/// perturbs timing-sensitive comparisons and can differ between runs. The
/// only sanctioned side channel is the sink the observer was constructed
/// with (e.g. the JsonLines writer).
fn o1_scan(
    file: &str,
    parsed: &crate::parser::ParsedFile,
    test_lines: &std::collections::BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    for region in &parsed.impls {
        if region.trait_name.as_deref() != Some("SimObserver") {
            continue;
        }
        for t in &parsed.tokens[region.body_start..=region.body_end.min(parsed.tokens.len() - 1)] {
            if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                || test_lines.contains(&t.line)
            {
                continue;
            }
            if t.kind == TokKind::Ident && O1_BANNED.contains(&t.text.as_str()) {
                findings.push(Finding {
                    rule: RuleId::O1,
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` inside `impl SimObserver for {}`: observers must be pure \
                         over the event stream; route output through the observer's \
                         injected sink",
                        t.text, region.type_name
                    ),
                });
            }
        }
    }
}

/// E1 — event exhaustiveness. Every variant of the `pub enum SimEvent` in
/// `observer_src` must (a) be referenced inside the
/// `impl SimObserver for CounterObserver` body of the same file, and (b) be
/// referenced somewhere in `audit_src` (the runtime auditor / conservation
/// checkers). A variant missing either is an event the test spine silently
/// ignores. Findings anchor at the variant's definition line so an inline
/// `// v10-lint: allow(E1) <reason>` there can acknowledge intentionally
/// unaudited variants.
#[must_use]
pub fn e1_findings(observer_rel: &str, observer_src: &str, audit_src: &str) -> Vec<Finding> {
    let parsed = crate::parser::ParsedFile::parse(observer_src);
    let Some(events) = parsed.enums.iter().find(|e| e.name == "SimEvent") else {
        return Vec::new();
    };

    let counter_idents: std::collections::BTreeSet<&str> = parsed
        .impls
        .iter()
        .filter(|r| {
            r.trait_name.as_deref() == Some("SimObserver") && r.type_name == "CounterObserver"
        })
        .flat_map(|r| parsed.tokens[r.body_start..=r.body_end].iter())
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();

    let audit_idents: std::collections::BTreeSet<String> = lex(audit_src)
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect();

    let mut findings = Vec::new();
    for (variant, line, col) in &events.variants {
        let counted = counter_idents.contains(variant.as_str());
        let audited = audit_idents.contains(variant);
        if counted && audited {
            continue;
        }
        let missing = match (counted, audited) {
            (false, false) => "neither counted by CounterObserver nor validated in audit.rs",
            (false, true) => "not counted by CounterObserver",
            (true, false) => "not validated by the runtime auditors (audit.rs)",
            (true, true) => unreachable!(),
        };
        findings.push(Finding {
            rule: RuleId::E1,
            file: observer_rel.to_string(),
            line: *line,
            col: *col,
            message: format!(
                "SimEvent::{variant} is {missing}; wire it into the spine or acknowledge \
                 it with an allow directive"
            ),
        });
    }
    findings
}

/// S1 — dead public surface. A `pub fn` or `pub const` in a file whose
/// [`Scope::s1`] is set (the sim-path crates' `src/` trees) is dead when
/// its name appears as an identifier, outside comments, only at `fn`/`const`
/// definition sites, inside `use` declarations (an import or re-export
/// names an item without using it; only a renamed import, `name as alias`,
/// counts, since the alias is what callers then use), as a field (a `.name`
/// read not followed by `(` or `::`, or a `name:` declaration or
/// initialiser), and inside its own crate's `#[cfg(test)]`/`#[test]` code. `corpus` is every file that
/// could name it, as `(repo-relative path, source)` pairs
/// ([`crate::workspace::corpus`]). The match is by name alone, so any
/// other same-named use anywhere keeps an item alive: S1 can miss a dead
/// item but never flags a live one, because a function or constant can be
/// named neither as a bare `.name` nor as `name:`. Findings anchor at the
/// item, so an inline `// v10-lint: allow(S1) <reason>` there keeps it.
#[must_use]
pub fn s1_findings(corpus: &[(String, String)]) -> Vec<Finding> {
    use std::collections::{BTreeMap, BTreeSet};

    // Every identifier use, split into uses outside test code and, per
    // name, the crates whose library test code names it.
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut test_used_by: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    // (name, own crate, file, line, col, item kind)
    let mut candidates: Vec<(String, &str, &str, u32, u32, &str)> = Vec::new();
    for (rel, src) in corpus {
        let parsed = crate::parser::ParsedFile::parse(src);
        let test_lines = test_region_lines(&parsed.tokens);
        let krate = crate::workspace::src_crate(rel);
        let code: Vec<&Token> = parsed
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let text = |i: usize| code.get(i).map_or("", |t| t.text.as_str());
        // Between a `use` and its `;`.
        let mut in_use = false;
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokKind::Punct && t.text == ";" {
                in_use = false;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev = if i == 0 { "" } else { text(i - 1) };
            let (next, after) = (text(i + 1), text(i + 2));
            // `use<..>` is a precise-capturing bound, not a declaration.
            if t.text == "use" && next != "<" {
                in_use = true;
                continue;
            }
            let field_read = prev == "." && next != "(" && !(next == ":" && after == ":");
            let field_decl = next == ":" && after != ":";
            let imported = in_use && next != "as";
            if prev == "fn" || prev == "const" || field_read || field_decl || imported {
                continue;
            }
            match krate.filter(|_| test_lines.contains(&t.line)) {
                Some(c) => {
                    test_used_by.entry(t.text.clone()).or_default().insert(c);
                }
                None => {
                    used.insert(t.text.clone());
                }
            }
        }

        let (Some(own), true) = (
            krate,
            crate::workspace::scope_for(rel).is_some_and(|s| s.s1),
        ) else {
            continue;
        };
        let live = |line: u32| !test_lines.contains(&line);
        for f in &parsed.fns {
            if f.is_pub && !f.restricted && live(f.line) {
                candidates.push((f.name.clone(), own, rel, f.line, f.col, "fn"));
            }
        }
        for c in &parsed.consts {
            if !c.restricted && live(c.line) {
                candidates.push((c.name.clone(), own, rel, c.line, c.col, "const"));
            }
        }
    }

    candidates
        .into_iter()
        .filter(|(name, own, ..)| {
            !used.contains(name)
                && test_used_by
                    .get(name)
                    .is_none_or(|crates| crates.iter().all(|c| c == own))
        })
        .map(|(name, own, rel, line, col, kind)| Finding {
            rule: RuleId::S1,
            file: rel.to_string(),
            line,
            col,
            message: format!(
                "pub {kind} `{name}` is named nowhere but its definition and v10-{own}'s \
                 own tests; delete it, or make it `#[cfg(test)] pub(crate)` if a test needs it"
            ),
        })
        .collect()
}

/// Lines covered by `#[cfg(test)]` / `#[test]` items (the attribute through
/// the item's closing brace). P1 exempts test code; the other rules do too —
/// tests don't feed golden output.
fn test_region_lines(tokens: &[Token]) -> std::collections::BTreeSet<u32> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut lines = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].kind == TokKind::Punct
            && code[i].text == "#"
            && code.get(i + 1).is_some_and(|t| t.text == "[")
        {
            // Collect the attribute's tokens up to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                match (code[j].kind, code[j].text.as_str()) {
                    (TokKind::Punct, "[") => depth += 1,
                    (TokKind::Punct, "]") => depth -= 1,
                    (TokKind::Ident, name) => attr.push(name),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = (attr.contains(&"cfg") && attr.contains(&"test")
                || attr.first() == Some(&"test"))
                && !attr.contains(&"not");
            if is_test_attr {
                let start_line = code[i].line;
                // Find the item's body: the first `{` before any `;`.
                let mut k = j;
                let mut open = None;
                while k < code.len() {
                    match (code[k].kind, code[k].text.as_str()) {
                        (TokKind::Punct, "{") => {
                            open = Some(k);
                            break;
                        }
                        (TokKind::Punct, ";") => break,
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(open) = open {
                    let mut depth = 0usize;
                    let mut end = open;
                    for (kk, t) in code.iter().enumerate().skip(open) {
                        if t.kind == TokKind::Punct {
                            if t.text == "{" {
                                depth += 1;
                            } else if t.text == "}" {
                                depth -= 1;
                                if depth == 0 {
                                    end = kk;
                                    break;
                                }
                            }
                        }
                    }
                    for line in start_line..=code[end].line {
                        lines.insert(line);
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    lines
}

/// Parses `v10-lint:` directives out of the comment tokens. Well-formed
/// directives become suppression candidates; a directive with an unknown
/// rule or a missing reason is itself reported as a `META` finding.
fn collect_allows(file: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(pos) = t.text.find(DIRECTIVE) else {
            continue;
        };
        // A multi-line block-comment directive applies where the comment
        // *ends* (the directive governs the line it sits against, not the
        // line the `/*` opened on).
        let end_line = t.line + u32::try_from(t.text.matches('\n').count()).unwrap_or(u32::MAX);
        let rest = t.text[pos + DIRECTIVE.len()..].trim_start();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .and_then(|(rule, reason)| {
                RuleId::parse(rule.trim()).map(|rule| (rule, reason.trim().to_string()))
            });
        // A block comment's reason may carry the closing `*/`; strip it.
        let clean = |reason: String| {
            reason
                .trim_end_matches("*/")
                .trim_end_matches('*')
                .trim()
                .to_string()
        };
        match parsed.map(|(rule, reason)| (rule, clean(reason))) {
            Some((rule, reason)) if !reason.is_empty() => allows.push(Allow {
                rule,
                line: end_line,
                used: false,
            }),
            Some((_, _)) => findings.push(Finding {
                rule: RuleId::Meta,
                file: file.to_string(),
                line: end_line,
                col: t.col,
                message: "v10-lint allow directive is missing its reason; write \
                          `// v10-lint: allow(<rule>) <why this site is safe>`"
                    .to_string(),
            }),
            None => findings.push(Finding {
                rule: RuleId::Meta,
                file: file.to_string(),
                line: end_line,
                col: t.col,
                message: "malformed v10-lint directive; expected \
                          `// v10-lint: allow(D1|D2|D3|P1|U1|F1|O1|E1|S1) <reason>`"
                    .to_string(),
            }),
        }
    }
    (allows, findings)
}
