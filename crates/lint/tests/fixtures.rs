//! Fixture self-tests: each rule family is driven against a source file
//! seeding exactly one violation, and the test asserts the rule id and the
//! span. Scanning the same fixture with that one rule disabled must come
//! back clean — so these tests fail if a rule is ever turned off or its
//! detection regresses.

use v10_lint::rules::{scan_source, Finding, RuleId, Scope};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Scans a fixture under the given scope.
fn scan(name: &str, scope: Scope) -> Vec<Finding> {
    scan_source(name, &fixture(name), scope)
}

/// Asserts the fixture yields exactly one finding of `rule` at `line`,
/// and none at all once `disabled` (the same scope minus that rule) is used.
fn assert_rule_fires(name: &str, rule: RuleId, line: u32, col: u32, disabled: Scope) {
    let findings = scan(name, Scope::all());
    assert_eq!(
        findings.len(),
        1,
        "{name}: expected exactly one finding, got {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, rule, "{name}: wrong rule: {f:?}");
    assert_eq!((f.line, f.col), (line, col), "{name}: wrong span: {f:?}");
    assert_eq!(f.file, name);

    let off = scan(name, disabled);
    assert!(
        off.is_empty(),
        "{name}: rule disabled but still fired: {off:#?}"
    );
}

#[test]
fn d1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.d1 = false;
    assert_rule_fires("d1_hash_container.rs", RuleId::D1, 4, 38, disabled);
}

#[test]
fn d2_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.d2 = false;
    assert_rule_fires("d2_wall_clock.rs", RuleId::D2, 4, 28, disabled);
}

#[test]
fn d3_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.d3 = false;
    assert_rule_fires("d3_bare_cast.rs", RuleId::D3, 4, 7, disabled);
}

#[test]
fn p1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.p1 = false;
    assert_rule_fires("p1_panic_path.rs", RuleId::P1, 4, 25, disabled);
}

#[test]
fn u1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.u1 = false;
    assert_rule_fires("u1_raw_unit.rs", RuleId::U1, 11, 30, disabled);
}

#[test]
fn f1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.f1 = false;
    assert_rule_fires("f1_float_order.rs", RuleId::F1, 7, 36, disabled);
}

#[test]
fn o1_fixture_fires_and_respects_scope() {
    let mut disabled = Scope::all();
    disabled.o1 = false;
    assert_rule_fires("o1_observer_io.rs", RuleId::O1, 14, 13, disabled);
}

/// F1a: `.partial_cmp(` is flagged regardless of operand provenance, and
/// `total_cmp` never is.
#[test]
fn f1a_partial_cmp_fires() {
    let src = "pub fn order(xs: &mut Vec<f64>) {\n    \
               xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let scope = Scope {
        f1: true,
        ..Scope::default()
    };
    let findings = scan_source("pc.rs", src, scope);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::F1);
    assert!(findings[0].message.contains("partial_cmp"));
}

/// F1c: a float sum over a hash container's iteration order.
#[test]
fn f1c_hash_sum_fires() {
    let src = "pub fn total() -> f64 {\n    \
               let m: HashMap<u32, f64> = HashMap::new();\n    \
               m.values().copied().sum::<f64>()\n}\n";
    let scope = Scope {
        f1: true,
        ..Scope::default()
    };
    let findings = scan_source("hs.rs", src, scope);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::F1);
    assert!(findings[0].message.contains("hash"), "{findings:#?}");

    // The same reduction over a BTreeMap is deterministic: clean.
    let ok = "pub fn total() -> f64 {\n    \
              let m: BTreeMap<u32, f64> = BTreeMap::new();\n    \
              m.values().copied().sum::<f64>()\n}\n";
    assert!(scan_source("bs.rs", ok, scope).is_empty());
}

/// A multi-line block-comment directive applies at the comment's *end*;
/// the fixture's D2 site on the following line is suppressed and the
/// directive counts as used (no META).
#[test]
fn block_directive_suppresses_across_lines() {
    let findings = scan("block_directive.rs", Scope::all());
    assert!(
        findings.is_empty(),
        "block directive failed to suppress: {findings:#?}"
    );
}

/// E1 drives on synthetic sources: a variant absent from the counter impl
/// or the audit module is flagged at its definition line; full coverage is
/// clean; an allow directive on the variant line acknowledges it.
#[test]
fn e1_flags_uncounted_and_unaudited_variants() {
    let observer = "pub enum SimEvent {\n    OpIssued,\n    OpCompleted,\n    GhostEvent,\n}\n\
                    pub struct CounterObserver;\n\
                    impl SimObserver for CounterObserver {\n    \
                    fn on_event(&mut self, e: &SimEvent) {\n        \
                    match e {\n            \
                    SimEvent::OpIssued => {}\n            \
                    SimEvent::OpCompleted => {}\n            \
                    _ => {}\n        }\n    }\n}\n";
    let audit = "fn check() { let _ = (SimEvent::OpIssued, SimEvent::OpCompleted); }\n";

    let findings = v10_lint::rules::e1_findings("obs.rs", observer, audit);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::E1);
    assert_eq!(findings[0].line, 4, "GhostEvent's definition line");
    assert!(findings[0].message.contains("GhostEvent"));
    assert!(findings[0].message.contains("neither"), "{findings:#?}");

    // Counted but unaudited: message names the missing side.
    let audit_missing = "fn check() { let _ = SimEvent::OpIssued; }\n";
    let observer_counted = observer.replace("GhostEvent,\n", "");
    let findings = v10_lint::rules::e1_findings("obs.rs", &observer_counted, audit_missing);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("audit"), "{findings:#?}");

    // Full coverage is clean.
    let findings = v10_lint::rules::e1_findings("obs.rs", &observer_counted, audit);
    assert!(findings.is_empty(), "{findings:#?}");
}

/// E1 extras flow through the allow machinery: a directive on the variant
/// definition line suppresses the finding, and an unused E1 directive is a
/// META error.
#[test]
fn e1_findings_respect_allow_directives() {
    let observer = "pub enum SimEvent {\n    \
                    // v10-lint: allow(E1) fixture: diagnostic-only event, deliberately unaudited\n    \
                    GhostEvent,\n}\n";
    let audit = "fn check() {}\n";
    let extras = v10_lint::rules::e1_findings("obs.rs", observer, audit);
    assert_eq!(extras.len(), 1);

    let scope = Scope {
        e1: true,
        ..Scope::default()
    };
    let findings = v10_lint::rules::scan_source_with("obs.rs", observer, scope, &extras);
    assert!(
        findings.is_empty(),
        "allow(E1) on the variant line must suppress: {findings:#?}"
    );

    // Without the extra, the directive is unused — a META error.
    let findings = v10_lint::rules::scan_source_with("obs.rs", observer, scope, &[]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, RuleId::Meta);
}

/// S1 is cross-file, so the fixture is scanned as a sim crate's library
/// file (`crates/sim/src/`) next to a second file that calls one of its
/// functions and builds its `FixtureTally`. The function only its own test
/// module names fires; so does the getter named elsewhere only as a field
/// (a `.fixture_count` read or a `fixture_count:` initialiser); the one
/// called from elsewhere does not; the allow directive suppresses the
/// fourth without a META finding. The same file outside S1's scope (the
/// bench crate) yields nothing.
#[test]
fn s1_fixture_fires_and_respects_scope() {
    let src = fixture("s1_dead_pub.rs");
    let caller = "fn f() -> u32 {\n    v10_sim::fixture_used_elsewhere()\n}\n\n\
                  fn g() -> v10_sim::FixtureTally {\n    \
                  v10_sim::FixtureTally { fixture_count: 3 }\n}\n\n\
                  fn h() -> u32 {\n    v10_sim::fixture_alias()\n}\n"
        .to_string();
    let corpus_at = |rel: &str| {
        vec![
            (rel.to_string(), src.clone()),
            ("crates/core/src/caller.rs".to_string(), caller.clone()),
        ]
    };

    let rel = "crates/sim/src/s1_dead_pub.rs";
    let extras = v10_lint::rules::s1_findings(&corpus_at(rel));
    assert_eq!(
        extras.len(),
        4,
        "test-only, field-named, re-exported and kept: {extras:#?}"
    );
    let scope = v10_lint::workspace::scope_for(rel).expect("sim library file");
    let findings = v10_lint::rules::scan_source_with(rel, &src, scope, &extras);
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert!(
        findings.iter().all(|f| f.rule == RuleId::S1),
        "{findings:#?}"
    );
    let f = &findings[0];
    assert_eq!((f.line, f.col), (7, 5), "{f:?}");
    assert!(f.message.contains("fixture_test_only"), "{f:?}");
    let f = &findings[1];
    assert_eq!((f.line, f.col), (33, 9), "{f:?}");
    assert!(f.message.contains("`fixture_count`"), "{f:?}");
    let f = &findings[2];
    assert_eq!((f.line, f.col), (42, 9), "{f:?}");
    assert!(f.message.contains("`fixture_reexported`"), "{f:?}");

    // Without its caller, the used function is dead too; the renamed one
    // stays live, since its `as` import names it.
    let alone = v10_lint::rules::s1_findings(&corpus_at(rel)[..1]);
    assert_eq!(alone.len(), 5, "{alone:#?}");

    // Outside the sim crates' library trees S1 checks nothing.
    let off = v10_lint::rules::s1_findings(&corpus_at("crates/bench/src/s1_dead_pub.rs"));
    assert!(
        off.is_empty(),
        "rule out of scope but still fired: {off:#?}"
    );
}

/// The allow escape hatch suppresses the finding it covers; a directive
/// covering nothing is itself reported (META), so stale hatches cannot
/// accumulate.
#[test]
fn allow_directive_suppresses_and_unused_directive_is_meta() {
    let findings = scan("allow_escape_hatch.rs", Scope::all());
    assert_eq!(
        findings.len(),
        1,
        "expected only the unused-directive META finding, got {findings:#?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::Meta, "{f:?}");
    assert_eq!(f.line, 10, "the unused allow(D1) directive: {f:?}");
    assert!(f.message.contains("unused"), "{f:?}");
}

/// A directive without a reason is rejected outright.
#[test]
fn allow_directive_without_reason_is_meta() {
    let src = "fn f(xs: &[u64]) -> u64 {\n    // v10-lint: allow(P1)\n    xs.first().copied().unwrap()\n}\n";
    let findings = scan_source("no_reason.rs", src, Scope::all());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == RuleId::Meta && f.message.contains("reason")),
        "missing-reason directive not reported: {findings:#?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == RuleId::P1),
        "a reasonless directive must not suppress the finding: {findings:#?}"
    );
}

/// Test code is out of scope: the same violations inside `#[cfg(test)]`
/// modules or `#[test]` functions are not reported.
#[test]
fn test_regions_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn helper(xs: &[u64]) -> u64 {\n        xs.first().copied().unwrap()\n    }\n}\n";
    let findings = scan_source("test_only.rs", src, Scope::all());
    assert!(
        findings.is_empty(),
        "test-region code reported: {findings:#?}"
    );
}
