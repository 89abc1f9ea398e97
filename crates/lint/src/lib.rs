//! `v10-lint`: the workspace determinism, panic-freedom and dead-surface
//! static-analysis pass.
//!
//! See [`rules`] for the rule families (D1–D3, P1, the semantic families
//! U1/F1/O1/E1, and S1 for dead public surface), [`parser`] for the
//! expression-level analysis they run on, and [`workspace`] for the scope
//! policy. The binary front-end lives in `main.rs`; this library exposes
//! the scanning machinery so the fixture self-tests in `tests/` can drive
//! each rule directly.

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

use rules::Finding;
use std::path::Path;

/// Scans every in-scope file under `root`, returning every finding ordered
/// by (file, line, col). Two passes: the cross-file findings are computed
/// first — E1's event exhaustiveness (the event definition against the
/// audit module) and S1's dead public surface (every candidate item
/// against the whole [`workspace::corpus`]) — then injected into their
/// file's per-file scan so its inline allow directives and META hygiene
/// apply to them like any local finding.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let corpus = workspace::corpus(root)?;
    let source = |rel: &str| corpus.iter().find(|(r, _)| r == rel).map(|(_, s)| s);

    let e1_extras = match (
        source(workspace::EVENT_DEFINITION),
        source(workspace::AUDIT_MODULE),
    ) {
        (Some(observer_src), Some(audit_src)) => {
            rules::e1_findings(workspace::EVENT_DEFINITION, observer_src, audit_src)
        }
        // Fixture trees without the real sources simply have no E1.
        _ => Vec::new(),
    };
    let s1_extras = rules::s1_findings(&corpus);

    let mut findings = Vec::new();
    for (rel, src) in &corpus {
        let Some(scope) = workspace::scope_for(rel) else {
            continue;
        };
        let mut extra: Vec<Finding> = s1_extras
            .iter()
            .filter(|f| f.file == *rel)
            .cloned()
            .collect();
        if scope.e1 {
            extra.extend_from_slice(&e1_extras);
        }
        findings.extend(rules::scan_source_with(rel, src, scope, &extra));
    }
    Ok(findings)
}
