//! Workspace enumeration: which files are scanned, and with which rules.
//!
//! Scope policy (mirrors the rule docs in [`crate::rules`]):
//!
//! * **D1/D2** apply to the library sources (`crates/<c>/src/**`) of every
//!   simulator-path crate. `v10-bench` is exempt — its `timing.rs`
//!   wall-clock use is the measurement harness, and harness ordering never
//!   feeds simulated results. The root `v10` facade is scanned too (it
//!   re-exports sim-path API and must not grow nondeterministic helpers).
//! * **D3** applies only to the cycle/byte *accounting modules* listed in
//!   [`ACCOUNTING_MODULES`] — the files whose arithmetic lands in golden
//!   figures.
//! * **P1** applies to the library sources of the crates in
//!   [`P1_CRATES`] (`v10-core`, `v10-isa`, `v10-npu`, `v10-sim`,
//!   `v10-workloads`),
//!   whose public API promises typed `V10Error`s.
//! * **U1** (unit safety) applies to the same accounting modules as D3:
//!   the files where a unitless `f64`/`u64` on the public surface is a
//!   latent unit bug.
//! * **F1** (float-order) and **O1** (observer purity) apply wherever
//!   D1/D2 do, *plus* the integration surface: root `examples/`, root
//!   `tests/`, and the `tests/` trees of sim-path crates. Example and
//!   test drivers feed golden comparisons, so a NaN-unstable sort or an
//!   impure observer there corrupts the spine just as surely.
//! * **E1** (event exhaustiveness) is a cross-file check anchored at the
//!   `SimEvent` definition (`crates/core/src/observer.rs`); it is computed
//!   once per workspace scan against the counter and audit sources.
//! * **S1** (dead public surface) checks the `pub fn`/`pub const` items of
//!   every sim-path crate's `src/` tree against the whole [`corpus`]: every
//!   `.rs` file under [`CORPUS_DIRS`], so a use from a bench, example,
//!   test or the benchmark package keeps an item alive.
//!
//! Inline test code (`#[cfg(test)]` / `#[test]` regions) is exempt from
//! every rule: tests may panic, and they never feed golden output.
//! Integration-test *files* are scanned, but only for the determinism
//! families (D1/D2/F1/O1) — they drive golden runs but make no
//! error-contract or unit-surface promises.

use crate::rules::Scope;
use std::path::{Path, PathBuf};

/// Crates whose code executes on the simulated path.
pub const SIM_CRATES: [&str; 7] = [
    "sim",
    "isa",
    "npu",
    "systolic",
    "core",
    "workloads",
    "collocate",
];

/// Crates under the P1 panic-freedom rule.
pub const P1_CRATES: [&str; 5] = ["core", "isa", "npu", "sim", "workloads"];

/// Cycle/byte accounting modules under the D3 cast rule (repo-relative,
/// unix separators).
pub const ACCOUNTING_MODULES: [&str; 18] = [
    "crates/npu/src/hbm.rs",
    "crates/npu/src/dma.rs",
    "crates/systolic/src/array.rs",
    "crates/systolic/src/compile.rs",
    "crates/systolic/src/fifo.rs",
    "crates/systolic/src/matrix.rs",
    "crates/systolic/src/vector_unit.rs",
    "crates/systolic/src/vmem.rs",
    "crates/sim/src/time.rs",
    "crates/sim/src/bandwidth.rs",
    "crates/sim/src/stats.rs",
    "crates/core/src/overhead.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/engine_core.rs",
    "crates/core/src/packed.rs",
    "crates/core/src/policy.rs",
    "crates/sim/src/shard.rs",
    "crates/sim/src/calendar.rs",
];

/// One file to scan: its repo-relative path (unix separators, the stable
/// key used in diagnostics and the baseline) and the rules that apply.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Rule families to run on this file.
    pub scope: Scope,
}

/// The file that defines `pub enum SimEvent` and `CounterObserver` — the
/// anchor for E1's cross-file exhaustiveness findings.
pub const EVENT_DEFINITION: &str = "crates/core/src/observer.rs";

/// The file holding the runtime auditors (`RuntimeAuditor`,
/// `FleetConservation`) that E1 checks variant coverage against.
pub const AUDIT_MODULE: &str = "crates/core/src/audit.rs";

/// Top-level directories whose `.rs` files S1 searches for uses.
pub const CORPUS_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark"];

/// The crate whose library `src/` tree holds `rel` (`crates/<c>/src/...`).
#[must_use]
pub fn src_crate(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// The scope for a repo-relative path, or `None` if the file is not
/// scanned at all.
#[must_use]
pub fn scope_for(rel: &str) -> Option<Scope> {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    let in_tests = |c: &str| rel.starts_with(&format!("crates/{c}/tests/"));

    let sim_src = src_crate(rel).is_some_and(|c| SIM_CRATES.contains(&c));
    let sim_path = sim_src || rel == "src/lib.rs";
    // The integration surface: example drivers and test harnesses whose
    // output feeds golden comparisons.
    let integration = rel.starts_with("examples/")
        || rel.starts_with("tests/")
        || crate_name
            .map(|c| SIM_CRATES.contains(&c) && in_tests(c))
            .unwrap_or(false);
    let p1 = src_crate(rel).is_some_and(|c| P1_CRATES.contains(&c));
    let d3 = ACCOUNTING_MODULES.contains(&rel);

    if !sim_path && !integration && !p1 && !d3 {
        return None;
    }
    Some(Scope {
        d1: sim_path || integration,
        d2: sim_path || integration,
        d3,
        p1,
        u1: d3,
        f1: sim_path || integration,
        o1: sim_path || integration,
        e1: rel == EVENT_DEFINITION,
        s1: sim_src,
    })
}

/// Enumerates every scanned file under `root`, sorted by relative path so
/// diagnostics are deterministic.
pub fn enumerate(root: &Path) -> Result<Vec<SourceFile>, String> {
    Ok(rust_files(root, &["src", "examples", "tests", "crates"])?
        .into_iter()
        .filter_map(|(rel, abs)| scope_for(&rel).map(|scope| SourceFile { rel, abs, scope }))
        .collect())
}

/// S1's use corpus: every `.rs` file under [`CORPUS_DIRS`] as
/// `(repo-relative path, source text)`, sorted by path.
pub fn corpus(root: &Path) -> Result<Vec<(String, String)>, String> {
    rust_files(root, &CORPUS_DIRS)?
        .into_iter()
        .map(|(rel, abs)| {
            std::fs::read_to_string(&abs)
                .map(|src| (rel, src))
                .map_err(|e| format!("reading {}: {e}", abs.display()))
        })
        .collect()
}

/// Every `.rs` file under `root`'s top-level `dirs` (missing ones are
/// skipped, and so are `target` build trees), as `(repo-relative path with
/// `/` separators, absolute path)` sorted by the relative path.
fn rust_files(root: &Path, dirs: &[&str]) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = dirs
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("reading {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|_| format!("{} escapes the root", path.display()))?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_policy() {
        let s = scope_for("crates/core/src/engine.rs").unwrap();
        assert!(s.d1 && s.d2 && s.p1 && !s.d3);
        assert!(s.f1 && s.o1 && !s.u1 && !s.e1);

        let s = scope_for("crates/npu/src/hbm.rs").unwrap();
        assert!(s.d1 && s.d2 && s.d3 && s.p1);
        assert!(s.u1);

        let s = scope_for("crates/sim/src/time.rs").unwrap();
        assert!(s.d1 && s.d2 && s.d3 && s.p1 && s.u1);

        let s = scope_for("crates/workloads/src/zoo.rs").unwrap();
        assert!(s.d1 && s.d2 && !s.d3 && s.p1);

        let s = scope_for("crates/isa/src/dag.rs").unwrap();
        assert!(s.d1 && s.d2 && !s.d3 && s.p1);

        let s = scope_for("crates/collocate/src/placer.rs").unwrap();
        assert!(s.d1 && s.d2 && !s.d3 && !s.p1);

        // The bench harness is out of scope entirely (wall-clock timing
        // is its job), as is the lint crate itself (fixtures must stay
        // unscanned).
        assert!(scope_for("crates/bench/src/timing.rs").is_none());
        assert!(scope_for("crates/bench/tests/golden_run.rs").is_none());
        assert!(scope_for("crates/lint/tests/fixtures/d1_hash_container.rs").is_none());

        // Integration surface: determinism families only.
        let s = scope_for("crates/core/tests/context.rs").unwrap();
        assert!(s.d1 && s.d2 && s.f1 && s.o1 && !s.d3 && !s.p1 && !s.u1 && !s.e1);
        let s = scope_for("tests/golden_run.rs").unwrap();
        assert!(s.d1 && s.d2 && s.f1 && s.o1 && !s.p1 && !s.u1);
        let s = scope_for("examples/quickstart.rs").unwrap();
        assert!(s.d1 && s.d2 && s.f1 && s.o1 && !s.p1 && !s.u1);

        // New accounting modules carry D3 + U1.
        let s = scope_for("crates/core/src/packed.rs").unwrap();
        assert!(s.d3 && s.u1);
        let s = scope_for("crates/sim/src/calendar.rs").unwrap();
        assert!(s.d3 && s.u1);

        // E1 anchors at the event definition only.
        assert!(scope_for(EVENT_DEFINITION).unwrap().e1);
        assert!(!scope_for("crates/core/src/engine.rs").unwrap().e1);

        // S1 checks the library trees of the sim-path crates, not the
        // facade, their tests, or the bench crate.
        assert!(scope_for("crates/collocate/src/fleet.rs").unwrap().s1);
        assert!(!scope_for("src/lib.rs").unwrap().s1);
        assert!(!scope_for("crates/core/tests/calendar_diff.rs").unwrap().s1);
        assert_eq!(src_crate("crates/core/src/engine.rs"), Some("core"));
        assert_eq!(src_crate("crates/core/tests/calendar_diff.rs"), None);
        assert_eq!(src_crate("tests/golden_run.rs"), None);

        // The facade is sim-path for D1/D2.
        let s = scope_for("src/lib.rs").unwrap();
        assert!(s.d1 && s.d2 && !s.d3 && !s.p1);

        // The adversarial scenario engine and the property harness land
        // on the standard per-crate scopes: workloads, core and sim
        // modules carry D1/D2 and P1 (repro.rs does no cycle arithmetic,
        // so D3/U1 stay off), and the root-level integration suite the
        // determinism families.
        let s = scope_for("crates/workloads/src/adversary.rs").unwrap();
        assert!(s.d1 && s.d2 && !s.d3 && s.p1);
        let s = scope_for("crates/core/src/harness.rs").unwrap();
        assert!(s.d1 && s.d2 && s.p1 && !s.d3);
        let s = scope_for("crates/core/src/invariants.rs").unwrap();
        assert!(s.d1 && s.d2 && s.p1 && !s.d3);
        let s = scope_for("crates/sim/src/repro.rs").unwrap();
        assert!(s.d1 && s.d2 && s.p1 && !s.d3 && !s.u1);
        let s = scope_for("tests/adversary.rs").unwrap();
        assert!(s.d1 && s.d2 && s.f1 && s.o1 && !s.p1 && !s.u1);
        let s = scope_for("examples/adversary_hunt.rs").unwrap();
        assert!(s.d1 && s.d2 && s.f1 && s.o1 && !s.p1 && !s.u1);
    }
}
