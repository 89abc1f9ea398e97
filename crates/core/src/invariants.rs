//! Reusable serving invariants: the predicates the robustness tests and
//! the adversarial property harness both assert.
//!
//! PR 5's integration tests pinned these properties inline (digest
//! comparison, session conservation, watchdog liveness); this module lifts
//! them into named, reusable checks so the property harness can use the
//! same oracle the tests do. Each violated predicate reports one line
//! prefixed with a stable kebab-case invariant name — the name that ends
//! up in shrink traces and repro fixtures.
//!
//! Everything here is read-only over a [`RunReport`] and panic-free.

use crate::design::{serve_design_stressed_observed, Design};
use crate::engine::RunOptions;
use crate::lifecycle::AdmissionSchedule;
use crate::metrics::RunReport;
use crate::overload::OverloadController;
use v10_npu::NpuConfig;
use v10_sim::{FaultPlan, V10Result};

use crate::audit::RuntimeAuditor;

/// A determinism digest of a run: every figure a [`RunReport`] carries, as
/// raw bits. Two runs of the same scenario must produce `==` digests, no
/// matter how many threads the runs were fanned out across. This is the
/// workspace's one digest: golden tests pin it, and the determinism checks
/// compare it.
#[must_use]
pub fn run_digest(r: &RunReport) -> Vec<u64> {
    let overlap = r.overlap();
    let stats = r.overload_stats();
    let mut d = vec![
        r.elapsed_cycles().to_bits(),
        r.sa_busy_cycles().to_bits(),
        r.vu_busy_cycles().to_bits(),
        r.switch_overhead_cycles().to_bits(),
        overlap.both.to_bits(),
        overlap.sa_only.to_bits(),
        overlap.vu_only.to_bits(),
        overlap.idle.to_bits(),
        r.hbm_util().to_bits(),
        r.rejected_admissions(),
        stats.degradations(),
        stats.shed_requests(),
        stats.boosts(),
        stats.boost_requeues(),
        stats.overload_cycles().to_bits(),
        r.replay_overhead_cycles().to_bits(),
        r.faults_injected(),
        r.core_retired_at().unwrap_or(-1.0).to_bits(),
    ];
    for wl in r.workloads() {
        d.extend([
            wl.completed_requests() as u64,
            wl.preemptions(),
            wl.busy_sa_cycles().to_bits(),
            wl.busy_vu_cycles().to_bits(),
            wl.hbm_bytes().to_bits(),
            wl.switch_overhead_cycles().to_bits(),
            wl.avg_latency_cycles().to_bits(),
            wl.priority().to_bits(),
            wl.replays(),
            wl.replay_overhead_cycles().to_bits(),
        ]);
        d.extend(wl.latencies_cycles().iter().map(|l| l.to_bits()));
    }
    d
}

/// Checks the single-core serving invariants against a run that was
/// offered `offered_sessions` tenant sessions. Returns one line per
/// violated predicate (empty = clean), each prefixed with its stable
/// invariant name:
///
/// * `finite-figures` — headline figures are finite and non-negative.
/// * `session-conservation` — boarded + rejected + shed == offered.
/// * `latency-ledger` — per-tenant completions match recorded latencies,
///   and every latency is finite and non-negative.
/// * `boost-accounting` — boosts never exceed starvation detections.
/// * `watchdog-no-silent-drop` — a starvation detection always produces a
///   boost or a queued retry, never a silent no-op.
/// * `ladder-hysteresis` — overload episodes enter at least as often as
///   they clear.
/// * `nobody-starved` — unless the core retired mid-run, every boarded
///   tenant completed at least one request.
#[must_use]
pub fn check_serve_invariants(r: &RunReport, offered_sessions: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let stats = r.overload_stats();

    if !(r.elapsed_cycles().is_finite()
        && r.elapsed_cycles() >= 0.0
        && r.sa_busy_cycles().is_finite()
        && r.vu_busy_cycles().is_finite()
        && stats.overload_cycles().is_finite())
    {
        violations.push(format!(
            "finite-figures: elapsed {} sa_busy {} vu_busy {} overload_cycles {}",
            r.elapsed_cycles(),
            r.sa_busy_cycles(),
            r.vu_busy_cycles(),
            stats.overload_cycles()
        ));
    }

    let boarded = r.workloads().len() as u64;
    let accounted = boarded + r.rejected_admissions() + stats.shed_requests();
    if accounted != offered_sessions as u64 {
        violations.push(format!(
            "session-conservation: boarded {} + rejected {} + shed {} = {} != offered {}",
            boarded,
            r.rejected_admissions(),
            stats.shed_requests(),
            accounted,
            offered_sessions
        ));
    }

    for wl in r.workloads() {
        if wl.completed_requests() != wl.latencies_cycles().len() {
            violations.push(format!(
                "latency-ledger: {} completed {} but recorded {} latencies",
                wl.label(),
                wl.completed_requests(),
                wl.latencies_cycles().len()
            ));
        }
        if let Some(&bad) = wl
            .latencies_cycles()
            .iter()
            .find(|l| !(l.is_finite() && **l >= 0.0))
        {
            violations.push(format!(
                "latency-ledger: {} recorded a degenerate latency {bad}",
                wl.label()
            ));
        }
    }

    if stats.boosts() > stats.starvations() {
        violations.push(format!(
            "boost-accounting: {} boosts exceed {} starvation detections",
            stats.boosts(),
            stats.starvations()
        ));
    }

    if stats.starvations() > 0 && stats.boosts() + stats.boost_requeues() == 0 {
        violations.push(format!(
            "watchdog-no-silent-drop: {} starvation detections produced no boost \
             and no queued retry",
            stats.starvations()
        ));
    }

    if stats.overload_entries() < stats.overload_clears() {
        violations.push(format!(
            "ladder-hysteresis: {} clears outnumber {} entries",
            stats.overload_clears(),
            stats.overload_entries()
        ));
    }

    if r.core_retired_at().is_none() {
        for wl in r.workloads() {
            if wl.completed_requests() == 0 {
                violations.push(format!(
                    "nobody-starved: {} boarded but completed no request",
                    wl.label()
                ));
            }
        }
    }

    violations
}

/// Serves `schedule` through the combined overload×fault path with a
/// [`RuntimeAuditor`] attached, returning the report plus every violation:
/// the auditor's own event-stream findings followed by
/// [`check_serve_invariants`]. An empty list means the run passed the full
/// oracle.
///
/// # Errors
///
/// As [`serve_design_stressed_observed`] — the serve itself failing (e.g.
/// an invalid design/controller combination) is an error, not a violation.
pub fn audit_serve_stressed(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
) -> V10Result<(RunReport, Vec<String>)> {
    let mut auditor = RuntimeAuditor::new();
    let report = serve_design_stressed_observed(
        design,
        schedule,
        config,
        opts,
        plan,
        controller,
        &mut auditor,
    )?;
    auditor.reconcile(&report);
    let mut violations: Vec<String> = auditor
        .violations()
        .iter()
        .map(|v| format!("auditor: {v}"))
        .collect();
    if auditor.suppressed_violations() > 0 {
        violations.push(format!(
            "auditor: {} further violations suppressed",
            auditor.suppressed_violations()
        ));
    }
    violations.extend(check_serve_invariants(&report, schedule.len()));
    Ok((report, violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkloadSpec;
    use crate::lifecycle::Admission;
    use crate::overload::OverloadPolicy;
    use v10_isa::{FuKind, OpDesc, RequestTrace};

    fn schedule() -> AdmissionSchedule {
        let mut admissions = Vec::new();
        for i in 0..4 {
            let ops = vec![
                OpDesc::builder(FuKind::Sa).compute_cycles(40_000).build(),
                OpDesc::builder(FuKind::Vu).compute_cycles(20_000).build(),
            ];
            let spec = WorkloadSpec::new(format!("t{i}"), RequestTrace::new(ops).unwrap());
            admissions.push(Admission::new(spec, (i as f64) * 1.0e4, 2).unwrap());
        }
        AdmissionSchedule::new(admissions).unwrap()
    }

    #[test]
    fn clean_runs_report_no_violations() {
        let opts = RunOptions::new(2).unwrap().with_seed(7);
        let (report, violations) = audit_serve_stressed(
            Design::V10Full,
            &schedule(),
            &NpuConfig::table5(),
            &opts,
            &FaultPlan::none(),
            OverloadController::armed(OverloadPolicy),
        )
        .unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(report.workloads().len(), 4);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let opts = RunOptions::new(2).unwrap().with_seed(7);
        let cfg = NpuConfig::table5();
        let serve = |requests: usize| {
            let opts = RunOptions::new(requests).unwrap().with_seed(7);
            crate::design::serve_design(Design::V10Full, &schedule(), &cfg, &opts).unwrap()
        };
        let a = run_digest(&serve(2));
        let b = run_digest(&serve(2));
        assert_eq!(a, b, "equal runs must digest equally");
        let c = run_digest(
            &crate::design::serve_design(Design::V10Base, &schedule(), &cfg, &opts).unwrap(),
        );
        assert_ne!(a, c, "different designs must digest differently");
    }

    #[test]
    fn conservation_check_catches_a_lost_session() {
        let opts = RunOptions::new(2).unwrap().with_seed(7);
        let report =
            crate::design::serve_design(Design::V10Full, &schedule(), &NpuConfig::table5(), &opts)
                .unwrap();
        assert!(check_serve_invariants(&report, schedule().len()).is_empty());
        let wrong = check_serve_invariants(&report, schedule().len() + 1);
        assert!(wrong.iter().any(|v| v.starts_with("session-conservation")));
    }
}
