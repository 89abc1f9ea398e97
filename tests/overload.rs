//! Overload control-plane integration tests: bursty MMPP arrival streams
//! against the graceful-degradation ladder, the starvation watchdog, and
//! the runtime invariant auditor.
//!
//! Pins the three contracts the control plane ships with:
//!
//! * **Armed acts, deterministically.** Under a flash crowd the armed
//!   [`OverloadController`] changes every V10 design's run, and the armed
//!   digests replay bit-identically no matter how many threads the runs are
//!   spread across. (Disarmed serving *is* plain `serve_design`: both are
//!   the one stressed path with a disarmed controller.)
//! * **Armed beats hard rejection.** Under a 2× flash crowd on a small
//!   context table, parking the overflow and browning out beats bouncing
//!   arrivals: strictly more requests complete with zero hard rejections.
//! * **Nobody starves past the watchdog bound.** Every admitted tenant
//!   completes at least one request, and a tenant pinned below the
//!   active-rate bound gets boosted within its window.
//!
//! Every armed run replays through a [`RuntimeAuditor`] and must come out
//! clean, including the [`RunReport`] reconciliation.

use v10::core::{
    audit_serve_stressed, run_digest, serve_design, serve_design_stressed,
    serve_design_stressed_observed, Admission, AdmissionSchedule, Design, OverloadController,
    OverloadPolicy, RunOptions, RunReport, RuntimeAuditor, WorkloadSpec,
};
use v10::npu::NpuConfig;
use v10::sim::{parallel_map_with, FaultKind, FaultPlan};
use v10::workloads::{MmppProcess, Model, OpenLoopProcess};

/// Context-table slots: small on purpose, so the flash crowd overflows it.
const TABLE_SLOTS: usize = 4;

/// A seeded flash-crowd schedule over three light models.
fn flash_schedule(burst_factor: f64) -> AdmissionSchedule {
    const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
    let arrivals = MmppProcess::flash_crowd(&MODELS, 6.0e6, burst_factor, 2.0e7, 0xC0FFEE ^ 0x6)
        .unwrap()
        .with_requests_per_session(3)
        .unwrap()
        .with_think_cycles(2.5e5)
        .unwrap()
        .sample(24)
        .unwrap();
    let admissions: Vec<Admission> = arrivals
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.shared_label(), a.source().clone()),
                a.at_cycles(),
                a.requests(),
            )
            .unwrap()
        })
        .collect();
    AdmissionSchedule::new(admissions).unwrap()
}

fn serve_opts() -> RunOptions {
    RunOptions::new(3)
        .unwrap()
        .with_seed(7)
        .with_table_capacity(TABLE_SLOTS)
        .unwrap()
}

/// Serves under the controller with the auditor attached, asserting the
/// stream and the report reconcile cleanly.
fn serve_audited(
    design: Design,
    schedule: &AdmissionSchedule,
    opts: &RunOptions,
    controller: OverloadController,
) -> RunReport {
    let mut auditor = RuntimeAuditor::new();
    let report = serve_design_stressed_observed(
        design,
        schedule,
        &NpuConfig::table5(),
        opts,
        &FaultPlan::none(),
        controller,
        &mut auditor,
    )
    .unwrap();
    auditor.reconcile(&report);
    assert!(
        auditor.is_clean(),
        "{design:?}: auditor flagged {:?} (+{} suppressed)",
        auditor.violations(),
        auditor.suppressed_violations()
    );
    report
}

fn completed(r: &RunReport) -> usize {
    r.workloads().iter().map(|w| w.completed_requests()).sum()
}

/// Armed runs on the V10 designs actually differ from plain serving (the
/// crowd overflows the 4-slot table, so the control plane must act), and
/// replay bit-identically across 1/2/4-thread fan-outs.
#[test]
fn armed_overload_serving_acts_and_replays_across_threads() {
    let cfg = NpuConfig::table5();
    let schedule = flash_schedule(2.0);
    let armed_designs = [Design::V10Base, Design::V10Fair, Design::V10Full];
    let serve_armed = |&design: &Design| {
        run_digest(
            &serve_design_stressed(
                design,
                &schedule,
                &cfg,
                &serve_opts(),
                &FaultPlan::none(),
                OverloadController::armed(OverloadPolicy),
            )
            .unwrap(),
        )
    };
    let sequential = parallel_map_with(1, &armed_designs, serve_armed);
    for (design, armed) in armed_designs.iter().zip(&sequential) {
        let plain = serve_design(*design, &schedule, &cfg, &serve_opts()).unwrap();
        assert_ne!(
            *armed,
            run_digest(&plain),
            "{design:?}: the armed controller never acted"
        );
    }
    for threads in [2usize, 4] {
        assert_eq!(
            parallel_map_with(threads, &armed_designs, serve_armed),
            sequential,
            "armed digests diverged between sequential and {threads}-thread runs"
        );
    }
}

/// Under a 2× flash crowd on the small table, the armed controller parks
/// the overflow instead of bouncing it: strictly more requests complete,
/// nothing is hard-rejected, and the ladder visibly acted. Both runs audit
/// clean.
#[test]
fn armed_controller_beats_hard_rejection_under_a_2x_flash_crowd() {
    let schedule = flash_schedule(2.0);
    let opts = serve_opts();
    let plain = serve_audited(
        Design::V10Full,
        &schedule,
        &opts,
        OverloadController::disarmed(),
    );
    let armed = serve_audited(
        Design::V10Full,
        &schedule,
        &opts,
        OverloadController::armed(OverloadPolicy),
    );

    assert!(
        plain.rejected_admissions() > 0,
        "the crowd must overflow the table for the comparison to mean anything"
    );
    assert_eq!(
        armed.rejected_admissions(),
        0,
        "queue-on-full admission must absorb the overflow"
    );
    assert!(
        completed(&armed) > completed(&plain),
        "armed goodput {} must strictly beat uncontrolled {}",
        completed(&armed),
        completed(&plain)
    );
    let stats = armed.overload_stats();
    assert!(
        stats.overload_entries() > 0,
        "the controller never sensed the burst"
    );
    assert!(stats.degradations() > 0, "the ladder never acted");
    assert_eq!(
        stats.overload_entries(),
        stats.overload_clears(),
        "every overload episode must clear by the end of the run"
    );
    assert!(stats.overload_cycles() > 0.0);

    // Conservation: every offered session is accounted for — served some
    // requests, was hard-rejected, or had parked work shed.
    assert_eq!(
        armed.workloads().len() + stats.shed_requests() as usize,
        schedule.len(),
        "armed run lost track of a tenant"
    );
}

/// One DLRM tenant at `priority` against seven DLRM peers, all resident
/// from cycle 0 with 8 requests each on the default 8-slot table. Under
/// the priority-blind round-robin baseline the tenant gets a 1-in-8 share,
/// so its priority-normalized active rate (`active_rate_p`) sits below the
/// watchdog's 0.02 bound for whole 8e6-cycle windows. Served on V10-Base
/// with the auditor attached.
fn starved_among_seven_peers(label: &str, priority: f64) -> RunReport {
    let starved = WorkloadSpec::new(label, Model::Dlrm.default_profile().synthesize(5))
        .with_priority(priority)
        .unwrap();
    let mut admissions = vec![Admission::new(starved, 0.0, 8).unwrap()];
    for (i, seed) in (6u64..13).enumerate() {
        let spec = WorkloadSpec::new(
            format!("peer-{i}"),
            Model::Dlrm.default_profile().synthesize(seed),
        );
        admissions.push(Admission::new(spec, 0.0, 8).unwrap());
    }
    let schedule = AdmissionSchedule::new(admissions).unwrap();
    let opts = RunOptions::new(8).unwrap().with_seed(7);
    serve_audited(
        Design::V10Base,
        &schedule,
        &opts,
        OverloadController::armed(OverloadPolicy),
    )
}

/// The round-robin scheduler never repairs a high-priority tenant's
/// 1-in-8 share, so the watchdog must: starvation detections fire, a
/// boost follows (never more boosts than detections), the boost is
/// visible in the tenant's final priority, and every admitted tenant
/// still completes requests. The whole stream audits clean.
#[test]
fn watchdog_boosts_starving_tenants_and_nobody_is_left_behind() {
    let report = starved_among_seven_peers("starved", 12.0);
    let stats = report.overload_stats();
    assert!(
        stats.starvations() > 0,
        "the under-served high-priority tenant must trip the watchdog"
    );
    assert!(
        stats.boosts() > 0,
        "a starved tenant below the priority cap must be boosted"
    );
    assert!(
        stats.boosts() <= stats.starvations(),
        "boosts only happen on starvation detections"
    );
    let starved_report = report
        .workloads()
        .iter()
        .find(|w| w.label() == "starved")
        .expect("the starved tenant was admitted at cycle 0");
    assert_eq!(
        starved_report.priority(),
        16.0,
        "the boost (12 x 2, capped at 16) must be visible in the final priority"
    );
    for wl in report.workloads() {
        assert!(
            wl.completed_requests() >= 1,
            "{} was admitted but never served a request",
            wl.label()
        );
    }
}

/// Open-loop Poisson serving stays sound under an armed fault plan: with
/// Poisson transient corruptions and scripted whole-core stalls injected
/// into an armed controller's run, V10-Base and V10-Full both audit clean,
/// and the plan actually fires.
#[test]
fn poisson_serving_audits_clean_under_armed_fault_plans() {
    const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
    let admissions = OpenLoopProcess::new(&MODELS, 5.0e6, 0xFEED)
        .unwrap()
        .with_think_cycles(2.5e5)
        .unwrap()
        .sample(10)
        .unwrap()
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.shared_label(), a.source().clone()),
                a.at_cycles(),
                a.requests(),
            )
            .unwrap()
        })
        .collect();
    let schedule = AdmissionSchedule::new(admissions).unwrap();
    let mut plan = FaultPlan::none()
        .with_fault(1.0e6, FaultKind::TransientOp { victim_salt: 0xA5 })
        .unwrap()
        .with_poisson_transients(0xDEAD, 4.0e6, 4.0e7)
        .unwrap();
    let stall = FaultKind::CoreStall {
        stall_cycles: 5.0e4,
    };
    for at in [9.0e6, 1.8e7, 2.7e7, 3.6e7] {
        plan = plan.with_fault(at, stall).unwrap();
    }
    for design in [Design::V10Base, Design::V10Full] {
        let (report, violations) = audit_serve_stressed(
            design,
            &schedule,
            &NpuConfig::table5(),
            &serve_opts(),
            &plan,
            OverloadController::armed(OverloadPolicy),
        )
        .unwrap();
        assert!(violations.is_empty(), "{design:?}: {violations:?}");
        assert!(
            report.faults_injected() > 0,
            "{design:?}: the fault plan must actually fire"
        );
    }
}

/// Regression for the watchdog/capacity fix: a starved tenant already at
/// the priority ceiling used to have its boost silently no-op — detection
/// fired, nothing changed, and the tenant stayed starved with no trace.
/// The fix re-queues the capped boost and counts it. Pin the post-fix
/// contract: detections fire, zero boosts land (the cap binds), at least
/// one re-queue is recorded, the priority is unchanged, and the run still
/// audits clean with nobody shut out.
#[test]
fn capped_watchdog_boost_is_requeued_not_dropped() {
    // The boost test's scenario with the starved tenant already at the
    // watchdog's priority cap of 16, so every boost would no-op.
    let report = starved_among_seven_peers("capped", 16.0);
    let stats = report.overload_stats();
    assert!(
        stats.starvations() > 0,
        "the capped tenant must still trip the watchdog"
    );
    assert_eq!(
        stats.boosts(),
        0,
        "every boost hits the ceiling, so none may land"
    );
    assert!(
        stats.boost_requeues() >= 1,
        "a capped boost must be re-queued, not silently dropped"
    );
    let capped = report
        .workloads()
        .iter()
        .find(|w| w.label() == "capped")
        .expect("the capped tenant was admitted at cycle 0");
    assert_eq!(capped.priority(), 16.0, "the ceiling holds");
    for wl in report.workloads() {
        assert!(
            wl.completed_requests() >= 1,
            "{} was admitted but never served a request",
            wl.label()
        );
    }
}
