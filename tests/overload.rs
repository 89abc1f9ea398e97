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
                WorkloadSpec::new(a.label(), a.trace().clone()),
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

/// A single-state MMPP is exactly the Poisson stream the plain open-loop
/// process emits, so serving either schedule is the same run, bit for bit.
#[test]
fn single_state_mmpp_serves_identically_to_poisson() {
    const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
    let schedule_of = |arrivals: Vec<v10::workloads::TimedArrival>| {
        AdmissionSchedule::new(
            arrivals
                .iter()
                .map(|a| {
                    Admission::new(
                        WorkloadSpec::new(a.label(), a.trace().clone()),
                        a.at_cycles(),
                        a.requests(),
                    )
                    .unwrap()
                })
                .collect(),
        )
        .unwrap()
    };
    let mmpp = schedule_of(
        MmppProcess::single_state(&MODELS, 5.0e6, 0xFEED)
            .unwrap()
            .with_think_cycles(2.5e5)
            .unwrap()
            .sample(10)
            .unwrap(),
    );
    let poisson = schedule_of(
        OpenLoopProcess::new(&MODELS, 5.0e6, 0xFEED)
            .unwrap()
            .with_requests_per_session(4)
            .unwrap()
            .with_think_cycles(2.5e5)
            .unwrap()
            .sample(10)
            .unwrap(),
    );
    let opts = serve_opts();
    let cfg = NpuConfig::table5();
    let a = serve_design(Design::V10Full, &mmpp, &cfg, &opts).unwrap();
    let b = serve_design(Design::V10Full, &poisson, &cfg, &opts).unwrap();
    assert_eq!(run_digest(&a), run_digest(&b));
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
                OverloadController::armed(OverloadPolicy::default()),
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
        OverloadController::armed(OverloadPolicy::default()),
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

/// Under the priority-blind round-robin baseline, a high-priority tenant
/// only ever gets a 1-in-N share, so its priority-normalized active rate
/// (`active_rate_p`) sits far below the watchdog bound — the scheduler
/// will never repair that, so the watchdog must: starvation detections
/// fire, boosts follow (never exceeding detections), the boost is visible
/// in the tenant's final priority, and every admitted tenant still
/// completes requests. The whole stream audits clean.
#[test]
fn watchdog_boosts_starving_tenants_and_nobody_is_left_behind() {
    // One 16×-priority tenant against three peers the round-robin policy
    // treats identically, all resident from cycle 0 with equal quotas.
    let starved = WorkloadSpec::new("starved", Model::Dlrm.default_profile().synthesize(5))
        .with_priority(16.0)
        .unwrap();
    let mut admissions = vec![Admission::new(starved, 0.0, 8).unwrap()];
    for (i, seed) in [6u64, 7, 8].iter().enumerate() {
        let spec = WorkloadSpec::new(
            format!("peer-{i}"),
            Model::Dlrm.default_profile().synthesize(*seed),
        );
        admissions.push(Admission::new(spec, 0.0, 8).unwrap());
    }
    let schedule = AdmissionSchedule::new(admissions).unwrap();
    let opts = RunOptions::new(8).unwrap().with_seed(7);
    let policy = OverloadPolicy::default()
        .with_sense_interval_cycles(2.0e5)
        .unwrap()
        .with_watchdog(1.0e6, 0.1, 4.0, 256.0)
        .unwrap();
    let report = serve_audited(
        Design::V10Base,
        &schedule,
        &opts,
        OverloadController::armed(policy),
    );

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
    assert!(
        starved_report.priority() > 16.0,
        "the boost must be visible in the final priority"
    );
    for wl in report.workloads() {
        assert!(
            wl.completed_requests() >= 1,
            "{} was admitted but never served a request",
            wl.label()
        );
    }
}

/// Satellite of the adversarial-scenario PR: the MMPP `single_state` ≡
/// Poisson identity is not a fair-weather property. With an armed fault
/// plan injecting transient corruptions and whole-core stalls into both
/// runs, the two schedules must still serve bit-identically, and both
/// must audit clean.
#[test]
fn single_state_mmpp_equals_poisson_under_armed_fault_plans() {
    const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
    let schedule_of = |arrivals: Vec<v10::workloads::TimedArrival>| {
        AdmissionSchedule::new(
            arrivals
                .iter()
                .map(|a| {
                    Admission::new(
                        WorkloadSpec::new(a.label(), a.trace().clone()),
                        a.at_cycles(),
                        a.requests(),
                    )
                    .unwrap()
                })
                .collect(),
        )
        .unwrap()
    };
    let mmpp = schedule_of(
        MmppProcess::single_state(&MODELS, 5.0e6, 0xFEED)
            .unwrap()
            .with_think_cycles(2.5e5)
            .unwrap()
            .sample(10)
            .unwrap(),
    );
    let poisson = schedule_of(
        OpenLoopProcess::new(&MODELS, 5.0e6, 0xFEED)
            .unwrap()
            .with_requests_per_session(4)
            .unwrap()
            .with_think_cycles(2.5e5)
            .unwrap()
            .sample(10)
            .unwrap(),
    );
    let plan = FaultPlan::none()
        .with_fault(1.0e6, FaultKind::TransientOp { victim_salt: 0xA5 })
        .unwrap()
        .with_poisson_transients(0xDEAD, 4.0e6, 4.0e7)
        .unwrap()
        .with_poisson_stalls(0xBEEF, 9.0e6, 5.0e4, 4.0e7)
        .unwrap();
    let opts = serve_opts();
    let cfg = NpuConfig::table5();
    for design in [Design::V10Base, Design::V10Full] {
        let (a, va) = audit_serve_stressed(
            design,
            &mmpp,
            &cfg,
            &opts,
            &plan,
            OverloadController::armed(OverloadPolicy::default()),
        )
        .unwrap();
        let (b, vb) = audit_serve_stressed(
            design,
            &poisson,
            &cfg,
            &opts,
            &plan,
            OverloadController::armed(OverloadPolicy::default()),
        )
        .unwrap();
        assert!(va.is_empty(), "{design:?} mmpp run: {va:?}");
        assert!(vb.is_empty(), "{design:?} poisson run: {vb:?}");
        assert!(
            a.faults_injected() > 0,
            "{design:?}: the fault plan must actually fire"
        );
        assert_eq!(
            run_digest(&a),
            run_digest(&b),
            "{design:?} diverged under faults"
        );
    }
}

/// Regression for the watchdog/capacity fix: a starved tenant already at
/// the policy's priority ceiling used to have its boost silently no-op —
/// detection fired, nothing changed, and the tenant stayed starved with no
/// trace. The fix re-queues the capped boost and counts it. Pin the
/// post-fix contract: detections fire, zero boosts land (the cap binds),
/// at least one re-queue is recorded, the priority is unchanged, and the
/// run still audits clean with nobody shut out.
#[test]
fn capped_watchdog_boost_is_requeued_not_dropped() {
    // Same shape as the boost test above, but the watchdog's max priority
    // equals the starved tenant's own priority, so every boost would no-op.
    let starved = WorkloadSpec::new("capped", Model::Dlrm.default_profile().synthesize(5))
        .with_priority(16.0)
        .unwrap();
    let mut admissions = vec![Admission::new(starved, 0.0, 8).unwrap()];
    for (i, seed) in [6u64, 7, 8].iter().enumerate() {
        let spec = WorkloadSpec::new(
            format!("peer-{i}"),
            Model::Dlrm.default_profile().synthesize(*seed),
        );
        admissions.push(Admission::new(spec, 0.0, 8).unwrap());
    }
    let schedule = AdmissionSchedule::new(admissions).unwrap();
    let opts = RunOptions::new(8).unwrap().with_seed(7);
    let policy = OverloadPolicy::default()
        .with_sense_interval_cycles(2.0e5)
        .unwrap()
        .with_watchdog(1.0e6, 0.1, 4.0, 16.0)
        .unwrap();
    let report = serve_audited(
        Design::V10Base,
        &schedule,
        &opts,
        OverloadController::armed(policy),
    );

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
