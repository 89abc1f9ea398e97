//! Differential property test for the calendar-driven event spine.
//!
//! The calendar queue itself is differentially tested against a naive
//! min-scan model at the data-structure level (`v10_sim::calendar`'s
//! property tests drive random set/clear/pop schedules through both).
//! This test closes the loop at the *engine* level: seeded random
//! admission schedules and fault plans run through all four executors,
//! and in debug builds (`debug_assertions` — how `cargo test` runs)
//! every step re-derives the naive scan state and asserts it against
//! the calendar spine (`debug_validate_spine`: the fetch-calendar entry
//! set, bitwise deadline equality, the live-tenant index, and the
//! unmet-quota counter). On top of that live cross-check, each run is
//! executed twice and its complete event sequence and report digests
//! must be bit-identical, the per-workload `DmaReady` stream must be
//! monotone (calendar promotions fire in program order), and the
//! `RuntimeAuditor`'s conservation invariants must hold.

use v10_core::{
    run_digest, serve_design_stressed_observed, Admission, AdmissionSchedule, Design, FaultKind,
    FaultPlan, OverloadController, RunOptions, RuntimeAuditor, SimEvent, SimObserver, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_sim::SimRng;
use v10_workloads::Model;

/// Records the complete event stream.
#[derive(Default)]
struct Recorder {
    events: Vec<SimEvent>,
}

impl SimObserver for Recorder {
    fn on_event(&mut self, event: SimEvent) {
        self.events.push(event);
    }
}

const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];

/// A seeded random open-loop schedule: 2–12 tenants over the light
/// models, staggered arrivals, small per-session quotas, mixed
/// priorities.
fn random_schedule(rng: &mut SimRng) -> AdmissionSchedule {
    let tenants = 2 + rng.index(11);
    let admissions: Vec<Admission> = (0..tenants)
        .map(|i| {
            let model = MODELS[rng.index(MODELS.len())];
            let trace = model
                .default_profile()
                .synthesize(rng.uniform_u64(1, 1 << 20));
            let spec = WorkloadSpec::new(format!("t{i}"), trace)
                .with_priority(rng.uniform(0.5, 4.0))
                .expect("positive priority");
            let at = rng.uniform(0.0, 1.5e7);
            let requests = 1 + rng.index(3);
            Admission::new(spec, at, requests).expect("valid random admission")
        })
        .collect();
    AdmissionSchedule::new(admissions).expect("non-empty schedule")
}

/// A seeded random fault plan: maybe a scripted transient, maybe a core
/// stall, maybe a Poisson transient stream — and occasionally nothing,
/// so the unfaulted path stays covered.
fn random_fault_plan(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if rng.index(4) > 0 {
        plan = plan
            .with_fault(
                rng.uniform(1.0e6, 2.0e7),
                FaultKind::TransientOp {
                    victim_salt: rng.uniform_u64(0, u64::MAX - 1),
                },
            )
            .expect("valid scripted transient");
    }
    if rng.index(2) > 0 {
        plan = plan
            .with_fault(
                rng.uniform(1.0e6, 2.0e7),
                FaultKind::CoreStall {
                    stall_cycles: rng.uniform(1.0e4, 2.0e5),
                },
            )
            .expect("valid scripted stall");
    }
    if rng.index(3) > 0 {
        plan = plan
            .with_poisson_transients(rng.uniform_u64(0, u64::MAX - 1), 5.0e6, 3.0e7)
            .expect("valid transient stream");
    }
    plan
}

/// Per-workload `DmaReady` promotions must be monotone in time and op id
/// — the calendar pops due fetches in the same order the historical scan
/// promoted them.
fn assert_dma_ready_monotone(events: &[SimEvent]) {
    let mut last: std::collections::BTreeMap<usize, (f64, u64)> = std::collections::BTreeMap::new();
    for e in events {
        if let SimEvent::DmaReady {
            workload,
            op_id,
            at,
        } = *e
        {
            if let Some(&(prev_at, prev_op)) = last.get(&workload) {
                assert!(
                    at >= prev_at,
                    "workload {workload}: DmaReady went back in time ({prev_at} -> {at})"
                );
                assert!(
                    op_id > prev_op,
                    "workload {workload}: DmaReady op ids out of order ({prev_op} -> {op_id})"
                );
            }
            last.insert(workload, (at, op_id));
        }
    }
}

#[test]
fn random_schedules_and_fault_plans_are_deterministic_and_spine_clean() {
    for seed in 0..6u64 {
        let mut rng = SimRng::seed_from(0xD1FF ^ (seed << 8));
        let schedule = random_schedule(&mut rng);
        let plan = random_fault_plan(&mut rng);
        let opts = RunOptions::new(2)
            .expect("non-zero request count")
            .with_seed(rng.uniform_u64(1, 1 << 30));
        let cfg = NpuConfig::table5();
        for &design in Design::ALL.iter() {
            // Run once under the auditor: conservation invariants hold
            // live, and (in debug builds) `debug_validate_spine`
            // cross-checks the calendar against the naive scan at every
            // step of this run too.
            let mut auditor = RuntimeAuditor::new();
            let audited = serve_design_stressed_observed(
                design,
                &schedule,
                &cfg,
                &opts,
                &plan,
                OverloadController::disarmed(),
                &mut auditor,
            )
            .expect("valid audited run");
            auditor.reconcile(&audited);
            assert!(
                auditor.is_clean(),
                "seed {seed} {design}: auditor violations: {:?}",
                auditor.violations()
            );

            // Run twice under a recorder: the full event sequence and
            // the report must be bit-identical run to run.
            let mut rec1 = Recorder::default();
            let r1 = serve_design_stressed_observed(
                design,
                &schedule,
                &cfg,
                &opts,
                &plan,
                OverloadController::disarmed(),
                &mut rec1,
            )
            .expect("valid recorded run");
            let mut rec2 = Recorder::default();
            let r2 = serve_design_stressed_observed(
                design,
                &schedule,
                &cfg,
                &opts,
                &plan,
                OverloadController::disarmed(),
                &mut rec2,
            )
            .expect("valid recorded run");
            assert_eq!(
                rec1.events.len(),
                rec2.events.len(),
                "seed {seed} {design}: event count diverged between identical runs"
            );
            assert_eq!(
                rec1.events, rec2.events,
                "seed {seed} {design}: event sequence diverged between identical runs"
            );
            assert_eq!(
                run_digest(&r1),
                run_digest(&r2),
                "seed {seed} {design}: report digest diverged between identical runs"
            );
            assert_eq!(
                run_digest(&r1),
                run_digest(&audited),
                "seed {seed} {design}: recorded and audited runs diverged"
            );
            assert_dma_ready_monotone(&rec1.events);
        }
    }
}
