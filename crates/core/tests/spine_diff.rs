//! Differential property tests for the engine's event spine.
//!
//! A core keeps indexes that spare its step loop from rescanning every
//! tenancy: one fetch deadline per context-table slot, the live list of
//! occupied slots in admission order, the unmet-quota counter, and the
//! context table's candidate sets. In debug builds (`debug_assertions` —
//! how `cargo test` runs) `debug_validate_spine` re-derives each of them
//! by a naive scan at every step and asserts that they agree. The first
//! test drives that check with seeded random admission schedules and fault
//! plans through all four executors; on top of it, each run is executed
//! twice and its complete event sequence and report digests must be
//! bit-identical, the per-workload `DmaReady` stream must be monotone, and
//! the `RuntimeAuditor`'s conservation invariants must hold. The second
//! pins the order of fetches that complete at one instant: admission
//! order, not table-slot order.

use v10_core::{
    run_digest, serve_design_stressed_observed, Admission, AdmissionSchedule, Design, FaultKind,
    FaultPlan, OverloadController, RunOptions, RuntimeAuditor, SimEvent, SimObserver, WorkloadSpec,
};
use v10_isa::{FuKind, OpDesc, RequestTrace};
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

/// Per-workload `DmaReady` promotions must be monotone in time and op id:
/// each tenancy's fetches complete in program order.
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
            // cross-checks the spine's indexes against naive scans at
            // every step of this run too.
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

/// One-request sessions served by V10-Full through a 2-slot table, with
/// their event stream.
fn serve_two_slots(sessions: &[(&str, Vec<OpDesc>, f64)]) -> Vec<SimEvent> {
    let admissions = sessions
        .iter()
        .map(|(label, ops, at)| {
            let trace = RequestTrace::new(ops.clone()).expect("non-empty trace");
            Admission::new(WorkloadSpec::new(*label, trace), *at, 1).expect("valid admission")
        })
        .collect();
    let schedule = AdmissionSchedule::new(admissions).expect("non-empty schedule");
    let opts = RunOptions::new(1)
        .expect("positive request count")
        .with_table_capacity(2)
        .expect("positive table capacity");
    let mut rec = Recorder::default();
    serve_design_stressed_observed(
        Design::V10Full,
        &schedule,
        &NpuConfig::table5(),
        &opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
        &mut rec,
    )
    .expect("valid run");
    rec.events
}

/// Fetches that complete at one instant promote in admission order. A
/// (one 1-cycle VU op) and B (two 10-cycle SA ops of 100 and 200
/// instructions) arrive at 0 in a 2-slot table; A retires almost at once
/// and frees slot 0. C (one VU op of 200 instructions) arrives when B
/// issues its first operator, so C's fetch and the prefetch of B's second
/// operator start together and complete together. C sits in the lower
/// slot, but B was admitted first: B's `DmaReady` comes first.
#[test]
fn same_instant_fetches_promote_in_admission_order() {
    let op = |kind: FuKind, cycles: u64, instructions: u32| {
        OpDesc::builder(kind)
            .compute_cycles(cycles)
            .instr_count(instructions)
            .build()
    };
    let a = ("a", vec![op(FuKind::Vu, 1, 1)], 0.0);
    let b = (
        "b",
        vec![op(FuKind::Sa, 10, 100), op(FuKind::Sa, 10, 200)],
        0.0,
    );
    let b_issues_at = serve_two_slots(&[a.clone(), b.clone()])
        .iter()
        .find_map(|e| match *e {
            SimEvent::OpIssued {
                workload: 1,
                op_id: 0,
                at,
                ..
            } => Some(at),
            _ => None,
        })
        .expect("B issues its first operator");
    let c = ("c", vec![op(FuKind::Vu, 10, 200)], b_issues_at);
    let events = serve_two_slots(&[a, b, c]);
    let retired_a = events
        .iter()
        .position(|e| matches!(e, SimEvent::TenantRetired { workload: 0, .. }))
        .expect("A retires");
    let admitted_c = events
        .iter()
        .position(|e| matches!(e, SimEvent::TenantAdmitted { workload: 2, .. }))
        .expect("C is admitted");
    assert!(
        retired_a < admitted_c,
        "A must free its slot before C arrives"
    );
    let ready: Vec<(usize, u64, f64)> = events
        .iter()
        .filter_map(|e| match *e {
            SimEvent::DmaReady {
                workload,
                op_id,
                at,
            } if at > b_issues_at => Some((workload, op_id, at)),
            _ => None,
        })
        .collect();
    let [(first, first_op, first_at), (second, second_op, second_at)] = ready[..] else {
        panic!("expected B's second fetch and C's fetch after B's first issue, got {ready:?}");
    };
    assert_eq!(
        first_at.to_bits(),
        second_at.to_bits(),
        "the two fetches must complete at one instant: {ready:?}"
    );
    assert_eq!(
        [(first, first_op), (second, second_op)],
        [(1, 1), (2, 0)],
        "B (admitted first) must promote before C (lower slot)"
    );
}
