//! Fault drill: injecting faults mid-run and watching the recovery.
//!
//! Part 1 runs two tenants on a single V10-Full core under a scripted
//! [`FaultPlan`] — a transient operator corruption (recovered by
//! input-checkpoint replay), a whole-core stall (no work lost), and a
//! permanent core retirement (tenants force-retired, later arrivals
//! bounced) — and prints the recovery timeline straight from the
//! JSON-lines observer stream.
//!
//! Part 2 retires core 0 of a two-core serving cluster mid-run: a region
//! failure takes out its HBM group while that group's uplink is
//! partitioned, and the fleet plane re-admits the displaced tenants onto
//! the surviving core with exponential backoff, riding the partition out
//! and shedding any tenant that can no longer meet its deadline.
//!
//! ```sh
//! cargo run --release --example fault_drill
//! ```

use v10::collocate::{
    build_dataset, ClusteringPipeline, FleetPlane, OnlinePlacer, PairPerfCache, TopologyWeights,
};
use v10::core::{
    serve_design_stressed_observed, Admission, AdmissionSchedule, Design, JsonLinesObserver,
    OverloadController, RunOptions, WorkloadSpec,
};
use v10::isa::{FuKind, OpDesc, RequestTrace};
use v10::npu::{FleetTopology, NpuConfig};
use v10::sim::{Cycles, FaultKind, FaultPlan, FleetFaultKind, FleetFaultPlan};
use v10::workloads::{Model, TimedArrival};

/// Events that tell the recovery story; the rest of the stream (operator
/// issue/complete chatter) is elided from the printout.
const TIMELINE_EVENTS: [&str; 6] = [
    "fault_injected",
    "op_replayed",
    "core_retired",
    "tenant_retired",
    "admission_rejected",
    "ctx_switch_started",
];

fn op(kind: FuKind, cycles: u64) -> OpDesc {
    OpDesc::builder(kind).compute_cycles(cycles).build()
}

/// Drains the observer's sink, refusing to present a lossy timeline: any
/// dropped event line aborts the drill with a nonzero exit.
fn drain_checked(observer: JsonLinesObserver<Vec<u8>>) -> Vec<u8> {
    if observer.write_errors() > 0 {
        eprintln!(
            "fault_drill: JSON-lines sink dropped {} event line(s); \
             refusing to print a lossy timeline",
            observer.write_errors()
        );
        std::process::exit(1);
    }
    observer.into_inner()
}

fn print_timeline(json_lines: &[u8]) {
    let text = String::from_utf8_lossy(json_lines);
    for line in text.lines() {
        if TIMELINE_EVENTS
            .iter()
            .any(|e| line.contains(&format!("\"event\":\"{e}\"")))
        {
            println!("  {line}");
        }
    }
}

fn single_core_drill() {
    println!("== Part 1: scripted faults on one V10-Full core ==\n");

    // Two mismatched tenants, plus a latecomer that will arrive after the
    // core has been retired.
    let alpha = WorkloadSpec::new(
        "alpha",
        RequestTrace::new(vec![op(FuKind::Sa, 400_000), op(FuKind::Vu, 50_000)])
            .expect("non-empty trace"),
    );
    let beta = WorkloadSpec::new(
        "beta",
        RequestTrace::new(vec![op(FuKind::Sa, 30_000), op(FuKind::Vu, 250_000)])
            .expect("non-empty trace"),
    );
    let late = WorkloadSpec::new(
        "latecomer",
        RequestTrace::new(vec![op(FuKind::Sa, 10_000)]).expect("non-empty trace"),
    );
    let schedule = AdmissionSchedule::new(vec![
        Admission::new(alpha, 0.0, 3).expect("valid admission"),
        Admission::new(beta, 50_000.0, 3).expect("valid admission"),
        Admission::new(late, 1_400_000.0, 1).expect("valid admission"),
    ])
    .expect("non-empty schedule");

    // The drill: corrupt an in-flight operator early, freeze the core
    // briefly, then retire it for good while work is still outstanding.
    let plan = FaultPlan::none()
        .with_fault(200_000.0, FaultKind::TransientOp { victim_salt: 1 })
        .expect("valid fault")
        .with_fault(
            600_000.0,
            FaultKind::CoreStall {
                stall_cycles: 120_000.0,
            },
        )
        .expect("valid fault")
        .with_fault(1_200_000.0, FaultKind::CoreRetire)
        .expect("valid fault");

    let opts = RunOptions::new(3).expect("positive requests").with_seed(7);
    let mut observer = JsonLinesObserver::new(Vec::new());
    let report = serve_design_stressed_observed(
        Design::V10Full,
        &schedule,
        &NpuConfig::table5(),
        &opts,
        &plan,
        OverloadController::disarmed(),
        &mut observer,
    )
    .expect("faulted drill run");

    println!("Recovery timeline (from the JSON-lines observer):");
    print_timeline(&drain_checked(observer));

    println!("\nOutcome:");
    for wl in report.workloads() {
        println!(
            "  {:>9}: {} request(s) served, {} operator replay(s) costing {:.0} cycles",
            wl.label(),
            wl.completed_requests(),
            wl.replays(),
            wl.replay_overhead_cycles(),
        );
    }
    println!(
        "  core retired at cycle {:.0}; {} fault(s) injected, total replay overhead {:.0} cycles\n",
        report
            .core_retired_at()
            .expect("the drill retires the core"),
        report.faults_injected(),
        report.replay_overhead_cycles(),
    );
}

fn cluster_requeue_drill() {
    println!("== Part 2: core failure in a two-core serving cluster ==\n");

    // Offline training for the placement advisor (identical in spirit to
    // the admission_control example, shrunk for speed).
    let models = [
        Model::Bert,
        Model::Ncf,
        Model::Dlrm,
        Model::ResNet,
        Model::Mnist,
        Model::RetinaNet,
    ];
    let points = build_dataset(&models, &[], 7);
    let mut cache = PairPerfCache::new(2, 7);
    let pipeline = ClusteringPipeline::fit(&points, 3, 3, &mut cache, 7);

    // Two cores on a 2x1 mesh with one HBM group per core, so failing
    // group 0 retires exactly core 0. Epochs are 30 000 cycles long: the
    // failure applies at the boundary where the third tenant arrives.
    let placer = OnlinePlacer::new(&pipeline)
        .with_threshold(0.01)
        .expect("positive threshold");
    let mut plane = FleetPlane::new(
        placer,
        FleetTopology::mesh(2, 1, 2, 64.0).expect("valid mesh"),
        4,
        1,
        Cycles::new(30_000.0),
        TopologyWeights::zero(),
    )
    .expect("non-degenerate cluster");
    let arrivals: Vec<TimedArrival> = [0.0, 20_000.0, 40_000.0, 60_000.0]
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            TimedArrival::new(
                format!("tenant-{i}"),
                Model::Mnist,
                Model::Mnist.default_profile().synthesize(7),
                at,
                2,
            )
            .expect("valid arrival")
        })
        .collect();

    // At cycle 30 000 core 0's uplink is partitioned for 3M cycles, and
    // then its region dies: no evacuation can read the context images
    // until the partition heals. (Events at one instant apply in script
    // order.)
    let plan = FleetFaultPlan::none()
        .with_fault(
            30_000.0,
            FleetFaultKind::LinkPartition {
                hbm_group: 0,
                window_cycles: 3.0e6,
            },
        )
        .expect("valid fault")
        .with_fault(30_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
        .expect("valid fault");
    let opts = RunOptions::new(2).expect("positive requests").with_seed(7);
    let mut observer = JsonLinesObserver::new(Vec::new());
    let (report, outcome) = plane
        .serve_faulted(
            &arrivals,
            Design::V10Full,
            &NpuConfig::table5(),
            &opts,
            &plan,
            &mut observer,
        )
        .expect("faulted cluster serve");
    for d in outcome.decisions() {
        println!(
            "  placed: {} arriving at cycle {:.0} -> {:?}",
            d.label, d.at_cycles, d.placement
        );
    }

    println!("\nFleet recovery decisions (JSON-lines stream):");
    let drained = drain_checked(observer);
    let text = String::from_utf8_lossy(&drained);
    let mut any = false;
    for line in text.lines() {
        if line.contains("\"event\":\"tenant_evacuated\"")
            || line.contains("\"event\":\"request_shed\"")
        {
            println!("  {line}");
            any = true;
        }
    }
    if !any {
        println!("  (none)");
    }

    println!("\nRecovery ledger:");
    for (core, at) in report.retired_cores() {
        println!("  core {core} retired at cycle {at:.0}");
    }
    for r in report.requeued() {
        println!(
            "  {} requeued core {} -> core {} at cycle {:.0} (attempt {}, {} request(s) left)",
            r.label, r.from_core, r.to_core, r.at_cycles, r.attempt, r.remaining_requests
        );
    }
    for s in report.shed() {
        println!(
            "  {} shed at cycle {:.0} ({} request(s) lost{})",
            s.label,
            s.at_cycles,
            s.lost_requests,
            if s.deadline_unmeetable {
                ", deadline unmeetable"
            } else {
                ", retries exhausted"
            }
        );
    }
    println!(
        "  cluster served {} request(s), shed {} ({:.0}% of decisions), p99 latency {:.0} cycles",
        report.completed_requests(),
        report.shed_requests(),
        100.0 * report.shed_fraction(),
        report.p99_latency_cycles(),
    );
}

fn main() {
    single_core_drill();
    cluster_requeue_drill();
}
