//! Fleet blackout: a region failure and uplink partition mid flash-crowd.
//!
//! A Markov-modulated flash-crowd stream lands on a 40×25 mesh fleet
//! (1000 cores, 5 HBM-affinity column bands) served through the sharded
//! [`FleetPlane`] — and then HBM group 0 goes dark on the second epoch
//! boundary, its uplink partitioned for a further epoch. Every core in the
//! region retires together (the correlated blast radius of a shared HBM
//! stack), the orphaned tenants ride out the partition under exponential
//! backoff, and the recovery ladder evacuates them onto surviving groups,
//! paying the topology's transfer latency per hop, or sheds them when
//! their deadline can no longer be met.
//!
//! The same stream is also played with a *disarmed* fault plan, which must
//! be byte-identical to the plain serve path (asserted below): the fault
//! machinery is free until the moment something actually breaks.
//!
//! ```sh
//! cargo run --release --example fleet_blackout
//! ```

use v10::collocate::{
    build_dataset, ClusterServeReport, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer,
    PairPerfCache, TopologyWeights,
};
use v10::core::{Design, FleetConservation, NullObserver, RunOptions};
use v10::npu::{FleetTopology, NpuConfig};
use v10::sim::{Cycles, FleetFaultKind, FleetFaultPlan};
use v10::workloads::{MmppProcess, Model, TimedArrival};

/// Fleet geometry: 40×25 = 1000 cores, 5 HBM column bands, 64 B/cyc links.
const MESH_WIDTH: usize = 40;
const MESH_HEIGHT: usize = 25;
const HBM_GROUPS: usize = 5;

const SLOTS_PER_CORE: usize = 4;
const EPOCH_CYCLES: f64 = 8.0e6;
const ARRIVALS: usize = 256;

/// The blackout lands on the second epoch boundary, mid-crowd.
const FAIL_AT_CYCLES: f64 = 2.0 * EPOCH_CYCLES;

/// The dead region's uplink stays partitioned one further epoch.
const PARTITION_WINDOW_CYCLES: f64 = EPOCH_CYCLES;

fn fit_pipeline() -> ClusteringPipeline {
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
    ClusteringPipeline::fit(&points, 3, 3, &mut cache, 7)
}

fn flash_crowd() -> Vec<TimedArrival> {
    MmppProcess::flash_crowd(
        &[Model::Mnist, Model::Dlrm, Model::Ncf],
        3.0e5,
        4.0,
        2.0e7,
        0x0B1A_C0C7,
    )
    .expect("valid flash-crowd process")
    .with_requests_per_session(3)
    .expect("positive session quota")
    .sample(ARRIVALS)
    .expect("non-zero arrival count")
}

fn serve(
    pipeline: &ClusteringPipeline,
    stream: &[TimedArrival],
    plan: &FleetFaultPlan,
) -> (ClusterServeReport, FleetOutcome) {
    let placer = OnlinePlacer::new(pipeline)
        .with_threshold(0.01)
        .expect("valid threshold");
    let topology = FleetTopology::mesh(MESH_WIDTH, MESH_HEIGHT, HBM_GROUPS, 64.0)
        .expect("valid mesh geometry");
    let weights = TopologyWeights::new(0.02, 0.01).expect("valid weights");
    let mut plane = FleetPlane::new(
        placer,
        topology,
        SLOTS_PER_CORE,
        4,
        Cycles::new(EPOCH_CYCLES),
        weights,
    )
    .expect("valid fleet plane");
    let opts = RunOptions::new(3).expect("positive request count");
    plane
        .serve_faulted(
            stream,
            Design::V10Full,
            &NpuConfig::table5(),
            &opts,
            plan,
            &mut NullObserver,
        )
        .expect("valid faulted fleet serving run")
}

fn main() {
    let pipeline = fit_pipeline();
    let stream = flash_crowd();
    println!(
        "Flash crowd: {} tenants on a {}x{} mesh fleet ({} cores, {} HBM groups).\n",
        stream.len(),
        MESH_WIDTH,
        MESH_HEIGHT,
        MESH_WIDTH * MESH_HEIGHT,
        HBM_GROUPS
    );

    // Reference run, and the disarmed-plan identity check.
    let placer = OnlinePlacer::new(&pipeline)
        .with_threshold(0.01)
        .expect("valid threshold");
    let topology = FleetTopology::mesh(MESH_WIDTH, MESH_HEIGHT, HBM_GROUPS, 64.0)
        .expect("valid mesh geometry");
    let weights = TopologyWeights::new(0.02, 0.01).expect("valid weights");
    let mut plain_plane = FleetPlane::new(
        placer,
        topology,
        SLOTS_PER_CORE,
        4,
        Cycles::new(EPOCH_CYCLES),
        weights,
    )
    .expect("valid fleet plane");
    let opts = RunOptions::new(3).expect("positive request count");
    let (plain_report, plain_outcome) = plain_plane
        .serve(&stream, Design::V10Full, &NpuConfig::table5(), &opts)
        .expect("valid fleet serving run");
    let (disarmed_report, disarmed_outcome) = serve(&pipeline, &stream, &FleetFaultPlan::none());
    assert_eq!(
        disarmed_report, plain_report,
        "a disarmed fault plan moved a bit of the plain serve path"
    );
    assert_eq!(disarmed_outcome, plain_outcome);
    println!(
        "Disarmed fault plan: byte-identical to the plain serve path \
         ({} placed, {} requests completed, p99 {:.2} Mcycles).\n",
        plain_outcome.placed(),
        plain_report.completed_requests(),
        plain_report.p99_latency_cycles() / 1.0e6,
    );

    // The blackout: group 0 dies at the boundary, uplink partitioned.
    let plan = FleetFaultPlan::none()
        .with_fault(
            FAIL_AT_CYCLES,
            FleetFaultKind::LinkPartition {
                hbm_group: 0,
                window_cycles: PARTITION_WINDOW_CYCLES,
            },
        )
        .expect("valid partition event")
        .with_fault(FAIL_AT_CYCLES, FleetFaultKind::RegionFail { hbm_group: 0 })
        .expect("valid region event");
    let (report, outcome) = serve(&pipeline, &stream, &plan);

    let (group, at) = outcome.regions_failed()[0];
    println!(
        "Blackout: HBM group {group} failed at {:.0} Mcycles, retiring {} cores together.",
        at / 1.0e6,
        report.retired_cores().len(),
    );
    println!(
        "Recovery: {} tenants evacuated onto surviving groups, {} shed; \
         {} requests completed vs {} in the clean run (p99 {:.2} vs {:.2} Mcycles).",
        report.requeued().len(),
        report.shed().len(),
        report.completed_requests(),
        plain_report.completed_requests(),
        report.p99_latency_cycles() / 1.0e6,
        plain_report.p99_latency_cycles() / 1.0e6,
    );
    for r in report.requeued().iter().take(3) {
        println!(
            "  evacuee {:>12}: core {:>3} -> {:>3}, attempt {}, landed at {:.2} Mcycles \
             ({} requests left)",
            r.label,
            r.from_core,
            r.to_core,
            r.attempt,
            r.at_cycles / 1.0e6,
            r.remaining_requests,
        );
    }
    // The fleet conservation oracle: every arrival placed or rejected,
    // every placement and evacuation hosted by exactly one core's report,
    // evacuations and sheds only off the failed region, and departures in
    // simulated-time order.
    let mut auditor = FleetConservation::new();
    auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
    let retired: Vec<usize> = report
        .retired_cores()
        .iter()
        .map(|&(core, _)| core)
        .collect();
    auditor.record_region_fail(group, &retired, at);
    for r in report.requeued() {
        auditor.record_evacuation(r.from_core, r.to_core, r.at_cycles);
    }
    for s in report.shed() {
        auditor.record_shed(s.from_core, s.at_cycles);
    }
    for (core, r) in report.per_core().iter().enumerate() {
        if let Some(r) = r {
            auditor.record_core(core, r);
        }
    }
    auditor.record_departures(report.per_core().len(), outcome.departures());
    auditor.reconcile();
    assert!(
        auditor.is_clean(),
        "conservation broke: {:?}",
        auditor.violations()
    );
    println!("\nFleet conservation holds through the blast radius.");
}
