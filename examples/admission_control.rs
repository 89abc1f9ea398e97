//! Admission control: online placement of tenants arriving mid-run.
//!
//! A serving cluster runs one resident tenant. Two more tenants arrive
//! while it executes: the clustering advisor (§3.4, Fig. 14) collocates
//! the complementary one onto the busy core, refuses to collocate the
//! conflicting one, and the fleet plane places it on a second core
//! instead. The plane serves each core open-loop under V10-Full as it
//! places the arrivals.
//!
//! ```sh
//! cargo run --release --example admission_control
//! ```

use v10::collocate::{
    build_dataset, ClusteringPipeline, FleetPlane, OnlinePlacer, PairPerfCache, Placement,
    TopologyWeights,
};
use v10::core::{Design, RunOptions};
use v10::npu::{FleetTopology, NpuConfig};
use v10::sim::Cycles;
use v10::workloads::{Model, TimedArrival};

fn main() {
    // Offline: train a small clustering pipeline (features -> PCA ->
    // K-Means -> inter-cluster collocation profiling on the simulator).
    println!("Training the clustering pipeline...");
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

    // The resident tenant, and the two models the advisor will judge: the
    // best- and worst-predicted partners for it.
    let resident = Model::Bert;
    let candidates = [Model::Ncf, Model::Dlrm, Model::ResNet, Model::Mnist];
    let stp_of = |m: Model| pipeline.predict_pair_performance(resident, m);
    let good = candidates
        .into_iter()
        .max_by(|&a, &b| stp_of(a).total_cmp(&stp_of(b)))
        .expect("non-empty candidate list");
    let bad = candidates
        .into_iter()
        .min_by(|&a, &b| stp_of(a).total_cmp(&stp_of(b)))
        .expect("non-empty candidate list");
    // Split the threshold between the two predictions so the advisor
    // accepts one collocation and refuses the other.
    let threshold = 0.5 * (stp_of(good) + stp_of(bad));
    assert!(
        stp_of(bad) < threshold && threshold < stp_of(good),
        "training degenerated: every candidate predicts the same STP"
    );
    println!(
        "Resident {} on core 0; predicted STP with {}: {:.2}, with {}: {:.2} \
         (benefit threshold {:.2}).\n",
        resident.abbrev(),
        good.abbrev(),
        stp_of(good),
        bad.abbrev(),
        stp_of(bad),
        threshold
    );

    // Online: a 2-core cluster with 2 slots per core behind the advisor,
    // one admission shard, and one epoch spanning every arrival.
    let placer = OnlinePlacer::new(&pipeline)
        .with_threshold(threshold)
        .expect("positive threshold");
    let mut plane = FleetPlane::new(
        placer,
        FleetTopology::flat(2).expect("non-empty cluster"),
        2,
        1,
        Cycles::new(8.0e6),
        TopologyWeights::zero(),
    )
    .expect("non-degenerate cluster");
    let arrival = |label: &str, model: Model, at: f64| {
        TimedArrival::new(label, model, model.default_profile().synthesize(7), at, 3)
            .expect("valid scripted arrival")
    };
    let arrivals = [
        arrival("BERT#0", resident, 0.0),
        arrival(&format!("{}#1", good.abbrev()), good, 2.0e6),
        arrival(&format!("{}#2", bad.abbrev()), bad, 4.0e6),
    ];
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(3).expect("positive request count");
    let (report, outcome) = plane
        .serve(&arrivals, Design::V10Full, &cfg, &opts)
        .expect("valid serving run");
    for d in outcome.decisions() {
        match d.placement {
            Placement::Core(c) => println!(
                "  {:>7} arrives at {:>4.1} Mcyc -> core {c}{}",
                d.label,
                d.at_cycles / 1.0e6,
                if c == 0 && d.at_cycles > 0.0 {
                    " (collocated with the resident)"
                } else if d.at_cycles > 0.0 {
                    " (advisor refused collocation; empty core)"
                } else {
                    ""
                }
            ),
            Placement::Reject => println!("  {:>7} rejected: no slot anywhere", d.label),
        }
    }
    assert_eq!(outcome.rejected(), 0, "both cores had room");

    println!("\nServing each core under V10-Full:");
    for (core, report) in report.per_core().iter().enumerate() {
        let Some(report) = report else {
            println!("  core {core}: idle");
            continue;
        };
        for wl in report.workloads() {
            let retired = wl
                .retired_at_cycles()
                .map_or("-".to_string(), |c| format!("{:.1}", c / 1.0e6));
            println!(
                "  core {core}: {:>7}  admitted {:>4.1} Mcyc, retired {retired} Mcyc, \
                 {} requests, avg latency {:.2} Mcyc",
                wl.label(),
                wl.admitted_at_cycles() / 1.0e6,
                wl.completed_requests(),
                wl.avg_latency_cycles() / 1.0e6
            );
        }
    }
}
