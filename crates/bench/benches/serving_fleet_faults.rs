//! serving_fleet_faults — fleet fault domains under a severity × shard
//! sweep.
//!
//! A seeded flash-crowd stream is served on a 16×16 mesh fleet (256
//! cores, 8 HBM-affinity groups) through
//! [`v10_collocate::FleetPlane::serve_faulted`] at several shard counts
//! and three fault severities:
//!
//! * `disarmed` — an empty [`FleetFaultPlan`]. Gated in-bench to be
//!   **byte-identical** to the plain [`FleetPlane::serve`] path at every
//!   shard count: arming the fault machinery with no faults must not move
//!   a single bit of the report, the decisions, or the departure log.
//! * `shard-crash` — shard 0 crashes on an epoch boundary mid-crowd and
//!   restores from its boundary snapshot one epoch later. Blast radius
//!   (the cores steered dark) shrinks as shards get finer — the severity ×
//!   shard interaction this bench exists to measure.
//! * `region-blackout` — HBM group 0 fails during the crowd with its
//!   uplink partitioned, so orphaned tenants back off through the
//!   partition window before evacuating onto survivors. Identical across
//!   shard counts (region faults are shard-agnostic) and gated so.
//!
//! Columns: goodput (SLO-good requests per simulated Mcycle of makespan),
//! p99 latency, tenants evacuated/shed, and mean evacuation latency from
//! the region failure to the evacuee's landing.
//!
//! Machine-readable output: `BENCH_fleet_faults.json` (override with
//! `V10_BENCH_JSON_OUT`), schema `serving_fleet_faults` v1 — deterministic
//! fields only, so ci.sh gates the committed artifact with a plain git
//! diff after a smoke regeneration.
//!
//! Knobs: `V10_BENCH_SEED`, `V10_BENCH_THREADS`, `V10_BENCH_SLO_FACTOR`,
//! `V10_BENCH_SMOKE=1` (fewer arrivals, shard counts 1 and 4, one timing
//! sample — the CI configuration that regenerates the artifact).

use std::time::Duration;

use v10_bench::jsonio::{self, Json};
use v10_bench::serving::{slo_factor, smoke};
use v10_bench::sweep::sweep_threads;
use v10_bench::timing::measure;
use v10_bench::{print_table, seed};
use v10_collocate::{
    build_dataset, ClusterServeReport, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer,
    PairPerfCache, RecoveryPolicy, TopologyWeights,
};
use v10_core::{Design, NullObserver, RunOptions};
use v10_npu::{FleetTopology, NpuConfig};
use v10_sim::{Cycles, FleetFaultKind, FleetFaultPlan};
use v10_workloads::{MmppProcess, Model, TimedArrival};

/// Served tenant mix (light models, sessions span an epoch or two).
const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];

/// Models the clustering pipeline is fitted over.
const FIT_MODELS: [Model; 6] = [
    Model::Bert,
    Model::Ncf,
    Model::Dlrm,
    Model::ResNet,
    Model::Mnist,
    Model::RetinaNet,
];

/// Fleet geometry: 16×16 mesh, 8 HBM column bands, 64 B/cycle links.
const MESH_WIDTH: usize = 16;
const MESH_HEIGHT: usize = 16;
const HBM_GROUPS: usize = 8;
const LINK_BYTES_PER_CYCLE: f64 = 64.0;
const SLOTS_PER_CORE: usize = 4;

/// Shard counts swept.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SMOKE_SHARD_COUNTS: [usize; 2] = [1, 4];

/// Flash-crowd arrival stream.
const BASE_MEAN_INTERARRIVAL_CYCLES: f64 = 2.5e5;
const BURST_FACTOR: f64 = 4.0;
const MEAN_DWELL_CYCLES: f64 = 2.0e7;
const ARRIVALS: usize = 256;
const SMOKE_ARRIVALS: usize = 96;

/// Three requests per session keeps sessions open across an epoch
/// boundary, so the scripted faults always catch live tenants.
const REQUESTS_PER_SESSION: usize = 3;

/// Epoch length for cross-shard exchange and fault quantization.
const EPOCH_CYCLES: f64 = 8.0e6;

/// Every scripted fault lands on the second epoch boundary, mid-crowd.
const FAULT_AT_CYCLES: f64 = 2.0 * EPOCH_CYCLES;

/// The region-blackout uplink partition rides one epoch past the failure.
const PARTITION_WINDOW_CYCLES: f64 = 8.0e6;

/// Topology scoring weights and the admission threshold.
const HOP_PENALTY: f64 = 0.02;
const SPREAD_PENALTY: f64 = 0.01;
const PLACEMENT_THRESHOLD: f64 = 0.01;

/// Decorrelates this bench's seeded streams from other benches.
const SEED_SALT: u64 = 0xF4;

/// Timing samples per point (median reported); fewer in smoke mode.
const SAMPLES: usize = 2;
const SMOKE_SAMPLES: usize = 1;

/// Schema version of `BENCH_fleet_faults.json`.
const SCHEMA_VERSION: f64 = 1.0;

/// The swept fault severities, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Severity {
    Disarmed,
    ShardCrash,
    RegionBlackout,
}

impl Severity {
    const ALL: [Severity; 3] = [
        Severity::Disarmed,
        Severity::ShardCrash,
        Severity::RegionBlackout,
    ];

    fn label(self) -> &'static str {
        match self {
            Severity::Disarmed => "disarmed",
            Severity::ShardCrash => "shard-crash",
            Severity::RegionBlackout => "region-blackout",
        }
    }

    /// The scripted fleet plan for this severity. Shard 0 and HBM group 0
    /// exist at every swept shard count, so one plan serves the whole
    /// sweep.
    fn plan(self) -> FleetFaultPlan {
        match self {
            Severity::Disarmed => FleetFaultPlan::none(),
            Severity::ShardCrash => FleetFaultPlan::none()
                .with_fault(FAULT_AT_CYCLES, FleetFaultKind::ShardCrash { shard: 0 })
                .expect("valid crash event"),
            Severity::RegionBlackout => FleetFaultPlan::none()
                .with_fault(
                    FAULT_AT_CYCLES,
                    FleetFaultKind::LinkPartition {
                        hbm_group: 0,
                        window_cycles: PARTITION_WINDOW_CYCLES,
                    },
                )
                .expect("valid partition event")
                .with_fault(FAULT_AT_CYCLES, FleetFaultKind::RegionFail { hbm_group: 0 })
                .expect("valid region event"),
        }
    }
}

/// One (severity, shard count) measurement.
struct FaultPoint {
    severity: Severity,
    shards: usize,
    wall_median: Duration,
    placed: usize,
    rejected: usize,
    cores_failed: usize,
    evacuated: usize,
    shed_sessions: usize,
    completed_requests: usize,
    shed_requests: usize,
    goodput_per_mcycle: f64,
    p99_mcycles: f64,
    evac_latency_mcycles_mean: f64,
    disarmed_identical: bool,
}

fn arrivals_for(count: usize) -> Vec<TimedArrival> {
    MmppProcess::flash_crowd(
        &MODELS,
        BASE_MEAN_INTERARRIVAL_CYCLES,
        BURST_FACTOR,
        MEAN_DWELL_CYCLES,
        seed() ^ SEED_SALT,
    )
    .expect("valid flash-crowd process")
    .with_requests_per_session(REQUESTS_PER_SESSION)
    .expect("positive session quota")
    .sample(count)
    .expect("non-zero arrival count")
}

fn fit_pipeline() -> ClusteringPipeline {
    let points = build_dataset(&FIT_MODELS, &[], seed());
    let mut cache = PairPerfCache::new(2, seed());
    ClusteringPipeline::fit(&points, 3, 3, &mut cache, seed())
}

fn make_plane(pipeline: &ClusteringPipeline, shards: usize, threads: usize) -> FleetPlane<'_> {
    let placer = OnlinePlacer::new(pipeline)
        .with_threshold(PLACEMENT_THRESHOLD)
        .expect("valid placement threshold");
    let topology = FleetTopology::mesh(MESH_WIDTH, MESH_HEIGHT, HBM_GROUPS, LINK_BYTES_PER_CYCLE)
        .expect("valid mesh geometry");
    let weights = TopologyWeights::new(HOP_PENALTY, SPREAD_PENALTY).expect("valid weights");
    FleetPlane::new(
        placer,
        topology,
        SLOTS_PER_CORE,
        shards,
        Cycles::new(EPOCH_CYCLES),
        weights,
    )
    .expect("valid fleet plane")
    .with_threads(threads)
}

fn serve_once(
    pipeline: &ClusteringPipeline,
    severity: Severity,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
) -> (ClusterServeReport, FleetOutcome) {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    make_plane(pipeline, shards, threads)
        .serve_faulted(
            arrivals,
            Design::V10Full,
            &NpuConfig::table5(),
            &opts,
            &severity.plan(),
            &RecoveryPolicy::new(),
            &mut NullObserver,
        )
        .expect("valid faulted fleet serving run")
}

/// Goodput and p99 over every completed request in the run.
fn goodput_p99(report: &ClusterServeReport, arrivals: &[TimedArrival]) -> (f64, f64) {
    let factor = slo_factor();
    let slo_of = |label: &str| -> f64 {
        let a = arrivals
            .iter()
            .find(|a| a.label() == label)
            .expect("report labels come from the arrival stream");
        #[allow(clippy::cast_precision_loss)]
        let per_request = a.model().default_profile().request_cycles() as f64;
        factor * per_request
    };
    let mut within_slo = 0usize;
    for wl in report
        .per_core()
        .iter()
        .flatten()
        .flat_map(|r| r.workloads())
    {
        let bound = slo_of(wl.label());
        within_slo += wl
            .latencies_cycles()
            .iter()
            .filter(|&&l| l <= bound)
            .count();
    }
    let makespan = report
        .per_core()
        .iter()
        .flatten()
        .map(|r| r.elapsed_cycles())
        .fold(0.0f64, f64::max);
    let goodput = if makespan > 0.0 {
        #[allow(clippy::cast_precision_loss)]
        let good = within_slo as f64;
        good * 1.0e6 / makespan
    } else {
        0.0
    };
    (goodput, report.p99_latency_cycles() / 1.0e6)
}

/// Mean cycles from the region failure to each evacuee's landing.
fn mean_evac_latency(report: &ClusterServeReport, outcome: &FleetOutcome) -> f64 {
    let Some(&(_, fail_at)) = outcome.regions_failed().first() else {
        return 0.0;
    };
    let requeued = report.requeued();
    if requeued.is_empty() {
        return 0.0;
    }
    let total: f64 = requeued.iter().map(|r| r.at_cycles - fail_at).sum();
    #[allow(clippy::cast_precision_loss)]
    let n = requeued.len() as f64;
    total / n
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    pipeline: &ClusteringPipeline,
    severity: Severity,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
    samples: usize,
    plain_baseline: &(ClusterServeReport, FleetOutcome),
    severity_baseline: Option<&(ClusterServeReport, FleetOutcome)>,
) -> (FaultPoint, (ClusterServeReport, FleetOutcome)) {
    let (report, outcome) = serve_once(pipeline, severity, shards, threads, arrivals);

    // The disarmed column is the CI bit-identity gate: an armed-but-empty
    // plan must reproduce the plain serve path exactly.
    let disarmed_identical = report == plain_baseline.0 && outcome == plain_baseline.1;
    if severity == Severity::Disarmed {
        assert!(
            disarmed_identical,
            "disarmed fault plan diverged from plain FleetPlane::serve at {shards} shards"
        );
    }
    // Region faults are shard-agnostic, so that severity must also be
    // byte-identical across shard counts.
    if severity != Severity::ShardCrash {
        if let Some((base_report, base_outcome)) = severity_baseline {
            assert_eq!(
                &report,
                base_report,
                "{} at {shards} shards diverged from the 1-shard run",
                severity.label()
            );
            assert_eq!(outcome.decisions(), base_outcome.decisions());
        }
    }

    let mut walls: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let ((r, _), wall) =
                measure(|| serve_once(pipeline, severity, shards, threads, arrivals));
            assert_eq!(r, report, "faulted fleet serve is not deterministic");
            wall
        })
        .collect();
    walls.sort_unstable();
    let wall_median = walls[walls.len() / 2];

    let (goodput, p99) = goodput_p99(&report, arrivals);
    let point = FaultPoint {
        severity,
        shards,
        wall_median,
        placed: outcome.placed(),
        rejected: outcome.rejected(),
        cores_failed: report.retired_cores().len(),
        evacuated: report.requeued().len(),
        shed_sessions: report.shed().len(),
        completed_requests: report.completed_requests(),
        shed_requests: report.shed_requests(),
        goodput_per_mcycle: goodput,
        p99_mcycles: p99,
        evac_latency_mcycles_mean: mean_evac_latency(&report, &outcome) / 1.0e6,
        disarmed_identical,
    };
    (point, (report, outcome))
}

fn render_json(points: &[FaultPoint], arrivals: usize, samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serving_fleet_faults\",\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION:.0},\n"));
    out.push_str(&format!("  \"seed\": {},\n", seed()));
    out.push_str(&format!("  \"cores\": {},\n", MESH_WIDTH * MESH_HEIGHT));
    out.push_str(&format!("  \"hbm_groups\": {HBM_GROUPS},\n"));
    out.push_str(&format!("  \"slots_per_core\": {SLOTS_PER_CORE},\n"));
    out.push_str(&format!("  \"epoch_cycles\": {EPOCH_CYCLES},\n"));
    out.push_str(&format!("  \"fault_at_cycles\": {FAULT_AT_CYCLES},\n"));
    out.push_str(&format!("  \"arrivals\": {arrivals},\n"));
    out.push_str(&format!("  \"samples_per_point\": {samples},\n"));
    out.push_str("  \"points\": [\n");
    // Wall clock stays out of the artifact on purpose: every field here is
    // deterministic, so ci.sh can gate the committed file with a git diff.
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"severity\": \"{}\", \"shards\": {}, \"placed\": {}, \
             \"rejected\": {}, \"cores_failed\": {}, \"evacuated\": {}, \
             \"shed_sessions\": {}, \"completed_requests\": {}, \
             \"shed_requests\": {}, \"goodput_per_mcycle\": {:.4}, \
             \"p99_mcycles\": {:.3}, \"evac_latency_mcycles_mean\": {:.3}, \
             \"disarmed_identical\": {}}}{}\n",
            p.severity.label(),
            p.shards,
            p.placed,
            p.rejected,
            p.cores_failed,
            p.evacuated,
            p.shed_sessions,
            p.completed_requests,
            p.shed_requests,
            p.goodput_per_mcycle,
            p.p99_mcycles,
            p.evac_latency_mcycles_mean,
            u8::from(p.disarmed_identical),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Validates a rendered artifact against the schema.
fn validate_artifact(doc: &Json) -> Result<(), String> {
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field \"bench\"")?;
    if bench != "serving_fleet_faults" {
        return Err(format!(
            "\"bench\" is {bench:?}, want \"serving_fleet_faults\""
        ));
    }
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric field \"schema_version\"")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} != {SCHEMA_VERSION}"));
    }
    for field in [
        "seed",
        "cores",
        "hbm_groups",
        "slots_per_core",
        "epoch_cycles",
        "fault_at_cycles",
        "arrivals",
    ] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field {field:?}"))?;
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"points\"")?;
    if points.is_empty() {
        return Err("\"points\" is empty".to_string());
    }
    let mut saw_blackout_displacement = false;
    for (i, p) in points.iter().enumerate() {
        let severity = p
            .get("severity")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("points[{i}]: missing string \"severity\""))?;
        if !Severity::ALL.iter().any(|s| s.label() == severity) {
            return Err(format!("points[{i}]: unknown severity {severity:?}"));
        }
        for field in [
            "shards",
            "placed",
            "rejected",
            "cores_failed",
            "evacuated",
            "shed_sessions",
            "completed_requests",
            "shed_requests",
            "goodput_per_mcycle",
            "p99_mcycles",
            "evac_latency_mcycles_mean",
            "disarmed_identical",
        ] {
            let v = p
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("points[{i}]: missing numeric {field:?}"))?;
            if v.is_nan() || v < 0.0 {
                return Err(format!("points[{i}]: {field} = {v} is invalid"));
            }
        }
        let identical = p
            .get("disarmed_identical")
            .and_then(Json::as_num)
            .unwrap_or(0.0);
        if severity == "disarmed" && identical != 1.0 {
            return Err(format!(
                "points[{i}]: disarmed run not byte-identical to the plain serve path"
            ));
        }
        if severity == "region-blackout" {
            let displaced = p.get("evacuated").and_then(Json::as_num).unwrap_or(0.0)
                + p.get("shed_sessions").and_then(Json::as_num).unwrap_or(0.0);
            if displaced > 0.0 {
                saw_blackout_displacement = true;
            }
        }
    }
    if !saw_blackout_displacement {
        return Err(
            "no region-blackout point displaced a single tenant: the blast radius is dark"
                .to_string(),
        );
    }
    Ok(())
}

fn main() {
    let smoke = smoke();
    let samples = if smoke { SMOKE_SAMPLES } else { SAMPLES };
    let arrival_count = if smoke { SMOKE_ARRIVALS } else { ARRIVALS };
    let counts: &[usize] = if smoke {
        &SMOKE_SHARD_COUNTS
    } else {
        &SHARD_COUNTS
    };
    let threads = sweep_threads();

    let pipeline = fit_pipeline();
    let arrivals = arrivals_for(arrival_count);

    let mut points: Vec<FaultPoint> = Vec::new();
    for &severity in &Severity::ALL {
        let mut severity_baseline: Option<(ClusterServeReport, FleetOutcome)> = None;
        for &shards in counts {
            // The plain-serve reference for the bit-identity gate, fresh
            // per shard count.
            let plain = {
                let opts = RunOptions::new(REQUESTS_PER_SESSION)
                    .expect("positive request count")
                    .with_seed(seed());
                make_plane(&pipeline, shards, threads)
                    .serve(&arrivals, Design::V10Full, &NpuConfig::table5(), &opts)
                    .expect("valid plain fleet serving run")
            };
            let (point, run) = run_point(
                &pipeline,
                severity,
                shards,
                threads,
                &arrivals,
                samples,
                &plain,
                severity_baseline.as_ref(),
            );
            if severity_baseline.is_none() {
                severity_baseline = Some(run);
            }
            points.push(point);
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.severity.label().to_string(),
                format!("{}", p.shards),
                format!("{:.3}", p.wall_median.as_secs_f64()),
                format!("{}", p.placed),
                format!("{}", p.cores_failed),
                format!("{}", p.evacuated),
                format!("{}", p.shed_sessions),
                format!("{:.3}", p.goodput_per_mcycle),
                format!("{:.2}", p.p99_mcycles),
                format!("{:.2}", p.evac_latency_mcycles_mean),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fleet fault domains — {} cores, {} arrivals, {} worker thread(s); \
             severity × shard count",
            MESH_WIDTH * MESH_HEIGHT,
            arrivals.len(),
            threads
        ),
        &[
            "Severity",
            "Shards",
            "Wall (s)",
            "Placed",
            "Dead cores",
            "Evacuated",
            "Shed",
            "Goodput/Mcyc",
            "p99 (Mcyc)",
            "Evac lat (Mc)",
        ],
        &rows,
    );
    println!(
        "Disarmed fault plans stayed byte-identical to the plain serve path at every \
         shard count; region blackouts displaced tenants through the partition window."
    );

    let out_path = std::env::var("V10_BENCH_JSON_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_fleet_faults.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    let rendered = render_json(&points, arrivals.len(), samples);
    validate_artifact(&jsonio::parse(&rendered).expect("rendered artifact parses"))
        .expect("rendered artifact passes its own schema");
    std::fs::write(&out_path, &rendered).expect("write artifact");
    println!("Wrote {out_path}.");

    if let Ok(baseline_path) = std::env::var("V10_BENCH_BASELINE") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("reading baseline {baseline_path}: {e}"));
        let doc = jsonio::parse(&text)
            .unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
        validate_artifact(&doc)
            .unwrap_or_else(|e| panic!("baseline {baseline_path} fails the schema: {e}"));
        println!("Baseline {baseline_path} passes the schema.");
    }
}
