//! serving_fleet — the sharded fleet serving plane at ≥1000 cores.
//!
//! A seeded Markov-modulated flash-crowd stream is served on a 32×32 mesh
//! fleet (1024 cores, 8 HBM-affinity groups) through
//! [`v10_collocate::FleetPlane`] at several shard counts. Every simulated
//! quantity — the [`ClusterServeReport`], the admission decisions, the
//! merged departure log — is byte-identical across shard counts and
//! `V10_BENCH_THREADS` settings (asserted every run, and cross-checked by
//! the fleet conservation auditor); only the wall clock and the
//! rebuild-scan counters change. The scan columns are the point of the
//! bench: at `S` shards each occupancy change dirties one worker's summary
//! table, so the per-arrival rescan shrinks from the whole fleet to
//! `cores / S`. The wall-clock speedup is reported, not gated: the plane
//! caches each core's placement scores, so a rescan reads cached entries
//! and most of a serve's wall time is advancing the per-core runs, which
//! sharding does not shrink.
//!
//! Machine-readable output: the run is written to
//! `BENCH_serving_fleet.json` (override with `V10_BENCH_JSON_OUT`). When
//! `V10_BENCH_BASELINE` names a checked-in artifact, the bench validates
//! it against the schema and fails (exit 1) if the fresh headline
//! scan-reduction factor regresses below 0.9x of its checked-in value —
//! the scan reduction is deterministic, so this gate is robust to machine
//! noise while still catching any break in the sharded decomposition.
//!
//! Knobs: `V10_BENCH_SEED` (arrival stream seed), `V10_BENCH_THREADS`
//! (the pool that advances the per-core runs each epoch),
//! `V10_BENCH_SMOKE=1` (fewer arrivals, shard counts 1 and 4 only, one
//! timing sample — used by CI).

use std::time::Duration;

use v10_bench::jsonio::{self, Json};
use v10_bench::serving::{smoke, SLO_FACTOR};
use v10_bench::sweep::sweep_threads;
use v10_bench::timing::measure;
use v10_bench::{fmt_pct, fmt_x, print_table, seed};
use v10_collocate::{
    build_dataset, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer, PairPerfCache,
    TopologyWeights,
};
use v10_core::{Design, FleetConservation, RunOptions};
use v10_npu::{FleetTopology, NpuConfig};
use v10_sim::Cycles;
use v10_workloads::{MmppProcess, Model, TimedArrival};

/// Tenant mix: three light-footprint models so sessions retire within an
/// epoch or two and slots keep recycling.
const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];

/// Models the clustering pipeline is fitted over (superset of the served
/// mix, same fixture as the placer evaluation).
const FIT_MODELS: [Model; 6] = [
    Model::Bert,
    Model::Ncf,
    Model::Dlrm,
    Model::ResNet,
    Model::Mnist,
    Model::RetinaNet,
];

/// Fleet geometry: a 32×32 mesh — 1024 cores — with 8 HBM-affinity
/// column bands and 64 B/cycle links.
const MESH_WIDTH: usize = 32;
const MESH_HEIGHT: usize = 32;
const HBM_GROUPS: usize = 8;
const LINK_BYTES_PER_CYCLE: f64 = 64.0;

/// Context-table slots per core (the plane's admission capacity).
const SLOTS_PER_CORE: usize = 4;

/// Shard counts swept; 1 shard is the flat-rescan baseline.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SMOKE_SHARD_COUNTS: [usize; 2] = [1, 4];

/// Flash-crowd arrival stream: calm-phase mean inter-arrival, burst
/// multiplier, and mean dwell per modulation phase, in cycles.
const BASE_MEAN_INTERARRIVAL_CYCLES: f64 = 2.5e5;
const BURST_FACTOR: f64 = 4.0;
const MEAN_DWELL_CYCLES: f64 = 2.0e7;

/// Arrivals offered per run; each tenant submits one request (the fleet
/// bench stresses placement, not per-core contention).
const ARRIVALS: usize = 512;
const SMOKE_ARRIVALS: usize = 96;
const REQUESTS_PER_SESSION: usize = 1;

/// Epoch length for cross-shard departure exchange. Longer than the
/// longest single-request service demand (~2.8 Mcycles for NCF), so
/// tenants admitted in one epoch retire within the next few.
const EPOCH_CYCLES: f64 = 8.0e6;

/// Topology scoring weights: hops to the weight-resident HBM group and
/// same-class antagonist spreading.
const HOP_PENALTY: f64 = 0.02;
const SPREAD_PENALTY: f64 = 0.01;

/// Admission threshold on predicted pair STP (permissive: the bench fleet
/// is huge, rejections are not the story).
const PLACEMENT_THRESHOLD: f64 = 0.01;

/// Decorrelates this bench's seeded streams from other benches.
const SEED_SALT: u64 = 0x8;

/// Timing samples per shard count (median reported); fewer in smoke mode.
const SAMPLES: usize = 3;
const SMOKE_SAMPLES: usize = 1;

/// Schema version of `BENCH_serving_fleet.json`.
const SCHEMA_VERSION: f64 = 1.0;

/// One shard-count measurement.
struct FleetPoint {
    shards: usize,
    wall_median: Duration,
    rebuild_core_scans: u64,
    epochs: u64,
    placed: usize,
    rejected: usize,
    completed_requests: usize,
    goodput_per_mcycle: f64,
    p99_mcycles: f64,
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
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
) -> (v10_collocate::ClusterServeReport, FleetOutcome) {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    make_plane(pipeline, shards, threads)
        .serve(arrivals, Design::V10Full, &NpuConfig::table5(), &opts)
        .expect("valid fleet serving run")
}

/// Audits one run's conservation invariants across shard boundaries.
fn audit(report: &v10_collocate::ClusterServeReport, outcome: &FleetOutcome, cores: usize) {
    let mut auditor = FleetConservation::new();
    auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
    for (core, r) in report.per_core().iter().enumerate() {
        if let Some(r) = r {
            auditor.record_core(core, r);
        }
    }
    auditor.record_departures(cores, outcome.departures());
    auditor.reconcile();
    assert!(
        auditor.is_clean(),
        "fleet conservation violated: {:?}",
        auditor.violations()
    );
}

fn run_point(
    pipeline: &ClusteringPipeline,
    shards: usize,
    threads: usize,
    arrivals: &[TimedArrival],
    samples: usize,
    baseline: Option<&(v10_collocate::ClusterServeReport, FleetOutcome)>,
) -> (
    FleetPoint,
    (v10_collocate::ClusterServeReport, FleetOutcome),
) {
    // One untimed run pins the deterministic simulated quantities and is
    // checked against the 1-shard reference; the timed samples then
    // measure the wall cost of the identical run.
    let (report, outcome) = serve_once(pipeline, shards, threads, arrivals);
    if let Some((base_report, base_outcome)) = baseline {
        assert_eq!(
            &report, base_report,
            "{shards}-shard report diverged from the 1-shard run"
        );
        assert_eq!(outcome.decisions(), base_outcome.decisions());
        assert_eq!(outcome.departures(), base_outcome.departures());
    }
    audit(&report, &outcome, MESH_WIDTH * MESH_HEIGHT);

    let mut walls: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let ((r, o), wall) = measure(|| serve_once(pipeline, shards, threads, arrivals));
            assert_eq!(r, report, "fleet serve is not deterministic across reps");
            assert_eq!(o.rebuild_core_scans(), outcome.rebuild_core_scans());
            wall
        })
        .collect();
    walls.sort_unstable();
    let wall_median = walls[walls.len() / 2];

    // Goodput counts SLO-good requests per simulated Mcycle of fleet
    // makespan (latest per-core completion).
    let slo_of = |label: &str| -> f64 {
        let a = arrivals
            .iter()
            .find(|a| a.label() == label)
            .expect("report labels come from the arrival stream");
        SLO_FACTOR * a.model().default_profile().request_cycles() as f64
    };
    let mut within_slo = 0usize;
    let mut completed = 0usize;
    for wl in report
        .per_core()
        .iter()
        .flatten()
        .flat_map(|r| r.workloads())
    {
        let bound = slo_of(wl.label());
        for &l in wl.latencies_cycles() {
            completed += 1;
            if l <= bound {
                within_slo += 1;
            }
        }
    }
    let makespan = report
        .per_core()
        .iter()
        .flatten()
        .map(|r| r.elapsed_cycles())
        .fold(0.0f64, f64::max);
    let point = FleetPoint {
        shards,
        wall_median,
        rebuild_core_scans: outcome.rebuild_core_scans(),
        epochs: outcome.epochs(),
        placed: outcome.placed(),
        rejected: outcome.rejected(),
        completed_requests: completed,
        goodput_per_mcycle: if makespan > 0.0 {
            within_slo as f64 * 1.0e6 / makespan
        } else {
            0.0
        },
        p99_mcycles: report.p99_latency_cycles() / 1.0e6,
    };
    (point, (report, outcome))
}

fn speedup(points: &[FleetPoint], p: &FleetPoint) -> f64 {
    let base = points[0].wall_median.as_secs_f64();
    let own = p.wall_median.as_secs_f64();
    if own > 0.0 {
        base / own
    } else {
        0.0
    }
}

fn scan_reduction(points: &[FleetPoint], p: &FleetPoint) -> f64 {
    if p.rebuild_core_scans > 0 {
        points[0].rebuild_core_scans as f64 / p.rebuild_core_scans as f64
    } else {
        0.0
    }
}

/// Renders the machine-readable artifact.
fn render_json(points: &[FleetPoint], arrivals: usize, samples: usize) -> String {
    let headline = points
        .iter()
        .find(|p| p.shards == 4)
        .expect("the sweep always includes 4 shards");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serving_fleet\",\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION:.0},\n"));
    out.push_str(&format!("  \"seed\": {},\n", seed()));
    out.push_str(&format!("  \"cores\": {},\n", MESH_WIDTH * MESH_HEIGHT));
    out.push_str(&format!("  \"hbm_groups\": {HBM_GROUPS},\n"));
    out.push_str(&format!("  \"slots_per_core\": {SLOTS_PER_CORE},\n"));
    out.push_str(&format!("  \"epoch_cycles\": {EPOCH_CYCLES},\n"));
    out.push_str(&format!("  \"arrivals\": {arrivals},\n"));
    out.push_str(&format!("  \"samples_per_point\": {samples},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"wall_seconds_median\": {:.6}, \
             \"speedup_vs_1shard\": {:.3}, \"scaling_efficiency\": {:.3}, \
             \"rebuild_core_scans\": {}, \"scan_reduction_vs_1shard\": {:.3}, \
             \"epochs\": {}, \"placed\": {}, \"rejected\": {}, \
             \"completed_requests\": {}, \"goodput_per_mcycle\": {:.4}, \
             \"p99_mcycles\": {:.3}}}{}\n",
            p.shards,
            p.wall_median.as_secs_f64(),
            speedup(points, p),
            speedup(points, p) / p.shards as f64,
            p.rebuild_core_scans,
            scan_reduction(points, p),
            p.epochs,
            p.placed,
            p.rejected,
            p.completed_requests,
            p.goodput_per_mcycle,
            p.p99_mcycles,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"headline\": {\n");
    out.push_str(&format!("    \"shards\": {},\n", headline.shards));
    out.push_str(&format!(
        "    \"speedup_vs_1shard\": {:.3},\n",
        speedup(points, headline)
    ));
    out.push_str(&format!(
        "    \"scaling_efficiency\": {:.3},\n",
        speedup(points, headline) / headline.shards as f64
    ));
    out.push_str(&format!(
        "    \"scan_reduction_vs_1shard\": {:.3}\n",
        scan_reduction(points, headline)
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Validates a parsed artifact against the schema; returns the headline
/// scan-reduction factor on success.
fn validate_artifact(doc: &Json) -> Result<f64, String> {
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field \"bench\"")?;
    if bench != "serving_fleet" {
        return Err(format!("\"bench\" is {bench:?}, want \"serving_fleet\""));
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
        "arrivals",
    ] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field {field:?}"))?;
    }
    let cores = doc.get("cores").and_then(Json::as_num).unwrap_or(0.0);
    if cores < 1000.0 {
        return Err(format!("\"cores\" is {cores}, want a >=1000-core fleet"));
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"points\"")?;
    if points.is_empty() {
        return Err("\"points\" is empty".to_string());
    }
    for (i, p) in points.iter().enumerate() {
        for field in [
            "shards",
            "wall_seconds_median",
            "speedup_vs_1shard",
            "scaling_efficiency",
            "rebuild_core_scans",
            "scan_reduction_vs_1shard",
            "epochs",
            "placed",
            "rejected",
            "completed_requests",
            "goodput_per_mcycle",
            "p99_mcycles",
        ] {
            let v = p
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("points[{i}]: missing numeric {field:?}"))?;
            if v.is_nan() || v < 0.0 {
                return Err(format!("points[{i}]: {field} = {v} is negative"));
            }
        }
    }
    let headline = doc.get("headline").ok_or("missing object \"headline\"")?;
    let shards = headline
        .get("shards")
        .and_then(Json::as_num)
        .ok_or("headline: missing numeric \"shards\"")?;
    if shards != 4.0 {
        return Err(format!("headline shards {shards} != 4"));
    }
    headline
        .get("speedup_vs_1shard")
        .and_then(Json::as_num)
        .ok_or("headline: missing numeric \"speedup_vs_1shard\"")?;
    let reduction = headline
        .get("scan_reduction_vs_1shard")
        .and_then(Json::as_num)
        .ok_or("headline: missing numeric \"scan_reduction_vs_1shard\"")?;
    if reduction <= 1.0 {
        return Err(format!(
            "headline scan_reduction_vs_1shard {reduction} <= 1: sharding is not decomposing the rescan"
        ));
    }
    Ok(reduction)
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

    let mut points: Vec<FleetPoint> = Vec::new();
    let mut baseline: Option<(v10_collocate::ClusterServeReport, FleetOutcome)> = None;
    for &shards in counts {
        let (point, run) = run_point(
            &pipeline,
            shards,
            threads,
            &arrivals,
            samples,
            baseline.as_ref(),
        );
        if baseline.is_none() {
            baseline = Some(run);
        }
        points.push(point);
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.shards),
                format!("{:.3}", p.wall_median.as_secs_f64()),
                fmt_x(speedup(&points, p)),
                fmt_pct(speedup(&points, p) / p.shards as f64),
                format!("{}", p.rebuild_core_scans),
                fmt_x(scan_reduction(&points, p)),
                format!("{:.3}", p.goodput_per_mcycle),
                format!("{:.2}", p.p99_mcycles),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fleet serving — {} cores, {} arrivals, {} worker thread(s); \
             wall-clock and scaling vs shard count",
            MESH_WIDTH * MESH_HEIGHT,
            arrivals.len(),
            threads
        ),
        &[
            "Shards",
            "Wall (s)",
            "Speedup",
            "Efficiency",
            "Rebuild scans",
            "Scan cut",
            "Goodput/Mcyc",
            "p99 (Mcyc)",
        ],
        &rows,
    );
    let base = &points[0];
    println!(
        "All shard counts produced byte-identical cluster reports \
         ({} placed, {} rejected, {} requests completed, p99 {:.2} Mcycles); \
         only the rescan work changed.",
        base.placed, base.rejected, base.completed_requests, base.p99_mcycles
    );

    // Default to the workspace root regardless of the harness CWD
    // (cargo bench runs the binary from the package directory).
    let out_path = std::env::var("V10_BENCH_JSON_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_serving_fleet.json",
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
        let committed = validate_artifact(&doc)
            .unwrap_or_else(|e| panic!("baseline {baseline_path} fails the schema: {e}"));
        let fresh = points
            .iter()
            .find(|p| p.shards == 4)
            .map(|p| scan_reduction(&points, p))
            .expect("the sweep always includes 4 shards");
        let floor = 0.9 * committed;
        println!(
            "Regression gate: fresh 4-shard scan reduction {} vs checked-in {} (floor 0.9x = {}).",
            fmt_x(fresh),
            fmt_x(committed),
            fmt_x(floor),
        );
        if fresh < floor {
            eprintln!(
                "serving_fleet: FAIL: 4-shard scan reduction {} fell below 0.9x of the \
                 checked-in baseline {}",
                fmt_x(fresh),
                fmt_x(committed),
            );
            std::process::exit(1);
        }
    }
}
