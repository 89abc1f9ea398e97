//! sim_throughput — measured simulator throughput (simulated cycles per
//! wall-second) over the serving configurations.
//!
//! Every scale-out direction in ROADMAP is gated on raw simulator speed,
//! so this bench makes throughput a first-class, regression-gated metric:
//! it drives the fig18/serving_openloop executor set (all four designs)
//! over an open-loop Poisson serving workload at several tenant counts
//! and reports simulated-cycles-per-wall-second per point. Each timing
//! sample repeats its point's run back to back for at least
//! [`MIN_SAMPLE`] and records the wall time per run
//! ([`v10_bench::timing::per_call_wall`]); samples are taken round by
//! round, one per point per round, so a slow spell on the host spreads
//! over every design instead of landing on one. Simulated results stay
//! deterministic — wall timing never feeds the simulation.
//!
//! Machine-readable output: the run is written to
//! `BENCH_sim_throughput.json` (override with `V10_BENCH_JSON_OUT`). When
//! `V10_BENCH_BASELINE` names a checked-in artifact, the bench validates
//! that artifact against the schema and fails (exit 1) if the fresh
//! headline throughput regresses below 0.9x of its checked-in value —
//! this is the CI gate wired up in `ci.sh`.
//!
//! Knobs: `V10_BENCH_SEED` (arrival stream seed), `V10_BENCH_SMOKE=1`
//! (headline tenant count only, fewer timing samples — used by CI).

use std::time::Duration;

use v10_bench::jsonio::{self, Json};
use v10_bench::serving::smoke;
use v10_bench::timing::{cycles_per_sec, fmt_cycles_per_sec, per_call_wall};
use v10_bench::{fmt_x, print_table, seed};
use v10_core::{
    serve_design, Admission, AdmissionSchedule, Design, RunOptions, RunReport, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_workloads::{Model, OpenLoopProcess};

/// Tenant mix shared with serving_openloop: four light-footprint models
/// spanning SA- and VU-heavy behavior.
const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];

/// Tenant counts swept. The largest count is the headline multi-tenant
/// serving config: long runs with high session turnover are exactly where
/// per-step scans over every tenancy-ever dominate.
const TENANT_COUNTS: [usize; 4] = [8, 32, 96, 256];

/// Mean inter-arrival time in cycles — the near-saturation point of the
/// serving_openloop sweep, so the table stays contended.
const MEAN_INTERARRIVAL_CYCLES: f64 = 3.5e6;

/// Requests each tenant submits before departing.
const REQUESTS_PER_SESSION: usize = 3;

/// Mean think time between a tenant's requests, in cycles.
const MEAN_THINK_CYCLES: f64 = 2.5e5;

/// Decorrelates this bench's arrival stream from other benches.
const SEED_SALT: u64 = 0x7;

/// Timing samples per point (median reported); fewer in smoke mode.
const SAMPLES: usize = 5;
const SMOKE_SAMPLES: usize = 3;

/// Minimum wall time of one timing sample: a sample repeats its run until
/// this much has passed and records the time per run. The headline run
/// takes ~30 ms, so a sample averages some 30 runs instead of one.
const MIN_SAMPLE: Duration = Duration::from_secs(1);

/// Schema version of `BENCH_sim_throughput.json`.
const SCHEMA_VERSION: f64 = 1.0;

/// Pre-refactor headline throughput (V10-Full at the largest tenant
/// count), measured on this container immediately before the event-spine
/// refactor landed; see OPTIMIZATION_LOG.md for the measurement. The
/// checked-in artifact reports its speedup against this anchor.
const PRE_REFACTOR_CYCLES_PER_SEC: f64 = 9.92e9;

/// One (design, tenant count) measurement.
struct ThroughputPoint {
    design: Design,
    tenants: usize,
    simulated_cycles: f64,
    completed_requests: usize,
    wall_median: Duration,
}

impl ThroughputPoint {
    fn rate(&self) -> f64 {
        cycles_per_sec(
            v10_sim::Cycles::new(self.simulated_cycles),
            self.wall_median,
        )
    }
}

fn schedule_for(tenants: usize) -> AdmissionSchedule {
    let process = OpenLoopProcess::new(&MODELS, MEAN_INTERARRIVAL_CYCLES, seed() ^ SEED_SALT)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(REQUESTS_PER_SESSION)
        .expect("positive session quota")
        .with_think_cycles(MEAN_THINK_CYCLES)
        .expect("non-negative think time");
    let arrivals = process.sample(tenants).expect("non-zero arrival count");
    // Traces built here, before timing: the timed runs measure the step
    // loop, not synthesis at seating.
    let admissions: Vec<Admission> = arrivals
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.label(), a.trace()),
                a.at_cycles(),
                a.requests(),
            )
            .expect("sampled arrivals are valid admissions")
        })
        .collect();
    AdmissionSchedule::new(admissions).expect("non-empty schedule")
}

fn run_once(design: Design, schedule: &AdmissionSchedule) -> RunReport {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    serve_design(design, schedule, &NpuConfig::table5(), &opts).expect("valid serving run")
}

/// Measures every (tenant count, design) point. One untimed run per point
/// pins its deterministic simulated quantities; then `samples` rounds each
/// take one [`MIN_SAMPLE`]-long sample of every point, in point order, and
/// a point's wall time is the median of its samples.
fn measure_points(counts: &[usize], samples: usize) -> Vec<ThroughputPoint> {
    let runs: Vec<(Design, usize, AdmissionSchedule, RunReport)> = counts
        .iter()
        .flat_map(|&tenants| {
            let schedule = schedule_for(tenants);
            Design::ALL.map(|design| {
                let report = run_once(design, &schedule);
                (design, tenants, schedule.clone(), report)
            })
        })
        .collect();
    let mut walls: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); runs.len()];
    for _ in 0..samples.max(1) {
        for ((design, _, schedule, pinned), wall) in runs.iter().zip(&mut walls) {
            wall.push(per_call_wall(MIN_SAMPLE, || {
                let r = run_once(*design, schedule);
                assert_eq!(
                    r.elapsed_cycles().to_bits(),
                    pinned.elapsed_cycles().to_bits(),
                    "serving run is not deterministic across repetitions"
                );
                r
            }));
        }
    }
    runs.into_iter()
        .zip(walls)
        .map(|((design, tenants, _, report), mut wall)| {
            wall.sort_unstable();
            ThroughputPoint {
                design,
                tenants,
                simulated_cycles: report.elapsed_cycles(),
                completed_requests: report
                    .workloads()
                    .iter()
                    .map(|w| w.completed_requests())
                    .sum(),
                wall_median: wall[wall.len() / 2],
            }
        })
        .collect()
}

/// Renders the machine-readable artifact.
fn render_json(points: &[ThroughputPoint], headline: &ThroughputPoint, samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"sim_throughput\",\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION:.0},\n"));
    out.push_str(&format!("  \"seed\": {},\n", seed()));
    out.push_str(&format!(
        "  \"requests_per_session\": {REQUESTS_PER_SESSION},\n"
    ));
    out.push_str(&format!(
        "  \"mean_interarrival_cycles\": {MEAN_INTERARRIVAL_CYCLES},\n"
    ));
    out.push_str(&format!("  \"samples_per_point\": {samples},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"tenants\": {}, \"simulated_cycles\": {}, \
             \"completed_requests\": {}, \"wall_seconds_median\": {:.6}, \
             \"cycles_per_wall_second\": {:.1}}}{}\n",
            jsonio::escape(p.design.name()),
            p.tenants,
            p.simulated_cycles,
            p.completed_requests,
            p.wall_median.as_secs_f64(),
            p.rate(),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"headline\": {\n");
    out.push_str(&format!(
        "    \"design\": \"{}\",\n",
        jsonio::escape(headline.design.name())
    ));
    out.push_str(&format!("    \"tenants\": {},\n", headline.tenants));
    out.push_str(&format!(
        "    \"cycles_per_wall_second\": {:.1},\n",
        headline.rate()
    ));
    out.push_str(&format!(
        "    \"pre_refactor_cycles_per_wall_second\": {PRE_REFACTOR_CYCLES_PER_SEC:.1},\n"
    ));
    out.push_str(&format!(
        "    \"speedup_vs_pre_refactor\": {:.2}\n",
        if PRE_REFACTOR_CYCLES_PER_SEC > 0.0 {
            headline.rate() / PRE_REFACTOR_CYCLES_PER_SEC
        } else {
            0.0
        }
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Validates a parsed artifact against the schema; returns the headline
/// cycles/second on success.
fn validate_artifact(doc: &Json) -> Result<f64, String> {
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field \"bench\"")?;
    if bench != "sim_throughput" {
        return Err(format!("\"bench\" is {bench:?}, want \"sim_throughput\""));
    }
    let version = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric field \"schema_version\"")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} != {SCHEMA_VERSION}"));
    }
    for field in ["seed", "requests_per_session", "mean_interarrival_cycles"] {
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
    for (i, p) in points.iter().enumerate() {
        p.get("design")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("points[{i}]: missing string \"design\""))?;
        for field in [
            "tenants",
            "simulated_cycles",
            "completed_requests",
            "wall_seconds_median",
            "cycles_per_wall_second",
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
    headline
        .get("design")
        .and_then(Json::as_str)
        .ok_or("headline: missing string \"design\"")?;
    let rate = headline
        .get("cycles_per_wall_second")
        .and_then(Json::as_num)
        .ok_or("headline: missing numeric \"cycles_per_wall_second\"")?;
    if rate <= 0.0 {
        return Err(format!("headline cycles_per_wall_second {rate} <= 0"));
    }
    Ok(rate)
}

fn main() {
    let smoke = smoke();
    let samples = if smoke { SMOKE_SAMPLES } else { SAMPLES };
    let counts: &[usize] = if smoke {
        &TENANT_COUNTS[TENANT_COUNTS.len() - 1..]
    } else {
        &TENANT_COUNTS[..]
    };

    let points = measure_points(counts, samples);

    let header = ["Tenants", "PMT", "V10-Base", "V10-Fair", "V10-Full"];
    let table = |metric: &dyn Fn(&ThroughputPoint) -> String| -> Vec<Vec<String>> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &tenants)| {
                std::iter::once(format!("{tenants}"))
                    .chain(
                        (0..Design::ALL.len()).map(|d| metric(&points[i * Design::ALL.len() + d])),
                    )
                    .collect()
            })
            .collect()
    };
    print_table(
        "Simulator throughput — simulated cycles per wall-second",
        &header,
        &table(&|p| fmt_cycles_per_sec(p.rate())),
    );
    print_table(
        "Simulator throughput — simulated Mcycles per run",
        &header,
        &table(&|p| format!("{:.0}", p.simulated_cycles / 1.0e6)),
    );

    let headline = points.last().expect("at least one point measured");
    assert_eq!(headline.design, Design::V10Full, "headline is V10-Full");
    println!(
        "Headline (multi-tenant serving config): {} x {} tenants at {} \
         ({} over the pre-refactor anchor of {}).",
        headline.design,
        headline.tenants,
        fmt_cycles_per_sec(headline.rate()),
        fmt_x(headline.rate() / PRE_REFACTOR_CYCLES_PER_SEC),
        fmt_cycles_per_sec(PRE_REFACTOR_CYCLES_PER_SEC),
    );

    // Default to the workspace root regardless of the harness CWD
    // (cargo bench runs the binary from the package directory).
    let out_path = std::env::var("V10_BENCH_JSON_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_sim_throughput.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    let rendered = render_json(&points, headline, samples);
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
        let fresh = headline.rate();
        let floor = 0.9 * committed;
        println!(
            "Regression gate: fresh headline {} vs checked-in {} (floor 0.9x = {}).",
            fmt_cycles_per_sec(fresh),
            fmt_cycles_per_sec(committed),
            fmt_cycles_per_sec(floor),
        );
        if fresh < floor {
            eprintln!(
                "sim_throughput: FAIL: headline throughput {} fell below 0.9x of the \
                 checked-in baseline {}",
                fmt_cycles_per_sec(fresh),
                fmt_cycles_per_sec(committed),
            );
            std::process::exit(1);
        }
    }
}
