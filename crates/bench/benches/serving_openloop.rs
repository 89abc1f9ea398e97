//! serving_openloop — open-loop serving under the four executors.
//!
//! Tenants arrive as a seeded Poisson process, are admitted into free
//! Fig. 11 context-table slots (or rejected when the table is full), run a
//! bounded request stream with think time, and depart. The sweep varies
//! offered load (reciprocal mean inter-arrival time) and prints, per
//! executor: goodput, p50/p95/p99 request latency, SLO attainment, and the
//! admission rejection rate. Every simulated quantity is deterministic —
//! those tables are byte-identical across runs and `V10_BENCH_THREADS`
//! settings — and the sweep spans light load through saturation, where
//! goodput plateaus and tail latency climbs. The final table wall-times
//! the heaviest load point through `v10_bench::timing` (comparable with
//! sim_throughput and serving_overload) and is the one machine-dependent
//! piece of output; it never feeds the simulation.
//!
//! Knob: `V10_BENCH_SEED` (arrival stream seed). The SLO is
//! `SLO_FACTOR` (4) × the model's isolated request service demand.

use v10_bench::serving::{schedule_of, SLO_FACTOR};
use v10_bench::sweep::parallel_map;
use v10_bench::timing::{cycles_per_sec, fmt_cycles_per_sec, median_wall};
use v10_bench::{fmt_pct, print_table, seed};
use v10_core::{serve_design, AdmissionSchedule, Design, RunOptions};
use v10_npu::NpuConfig;
use v10_sim::LatencySummary;
use v10_workloads::{Model, OpenLoopProcess, TimedArrival};

/// Tenant mix: four light-footprint models spanning SA- and VU-heavy
/// behavior, so sessions stay short and the sweep stays fast.
const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];

/// Mean inter-arrival times swept, in cycles; offered load is the
/// reciprocal, so the sweep runs light → saturated.
const MEAN_INTERARRIVAL_CYCLES: [f64; 6] = [32.0e6, 16.0e6, 8.0e6, 5.0e6, 3.5e6, 2.5e6];

/// Tenants offered per run.
const ARRIVALS: usize = 32;

/// Requests each tenant submits before departing.
const REQUESTS_PER_SESSION: usize = 3;

/// Mean think time between a tenant's requests, in cycles.
const MEAN_THINK_CYCLES: f64 = 2.5e5;

/// Decorrelates this bench's arrival stream from other uses of the shared
/// experiment seed.
const SEED_SALT: u64 = 0x4;

/// One (executor, offered load) measurement.
struct ServingPoint {
    goodput_per_mcycle: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    slo_attainment: f64,
    rejection_rate: f64,
}

fn arrivals_for(mean_interarrival: f64) -> Vec<TimedArrival> {
    OpenLoopProcess::new(&MODELS, mean_interarrival, seed() ^ SEED_SALT)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(REQUESTS_PER_SESSION)
        .expect("positive session quota")
        .with_think_cycles(MEAN_THINK_CYCLES)
        .expect("non-negative think time")
        .sample(ARRIVALS)
        .expect("non-zero arrival count")
}

fn serve_once(design: Design, schedule: &AdmissionSchedule) -> f64 {
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    serve_design(design, schedule, &NpuConfig::table5(), &opts)
        .expect("valid serving run")
        .elapsed_cycles()
}

fn run_point(design: Design, mean_interarrival: f64) -> ServingPoint {
    let arrivals = arrivals_for(mean_interarrival);
    let schedule = schedule_of(&arrivals);
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed());
    let report =
        serve_design(design, &schedule, &NpuConfig::table5(), &opts).expect("valid serving run");

    let slo_of = |label: &str| -> f64 {
        let a = arrivals
            .iter()
            .find(|a| a.label() == label)
            .expect("report labels come from the arrival stream");
        SLO_FACTOR * a.model().default_profile().request_cycles() as f64
    };
    let mut latencies = Vec::new();
    let mut completed = 0usize;
    let mut within_slo = 0usize;
    for wl in report.workloads() {
        let bound = slo_of(wl.label());
        for &l in wl.latencies_cycles() {
            latencies.push(l);
            completed += 1;
            if l <= bound {
                within_slo += 1;
            }
        }
    }
    let summary = LatencySummary::from_samples(&latencies);
    ServingPoint {
        goodput_per_mcycle: completed as f64 * 1.0e6 / report.elapsed_cycles(),
        p50: summary.map_or(0.0, |s| s.p50()),
        p95: summary.map_or(0.0, |s| s.p95()),
        p99: summary.map_or(0.0, |s| s.p99()),
        slo_attainment: if completed == 0 {
            0.0
        } else {
            within_slo as f64 / completed as f64
        },
        rejection_rate: report.rejected_admissions() as f64 / ARRIVALS as f64,
    }
}

fn fmt_mcycles(v: f64) -> String {
    format!("{:.2}", v / 1.0e6)
}

fn main() {
    let grid: Vec<(Design, f64)> = MEAN_INTERARRIVAL_CYCLES
        .iter()
        .flat_map(|&mean| Design::ALL.iter().map(move |&d| (d, mean)))
        .collect();
    let points = parallel_map(&grid, |&(design, mean)| run_point(design, mean));

    let header = [
        "Offered load (arrivals/Mcyc)",
        "PMT",
        "V10-Base",
        "V10-Fair",
        "V10-Full",
    ];
    let row_label = |mean: f64| format!("{:.2}", 1.0e6 / mean);
    let table = |metric: &dyn Fn(&ServingPoint) -> String| -> Vec<Vec<String>> {
        MEAN_INTERARRIVAL_CYCLES
            .iter()
            .enumerate()
            .map(|(i, &mean)| {
                std::iter::once(row_label(mean))
                    .chain(
                        (0..Design::ALL.len()).map(|d| metric(&points[i * Design::ALL.len() + d])),
                    )
                    .collect()
            })
            .collect()
    };

    print_table(
        "Serving (open loop) — goodput (completed requests / Mcycle)",
        &header,
        &table(&|p| format!("{:.3}", p.goodput_per_mcycle)),
    );
    print_table(
        "Serving (open loop) — p50 request latency (Mcycles)",
        &header,
        &table(&|p| fmt_mcycles(p.p50)),
    );
    print_table(
        "Serving (open loop) — p95 request latency (Mcycles)",
        &header,
        &table(&|p| fmt_mcycles(p.p95)),
    );
    print_table(
        "Serving (open loop) — p99 request latency (Mcycles)",
        &header,
        &table(&|p| fmt_mcycles(p.p99)),
    );
    print_table(
        &format!(
            "Serving (open loop) — SLO attainment (latency ≤ {:.0}× isolated demand)",
            SLO_FACTOR
        ),
        &header,
        &table(&|p| fmt_pct(p.slo_attainment)),
    );
    print_table(
        "Serving (open loop) — admission rejection rate (table: 8 slots)",
        &header,
        &table(&|p| fmt_pct(p.rejection_rate)),
    );

    // Measured simulator throughput at the heaviest load point, wall-timed
    // through the shared harness (`v10_bench::timing`) so this column is
    // directly comparable with sim_throughput and serving_overload.
    // Machine-dependent by nature; it never feeds the simulation, and
    // every other table above stays byte-identical across machines.
    let heaviest = MEAN_INTERARRIVAL_CYCLES[MEAN_INTERARRIVAL_CYCLES.len() - 1];
    let schedule = schedule_of(&arrivals_for(heaviest));
    let throughput_row: Vec<String> = std::iter::once(row_label(heaviest))
        .chain(Design::ALL.iter().map(|&design| {
            let cycles = serve_once(design, &schedule); // warm, untimed
            let wall = median_wall(3, || serve_once(design, &schedule));
            fmt_cycles_per_sec(cycles_per_sec(v10_sim::Cycles::new(cycles), wall))
        }))
        .collect();
    print_table(
        "Serving (open loop) — simulator throughput (simulated cycles / wall-second; machine-dependent)",
        &header,
        &[throughput_row],
    );

    println!(
        "{ARRIVALS} tenants per run, {REQUESTS_PER_SESSION} requests per session, \
         mean think {MEAN_THINK_CYCLES:.0} cycles; saturation shows as a goodput \
         plateau with monotonically growing p99."
    );
}
