//! serving_overload — bursty arrivals against the overload control plane.
//!
//! A seeded Markov-modulated flash-crowd stream (calm baseline punctuated
//! by bursts that multiply the arrival rate) is served on one V10-Full core
//! with a deliberately small context table, once with the
//! `OverloadController` disarmed and once armed. The sweep crosses burst
//! intensity with the controller switch and prints goodput, p99 request
//! latency, SLO attainment, turned-away arrivals (hard rejections when
//! disarmed, deadline sheds when armed), ladder degradations, and watchdog
//! boosts. Every simulated quantity is deterministic — those tables are
//! byte-identical across runs and `V10_BENCH_THREADS` settings — and the
//! disarmed column is plain `serve_design` (the same serve path with the
//! controller disarmed). The final table wall-times the heaviest burst through
//! `v10_bench::timing` (comparable with sim_throughput and
//! serving_openloop) and is the one machine-dependent piece of output; it
//! never feeds the simulation.
//!
//! Knob: `V10_BENCH_SEED` (arrival stream seed). The SLO is
//! `SLO_FACTOR` (4) × the model's isolated request service demand.

use v10_bench::serving::{schedule_of, SLO_FACTOR};
use v10_bench::sweep::parallel_map;
use v10_bench::timing::{cycles_per_sec, fmt_cycles_per_sec, median_wall};
use v10_bench::{fmt_pct, print_table, seed};
use v10_core::{
    serve_design_stressed, Design, FaultPlan, OverloadController, OverloadPolicy, RunOptions,
};
use v10_npu::NpuConfig;
use v10_sim::LatencySummary;
use v10_workloads::{MmppProcess, Model, TimedArrival};

/// Tenant mix: three light-footprint models so sessions stay short.
const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];

/// Calm-phase mean inter-arrival time in cycles.
const BASE_MEAN_INTERARRIVAL_CYCLES: f64 = 6.0e6;

/// Burst intensities swept: ×1 degenerates to plain Poisson.
const BURST_FACTORS: [f64; 3] = [1.0, 2.0, 4.0];

/// Mean dwell per modulation phase, in cycles.
const MEAN_DWELL_CYCLES: f64 = 2.0e7;

/// Tenants offered per run and requests each submits before departing.
const ARRIVALS: usize = 24;
const REQUESTS_PER_SESSION: usize = 3;

/// Mean think time between a tenant's requests, in cycles.
const MEAN_THINK_CYCLES: f64 = 2.5e5;

/// Context-table slots: small on purpose, so bursts overflow the table and
/// the control plane has pressure to manage.
const TABLE_SLOTS: usize = 4;

/// Decorrelates this bench's seeded streams from other benches.
const SEED_SALT: u64 = 0x6;

/// One (burst factor, controller switch) measurement.
struct OverloadPoint {
    goodput_per_mcycle: f64,
    p99_mcycles: f64,
    slo_attainment: f64,
    turned_away: u64,
    degradations: u64,
    boosts: u64,
    overload_fraction: f64,
}

fn arrivals_for(burst_factor: f64) -> Vec<TimedArrival> {
    MmppProcess::flash_crowd(
        &MODELS,
        BASE_MEAN_INTERARRIVAL_CYCLES,
        burst_factor,
        MEAN_DWELL_CYCLES,
        seed() ^ SEED_SALT,
    )
    .expect("valid flash-crowd process")
    .with_requests_per_session(REQUESTS_PER_SESSION)
    .expect("positive session quota")
    .with_think_cycles(MEAN_THINK_CYCLES)
    .expect("non-negative think time")
    .sample(ARRIVALS)
    .expect("non-zero arrival count")
}

fn run_point(burst_factor: f64, armed: bool) -> OverloadPoint {
    let arrivals = arrivals_for(burst_factor);
    let schedule = schedule_of(&arrivals);
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed())
        .with_table_capacity(TABLE_SLOTS)
        .expect("positive table capacity");
    let cfg = NpuConfig::table5();
    let controller = if armed {
        OverloadController::armed(OverloadPolicy)
    } else {
        OverloadController::disarmed()
    };
    let report = serve_design_stressed(
        Design::V10Full,
        &schedule,
        &cfg,
        &opts,
        &FaultPlan::none(),
        controller,
    )
    .expect("valid overloaded serving run");

    let slo_of = |label: &str| -> f64 {
        let a = arrivals
            .iter()
            .find(|a| a.label() == label)
            .expect("report labels come from the arrival stream");
        SLO_FACTOR * a.model().default_profile().request_cycles() as f64
    };
    let mut latencies = Vec::new();
    let mut within_slo = 0usize;
    for wl in report.workloads() {
        let bound = slo_of(wl.label());
        for &l in wl.latencies_cycles() {
            latencies.push(l);
            if l <= bound {
                within_slo += 1;
            }
        }
    }
    let completed = latencies.len();
    let summary = LatencySummary::from_samples(&latencies);
    let stats = report.overload_stats();
    OverloadPoint {
        goodput_per_mcycle: within_slo as f64 * 1.0e6 / report.elapsed_cycles(),
        p99_mcycles: summary.map_or(0.0, |s| s.p99()) / 1.0e6,
        slo_attainment: if completed == 0 {
            0.0
        } else {
            within_slo as f64 / completed as f64
        },
        turned_away: report.rejected_admissions() + stats.shed_requests(),
        degradations: stats.degradations(),
        boosts: stats.boosts(),
        overload_fraction: stats.overload_cycles() / report.elapsed_cycles(),
    }
}

fn main() {
    let grid: Vec<(f64, bool)> = BURST_FACTORS
        .iter()
        .flat_map(|&burst| [false, true].into_iter().map(move |armed| (burst, armed)))
        .collect();
    let points = parallel_map(&grid, |&(burst, armed)| run_point(burst, armed));
    let point = |i: usize, armed: bool| &points[i * 2 + usize::from(armed)];

    let header = ["Burst intensity", "controller off", "controller on"];
    let table = |metric: &dyn Fn(&OverloadPoint) -> String| -> Vec<Vec<String>> {
        BURST_FACTORS
            .iter()
            .enumerate()
            .map(|(i, &burst)| {
                vec![
                    format!("x{burst:.0}"),
                    metric(point(i, false)),
                    metric(point(i, true)),
                ]
            })
            .collect()
    };

    print_table(
        "Serving under overload — goodput (SLO-good requests / Mcycle)",
        &header,
        &table(&|p| format!("{:.3}", p.goodput_per_mcycle)),
    );
    print_table(
        "Serving under overload — p99 request latency (Mcycles)",
        &header,
        &table(&|p| format!("{:.2}", p.p99_mcycles)),
    );
    print_table(
        &format!(
            "Serving under overload — SLO attainment (latency ≤ {:.0}× isolated demand)",
            SLO_FACTOR
        ),
        &header,
        &table(&|p| fmt_pct(p.slo_attainment)),
    );
    print_table(
        "Serving under overload — turned away (hard rejections + deadline sheds)",
        &header,
        &table(&|p| format!("{}", p.turned_away)),
    );
    print_table(
        "Serving under overload — ladder degradations / watchdog boosts",
        &header,
        &table(&|p| format!("{} / {}", p.degradations, p.boosts)),
    );
    print_table(
        "Serving under overload — fraction of the run spent overloaded",
        &header,
        &table(&|p| fmt_pct(p.overload_fraction)),
    );

    // Measured simulator throughput at the heaviest burst, wall-timed
    // through the shared harness (`v10_bench::timing`) so this column is
    // directly comparable with sim_throughput and serving_openloop.
    // Machine-dependent by nature; it never feeds the simulation, and
    // every other table above stays byte-identical across machines.
    let heaviest = BURST_FACTORS[BURST_FACTORS.len() - 1];
    let schedule = schedule_of(&arrivals_for(heaviest));
    let opts = RunOptions::new(REQUESTS_PER_SESSION)
        .expect("positive request count")
        .with_seed(seed())
        .with_table_capacity(TABLE_SLOTS)
        .expect("positive table capacity");
    let cfg = NpuConfig::table5();
    let timed = |armed: bool| -> String {
        let run = || {
            let controller = if armed {
                OverloadController::armed(OverloadPolicy)
            } else {
                OverloadController::disarmed()
            };
            serve_design_stressed(
                Design::V10Full,
                &schedule,
                &cfg,
                &opts,
                &FaultPlan::none(),
                controller,
            )
            .expect("valid overloaded serving run")
            .elapsed_cycles()
        };
        let cycles = run(); // warm, untimed
        let wall = median_wall(3, run);
        fmt_cycles_per_sec(cycles_per_sec(v10_sim::Cycles::new(cycles), wall))
    };
    print_table(
        "Serving under overload — simulator throughput (simulated cycles / wall-second; machine-dependent)",
        &header,
        &[vec![format!("x{heaviest:.0}"), timed(false), timed(true)]],
    );

    println!(
        "{ARRIVALS} tenants per run on one V10-Full core with {TABLE_SLOTS} context-table \
         slots, {REQUESTS_PER_SESSION} requests per session, flash-crowd dwell \
         {MEAN_DWELL_CYCLES:.0} cycles; armed runs park full-table arrivals and walk the \
         degradation ladder instead of hard-rejecting, so their goodput holds up under \
         bursts at the cost of explicit control actions."
    );
}
