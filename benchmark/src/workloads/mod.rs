//! The four workloads. Each is generated in-process from the run's seed;
//! the library receives only the generated inputs.
//!
//! A workload is set up once per set-up repetition ([`setup`]), then runs
//! untraced passes (the library calls only, timed as a whole) and one
//! traced pass (the same calls, observed and wrapped in spans, plus any
//! calls that exist only to attribute time to a layer).

mod fleet;
mod pairs;
mod serve;
mod stressed;

use std::collections::HashMap;

use v10_collocate::ClusterServeReport;
use v10_core::{run_digest, CounterObserver, RunReport, V10Result, WorkloadReport};
use v10_sim::LatencySummary;
use v10_workloads::{Model, TimedArrival};

use crate::trace::Tracer;

/// A workload's name, purpose and loop type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One V10-Full core, open-loop Poisson arrivals.
    ServeOpenLoop,
    /// The 11 evaluation pairs under the four designs, closed loop.
    PairsClosedLoop,
    /// A 1024-core sharded fleet under an MMPP flash crowd.
    FleetFlashCrowd,
    /// One V10-Full core under an armed overload controller and faults.
    StressedBrownout,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 4] = [
        Kind::ServeOpenLoop,
        Kind::PairsClosedLoop,
        Kind::FleetFlashCrowd,
        Kind::StressedBrownout,
    ];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeOpenLoop => "serve-openloop",
            Kind::PairsClosedLoop => "pairs-closedloop",
            Kind::FleetFlashCrowd => "fleet-flashcrowd",
            Kind::StressedBrownout => "stressed-brownout",
        }
    }

    /// Why the benchmark runs it (one line).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Kind::ServeOpenLoop => {
                "open-loop Poisson serving on one V10-Full core with a full context table: \
                 the core step loop (calendar, Algorithm-1 pick, HBM water-filling, preemption) \
                 does almost all the work"
            }
            Kind::PairsClosedLoop => {
                "the paper's Fig. 16-20 study, 11 pairs x 4 designs closed loop: two tenants \
                 per core, the only workload that runs PMT, and it carries the Fig. 18 \
                 accuracy check"
            }
            Kind::FleetFlashCrowd => {
                "a 1024-core mesh fleet under an MMPP flash crowd: the fleet plane re-simulates \
                 every dirty core from cycle 0 each epoch, on top of placement rebuilds and \
                 epoch merges"
            }
            Kind::StressedBrownout => {
                "the core step loop on a 4-slot table under an armed overload controller and \
                 Poisson transient faults: parking, the degradation ladder and fault replay"
            }
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. `Full` is the benchmark; `Tiny` runs every code path in
/// a fraction of a second, for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes (each pass takes about 2 s).
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// What one pass returns: the library's reports, before any checking.
#[derive(Debug, Clone)]
pub(crate) enum Outputs {
    /// One report per single-core library call, in call order.
    Core(Vec<RunReport>),
    /// The fleet plane's report and outcome.
    Fleet(ClusterServeReport, Box<v10_collocate::FleetOutcome>),
}

impl Outputs {
    /// The single-core reports whose counters feed the per-layer ratios:
    /// every call's report, or the fleet's final per-core reports.
    pub fn reports(&self) -> Box<dyn Iterator<Item = &RunReport> + '_> {
        match self {
            Outputs::Core(reports) => Box::new(reports.iter()),
            Outputs::Fleet(report, _) => Box::new(report.per_core().iter().flatten()),
        }
    }
}

/// The simulated results of one pass, and its correctness findings.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summary {
    /// Every simulated output as raw bits; equal digests mean
    /// bit-identical outputs.
    pub digest: Vec<u64>,
    /// Simulated cycles the pass covered: elapsed cycles summed over
    /// calls, or for the fleet its cores' SA + VU busy cycles.
    pub simulated_cycles: f64,
    /// Requests offered to the pass.
    pub offered_requests: u64,
    /// Requests completed.
    pub completed_requests: u64,
    /// Completed requests within their SLO.
    pub within_slo: u64,
    /// Simulated cycles the goodput is measured over.
    pub goodput_cycles: f64,
    /// Request latency percentiles, in cycles, and their sample count.
    pub latency: Option<LatencySummary>,
    /// The Fig. 18 STP gain of V10-Full over PMT (pairs only).
    pub stp_vs_pmt: Option<f64>,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
}

impl Summary {
    /// Offered requests completed, as a share.
    #[must_use]
    pub fn served_frac(&self) -> f64 {
        ratio(self.completed_requests as f64, self.offered_requests as f64)
    }

    /// Requests within SLO per simulated Mcycle.
    #[must_use]
    pub fn goodput_per_mcyc(&self) -> f64 {
        ratio(self.within_slo as f64 * 1.0e6, self.goodput_cycles)
    }
}

/// A traced pass's results.
#[derive(Debug)]
pub(crate) struct Traced {
    /// The reports, to be checked against the untraced passes'.
    pub outputs: Outputs,
    /// Engine event counts over every observed core call.
    pub counter: CounterObserver,
    /// Workload-specific per-layer metrics.
    pub extra: Vec<(&'static str, f64)>,
    /// Findings of checks only the traced pass can make.
    pub violations: Vec<String>,
}

/// Makes each core call of a traced pass twice: plainly inside a
/// `core.serve` span, which times it exactly as the untraced passes run
/// it, and through the call's `*_observed` twin inside a `core.observe`
/// span, which counts its engine events. The two reports must match.
struct CoreProbe {
    counter: CounterObserver,
    violations: Vec<String>,
}

impl CoreProbe {
    fn new() -> Self {
        CoreProbe {
            counter: CounterObserver::new(),
            violations: Vec::new(),
        }
    }

    /// Runs `plain` and `observed`; returns the plain call's report.
    fn call(
        &mut self,
        tr: &mut Tracer,
        plain: impl FnOnce() -> V10Result<RunReport>,
        observed: impl FnOnce(&mut CounterObserver) -> V10Result<RunReport>,
    ) -> V10Result<RunReport> {
        let report = tr.span("core.serve", |_| plain())?;
        let seen = tr.span("core.observe", |_| observed(&mut self.counter))?;
        if seen != report {
            self.violations
                .push("an observed call's report differs from the plain call's".to_owned());
        }
        Ok(report)
    }

    fn finish(self, outputs: Outputs, extra: Vec<(&'static str, f64)>) -> Traced {
        Traced {
            outputs,
            counter: self.counter,
            extra,
            violations: self.violations,
        }
    }
}

/// One prepared workload.
pub(crate) trait Workload {
    /// Library calls in one pass.
    fn calls_per_pass(&self) -> u64;

    /// The untraced pass: the library calls and nothing else.
    ///
    /// # Errors
    ///
    /// Propagates the library's errors.
    fn pass(&self) -> V10Result<Outputs>;

    /// The traced pass: the same calls, observed, each inside a span.
    ///
    /// # Errors
    ///
    /// Propagates the library's errors.
    fn traced_pass(&self, tr: &mut Tracer) -> V10Result<Traced>;

    /// Digests, simulated metrics and correctness checks of one pass's
    /// outputs. A pure function of the outputs.
    fn summarize(&self, outputs: &Outputs) -> Summary;
}

/// Generates `kind`'s inputs from `seed`, recording set-up spans.
///
/// # Errors
///
/// Propagates the library's errors.
pub(crate) fn setup(
    kind: Kind,
    seed: u64,
    scale: Scale,
    tr: &mut Tracer,
) -> V10Result<Box<dyn Workload>> {
    Ok(match kind {
        Kind::ServeOpenLoop => Box::new(serve::ServeOpenLoop::setup(seed, scale, tr)?),
        Kind::PairsClosedLoop => Box::new(pairs::PairsClosedLoop::setup(seed, scale, tr)?),
        Kind::FleetFlashCrowd => Box::new(fleet::FleetFlashCrowd::setup(seed, scale, tr)?),
        Kind::StressedBrownout => Box::new(stressed::StressedBrownout::setup(seed, scale, tr)?),
    })
}

/// SLO multiple of a model's isolated request demand.
const SLO_FACTOR: f64 = 4.0;

/// A request's SLO in cycles: [`SLO_FACTOR`] × the model's isolated
/// request service demand.
fn slo_cycles(model: Model) -> f64 {
    SLO_FACTOR * model.default_profile().request_cycles() as f64
}

/// SLO per tenant label of an arrival stream.
fn slo_by_label(arrivals: &[TimedArrival]) -> HashMap<String, f64> {
    arrivals
        .iter()
        .map(|a| (a.label().to_owned(), slo_cycles(a.model())))
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Accumulates the latency, completion and SLO figures of a pass.
#[derive(Default)]
struct Tally {
    latencies: Vec<f64>,
    completed: u64,
    within_slo: u64,
}

impl Tally {
    fn add(&mut self, wl: &WorkloadReport, slo: f64) {
        self.completed += wl.completed_requests() as u64;
        for &l in wl.latencies_cycles() {
            self.latencies.push(l);
            if l <= slo {
                self.within_slo += 1;
            }
        }
    }

    fn add_report(&mut self, report: &RunReport, slo: &HashMap<String, f64>) {
        for wl in report.workloads() {
            let bound = slo
                .get(wl.label())
                .expect("every tenant label comes from the arrival stream");
            self.add(wl, *bound);
        }
    }

    fn into_summary(self, summary: Summary) -> Summary {
        Summary {
            completed_requests: self.completed,
            within_slo: self.within_slo,
            latency: LatencySummary::from_samples(&self.latencies),
            ..summary
        }
    }
}

/// Summary of a single open-loop serve call offered `sessions` sessions of
/// `requests` requests each.
fn single_core_summary(
    report: &RunReport,
    sessions: usize,
    requests: usize,
    slo: &HashMap<String, f64>,
) -> Summary {
    let mut tally = Tally::default();
    tally.add_report(report, slo);
    let violations = v10_core::check_serve_invariants(report, sessions);
    tally.into_summary(Summary {
        digest: run_digest(report),
        simulated_cycles: report.elapsed_cycles(),
        offered_requests: (sessions * requests) as u64,
        goodput_cycles: report.elapsed_cycles(),
        violations,
        ..Summary::default()
    })
}

/// The only output of a single-call pass.
fn only_report(outputs: &Outputs) -> &RunReport {
    match outputs {
        Outputs::Core(reports) if reports.len() == 1 => &reports[0],
        _ => unreachable!("a single-call workload produces exactly one report"),
    }
}
