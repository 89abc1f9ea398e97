//! `pairs-closedloop`: the paper's evaluation study — the 11 collocation
//! pairs of Figs. 16–24 under all four designs, closed loop, with the
//! single-tenant runs as STP references.

use v10_bench::geomean;
use v10_core::{
    run_design, run_pmt_observed, run_single_tenant, Design, Policy, RunOptions, RunReport,
    SimObserver, V10Engine, V10Result, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_workloads::{Model, PAIRS_EVAL};

use super::{slo_cycles, CoreProbe, Outputs, Scale, Summary, Tally, Traced, Workload};
use crate::trace::Tracer;

const SEED_SALT: u64 = 0x52;

/// One collocation pair, ready to run.
struct Pair {
    specs: [WorkloadSpec; 2],
    /// SLO per tenant, in cycles.
    slo: [f64; 2],
    /// Single-tenant mean request latency per tenant (the STP references).
    singles: [f64; 2],
}

pub(super) struct PairsClosedLoop {
    pairs: Vec<Pair>,
    opts: RunOptions,
}

fn spec_of(model: Model, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(model.abbrev(), model.default_profile().synthesize(seed))
}

/// [`run_design`] with an observer: the same design → executor dispatch.
fn run_design_observed<O: SimObserver>(
    design: Design,
    specs: &[WorkloadSpec],
    config: &NpuConfig,
    opts: &RunOptions,
    observer: &mut O,
) -> V10Result<RunReport> {
    let engine = |policy, preemption| V10Engine::new(*config, policy, preemption);
    match design {
        Design::Pmt => run_pmt_observed(specs, config, opts, observer),
        Design::V10Base => engine(Policy::RoundRobin, false).run_observed(specs, opts, observer),
        Design::V10Fair => engine(Policy::Priority, false).run_observed(specs, opts, observer),
        Design::V10Full => engine(Policy::Priority, true).run_observed(specs, opts, observer),
    }
}

impl PairsClosedLoop {
    pub(super) fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> V10Result<Self> {
        let requests = match scale {
            Scale::Full => 288,
            Scale::Tiny => 2,
        };
        let seed = seed ^ SEED_SALT;
        let models: Vec<[Model; 2]> = PAIRS_EVAL.iter().map(|&(a, b)| [a, b]).collect();
        let specs: Vec<[WorkloadSpec; 2]> = tr.span("workloads.sample", |_| {
            models
                .iter()
                .map(|&[a, b]| [spec_of(a, seed), spec_of(b, seed.wrapping_add(1))])
                .collect()
        });
        let cfg = NpuConfig::table5();
        let singles = tr.span("core.refs", |_| {
            specs
                .iter()
                .map(|pair| -> V10Result<[f64; 2]> {
                    let single = |s: &WorkloadSpec| -> V10Result<f64> {
                        Ok(run_single_tenant(s, &cfg, requests)?.workloads()[0]
                            .avg_latency_cycles())
                    };
                    Ok([single(&pair[0])?, single(&pair[1])?])
                })
                .collect::<V10Result<Vec<_>>>()
        })?;
        let pairs = specs
            .into_iter()
            .zip(models)
            .zip(singles)
            .map(|((specs, [a, b]), singles)| Pair {
                specs,
                slo: [slo_cycles(a), slo_cycles(b)],
                singles,
            })
            .collect();
        Ok(PairsClosedLoop {
            pairs,
            opts: RunOptions::new(requests)?.with_seed(seed),
        })
    }
}

impl Workload for PairsClosedLoop {
    fn calls_per_pass(&self) -> u64 {
        (self.pairs.len() * Design::ALL.len()) as u64
    }

    fn pass(&self) -> V10Result<Outputs> {
        let cfg = NpuConfig::table5();
        let mut reports = Vec::with_capacity(self.pairs.len() * Design::ALL.len());
        for pair in &self.pairs {
            for design in Design::ALL {
                reports.push(run_design(design, &pair.specs, &cfg, &self.opts)?);
            }
        }
        Ok(Outputs::Core(reports))
    }

    fn traced_pass(&self, tr: &mut Tracer) -> V10Result<Traced> {
        let cfg = NpuConfig::table5();
        let mut probe = CoreProbe::new();
        let mut reports = Vec::with_capacity(self.pairs.len() * Design::ALL.len());
        for pair in &self.pairs {
            for design in Design::ALL {
                reports.push(probe.call(
                    tr,
                    || run_design(design, &pair.specs, &cfg, &self.opts),
                    |counter| run_design_observed(design, &pair.specs, &cfg, &self.opts, counter),
                )?);
            }
        }
        Ok(probe.finish(Outputs::Core(reports), Vec::new()))
    }

    fn summarize(&self, outputs: &Outputs) -> Summary {
        let Outputs::Core(reports) = outputs else {
            unreachable!("pairs-closedloop produces single-core reports")
        };
        let mut tally = Tally::default();
        let mut summary = Summary::default();
        let mut gains = Vec::with_capacity(self.pairs.len());
        for (pair, runs) in self.pairs.iter().zip(reports.chunks(Design::ALL.len())) {
            let mut stp = [0.0; 4];
            for (i, report) in runs.iter().enumerate() {
                summary.digest.extend(v10_core::run_digest(report));
                summary.simulated_cycles += report.elapsed_cycles();
                summary
                    .violations
                    .extend(v10_core::check_serve_invariants(report, pair.specs.len()));
                for (wl, &slo) in report.workloads().iter().zip(&pair.slo) {
                    tally.add(wl, slo);
                }
                stp[i] = report.system_throughput(&pair.singles);
            }
            // Design::ALL order: PMT first, V10-Full last.
            gains.push(stp[3] / stp[0]);
        }
        summary.goodput_cycles = summary.simulated_cycles;
        summary.stp_vs_pmt = Some(geomean(&gains));
        // Closed loop: a tenant offers its next request only when the last
        // completes, and runs on until the slowest reaches its quota, so
        // every offered request is served.
        summary.offered_requests = tally.completed;
        tally.into_summary(summary)
    }
}
