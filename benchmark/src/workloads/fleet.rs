//! `fleet-flashcrowd`: a 1024-core 32×32 mesh fleet with 8 HBM groups,
//! sharded 8 ways, serving a single-request MMPP flash crowd through
//! [`FleetPlane::serve`] on two worker threads.

use std::collections::HashMap;

use v10_collocate::{
    build_dataset, ClusteringPipeline, FleetOutcome, FleetPlane, OnlinePlacer, PairPerfCache,
    Placement, TopologyWeights,
};
use v10_core::{
    check_serve_invariants, run_digest, serve_design, Admission, AdmissionSchedule,
    CounterObserver, Design, FleetConservation, Policy, RunOptions, RunReport, V10Engine,
    V10Result, WorkloadSpec,
};
use v10_npu::{FleetTopology, NpuConfig};
use v10_sim::Cycles;
use v10_workloads::{MmppProcess, Model, TimedArrival};

use super::{ratio, slo_by_label, Outputs, Scale, Summary, Tally, Traced, Workload};
use crate::trace::Tracer;

/// Served mix: three light models, so tenants retire within an epoch or
/// two and slots keep recycling.
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
const MESH_WIDTH: usize = 32;
const MESH_HEIGHT: usize = 32;
const HBM_GROUPS: usize = 8;
const LINK_BYTES_PER_CYCLE: f64 = 64.0;
const SLOTS_PER_CORE: usize = 4;
const SHARDS: usize = 8;
/// Worker threads of the timed passes; the benchmark is sized for a
/// two-core host.
const THREADS: usize = 2;
const BASE_MEAN_INTERARRIVAL_CYCLES: f64 = 2.5e5;
const BURST_FACTOR: f64 = 4.0;
/// Short phases: over 100 calm/burst phases per stream, so the stream's
/// length, and with it the goodput, varies little with the seed.
const MEAN_DWELL_CYCLES: f64 = 5.0e6;
const EPOCH_CYCLES: f64 = 8.0e6;
const HOP_PENALTY: f64 = 0.02;
const SPREAD_PENALTY: f64 = 0.01;
/// Permissive: placement, not rejection, is what this workload measures.
const PLACEMENT_THRESHOLD: f64 = 0.01;
const SEED_SALT: u64 = 0x53;

pub(super) struct FleetFlashCrowd {
    arrivals: Vec<TimedArrival>,
    pipeline: ClusteringPipeline,
    opts: RunOptions,
    slo: HashMap<String, f64>,
}

impl FleetFlashCrowd {
    pub(super) fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> V10Result<Self> {
        let count = match scale {
            Scale::Full => 6144,
            Scale::Tiny => 48,
        };
        let arrivals = tr.span("workloads.sample", |_| {
            MmppProcess::flash_crowd(
                &MODELS,
                BASE_MEAN_INTERARRIVAL_CYCLES,
                BURST_FACTOR,
                MEAN_DWELL_CYCLES,
                seed ^ SEED_SALT,
            )?
            .with_requests_per_session(1)?
            .sample(count)
        })?;
        let pipeline = tr.span("collocate.fit", |_| {
            let points = build_dataset(&FIT_MODELS, &[], seed);
            let mut cache = PairPerfCache::new(2, seed);
            ClusteringPipeline::fit(&points, 3, 3, &mut cache, seed)
        });
        let slo = tr.span("core.refs", |_| slo_by_label(&arrivals));
        Ok(FleetFlashCrowd {
            arrivals,
            pipeline,
            opts: RunOptions::new(1)?.with_seed(seed),
            slo,
        })
    }

    fn plane(&self, threads: usize) -> V10Result<FleetPlane<'_>> {
        let placer = OnlinePlacer::new(&self.pipeline).with_threshold(PLACEMENT_THRESHOLD)?;
        let topology =
            FleetTopology::mesh(MESH_WIDTH, MESH_HEIGHT, HBM_GROUPS, LINK_BYTES_PER_CYCLE)?;
        let weights = TopologyWeights::new(HOP_PENALTY, SPREAD_PENALTY)?;
        Ok(FleetPlane::new(
            placer,
            topology,
            SLOTS_PER_CORE,
            SHARDS,
            Cycles::new(EPOCH_CYCLES),
            weights,
        )?
        .with_threads(threads))
    }

    fn serve(&self, threads: usize) -> V10Result<Outputs> {
        let (report, outcome) = self.plane(threads)?.serve(
            &self.arrivals,
            Design::V10Full,
            &NpuConfig::table5(),
            &self.opts,
        )?;
        Ok(Outputs::Fleet(report, Box::new(outcome)))
    }
}

/// The plane's dirty-core re-simulations, rebuilt from outside.
struct Rebuild {
    /// Each core's last re-simulation report.
    finals: Vec<Option<RunReport>>,
    /// Re-simulations made.
    calls: usize,
    /// Admissions those re-simulations covered.
    admissions: usize,
}

impl FleetFlashCrowd {
    /// Rebuilds the plane's dirty-core re-simulations from its decisions:
    /// groups them by [`FleetPlane::clock`] epoch, appends each epoch's
    /// placed arrivals to their core, and re-serves every dirty core's full
    /// admission list through `serve`, as the plane does at each epoch's
    /// end.
    fn rebuild(
        &self,
        outcome: &FleetOutcome,
        mut serve: impl FnMut(&AdmissionSchedule, &RunOptions) -> V10Result<RunReport>,
    ) -> V10Result<Rebuild> {
        let clock = self.plane(1)?.clock();
        let opts = self.opts.with_table_capacity(SLOTS_PER_CORE)?;
        let cores = MESH_WIDTH * MESH_HEIGHT;
        let mut per_core: Vec<Vec<Admission>> = vec![Vec::new(); cores];
        let mut dirty = vec![false; cores];
        let mut out = Rebuild {
            finals: vec![None; cores],
            calls: 0,
            admissions: 0,
        };
        let epoch_of = |a: &TimedArrival| clock.epoch_of(Cycles::new(a.at_cycles()));
        let mut i = 0;
        while i < self.arrivals.len() {
            let epoch = epoch_of(&self.arrivals[i]);
            while i < self.arrivals.len() && epoch_of(&self.arrivals[i]) == epoch {
                let a = &self.arrivals[i];
                if let Placement::Core(core) = outcome.decisions()[i].placement {
                    let spec = WorkloadSpec::new(a.label(), a.trace().clone());
                    per_core[core].push(Admission::new(spec, a.at_cycles(), a.requests())?);
                    dirty[core] = true;
                }
                i += 1;
            }
            for core in 0..cores {
                if !std::mem::take(&mut dirty[core]) {
                    continue;
                }
                let schedule = AdmissionSchedule::new(per_core[core].clone())?;
                out.calls += 1;
                out.admissions += schedule.len();
                out.finals[core] = Some(serve(&schedule, &opts)?);
            }
        }
        Ok(out)
    }
}

impl Workload for FleetFlashCrowd {
    fn calls_per_pass(&self) -> u64 {
        1
    }

    fn pass(&self) -> V10Result<Outputs> {
        self.serve(THREADS)
    }

    fn traced_pass(&self, tr: &mut Tracer) -> V10Result<Traced> {
        let from = tr.spans().len();
        // The single-threaded plane brackets the re-simulation rebuilds
        // (A-B-A), so linear machine drift cancels out of `fleet.self_s`.
        // The rebuild runs plainly, then at once through the observed twin
        // to count events; the two-thread serve follows for the thread
        // efficiency. The report is thread-count independent, which the
        // correctness gate checks against the untraced passes.
        let outputs = tr.span("fleet.serve", |_| self.serve(1))?;
        let Outputs::Fleet(report, outcome) = &outputs else {
            unreachable!("the fleet plane produces fleet outputs")
        };
        let cfg = NpuConfig::table5();
        let plain = tr.span("fleet.resim", |tr| {
            self.rebuild(outcome, |schedule, opts| {
                tr.span("core.serve", |_| {
                    serve_design(Design::V10Full, schedule, &cfg, opts)
                })
            })
        })?;
        // `serve_design(Design::V10Full, ..)` is this engine's `serve`.
        let engine = V10Engine::new(cfg, Policy::Priority, true);
        let mut counter = CounterObserver::new();
        let observed = tr.span("fleet.resim_observed", |tr| {
            self.rebuild(outcome, |schedule, opts| {
                tr.span("core.observe", |_| {
                    engine.serve_observed(schedule, opts, &mut counter)
                })
            })
        })?;
        let again = tr.span("fleet.serve", |_| self.serve(1))?;
        let threaded = tr.span("fleet.serve_threads", |_| self.serve(THREADS))?;

        let mut violations = Vec::new();
        for other in [&again, &threaded] {
            if !matches!(other, Outputs::Fleet(r, _) if r == report) {
                violations.push("fleet: the report changed between serves".to_owned());
            }
        }
        if plain.finals.as_slice() != report.per_core() {
            violations.push(
                "fleet: the rebuilt re-simulation differs from the plane's per-core reports"
                    .to_owned(),
            );
        }
        if observed.finals != plain.finals {
            violations.push("fleet: the observed rebuild differs from the plain one".to_owned());
        }

        let serve_s = tr.seconds(from, "fleet.serve") / 2.0;
        let resim_s = tr.seconds(from, "fleet.resim");
        let extra = vec![
            ("fleet.serve_s", serve_s),
            ("fleet.resim_calls", plain.calls as f64),
            (
                "fleet.resim_admissions_ratio",
                ratio(plain.admissions as f64, outcome.placed() as f64),
            ),
            ("fleet.resim_s", resim_s),
            ("fleet.self_s", serve_s - resim_s),
            (
                "fleet.thread_efficiency",
                ratio(
                    serve_s,
                    THREADS as f64 * tr.seconds(from, "fleet.serve_threads"),
                ),
            ),
            ("fleet.epochs", outcome.epochs() as f64),
            (
                "fleet.scans_per_arrival",
                ratio(
                    outcome.rebuild_core_scans() as f64,
                    outcome.offered() as f64,
                ),
            ),
        ];
        Ok(Traced {
            outputs,
            counter,
            extra,
            violations,
        })
    }

    fn summarize(&self, outputs: &Outputs) -> Summary {
        let Outputs::Fleet(report, outcome) = outputs else {
            unreachable!("the fleet plane produces fleet outputs")
        };
        let mut summary = Summary {
            offered_requests: self.arrivals.iter().map(|a| a.requests() as u64).sum(),
            ..Summary::default()
        };
        let mut hosted = vec![0usize; report.per_core().len()];
        for decision in outcome.decisions() {
            match decision.placement {
                Placement::Core(core) => {
                    hosted[core] += 1;
                    summary.digest.push(core as u64);
                }
                Placement::Reject => summary.digest.push(u64::MAX),
            }
        }
        let mut auditor = FleetConservation::new();
        auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
        let mut tally = Tally::default();
        for (core, r) in report.per_core().iter().enumerate() {
            let Some(r) = r else { continue };
            auditor.record_core(core, r);
            summary.digest.push(core as u64);
            summary.digest.extend(run_digest(r));
            // The modelled work: how many of the 1024 cores the placer
            // touches varies with the seed, which swings the summed per-core
            // elapsed cycles by ±20% while the busy cycles stay within 1%.
            summary.simulated_cycles += r.sa_busy_cycles() + r.vu_busy_cycles();
            summary.goodput_cycles = summary.goodput_cycles.max(r.elapsed_cycles());
            tally.add_report(r, &self.slo);
            summary.violations.extend(
                check_serve_invariants(r, hosted[core])
                    .into_iter()
                    .map(|v| format!("core {core}: {v}")),
            );
        }
        auditor.record_departures(report.per_core().len(), outcome.departures());
        auditor.reconcile();
        summary.violations.extend(
            auditor
                .violations()
                .iter()
                .map(|v| format!("fleet conservation: {v}")),
        );
        tally.into_summary(summary)
    }
}
