//! `serve-openloop`: one V10-Full core serving an open-loop Poisson
//! stream at near-saturation load with the default context table.

use std::collections::HashMap;

use v10_bench::serving::schedule_of;
use v10_core::{
    serve_design, AdmissionSchedule, Design, Policy, RunOptions, RunReport, V10Engine, V10Result,
};
use v10_npu::NpuConfig;
use v10_workloads::{Model, OpenLoopProcess};

use super::{
    only_report, single_core_summary, slo_by_label, CoreProbe, Outputs, Scale, Summary, Traced,
    Workload,
};
use crate::trace::Tracer;

/// Four light models spanning SA- and VU-heavy behaviour.
const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];
/// Mean inter-arrival time: the saturated end of `serving_openloop`'s sweep.
const MEAN_INTERARRIVAL_CYCLES: f64 = 3.5e6;
const MEAN_THINK_CYCLES: f64 = 2.5e5;
const REQUESTS_PER_SESSION: usize = 3;
const SEED_SALT: u64 = 0x51;

pub(super) struct ServeOpenLoop {
    schedule: AdmissionSchedule,
    opts: RunOptions,
    slo: HashMap<String, f64>,
}

impl ServeOpenLoop {
    pub(super) fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> V10Result<Self> {
        let sessions = match scale {
            Scale::Full => 16_000,
            Scale::Tiny => 48,
        };
        let arrivals = tr.span("workloads.sample", |_| {
            OpenLoopProcess::new(&MODELS, MEAN_INTERARRIVAL_CYCLES, seed ^ SEED_SALT)?
                .with_requests_per_session(REQUESTS_PER_SESSION)?
                .with_think_cycles(MEAN_THINK_CYCLES)?
                .sample(sessions)
        })?;
        let schedule = tr.span("core.schedule", |_| schedule_of(&arrivals));
        let slo = tr.span("core.refs", |_| slo_by_label(&arrivals));
        Ok(ServeOpenLoop {
            schedule,
            opts: RunOptions::new(REQUESTS_PER_SESSION)?.with_seed(seed),
            slo,
        })
    }

    fn serve(&self) -> V10Result<RunReport> {
        serve_design(
            Design::V10Full,
            &self.schedule,
            &NpuConfig::table5(),
            &self.opts,
        )
    }
}

impl Workload for ServeOpenLoop {
    fn calls_per_pass(&self) -> u64 {
        1
    }

    fn pass(&self) -> V10Result<Outputs> {
        Ok(Outputs::Core(vec![self.serve()?]))
    }

    fn traced_pass(&self, tr: &mut Tracer) -> V10Result<Traced> {
        let mut probe = CoreProbe::new();
        // `serve_design(Design::V10Full, ..)` is this engine's `serve`.
        let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, true);
        let report = probe.call(
            tr,
            || self.serve(),
            |counter| engine.serve_observed(&self.schedule, &self.opts, counter),
        )?;
        Ok(probe.finish(Outputs::Core(vec![report]), Vec::new()))
    }

    fn summarize(&self, outputs: &Outputs) -> Summary {
        single_core_summary(
            only_report(outputs),
            self.schedule.len(),
            REQUESTS_PER_SESSION,
            &self.slo,
        )
    }
}
