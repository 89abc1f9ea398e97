//! `stressed-brownout`: one V10-Full core with a 4-slot context table
//! under an MMPP flash crowd, an armed overload controller, and a Poisson
//! stream of transient operator faults.

use std::collections::HashMap;

use v10_bench::serving::schedule_of;
use v10_core::{
    serve_design_stressed, serve_design_stressed_observed, AdmissionSchedule, Design, FaultPlan,
    OverloadController, OverloadPolicy, RunOptions, RunReport, V10Result,
};
use v10_npu::NpuConfig;
use v10_workloads::{MmppProcess, Model};

use super::{
    only_report, single_core_summary, slo_by_label, CoreProbe, Outputs, Scale, Summary, Traced,
    Workload,
};
use crate::trace::Tracer;

const MODELS: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];
/// Flash crowd: calm-phase mean gap, burst multiplier, mean phase dwell.
const BASE_MEAN_INTERARRIVAL_CYCLES: f64 = 6.0e6;
const BURST_FACTOR: f64 = 4.0;
const MEAN_DWELL_CYCLES: f64 = 2.0e7;
const MEAN_THINK_CYCLES: f64 = 2.5e5;
const REQUESTS_PER_SESSION: usize = 3;
/// Small on purpose, so bursts overflow the table and the controller has
/// pressure to manage.
const TABLE_SLOTS: usize = 4;
const MEAN_FAULT_GAP_CYCLES: f64 = 4.0e6;
const SEED_SALT: u64 = 0x54;
const FAULT_SALT: u64 = 0xfa;

pub(super) struct StressedBrownout {
    schedule: AdmissionSchedule,
    plan: FaultPlan,
    opts: RunOptions,
    slo: HashMap<String, f64>,
}

impl StressedBrownout {
    pub(super) fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> V10Result<Self> {
        let sessions = match scale {
            Scale::Full => 24_000,
            Scale::Tiny => 48,
        };
        let (arrivals, plan) = tr.span("workloads.sample", |_| {
            let arrivals = MmppProcess::flash_crowd(
                &MODELS,
                BASE_MEAN_INTERARRIVAL_CYCLES,
                BURST_FACTOR,
                MEAN_DWELL_CYCLES,
                seed ^ SEED_SALT,
            )?
            .with_requests_per_session(REQUESTS_PER_SESSION)?
            .with_think_cycles(MEAN_THINK_CYCLES)?
            .sample(sessions)?;
            // Faults keep coming until the last arrival.
            let horizon = arrivals.last().map_or(0.0, |a| a.at_cycles());
            let plan = FaultPlan::none().with_poisson_transients(
                seed ^ FAULT_SALT,
                MEAN_FAULT_GAP_CYCLES,
                horizon,
            )?;
            V10Result::Ok((arrivals, plan))
        })?;
        let schedule = tr.span("core.schedule", |_| schedule_of(&arrivals));
        let slo = tr.span("core.refs", |_| slo_by_label(&arrivals));
        Ok(StressedBrownout {
            schedule,
            plan,
            opts: RunOptions::new(REQUESTS_PER_SESSION)?
                .with_seed(seed)
                .with_table_capacity(TABLE_SLOTS)?,
            slo,
        })
    }

    fn serve(&self) -> V10Result<RunReport> {
        serve_design_stressed(
            Design::V10Full,
            &self.schedule,
            &NpuConfig::table5(),
            &self.opts,
            &self.plan,
            controller(),
        )
    }
}

fn controller() -> OverloadController {
    OverloadController::armed(OverloadPolicy::default())
}

impl Workload for StressedBrownout {
    fn calls_per_pass(&self) -> u64 {
        1
    }

    fn pass(&self) -> V10Result<Outputs> {
        Ok(Outputs::Core(vec![self.serve()?]))
    }

    fn traced_pass(&self, tr: &mut Tracer) -> V10Result<Traced> {
        let mut probe = CoreProbe::new();
        let report = probe.call(
            tr,
            || self.serve(),
            |counter| {
                serve_design_stressed_observed(
                    Design::V10Full,
                    &self.schedule,
                    &NpuConfig::table5(),
                    &self.opts,
                    &self.plan,
                    controller(),
                    counter,
                )
            },
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
