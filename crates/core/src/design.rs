//! The four evaluated designs (§5.1 of the paper), and [`CoreRun`], the
//! one way a core runs under any of them.

use std::fmt;

use v10_npu::NpuConfig;
use v10_sim::{Cycles, FaultEvent, FaultInjector, FaultPlan, V10Error, V10Result};

use crate::engine::{closed_loop, v10_slots, RunOptions, V10Strategy, WorkloadSpec};
use crate::engine_core::{drive, EngineCore, StepOutcome};
use crate::lifecycle::{Admission, AdmissionSchedule};
use crate::metrics::RunReport;
use crate::observer::{NullObserver, SimObserver};
use crate::overload::OverloadController;
use crate::packed::FIG11_TABLE_ROWS;
use crate::pmt::{pmt_slots, PmtStrategy};
use crate::policy::Policy;

/// One of the paper's compared designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Baseline preemptive multi-tasking: task-level time sharing, no
    /// simultaneous operator execution, 20–40 µs context switches.
    Pmt,
    /// V10 with simultaneous operator execution and non-preemptive
    /// round-robin operator scheduling.
    V10Base,
    /// V10-Base plus the priority-based scheduling policy (Algorithm 1),
    /// equal priorities by default.
    V10Fair,
    /// The full design: V10-Fair plus operator preemption (§3.3).
    V10Full,
}

impl Design {
    /// All four designs in the paper's comparison order.
    pub const ALL: [Design; 4] = [
        Design::Pmt,
        Design::V10Base,
        Design::V10Fair,
        Design::V10Full,
    ];

    /// The paper's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Design::Pmt => "PMT",
            Design::V10Base => "V10-Base",
            Design::V10Fair => "V10-Fair",
            Design::V10Full => "V10-Full",
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `specs` collocated on one core under `design`, closed loop: every
/// workload is resident from cycle 0 until it completes
/// `opts.requests_per_workload()` requests. The context table is sized to
/// the workload set; `opts.table_capacity()` is ignored.
///
/// # Errors
///
/// Returns [`v10_sim::V10Error::InvalidArgument`] if `specs` is empty, and
/// [`v10_sim::V10Error::Deadlock`] / [`v10_sim::V10Error::Livelock`] if the
/// simulation stops making progress.
pub fn run_design(
    design: Design,
    specs: &[WorkloadSpec],
    config: &NpuConfig,
    opts: &RunOptions,
) -> V10Result<RunReport> {
    let (schedule, opts) = closed_loop(specs, opts)?;
    serve_design(design, &schedule, config, &opts)
}

/// Serves an open-loop [`AdmissionSchedule`] on one core under `design`:
/// tenants are admitted as they arrive (rejected while the context table is
/// full), complete their request quota, and depart. This is
/// [`serve_design_stressed`] with no faults and a disarmed controller.
///
/// # Errors
///
/// As [`run_design`].
pub fn serve_design(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
) -> V10Result<RunReport> {
    serve_design_stressed(
        design,
        schedule,
        config,
        opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
    )
}

/// [`serve_design_stressed_observed`] without an observer.
///
/// # Errors
///
/// As [`serve_design_stressed_observed`].
pub fn serve_design_stressed(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
) -> V10Result<RunReport> {
    serve_design_stressed_observed(
        design,
        schedule,
        config,
        opts,
        plan,
        controller,
        &mut NullObserver,
    )
}

/// The one serving path: serves `schedule` on one core under `design` while
/// `plan`'s faults inject and `controller` senses overload, with `observer`
/// receiving the merged event stream. It is a [`CoreRun`] handed each
/// admission at its own instant ([`run_until`](CoreRun::run_until) there,
/// then [`push`](CoreRun::push)) and finished, so the run holds only the
/// admissions due and the report it is building, never a copy of the
/// schedule.
///
/// * Faults are compiled into a deterministic schedule and injected as the
///   run plays out, each design paying its own recovery cost (V10's per-FU
///   checkpoint restore vs PMT's whole-core 20–40 µs restore).
/// * An armed controller parks full-table arrivals in an admission queue
///   and walks the graceful-degradation ladder instead of hard-rejecting
///   load. The PMT baseline has no priority mechanism for the ladder or the
///   watchdog to act on, so `Design::Pmt` with an armed controller is
///   rejected.
/// * The context table holds `opts.table_capacity()` slots, defaulting to
///   [`FIG11_TABLE_ROWS`].
///
/// [`FaultPlan::none`] and [`OverloadController::disarmed`] leave the run
/// untouched: the plain serving path is this one with both disarmed.
///
/// # Errors
///
/// As [`run_design`], plus [`v10_sim::V10Error::InvalidArgument`] if the
/// plan's stochastic streams expand past the compile-time cap or for
/// `Design::Pmt` with an armed controller.
pub fn serve_design_stressed_observed<O: SimObserver>(
    design: Design,
    schedule: &AdmissionSchedule,
    config: &NpuConfig,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
    observer: &mut O,
) -> V10Result<RunReport> {
    CoreRun::new(design, config, opts, plan, controller, observer)?.serve(schedule)
}

/// One core's run under one design, as an owned value that can stop at a
/// fence and resume: it holds the engine core, the design's scheduling
/// strategy, and the observer.
///
/// Hand it admissions ([`push`](Self::push)) and scripted faults
/// ([`push_fault`](Self::push_fault)) dated at or after its last fence,
/// advance it with [`run_until`](Self::run_until), and take the report
/// with [`finish`](Self::finish). However the work is split across fences,
/// the report and the event stream are bit-identical to one run handed
/// everything up front and finished; [`serve_design_stressed_observed`]
/// splits at every arrival. A fenced run never commits a step that ends
/// within `EPS` (10⁻⁶ cycles) of its fence, so anything dated at the fence
/// or later still lands where it would have.
///
/// # Example
///
/// ```
/// use v10_core::{Admission, CoreRun, Design, NullObserver, OverloadController, RunOptions,
///     WorkloadSpec};
/// use v10_isa::{FuKind, OpDesc, RequestTrace};
/// use v10_npu::NpuConfig;
/// use v10_sim::{Cycles, FaultPlan};
///
/// let trace = RequestTrace::new(vec![OpDesc::builder(FuKind::Sa).compute_cycles(5_000).build()])?;
/// let admit = |at: f64| Admission::new(WorkloadSpec::new("w", trace.clone()), at, 2);
/// let mut run = CoreRun::new(
///     Design::V10Full,
///     &NpuConfig::table5(),
///     &RunOptions::new(2)?,
///     &FaultPlan::none(),
///     OverloadController::disarmed(),
///     NullObserver,
/// )?;
/// run.push(admit(0.0)?)?;
/// run.run_until(Cycles::new(20_000.0))?;
/// run.push(admit(30_000.0)?)?;
/// let report = run.finish()?;
/// assert_eq!(report.workloads().len(), 2);
/// # Ok::<(), v10_core::V10Error>(())
/// ```
#[derive(Debug)]
pub struct CoreRun<O: SimObserver> {
    core: EngineCore<O>,
    executor: Executor,
    /// Set once the strategy finished the run (a permanent fault retired
    /// the core, or [`finish`](CoreRun::finish) drained it).
    finished: bool,
}

/// The design's scheduling strategy. A run holds exactly one, so the
/// variants' size difference costs nothing worth a box.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Executor {
    V10(V10Strategy),
    Pmt(PmtStrategy),
}

impl<O: SimObserver> CoreRun<O> {
    /// A run at cycle 0 on one core under `design`, with nothing handed
    /// over yet, `plan`'s faults compiled in, and `controller` sensing
    /// overload. The context table holds `opts.table_capacity()` slots,
    /// defaulting to [`FIG11_TABLE_ROWS`].
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the plan's stochastic
    /// streams expand past the compile-time cap, or for `Design::Pmt` with
    /// an armed controller.
    pub fn new(
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
        plan: &FaultPlan,
        controller: OverloadController,
        observer: O,
    ) -> V10Result<Self> {
        const CONTEXT: &str = "serve_design";
        if design == Design::Pmt && controller.is_armed() {
            return Err(V10Error::invalid(
                CONTEXT,
                "PMT has no priority mechanism for the degradation ladder; \
                 arm the controller on a V10 design",
            ));
        }
        let capacity = opts.table_capacity().unwrap_or(FIG11_TABLE_ROWS);
        let faults = FaultInjector::compile(plan)?;
        let (policy, preemption) = match design {
            Design::Pmt => {
                let core = EngineCore::new(
                    CONTEXT,
                    config,
                    capacity,
                    pmt_slots(CONTEXT)?,
                    faults,
                    observer,
                )?;
                return Ok(CoreRun {
                    core,
                    executor: Executor::Pmt(PmtStrategy::new(config, opts)),
                    finished: false,
                });
            }
            Design::V10Base => (Policy::RoundRobin, false),
            Design::V10Fair => (Policy::Priority, false),
            Design::V10Full => (Policy::Priority, true),
        };
        Self::v10(
            CONTEXT, config, policy, preemption, capacity, faults, controller, observer,
        )
    }

    /// A V10 run with explicit scheduling knobs — the designs' run, and
    /// [`V10Engine`](crate::V10Engine)'s for knob pairs no design names.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn v10(
        context: &'static str,
        config: &NpuConfig,
        policy: Policy,
        preemption: bool,
        capacity: usize,
        faults: FaultInjector,
        controller: OverloadController,
        observer: O,
    ) -> V10Result<Self> {
        let mut core = EngineCore::new(
            context,
            config,
            capacity,
            v10_slots(config)?,
            faults,
            observer,
        )?;
        if controller.is_armed() {
            core.arm_overload();
        }
        Ok(CoreRun {
            core,
            executor: Executor::V10(V10Strategy::new(config, policy, preemption, controller)),
            finished: false,
        })
    }

    /// Hands over one admission. It queues behind every handed-over
    /// admission due at or before it, as a schedule's stable time order
    /// would place it.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the admission is dated
    /// before the last fence, or a permanent fault has retired the core.
    pub fn push(&mut self, admission: Admission) -> V10Result<()> {
        self.core.push_admission(admission)
    }

    /// Hands over one scripted fault. It fires after every queued fault
    /// due at or before it.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the fault is dated before
    /// the last fence.
    pub fn push_fault(&mut self, fault: FaultEvent) -> V10Result<()> {
        self.core.push_fault(fault)
    }

    /// Advances the run through every step that ends more than `EPS`
    /// before `fence`, and stops. A run with nothing left to do parks at
    /// its current instant until more work is handed over.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `fence` is earlier than the
    /// previous fence or not finite ([`finish`](Self::finish) runs to
    /// completion), and [`V10Error::Livelock`] if the simulation stops
    /// making progress.
    pub fn run_until(&mut self, fence: Cycles) -> V10Result<()> {
        let fence = fence.as_f64();
        if !fence.is_finite() {
            return Err(V10Error::invalid(
                "CoreRun::run_until",
                format!("fence must be finite, got {fence}; finish() runs to completion"),
            ));
        }
        self.advance_to(fence)
    }

    /// Runs to completion and returns the report, one workload entry per
    /// admitted tenancy in admission order.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::Deadlock`] / [`V10Error::Livelock`] if the
    /// simulation stops making progress.
    pub fn finish(mut self) -> V10Result<RunReport> {
        self.advance_to(f64::INFINITY)?;
        let stats = match &self.executor {
            Executor::V10(strategy) => Some(strategy.controller.stats()),
            Executor::Pmt(_) => None,
        };
        let mut report = self.core.into_report();
        if let Some(stats) = stats {
            report.set_overload_stats(stats);
        }
        Ok(report)
    }

    /// When the `workload`-th admitted tenancy retired, if it has been
    /// seated and has retired by the run's current instant.
    ///
    /// unit: absolute cycles.
    #[must_use]
    pub fn retired_at_cycles(&self, workload: usize) -> Option<f64> {
        self.core.retired_at(workload)
    }

    /// The serving path: hands over each admission of `schedule` once the
    /// run reaches its instant, then finishes. The schedule is announced
    /// up front, which reserves one report row per admission and lets a
    /// permanent fault turn away the admissions not yet handed over, as it
    /// would had they all been pending.
    pub(crate) fn serve(mut self, schedule: &AdmissionSchedule) -> V10Result<RunReport> {
        self.core.announce(schedule.len());
        for admission in schedule.entries() {
            self.advance_to(admission.at_cycles())?;
            if self.core.is_retired() {
                break;
            }
            self.push(admission.clone())?;
        }
        self.finish()
    }

    /// Moves the fence to `fence` and steps up to it.
    fn advance_to(&mut self, fence: f64) -> V10Result<()> {
        self.core.set_fence(fence)?;
        if self.finished {
            return Ok(());
        }
        let outcome = match &mut self.executor {
            Executor::V10(strategy) => drive(&mut self.core, strategy)?,
            Executor::Pmt(strategy) => drive(&mut self.core, strategy)?,
        };
        self.finished = outcome == StepOutcome::Finished;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_isa::{FuKind, OpDesc, RequestTrace};
    use v10_sim::FaultKind;

    fn spec(label: &str, ops: Vec<OpDesc>) -> WorkloadSpec {
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }
    fn sa(c: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(c).build()
    }
    fn vu(c: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(c).build()
    }

    /// A complementary pair with mismatched operator lengths — the paper's
    /// canonical scenario (Fig. 12).
    fn mismatched_pair() -> [WorkloadSpec; 2] {
        [
            spec("long-sa", vec![sa(600_000), vu(20_000)]),
            spec(
                "short-mixed",
                vec![sa(10_000), vu(50_000), sa(10_000), vu(50_000)],
            ),
        ]
    }

    #[test]
    fn design_ordering_on_aggregate_utilization() {
        // §5.2: V10-Full >= V10-Base variants >= PMT on aggregate compute
        // utilization for a complementary pair.
        let specs = mismatched_pair();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(10).unwrap();
        let util = |d: Design| {
            run_design(d, &specs, &cfg, &opts)
                .unwrap()
                .aggregate_compute_util()
        };
        let pmt = util(Design::Pmt);
        let base = util(Design::V10Base);
        let full = util(Design::V10Full);
        assert!(base > pmt, "V10-Base {base} should beat PMT {pmt}");
        assert!(
            full + 0.02 >= base,
            "V10-Full {full} should not lose to Base {base}"
        );
    }

    #[test]
    fn v10_full_beats_pmt_on_elapsed_time() {
        let specs = mismatched_pair();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(10).unwrap();
        let pmt = run_design(Design::Pmt, &specs, &cfg, &opts).unwrap();
        let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
        assert!(full.elapsed_cycles() < pmt.elapsed_cycles());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Design::Pmt.to_string(), "PMT");
        assert_eq!(Design::V10Full.to_string(), "V10-Full");
        assert_eq!(Design::ALL.len(), 4);
    }

    #[test]
    fn pmt_rejects_an_armed_overload_controller() {
        let schedule = AdmissionSchedule::closed_loop(&mismatched_pair(), 2).unwrap();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let err = serve_design_stressed(
            Design::Pmt,
            &schedule,
            &cfg,
            &opts,
            &FaultPlan::none(),
            OverloadController::armed(crate::overload::OverloadPolicy),
        )
        .unwrap_err();
        assert!(err.to_string().contains("PMT"), "{err}");
        // A disarmed controller serves PMT normally.
        let disarmed = serve_design(Design::Pmt, &schedule, &cfg, &opts).unwrap();
        let done: usize = disarmed
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(done, 4);
    }

    #[test]
    fn run_design_sizes_the_table_to_the_workload_set() {
        // A closed-loop pair always boards both tenants: the table holds
        // `specs.len()` rows whatever capacity the options ask for.
        let specs = mismatched_pair();
        let cfg = NpuConfig::table5();
        let plain = RunOptions::new(2).unwrap();
        let one_slot = plain.with_table_capacity(1).unwrap();
        for design in Design::ALL {
            let a = run_design(design, &specs, &cfg, &plain).unwrap();
            let b = run_design(design, &specs, &cfg, &one_slot).unwrap();
            assert_eq!(
                crate::invariants::run_digest(&a),
                crate::invariants::run_digest(&b),
                "{design}"
            );
            assert_eq!(b.workloads().len(), 2, "{design}");
        }
    }

    /// A V10-Full run with one tenant handed over at cycle 0.
    fn fenced_run() -> CoreRun<NullObserver> {
        let mut run = CoreRun::new(
            Design::V10Full,
            &NpuConfig::table5(),
            &RunOptions::new(2).unwrap(),
            &FaultPlan::none(),
            OverloadController::disarmed(),
            NullObserver,
        )
        .unwrap();
        run.push(Admission::new(spec("a", vec![sa(40_000)]), 0.0, 2).unwrap())
            .unwrap();
        run.run_until(Cycles::new(50_000.0)).unwrap();
        run
    }

    fn assert_invalid(err: V10Error, needle: &str) {
        assert!(
            matches!(err, V10Error::InvalidArgument { .. }),
            "not InvalidArgument: {err}"
        );
        assert!(err.to_string().contains(needle), "{err}");
    }

    #[test]
    fn pushing_an_admission_before_the_fence_is_rejected() {
        let mut run = fenced_run();
        let late = Admission::new(spec("b", vec![vu(1_000)]), 49_999.0, 1).unwrap();
        assert_invalid(run.push(late).unwrap_err(), "earlier than the fence");
        // At the fence is fine, and the run still finishes.
        let on_time = Admission::new(spec("b", vec![vu(1_000)]), 50_000.0, 1).unwrap();
        run.push(on_time).unwrap();
        assert_eq!(run.finish().unwrap().workloads().len(), 2);
    }

    #[test]
    fn pushing_a_fault_before_the_fence_is_rejected() {
        let mut run = fenced_run();
        let stall = FaultKind::CoreStall {
            stall_cycles: 1_000.0,
        };
        let early = FaultEvent::new(10_000.0, stall).unwrap();
        assert_invalid(run.push_fault(early).unwrap_err(), "earlier than the fence");
        run.push_fault(FaultEvent::new(50_000.0, stall).unwrap())
            .unwrap();
        assert_eq!(run.finish().unwrap().faults_injected(), 1);
    }

    #[test]
    fn moving_the_fence_backwards_is_rejected() {
        let mut run = fenced_run();
        assert_invalid(
            run.run_until(Cycles::new(20_000.0)).unwrap_err(),
            "earlier than the previous fence",
        );
        // The same fence again is a no-op, not an error.
        run.run_until(Cycles::new(50_000.0)).unwrap();
    }

    #[test]
    fn pushing_to_a_retired_core_is_rejected() {
        let mut run = fenced_run();
        run.push_fault(FaultEvent::new(60_000.0, FaultKind::CoreRetire).unwrap())
            .unwrap();
        run.run_until(Cycles::new(70_000.0)).unwrap();
        let after = Admission::new(spec("b", vec![vu(1_000)]), 80_000.0, 1).unwrap();
        assert_invalid(run.push(after).unwrap_err(), "retired");
        assert_eq!(run.finish().unwrap().core_retired_at(), Some(60_000.0));
    }

    #[test]
    fn only_full_design_preempts_operators() {
        let specs = [
            spec("a", vec![sa(400_000)]),
            spec("b", vec![sa(8_000), vu(8_000)]),
        ];
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(6).unwrap();
        for d in [Design::V10Base, Design::V10Fair] {
            let r = run_design(d, &specs, &cfg, &opts).unwrap();
            let preempts: u64 = r.workloads().iter().map(|w| w.preemptions()).sum();
            assert_eq!(preempts, 0, "{d} must not preempt operators");
        }
        let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
        let preempts: u64 = full.workloads().iter().map(|w| w.preemptions()).sum();
        assert!(preempts > 0, "V10-Full should preempt the long SA ops");
    }
}
