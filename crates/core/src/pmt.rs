//! Baseline executors: PREMA-style preemptive multi-tasking and
//! single-tenant execution.
//!
//! **PMT** (§5.1) is "the baseline preemptive multi-tasking NPU, which
//! supports time-sharing of an NPU core without simultaneous operator
//! execution. It preempts a workload at the ML inference task level with
//! 20 µs–40 µs context switch overhead." Exactly one workload owns the whole
//! core at a time (its SA and VU operators still run one after another, as
//! in single-tenant execution); ownership rotates round-robin with time
//! slices proportional to priority; each rotation pays a uniformly random
//! 20–40 µs whole-core context switch (PREMA stores the full context in
//! off-chip HBM).
//!
//! **Single-tenant** execution is PMT with one workload and no switches —
//! the normalization baseline for forward progress / STP.
//!
//! The event-loop mechanics live in the shared `EngineCore` step loop;
//! this module contributes only PMT's task-level ownership rotation,
//! modeled as a single whole-core occupancy slot.
//!
//! A PMT step cut at a fence re-enters from its top: everything it does
//! before its horizon (admission, the rotation resync, fault replay and
//! ownership-expiry switches with their RNG draws) is guarded by a
//! due-check the first pass already cleared, or ends the step, so the
//! resumed step recomputes only the horizon. Switch, restore and stall
//! advances are never cut short, as no arrival cuts them short in a run
//! that knew it from the start; they may carry the clock past the fence.
//! A restore or stall that does so stops the step's fault loop there, and
//! the loop resumes first once the fence moves: a fault handed over later
//! may be due at the instant the advance reached.

use v10_npu::{FuPool, NpuConfig};
use v10_sim::{FaultKind, FaultPlan, Flow, Frequency, Micros, SimRng, V10Error, V10Result};

use crate::design::{serve_design_stressed_observed, Design};
use crate::engine::{closed_loop, RunOptions, WorkloadSpec};
use crate::engine_core::{EngineCore, ExecutorStrategy, Slot, StepOutcome, EPS};
use crate::metrics::RunReport;
use crate::observer::{NullObserver, SimEvent, SimObserver};
use crate::overload::OverloadController;

/// PMT's context-switch cost range in microseconds (§5.1).
const PMT_SWITCH_MIN_US: f64 = 20.0;
const PMT_SWITCH_MAX_US: f64 = 40.0;

/// PMT's mean ownership slice in cycles: 2 ms at 700 MHz, task-level
/// slicing.
const PMT_SLICE_CYCLES: f64 = 1.4e6;

/// Runs the PMT baseline on `specs` closed loop, with an observer
/// receiving the (task-granularity) event stream: operator and request
/// completions, plus a preempt/switch pair per ownership rotation. This is
/// [`run_design`](crate::run_design) under `Design::Pmt`, observed.
///
/// # Errors
///
/// Returns [`v10_sim::V10Error::InvalidArgument`] if `specs` is empty, and
/// [`v10_sim::V10Error::Deadlock`] / [`v10_sim::V10Error::Livelock`] if the
/// simulation stops making progress.
pub fn run_pmt_observed<O: SimObserver>(
    specs: &[WorkloadSpec],
    config: &NpuConfig,
    opts: &RunOptions,
    observer: &mut O,
) -> V10Result<RunReport> {
    let (schedule, opts) = closed_loop(specs, opts)?;
    serve_design_stressed_observed(
        Design::Pmt,
        &schedule,
        config,
        &opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
        observer,
    )
}

/// PMT's single occupancy slot: PMT owns the whole core, and the slot's
/// kind tracks the owner's current operator.
///
/// # Errors
///
/// Returns [`V10Error::InvalidArgument`] if the one-pair FU pool is empty.
pub(crate) fn pmt_slots(context: &'static str) -> V10Result<Vec<Slot>> {
    let pool = FuPool::new(1)?;
    let fu = pool
        .iter()
        .next()
        .ok_or_else(|| V10Error::invalid(context, "FU pool of one pair is empty"))?;
    Ok(vec![Slot::new(fu, v10_isa::FuKind::Sa)])
}

/// Runs `spec` alone on a dedicated core — the normalization baseline for
/// forward progress, STP, and the Fig. 22 "ideal" reference.
///
/// # Errors
///
/// Returns [`v10_sim::V10Error::InvalidArgument`] if `requests` is zero.
pub fn run_single_tenant(
    spec: &WorkloadSpec,
    config: &NpuConfig,
    requests: usize,
) -> V10Result<RunReport> {
    run_pmt_observed(
        std::slice::from_ref(spec),
        config,
        &RunOptions::new(requests)?,
        &mut NullObserver,
    )
}

/// PMT's task-granularity scheduling strategy: whole-core ownership
/// rotating round-robin with priority-proportional slices.
///
/// The rotation state (per-tenant slices, single-tenant fast path) is
/// derived from the live tenant set and recomputed whenever the core's
/// tenancy epoch moves — an arrival joins the rotation, a departure leaves
/// it without a context-switch charge (departing is not a preemption).
///
/// A transient operator fault rewinds the owner's in-flight operator to its
/// checkpoint and charges a full 20–40 µs PMT context restore (the
/// whole-core context lives in HBM, §5.1); a core stall freezes the core
/// for its duration; a permanent fault retires the core.
#[derive(Debug)]
pub(crate) struct PmtStrategy {
    rng: SimRng,
    clock: Frequency,
    /// Ownership slice per live tenant, by context-table slot, so the
    /// table's capacity bounds it rather than the tenancies ever admitted.
    /// Proportional to priority and averaging [`PMT_SLICE_CYCLES`] over
    /// the live set; zero for free slots.
    slices: Vec<f64>,
    /// The owning tenancy's workload index (its admission order, which
    /// the round-robin rotation follows).
    owner: usize,
    /// The owner's table slot, fixed while the owner is live.
    seat: usize,
    owner_until: f64,
    single: bool,
    /// The tenancy epoch `slices`/`single` were derived from.
    epoch: u64,
    /// Set when a restore or stall advance carried the run to its fence
    /// in the middle of the fault loop: the loop resumes first.
    resume_faults: bool,
}

impl PmtStrategy {
    pub(crate) fn new(config: &NpuConfig, opts: &RunOptions) -> Self {
        PmtStrategy {
            rng: SimRng::seed_from(opts.seed() ^ 0x0093_4711),
            clock: config.frequency(),
            slices: Vec::new(),
            owner: 0,
            seat: 0,
            owner_until: 0.0,
            single: true,
            // Forces a resync on the first step, before any scheduling.
            epoch: u64::MAX,
            resume_faults: false,
        }
    }

    /// Recomputes slices and ownership after the tenant set changed. The
    /// core's live index supplies the rotation set directly (in admission
    /// order, the same order the historical filter scan produced, so the
    /// priority sum keeps its float-operation order), and the slice table
    /// is reused across resyncs instead of reallocated.
    fn resync<O: SimObserver>(&mut self, core: &EngineCore<O>) -> V10Result<()> {
        self.epoch = core.tenancy_epoch;
        let live = core.live();
        self.slices.clear();
        self.slices.resize(core.table.capacity(), 0.0);
        if live.is_empty() {
            return Ok(());
        }
        let mut total_priority = 0.0f64;
        for &t in live {
            total_priority += core.tenancy(t)?.priority;
        }
        for &t in live {
            let priority = core.tenancy(t)?.priority;
            if let Some(slice) = self.slices.get_mut(t) {
                *slice = PMT_SLICE_CYCLES * live.len() as f64 * priority / total_priority;
            }
        }
        let was_single = self.single;
        self.single = live.len() == 1;
        let owner_live = core
            .tenancy(self.seat)
            .is_ok_and(|tn| tn.workload == self.owner);
        if !owner_live {
            // The owner departed: ownership passes on without a switch
            // charge — a departure is not a preemption.
            self.pass_ownership(core);
        } else if was_single && !self.single {
            // The rotation starts (or restarts) now that there is someone
            // to rotate to.
            self.owner_until = core.now + self.slice();
        }
        Ok(())
    }

    /// The owner's ownership slice.
    fn slice(&self) -> f64 {
        self.slices.get(self.seat).copied().unwrap_or(0.0)
    }

    /// Passes ownership to the next alive tenant in round-robin order —
    /// the first live workload index after the owner's, wrapping to the
    /// smallest — for its slice. A binary search over the core's live
    /// list, which is in admission order, replacing the historical wrap
    /// scan over every tenancy ever admitted. Only called when at least
    /// one tenant is alive.
    fn pass_ownership<O: SimObserver>(&mut self, core: &EngineCore<O>) {
        let workload = |t: usize| core.tenancy(t).map_or(usize::MAX, |tn| tn.workload);
        let live = core.live();
        let pos = live.partition_point(|&t| workload(t) <= self.owner);
        if let Some(&t) = live.get(pos).or_else(|| live.first()) {
            self.owner = workload(t);
            self.seat = t;
        }
        self.owner_until = core.now + self.slice();
    }

    /// Applies every fault due at the current instant, advancing simulated
    /// time for replay/stall costs. Returns `Some(Finished)` when a
    /// permanent fault retired the core, `Some(Suspended)` when a replay or
    /// stall advance reached the fence (the loop resumes there),
    /// `Some(Continue)` when any fault was applied (the step restarts so
    /// admissions catch up with the advanced clock), and `None` when
    /// nothing was due.
    ///
    /// PMT checkpoints whole-task context in off-chip HBM, so a corrupted
    /// operator pays a full 20–40 µs context restore (§5.1) before
    /// re-executing from its checkpoint. The restore cost is drawn from the
    /// strategy RNG only when a fault actually fires, so a disarmed
    /// injector leaves the RNG stream — and every downstream draw —
    /// untouched.
    fn apply_due_faults<O: SimObserver>(
        &mut self,
        core: &mut EngineCore<O>,
    ) -> V10Result<Option<StepOutcome>> {
        let mut applied = false;
        while let Some(fault) = core.next_due_fault() {
            applied = true;
            match fault.kind() {
                FaultKind::TransientOp { .. } => {
                    if core.table.is_empty() {
                        // No resident tenant: the bit flip lands on an idle
                        // core and is harmless, but still on the record.
                        core.emit_fault(fault.kind(), None);
                        continue;
                    }
                    let (owner, seat) = (self.owner, self.seat);
                    let cost = self
                        .clock
                        .cycles_from_micros(Micros::new(
                            self.rng.uniform(PMT_SWITCH_MIN_US, PMT_SWITCH_MAX_US),
                        ))
                        .as_u64() as f64;
                    core.emit_fault(fault.kind(), Some(owner));
                    core.switch_overhead_total += cost;
                    let at = core.now;
                    core.emit(SimEvent::CtxSwitchStarted {
                        fu: 0,
                        cost_cycles: cost,
                        at,
                    });
                    core.replay_current_op(seat, cost)?;
                    let cost = core.resolve_dt(cost)?;
                    core.advance(cost, &[]); // whole core idle for the restore
                    let at = core.now;
                    core.emit(SimEvent::CtxSwitchEnded { fu: 0, at });
                }
                FaultKind::CoreStall { stall_cycles } => {
                    core.emit_fault(fault.kind(), None);
                    let dt = core.resolve_dt(stall_cycles)?;
                    core.advance(dt, &[]); // whole core frozen for the stall
                }
                FaultKind::CoreRetire => {
                    core.emit_fault(fault.kind(), None);
                    core.retire_core()?;
                    return Ok(Some(StepOutcome::Finished));
                }
            }
            if core.at_fence() {
                self.resume_faults = true;
                return Ok(Some(StepOutcome::Suspended));
            }
        }
        Ok(applied.then_some(StepOutcome::Continue))
    }
}

impl ExecutorStrategy for PmtStrategy {
    fn step<O: SimObserver>(&mut self, core: &mut EngineCore<O>) -> V10Result<StepOutcome> {
        if self.resume_faults {
            // A fault loop the fence cut short: it had applied a fault, so
            // the step ends once the loop does.
            self.resume_faults = false;
            return Ok(self
                .apply_due_faults(core)?
                .unwrap_or(StepOutcome::Continue));
        }
        core.admit_due()?;
        if self.epoch != core.tenancy_epoch {
            self.resync(core)?;
        }
        #[cfg(debug_assertions)]
        core.debug_validate_spine();
        if core.all_done() {
            // A fenced run parks instead: a later push may bring work.
            return Ok(if core.crosses_fence(f64::INFINITY) {
                StepOutcome::Suspended
            } else {
                StepOutcome::Finished
            });
        }

        // Faults due at this instant fire before any scheduling decision.
        if let Some(outcome) = self.apply_due_faults(core)? {
            return Ok(outcome);
        }

        // No resident tenant: the core idles until the next arrival or
        // scheduled fault.
        if core.table.is_empty() {
            let Some(at) = core.next_arrival_at() else {
                if core.crosses_fence(f64::INFINITY) {
                    return Ok(StepOutcome::Suspended);
                }
                return Err(V10Error::Deadlock {
                    cycle: core.now,
                    message: "no live tenants and no pending arrivals".into(),
                });
            };
            let mut dt = at - core.now;
            if let Some(fault_at) = core.next_fault_at() {
                dt = dt.min(fault_at - core.now);
            }
            if core.crosses_fence(dt) {
                return Ok(StepOutcome::Suspended);
            }
            let dt = core.resolve_dt(dt)?;
            core.advance(dt, &[]);
            return Ok(StepOutcome::Continue);
        }

        // Ownership expiry (multi-tenant only).
        if !self.single && core.now + EPS >= self.owner_until {
            let cost = self
                .clock
                .cycles_from_micros(Micros::new(
                    self.rng.uniform(PMT_SWITCH_MIN_US, PMT_SWITCH_MAX_US),
                ))
                .as_u64() as f64;
            {
                let tn = core.tenancy_mut(self.seat)?;
                tn.preemptions += 1;
                tn.switch_overhead += cost;
            }
            core.switch_overhead_total += cost;
            let at = core.now;
            core.emit(SimEvent::OpPreempted {
                workload: self.owner,
                fu: 0,
                at,
            });
            core.emit(SimEvent::CtxSwitchStarted {
                fu: 0,
                cost_cycles: cost,
                at,
            });
            let cost = core.resolve_dt(cost)?;
            core.advance(cost, &[]); // whole core idle for the switch
            let at = core.now;
            core.emit(SimEvent::CtxSwitchEnded { fu: 0, at });
            self.pass_ownership(core);
            return Ok(StepOutcome::Continue);
        }

        let mut dt = if self.single {
            f64::INFINITY
        } else {
            self.owner_until - core.now
        };
        if let Some(at) = core.next_arrival_at() {
            dt = dt.min(at - core.now);
        }
        if let Some(at) = core.next_fault_at() {
            dt = dt.min(at - core.now);
        }
        let seat = self.seat;
        let fetch_ready_at = core.tenancy(seat)?.fetch_ready_at;
        if fetch_ready_at > core.now + EPS {
            // Idle while waiting for the instruction DMA.
            dt = dt.min(fetch_ready_at - core.now);
            if core.crosses_fence(dt) {
                return Ok(StepOutcome::Suspended);
            }
            let dt = core.resolve_dt(dt)?;
            core.advance(dt, &[]);
            return Ok(StepOutcome::Continue);
        }

        // The owner's current operator runs alone on the core.
        let (op, op_remaining) = {
            let tn = core.tenancy(seat)?;
            (*tn.current_op(), tn.op_remaining)
        };
        let mut flow = [Flow::new(op.hbm_demand_bytes_per_cycle())];
        core.hbm.progress_rates(&mut flow);
        let [owner_flow] = flow;
        let rate = owner_flow.factor();
        assert!(rate > EPS, "operator starved of bandwidth");
        dt = dt.min(op_remaining / rate);
        if core.crosses_fence(dt) {
            return Ok(StepOutcome::Suspended);
        }
        let dt = core.resolve_dt(dt)?;

        core.slot_mut(0)?.seat(seat, op);
        core.advance(dt, &flow);
        core.slot_mut(0)?.occupant = None;

        // Operator completion.
        if core.tenancy(seat)?.op_remaining <= EPS {
            // The next operator's prefetch starts now.
            core.tenancy_mut(seat)?.last_issue_at = core.now;
            core.finish_op(seat)?;
        }
        Ok(StepOutcome::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_isa::{FuKind, OpDesc, RequestTrace};

    fn sa(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(cycles).build()
    }
    fn vu(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(cycles).build()
    }
    fn spec(label: &str, ops: Vec<OpDesc>) -> WorkloadSpec {
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }

    #[test]
    fn single_tenant_has_no_switches() {
        let r = run_single_tenant(
            &spec("w", vec![sa(10_000), vu(2_000)]),
            &NpuConfig::table5(),
            5,
        )
        .unwrap();
        let wl = &r.workloads()[0];
        assert_eq!(wl.completed_requests(), 5);
        assert_eq!(wl.preemptions(), 0);
        assert_eq!(r.switch_overhead_cycles(), 0.0);
        // Latency ~= busy time plus small DMA tails.
        assert!(wl.avg_latency_cycles() >= 12_000.0);
        assert!(wl.avg_latency_cycles() < 13_000.0);
    }

    #[test]
    fn pmt_event_stream_passes_the_runtime_auditor() {
        let mut auditor = crate::audit::RuntimeAuditor::new();
        let report = run_pmt_observed(
            &[
                spec("a", vec![sa(50_000), vu(5_000)]),
                spec("b", vec![sa(5_000), vu(50_000)]),
            ],
            &NpuConfig::table5(),
            &RunOptions::new(4).unwrap(),
            &mut auditor,
        )
        .unwrap();
        auditor.reconcile(&report);
        assert!(auditor.is_clean(), "violations: {:?}", auditor.violations());
    }

    #[test]
    fn pmt_never_overlaps_sa_and_vu() {
        let r = run_pmt_observed(
            &[
                spec("a", vec![sa(50_000), vu(5_000)]),
                spec("b", vec![sa(5_000), vu(50_000)]),
            ],
            &NpuConfig::table5(),
            &RunOptions::new(5).unwrap(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(r.overlap().both, 0.0, "PMT cannot overlap SA and VU (O4)");
        assert!(r.sa_util() < 1.0 && r.vu_util() < 1.0);
    }

    #[test]
    fn pmt_time_shares_fairly_with_equal_priorities() {
        // Requests comparable to the 2 ms PMT slice, many of them, so the
        // end-of-run imbalance is at most one slice.
        let w = spec("w", vec![sa(1_000_000)]);
        let r = run_pmt_observed(
            &[w.clone(), w],
            &NpuConfig::table5(),
            &RunOptions::new(10).unwrap(),
            &mut NullObserver,
        )
        .unwrap();
        let a = r.workloads()[0].busy_sa_cycles();
        let b = r.workloads()[1].busy_sa_cycles();
        let ratio = a / b;
        assert!((0.8..1.25).contains(&ratio), "unfair share: {ratio}");
    }

    #[test]
    fn pmt_priority_scales_time_share() {
        let mk = |p: f64| spec("w", vec![sa(100_000)]).with_priority(p).unwrap();
        let r = run_pmt_observed(
            &[mk(3.0), mk(1.0)],
            &NpuConfig::table5(),
            &RunOptions::new(6).unwrap(),
            &mut NullObserver,
        )
        .unwrap();
        // The high-priority workload gets ~3x the core time, so it finishes
        // requests ~3x faster.
        let hi = r.workloads()[0].avg_latency_cycles();
        let lo = r.workloads()[1].avg_latency_cycles();
        assert!(lo > 1.8 * hi, "priority had no effect: hi={hi} lo={lo}");
    }

    #[test]
    fn pmt_switch_costs_are_20_to_40_us() {
        let r = run_pmt_observed(
            &[
                spec("a", vec![sa(1_000_000)]),
                spec("b", vec![sa(1_000_000)]),
            ],
            &NpuConfig::table5(),
            &RunOptions::new(3).unwrap(),
            &mut NullObserver,
        )
        .unwrap();
        let total_preempts: u64 = r.workloads().iter().map(|w| w.preemptions()).sum();
        assert!(total_preempts > 0);
        let per_switch = r.switch_overhead_cycles() / total_preempts as f64;
        // 20-40 us at 700 MHz = 14_000-28_000 cycles.
        assert!(
            (14_000.0..=28_000.0).contains(&per_switch),
            "per-switch cost {per_switch}"
        );
    }

    #[test]
    fn pmt_preempts_far_less_often_than_its_slice_would_under_v10() {
        // PMT's 2 ms task-level slice gives ~request-scale preemption counts.
        let r = run_pmt_observed(
            &[
                spec("a", vec![sa(700_000), vu(700_000)]), // 2 ms requests
                spec("b", vec![sa(700_000), vu(700_000)]),
            ],
            &NpuConfig::table5(),
            &RunOptions::new(5).unwrap(),
            &mut NullObserver,
        )
        .unwrap();
        for wl in r.workloads() {
            assert!(
                wl.preemptions_per_request() <= 4.0,
                "{}: {} preempts/request",
                wl.label(),
                wl.preemptions_per_request()
            );
        }
    }

    #[test]
    fn latencies_span_paused_periods() {
        // With two tenants, each request takes at least ~2x its busy time.
        let r = run_pmt_observed(
            &[
                spec("a", vec![sa(3_000_000)]),
                spec("b", vec![sa(3_000_000)]),
            ],
            &NpuConfig::table5(),
            &RunOptions::new(3).unwrap(),
            &mut NullObserver,
        )
        .unwrap();
        for wl in r.workloads() {
            assert!(
                wl.avg_latency_cycles() > 1.7 * 3_000_000.0,
                "{}",
                wl.label()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let specs = [spec("a", vec![sa(50_000)]), spec("b", vec![vu(50_000)])];
        let opts = RunOptions::new(4).unwrap().with_seed(9);
        let r1 = run_pmt_observed(&specs, &NpuConfig::table5(), &opts, &mut NullObserver).unwrap();
        let r2 = run_pmt_observed(&specs, &NpuConfig::table5(), &opts, &mut NullObserver).unwrap();
        assert_eq!(r1.elapsed_cycles(), r2.elapsed_cycles());
        let r3 = run_pmt_observed(
            &specs,
            &NpuConfig::table5(),
            &RunOptions::new(4).unwrap().with_seed(10),
            &mut NullObserver,
        )
        .unwrap();
        assert_ne!(r1.elapsed_cycles(), r3.elapsed_cycles());
    }

    #[test]
    fn empty_specs_rejected() {
        let err = run_pmt_observed(
            &[],
            &NpuConfig::table5(),
            &RunOptions::new(1).unwrap(),
            &mut NullObserver,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one workload"), "{err}");
    }

    #[test]
    fn pmt_observer_sees_rotations_and_completions() {
        use crate::observer::CounterObserver;
        let mut counters = CounterObserver::new();
        let r = run_pmt_observed(
            &[
                spec("a", vec![sa(1_000_000)]),
                spec("b", vec![sa(1_000_000)]),
            ],
            &NpuConfig::table5(),
            &RunOptions::new(3).unwrap(),
            &mut counters,
        )
        .unwrap();
        let preempts: u64 = r.workloads().iter().map(|w| w.preemptions()).sum();
        assert_eq!(counters.op_preempted(), preempts);
        assert_eq!(counters.ctx_switch_started(), preempts);
        assert_eq!(counters.ctx_switch_ended(), preempts);
        let completed: usize = r.workloads().iter().map(|w| w.completed_requests()).sum();
        assert_eq!(counters.request_completed(), completed as u64);
        assert!(counters.op_completed() >= counters.request_completed());
        // Task-granularity baseline: no operator-level issue/DMA events.
        assert_eq!(counters.op_issued(), 0);
        assert_eq!(counters.dma_ready(), 0);
        assert_eq!(counters.timer_tick(), 0);
    }

    /// The rotation's slice table is keyed by context-table slot: serving
    /// more tenancies than the table has slots never grows it past the
    /// table's capacity.
    #[test]
    fn slice_table_never_outgrows_the_context_table() {
        let capacity = 2;
        let cfg = NpuConfig::table5();
        let mut core = EngineCore::new(
            "slice_table_test",
            &cfg,
            capacity,
            pmt_slots("slice_table_test").unwrap(),
            v10_sim::FaultInjector::disarmed(),
            NullObserver,
        )
        .unwrap();
        for i in 0..12u32 {
            let spec = spec(&format!("t{i}"), vec![sa(200_000), vu(50_000)]);
            let at = f64::from(i) * 300_000.0;
            core.push_admission(crate::Admission::new(spec, at, 2).unwrap())
                .unwrap();
        }
        core.set_fence(f64::INFINITY).unwrap();
        let mut pmt = PmtStrategy::new(&cfg, &RunOptions::new(1).unwrap());
        while pmt.step(&mut core).unwrap() != StepOutcome::Finished {
            assert!(
                pmt.slices.len() <= capacity,
                "{} slices for a {capacity}-slot table",
                pmt.slices.len()
            );
        }
        let served = core.into_report().workloads().len();
        assert!(served > 2 * capacity, "only {served} tenancies were seated");
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use v10_isa::{FuKind, OpDesc, RequestTrace};
    use v10_sim::SimRng;

    fn random_trace(rng: &mut SimRng) -> RequestTrace {
        let n = 1 + rng.index(5);
        RequestTrace::new(
            (0..n)
                .map(|_| {
                    let kind = if rng.next_u64() & 1 == 0 {
                        FuKind::Sa
                    } else {
                        FuKind::Vu
                    };
                    OpDesc::builder(kind)
                        .compute_cycles(rng.uniform_u64(1_000, 300_000))
                        .hbm_bytes(rng.uniform_u64(0, 50_000_000))
                        .dispatch_gap_cycles(rng.uniform_u64(0, 2_000))
                        .build()
                })
                .collect(),
        )
        .unwrap()
    }

    /// Property: with a single workload, the PMT strategy over the shared
    /// engine core degenerates to single-tenant execution — bit-identical
    /// elapsed time and latencies, zero preemptions, zero switch overhead.
    #[test]
    fn pmt_single_workload_degenerates_to_single_tenant() {
        let mut rng = SimRng::seed_from(0xDE6E);
        for case in 0..16 {
            let spec = WorkloadSpec::new(format!("w{case}"), random_trace(&mut rng));
            let cfg = NpuConfig::table5();
            let requests = 1 + rng.index(4);
            let pmt = run_pmt_observed(
                std::slice::from_ref(&spec),
                &cfg,
                &RunOptions::new(requests).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
            let single = run_single_tenant(&spec, &cfg, requests).unwrap();
            assert_eq!(
                pmt.elapsed_cycles().to_bits(),
                single.elapsed_cycles().to_bits(),
                "case {case}: elapsed diverged"
            );
            let (p, s) = (&pmt.workloads()[0], &single.workloads()[0]);
            assert_eq!(p.completed_requests(), s.completed_requests());
            assert_eq!(p.latencies_cycles().len(), s.latencies_cycles().len());
            for (a, b) in p.latencies_cycles().iter().zip(s.latencies_cycles()) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}: latency diverged");
            }
            assert_eq!(p.preemptions(), 0);
            assert_eq!(s.preemptions(), 0);
            assert_eq!(pmt.switch_overhead_cycles(), 0.0);
            assert_eq!(pmt.overlap().both, 0.0, "one core, sequential ops");
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::lifecycle::{Admission, AdmissionSchedule};
    use crate::observer::CounterObserver;
    use v10_isa::{FuKind, OpDesc, RequestTrace};
    use v10_sim::{FaultKind, FaultPlan};

    fn sa(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(cycles).build()
    }
    fn spec(label: &str, ops: Vec<OpDesc>) -> WorkloadSpec {
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }
    /// Serves [`schedule`] on PMT under `plan`.
    fn serve_pmt<O: SimObserver>(
        opts: &RunOptions,
        plan: &FaultPlan,
        observer: &mut O,
    ) -> V10Result<RunReport> {
        serve_design_stressed_observed(
            Design::Pmt,
            &schedule(),
            &NpuConfig::table5(),
            opts,
            plan,
            OverloadController::disarmed(),
            observer,
        )
    }

    fn schedule() -> AdmissionSchedule {
        AdmissionSchedule::new(vec![
            Admission::new(spec("a", vec![sa(500_000)]), 0.0, 3).unwrap(),
            Admission::new(spec("b", vec![sa(500_000)]), 100_000.0, 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn transient_fault_charges_a_whole_core_restore() {
        let opts = RunOptions::new(3).unwrap();
        let plain = serve_pmt(&opts, &FaultPlan::none(), &mut NullObserver).unwrap();
        let plan = FaultPlan::none()
            .with_fault(50_000.0, FaultKind::TransientOp { victim_salt: 0 })
            .unwrap();
        let mut counters = CounterObserver::new();
        let faulted = serve_pmt(&opts, &plan, &mut counters).unwrap();
        assert_eq!(counters.fault_injected(), 1);
        assert_eq!(counters.op_replayed(), 1);
        let replays: u64 = faulted.workloads().iter().map(|w| w.replays()).sum();
        assert_eq!(replays, 1);
        // PMT restores the whole-core context from HBM: 20-40 us at
        // 700 MHz is 14k-28k cycles.
        let restore = faulted.replay_overhead_cycles();
        assert!(
            (14_000.0..=28_000.0).contains(&restore),
            "restore cost {restore}"
        );
        assert!(faulted.elapsed_cycles() > plain.elapsed_cycles());
        // No work is lost.
        let done: usize = faulted
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(done, 6);
        assert_eq!(counters.ctx_switch_started(), counters.ctx_switch_ended());
    }

    #[test]
    fn core_retire_stops_the_rotation() {
        let opts = RunOptions::new(3).unwrap();
        let plan = FaultPlan::none()
            .with_fault(30_000.0, FaultKind::CoreRetire)
            .unwrap();
        let mut counters = CounterObserver::new();
        let faulted = serve_pmt(&opts, &plan, &mut counters).unwrap();
        assert_eq!(counters.core_retired(), 1);
        assert_eq!(faulted.core_retired_at(), Some(30_000.0));
        assert!(counters.admission_rejected() >= 1, "b never got to board");
        let done: usize = faulted
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(done, 0);
    }
}
