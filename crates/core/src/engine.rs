//! The V10 simultaneous-multi-tenancy execution engine.
//!
//! Event-driven co-execution of multiple workloads' operator streams over
//! one NPU core's FU pool (§3.2–§3.3 of the paper):
//!
//! * operators become **Ready** when their instruction DMA completes
//!   (prefetched while the predecessor runs);
//! * a ready operator is issued **as soon as** a matching FU is idle (work
//!   conservation); when contended, the configured [`Policy`] picks;
//! * every `time_slice` cycles the **preemption timer** fires: if a waiting
//!   workload is more starved (`active_rate_p`) than one occupying an FU of
//!   the kind it needs, the occupant is preempted — the FU blocks for the
//!   context-switch cost (3N cycles for an SA, §3.3) and the starved
//!   operator takes over;
//! * concurrently executing operators share HBM bandwidth max-min fairly;
//!   an operator granted less than its demand slows proportionally.
//!
//! The event-loop mechanics — piecewise-constant time advance, busy/overlap
//! accounting (Fig. 17), HBM byte tracking — live in the shared
//! `EngineCore` step loop; this module contributes only the V10 scheduling
//! strategy: fetch promotion through the context table, policy-driven
//! issue, and the preemption timer.

use v10_isa::{FuKind, RequestTrace};
use v10_npu::{FuPool, NpuConfig};
use v10_sim::convert::u64_to_f64;
use v10_sim::fault::pick_victim;
use v10_sim::{Cycles, FaultInjector, FaultKind, V10Error, V10Result};

use crate::engine_core::{drive, rate_of, EngineCore, ExecutorStrategy, Slot, StepOutcome, EPS};
use crate::lifecycle::AdmissionSchedule;
use crate::metrics::RunReport;
use crate::observer::{SimEvent, SimObserver};
use crate::overload::{LadderStep, OverloadController, OverloadPressure};
use crate::packed::FIG11_TABLE_ROWS;
use crate::policy::{Policy, Scheduler};

/// One workload to collocate: its trace, label, and relative priority.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    label: String,
    trace: RequestTrace,
    priority: f64,
}

impl WorkloadSpec {
    /// Creates a workload with priority 1.0.
    #[must_use]
    pub fn new(label: impl Into<String>, trace: RequestTrace) -> Self {
        WorkloadSpec {
            label: label.into(),
            trace,
            priority: 1.0,
        }
    }

    /// Sets the relative priority (§5.6 uses shares summing to 100 %; only
    /// ratios matter).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `priority` is not finite
    /// and positive.
    pub fn with_priority(mut self, priority: f64) -> V10Result<Self> {
        if !(priority.is_finite() && priority > 0.0) {
            return Err(V10Error::invalid(
                "WorkloadSpec::with_priority",
                format!("priority must be positive, got {priority}"),
            ));
        }
        self.priority = priority;
        Ok(self)
    }

    /// The workload's display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The per-request operator trace.
    #[must_use]
    pub fn trace(&self) -> &RequestTrace {
        &self.trace
    }

    /// The relative priority.
    #[must_use]
    pub fn priority(&self) -> f64 {
        self.priority
    }
}

/// Options shared by every executor run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    requests_per_workload: usize,
    seed: u64,
    pmt_slice_cycles: u64,
    table_capacity: Option<usize>,
}

impl RunOptions {
    /// Measures until every workload completes `requests_per_workload`
    /// inference requests (§5.1's steady-state methodology).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `requests_per_workload` is
    /// zero.
    pub fn new(requests_per_workload: usize) -> V10Result<Self> {
        if requests_per_workload == 0 {
            return Err(V10Error::invalid(
                "RunOptions::new",
                "need at least one request per workload",
            ));
        }
        Ok(RunOptions {
            requests_per_workload,
            seed: 0x5EED,
            pmt_slice_cycles: 1_400_000, // 2 ms at 700 MHz: task-level slicing
            table_capacity: None,
        })
    }

    /// Sets the context-table slot capacity for open-loop serving. Unset,
    /// serving uses [`FIG11_TABLE_ROWS`] and closed-loop runs size the
    /// table to the workload set.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `slots` is zero.
    pub fn with_table_capacity(mut self, slots: usize) -> V10Result<Self> {
        if slots == 0 {
            return Err(V10Error::invalid(
                "RunOptions::with_table_capacity",
                "context table needs at least one slot",
            ));
        }
        self.table_capacity = Some(slots);
        Ok(self)
    }

    /// Sets the RNG seed (PMT context-switch jitter).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the PMT baseline's task-level time slice in cycles.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `cycles` is zero.
    pub fn with_pmt_slice_cycles(mut self, cycles: u64) -> V10Result<Self> {
        if cycles == 0 {
            return Err(V10Error::invalid(
                "RunOptions::with_pmt_slice_cycles",
                "PMT slice must be positive",
            ));
        }
        self.pmt_slice_cycles = cycles;
        Ok(self)
    }

    /// Requests each workload must complete before the run ends.
    #[must_use]
    pub fn requests_per_workload(&self) -> usize {
        self.requests_per_workload
    }

    /// The RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The PMT baseline's time slice in cycles.
    #[must_use]
    pub fn pmt_slice_cycles(&self) -> u64 {
        self.pmt_slice_cycles
    }

    /// The configured context-table capacity, if overridden.
    #[must_use]
    pub fn table_capacity(&self) -> Option<usize> {
        self.table_capacity
    }
}

/// Closed-loop setup shared by the `run*` entry points: every spec is
/// resident from cycle 0 with the run's request quota, and the returned
/// options size the context table to the workload set.
///
/// # Errors
///
/// Returns [`V10Error::InvalidArgument`] if `specs` is empty.
pub(crate) fn closed_loop(
    specs: &[WorkloadSpec],
    opts: &RunOptions,
) -> V10Result<(AdmissionSchedule, RunOptions)> {
    let schedule = AdmissionSchedule::closed_loop(specs, opts.requests_per_workload())?;
    Ok((schedule, opts.with_table_capacity(specs.len())?))
}

/// The V10 multi-tenant executor (designs `V10-Base`, `V10-Fair`,
/// `V10-Full` depending on policy and preemption flag).
///
/// See the crate-level example for typical usage; [`crate::run_design`] is
/// the convenience entry point.
#[derive(Debug)]
pub struct V10Engine {
    config: NpuConfig,
    policy: Policy,
    preemption: bool,
}

impl V10Engine {
    /// Creates an engine for the given configuration and scheduling knobs.
    #[must_use]
    pub fn new(config: NpuConfig, policy: Policy, preemption: bool) -> Self {
        V10Engine {
            config,
            policy,
            preemption,
        }
    }

    /// Runs `specs` collocated on one core until each completes
    /// `opts.requests_per_workload()` requests, with an observer receiving
    /// the engine's event stream — see [`SimObserver`]. With
    /// [`NullObserver`](crate::observer::NullObserver) this monomorphizes
    /// to the unobserved engine. The context table is sized to the workload
    /// set, so slot indices match the dense workload numbering.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `specs` is empty, and
    /// [`V10Error::Deadlock`] / [`V10Error::Livelock`] if the simulation
    /// stops making progress.
    pub fn run_observed<O: SimObserver>(
        &self,
        specs: &[WorkloadSpec],
        opts: &RunOptions,
        observer: &mut O,
    ) -> V10Result<RunReport> {
        let (schedule, opts) = closed_loop(specs, opts)?;
        self.serve_observed(&schedule, &opts, observer)
    }

    /// Serves an open-loop [`AdmissionSchedule`]: tenants are admitted when
    /// they arrive (rejected if the context table is full), run their
    /// request quota, and depart, freeing their slot for later arrivals.
    /// The observer receives the event stream, including the tenancy events
    /// [`SimEvent::TenantAdmitted`], [`SimEvent::TenantRetired`], and
    /// [`SimEvent::AdmissionRejected`].
    ///
    /// The table holds `opts.table_capacity()` slots, defaulting to
    /// [`FIG11_TABLE_ROWS`]. For runs under faults or an overload
    /// controller, serve through [`crate::serve_design_stressed_observed`].
    ///
    /// # Errors
    ///
    /// As [`run_observed`](Self::run_observed).
    pub fn serve_observed<O: SimObserver>(
        &self,
        schedule: &AdmissionSchedule,
        opts: &RunOptions,
        observer: &mut O,
    ) -> V10Result<RunReport> {
        self.serve_with_capacity(
            "V10Engine::serve",
            schedule,
            opts.table_capacity().unwrap_or(FIG11_TABLE_ROWS),
            FaultInjector::disarmed(),
            OverloadController::disarmed(),
            observer,
        )
    }

    /// The combined path behind every V10 entry point: `faults` inject as
    /// the run plays out while `controller` senses pressure, walks the
    /// graceful-degradation ladder, and watches for starvation. A disarmed
    /// injector and controller leave the run untouched.
    pub(crate) fn serve_with_capacity<O: SimObserver>(
        &self,
        context: &'static str,
        schedule: &AdmissionSchedule,
        capacity: usize,
        faults: FaultInjector,
        controller: OverloadController,
        observer: &mut O,
    ) -> V10Result<RunReport> {
        let cfg = &self.config;
        let pool = FuPool::new(cfg.fu_count() as usize)?;
        let slots = pool.iter().map(|id| Slot::new(id, pool.kind(id))).collect();
        let mut core = EngineCore::new(context, schedule, cfg, capacity, slots, faults, observer)?;
        if controller.is_armed() {
            core.enable_overload_queueing();
        }
        let mut strategy = V10Strategy::new(cfg, self.policy, self.preemption, controller);
        let mut report = drive(core, &mut strategy)?;
        report.set_overload_stats(strategy.controller.stats());
        Ok(report)
    }
}

/// The V10 operator-granularity scheduling strategy (§3.2–§3.3).
struct V10Strategy {
    scheduler: Scheduler,
    preemption: bool,
    slice: f64,
    /// The configured slice, restored when an overload episode clears.
    base_slice: f64,
    tick_next: f64,
    sa_switch_cycles: u64,
    vu_switch_cycles: u64,
    controller: OverloadController,
    /// Reusable per-step buffers for the HBM arbitration query, so the
    /// steady-state step loop performs no heap allocation.
    flows_scratch: Vec<(usize, f64)>,
    rates_scratch: Vec<(usize, f64)>,
    /// The flow set `rates_scratch` was computed from, bitwise. Water-
    /// filling is a pure function of the demand set over a fixed capacity,
    /// so when consecutive steps present the identical `(slot, demand)`
    /// flows — the common case while long operators span many preemption
    /// ticks — the previous step's rates are reused verbatim instead of
    /// re-running the allocator. Empty-and-invalid until the first query.
    hbm_flows_memo: Vec<(usize, f64)>,
    hbm_memo_valid: bool,
}

impl V10Strategy {
    fn new(
        config: &NpuConfig,
        policy: Policy,
        preemption: bool,
        controller: OverloadController,
    ) -> Self {
        let slice = config.time_slice_cycles() as f64;
        V10Strategy {
            scheduler: Scheduler::new(policy),
            preemption,
            slice,
            base_slice: slice,
            tick_next: slice,
            sa_switch_cycles: config.sa_switch_cycles(),
            vu_switch_cycles: config.vu_switch_cycles(),
            controller,
            flows_scratch: Vec::new(),
            rates_scratch: Vec::new(),
            hbm_flows_memo: Vec::new(),
            hbm_memo_valid: false,
        }
    }

    /// Applies every fault due at the current instant. Returns `true` when a
    /// permanent fault retired the core and the run must finish.
    ///
    /// A transient operator fault evicts one occupied FU, opens a
    /// context-switch window at the design's per-FU switch cost (the V10
    /// input-checkpoint restore, §3.3), and rewinds the victim's in-flight
    /// operator to its checkpoint so it re-executes in full. A core stall
    /// evicts every occupant back to the ready queue and blocks all FUs for
    /// the stall duration. A disarmed injector makes this a single empty
    /// queue probe.
    fn apply_due_faults<O: SimObserver>(
        &mut self,
        core: &mut EngineCore<'_, O>,
    ) -> V10Result<bool> {
        while let Some(fault) = core.next_due_fault() {
            match fault.kind() {
                FaultKind::TransientOp { victim_salt } => {
                    let occupied: Vec<usize> = core
                        .slots
                        .iter()
                        .enumerate()
                        .filter_map(|(s, slot)| slot.occupant.map(|_| s))
                        .collect();
                    let Some(&s) = occupied.get(pick_victim(victim_salt, occupied.len())) else {
                        // No operator in flight: the bit flip lands on an
                        // idle FU and is harmless, but still on the record.
                        core.emit_fault(fault.kind(), None);
                        continue;
                    };
                    let (occupant, kind) = {
                        let slot = core.slot(s)?;
                        (slot.occupant, slot.kind)
                    };
                    let Some(w) = occupant else {
                        continue;
                    };
                    let id = core.wl(w)?.id;
                    let cost = match kind {
                        FuKind::Sa => self.sa_switch_cycles,
                        FuKind::Vu => self.vu_switch_cycles,
                    } as f64;
                    core.emit_fault(fault.kind(), Some(w));
                    core.table.mark_released(id, true)?;
                    let until = core.now + cost;
                    {
                        let slot = core.slot_mut(s)?;
                        slot.occupant = None;
                        slot.switch_until = until;
                    }
                    let at = core.now;
                    core.emit(SimEvent::CtxSwitchStarted {
                        fu: s,
                        cost_cycles: cost,
                        at,
                    });
                    core.replay_current_op(w, cost)?;
                }
                FaultKind::CoreStall { stall_cycles } => {
                    core.emit_fault(fault.kind(), None);
                    let until = core.now + stall_cycles;
                    for s in 0..core.slots.len() {
                        let (occupant, switch_until) = {
                            let slot = core.slot(s)?;
                            (slot.occupant, slot.switch_until)
                        };
                        if let Some(w) = occupant {
                            // Stalled work is not lost: the occupant goes
                            // back to the ready queue and resumes when the
                            // stall window elapses.
                            let id = core.wl(w)?.id;
                            core.table.mark_released(id, true)?;
                        }
                        if until > switch_until {
                            // An idle FU already mid-switch keeps its open
                            // window (its CtxSwitchEnded just moves out);
                            // otherwise a fresh window opens here.
                            let window_open = occupant.is_none() && switch_until > core.now + EPS;
                            {
                                let slot = core.slot_mut(s)?;
                                slot.occupant = None;
                                slot.switch_until = until;
                            }
                            if !window_open {
                                let at = core.now;
                                core.emit(SimEvent::CtxSwitchStarted {
                                    fu: s,
                                    cost_cycles: stall_cycles,
                                    at,
                                });
                            }
                        }
                    }
                }
                FaultKind::CoreRetire => {
                    core.emit_fault(fault.kind(), None);
                    core.retire_core()?;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// One overload-control sense tick: samples pressure, advances the
    /// hysteresis state machine, applies every active degradation rung, and
    /// runs the starvation watchdog. Only called when the armed controller's
    /// cadence is due — the disarmed path never reaches it.
    fn overload_tick<O: SimObserver>(&mut self, core: &mut EngineCore<'_, O>) -> V10Result<()> {
        let at = core.now;

        // ---- Sense: admission-queue depth plus worst in-flight slowdown.
        let queue_depth = core.parked_len();
        let mut worst_slowdown = 0.0f64;
        for &w in core.live() {
            let Some(wl) = core.wls.get(w) else {
                continue;
            };
            let ideal = u64_to_f64(wl.trace.total_compute_cycles());
            if ideal > 0.0 {
                worst_slowdown = worst_slowdown.max((at - wl.request_start) / ideal);
            }
        }
        let pressure = OverloadPressure {
            queue_depth,
            worst_slowdown,
        };

        // ---- Hysteresis: enter, escalate, hold, or clear.
        match self.controller.observe(pressure, at) {
            LadderStep::Enter => core.emit(SimEvent::OverloadEntered { queue_depth, at }),
            LadderStep::Clear => {
                // Demotions and quota trims are deliberately not rolled
                // back (the ladder is monotone within an episode and the
                // watchdog repairs unfairness), but the preemption cadence
                // returns to its configured slice.
                self.slice = self.base_slice;
                core.emit(SimEvent::OverloadCleared { at });
            }
            LadderStep::Escalate | LadderStep::Hold => {}
        }

        // ---- Apply every rung at or below the ladder position, while the
        // episode is still breaching (a calm hold applies nothing).
        if self.controller.is_overloaded() && self.controller.policy().breaching(pressure) {
            let rung = self.controller.rung();
            if rung >= 1 {
                // Demote the tenant drawing the most FU time (ties resolve
                // to the earliest admission for determinism).
                let mut victim: Option<(usize, f64)> = None;
                for &w in core.live() {
                    let Some(wl) = core.wls.get(w) else {
                        continue;
                    };
                    let rate = core.table.active_rate(wl.id, at);
                    if victim.is_none_or(|(_, best)| rate > best + EPS) {
                        victim = Some((w, rate));
                    }
                }
                if let Some((w, _)) = victim {
                    let (id, old) = {
                        let wl = core.wl(w)?;
                        (wl.id, wl.priority)
                    };
                    let new = self.controller.policy().demoted_priority(old);
                    if new < old {
                        core.table.set_priority(id, new)?;
                        core.wl_mut(w)?.priority = new;
                        self.controller.stats_mut().demotions += 1;
                        core.emit(SimEvent::DegradationApplied {
                            rung: 1,
                            workload: Some(w),
                            at,
                        });
                    }
                }
            }
            if rung >= 2 && self.preemption {
                let new = self.controller.policy().shrunk_slice(self.slice);
                if new < self.slice {
                    self.slice = new;
                    self.controller.stats_mut().slice_shrinks += 1;
                    core.emit(SimEvent::DegradationApplied {
                        rung: 2,
                        workload: None,
                        at,
                    });
                }
            }
            if rung >= 3 {
                // Index loop: `set_quota` and `emit` need the core mutably,
                // and neither changes the live set.
                for i in 0..core.live().len() {
                    let Some(&w) = core.live().get(i) else {
                        break;
                    };
                    let (quota, completed) = {
                        let wl = core.wl(w)?;
                        (wl.quota, wl.completed)
                    };
                    let trimmed = self.controller.policy().trimmed_quota(quota, completed);
                    if trimmed < quota {
                        core.set_quota(w, trimmed)?;
                        self.controller.stats_mut().quota_trims += 1;
                        core.emit(SimEvent::DegradationApplied {
                            rung: 3,
                            workload: Some(w),
                            at,
                        });
                    }
                }
            }
            if rung >= 4 {
                let shed = core.shed_stale_parked(self.controller.policy().shed_wait_cycles());
                if shed > 0 {
                    self.controller.stats_mut().shed_requests += shed;
                    core.emit(SimEvent::DegradationApplied {
                        rung: 4,
                        workload: None,
                        at,
                    });
                }
            }
        }

        // ---- Starvation watchdog, every sense tick, overloaded or not.
        self.controller.watchdog_retain(core.live());
        // Retry boosts deferred at the priority cap: a rung-1 demotion this
        // tick (or a policy with headroom restored) lets them land now.
        // `watchdog_retain` just pruned retired tenancies, so every pending
        // index is live.
        for w in self.controller.pending_boosts() {
            let (id, old) = {
                let wl = core.wl(w)?;
                (wl.id, wl.priority)
            };
            let new = self.controller.policy().boosted_priority(old);
            if new > old {
                core.table.set_priority(id, new)?;
                core.wl_mut(w)?.priority = new;
                self.controller.clear_pending_boost(w);
                self.controller.stats_mut().boosts += 1;
                core.emit(SimEvent::WatchdogBoost {
                    workload: w,
                    priority: new,
                    at,
                });
            }
        }
        for i in 0..core.live().len() {
            let Some(&w) = core.live().get(i) else {
                break;
            };
            let (id, arp) = {
                let wl = core.wl(w)?;
                (wl.id, core.table.active_rate_p(wl.id, at))
            };
            if self.controller.watchdog_starved(w, arp, at) {
                self.controller.stats_mut().starvations += 1;
                core.emit(SimEvent::TenantStarved {
                    workload: w,
                    active_rate_p: arp,
                    at,
                });
                let old = core.wl(w)?.priority;
                let new = self.controller.policy().boosted_priority(old);
                if new > old {
                    core.table.set_priority(id, new)?;
                    core.wl_mut(w)?.priority = new;
                    self.controller.stats_mut().boosts += 1;
                    core.emit(SimEvent::WatchdogBoost {
                        workload: w,
                        priority: new,
                        at,
                    });
                } else {
                    // The boost would silently no-op (the tenant is already
                    // at the policy's priority cap). Keep it queued so it
                    // lands as soon as headroom opens instead of being
                    // dropped on the floor.
                    self.controller.queue_boost(w);
                }
            }
        }

        self.controller.advance_sense(at);
        Ok(())
    }
}

impl ExecutorStrategy for V10Strategy {
    fn step<O: SimObserver>(&mut self, core: &mut EngineCore<'_, O>) -> V10Result<StepOutcome> {
        // -------- Phase 0: seat arrivals that are due — parked arrivals
        // first (they are older), then the pending schedule.
        core.admit_parked()?;
        core.admit_due()?;
        #[cfg(debug_assertions)]
        core.debug_validate_spine();

        // -------- Phase 1: promote fetches (calendar pops the due set in
        // workload order), then issue ready operators.
        core.promote_due_fetches()?;
        for s in 0..core.slots.len() {
            let (occupied, switch_until, kind, fu) = {
                let slot = core.slot(s)?;
                (
                    slot.occupant.is_some(),
                    slot.switch_until,
                    slot.kind,
                    slot.fu,
                )
            };
            if occupied {
                continue;
            }
            // A pending switch window that has elapsed closes here. (The
            // sentinel reset to 0.0 is unobservable to the schedule: the
            // clock only grows, so an elapsed deadline and 0.0 compare
            // identically ever after.)
            let mut switch_until = switch_until;
            if switch_until > 0.0 && switch_until <= core.now + EPS {
                core.slot_mut(s)?.switch_until = 0.0;
                switch_until = 0.0;
                let at = core.now;
                core.emit(SimEvent::CtxSwitchEnded { fu: s, at });
            }
            if switch_until <= core.now + EPS {
                if let Some(id) = self
                    .scheduler
                    .pick_next(&core.table, kind, Cycles::new(core.now))
                {
                    let w = core.owner_of(id)?;
                    core.table.mark_issued(id, fu)?;
                    core.slot_mut(s)?.occupant = Some(w);
                    let now = core.now;
                    let wl = core.wl_mut(w)?;
                    wl.last_issue_at = now;
                    let op_id = wl.next_op_id;
                    let ev = SimEvent::OpIssued {
                        workload: w,
                        fu: s,
                        kind,
                        op_id,
                        at: now,
                    };
                    core.emit(ev);
                }
            }
        }

        // -------- Termination check (after issuing, so the final event is
        // fully accounted).
        if core.all_done() {
            return Ok(StepOutcome::Finished);
        }

        // -------- Phase 2: progress rates under HBM arbitration.
        self.flows_scratch.clear();
        for slot in &core.slots {
            let Some(w) = slot.occupant else {
                continue;
            };
            let Some(wl) = core.wls.get(w) else {
                continue;
            };
            self.flows_scratch
                .push((w, wl.current_op().hbm_demand_bytes_per_cycle()));
        }
        // The arbiter is a pure function of the flow set over a fixed
        // capacity; skip it when this step's flows are bitwise-identical
        // to the ones `rates_scratch` already answers for.
        let flows_unchanged = self.hbm_memo_valid
            && self.flows_scratch.len() == self.hbm_flows_memo.len()
            && self
                .flows_scratch
                .iter()
                .zip(&self.hbm_flows_memo)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !flows_unchanged {
            core.hbm
                .progress_rates_into(&self.flows_scratch, &mut self.rates_scratch);
            self.hbm_flows_memo.clear();
            self.hbm_flows_memo.extend_from_slice(&self.flows_scratch);
            self.hbm_memo_valid = true;
        }

        // -------- Phase 3: time to the next event.
        let mut dt = f64::INFINITY;
        for slot in &core.slots {
            if let Some(wl) = slot.occupant.and_then(|w| core.wls.get(w)) {
                let r = slot
                    .occupant
                    .map_or(1.0, |w| rate_of(&self.rates_scratch, w));
                if r > EPS {
                    dt = dt.min(wl.op_remaining / r);
                }
            }
            if slot.switch_until > core.now + EPS {
                dt = dt.min(slot.switch_until - core.now);
            }
        }
        // The earliest pending fetch bounds the step exactly as the
        // per-tenancy min-scan did: `min_i(x_i) - now == min_i(x_i - now)`
        // bit for bit, because constant subtraction is monotone and the
        // final value is the same float op on the same minimum element.
        if let Some(at) = core.next_fetch_at() {
            if at > core.now + EPS {
                dt = dt.min(at - core.now);
            }
        }
        if let Some(at) = core.next_arrival_at() {
            dt = dt.min(at - core.now);
        }
        if self.preemption {
            dt = dt.min(self.tick_next - core.now);
        }
        if let Some(at) = core.next_fault_at() {
            dt = dt.min(at - core.now);
        }
        if let Some(at) = self.controller.next_at() {
            dt = dt.min(at - core.now);
        }
        let dt = core.resolve_dt(dt)?;

        // -------- Phase 4: advance, accounting as we go.
        core.advance(dt, &self.rates_scratch);

        // -------- Phase 4.5: inject faults that are due at this instant.
        if self.apply_due_faults(core)? {
            return Ok(StepOutcome::Finished);
        }

        // -------- Phase 5a: operator completions (and departures).
        for s in 0..core.slots.len() {
            let Some(w) = core.slot(s)?.occupant else {
                continue;
            };
            let (op_remaining, id) = {
                let wl = core.wl(w)?;
                (wl.op_remaining, wl.id)
            };
            if op_remaining > EPS {
                continue;
            }
            core.slot_mut(s)?.occupant = None;
            core.table.mark_released(id, false)?;
            core.finish_op(w)?;
            let (alive, next_op_id, kind) = {
                let wl = core.wl(w)?;
                (
                    wl.alive,
                    wl.next_op_id,
                    wl.alive.then(|| wl.current_op().kind()),
                )
            };
            if let (true, Some(kind)) = (alive, kind) {
                core.table.set_current_op(id, next_op_id, kind)?;
            }
        }

        // -------- Phase 5b: preemption timer (§3.3).
        if self.preemption && core.now + EPS >= self.tick_next {
            while self.tick_next <= core.now + EPS {
                self.tick_next += self.slice;
            }
            let at = core.now;
            core.emit(SimEvent::TimerTick { at });
            for s in 0..core.slots.len() {
                let (occupant, kind) = {
                    let slot = core.slot(s)?;
                    (slot.occupant, slot.kind)
                };
                let Some(w) = occupant else {
                    continue;
                };
                let running = core.wl(w)?.id;
                let Some(candidate) =
                    self.scheduler
                        .pick_next(&core.table, kind, Cycles::new(core.now))
                else {
                    continue;
                };
                if self.scheduler.prefers_preemption(
                    &core.table,
                    running,
                    candidate,
                    Cycles::new(core.now),
                ) {
                    let cost = match kind {
                        FuKind::Sa => self.sa_switch_cycles,
                        FuKind::Vu => self.vu_switch_cycles,
                    } as f64;
                    core.table.mark_released(running, true)?;
                    let until = core.now + cost;
                    {
                        let slot = core.slot_mut(s)?;
                        slot.occupant = None;
                        slot.switch_until = until;
                    }
                    let wl = core.wl_mut(w)?;
                    wl.preemptions += 1;
                    wl.switch_overhead += cost;
                    let at = core.now;
                    core.emit(SimEvent::OpPreempted {
                        workload: w,
                        fu: s,
                        at,
                    });
                    core.emit(SimEvent::CtxSwitchStarted {
                        fu: s,
                        cost_cycles: cost,
                        at,
                    });
                }
            }
        }

        // -------- Phase 5c: overload control plane (armed runs only).
        if self.controller.due(core.now) {
            self.overload_tick(core)?;
        }
        Ok(StepOutcome::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{CounterObserver, NullObserver};
    use v10_isa::OpDesc;

    fn sa(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(cycles).build()
    }
    fn vu(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(cycles).build()
    }
    fn spec(label: &str, ops: Vec<OpDesc>) -> WorkloadSpec {
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }

    fn engine(policy: Policy, preemption: bool) -> V10Engine {
        V10Engine::new(NpuConfig::table5(), policy, preemption)
    }

    #[test]
    fn single_workload_runs_sequentially() {
        let e = engine(Policy::Priority, false);
        let r = e
            .run_observed(
                &[spec("w", vec![sa(1_000), vu(500)])],
                &RunOptions::new(4).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        let wl = &r.workloads()[0];
        assert_eq!(wl.completed_requests(), 4);
        // Each request is 1500 busy cycles plus a little DMA-ready latency.
        assert!(wl.avg_latency_cycles() >= 1_500.0);
        assert!(
            wl.avg_latency_cycles() < 1_700.0,
            "{}",
            wl.avg_latency_cycles()
        );
        // Never both busy: ops are sequential within a workload.
        assert_eq!(r.overlap().both, 0.0);
    }

    #[test]
    fn complementary_workloads_overlap() {
        let e = engine(Policy::Priority, false);
        let r = e
            .run_observed(
                &[
                    spec("sa-heavy", vec![sa(10_000), vu(100)]),
                    spec("vu-heavy", vec![sa(100), vu(10_000)]),
                ],
                &RunOptions::new(10).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        // The SA-heavy workload's matmuls run while the VU-heavy workload's
        // vector ops run: substantial both-busy time.
        assert!(
            r.overlap().both > 0.5 * r.elapsed_cycles(),
            "both-busy fraction {:.2}",
            r.overlap().both / r.elapsed_cycles()
        );
        assert!(r.sa_util() > 0.7);
        assert!(r.vu_util() > 0.7);
    }

    #[test]
    fn same_kind_workloads_serialize_on_one_fu() {
        let e = engine(Policy::Priority, false);
        let r = e
            .run_observed(
                &[spec("a", vec![sa(1_000)]), spec("b", vec![sa(1_000)])],
                &RunOptions::new(5).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        // Only one SA: total elapsed at least the serialized work.
        assert!(r.elapsed_cycles() >= 10_000.0);
        assert!(r.sa_util() > 0.9);
        assert_eq!(r.overlap().both, 0.0);
    }

    #[test]
    fn work_conservation_fu_idle_only_without_ready_ops() {
        // One workload alternating SA/VU: exactly one FU busy at any time
        // (modulo DMA-ready gaps), so sa_only + vu_only ~= elapsed.
        let e = engine(Policy::RoundRobin, false);
        let r = e
            .run_observed(
                &[spec("w", vec![sa(5_000), vu(5_000)])],
                &RunOptions::new(5).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        let covered = r.overlap().sa_only + r.overlap().vu_only;
        assert!(covered > 0.98 * r.elapsed_cycles());
    }

    #[test]
    fn preemption_breaks_long_op_blocking() {
        // Fig. 12's scenario: workload 1 has very long SA ops; workload 2
        // has short SA ops gating a VU chain.
        let w1 = spec("long-sa", vec![sa(700_000), vu(7_000)]);
        let w2 = spec(
            "short-ops",
            vec![sa(7_000), vu(70_000), sa(7_000), vu(70_000)],
        );
        let opts = RunOptions::new(8).unwrap();
        let fair = engine(Policy::Priority, false)
            .run_observed(&[w1.clone(), w2.clone()], &opts, &mut NullObserver)
            .unwrap();
        let full = engine(Policy::Priority, true)
            .run_observed(&[w1, w2], &opts, &mut NullObserver)
            .unwrap();
        let lat_fair = fair.workloads()[1].avg_latency_cycles();
        let lat_full = full.workloads()[1].avg_latency_cycles();
        assert!(
            lat_full < lat_fair * 0.8,
            "preemption should cut the short-op workload's latency: {lat_fair} -> {lat_full}"
        );
        assert!(full.workloads()[0].preemptions() > 0);
        assert_eq!(fair.workloads()[0].preemptions(), 0);
    }

    #[test]
    fn preemption_charges_switch_overhead() {
        let w1 = spec("long-sa", vec![sa(700_000)]);
        let w2 = spec("short-sa", vec![sa(7_000)]);
        let full = engine(Policy::Priority, true)
            .run_observed(&[w1, w2], &RunOptions::new(5).unwrap(), &mut NullObserver)
            .unwrap();
        assert!(full.switch_overhead_cycles() > 0.0);
        let preempted = &full.workloads()[0];
        assert!(preempted.switch_overhead_cycles() >= 384.0);
        // Overhead stays a small fraction of the run (Fig. 21: < 2%).
        assert!(full.switch_overhead_cycles() < 0.05 * full.elapsed_cycles());
    }

    #[test]
    fn priorities_shift_active_share() {
        let mk = |p: f64| spec("w", vec![sa(10_000)]).with_priority(p).unwrap();
        let r = engine(Policy::Priority, true)
            .run_observed(
                &[mk(9.0), mk(1.0)],
                &RunOptions::new(20).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        let hi = &r.workloads()[0];
        let lo = &r.workloads()[1];
        // Contending for the same SA, the high-priority workload gets most
        // of it.
        assert!(
            hi.completed_requests() > 2 * lo.completed_requests(),
            "hi {} vs lo {}",
            hi.completed_requests(),
            lo.completed_requests()
        );
    }

    #[test]
    fn multi_fu_pool_runs_same_kind_in_parallel() {
        let cfg = NpuConfig::builder().fu_count(2).build().unwrap();
        let e = V10Engine::new(cfg, Policy::Priority, false);
        let r = e
            .run_observed(
                &[spec("a", vec![sa(10_000)]), spec("b", vec![sa(10_000)])],
                &RunOptions::new(5).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        // Two SAs: the workloads truly run concurrently.
        assert!(r.elapsed_cycles() < 1.2 * 5.0 * 10_000.0);
    }

    #[test]
    fn hbm_contention_slows_memory_bound_ops() {
        let heavy = |label: &str| {
            spec(
                label,
                vec![OpDesc::builder(FuKind::Sa)
                    .compute_cycles(10_000)
                    // Demands 80% of peak alone; two of them oversubscribe.
                    .hbm_bytes((10_000.0 * 471.0 * 0.8) as u64)
                    .build()],
            )
        };
        let a = heavy("a");
        let b = spec(
            "b",
            vec![OpDesc::builder(FuKind::Vu)
                .compute_cycles(10_000)
                .hbm_bytes((10_000.0 * 471.0 * 0.8) as u64)
                .build()],
        );
        let r = engine(Policy::Priority, false)
            .run_observed(&[a, b], &RunOptions::new(3).unwrap(), &mut NullObserver)
            .unwrap();
        // 1.6x demand vs 1.0 capacity: ops stretch by ~1.6x.
        let lat = r.workloads()[0].avg_latency_cycles();
        assert!(lat > 14_000.0, "expected HBM-stretched latency, got {lat}");
        assert!(
            r.hbm_util() > 0.9,
            "HBM should be saturated: {}",
            r.hbm_util()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let specs = [
            spec("a", vec![sa(5_000), vu(1_000)]),
            spec("b", vec![sa(500), vu(4_000)]),
        ];
        let opts = RunOptions::new(7).unwrap();
        let r1 = engine(Policy::Priority, true)
            .run_observed(&specs, &opts, &mut NullObserver)
            .unwrap();
        let r2 = engine(Policy::Priority, true)
            .run_observed(&specs, &opts, &mut NullObserver)
            .unwrap();
        assert_eq!(r1.elapsed_cycles(), r2.elapsed_cycles());
        assert_eq!(
            r1.workloads()[0].avg_latency_cycles(),
            r2.workloads()[0].avg_latency_cycles()
        );
    }

    #[test]
    fn report_conserves_busy_time() {
        let specs = [
            spec("a", vec![sa(5_000), vu(1_000)]),
            spec("b", vec![sa(500), vu(4_000)]),
        ];
        let r = engine(Policy::Priority, true)
            .run_observed(&specs, &RunOptions::new(5).unwrap(), &mut NullObserver)
            .unwrap();
        let wl_busy: f64 = r
            .workloads()
            .iter()
            .map(|w| w.busy_sa_cycles() + w.busy_vu_cycles())
            .sum();
        let fu_busy = r.sa_busy_cycles() + r.vu_busy_cycles();
        assert!((wl_busy - fu_busy).abs() < 1e-3);
        // Overlap buckets partition elapsed time.
        let o = r.overlap();
        assert!((o.both + o.sa_only + o.vu_only + o.idle - r.elapsed_cycles()).abs() < 1e-3);
    }

    #[test]
    fn empty_specs_rejected() {
        let err = engine(Policy::Priority, false)
            .run_observed(&[], &RunOptions::new(1).unwrap(), &mut NullObserver)
            .unwrap_err();
        assert!(err.to_string().contains("at least one workload"), "{err}");
    }

    #[test]
    fn zero_requests_rejected() {
        let err = RunOptions::new(0).unwrap_err();
        assert!(err.to_string().contains("at least one request"), "{err}");
    }

    #[test]
    fn non_positive_priority_rejected() {
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err = spec("w", vec![sa(10)]).with_priority(bad).unwrap_err();
            assert!(err.to_string().contains("positive"), "{err}");
        }
    }

    #[test]
    fn zero_pmt_slice_rejected() {
        let err = RunOptions::new(1)
            .unwrap()
            .with_pmt_slice_cycles(0)
            .unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    #[test]
    fn workload_spec_accessors() {
        let s = spec("name", vec![sa(10)]).with_priority(3.0).unwrap();
        assert_eq!(s.label(), "name");
        assert_eq!(s.priority(), 3.0);
        assert_eq!(s.trace().ops().len(), 1);
    }

    #[test]
    fn observed_run_matches_unobserved_and_counts_add_up() {
        let specs = [
            spec("a", vec![sa(5_000), vu(1_000)]),
            spec("b", vec![sa(500), vu(4_000)]),
        ];
        let opts = RunOptions::new(5).unwrap();
        let e = engine(Policy::Priority, true);
        let plain = e.run_observed(&specs, &opts, &mut NullObserver).unwrap();
        let mut counters = CounterObserver::new();
        let observed = e.run_observed(&specs, &opts, &mut counters).unwrap();
        // Observation must not perturb the simulation.
        assert_eq!(plain.elapsed_cycles(), observed.elapsed_cycles());
        assert_eq!(
            plain.workloads()[0].avg_latency_cycles(),
            observed.workloads()[0].avg_latency_cycles()
        );
        // Event counts line up with the report.
        let completed: usize = observed
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(counters.request_completed(), completed as u64);
        let preempted: u64 = observed.workloads().iter().map(|w| w.preemptions()).sum();
        assert_eq!(counters.op_preempted(), preempted);
        assert_eq!(counters.ctx_switch_started(), preempted);
        // Each completion was preceded by an issue (re-issues after
        // preemption add more).
        assert!(counters.op_issued() >= counters.op_completed());
        assert!(counters.op_completed() > 0);
        assert!(counters.dma_ready() > 0);
    }

    #[test]
    fn ctx_switch_windows_balance() {
        let w1 = spec("long-sa", vec![sa(700_000)]);
        let w2 = spec("short-sa", vec![sa(7_000)]);
        let mut counters = CounterObserver::new();
        let _ = engine(Policy::Priority, true)
            .run_observed(&[w1, w2], &RunOptions::new(5).unwrap(), &mut counters)
            .unwrap();
        assert!(counters.ctx_switch_started() > 0);
        // Every switch window that opened also closed (the run only ends
        // once all work is issued and finished).
        assert_eq!(counters.ctx_switch_started(), counters.ctx_switch_ended());
        assert!(counters.timer_tick() > 0);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use crate::observer::NullObserver;
    use v10_isa::OpDesc;
    use v10_sim::SimRng;

    /// A small random trace of 1-6 operators with mixed kinds, lengths,
    /// and HBM demands.
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
                    let cycles = rng.uniform_u64(1_000, 200_000);
                    let hbm = rng.uniform_u64(0, 100_000_000).min(cycles * 300); // demand < peak
                    let gap = rng.uniform_u64(0, 2_000);
                    OpDesc::builder(kind)
                        .compute_cycles(cycles)
                        .hbm_bytes(hbm)
                        .dispatch_gap_cycles(gap)
                        .build()
                })
                .collect(),
        )
        .unwrap()
    }

    /// Engine invariants hold for random workload pairs under every
    /// design: requests complete, busy time is conserved (>= trace work,
    /// bounded by elapsed), overlap buckets partition elapsed time, and
    /// per-request latency is at least the trace's critical work.
    #[test]
    fn engine_invariants_random_traces() {
        let mut rng = SimRng::seed_from(0xE161);
        for case in 0..8 {
            let t1 = random_trace(&mut rng);
            let t2 = random_trace(&mut rng);
            for (policy, preemption) in [
                (Policy::RoundRobin, false),
                (Policy::Priority, false),
                (Policy::Priority, true),
            ] {
                let specs = [
                    WorkloadSpec::new("a", t1.clone()),
                    WorkloadSpec::new("b", t2.clone()),
                ];
                let engine = V10Engine::new(NpuConfig::table5(), policy, preemption);
                let r = engine
                    .run_observed(&specs, &RunOptions::new(3).unwrap(), &mut NullObserver)
                    .unwrap();

                // All requests completed.
                for wl in r.workloads() {
                    assert!(wl.completed_requests() >= 3, "case {case}");
                }
                // Work conservation per workload.
                for (wl, trace) in r.workloads().iter().zip([&t1, &t2]) {
                    let per_req = trace.total_compute_cycles() as f64;
                    let done = wl.completed_requests() as f64;
                    let busy = wl.busy_sa_cycles() + wl.busy_vu_cycles();
                    assert!(
                        busy >= done * per_req - 1.0,
                        "lost work: busy {busy} < {done} requests x {per_req}"
                    );
                    // Occupancy can stretch under HBM contention, but not 3x.
                    assert!(busy <= 3.0 * done * per_req + 1.0);
                    // Latency covers at least the request's own busy time.
                    for &lat in wl.latencies_cycles() {
                        assert!(lat + 1.0 >= per_req, "latency {lat} < work {per_req}");
                    }
                }
                // Overlap buckets partition elapsed time.
                let o = r.overlap();
                assert!((o.total() - r.elapsed_cycles()).abs() < 1e-3);
                // FU-side busy equals workload-side busy.
                let wl_busy: f64 = r
                    .workloads()
                    .iter()
                    .map(|w| w.busy_sa_cycles() + w.busy_vu_cycles())
                    .sum();
                assert!((wl_busy - r.sa_busy_cycles() - r.vu_busy_cycles()).abs() < 1e-3);
                // Utilizations are fractions.
                for u in [r.sa_util(), r.vu_util(), r.hbm_util()] {
                    assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
                }
            }
        }
    }

    /// Without preemption, no workload is ever preempted; with the
    /// round-robin policy the same holds (V10-Base is non-preemptive).
    #[test]
    fn no_preemption_designs_never_preempt() {
        let mut rng = SimRng::seed_from(0x0BA5);
        for _ in 0..8 {
            let t1 = random_trace(&mut rng);
            let t2 = random_trace(&mut rng);
            for policy in [Policy::RoundRobin, Policy::Priority] {
                let engine = V10Engine::new(NpuConfig::table5(), policy, false);
                let r = engine
                    .run_observed(
                        &[
                            WorkloadSpec::new("a", t1.clone()),
                            WorkloadSpec::new("b", t2.clone()),
                        ],
                        &RunOptions::new(2).unwrap(),
                        &mut NullObserver,
                    )
                    .unwrap();
                for wl in r.workloads() {
                    assert_eq!(wl.preemptions(), 0);
                }
                assert_eq!(r.switch_overhead_cycles(), 0.0);
            }
        }
    }

    /// Scaling the FU pool never hurts: elapsed time with 2 FU pairs is
    /// at most (slightly above) elapsed with 1 pair.
    #[test]
    fn more_fus_never_slow_things_down() {
        let mut rng = SimRng::seed_from(0x2F05);
        for _ in 0..8 {
            let specs = [
                WorkloadSpec::new("a", random_trace(&mut rng)),
                WorkloadSpec::new("b", random_trace(&mut rng)),
            ];
            let opts = RunOptions::new(2).unwrap();
            let small = V10Engine::new(NpuConfig::table5(), Policy::Priority, false)
                .run_observed(&specs, &opts, &mut NullObserver)
                .unwrap();
            let big_cfg = NpuConfig::builder().fu_count(2).build().unwrap();
            let big = V10Engine::new(big_cfg, Policy::Priority, false)
                .run_observed(&specs, &opts, &mut NullObserver)
                .unwrap();
            assert!(big.elapsed_cycles() <= small.elapsed_cycles() * 1.01 + 1.0);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::design::{serve_design_stressed_observed, Design};
    use crate::invariants::run_digest;
    use crate::lifecycle::Admission;
    use crate::observer::{CounterObserver, NullObserver};
    use v10_isa::OpDesc;
    use v10_sim::FaultPlan;

    fn sa(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(cycles).build()
    }
    fn vu(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(cycles).build()
    }
    fn spec(label: &str, ops: Vec<OpDesc>) -> WorkloadSpec {
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }
    fn engine() -> V10Engine {
        V10Engine::new(NpuConfig::table5(), Policy::Priority, true)
    }

    /// Serves [`schedule`] on [`engine`]'s design under `plan`.
    fn serve_faulted<O: SimObserver>(
        opts: &RunOptions,
        plan: &FaultPlan,
        observer: &mut O,
    ) -> V10Result<RunReport> {
        serve_design_stressed_observed(
            Design::V10Full,
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
            Admission::new(spec("a", vec![sa(1_000_000), vu(20_000)]), 0.0, 3).unwrap(),
            Admission::new(spec("b", vec![sa(10_000), vu(300_000)]), 50_000.0, 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn transient_fault_replays_the_in_flight_operator() {
        let e = engine();
        let opts = RunOptions::new(3).unwrap();
        let plain = e
            .serve_observed(&schedule(), &opts, &mut NullObserver)
            .unwrap();
        // Workload "a"'s first 1M-cycle SA op is in flight at t=200k.
        let plan = FaultPlan::none()
            .with_fault(200_000.0, FaultKind::TransientOp { victim_salt: 0 })
            .unwrap();
        let mut counters = CounterObserver::new();
        let faulted = serve_faulted(&opts, &plan, &mut counters).unwrap();
        assert_eq!(counters.fault_injected(), 1);
        assert_eq!(counters.op_replayed(), 1);
        assert_eq!(faulted.faults_injected(), 1);
        let replays: u64 = faulted.workloads().iter().map(|w| w.replays()).sum();
        assert_eq!(replays, 1);
        assert!(faulted.replay_overhead_cycles() > 0.0);
        // Replayed work re-executes: the run takes strictly longer.
        assert!(faulted.elapsed_cycles() > plain.elapsed_cycles());
        // Every request still completes: transient faults lose no work.
        let done: usize = faulted
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(done, 6);
        // Eviction windows stay balanced.
        assert_eq!(counters.ctx_switch_started(), counters.ctx_switch_ended());
    }

    #[test]
    fn core_stall_delays_without_losing_work() {
        let e = engine();
        let opts = RunOptions::new(3).unwrap();
        let plain = e
            .serve_observed(&schedule(), &opts, &mut NullObserver)
            .unwrap();
        let stall = 250_000.0;
        let plan = FaultPlan::none()
            .with_fault(
                100_000.0,
                FaultKind::CoreStall {
                    stall_cycles: stall,
                },
            )
            .unwrap();
        let mut counters = CounterObserver::new();
        let faulted = serve_faulted(&opts, &plan, &mut counters).unwrap();
        assert_eq!(counters.fault_injected(), 1);
        assert_eq!(counters.op_replayed(), 0, "a stall corrupts nothing");
        let done: usize = faulted
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(done, 6);
        // The whole core freezes for the stall: elapsed grows by ~stall.
        assert!(faulted.elapsed_cycles() >= plain.elapsed_cycles() + 0.9 * stall);
        assert_eq!(counters.ctx_switch_started(), counters.ctx_switch_ended());
    }

    #[test]
    fn core_retire_drains_and_rejects_the_rest() {
        let opts = RunOptions::new(3).unwrap();
        // Retire before workload "b" even arrives.
        let plan = FaultPlan::none()
            .with_fault(20_000.0, FaultKind::CoreRetire)
            .unwrap();
        let mut counters = CounterObserver::new();
        let faulted = serve_faulted(&opts, &plan, &mut counters).unwrap();
        assert_eq!(counters.core_retired(), 1);
        assert_eq!(faulted.core_retired_at(), Some(20_000.0));
        // The pending arrival was turned away at the retirement instant.
        assert!(counters.admission_rejected() >= 1);
        // Nothing completes after retirement: the long first op never fits
        // in 20k cycles.
        let done: usize = faulted
            .workloads()
            .iter()
            .map(|w| w.completed_requests())
            .sum();
        assert_eq!(done, 0);
        assert!(faulted.elapsed_cycles() <= 20_000.0 + 1.0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let opts = RunOptions::new(3).unwrap();
        let plan = FaultPlan::none()
            .with_poisson_transients(0xFA17, 150_000.0, 2_000_000.0)
            .unwrap()
            .with_fault(
                400_000.0,
                FaultKind::CoreStall {
                    stall_cycles: 50_000.0,
                },
            )
            .unwrap();
        let a = serve_faulted(&opts, &plan, &mut NullObserver).unwrap();
        let b = serve_faulted(&opts, &plan, &mut NullObserver).unwrap();
        assert_eq!(run_digest(&a), run_digest(&b));
        assert!(a.faults_injected() > 0, "the plan should actually fire");
    }
}
