//! The shared event-loop core behind every executor.
//!
//! Both the operator-granularity V10 engine ([`crate::engine::V10Engine`])
//! and the task-granularity PMT baseline ([`crate::pmt`]) are
//! piecewise-constant event simulations: between events nothing changes, so
//! the clock jumps straight to the next operator completion, DMA-ready
//! instant, context-switch end, timer tick, or tenant arrival.
//! [`EngineCore`] owns that machinery — per-tenant execution state, the
//! pending admission queue, FU occupancy slots, the HBM arbiter, the
//! instruction DMA model, busy/idle/overhead accounting, and the observer
//! hookup — while an [`ExecutorStrategy`] supplies only the scheduling
//! *decisions*. [`drive`] runs a strategy over a core to completion.
//!
//! Tenancy is dynamic: the core consumes an
//! [`AdmissionSchedule`](crate::lifecycle::AdmissionSchedule), admitting
//! each arrival into a free context-table slot when its time comes (or
//! rejecting it when the table is full) and retiring non-resident tenants
//! once they meet their request quota. The closed-loop entry points feed an
//! admit-everything-at-cycle-0 schedule of resident tenants through this
//! same path, which the golden-run regression test pins bit for bit.

use std::collections::VecDeque;

use v10_isa::{FuKind, OpDesc, RequestTrace};
use v10_npu::{FuId, HbmArbiter, InstructionDma, NpuConfig};
use v10_sim::convert::{u64_from_usize, u64_to_f64, usize_to_f64};
use v10_sim::{
    Cycles, FaultEvent, FaultInjector, FaultKind, HorizonCalendar, LabelId, LabelInterner,
    V10Error, V10Result,
};

use crate::context::{ContextTable, WorkloadId};
use crate::lifecycle::{Admission, AdmissionSchedule};
use crate::metrics::{OverlapBreakdown, RunReport, WorkloadReport};
use crate::observer::{SimEvent, SimObserver};

/// Time-comparison slack: two instants closer than this are simultaneous.
///
/// unit: cycles.
pub(crate) const EPS: f64 = 1e-6;

/// Advancing the clock by less than `EPS` this many consecutive iterations
/// is a livelock.
const LIVELOCK_STREAK: u32 = 10_000;

/// Per-tenant mutable execution state. One entry per *admitted* tenant, in
/// admission order; retired tenants keep their entry (with `alive` false)
/// so the final report covers every tenancy the run served.
#[derive(Debug)]
pub(crate) struct WlState {
    /// Interned label (resolved back to a string only at report assembly).
    pub(crate) label: LabelId,
    /// unit: dimensionless share weight (the paper's pVM priority).
    pub(crate) priority: f64,
    /// The tenancy's context-table id (slot + generation).
    pub(crate) id: WorkloadId,
    /// Requests the tenant must complete.
    pub(crate) quota: usize,
    /// Resident tenants keep running past their quota until the run ends
    /// (the closed-loop steady-state methodology); non-resident tenants
    /// retire at their quota, freeing their slot.
    pub(crate) resident: bool,
    pub(crate) alive: bool,
    /// unit: absolute cycles at admission.
    pub(crate) admitted_at: f64,
    pub(crate) retired_at: Option<f64>,
    pub(crate) trace: RequestTrace,
    pub(crate) op_idx: usize,
    /// unit: cycles of work left in the current operator.
    pub(crate) op_remaining: f64,
    /// Absolute time at which the current operator's instruction DMA
    /// completes (drives the Ready bit while the operator is neither ready
    /// nor active).
    ///
    /// unit: absolute cycles.
    pub(crate) fetch_ready_at: f64,
    /// When the current operator was (first) issued — the prefetch start of
    /// its successor.
    ///
    /// unit: absolute cycles.
    pub(crate) last_issue_at: f64,
    /// unit: absolute cycles when the in-flight request started.
    pub(crate) request_start: f64,
    pub(crate) completed: usize,
    /// unit: dimensionless operator ordinal (wraps onto 32 bits in hardware).
    pub(crate) next_op_id: u64,
    // accounting
    pub(crate) latencies: Vec<f64>,
    /// unit: cycles of systolic-array occupancy.
    pub(crate) busy_sa: f64,
    /// unit: cycles of vector-unit occupancy.
    pub(crate) busy_vu: f64,
    /// unit: HBM bytes moved (fractional during partial progress).
    pub(crate) hbm_bytes: f64,
    /// unit: dimensionless event count.
    pub(crate) preemptions: u64,
    /// unit: cycles lost to context switches.
    pub(crate) switch_overhead: f64,
    /// Operators re-issued from their input checkpoint after a transient
    /// fault corrupted them in flight.
    ///
    /// unit: dimensionless event count.
    pub(crate) replays: u64,
    /// Cycles spent restoring checkpoints for those replays.
    ///
    /// unit: cycles.
    pub(crate) replay_overhead: f64,
}

impl WlState {
    pub(crate) fn current_op(&self) -> &OpDesc {
        // v10-lint: allow(P1) op_idx wraps to 0 in finish_op before it can reach ops().len(), and traces are validated non-empty
        &self.trace.ops()[self.op_idx]
    }
}

/// One functional-unit occupancy slot.
///
/// The V10 executor keeps one slot per FU in the pool; the PMT baseline
/// models whole-core ownership with a single slot whose kind tracks the
/// owner's current operator.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) fu: FuId,
    pub(crate) kind: FuKind,
    pub(crate) occupant: Option<usize>,
    /// unit: absolute cycles until which the slot is mid-switch.
    pub(crate) switch_until: f64,
}

impl Slot {
    pub(crate) fn new(fu: FuId, kind: FuKind) -> Self {
        Slot {
            fu,
            kind,
            occupant: None,
            switch_until: 0.0,
        }
    }
}

/// The progress rate the HBM arbiter granted workload `w`, defaulting to
/// full rate for flows it was not asked about.
pub(crate) fn rate_of(rates: &[(usize, f64)], w: usize) -> f64 {
    rates
        .iter()
        .find(|&&(id, _)| id == w)
        .map(|&(_, r)| r)
        .unwrap_or(1.0)
}

/// Should [`drive`] keep iterating?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Run another scheduling step.
    Continue,
    /// Every admission was served and every tenant met its request quota;
    /// emit the report.
    Finished,
}

/// Scheduling decisions layered over an [`EngineCore`].
///
/// One [`step`](ExecutorStrategy::step) admits due arrivals, inspects the
/// core, picks the next event horizon, advances the core across it, and
/// applies completions — the core supplies the mechanisms
/// ([`EngineCore::advance`], [`EngineCore::finish_op`], ...), the strategy
/// the policy.
pub(crate) trait ExecutorStrategy {
    /// Runs one scheduling iteration.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::Deadlock`] / [`V10Error::Livelock`] when the
    /// simulation cannot make progress.
    fn step<O: SimObserver>(&mut self, core: &mut EngineCore<'_, O>) -> V10Result<StepOutcome>;
}

/// Runs `strategy` over `core` until it reports completion.
pub(crate) fn drive<S: ExecutorStrategy, O: SimObserver>(
    mut core: EngineCore<'_, O>,
    strategy: &mut S,
) -> V10Result<RunReport> {
    loop {
        match strategy.step(&mut core) {
            Ok(StepOutcome::Finished) => return Ok(core.into_report()),
            Ok(StepOutcome::Continue) => {}
            Err(err) => {
                // Deliver whatever was emitted before the failure so event
                // streams (JSON lines, auditors) still cover the full run.
                core.flush_events();
                return Err(err);
            }
        }
    }
}

/// The shared simulation state and mechanisms of one executor run.
///
/// Fields are `pub(crate)` so strategies can make scheduling decisions over
/// them directly; the mutation *mechanisms* (time advance, admission,
/// operator completion, retirement, event emission) go through methods so
/// their accounting — and the float-operation order the golden run pins —
/// lives in exactly one place.
#[derive(Debug)]
pub(crate) struct EngineCore<'a, O: SimObserver> {
    pub(crate) table: ContextTable,
    pub(crate) hbm: HbmArbiter,
    pub(crate) dma: InstructionDma,
    pub(crate) wls: Vec<WlState>,
    pub(crate) slots: Vec<Slot>,
    /// unit: absolute cycles (the engine clock).
    pub(crate) now: f64,
    /// unit: cycles lost to context switches, summed over tenants.
    pub(crate) switch_overhead_total: f64,
    /// Bumped on every admission and retirement; strategies that cache
    /// derived tenant state (PMT's rotation slices) resync when it moves.
    ///
    /// unit: dimensionless generation counter.
    pub(crate) tenancy_epoch: u64,
    /// Compiled fault schedule; disarmed (empty) on unfaulted entry points,
    /// in which case no branch below ever observes it.
    pub(crate) faults: FaultInjector,
    /// Arrivals not yet due, in arrival order.
    pending: VecDeque<Admission>,
    /// Due arrivals waiting out a full context table (armed overload path
    /// only), oldest first, each with its original arrival sequence number.
    parked: VecDeque<(usize, Admission)>,
    /// When set (by the armed overload path), a full table parks due
    /// arrivals instead of rejecting them. Off by default, in which case
    /// `parked` is never touched and the event loop is bit-identical to the
    /// pre-overload engine.
    queue_on_full: bool,
    /// Context-table slot index -> `wls` index of its live occupant.
    slot_owner: Vec<Option<usize>>,
    /// Indices into `wls` of the live tenancies, ascending. Maintained by
    /// seat/finish/retire so the hot paths never rediscover liveness by
    /// scanning every tenancy ever admitted.
    live: Vec<usize>,
    /// Tenancies with `completed < quota` — makes `all_done` O(1).
    unmet: usize,
    /// Fetch-horizon calendar: one entry per live tenancy whose current
    /// operator is neither Ready nor Active, keyed by `wls` index at its
    /// `fetch_ready_at`. Replaces the per-step fetch min-scan.
    fetch_cal: HorizonCalendar,
    /// Reusable buffer for `promote_due_fetches`.
    fetch_scratch: Vec<usize>,
    /// Label symbol table; `WlState` and tenancy events carry `LabelId`s.
    interner: LabelInterner,
    /// Events awaiting a flush (at each clock advance and at report
    /// assembly), so observer dispatch stays out of the bookkeeping paths.
    event_buf: Vec<SimEvent>,
    rejected: u64,
    arrival_seq: usize,
    fault_seq: usize,
    replay_overhead_total: f64,
    core_retired_at: Option<f64>,
    overlap: OverlapBreakdown,
    sa_busy: f64,
    vu_busy: f64,
    zero_dt_streak: u32,
    hbm_peak: f64,
    fu_count: u32,
    observer: &'a mut O,
}

impl<'a, O: SimObserver> EngineCore<'a, O> {
    /// Builds a core at cycle 0 with an empty table of `capacity` slots and
    /// the whole `schedule` pending. The strategy's first
    /// [`admit_due`](Self::admit_due) call seats the cycle-0 arrivals.
    ///
    /// `context` names the public entry point for error messages.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `capacity` is zero.
    pub(crate) fn new(
        context: &'static str,
        schedule: &AdmissionSchedule,
        config: &NpuConfig,
        capacity: usize,
        slots: Vec<Slot>,
        faults: FaultInjector,
        observer: &'a mut O,
    ) -> V10Result<Self> {
        if capacity == 0 {
            return Err(V10Error::invalid(
                context,
                "context table needs at least one slot",
            ));
        }
        let hbm_peak = config.hbm_bytes_per_cycle();
        let hbm = HbmArbiter::new(hbm_peak)?;
        let dma = InstructionDma::new(hbm_peak)?;
        let table = ContextTable::with_capacity(capacity)?;

        Ok(EngineCore {
            table,
            hbm,
            dma,
            wls: Vec::new(),
            slots,
            now: 0.0,
            switch_overhead_total: 0.0,
            tenancy_epoch: 0,
            faults,
            pending: schedule.entries().iter().cloned().collect(),
            parked: VecDeque::new(),
            queue_on_full: false,
            slot_owner: vec![None; capacity],
            live: Vec::new(),
            unmet: 0,
            fetch_cal: HorizonCalendar::new(),
            fetch_scratch: Vec::new(),
            interner: LabelInterner::new(),
            event_buf: Vec::new(),
            rejected: 0,
            arrival_seq: 0,
            fault_seq: 0,
            replay_overhead_total: 0.0,
            core_retired_at: None,
            overlap: OverlapBreakdown::default(),
            sa_busy: 0.0,
            vu_busy: 0.0,
            zero_dt_streak: 0,
            hbm_peak,
            fu_count: config.fu_count(),
            observer,
        })
    }

    /// Queues one event for the observer. Events are delivered in emission
    /// order by [`flush_events`](Self::flush_events), which the strategies
    /// reach at every clock advance and at report assembly — batching keeps
    /// observer dispatch out of the bookkeeping inner loops, and a disabled
    /// observer ([`SimObserver::ENABLED`] = false) makes this a no-op the
    /// optimizer erases entirely.
    #[inline(always)]
    pub(crate) fn emit(&mut self, event: SimEvent) {
        if O::ENABLED {
            self.event_buf.push(event);
        }
    }

    /// Delivers every buffered event to the observer, in emission order.
    pub(crate) fn flush_events(&mut self) {
        if O::ENABLED && !self.event_buf.is_empty() {
            let mut buf = std::mem::take(&mut self.event_buf);
            for event in buf.drain(..) {
                self.observer.on_event(event);
            }
            self.event_buf = buf;
        }
    }

    /// Admits every pending arrival due at or before the current instant.
    /// Strategies call this at the top of each step so a freshly due tenant
    /// is schedulable in the same iteration.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if an admission carries a
    /// non-positive priority (unreachable through the validated public
    /// constructors).
    #[inline(always)]
    pub(crate) fn admit_due(&mut self) -> V10Result<()> {
        // Fast path: this runs at the top of every scheduler step, and
        // almost every step has nothing due — keep it a single front-check
        // so the seating machinery stays out of the hot loop.
        if self
            .pending
            .front()
            .is_some_and(|a| a.at_cycles() <= self.now + EPS)
        {
            self.admit_all_due()?;
        }
        Ok(())
    }

    #[cold]
    fn admit_all_due(&mut self) -> V10Result<()> {
        while self
            .pending
            .front()
            .is_some_and(|a| a.at_cycles() <= self.now + EPS)
        {
            if let Some(adm) = self.pending.pop_front() {
                self.admit_tenant(&adm)?;
            }
        }
        Ok(())
    }

    /// Assigns the next arrival sequence number and seats one arrival.
    fn admit_tenant(&mut self, adm: &Admission) -> V10Result<()> {
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        self.seat_tenant(seq, adm)
    }

    /// Enables queue-on-full admission: due arrivals that find the context
    /// table full wait in the parked queue (keeping their arrival sequence
    /// numbers) instead of being rejected. Armed overload entry points call
    /// this once before driving; nothing else ever sets it, which keeps the
    /// default path bit-identical to the pre-overload engine.
    pub(crate) fn enable_overload_queueing(&mut self) {
        self.queue_on_full = true;
    }

    /// Arrivals currently waiting out a full table — the overload
    /// controller's queue-depth pressure signal.
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Re-seats parked arrivals, oldest first, while the table has room.
    /// Strategies on the armed path call this before
    /// [`admit_due`](Self::admit_due) so waiting arrivals board ahead of
    /// newer ones.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineCore::admit_tenant`]'s (unreachable) validation
    /// error.
    #[inline(always)]
    pub(crate) fn admit_parked(&mut self) -> V10Result<()> {
        while !self.parked.is_empty() && !self.table.is_full() {
            if let Some((seq, adm)) = self.parked.pop_front() {
                self.seat_tenant(seq, &adm)?;
            }
        }
        Ok(())
    }

    /// Sheds every parked arrival that has waited more than
    /// `max_wait_cycles`, emitting [`SimEvent::RequestShed`] with its
    /// original arrival sequence number; younger arrivals keep their place
    /// in line. Returns the number shed. The overload ladder's final rung
    /// calls this, which is what guarantees the armed path terminates: a
    /// stuck queue holds the controller at the shed rung until the queue
    /// drains.
    /// unit: `max_wait_cycles` is a cycle-count age threshold.
    pub(crate) fn shed_stale_parked(&mut self, max_wait_cycles: f64) -> u64 {
        debug_assert!(
            max_wait_cycles.is_finite() && max_wait_cycles >= 0.0,
            "max_wait_cycles is a non-negative cycle count"
        );
        let now = self.now;
        let mut shed = 0u64;
        // Rotate in place: pop each entry once and push the keepers back,
        // preserving their relative order without a second queue.
        for _ in 0..self.parked.len() {
            let Some((seq, adm)) = self.parked.pop_front() else {
                break;
            };
            if now - adm.at_cycles() > max_wait_cycles + EPS {
                shed += 1;
                self.emit(SimEvent::RequestShed {
                    arrival: seq,
                    at: now,
                });
            } else {
                self.parked.push_back((seq, adm));
            }
        }
        shed
    }

    /// Seats one arrival: claims a context-table slot, initializes its
    /// execution state (first operator fetching, counters zeroed), and
    /// emits [`SimEvent::TenantAdmitted`]. A full table parks the arrival
    /// when overload queueing is on, and rejects it otherwise —
    /// [`SimEvent::AdmissionRejected`] — and the run goes on.
    fn seat_tenant(&mut self, seq: usize, adm: &Admission) -> V10Result<()> {
        let now = self.now;
        let id = match self.table.admit(adm.spec().priority(), now) {
            Ok(id) => id,
            Err(err) => {
                // Spec priorities were validated at construction, so the
                // only reachable failure is a full table: park or count it
                // as a rejection. Anything else is a real error.
                if !self.table.is_full() {
                    return Err(err);
                }
                if self.queue_on_full {
                    self.parked.push_back((seq, adm.clone()));
                    return Ok(());
                }
                self.rejected += 1;
                self.emit(SimEvent::AdmissionRejected {
                    arrival: seq,
                    at: now,
                });
                return Ok(());
            }
        };
        let label = self.interner.intern(adm.spec().label());
        let mut wl = WlState {
            label,
            priority: adm.spec().priority(),
            id,
            quota: adm.requests(),
            resident: adm.is_resident(),
            alive: true,
            admitted_at: now,
            retired_at: None,
            trace: adm.spec().trace().clone(),
            op_idx: 0,
            op_remaining: 0.0,
            fetch_ready_at: 0.0,
            last_issue_at: now,
            request_start: now,
            completed: 0,
            next_op_id: 0,
            latencies: Vec::with_capacity(adm.requests()),
            busy_sa: 0.0,
            busy_vu: 0.0,
            hbm_bytes: 0.0,
            preemptions: 0,
            switch_overhead: 0.0,
            replays: 0,
            replay_overhead: 0.0,
        };
        wl.op_remaining = u64_to_f64(wl.current_op().compute_cycles());
        wl.fetch_ready_at = self
            .dma
            .ready_at(wl.current_op(), now, now)
            .max(now + u64_to_f64(wl.current_op().dispatch_gap_cycles()));
        let kind = wl.current_op().kind();
        let fetch_at = wl.fetch_ready_at;
        let has_quota = wl.quota > 0;
        let w = self.wls.len();
        if let Some(owner) = self.slot_owner.get_mut(id.index()) {
            *owner = Some(w);
        }
        self.table.set_current_op(id, 0, kind)?;
        self.wls.push(wl);
        // `wls` indices are assigned in admission order, so pushing keeps
        // the live list sorted ascending.
        self.live.push(w);
        if has_quota {
            self.unmet += 1;
        }
        self.fetch_cal.set(w, Cycles::new(fetch_at))?;
        self.emit(SimEvent::TenantAdmitted {
            workload: w,
            label,
            at: now,
        });
        self.tenancy_epoch += 1;
        Ok(())
    }

    /// Arrival time of the next pending admission, if any — an event
    /// horizon every strategy must respect.
    pub(crate) fn next_arrival_at(&self) -> Option<f64> {
        self.pending.front().map(Admission::at_cycles)
    }

    /// Fire time of the next scheduled fault, if any — an event horizon
    /// every strategy must respect when the injector is armed. A disarmed
    /// injector returns `None` and never bounds a step.
    pub(crate) fn next_fault_at(&self) -> Option<f64> {
        self.faults.next_at()
    }

    /// Pops the next fault due at the current instant, if any.
    pub(crate) fn next_due_fault(&mut self) -> Option<FaultEvent> {
        self.faults.pop_due(self.now, EPS)
    }

    /// Emits [`SimEvent::FaultInjected`] with the next fault sequence
    /// number. `victim` names the workload a transient operator fault
    /// singled out, when there was one in flight.
    pub(crate) fn emit_fault(&mut self, kind: FaultKind, victim: Option<usize>) {
        let fault = self.fault_seq;
        self.fault_seq += 1;
        let at = self.now;
        self.emit(SimEvent::FaultInjected {
            fault,
            kind,
            workload: victim,
            at,
        });
    }

    /// Recovers workload `w` from a transient operator fault: discards the
    /// corrupted operator's progress and re-issues it from its input
    /// checkpoint (V10 §3.3's SA input checkpoint / VU register file save),
    /// charging `cost` cycles of restore overhead — the same Fig. 21
    /// context-switch cost the design pays on preemption.
    ///
    /// The caller decides where the restore window lives (the V10 strategy
    /// blocks the victim's FU for `cost` cycles; PMT idles the whole core).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `w` is not an admitted
    /// workload index.
    /// unit: `cost` is cycles of checkpoint-restore overhead.
    pub(crate) fn replay_current_op(&mut self, w: usize, cost: f64) -> V10Result<()> {
        debug_assert!(
            cost.is_finite() && cost >= 0.0,
            "replay cost is a non-negative cycle count"
        );
        let now = self.now;
        let op_id = {
            let Some(wl) = self.wls.get_mut(w) else {
                return Err(V10Error::invalid(
                    "EngineCore::replay_current_op",
                    "unknown workload index",
                ));
            };
            wl.op_remaining = u64_to_f64(wl.current_op().compute_cycles());
            wl.replays += 1;
            wl.replay_overhead += cost;
            wl.next_op_id
        };
        self.replay_overhead_total += cost;
        self.emit(SimEvent::OpReplayed {
            workload: w,
            op_id,
            cost_cycles: cost,
            at: now,
        });
        Ok(())
    }

    /// Applies a permanent core fault: clears every occupancy slot, force-
    /// retires every live tenant (freeing its context-table row), bounces
    /// every still-pending arrival as a rejection, and marks the core dead.
    /// Strategies finish the run immediately afterwards; the serving layer
    /// reads [`RunReport::core_retired_at`](crate::RunReport) to hand the
    /// displaced tenants back to admission.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if a live tenant's id has gone
    /// stale (an engine invariant violation).
    pub(crate) fn retire_core(&mut self) -> V10Result<()> {
        let now = self.now;
        self.core_retired_at = Some(now);
        for slot in &mut self.slots {
            slot.occupant = None;
            slot.switch_until = 0.0;
        }
        let live = std::mem::take(&mut self.live);
        for w in live {
            let Some(wl) = self.wls.get_mut(w) else {
                continue;
            };
            wl.alive = false;
            wl.retired_at = Some(now);
            let id = wl.id;
            self.table.retire(id)?;
            if let Some(owner) = self.slot_owner.get_mut(id.index()) {
                *owner = None;
            }
        }
        self.fetch_cal.reset();
        while let Some((seq, _)) = self.parked.pop_front() {
            self.rejected += 1;
            self.emit(SimEvent::AdmissionRejected {
                arrival: seq,
                at: now,
            });
        }
        while self.pending.pop_front().is_some() {
            let seq = self.arrival_seq;
            self.arrival_seq += 1;
            self.rejected += 1;
            self.emit(SimEvent::AdmissionRejected {
                arrival: seq,
                at: now,
            });
        }
        self.tenancy_epoch += 1;
        self.emit(SimEvent::CoreRetired { at: now });
        Ok(())
    }

    /// Checked access to workload `w`'s execution state.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `w` is not an admitted
    /// workload index.
    pub(crate) fn wl(&self, w: usize) -> V10Result<&WlState> {
        self.wls
            .get(w)
            .ok_or_else(|| V10Error::invalid("EngineCore::wl", "unknown workload index"))
    }

    /// Mutable counterpart of [`EngineCore::wl`].
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `w` is not an admitted
    /// workload index.
    pub(crate) fn wl_mut(&mut self, w: usize) -> V10Result<&mut WlState> {
        self.wls
            .get_mut(w)
            .ok_or_else(|| V10Error::invalid("EngineCore::wl_mut", "unknown workload index"))
    }

    /// Checked access to occupancy slot `s`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `s` is not a slot index.
    pub(crate) fn slot(&self, s: usize) -> V10Result<&Slot> {
        self.slots
            .get(s)
            .ok_or_else(|| V10Error::invalid("EngineCore::slot", "unknown slot index"))
    }

    /// Mutable counterpart of [`EngineCore::slot`].
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `s` is not a slot index.
    pub(crate) fn slot_mut(&mut self, s: usize) -> V10Result<&mut Slot> {
        self.slots
            .get_mut(s)
            .ok_or_else(|| V10Error::invalid("EngineCore::slot_mut", "unknown slot index"))
    }

    /// Maps a live tenancy id back to its `wls` index.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the id's slot has no live
    /// owner — a scheduler picked a stale or retired tenant.
    pub(crate) fn owner_of(&self, id: WorkloadId) -> V10Result<usize> {
        self.slot_owner
            .get(id.index())
            .copied()
            .flatten()
            .ok_or_else(|| {
                V10Error::invalid("EngineCore::owner_of", "scheduler picked a stale tenant id")
            })
    }

    /// Has every arrival been served (none pending, none parked) and every
    /// tenant met its quota? O(1): the unmet-quota counter is maintained at
    /// seat / completion / quota-rewrite time.
    pub(crate) fn all_done(&self) -> bool {
        self.pending.is_empty() && self.parked.is_empty() && self.unmet == 0
    }

    /// Indices into `wls` of the live tenancies, ascending — the set the
    /// historical code recomputed per step by filtering every tenancy ever
    /// admitted on `alive`.
    pub(crate) fn live(&self) -> &[usize] {
        &self.live
    }

    /// Rewrites workload `w`'s request quota, keeping the O(1) done-count
    /// in sync (the overload ladder's quota-trim rung is the only caller).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `w` is not an admitted
    /// workload index.
    pub(crate) fn set_quota(&mut self, w: usize, quota: usize) -> V10Result<()> {
        let Some(wl) = self.wls.get_mut(w) else {
            return Err(V10Error::invalid(
                "EngineCore::set_quota",
                "unknown workload index",
            ));
        };
        let was_unmet = wl.completed < wl.quota;
        wl.quota = quota;
        let is_unmet = wl.completed < wl.quota;
        match (was_unmet, is_unmet) {
            (true, false) => self.unmet = self.unmet.saturating_sub(1),
            (false, true) => self.unmet += 1,
            _ => {}
        }
        Ok(())
    }

    /// Promotes every tenancy whose instruction fetch has completed
    /// (`fetch_ready_at <= now + EPS`): sets its context-table Ready bit
    /// and emits [`SimEvent::DmaReady`], in ascending workload order —
    /// exactly the index-order promotion scan the V10 step loop ran before
    /// the calendar existed, but touching only the due entries.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if a calendar entry points at
    /// a stale tenancy (an engine invariant violation).
    pub(crate) fn promote_due_fetches(&mut self) -> V10Result<()> {
        let now = self.now;
        match self.fetch_cal.peek_min() {
            Some((_, d)) if d.as_f64() <= now + EPS => {}
            _ => return Ok(()),
        }
        let mut due = std::mem::take(&mut self.fetch_scratch);
        due.clear();
        self.fetch_cal.pop_due(Cycles::new(now + EPS), &mut due);
        for &w in &due {
            let Some(wl) = self.wls.get(w) else {
                continue;
            };
            debug_assert!(wl.alive, "calendar held a dead tenancy");
            let id = wl.id;
            let op_id = wl.next_op_id;
            debug_assert!(
                !self.table.is_active(id) && !self.table.is_ready(id),
                "calendar held a tenancy that was already promoted"
            );
            self.table.set_ready(id, true)?;
            self.emit(SimEvent::DmaReady {
                workload: w,
                op_id,
                at: now,
            });
        }
        self.fetch_scratch = due;
        Ok(())
    }

    /// The earliest pending instruction-fetch horizon, if any. After
    /// [`promote_due_fetches`](Self::promote_due_fetches) every remaining
    /// entry is strictly in the future; callers keep the historical
    /// `> now + EPS` guard when folding this into the step horizon.
    pub(crate) fn next_fetch_at(&mut self) -> Option<f64> {
        self.fetch_cal.peek_min().map(|(_, d)| d.as_f64())
    }

    /// Differential cross-check of the event-spine indexes against the
    /// naive scans they replaced: the fetch calendar must hold exactly the
    /// live not-Ready/not-Active tenancies at their `fetch_ready_at`, the
    /// live list exactly the `alive` indices ascending, and the unmet
    /// counter the number of under-quota tenancies. Debug builds run this
    /// every step (the calendar differential test drives it across random
    /// schedules); release builds compile it out.
    ///
    /// # Panics
    ///
    /// Panics when any index diverges from its naive recomputation.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_validate_spine(&self) {
        let mut live_iter = self.live.iter().copied();
        let mut unmet_naive = 0usize;
        for (w, wl) in self.wls.iter().enumerate() {
            if wl.alive {
                assert_eq!(live_iter.next(), Some(w), "live index diverged");
            }
            if wl.completed < wl.quota {
                unmet_naive += 1;
            }
            let awaits_fetch =
                wl.alive && !self.table.is_active(wl.id) && !self.table.is_ready(wl.id);
            match self.fetch_cal.deadline_of(w) {
                Some(d) => {
                    assert!(
                        awaits_fetch,
                        "calendar entry for workload {w} without a pending fetch"
                    );
                    assert_eq!(
                        d.as_f64().to_bits(),
                        wl.fetch_ready_at.to_bits(),
                        "calendar deadline for workload {w} diverged from fetch_ready_at"
                    );
                }
                None => assert!(
                    !awaits_fetch,
                    "workload {w} awaits a fetch but has no calendar entry"
                ),
            }
        }
        assert_eq!(live_iter.next(), None, "live index has stale entries");
        assert_eq!(self.unmet, unmet_naive, "unmet counter diverged");
    }

    /// Validates a proposed time step: rejects a horizon with no pending
    /// event (deadlock) and too many consecutive zero-length steps
    /// (livelock), and clamps numerical noise below zero.
    ///
    /// # Errors
    ///
    /// [`V10Error::Deadlock`] if `dt` is not finite; [`V10Error::Livelock`]
    /// after [`LIVELOCK_STREAK`] consecutive sub-`EPS` steps.
    /// unit: `dt` is a cycle delta; returns a clamped cycle delta.
    pub(crate) fn resolve_dt(&mut self, dt: f64) -> V10Result<f64> {
        if !dt.is_finite() {
            return Err(V10Error::Deadlock {
                cycle: self.now,
                message: format!("no pending events for {} workloads", self.wls.len()),
            });
        }
        let dt = dt.max(0.0);
        if dt <= EPS {
            self.zero_dt_streak += 1;
            if self.zero_dt_streak >= LIVELOCK_STREAK {
                return Err(V10Error::Livelock { cycle: self.now });
            }
        } else {
            self.zero_dt_streak = 0;
        }
        Ok(dt)
    }

    /// Advances simulated time by `dt`, accounting as it goes: every
    /// occupied slot's workload progresses at its HBM-granted rate (from
    /// `rates`, full rate if absent) and accrues busy time and HBM bytes;
    /// unoccupied slots mid-switch accrue switch overhead; the overlap
    /// buckets and the clock move.
    /// unit: `dt` is a cycle delta; `rates` are dimensionless slowdown factors.
    pub(crate) fn advance(&mut self, dt: f64, rates: &[(usize, f64)]) {
        self.flush_events();
        let mut sa_active = 0usize;
        let mut vu_active = 0usize;
        // Take the slot vector so the loop can hold `&slot` while mutating
        // the per-workload state — the two never alias.
        let slots = std::mem::take(&mut self.slots);
        for slot in &slots {
            if let Some(w) = slot.occupant {
                match slot.kind {
                    FuKind::Sa => sa_active += 1,
                    FuKind::Vu => vu_active += 1,
                }
                let kind = slot.kind;
                let r = rate_of(rates, w);
                let Some(wl) = self.wls.get_mut(w) else {
                    continue;
                };
                let id = wl.id;
                wl.op_remaining -= r * dt;
                let bytes = wl.current_op().hbm_demand_bytes_per_cycle() * r * dt;
                wl.hbm_bytes += bytes;
                self.hbm.record_bytes(bytes);
                match kind {
                    FuKind::Sa => wl.busy_sa += dt,
                    FuKind::Vu => wl.busy_vu += dt,
                }
                self.table.add_active_cycles(id, dt);
            } else if slot.switch_until > self.now + EPS {
                self.switch_overhead_total += dt.min(slot.switch_until - self.now);
            }
        }
        self.slots = slots;
        self.sa_busy += usize_to_f64(sa_active) * dt;
        self.vu_busy += usize_to_f64(vu_active) * dt;
        self.overlap.accumulate(sa_active > 0, vu_active > 0, dt);
        self.now += dt;
    }

    /// Completes workload `w`'s current operator: records request latency on
    /// a trace wraparound, then either loads the next operator and schedules
    /// its instruction DMA (prefetched since the finished operator issued,
    /// then gated by the dispatch gap), or — for a non-resident tenant that
    /// just met its quota — retires the tenant, freeing its context-table
    /// slot.
    ///
    /// Emits [`SimEvent::OpCompleted`], then on wraparound
    /// [`SimEvent::RequestCompleted`], then on departure
    /// [`SimEvent::TenantRetired`]. The caller must not touch the tenant's
    /// table row afterwards unless it is still `alive`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the tenant's id has gone
    /// stale (an engine invariant violation).
    pub(crate) fn finish_op(&mut self, w: usize) -> V10Result<()> {
        let now = self.now;
        let (id, done_op_id, finished_request, departs, met_quota_now, fetch_at) = {
            let Some(wl) = self.wls.get_mut(w) else {
                return Err(V10Error::invalid(
                    "EngineCore::finish_op",
                    "unknown workload index",
                ));
            };
            let done_op_id = wl.next_op_id;
            let mut finished_request = None;
            wl.op_idx += 1;
            if wl.op_idx == wl.trace.ops().len() {
                let latency = now - wl.request_start;
                wl.latencies.push(latency);
                wl.completed += 1;
                wl.op_idx = 0;
                wl.request_start = now;
                finished_request = Some(latency);
            }
            wl.next_op_id += 1;
            // The quota crossing happens exactly once: `completed` only
            // moves here, and the overload ladder's trims go through
            // `set_quota`, which re-balances the counter itself.
            let met_quota_now = finished_request.is_some() && wl.completed == wl.quota;
            let departs =
                finished_request.is_some() && !wl.resident && wl.completed >= wl.quota && wl.alive;
            if departs {
                wl.alive = false;
                wl.retired_at = Some(now);
            } else {
                wl.op_remaining = u64_to_f64(wl.current_op().compute_cycles());
                // The next operator's instructions were prefetched from the
                // moment the finished operator issued; its dispatch gap
                // (host-side stalls) starts now.
                wl.fetch_ready_at = self
                    .dma
                    .ready_at(wl.current_op(), wl.last_issue_at, now)
                    .max(now + u64_to_f64(wl.current_op().dispatch_gap_cycles()));
            }
            (
                wl.id,
                done_op_id,
                finished_request,
                departs,
                met_quota_now,
                wl.fetch_ready_at,
            )
        };
        if met_quota_now {
            self.unmet = self.unmet.saturating_sub(1);
        }
        if departs {
            self.table.retire(id)?;
            if let Some(owner) = self.slot_owner.get_mut(id.index()) {
                *owner = None;
            }
            if let Ok(pos) = self.live.binary_search(&w) {
                self.live.remove(pos);
            }
            self.fetch_cal.clear(w);
        } else {
            // The caller released the tenancy's Active bit before completing
            // the operator, so it is back to awaiting its next fetch.
            self.fetch_cal.set(w, Cycles::new(fetch_at))?;
        }
        self.emit(SimEvent::OpCompleted {
            workload: w,
            op_id: done_op_id,
            at: now,
        });
        if let Some(latency_cycles) = finished_request {
            self.emit(SimEvent::RequestCompleted {
                workload: w,
                latency_cycles,
                at: now,
            });
        }
        if departs {
            self.emit(SimEvent::TenantRetired {
                workload: w,
                at: now,
            });
            self.tenancy_epoch += 1;
        }
        Ok(())
    }

    /// Consumes the core into the run's final report, one workload entry
    /// per admitted tenancy in admission order. Latency vectors are moved,
    /// not copied, and interned labels are resolved back to strings here —
    /// the only point where label strings materialize after admission.
    pub(crate) fn into_report(mut self) -> RunReport {
        self.flush_events();
        let interner = std::mem::take(&mut self.interner);
        let workloads = std::mem::take(&mut self.wls)
            .into_iter()
            .map(|wl| {
                WorkloadReport::new(
                    interner.resolve(wl.label).unwrap_or_default().to_string(),
                    wl.priority,
                    wl.completed,
                    wl.latencies,
                    wl.busy_sa,
                    wl.busy_vu,
                    wl.hbm_bytes,
                    wl.preemptions,
                    wl.switch_overhead,
                    wl.replays,
                    wl.replay_overhead,
                    wl.admitted_at,
                    wl.retired_at,
                )
            })
            .collect();
        RunReport::new(
            self.now,
            self.sa_busy,
            self.vu_busy,
            self.switch_overhead_total,
            self.replay_overhead_total,
            u64_from_usize(self.faults.injected()),
            self.core_retired_at,
            self.overlap,
            self.hbm.bytes_moved(),
            self.hbm_peak,
            self.fu_count,
            self.rejected,
            workloads,
        )
    }
}
