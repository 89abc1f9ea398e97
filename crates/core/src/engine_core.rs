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
//! *decisions*. [`drive`] steps a strategy over a core up to the core's
//! fence.
//!
//! Tenancy is dynamic: the core is handed admissions
//! ([`EngineCore::push_admission`]), admitting each arrival into a free
//! context-table slot when its time comes (or rejecting it when the table
//! is full) and retiring non-resident tenants once they meet their request
//! quota. The closed-loop entry points hand over an
//! admit-everything-at-cycle-0 schedule of resident tenants through this
//! same path, which the golden-run regression test pins bit for bit.
//!
//! # Memory
//!
//! A run's heap is the report it will return plus what the context table
//! holds. Execution state lives in one [`Tenancy`] per context-table
//! slot, and each seated tenancy owns one [`WorkloadReport`] row from its
//! seating on, holding its label (the admission's shared allocation, so
//! seating copies no label). The tenancy's trace is built at seating when
//! the admission carries a recipe; pending, parked and turned-away
//! admissions never build theirs. When the tenancy retires — at its
//! quota, by [`EngineCore::retire_core`], or when the run finishes — its
//! accumulators fold into that row and its slot entry, trace included,
//! is freed, so [`EngineCore::into_report`] only moves the rows out. A
//! tenancy is named two ways: by its *workload index* (admission order in
//! the run, the index of its report row and of its events) and, while it
//! is live, by its *table slot*, which keys its entry, its fetch deadline
//! and the FU slots' occupants. Loops that break ties by admission order
//! walk the live list, which holds the live table slots in admission
//! order.
//!
//! # Fences
//!
//! A run may be stopped at a *fence* and resumed once more admissions and
//! faults, all dated at or after the fence, have been handed over; the
//! resumed run is bit-identical to one that knew them from the start.
//! Three rules make it so:
//!
//! * a step commits its clock advance only if the advance ends more than
//!   `EPS` before the fence ([`EngineCore::crosses_fence`]), because an
//!   arrival handed over later would have cut the step short, and a fault
//!   within `EPS` of the new instant would have fired in it;
//! * a step whose advance would cross the fence stops after computing its
//!   horizon and resumes by recomputing only the horizon: the instant work
//!   before it (admission, fetch promotion, issue, RNG draws) never
//!   re-runs;
//! * no step starts its instant work at an instant within `EPS` of the
//!   fence ([`EngineCore::at_fence`]), where an admission handed over at
//!   the fence would already be due.
//!
//! A finishing run has an infinite fence, where all three rules are
//! inert. On a fenced run an infinite horizon (nothing left to do) means
//! "wait for a push", not a deadlock. PMT's switch, restore and stall
//! advances are not cut short by arrivals in an unsplit run either, so they
//! may carry a run past its fence (see [`crate::pmt`]).

use std::collections::VecDeque;

use v10_isa::{FuKind, OpDesc, RequestTrace};
use v10_npu::{FuId, HbmArbiter, InstructionDma, NpuConfig};
use v10_sim::convert::{u64_from_usize, u64_to_f64, usize_to_f64};
use v10_sim::{FaultEvent, FaultInjector, FaultKind, Flow, V10Error, V10Result};

use crate::context::{ContextTable, WorkloadId};
use crate::lifecycle::Admission;
use crate::metrics::{OverlapBreakdown, RunReport, WorkloadReport};
use crate::observer::{SimEvent, SimObserver};

/// Time-comparison slack: two instants closer than this are simultaneous.
///
/// unit: cycles.
pub(crate) const EPS: f64 = 1e-6;

/// Advancing the clock by less than `EPS` this many consecutive iterations
/// is a livelock.
const LIVELOCK_STREAK: u32 = 10_000;

/// The execution state of the live tenancy seated in one context-table
/// slot: its trace and operator cursor, its fetch and request clocks, its
/// quota, and its running accumulators. It lives only while the tenancy
/// does; at retirement the accumulators fold into the tenancy's report
/// row.
#[derive(Debug)]
pub(crate) struct Tenancy {
    /// The tenancy's workload index: its admission order in the run, the
    /// index of its report row, and the `workload` of its events.
    pub(crate) workload: usize,
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

impl Tenancy {
    #[inline]
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
    /// The context-table slot of the tenancy running here.
    pub(crate) occupant: Option<usize>,
    /// The occupant's operator's HBM demand, cached when it was seated:
    /// the step loop reads it every step, and an occupant's operator does
    /// not change while it holds the slot.
    ///
    /// unit: bytes per cycle.
    pub(crate) demand: f64,
    /// unit: absolute cycles until which the slot is mid-switch.
    pub(crate) switch_until: f64,
}

impl Slot {
    pub(crate) fn new(fu: FuId, kind: FuKind) -> Self {
        Slot {
            fu,
            kind,
            occupant: None,
            demand: 0.0,
            switch_until: 0.0,
        }
    }

    /// Seats the tenancy in table slot `t` running `op`: the slot takes the
    /// operator's kind and caches its HBM demand.
    pub(crate) fn seat(&mut self, t: usize, op: OpDesc) {
        self.occupant = Some(t);
        self.kind = op.kind();
        self.demand = op.hbm_demand_bytes_per_cycle();
    }
}

/// What only the armed overload path keeps on the core.
#[derive(Debug)]
struct ArmedState {
    /// Due arrivals waiting out a full context table, oldest first, each
    /// with its original arrival sequence number.
    parked: VecDeque<(usize, Admission)>,
    /// Context-table slot index -> its live occupant's compute cycles per
    /// request (its trace's total), summed once at seating for the
    /// controller's slowdown sense. Keyed by slot, not tenancy, so it
    /// costs the table's capacity, not one entry per tenancy ever admitted.
    ///
    /// unit: cycles.
    slot_request_cycles: Vec<f64>,
}

/// Should [`drive`] keep iterating?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Run another scheduling step.
    Continue,
    /// The step reached the core's fence: resume it once the fence moves.
    Suspended,
    /// Every admission was served and every tenant met its request quota
    /// (or the core retired); emit the report.
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
    fn step<O: SimObserver>(&mut self, core: &mut EngineCore<O>) -> V10Result<StepOutcome>;
}

/// Steps `strategy` over `core` until the run finishes
/// ([`StepOutcome::Finished`]) or reaches the core's fence
/// ([`StepOutcome::Suspended`]), then delivers the buffered events.
pub(crate) fn drive<S: ExecutorStrategy, O: SimObserver>(
    core: &mut EngineCore<O>,
    strategy: &mut S,
) -> V10Result<StepOutcome> {
    let outcome = loop {
        if core.at_fence() {
            break Ok(StepOutcome::Suspended);
        }
        match strategy.step(core) {
            Ok(StepOutcome::Continue) => {}
            // An error also delivers whatever was emitted before it, so
            // event streams (JSON lines, auditors) still cover the run.
            other => break other,
        }
    };
    core.flush_events();
    outcome
}

/// The shared simulation state and mechanisms of one executor run.
///
/// Fields are `pub(crate)` so strategies can make scheduling decisions over
/// them directly; the mutation *mechanisms* (time advance, admission,
/// operator completion, retirement, event emission) go through methods so
/// their accounting — and the float-operation order the golden run pins —
/// lives in exactly one place.
#[derive(Debug)]
pub(crate) struct EngineCore<O: SimObserver> {
    pub(crate) table: ContextTable,
    pub(crate) hbm: HbmArbiter,
    pub(crate) dma: InstructionDma,
    /// Context-table slot index -> its live tenancy's execution state.
    tenancies: Vec<Option<Tenancy>>,
    /// One report row per seated tenancy, by workload index. A live
    /// tenancy's row holds its label, priority and admission instant; the
    /// rest is folded in when it retires.
    rows: Vec<WorkloadReport>,
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
    /// Admissions announced ([`announce`](Self::announce)) but not yet
    /// handed over.
    announced: usize,
    /// No step commits an advance that ends within `EPS` of this instant
    /// (see the module docs); infinite on a finishing run.
    ///
    /// unit: absolute cycles.
    fence: f64,
    /// The armed overload path's state, set by
    /// [`arm_overload`](Self::arm_overload). `None` by default, in which
    /// case a full table rejects due arrivals and the event loop is
    /// bit-identical to the pre-overload engine. Boxed, so the other paths
    /// (the fleet's many core runs among them) carry one pointer for it.
    armed: Option<Box<ArmedState>>,
    /// The table slots of the live tenancies, in admission order (their
    /// workload indices ascending). Maintained by seat/finish/retire, so
    /// the hot paths never rediscover liveness by scanning slots.
    live: Vec<usize>,
    /// Live tenancies with `completed < quota` — makes `all_done` O(1).
    unmet: usize,
    /// Context-table slot index -> when its tenancy's pending instruction
    /// fetch completes: the tenancy's `fetch_ready_at` while its current
    /// operator is neither Ready nor Active, infinite otherwise and while
    /// the slot is free. Sized to the table, so the next fetch is a min
    /// over its rows.
    ///
    /// unit: absolute cycles.
    fetch_at: Vec<f64>,
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
    observer: O,
}

impl<O: SimObserver> EngineCore<O> {
    /// Builds a core at cycle 0 with an empty table of `capacity` slots,
    /// nothing pending, and its fence at cycle 0. Admissions are handed
    /// over with [`push_admission`](Self::push_admission); the strategy's
    /// first [`admit_due`](Self::admit_due) call seats the cycle-0
    /// arrivals.
    ///
    /// `context` names the public entry point for error messages.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `capacity` is zero.
    pub(crate) fn new(
        context: &'static str,
        config: &NpuConfig,
        capacity: usize,
        slots: Vec<Slot>,
        faults: FaultInjector,
        observer: O,
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
            tenancies: std::iter::repeat_with(|| None).take(capacity).collect(),
            rows: Vec::new(),
            slots,
            now: 0.0,
            switch_overhead_total: 0.0,
            tenancy_epoch: 0,
            faults,
            pending: VecDeque::new(),
            announced: 0,
            fence: 0.0,
            armed: None,
            live: Vec::new(),
            unmet: 0,
            fetch_at: vec![f64::INFINITY; capacity],
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

    /// Announces `n` admissions the caller will hand over one by one, each
    /// once the run reaches its instant: reserves their report rows at
    /// once, and should the core retire first, [`retire_core`](Self::retire_core)
    /// turns the ones not yet handed over away after the pending ones, in
    /// arrival order, as if they had all been pending.
    pub(crate) fn announce(&mut self, n: usize) {
        self.rows.reserve_exact(n);
        self.announced += n;
    }

    /// Hands over one admission, queued behind every pending admission due
    /// at or before it (the schedule's stable time order), and makes room
    /// for its report row. Rows are reserved at most once per admission:
    /// an announced admission's row already is, and otherwise the row
    /// table grows geometrically.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the admission is dated
    /// before the fence (the run may already have passed its instant) or
    /// the core has retired (the run is over).
    pub(crate) fn push_admission(&mut self, admission: Admission) -> V10Result<()> {
        let at = admission.at_cycles();
        if at < self.fence {
            return Err(V10Error::invalid(
                "CoreRun::push",
                format!(
                    "admission at {at} is earlier than the fence at {}",
                    self.fence
                ),
            ));
        }
        if self.core_retired_at.is_some() {
            return Err(V10Error::invalid(
                "CoreRun::push",
                "the core has retired: its run is over",
            ));
        }
        let pos = self.pending.partition_point(|a| a.at_cycles() <= at);
        self.pending.insert(pos, admission);
        self.announced = self.announced.saturating_sub(1);
        self.rows.reserve(self.pending.len() + self.parked_len());
        Ok(())
    }

    /// Hands over one scripted fault.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the fault is dated before
    /// the fence.
    pub(crate) fn push_fault(&mut self, fault: FaultEvent) -> V10Result<()> {
        let at = fault.at_cycles();
        if at < self.fence {
            return Err(V10Error::invalid(
                "CoreRun::push_fault",
                format!("fault at {at} is earlier than the fence at {}", self.fence),
            ));
        }
        self.faults.push(fault);
        Ok(())
    }

    /// Moves the fence to `fence` (infinite to run to completion).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `fence` is earlier than
    /// the current fence.
    /// unit: `fence` is absolute cycles.
    pub(crate) fn set_fence(&mut self, fence: f64) -> V10Result<()> {
        if fence < self.fence {
            return Err(V10Error::invalid(
                "CoreRun::run_until",
                format!(
                    "fence at {fence} is earlier than the previous fence at {}",
                    self.fence
                ),
            ));
        }
        self.fence = fence;
        Ok(())
    }

    /// Is the clock within `EPS` of the fence? Then no step may start its
    /// instant work here: an admission handed over at the fence would
    /// already be due.
    #[inline(always)]
    pub(crate) fn at_fence(&self) -> bool {
        self.now + EPS >= self.fence
    }

    /// Would advancing the clock by `dt` end within `EPS` of a finite
    /// fence? Such a step stops before committing, because an arrival
    /// handed over later would have cut it short and a fault handed over
    /// later could be due at its end. An infinite `dt` (nothing left to
    /// wait for) crosses every finite fence: the run waits for a push.
    /// unit: `dt` is a cycle delta.
    #[inline(always)]
    pub(crate) fn crosses_fence(&self, dt: f64) -> bool {
        self.now + dt.max(0.0) + EPS >= self.fence && self.fence < f64::INFINITY
    }

    /// When workload `w` retired, if it has been seated and has retired.
    /// unit: absolute cycles.
    pub(crate) fn retired_at(&self, w: usize) -> Option<f64> {
        self.rows.get(w).and_then(WorkloadReport::retired_at_cycles)
    }

    /// Has a permanent fault retired the core?
    pub(crate) fn is_retired(&self) -> bool {
        self.core_retired_at.is_some()
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
                self.admit_tenant(adm)?;
            }
        }
        Ok(())
    }

    /// Assigns the next arrival sequence number and seats one arrival.
    fn admit_tenant(&mut self, adm: Admission) -> V10Result<()> {
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        self.seat_tenant(seq, adm)
    }

    /// Prepares the core for an armed overload controller. Queue-on-full
    /// admission: due arrivals that find the context table full wait in
    /// the parked queue (keeping their arrival sequence numbers) instead
    /// of being rejected. And each seated tenant's compute cycles per
    /// request are recorded for the slowdown sense. Armed overload entry
    /// points call this once before driving; nothing else ever does, which
    /// keeps the default path bit-identical to the pre-overload engine.
    pub(crate) fn arm_overload(&mut self) {
        self.armed = Some(Box::new(ArmedState {
            parked: VecDeque::new(),
            slot_request_cycles: vec![0.0; self.table.capacity()],
        }));
    }

    /// Arrivals currently waiting out a full table — the overload
    /// controller's queue-depth pressure signal.
    pub(crate) fn parked_len(&self) -> usize {
        self.armed.as_ref().map_or(0, |armed| armed.parked.len())
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
        while self.parked_len() > 0 && !self.table.is_full() {
            if let Some((seq, adm)) = self.armed.as_mut().and_then(|a| a.parked.pop_front()) {
                self.seat_tenant(seq, adm)?;
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
        let Some(mut armed) = self.armed.take() else {
            return 0;
        };
        let now = self.now;
        let mut shed = 0u64;
        // Rotate in place: pop each entry once and push the keepers back,
        // preserving their relative order without a second queue.
        for _ in 0..armed.parked.len() {
            let Some((seq, adm)) = armed.parked.pop_front() else {
                break;
            };
            if now - adm.at_cycles() > max_wait_cycles + EPS {
                shed += 1;
                self.emit(SimEvent::RequestShed {
                    arrival: seq,
                    at: now,
                });
            } else {
                armed.parked.push_back((seq, adm));
            }
        }
        self.armed = Some(armed);
        shed
    }

    /// Seats one arrival: claims a context-table slot, builds its trace if
    /// it carries a recipe, initializes its execution state (first
    /// operator fetching, counters zeroed), opens its report row with the
    /// admission's label, and emits
    /// [`SimEvent::TenantAdmitted`]. A full table parks the arrival (moved,
    /// not copied) when overload queueing is on, and rejects it otherwise —
    /// [`SimEvent::AdmissionRejected`] — and the run goes on.
    fn seat_tenant(&mut self, seq: usize, adm: Admission) -> V10Result<()> {
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
                if let Some(armed) = self.armed.as_mut() {
                    armed.parked.push_back((seq, adm));
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
        let quota = adm.requests();
        let resident = adm.is_resident();
        let (label, source, priority) = adm.into_spec().into_parts();
        // A recipe's trace is built here, on the seating thread, and lives
        // as long as the tenancy does.
        let trace = source.trace();
        let w = self.rows.len();
        let mut tn = Tenancy {
            workload: w,
            priority,
            id,
            quota,
            resident,
            trace,
            op_idx: 0,
            op_remaining: 0.0,
            fetch_ready_at: 0.0,
            last_issue_at: now,
            request_start: now,
            completed: 0,
            next_op_id: 0,
            latencies: Vec::with_capacity(quota),
            busy_sa: 0.0,
            busy_vu: 0.0,
            hbm_bytes: 0.0,
            preemptions: 0,
            switch_overhead: 0.0,
            replays: 0,
            replay_overhead: 0.0,
        };
        tn.op_remaining = u64_to_f64(tn.current_op().compute_cycles());
        tn.fetch_ready_at = self
            .dma
            .ready_at(tn.current_op(), now, now)
            .max(now + u64_to_f64(tn.current_op().dispatch_gap_cycles()));
        let kind = tn.current_op().kind();
        let fetch_at = tn.fetch_ready_at;
        let t = id.index();
        if let Some(cycles) = self
            .armed
            .as_mut()
            .and_then(|armed| armed.slot_request_cycles.get_mut(t))
        {
            *cycles = u64_to_f64(tn.trace.total_compute_cycles());
        }
        self.table.set_current_op(id, 0, kind)?;
        let Some(entry) = self.tenancies.get_mut(t) else {
            return Err(V10Error::invalid(
                "EngineCore::seat_tenant",
                "the context table seated a tenant past its capacity",
            ));
        };
        *entry = Some(tn);
        self.rows.push(WorkloadReport::seated(label, priority, now));
        // Workload indices are assigned in admission order, so pushing
        // keeps the live list in admission order.
        self.live.push(t);
        if quota > 0 {
            self.unmet += 1;
        }
        self.set_fetch_at(t, fetch_at);
        self.emit(SimEvent::TenantAdmitted {
            workload: w,
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
    /// Returns [`V10Error::InvalidArgument`] if no tenancy is seated in
    /// table slot `t`.
    /// unit: `cost` is cycles of checkpoint-restore overhead.
    pub(crate) fn replay_current_op(&mut self, t: usize, cost: f64) -> V10Result<()> {
        debug_assert!(
            cost.is_finite() && cost >= 0.0,
            "replay cost is a non-negative cycle count"
        );
        let now = self.now;
        let (w, op_id) = {
            let tn = self.tenancy_mut(t)?;
            tn.op_remaining = u64_to_f64(tn.current_op().compute_cycles());
            tn.replays += 1;
            tn.replay_overhead += cost;
            (tn.workload, tn.next_op_id)
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
    /// retires every live tenant (freeing its context-table row and
    /// folding it into its report row), bounces every still-pending or
    /// announced arrival as a rejection, and marks the core dead.
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
        for t in std::mem::take(&mut self.live) {
            let Some(tn) = self.tenancies.get_mut(t).and_then(Option::take) else {
                continue;
            };
            self.table.retire(tn.id)?;
            self.fold_into_row(tn, Some(now));
        }
        self.unmet = 0;
        self.fetch_at.fill(f64::INFINITY);
        while let Some((seq, _)) = self.armed.as_mut().and_then(|a| a.parked.pop_front()) {
            self.rejected += 1;
            self.emit(SimEvent::AdmissionRejected {
                arrival: seq,
                at: now,
            });
        }
        let unseated = self.pending.len() + std::mem::take(&mut self.announced);
        self.pending.clear();
        for _ in 0..unseated {
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

    /// Checked access to the execution state of the tenancy seated in
    /// table slot `t`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if no tenancy is seated there.
    #[inline]
    pub(crate) fn tenancy(&self, t: usize) -> V10Result<&Tenancy> {
        self.tenancies
            .get(t)
            .and_then(Option::as_ref)
            .ok_or_else(|| V10Error::invalid("EngineCore::tenancy", "no tenancy in that slot"))
    }

    /// Mutable counterpart of [`EngineCore::tenancy`].
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if no tenancy is seated there.
    #[inline]
    pub(crate) fn tenancy_mut(&mut self, t: usize) -> V10Result<&mut Tenancy> {
        self.tenancies
            .get_mut(t)
            .and_then(Option::as_mut)
            .ok_or_else(|| V10Error::invalid("EngineCore::tenancy_mut", "no tenancy in that slot"))
    }

    /// The table slot of workload `w`, while it is live: a binary search
    /// of the live list, which is in admission order.
    pub(crate) fn seat_of(&self, w: usize) -> Option<usize> {
        let pos = self
            .live
            .binary_search_by_key(&w, |&t| self.workload_of(t))
            .ok()?;
        self.live.get(pos).copied()
    }

    /// The workload index of the tenancy seated in table slot `t`
    /// (`usize::MAX` for a free slot, which sorts after every tenancy).
    fn workload_of(&self, t: usize) -> usize {
        self.tenancies
            .get(t)
            .and_then(Option::as_ref)
            .map_or(usize::MAX, |tn| tn.workload)
    }

    /// Folds a retiring tenancy's accumulators into its report row.
    fn fold_into_row(&mut self, tn: Tenancy, retired_at: Option<f64>) {
        if let Some(row) = self.rows.get_mut(tn.workload) {
            row.complete(
                tn.priority,
                tn.completed,
                tn.latencies,
                tn.busy_sa,
                tn.busy_vu,
                tn.hbm_bytes,
                tn.preemptions,
                tn.switch_overhead,
                tn.replays,
                tn.replay_overhead,
                retired_at,
            );
        }
    }

    /// Checked access to occupancy slot `s`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `s` is not a slot index.
    #[inline]
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
    #[inline]
    pub(crate) fn slot_mut(&mut self, s: usize) -> V10Result<&mut Slot> {
        self.slots
            .get_mut(s)
            .ok_or_else(|| V10Error::invalid("EngineCore::slot_mut", "unknown slot index"))
    }

    /// Maps a live tenancy id to its table slot.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the id does not name the
    /// slot's live tenancy — a scheduler picked a stale or retired tenant.
    #[inline]
    pub(crate) fn owner_of(&self, id: WorkloadId) -> V10Result<usize> {
        let t = id.index();
        match self.tenancies.get(t) {
            Some(Some(tn)) if tn.id == id => Ok(t),
            _ => Err(V10Error::invalid(
                "EngineCore::owner_of",
                "scheduler picked a stale tenant id",
            )),
        }
    }

    /// The compute cycles per request of the live tenancy `id`: its
    /// trace's total, summed when it was seated. Recorded only once
    /// [`arm_overload`](Self::arm_overload) ran.
    /// unit: cycles.
    pub(crate) fn request_cycles(&self, id: WorkloadId) -> f64 {
        self.armed
            .as_ref()
            .and_then(|armed| armed.slot_request_cycles.get(id.index()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Has every arrival been served (none pending, none parked) and every
    /// tenant met its quota? O(1): the unmet-quota counter is maintained at
    /// seat / completion / quota-rewrite time.
    pub(crate) fn all_done(&self) -> bool {
        self.pending.is_empty() && self.parked_len() == 0 && self.unmet == 0
    }

    /// The table slots of the live tenancies, in admission order — the
    /// order every scan that breaks ties by admission walks.
    pub(crate) fn live(&self) -> &[usize] {
        &self.live
    }

    /// Rewrites the request quota of the tenancy in table slot `t`,
    /// keeping the O(1) done-count in sync (the overload ladder's
    /// quota-trim rung is the only caller).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if no tenancy is seated there.
    pub(crate) fn set_quota(&mut self, t: usize, quota: usize) -> V10Result<()> {
        let tn = self.tenancy_mut(t)?;
        let was_unmet = tn.completed < tn.quota;
        tn.quota = quota;
        let is_unmet = tn.completed < tn.quota;
        match (was_unmet, is_unmet) {
            (true, false) => self.unmet = self.unmet.saturating_sub(1),
            (false, true) => self.unmet += 1,
            _ => {}
        }
        Ok(())
    }

    /// Promotes every tenancy whose instruction fetch has completed
    /// (`fetch_ready_at <= now + EPS`): sets its context-table Ready bit
    /// and emits [`SimEvent::DmaReady`], in admission order (the live
    /// list's order).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the live list names a free
    /// slot (an engine invariant violation).
    pub(crate) fn promote_due_fetches(&mut self) -> V10Result<()> {
        let now = self.now;
        for i in 0..self.live.len() {
            let Some(&t) = self.live.get(i) else {
                break;
            };
            match self.fetch_at.get_mut(t) {
                Some(at) if *at <= now + EPS => *at = f64::INFINITY,
                _ => continue,
            }
            let (w, id, op_id) = {
                let tn = self.tenancy(t)?;
                (tn.workload, tn.id, tn.next_op_id)
            };
            debug_assert!(
                !self.table.is_active(id) && !self.table.is_ready(id),
                "a fetch was pending for a tenancy that was already promoted"
            );
            self.table.set_ready(id, true)?;
            self.emit(SimEvent::DmaReady {
                workload: w,
                op_id,
                at: now,
            });
        }
        Ok(())
    }

    /// The earliest pending instruction-fetch horizon, if any. After
    /// [`promote_due_fetches`](Self::promote_due_fetches) every remaining
    /// deadline is strictly in the future; callers keep the historical
    /// `> now + EPS` guard when folding this into the step horizon.
    pub(crate) fn next_fetch_at(&self) -> Option<f64> {
        let at = self.fetch_at.iter().copied().fold(f64::INFINITY, f64::min);
        at.is_finite().then_some(at)
    }

    /// Sets table slot `t`'s fetch deadline (infinite: none pending).
    fn set_fetch_at(&mut self, t: usize, at: f64) {
        if let Some(slot) = self.fetch_at.get_mut(t) {
            *slot = at;
        }
    }

    /// Differential cross-check of the event-spine indexes against the
    /// naive scans they replaced: each slot's fetch deadline must be its
    /// tenancy's `fetch_ready_at` exactly when the tenancy is live and
    /// neither Ready nor Active, and infinite otherwise, the live list
    /// exactly the occupied table slots in admission order, each live
    /// tenancy's report row open and its own, the unmet counter the number
    /// of under-quota tenancies, the context table's candidate sets
    /// exactly the rows Algorithm 1 may pick, and each occupied slot's
    /// cached demand its occupant's operator's. Debug builds run this every
    /// step (the spine differential test drives it across random
    /// schedules); release builds compile it out.
    ///
    /// # Panics
    ///
    /// Panics when any index diverges from its naive recomputation.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_validate_spine(&self) {
        let mut unmet_naive = 0usize;
        let mut seated = 0usize;
        assert_eq!(
            self.fetch_at.len(),
            self.tenancies.len(),
            "fetch deadlines diverged from the table's size"
        );
        for (t, (tn, &fetch_at)) in self.tenancies.iter().zip(&self.fetch_at).enumerate() {
            let Some(tn) = tn else {
                assert!(fetch_at.is_infinite(), "free slot {t} has a fetch deadline");
                continue;
            };
            seated += 1;
            assert_eq!(tn.id.index(), t, "slot {t} holds another slot's tenancy");
            let row = self.rows.get(tn.workload);
            assert!(
                row.is_some_and(|r| r.retired_at_cycles().is_none()),
                "slot {t}'s report row is missing or closed"
            );
            if tn.completed < tn.quota {
                unmet_naive += 1;
            }
            let awaits_fetch = !self.table.is_active(tn.id) && !self.table.is_ready(tn.id);
            if awaits_fetch {
                assert!(
                    tn.fetch_ready_at.is_finite(),
                    "slot {t} awaits a fetch that never completes"
                );
                assert_eq!(
                    fetch_at.to_bits(),
                    tn.fetch_ready_at.to_bits(),
                    "fetch deadline for slot {t} diverged from fetch_ready_at"
                );
            } else {
                assert!(
                    fetch_at.is_infinite(),
                    "slot {t} has a fetch deadline without a pending fetch"
                );
            }
        }
        // Strictly increasing workload indices over occupied slots, as many
        // as are occupied: the live list is exactly the occupied slots.
        assert!(
            self.live.iter().all(|&t| self.tenancy(t).is_ok()),
            "live list names a free slot"
        );
        assert!(
            self.live
                .iter()
                .zip(self.live.iter().skip(1))
                .all(|(&a, &b)| self.workload_of(a) < self.workload_of(b)),
            "live list is out of admission order"
        );
        assert_eq!(self.live.len(), seated, "live list diverged");
        assert_eq!(self.unmet, unmet_naive, "unmet counter diverged");
        self.table.debug_validate_candidates();
        for (s, slot) in self.slots.iter().enumerate() {
            if let Some(t) = slot.occupant {
                let tn = self.tenancies.get(t).and_then(Option::as_ref);
                assert!(tn.is_some(), "FU slot {s} holds free table slot {t}");
                let Some(tn) = tn else {
                    continue;
                };
                assert_eq!(
                    slot.demand.to_bits(),
                    tn.current_op().hbm_demand_bytes_per_cycle().to_bits(),
                    "slot {s}'s cached demand diverged from its occupant's operator"
                );
            }
        }
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
                message: format!("no pending events for {} workloads", self.rows.len()),
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
    /// occupied slot's workload progresses at its HBM-granted rate and
    /// accrues busy time and HBM bytes; unoccupied slots mid-switch accrue
    /// switch overhead; the overlap buckets and the clock move. `flows`
    /// holds one arbitrated flow per occupied slot, in slot order (full
    /// rate for an occupied slot past its end).
    /// unit: `dt` is a cycle delta; `flows`' factors are dimensionless
    /// progress rates.
    pub(crate) fn advance(&mut self, dt: f64, flows: &[Flow]) {
        self.flush_events();
        let mut sa_active = 0usize;
        let mut vu_active = 0usize;
        let mut rates = flows.iter().map(Flow::factor);
        for slot in &self.slots {
            if let Some(t) = slot.occupant {
                match slot.kind {
                    FuKind::Sa => sa_active += 1,
                    FuKind::Vu => vu_active += 1,
                }
                let r = rates.next().unwrap_or(1.0);
                let Some(tn) = self.tenancies.get_mut(t).and_then(Option::as_mut) else {
                    continue;
                };
                tn.op_remaining -= r * dt;
                let bytes = slot.demand * r * dt;
                tn.hbm_bytes += bytes;
                self.hbm.record_bytes(bytes);
                match slot.kind {
                    FuKind::Sa => tn.busy_sa += dt,
                    FuKind::Vu => tn.busy_vu += dt,
                }
                self.table.add_active_cycles(tn.id, dt);
            } else if slot.switch_until > self.now + EPS {
                self.switch_overhead_total += dt.min(slot.switch_until - self.now);
            }
        }
        self.sa_busy += usize_to_f64(sa_active) * dt;
        self.vu_busy += usize_to_f64(vu_active) * dt;
        self.overlap.accumulate(sa_active > 0, vu_active > 0, dt);
        self.now += dt;
    }

    /// Completes the current operator of the tenancy in table slot `t`:
    /// records request latency on a trace wraparound, then either loads the
    /// next operator and schedules its instruction DMA (prefetched since the
    /// finished operator issued, then gated by the dispatch gap), or — for a
    /// non-resident tenant that just met its quota — retires the tenant,
    /// freeing its context-table slot and folding it into its report row.
    ///
    /// Emits [`SimEvent::OpCompleted`], then on wraparound
    /// [`SimEvent::RequestCompleted`], then on departure
    /// [`SimEvent::TenantRetired`]. Returns whether the tenancy is still
    /// seated; the caller must not touch its table row otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if no tenancy is seated in
    /// slot `t` or its id has gone stale (an engine invariant violation).
    pub(crate) fn finish_op(&mut self, t: usize) -> V10Result<bool> {
        let now = self.now;
        let (w, id, done_op_id, finished_request, departs, met_quota_now, fetch_at) = {
            let Some(tn) = self.tenancies.get_mut(t).and_then(Option::as_mut) else {
                return Err(V10Error::invalid(
                    "EngineCore::finish_op",
                    "no tenancy in that slot",
                ));
            };
            let done_op_id = tn.next_op_id;
            let mut finished_request = None;
            tn.op_idx += 1;
            if tn.op_idx == tn.trace.ops().len() {
                let latency = now - tn.request_start;
                tn.latencies.push(latency);
                tn.completed += 1;
                tn.op_idx = 0;
                tn.request_start = now;
                finished_request = Some(latency);
            }
            tn.next_op_id += 1;
            // The quota crossing happens exactly once: `completed` only
            // moves here, and the overload ladder's trims go through
            // `set_quota`, which re-balances the counter itself.
            let met_quota_now = finished_request.is_some() && tn.completed == tn.quota;
            let departs = finished_request.is_some() && !tn.resident && tn.completed >= tn.quota;
            if !departs {
                let op = *tn.current_op();
                tn.op_remaining = u64_to_f64(op.compute_cycles());
                // The next operator's instructions were prefetched from the
                // moment the finished operator issued; its dispatch gap
                // (host-side stalls) starts now.
                tn.fetch_ready_at = self
                    .dma
                    .ready_at(&op, tn.last_issue_at, now)
                    .max(now + u64_to_f64(op.dispatch_gap_cycles()));
            }
            (
                tn.workload,
                tn.id,
                done_op_id,
                finished_request,
                departs,
                met_quota_now,
                tn.fetch_ready_at,
            )
        };
        if met_quota_now {
            self.unmet = self.unmet.saturating_sub(1);
        }
        if departs {
            self.table.retire(id)?;
            if let Some(pos) = self.live.iter().position(|&live| live == t) {
                self.live.remove(pos);
            }
            self.set_fetch_at(t, f64::INFINITY);
            if let Some(tn) = self.tenancies.get_mut(t).and_then(Option::take) {
                self.fold_into_row(tn, Some(now));
            }
        } else {
            // The caller released the tenancy's Active bit before completing
            // the operator, so it is back to awaiting its next fetch.
            self.set_fetch_at(t, fetch_at);
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
        Ok(!departs)
    }

    /// Consumes the core into the run's final report, one workload entry
    /// per admitted tenancy in admission order. The tenancies still live
    /// fold into their rows (they have not retired), and the rows move
    /// out as they are: nothing is copied.
    pub(crate) fn into_report(mut self) -> RunReport {
        self.flush_events();
        for t in std::mem::take(&mut self.live) {
            if let Some(tn) = self.tenancies.get_mut(t).and_then(Option::take) {
                self.fold_into_row(tn, None);
            }
        }
        let workloads = std::mem::take(&mut self.rows);
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
