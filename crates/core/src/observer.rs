//! Zero-cost-when-disabled engine instrumentation.
//!
//! The unified engine core emits a typed event stream — operator issues and
//! completions, preemptions, context-switch windows, DMA readiness, timer
//! ticks — through the [`SimObserver`] trait. The engine is generic over the
//! observer, so the default [`NullObserver`] monomorphizes every emission
//! into nothing: an unobserved run compiles to exactly the code it had
//! before instrumentation existed. [`CounterObserver`] tallies event counts
//! for cheap always-on telemetry; [`JsonLinesObserver`] streams each event
//! as one JSON object per line for offline timeline analysis.

use std::io::Write;

use v10_isa::FuKind;
use v10_sim::FaultKind;

/// One engine event, stamped with the simulated cycle at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SimEvent {
    /// A workload's operator was issued to a functional unit.
    OpIssued {
        /// Index of the workload in the run's spec slice.
        workload: usize,
        /// Pool index of the functional unit.
        fu: usize,
        /// The FU kind the operator targets.
        kind: FuKind,
        /// The operator's id (monotonic per workload).
        op_id: u64,
        /// Simulated cycle.
        at: f64,
    },
    /// A workload's operator ran to completion.
    OpCompleted {
        /// Index of the workload.
        workload: usize,
        /// The completed operator's id.
        op_id: u64,
        /// Simulated cycle.
        at: f64,
    },
    /// A workload finished one full inference request.
    RequestCompleted {
        /// Index of the workload.
        workload: usize,
        /// The request's end-to-end latency in cycles.
        latency_cycles: f64,
        /// Simulated cycle.
        at: f64,
    },
    /// A running operator was preempted off its functional unit.
    OpPreempted {
        /// Index of the preempted workload.
        workload: usize,
        /// Pool index of the functional unit it was evicted from.
        fu: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// A context-switch window opened on a functional unit.
    CtxSwitchStarted {
        /// Pool index of the switching functional unit.
        fu: usize,
        /// The switch cost in cycles.
        cost_cycles: f64,
        /// Simulated cycle.
        at: f64,
    },
    /// A context-switch window closed; the unit is schedulable again.
    CtxSwitchEnded {
        /// Pool index of the functional unit.
        fu: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// A workload's instruction DMA completed: its next operator is Ready.
    DmaReady {
        /// Index of the workload.
        workload: usize,
        /// The operator that became ready.
        op_id: u64,
        /// Simulated cycle.
        at: f64,
    },
    /// The preemption timer fired (§3.3's time-slice check).
    TimerTick {
        /// Simulated cycle.
        at: f64,
    },
    /// A tenant was admitted into a free context-table slot.
    TenantAdmitted {
        /// Index of the workload (admission order within the run): the
        /// index of its row in the run's final report, which holds its
        /// label.
        workload: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// A tenant completed its request quota and left, freeing its slot.
    TenantRetired {
        /// Index of the workload.
        workload: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// An arrival found no free context-table slot and was turned away.
    AdmissionRejected {
        /// Sequence number of the arrival within the run's schedule.
        arrival: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// The fault injector fired a scheduled fault on this core.
    FaultInjected {
        /// Monotonic sequence number of the fault within the run.
        fault: usize,
        /// What the fault does.
        kind: FaultKind,
        /// The victim workload, when the fault singled one out (a transient
        /// operator fault with at least one operator in flight).
        workload: Option<usize>,
        /// Simulated cycle.
        at: f64,
    },
    /// A corrupted operator was re-issued from its input checkpoint.
    OpReplayed {
        /// Index of the replaying workload.
        workload: usize,
        /// The operator being replayed.
        op_id: u64,
        /// The replay's restore cost in cycles (the design's context-switch
        /// cost, per Fig. 21).
        cost_cycles: f64,
        /// Simulated cycle.
        at: f64,
    },
    /// The core retired permanently: residents evicted, arrivals bounced.
    CoreRetired {
        /// Simulated cycle.
        at: f64,
    },
    /// The serving layer shed a displaced tenant: fault-reduced capacity
    /// made its deadline unmeetable, so it was rejected rather than queued.
    RequestShed {
        /// Sequence number of the original arrival (offer order).
        arrival: usize,
        /// Simulated cycle of the shedding decision.
        at: f64,
    },
    /// The overload controller crossed its entry threshold and armed the
    /// graceful-degradation ladder.
    OverloadEntered {
        /// Arrivals waiting in the pending queue at detection time.
        queue_depth: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// The controller applied (or escalated to) a degradation rung.
    DegradationApplied {
        /// Ladder rung index (1 = priority demotion .. 4 = deadline shed).
        rung: usize,
        /// The tenant the rung acted on, when it singled one out.
        workload: Option<usize>,
        /// Simulated cycle.
        at: f64,
    },
    /// The controller observed sustained calm and stood the ladder down.
    OverloadCleared {
        /// Simulated cycle.
        at: f64,
    },
    /// The starvation watchdog saw a tenant's priority-weighted active rate
    /// pinned below its bound for a full observation window.
    TenantStarved {
        /// Index of the starved workload.
        workload: usize,
        /// The tenant's priority-weighted active rate at detection.
        active_rate_p: f64,
        /// Simulated cycle.
        at: f64,
    },
    /// The watchdog raised a starved tenant's priority.
    WatchdogBoost {
        /// Index of the boosted workload.
        workload: usize,
        /// The tenant's priority after the boost.
        priority: f64,
        /// Simulated cycle.
        at: f64,
    },
    /// A fleet shard worker crashed: its candidate tables are lost until
    /// the worker comes back at the next epoch boundary.
    ShardCrashed {
        /// Index of the crashed shard.
        shard: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// A crashed shard came back; its candidate tables are rebuilt from the
    /// fleet state before its next placement query.
    ShardRestored {
        /// Index of the restored shard.
        shard: usize,
        /// Simulated cycle.
        at: f64,
    },
    /// The fleet plane evacuated an orphaned tenant from a failed core
    /// onto a surviving one.
    TenantEvacuated {
        /// Sequence number of the original arrival (offer order).
        arrival: usize,
        /// The failed core the tenant was orphaned on.
        from_core: usize,
        /// The surviving core the tenant landed on.
        to_core: usize,
        /// Simulated cycle of the successful re-admission.
        at: f64,
    },
    /// A whole HBM affinity group failed together (correlated blast
    /// radius): every core in the group retired at once.
    RegionFailed {
        /// The failed HBM-affinity group.
        group: usize,
        /// Simulated cycle.
        at: f64,
    },
}

impl SimEvent {
    /// A short stable name for the event variant (used as the JSON `event`
    /// field and the counter key).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SimEvent::OpIssued { .. } => "op_issued",
            SimEvent::OpCompleted { .. } => "op_completed",
            SimEvent::RequestCompleted { .. } => "request_completed",
            SimEvent::OpPreempted { .. } => "op_preempted",
            SimEvent::CtxSwitchStarted { .. } => "ctx_switch_started",
            SimEvent::CtxSwitchEnded { .. } => "ctx_switch_ended",
            SimEvent::DmaReady { .. } => "dma_ready",
            SimEvent::TimerTick { .. } => "timer_tick",
            SimEvent::TenantAdmitted { .. } => "tenant_admitted",
            SimEvent::TenantRetired { .. } => "tenant_retired",
            SimEvent::AdmissionRejected { .. } => "admission_rejected",
            SimEvent::FaultInjected { .. } => "fault_injected",
            SimEvent::OpReplayed { .. } => "op_replayed",
            SimEvent::CoreRetired { .. } => "core_retired",
            SimEvent::RequestShed { .. } => "request_shed",
            SimEvent::OverloadEntered { .. } => "overload_entered",
            SimEvent::DegradationApplied { .. } => "degradation_applied",
            SimEvent::OverloadCleared { .. } => "overload_cleared",
            SimEvent::TenantStarved { .. } => "tenant_starved",
            SimEvent::WatchdogBoost { .. } => "watchdog_boost",
            SimEvent::ShardCrashed { .. } => "shard_crashed",
            SimEvent::ShardRestored { .. } => "shard_restored",
            SimEvent::TenantEvacuated { .. } => "tenant_evacuated",
            SimEvent::RegionFailed { .. } => "region_failed",
        }
    }

    /// The simulated cycle the event is stamped with.
    #[must_use]
    pub fn at(&self) -> f64 {
        match *self {
            SimEvent::OpIssued { at, .. }
            | SimEvent::OpCompleted { at, .. }
            | SimEvent::RequestCompleted { at, .. }
            | SimEvent::OpPreempted { at, .. }
            | SimEvent::CtxSwitchStarted { at, .. }
            | SimEvent::CtxSwitchEnded { at, .. }
            | SimEvent::DmaReady { at, .. }
            | SimEvent::TimerTick { at }
            | SimEvent::TenantAdmitted { at, .. }
            | SimEvent::TenantRetired { at, .. }
            | SimEvent::AdmissionRejected { at, .. }
            | SimEvent::FaultInjected { at, .. }
            | SimEvent::OpReplayed { at, .. }
            | SimEvent::CoreRetired { at }
            | SimEvent::RequestShed { at, .. }
            | SimEvent::OverloadEntered { at, .. }
            | SimEvent::DegradationApplied { at, .. }
            | SimEvent::OverloadCleared { at }
            | SimEvent::TenantStarved { at, .. }
            | SimEvent::WatchdogBoost { at, .. }
            | SimEvent::ShardCrashed { at, .. }
            | SimEvent::ShardRestored { at, .. }
            | SimEvent::TenantEvacuated { at, .. }
            | SimEvent::RegionFailed { at, .. } => at,
        }
    }
}

/// Receives the engine's event stream.
///
/// Implementations must be cheap: the engine calls [`SimObserver::on_event`]
/// inline from its hot loop. The engine is generic over the observer type,
/// so a no-op implementation ([`NullObserver`]) costs nothing after
/// monomorphization.
pub trait SimObserver {
    /// Whether this observer consumes events at all. The engines buffer
    /// emitted events and flush the batch at each clock advance; when this
    /// is `false` (the [`NullObserver`]) the buffering itself compiles out
    /// and emission sites cost nothing.
    const ENABLED: bool = true;

    /// Called for every engine event, in simulated-time order.
    ///
    /// Events are small `Copy` values and are passed by value so emission
    /// sites never have to materialize them in memory.
    fn on_event(&mut self, event: SimEvent);
}

/// A borrowed observer observes for its owner, so a run that owns its
/// observer can also be handed a `&mut` to one the caller keeps.
impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn on_event(&mut self, event: SimEvent) {
        (**self).on_event(event);
    }
}

/// The disabled observer: every event vanishes at compile time.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: SimEvent) {}
}

/// Tallies how many times each event fired.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterObserver {
    op_issued: u64,
    op_completed: u64,
    request_completed: u64,
    op_preempted: u64,
    ctx_switch_started: u64,
    ctx_switch_ended: u64,
    dma_ready: u64,
    timer_tick: u64,
    tenant_admitted: u64,
    tenant_retired: u64,
    admission_rejected: u64,
    fault_injected: u64,
    op_replayed: u64,
    core_retired: u64,
    request_shed: u64,
    overload_entered: u64,
    degradation_applied: u64,
    overload_cleared: u64,
    tenant_starved: u64,
    watchdog_boost: u64,
    shard_crashed: u64,
    shard_restored: u64,
    tenant_evacuated: u64,
    region_failed: u64,
}

impl CounterObserver {
    /// Creates a zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        CounterObserver::default()
    }

    /// Operators issued to functional units.
    #[must_use]
    pub fn op_issued(&self) -> u64 {
        self.op_issued
    }

    /// Operators run to completion.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn op_completed(&self) -> u64 {
        self.op_completed
    }

    /// Full inference requests completed.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn request_completed(&self) -> u64 {
        self.request_completed
    }

    /// Operators preempted off their functional unit.
    #[must_use]
    pub fn op_preempted(&self) -> u64 {
        self.op_preempted
    }

    /// Context-switch windows opened.
    #[must_use]
    pub fn ctx_switch_started(&self) -> u64 {
        self.ctx_switch_started
    }

    /// Context-switch windows closed.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn ctx_switch_ended(&self) -> u64 {
        self.ctx_switch_ended
    }

    /// Instruction DMAs completed.
    #[must_use]
    pub fn dma_ready(&self) -> u64 {
        self.dma_ready
    }

    /// Preemption-timer firings.
    #[must_use]
    pub fn timer_tick(&self) -> u64 {
        self.timer_tick
    }

    /// Tenants admitted into context-table slots.
    #[must_use]
    pub fn tenant_admitted(&self) -> u64 {
        self.tenant_admitted
    }

    /// Tenants that completed their quota and departed.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn tenant_retired(&self) -> u64 {
        self.tenant_retired
    }

    /// Arrivals rejected for lack of a free slot.
    #[must_use]
    pub fn admission_rejected(&self) -> u64 {
        self.admission_rejected
    }

    /// Scheduled faults fired by the injector.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn fault_injected(&self) -> u64 {
        self.fault_injected
    }

    /// Operators re-issued from their input checkpoint.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn op_replayed(&self) -> u64 {
        self.op_replayed
    }

    /// Permanent core retirements.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn core_retired(&self) -> u64 {
        self.core_retired
    }

    /// Displaced tenants shed for an unmeetable deadline.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn request_shed(&self) -> u64 {
        self.request_shed
    }

    /// Overload-entry detections by the controller.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn overload_entered(&self) -> u64 {
        self.overload_entered
    }

    /// Degradation-ladder rung applications.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn degradation_applied(&self) -> u64 {
        self.degradation_applied
    }

    /// Overload-clear (stand-down) detections by the controller.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn overload_cleared(&self) -> u64 {
        self.overload_cleared
    }

    /// Starvation detections by the watchdog.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn tenant_starved(&self) -> u64 {
        self.tenant_starved
    }

    /// Priority boosts issued by the watchdog.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn watchdog_boost(&self) -> u64 {
        self.watchdog_boost
    }

    /// Fleet shard-worker crashes.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn shard_crashed(&self) -> u64 {
        self.shard_crashed
    }

    /// Fleet shard restores after a crash.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn shard_restored(&self) -> u64 {
        self.shard_restored
    }

    /// Orphaned tenants evacuated onto surviving cores.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn tenant_evacuated(&self) -> u64 {
        self.tenant_evacuated
    }

    /// Whole-HBM-group (region) failures.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn region_failed(&self) -> u64 {
        self.region_failed
    }

    /// Sum over all event kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.op_issued
            + self.op_completed
            + self.request_completed
            + self.op_preempted
            + self.ctx_switch_started
            + self.ctx_switch_ended
            + self.dma_ready
            + self.timer_tick
            + self.tenant_admitted
            + self.tenant_retired
            + self.admission_rejected
            + self.fault_injected
            + self.op_replayed
            + self.core_retired
            + self.request_shed
            + self.overload_entered
            + self.degradation_applied
            + self.overload_cleared
            + self.tenant_starved
            + self.watchdog_boost
            + self.shard_crashed
            + self.shard_restored
            + self.tenant_evacuated
            + self.region_failed
    }
}

impl SimObserver for CounterObserver {
    #[inline(always)]
    fn on_event(&mut self, event: SimEvent) {
        let slot = match event {
            SimEvent::OpIssued { .. } => &mut self.op_issued,
            SimEvent::OpCompleted { .. } => &mut self.op_completed,
            SimEvent::RequestCompleted { .. } => &mut self.request_completed,
            SimEvent::OpPreempted { .. } => &mut self.op_preempted,
            SimEvent::CtxSwitchStarted { .. } => &mut self.ctx_switch_started,
            SimEvent::CtxSwitchEnded { .. } => &mut self.ctx_switch_ended,
            SimEvent::DmaReady { .. } => &mut self.dma_ready,
            SimEvent::TimerTick { .. } => &mut self.timer_tick,
            SimEvent::TenantAdmitted { .. } => &mut self.tenant_admitted,
            SimEvent::TenantRetired { .. } => &mut self.tenant_retired,
            SimEvent::AdmissionRejected { .. } => &mut self.admission_rejected,
            SimEvent::FaultInjected { .. } => &mut self.fault_injected,
            SimEvent::OpReplayed { .. } => &mut self.op_replayed,
            SimEvent::CoreRetired { .. } => &mut self.core_retired,
            SimEvent::RequestShed { .. } => &mut self.request_shed,
            SimEvent::OverloadEntered { .. } => &mut self.overload_entered,
            SimEvent::DegradationApplied { .. } => &mut self.degradation_applied,
            SimEvent::OverloadCleared { .. } => &mut self.overload_cleared,
            SimEvent::TenantStarved { .. } => &mut self.tenant_starved,
            SimEvent::WatchdogBoost { .. } => &mut self.watchdog_boost,
            SimEvent::ShardCrashed { .. } => &mut self.shard_crashed,
            SimEvent::ShardRestored { .. } => &mut self.shard_restored,
            SimEvent::TenantEvacuated { .. } => &mut self.tenant_evacuated,
            SimEvent::RegionFailed { .. } => &mut self.region_failed,
        };
        *slot += 1;
    }
}

/// Streams each event as one JSON object per line (JSON-lines / `ndjson`).
///
/// The encoding is hand-rolled — the workspace carries no serde — but every
/// field is a number or a fixed identifier, so escaping is a non-issue.
/// Write failures are counted, not propagated: instrumentation must never
/// alter simulation behavior.
///
/// # Example
///
/// ```
/// use v10_core::{JsonLinesObserver, SimEvent, SimObserver};
///
/// let mut buf = Vec::new();
/// let mut obs = JsonLinesObserver::new(&mut buf);
/// obs.on_event(SimEvent::TimerTick { at: 32768.0 });
/// assert_eq!(
///     String::from_utf8(buf).unwrap(),
///     "{\"event\":\"timer_tick\",\"at\":32768}\n"
/// );
/// ```
#[derive(Debug)]
pub struct JsonLinesObserver<W: Write> {
    sink: W,
    write_errors: u64,
}

impl<W: Write> JsonLinesObserver<W> {
    /// Wraps a byte sink (a file, a `Vec<u8>`, a locked stdout, ...).
    pub fn new(sink: W) -> Self {
        JsonLinesObserver {
            sink,
            write_errors: 0,
        }
    }

    /// Number of events dropped because the sink reported a write error.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Formats an `f64` cycle stamp compactly: integral values lose the `.0`
/// suffix so the common case stays short.
fn fmt_cycles(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl<W: Write> SimObserver for JsonLinesObserver<W> {
    fn on_event(&mut self, event: SimEvent) {
        let name = event.name();
        let at = fmt_cycles(event.at());
        let line = match event {
            SimEvent::OpIssued { workload, fu, kind, op_id, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"fu\":{fu},\"kind\":\"{}\",\"op_id\":{op_id},\"at\":{at}}}",
                match kind {
                    FuKind::Sa => "SA",
                    FuKind::Vu => "VU",
                }
            ),
            SimEvent::OpCompleted { workload, op_id, .. }
            | SimEvent::DmaReady { workload, op_id, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"op_id\":{op_id},\"at\":{at}}}"
            ),
            SimEvent::RequestCompleted { workload, latency_cycles, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"latency_cycles\":{},\"at\":{at}}}",
                fmt_cycles(latency_cycles)
            ),
            SimEvent::OpPreempted { workload, fu, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"fu\":{fu},\"at\":{at}}}"
            ),
            SimEvent::CtxSwitchStarted { fu, cost_cycles, .. } => format!(
                "{{\"event\":\"{name}\",\"fu\":{fu},\"cost_cycles\":{},\"at\":{at}}}",
                fmt_cycles(cost_cycles)
            ),
            SimEvent::CtxSwitchEnded { fu, .. } => {
                format!("{{\"event\":\"{name}\",\"fu\":{fu},\"at\":{at}}}")
            }
            SimEvent::TimerTick { .. } => format!("{{\"event\":\"{name}\",\"at\":{at}}}"),
            SimEvent::TenantAdmitted { workload, .. } | SimEvent::TenantRetired { workload, .. } => {
                format!("{{\"event\":\"{name}\",\"workload\":{workload},\"at\":{at}}}")
            }
            SimEvent::AdmissionRejected { arrival, .. }
            | SimEvent::RequestShed { arrival, .. } => {
                format!("{{\"event\":\"{name}\",\"arrival\":{arrival},\"at\":{at}}}")
            }
            SimEvent::FaultInjected { fault, kind, workload, .. } => {
                let victim = workload.map_or("null".to_string(), |w| w.to_string());
                format!(
                    "{{\"event\":\"{name}\",\"fault\":{fault},\"kind\":\"{}\",\"workload\":{victim},\"at\":{at}}}",
                    kind.label()
                )
            }
            SimEvent::OpReplayed { workload, op_id, cost_cycles, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"op_id\":{op_id},\"cost_cycles\":{},\"at\":{at}}}",
                fmt_cycles(cost_cycles)
            ),
            SimEvent::CoreRetired { .. } => format!("{{\"event\":\"{name}\",\"at\":{at}}}"),
            SimEvent::OverloadEntered { queue_depth, .. } => format!(
                "{{\"event\":\"{name}\",\"queue_depth\":{queue_depth},\"at\":{at}}}"
            ),
            SimEvent::DegradationApplied { rung, workload, .. } => {
                let victim = workload.map_or("null".to_string(), |w| w.to_string());
                format!(
                    "{{\"event\":\"{name}\",\"rung\":{rung},\"workload\":{victim},\"at\":{at}}}"
                )
            }
            SimEvent::OverloadCleared { .. } => format!("{{\"event\":\"{name}\",\"at\":{at}}}"),
            SimEvent::TenantStarved { workload, active_rate_p, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"active_rate_p\":{},\"at\":{at}}}",
                fmt_cycles(active_rate_p)
            ),
            SimEvent::WatchdogBoost { workload, priority, .. } => format!(
                "{{\"event\":\"{name}\",\"workload\":{workload},\"priority\":{},\"at\":{at}}}",
                fmt_cycles(priority)
            ),
            SimEvent::ShardCrashed { shard, .. } | SimEvent::ShardRestored { shard, .. } => {
                format!("{{\"event\":\"{name}\",\"shard\":{shard},\"at\":{at}}}")
            }
            SimEvent::TenantEvacuated { arrival, from_core, to_core, .. } => format!(
                "{{\"event\":\"{name}\",\"arrival\":{arrival},\"from_core\":{from_core},\"to_core\":{to_core},\"at\":{at}}}"
            ),
            SimEvent::RegionFailed { group, .. } => {
                format!("{{\"event\":\"{name}\",\"group\":{group},\"at\":{at}}}")
            }
        };
        if writeln!(self.sink, "{line}").is_err() {
            self.write_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_tallies_each_kind() {
        let mut c = CounterObserver::new();
        c.on_event(SimEvent::TimerTick { at: 1.0 });
        c.on_event(SimEvent::TimerTick { at: 2.0 });
        c.on_event(SimEvent::OpIssued {
            workload: 0,
            fu: 0,
            kind: FuKind::Sa,
            op_id: 0,
            at: 0.0,
        });
        assert_eq!(c.timer_tick(), 2);
        assert_eq!(c.op_issued(), 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn null_observer_is_a_no_op() {
        let mut n = NullObserver;
        n.on_event(SimEvent::TimerTick { at: 0.0 });
    }

    #[test]
    fn json_lines_are_one_object_per_line() {
        let mut buf = Vec::new();
        {
            let mut obs = JsonLinesObserver::new(&mut buf);
            obs.on_event(SimEvent::OpIssued {
                workload: 1,
                fu: 0,
                kind: FuKind::Vu,
                op_id: 7,
                at: 1_234.5,
            });
            obs.on_event(SimEvent::RequestCompleted {
                workload: 1,
                latency_cycles: 99.0,
                at: 2_000.0,
            });
            assert_eq!(obs.write_errors(), 0);
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"op_issued\",\"workload\":1,\"fu\":0,\"kind\":\"VU\",\"op_id\":7,\"at\":1234.5}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"request_completed\",\"workload\":1,\"latency_cycles\":99,\"at\":2000}"
        );
    }

    #[test]
    fn json_write_errors_are_counted_not_propagated() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut obs = JsonLinesObserver::new(Broken);
        obs.on_event(SimEvent::TimerTick { at: 0.0 });
        obs.on_event(SimEvent::TimerTick { at: 1.0 });
        assert_eq!(obs.write_errors(), 2);
    }

    #[test]
    fn lifecycle_events_count_name_and_encode() {
        let mut c = CounterObserver::new();
        c.on_event(SimEvent::TenantAdmitted {
            workload: 0,
            at: 0.0,
        });
        c.on_event(SimEvent::TenantRetired {
            workload: 0,
            at: 5.0,
        });
        c.on_event(SimEvent::AdmissionRejected {
            arrival: 3,
            at: 7.0,
        });
        assert_eq!(c.tenant_admitted(), 1);
        assert_eq!(c.tenant_retired(), 1);
        assert_eq!(c.admission_rejected(), 1);
        assert_eq!(c.total(), 3);

        let mut buf = Vec::new();
        {
            let mut obs = JsonLinesObserver::new(&mut buf);
            obs.on_event(SimEvent::TenantAdmitted {
                workload: 2,
                at: 10.0,
            });
            obs.on_event(SimEvent::AdmissionRejected {
                arrival: 4,
                at: 11.0,
            });
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"event\":\"tenant_admitted\",\"workload\":2,\"at\":10}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"admission_rejected\",\"arrival\":4,\"at\":11}"
        );
        assert_eq!(
            SimEvent::TenantRetired {
                workload: 0,
                at: 1.0
            }
            .name(),
            "tenant_retired"
        );
    }

    #[test]
    fn fault_events_count_name_and_encode() {
        let mut c = CounterObserver::new();
        let mut buf = Vec::new();
        {
            let mut obs = JsonLinesObserver::new(&mut buf);
            let events = [
                SimEvent::FaultInjected {
                    fault: 0,
                    kind: FaultKind::TransientOp { victim_salt: 9 },
                    workload: Some(1),
                    at: 3.0,
                },
                SimEvent::FaultInjected {
                    fault: 1,
                    kind: FaultKind::CoreStall { stall_cycles: 64.0 },
                    workload: None,
                    at: 4.0,
                },
                SimEvent::OpReplayed {
                    workload: 1,
                    op_id: 5,
                    cost_cycles: 384.0,
                    at: 3.0,
                },
                SimEvent::CoreRetired { at: 9.0 },
                SimEvent::RequestShed {
                    arrival: 3,
                    at: 11.0,
                },
            ];
            for e in events {
                c.on_event(e);
                obs.on_event(e);
            }
            assert_eq!(obs.write_errors(), 0);
        }
        assert_eq!(c.fault_injected(), 2);
        assert_eq!(c.op_replayed(), 1);
        assert_eq!(c.core_retired(), 1);
        assert_eq!(c.request_shed(), 1);
        assert_eq!(c.total(), 5);

        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"event\":\"fault_injected\",\"fault\":0,\"kind\":\"transient_op\",\"workload\":1,\"at\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"fault_injected\",\"fault\":1,\"kind\":\"core_stall\",\"workload\":null,\"at\":4}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"op_replayed\",\"workload\":1,\"op_id\":5,\"cost_cycles\":384,\"at\":3}"
        );
        assert_eq!(lines[3], "{\"event\":\"core_retired\",\"at\":9}");
        assert_eq!(
            lines[4],
            "{\"event\":\"request_shed\",\"arrival\":3,\"at\":11}"
        );
    }

    #[test]
    fn overload_events_count_name_and_encode() {
        let mut c = CounterObserver::new();
        let mut buf = Vec::new();
        {
            let mut obs = JsonLinesObserver::new(&mut buf);
            let events = [
                SimEvent::OverloadEntered {
                    queue_depth: 5,
                    at: 3.0,
                },
                SimEvent::DegradationApplied {
                    rung: 1,
                    workload: Some(2),
                    at: 4.0,
                },
                SimEvent::DegradationApplied {
                    rung: 4,
                    workload: None,
                    at: 5.0,
                },
                SimEvent::OverloadCleared { at: 9.0 },
                SimEvent::TenantStarved {
                    workload: 1,
                    active_rate_p: 0.125,
                    at: 10.0,
                },
                SimEvent::WatchdogBoost {
                    workload: 1,
                    priority: 2.0,
                    at: 10.0,
                },
            ];
            for e in events {
                c.on_event(e);
                obs.on_event(e);
            }
            assert_eq!(obs.write_errors(), 0);
        }
        assert_eq!(c.overload_entered(), 1);
        assert_eq!(c.degradation_applied(), 2);
        assert_eq!(c.overload_cleared(), 1);
        assert_eq!(c.tenant_starved(), 1);
        assert_eq!(c.watchdog_boost(), 1);
        assert_eq!(c.total(), 6);

        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"event\":\"overload_entered\",\"queue_depth\":5,\"at\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"degradation_applied\",\"rung\":1,\"workload\":2,\"at\":4}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"degradation_applied\",\"rung\":4,\"workload\":null,\"at\":5}"
        );
        assert_eq!(lines[3], "{\"event\":\"overload_cleared\",\"at\":9}");
        assert_eq!(
            lines[4],
            "{\"event\":\"tenant_starved\",\"workload\":1,\"active_rate_p\":0.125,\"at\":10}"
        );
        assert_eq!(
            lines[5],
            "{\"event\":\"watchdog_boost\",\"workload\":1,\"priority\":2,\"at\":10}"
        );
    }

    /// One event per variant. The `match` below carries no wildcard arm, so
    /// adding a `SimEvent` variant without extending this list is a compile
    /// error — and the counter assertions then force the new variant into
    /// `CounterObserver::total()` before the test goes green again.
    #[test]
    fn every_event_variant_is_counted_in_total() {
        let one_of_each = [
            SimEvent::OpIssued {
                workload: 0,
                fu: 0,
                kind: FuKind::Sa,
                op_id: 0,
                at: 0.0,
            },
            SimEvent::OpCompleted {
                workload: 0,
                op_id: 0,
                at: 1.0,
            },
            SimEvent::RequestCompleted {
                workload: 0,
                latency_cycles: 1.0,
                at: 2.0,
            },
            SimEvent::OpPreempted {
                workload: 0,
                fu: 0,
                at: 3.0,
            },
            SimEvent::CtxSwitchStarted {
                fu: 0,
                cost_cycles: 1.0,
                at: 4.0,
            },
            SimEvent::CtxSwitchEnded { fu: 0, at: 5.0 },
            SimEvent::DmaReady {
                workload: 0,
                op_id: 1,
                at: 6.0,
            },
            SimEvent::TimerTick { at: 7.0 },
            SimEvent::TenantAdmitted {
                workload: 0,
                at: 8.0,
            },
            SimEvent::TenantRetired {
                workload: 0,
                at: 9.0,
            },
            SimEvent::AdmissionRejected {
                arrival: 0,
                at: 10.0,
            },
            SimEvent::FaultInjected {
                fault: 0,
                kind: FaultKind::CoreRetire,
                workload: None,
                at: 11.0,
            },
            SimEvent::OpReplayed {
                workload: 0,
                op_id: 2,
                cost_cycles: 1.0,
                at: 12.0,
            },
            SimEvent::CoreRetired { at: 13.0 },
            SimEvent::RequestShed {
                arrival: 1,
                at: 15.0,
            },
            SimEvent::OverloadEntered {
                queue_depth: 1,
                at: 16.0,
            },
            SimEvent::DegradationApplied {
                rung: 1,
                workload: None,
                at: 17.0,
            },
            SimEvent::OverloadCleared { at: 18.0 },
            SimEvent::TenantStarved {
                workload: 0,
                active_rate_p: 0.5,
                at: 19.0,
            },
            SimEvent::WatchdogBoost {
                workload: 0,
                priority: 2.0,
                at: 20.0,
            },
            SimEvent::ShardCrashed { shard: 0, at: 21.0 },
            SimEvent::ShardRestored { shard: 0, at: 22.0 },
            SimEvent::TenantEvacuated {
                arrival: 2,
                from_core: 0,
                to_core: 1,
                at: 23.0,
            },
            SimEvent::RegionFailed { group: 0, at: 24.0 },
        ];

        // Exhaustiveness guard: within the defining crate, a wildcard-free
        // match over a #[non_exhaustive] enum must still cover every variant.
        let is_listed = |e: &SimEvent| match e {
            SimEvent::OpIssued { .. }
            | SimEvent::OpCompleted { .. }
            | SimEvent::RequestCompleted { .. }
            | SimEvent::OpPreempted { .. }
            | SimEvent::CtxSwitchStarted { .. }
            | SimEvent::CtxSwitchEnded { .. }
            | SimEvent::DmaReady { .. }
            | SimEvent::TimerTick { .. }
            | SimEvent::TenantAdmitted { .. }
            | SimEvent::TenantRetired { .. }
            | SimEvent::AdmissionRejected { .. }
            | SimEvent::FaultInjected { .. }
            | SimEvent::OpReplayed { .. }
            | SimEvent::CoreRetired { .. }
            | SimEvent::RequestShed { .. }
            | SimEvent::OverloadEntered { .. }
            | SimEvent::DegradationApplied { .. }
            | SimEvent::OverloadCleared { .. }
            | SimEvent::TenantStarved { .. }
            | SimEvent::WatchdogBoost { .. }
            | SimEvent::ShardCrashed { .. }
            | SimEvent::ShardRestored { .. }
            | SimEvent::TenantEvacuated { .. }
            | SimEvent::RegionFailed { .. } => true,
        };

        let mut c = CounterObserver::new();
        let mut names = std::collections::BTreeSet::new();
        for e in one_of_each {
            assert!(is_listed(&e));
            c.on_event(e);
            assert!(names.insert(e.name()), "duplicate event name {}", e.name());
        }
        // Every variant appeared exactly once, so a variant missing from
        // total()'s sum makes the count come up short.
        assert_eq!(
            c.total(),
            v10_sim::convert::u64_from_usize(one_of_each.len())
        );
    }

    #[test]
    fn fleet_events_count_name_and_encode() {
        let mut c = CounterObserver::new();
        let mut buf = Vec::new();
        {
            let mut obs = JsonLinesObserver::new(&mut buf);
            let events = [
                SimEvent::ShardCrashed { shard: 2, at: 3.0 },
                SimEvent::ShardRestored { shard: 2, at: 8.0 },
                SimEvent::RegionFailed { group: 1, at: 9.0 },
                SimEvent::TenantEvacuated {
                    arrival: 7,
                    from_core: 5,
                    to_core: 12,
                    at: 10.0,
                },
            ];
            for e in events {
                c.on_event(e);
                obs.on_event(e);
            }
            assert_eq!(obs.write_errors(), 0);
        }
        assert_eq!(c.shard_crashed(), 1);
        assert_eq!(c.shard_restored(), 1);
        assert_eq!(c.region_failed(), 1);
        assert_eq!(c.tenant_evacuated(), 1);
        assert_eq!(c.total(), 4);

        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"event\":\"shard_crashed\",\"shard\":2,\"at\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"shard_restored\",\"shard\":2,\"at\":8}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"region_failed\",\"group\":1,\"at\":9}"
        );
        assert_eq!(
            lines[3],
            "{\"event\":\"tenant_evacuated\",\"arrival\":7,\"from_core\":5,\"to_core\":12,\"at\":10}"
        );
    }

    #[test]
    fn event_names_and_stamps() {
        let e = SimEvent::CtxSwitchStarted {
            fu: 2,
            cost_cycles: 384.0,
            at: 10.0,
        };
        assert_eq!(e.name(), "ctx_switch_started");
        assert_eq!(e.at(), 10.0);
    }
}
