//! Online runtime invariant auditing.
//!
//! [`RuntimeAuditor`] is a [`SimObserver`] that cross-checks the engine's
//! event stream *while the run executes*: the simulated clock must never go
//! backwards, tenancy events must respect the admit → serve → retire
//! lifecycle, per-workload operator completions can never outrun issues,
//! and context-switch windows must close no more often than they open.
//! After the run, [`RuntimeAuditor::reconcile`] checks conservation against
//! the final [`RunReport`]: every admission is accounted for as a
//! completion, a rejection, or a shed, and the event counts match the
//! report's counters exactly.
//!
//! Install one in any observed run and assert
//! [`is_clean`](RuntimeAuditor::is_clean) — the integration suites do this
//! for the serving, fault, and overload paths, so an accounting regression
//! surfaces as a named violation rather than a silently wrong metric.

use crate::metrics::RunReport;
use crate::observer::{SimEvent, SimObserver};

/// Timestamp slack mirroring the engine's event-simultaneity tolerance.
const AT_EPS: f64 = 1e-6;

/// Violations kept verbatim before the auditor starts counting instead —
/// enough to diagnose, bounded so a hot loop cannot balloon memory.
const MAX_RECORDED: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Admitted,
    Retired,
}

/// Per-workload event tallies.
#[derive(Debug, Clone, Copy, Default)]
struct WlTally {
    issued: u64,
    completed_ops: u64,
    completed_requests: u64,
}

/// An observer that enforces engine invariants online and reconciles the
/// event stream against the final report. See the module docs.
#[derive(Debug, Default)]
pub struct RuntimeAuditor {
    last_at: f64,
    phases: Vec<Phase>,
    tallies: Vec<WlTally>,
    rejected: u64,
    shed: u64,
    faults: u64,
    /// Whether the executor emits operator-issue events at all: the V10
    /// engine does, the task-granularity PMT baseline does not, and the
    /// issue/completion ordering invariant only applies when it does.
    issues_seen: bool,
    switch_started: u64,
    switch_ended: u64,
    events: u64,
    violations: Vec<String>,
    suppressed: u64,
}

impl RuntimeAuditor {
    /// A fresh auditor with no events seen and no violations.
    #[must_use]
    pub fn new() -> Self {
        RuntimeAuditor::default()
    }

    /// Every recorded violation, in detection order (capped; see
    /// [`suppressed_violations`](Self::suppressed_violations)).
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Violations detected past the recording cap.
    #[must_use]
    pub fn suppressed_violations(&self) -> u64 {
        self.suppressed
    }

    /// Did every check pass so far?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Events observed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    fn flag(&mut self, message: String) {
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(message);
        } else {
            self.suppressed += 1;
        }
    }

    /// Requires `workload` to be an admitted, not-yet-retired tenancy.
    fn expect_live(&mut self, event: &'static str, workload: usize) {
        match self.phases.get(workload) {
            Some(Phase::Admitted) => {}
            Some(Phase::Retired) => {
                self.flag(format!("{event} for retired workload {workload}"));
            }
            None => {
                self.flag(format!("{event} for never-admitted workload {workload}"));
            }
        }
    }

    fn tally_mut(&mut self, workload: usize) -> &mut WlTally {
        if workload >= self.tallies.len() {
            self.tallies.resize_with(workload + 1, WlTally::default);
        }
        // v10-lint: allow(P1) the line above guarantees the index exists
        &mut self.tallies[workload]
    }

    /// Cross-checks the event stream against the run's final report:
    /// tenancy counts, per-workload completions, rejections, sheds, faults,
    /// and issue/completion ordering must all agree. Call once, after the
    /// run; mismatches are recorded as violations.
    pub fn reconcile(&mut self, report: &RunReport) {
        let admitted = self.phases.len();
        if report.workloads().len() != admitted {
            self.flag(format!(
                "report covers {} tenancies but {} were admitted",
                report.workloads().len(),
                admitted
            ));
        }
        for (w, wl) in report.workloads().iter().enumerate() {
            let tally = self.tallies.get(w).copied().unwrap_or_default();
            let completed = v10_sim::convert::u64_from_usize(wl.completed_requests());
            if tally.completed_requests != completed {
                self.flag(format!(
                    "workload {w} ({}) reported {completed} completed requests \
                     but {} request_completed events were seen",
                    wl.label(),
                    tally.completed_requests
                ));
            }
            if self.issues_seen && tally.completed_ops > tally.issued {
                self.flag(format!(
                    "workload {w} ({}) completed {} operators but only {} were issued",
                    wl.label(),
                    tally.completed_ops,
                    tally.issued
                ));
            }
        }
        if self.rejected != report.rejected_admissions() {
            self.flag(format!(
                "report counts {} rejections but {} admission_rejected events were seen",
                report.rejected_admissions(),
                self.rejected
            ));
        }
        if self.faults != report.faults_injected() {
            self.flag(format!(
                "report counts {} faults but {} fault_injected events were seen",
                report.faults_injected(),
                self.faults
            ));
        }
        if self.shed != report.overload_stats().shed_requests() {
            self.flag(format!(
                "report counts {} shed requests but {} request_shed events were seen",
                report.overload_stats().shed_requests(),
                self.shed
            ));
        }
        if self.switch_ended > self.switch_started {
            self.flag(format!(
                "{} context-switch windows closed but only {} opened",
                self.switch_ended, self.switch_started
            ));
        }
    }
}

/// Conservation auditing across shard boundaries of a sharded serving
/// plane.
///
/// [`RuntimeAuditor`] checks one engine's event stream against one report.
/// A sharded fleet adds cross-cutting invariants no single core can see:
/// every offered arrival must be accounted for as a placement or a
/// rejection, every placed tenant must appear in exactly one core's final
/// report, the engine must never reject an admission the plane made (the
/// plane's slot bookkeeping is conservative), and the departure stream the
/// shards exchanged must be a valid simulated-time order — nondecreasing
/// across epochs, every message naming an in-range core, no tenant
/// departing twice. Feed the plane's outputs in with the `record_*`
/// methods, then call [`reconcile`](Self::reconcile) and assert
/// [`is_clean`](Self::is_clean).
///
/// The fault-domain extension keeps the same invariants valid *through*
/// shard crashes, region failures, and evacuations: a shard may only
/// restore after crashing (no resurrection of a worker that never went
/// dark), a core may only fail once, an evacuation must move a tenant
/// off a failed core onto a surviving one, and at reconcile every hosting
/// is either an original placement or a recorded evacuation
/// (`hosted == placed + evacuated` — a tenant hosted by two shards at once
/// shows up as an excess hosting).
#[derive(Debug, Default)]
pub struct FleetConservation {
    placed: u64,
    hosted: u64,
    completed_requests: u64,
    evacuated: u64,
    shed: u64,
    crashed_shards: Vec<usize>,
    failed_cores: Vec<usize>,
    violations: Vec<String>,
    suppressed: u64,
}

impl FleetConservation {
    /// A fresh fleet auditor with nothing recorded.
    #[must_use]
    pub fn new() -> Self {
        FleetConservation::default()
    }

    fn flag(&mut self, message: String) {
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(message);
        } else {
            self.suppressed += 1;
        }
    }

    /// Records the plane's admission flow: every offered arrival must be
    /// either placed or rejected, nothing may vanish in between.
    pub fn record_flow(&mut self, offered: usize, placed: usize, rejected: usize) {
        if placed + rejected != offered {
            self.flag(format!(
                "admission flow leaks: {offered} offered but {placed} placed + {rejected} rejected"
            ));
        }
        self.placed += v10_sim::convert::u64_from_usize(placed);
    }

    /// Records one core's final report. The engine rejecting an admission
    /// the plane made means the epoch exchange released a slot before its
    /// tenant retired — the central cross-shard safety property.
    pub fn record_core(&mut self, core: usize, report: &RunReport) {
        if report.rejected_admissions() != 0 {
            self.flag(format!(
                "core {core} engine rejected {} plane-made admissions",
                report.rejected_admissions()
            ));
        }
        self.hosted += v10_sim::convert::u64_from_usize(report.workloads().len());
        for wl in report.workloads() {
            self.completed_requests += v10_sim::convert::u64_from_usize(wl.completed_requests());
        }
    }

    /// Records the merged cross-shard departure stream: release times must
    /// be nondecreasing (a departure applied at a later epoch boundary can
    /// never predate an earlier one — otherwise it would already have been
    /// released there), every message must name an in-range core, and no
    /// tenant may depart twice.
    pub fn record_departures(&mut self, cores: usize, departures: &[v10_sim::DepartureMsg]) {
        let mut seen: Vec<usize> = Vec::with_capacity(departures.len());
        let mut last = f64::NEG_INFINITY;
        for (i, d) in departures.iter().enumerate() {
            let at = d.at_cycles.as_f64();
            if !at.is_finite() || at < last {
                self.flag(format!(
                    "departure {i} at {} after one at {last}: the epoch \
                     exchange replayed out of simulated-time order",
                    d.at_cycles
                ));
            }
            last = last.max(at);
            if d.core >= cores {
                self.flag(format!(
                    "departure {i} names core {} of a {cores}-core fleet",
                    d.core
                ));
            }
            seen.push(d.arrival);
        }
        seen.sort_unstable();
        if let Some((&arrival, _)) = seen.iter().zip(seen.iter().skip(1)).find(|(a, b)| a == b) {
            self.flag(format!("the tenant of arrival {arrival} departed twice"));
        }
        let departed = v10_sim::convert::u64_from_usize(departures.len());
        if departed > self.placed {
            self.flag(format!(
                "{departed} departures for only {} placements",
                self.placed
            ));
        }
    }

    /// Records a shard-worker crash at `at_cycles`. A shard still down from
    /// an earlier crash cannot crash again — that is a double-counted fleet
    /// fault upstream.
    pub fn record_shard_crash(&mut self, shard: usize, at_cycles: f64) {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            self.flag(format!(
                "shard {shard} crashed at degenerate time {at_cycles}"
            ));
        }
        if self.crashed_shards.contains(&shard) {
            self.flag(format!("shard {shard} crashed twice without restoring"));
            return;
        }
        self.crashed_shards.push(shard);
    }

    /// Records a shard restoring after a crash. Restoring a shard that
    /// never crashed means the plane's crash bookkeeping diverged from its
    /// fault log — the central no-resurrection property.
    pub fn record_shard_restore(&mut self, shard: usize, at_cycles: f64) {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            self.flag(format!(
                "shard {shard} restored at degenerate time {at_cycles}"
            ));
        }
        match self.crashed_shards.iter().position(|&s| s == shard) {
            Some(i) => {
                self.crashed_shards.swap_remove(i);
            }
            None => self.flag(format!("shard {shard} restored without a preceding crash")),
        }
    }

    /// Records a region (HBM affinity group) failure taking down `cores`
    /// together. A core may only fail once across all recorded regions.
    pub fn record_region_fail(&mut self, group: usize, cores: &[usize], at_cycles: f64) {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            self.flag(format!(
                "region {group} failed at degenerate time {at_cycles}"
            ));
        }
        for &core in cores {
            if self.failed_cores.contains(&core) {
                self.flag(format!(
                    "core {core} failed twice (region {group} re-failed it)"
                ));
                continue;
            }
            self.failed_cores.push(core);
        }
    }

    /// Records one orphaned tenant evacuated from a failed core onto a
    /// surviving one. The source must have failed (only dead cores orphan
    /// tenants) and the destination must still be alive.
    pub fn record_evacuation(&mut self, from_core: usize, to_core: usize, at_cycles: f64) {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            self.flag(format!(
                "evacuation from core {from_core} at degenerate time {at_cycles}"
            ));
        }
        if !self.failed_cores.contains(&from_core) {
            self.flag(format!(
                "evacuation from core {from_core}, which never failed"
            ));
        }
        if self.failed_cores.contains(&to_core) {
            self.flag(format!("evacuation onto failed core {to_core}"));
        }
        self.evacuated += 1;
    }

    /// Records one orphaned tenant shed instead of evacuated (deadline
    /// unmeetable or retries exhausted). The source must have failed.
    pub fn record_shed(&mut self, from_core: usize, at_cycles: f64) {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            self.flag(format!(
                "shed from core {from_core} at degenerate time {at_cycles}"
            ));
        }
        if !self.failed_cores.contains(&from_core) {
            self.flag(format!("shed from core {from_core}, which never failed"));
        }
        self.shed += 1;
    }

    /// Final cross-shard reconciliation: every placed tenant must be hosted
    /// by exactly one core's report, plus one extra hosting per recorded
    /// evacuation (the evacuee boards its destination core as a second
    /// tenancy record). Every crashed shard must also have restored by the
    /// end of the run. Call after every `record_*` feed.
    pub fn reconcile(&mut self) {
        if self.hosted != self.placed + self.evacuated {
            self.flag(format!(
                "{} placements + {} evacuations but {} tenancies across the per-core reports",
                self.placed, self.evacuated, self.hosted
            ));
        }
        if let Some(&shard) = self.crashed_shards.first() {
            self.flag(format!("shard {shard} never restored after its crash"));
        }
    }

    /// Orphaned tenants evacuated onto surviving cores.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn evacuated(&self) -> u64 {
        self.evacuated
    }

    /// Orphaned tenants shed instead of evacuated.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests completed across every recorded core.
    #[must_use]
    pub fn completed_requests(&self) -> u64 {
        self.completed_requests
    }

    /// Every recorded violation, in detection order (capped like
    /// [`RuntimeAuditor`]).
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Did every cross-shard check pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }
}

impl SimObserver for RuntimeAuditor {
    fn on_event(&mut self, event: SimEvent) {
        self.events += 1;
        let at = event.at();
        if !at.is_finite() {
            self.flag(format!("non-finite timestamp on {}", event.name()));
        } else if at + AT_EPS < self.last_at {
            self.flag(format!(
                "clock went backwards: {} at {at} after {}",
                event.name(),
                self.last_at
            ));
        } else {
            self.last_at = self.last_at.max(at);
        }
        match event {
            SimEvent::TenantAdmitted { workload, .. } => {
                // Tenancy indices are assigned densely in admission order,
                // so a valid admission always extends the roster by one.
                if workload != self.phases.len() {
                    self.flag(format!(
                        "tenant_admitted out of order: workload {workload} with {} admitted",
                        self.phases.len()
                    ));
                    if workload < self.phases.len() {
                        return; // duplicate; keep the original phase
                    }
                    while self.phases.len() < workload {
                        self.phases.push(Phase::Retired);
                    }
                }
                self.phases.push(Phase::Admitted);
            }
            SimEvent::TenantRetired { workload, .. } => {
                self.expect_live("tenant_retired", workload);
                if let Some(phase) = self.phases.get_mut(workload) {
                    *phase = Phase::Retired;
                }
            }
            SimEvent::OpIssued { workload, .. } => {
                self.expect_live("op_issued", workload);
                self.issues_seen = true;
                self.tally_mut(workload).issued += 1;
            }
            SimEvent::OpCompleted { workload, .. } => {
                self.expect_live("op_completed", workload);
                let issues_seen = self.issues_seen;
                let tally = self.tally_mut(workload);
                tally.completed_ops += 1;
                if issues_seen && tally.completed_ops > tally.issued {
                    let (done, issued) = (tally.completed_ops, tally.issued);
                    self.flag(format!(
                        "workload {workload} completed operator {done} with only {issued} issued"
                    ));
                }
            }
            SimEvent::RequestCompleted {
                workload,
                latency_cycles,
                ..
            } => {
                self.expect_live("request_completed", workload);
                self.tally_mut(workload).completed_requests += 1;
                if !(latency_cycles.is_finite() && latency_cycles >= 0.0) {
                    self.flag(format!(
                        "workload {workload} reported request latency {latency_cycles}"
                    ));
                }
            }
            SimEvent::OpPreempted { workload, .. } => {
                self.expect_live("op_preempted", workload);
            }
            SimEvent::DmaReady { workload, .. } => {
                self.expect_live("dma_ready", workload);
            }
            SimEvent::OpReplayed { workload, .. } => {
                self.expect_live("op_replayed", workload);
            }
            SimEvent::TenantStarved { workload, .. } => {
                self.expect_live("tenant_starved", workload);
            }
            SimEvent::WatchdogBoost { workload, .. } => {
                self.expect_live("watchdog_boost", workload);
            }
            SimEvent::DegradationApplied { workload, .. } => {
                if let Some(w) = workload {
                    self.expect_live("degradation_applied", w);
                }
            }
            SimEvent::FaultInjected { workload, .. } => {
                self.faults += 1;
                if let Some(w) = workload {
                    self.expect_live("fault_injected", w);
                }
            }
            SimEvent::AdmissionRejected { .. } => self.rejected += 1,
            SimEvent::RequestShed { .. } => self.shed += 1,
            SimEvent::CtxSwitchStarted { .. } => self.switch_started += 1,
            SimEvent::CtxSwitchEnded { .. } => {
                self.switch_ended += 1;
                if self.switch_ended > self.switch_started {
                    self.flag("a context-switch window closed that never opened".to_string());
                }
            }
            SimEvent::TimerTick { .. }
            | SimEvent::CoreRetired { .. }
            | SimEvent::OverloadEntered { .. }
            | SimEvent::OverloadCleared { .. }
            | SimEvent::ShardCrashed { .. }
            | SimEvent::ShardRestored { .. }
            | SimEvent::TenantEvacuated { .. }
            | SimEvent::RegionFailed { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunOptions, V10Engine, WorkloadSpec};
    use crate::observer::NullObserver;
    use crate::policy::Policy;
    use v10_isa::{FuKind, OpDesc, RequestTrace};
    use v10_npu::NpuConfig;

    fn spec(label: &str) -> WorkloadSpec {
        let ops = vec![
            OpDesc::builder(FuKind::Sa).compute_cycles(5_000).build(),
            OpDesc::builder(FuKind::Vu).compute_cycles(1_000).build(),
        ];
        WorkloadSpec::new(label, RequestTrace::new(ops).unwrap())
    }

    #[test]
    fn clean_run_audits_clean_and_reconciles() {
        let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, true);
        let mut auditor = RuntimeAuditor::new();
        let report = engine
            .run_observed(
                &[spec("a"), spec("b")],
                &RunOptions::new(4).unwrap(),
                &mut auditor,
            )
            .unwrap();
        assert!(auditor.events() > 0);
        auditor.reconcile(&report);
        assert!(auditor.is_clean(), "violations: {:?}", auditor.violations());
        assert_eq!(auditor.suppressed_violations(), 0);
    }

    #[test]
    fn backwards_clock_is_flagged() {
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::TimerTick { at: 100.0 });
        a.on_event(SimEvent::TimerTick { at: 50.0 });
        assert!(!a.is_clean());
        assert!(a.violations()[0].contains("clock went backwards"));
    }

    #[test]
    fn non_finite_timestamp_is_flagged() {
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::TimerTick { at: f64::NAN });
        assert!(!a.is_clean());
        assert!(a.violations()[0].contains("non-finite"));
    }

    #[test]
    fn lifecycle_violations_are_flagged() {
        // Serving a never-admitted workload.
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::OpCompleted {
            workload: 0,
            op_id: 0,
            at: 0.0,
        });
        assert!(a.violations()[0].contains("never-admitted"));

        // Serving a retired workload.
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::TenantAdmitted {
            workload: 0,
            at: 0.0,
        });
        a.on_event(SimEvent::TenantRetired {
            workload: 0,
            at: 1.0,
        });
        a.on_event(SimEvent::DmaReady {
            workload: 0,
            op_id: 1,
            at: 2.0,
        });
        assert!(!a.is_clean());
        assert!(a.violations()[0].contains("retired workload 0"));

        // Duplicate admission of the same index.
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::TenantAdmitted {
            workload: 0,
            at: 0.0,
        });
        a.on_event(SimEvent::TenantAdmitted {
            workload: 0,
            at: 1.0,
        });
        assert!(!a.is_clean());
        assert!(a.violations()[0].contains("out of order"));
    }

    #[test]
    fn completion_outrunning_issues_is_flagged() {
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::TenantAdmitted {
            workload: 0,
            at: 0.0,
        });
        a.on_event(SimEvent::OpIssued {
            workload: 0,
            fu: 0,
            kind: FuKind::Sa,
            op_id: 0,
            at: 0.0,
        });
        a.on_event(SimEvent::OpCompleted {
            workload: 0,
            op_id: 0,
            at: 1.0,
        });
        assert!(a.is_clean());
        a.on_event(SimEvent::OpCompleted {
            workload: 0,
            op_id: 1,
            at: 2.0,
        });
        assert!(!a.is_clean());
        assert!(a.violations().iter().any(|v| v.contains("only 1 issued")));
    }

    #[test]
    fn issueless_streams_skip_the_issue_ordering_check() {
        // The PMT baseline emits completions but no per-operator issues;
        // the ordering invariant must not fire there.
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::TenantAdmitted {
            workload: 0,
            at: 0.0,
        });
        a.on_event(SimEvent::OpCompleted {
            workload: 0,
            op_id: 0,
            at: 1.0,
        });
        assert!(a.is_clean(), "violations: {:?}", a.violations());
    }

    #[test]
    fn unbalanced_switch_window_is_flagged() {
        let mut a = RuntimeAuditor::new();
        a.on_event(SimEvent::CtxSwitchEnded { fu: 0, at: 0.0 });
        assert!(!a.is_clean());
        assert!(a.violations()[0].contains("never opened"));
    }

    #[test]
    fn reconcile_catches_report_mismatches() {
        let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, false);
        let mut auditor = RuntimeAuditor::new();
        let report = engine
            .run_observed(&[spec("a")], &RunOptions::new(2).unwrap(), &mut auditor)
            .unwrap();
        // Forge an extra completion the report knows nothing about.
        auditor.on_event(SimEvent::RequestCompleted {
            workload: 0,
            latency_cycles: 10.0,
            at: 1.0e9,
        });
        auditor.reconcile(&report);
        assert!(!auditor.is_clean());
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.contains("request_completed events")));
    }

    #[test]
    fn fleet_conservation_accepts_a_clean_plane() {
        let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, true);
        let report = engine
            .run_observed(
                &[spec("a"), spec("b")],
                &RunOptions::new(2).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        let mut fleet = FleetConservation::new();
        fleet.record_flow(3, 2, 1);
        fleet.record_core(0, &report);
        fleet.record_departures(
            4,
            &[
                v10_sim::DepartureMsg {
                    at_cycles: v10_sim::Cycles::new(10.0),
                    core: 0,
                    arrival: 0,
                },
                v10_sim::DepartureMsg {
                    at_cycles: v10_sim::Cycles::new(25.0),
                    core: 0,
                    arrival: 1,
                },
            ],
        );
        fleet.reconcile();
        assert!(fleet.is_clean(), "violations: {:?}", fleet.violations());
        assert_eq!(fleet.completed_requests(), 4);
    }

    #[test]
    fn fleet_conservation_flags_leaks_and_disorder() {
        let mut fleet = FleetConservation::new();
        fleet.record_flow(5, 3, 1); // one arrival vanished
        assert!(fleet.violations()[0].contains("leaks"));

        let mut fleet = FleetConservation::new();
        fleet.record_flow(2, 2, 0);
        fleet.record_departures(
            4,
            &[
                v10_sim::DepartureMsg {
                    at_cycles: v10_sim::Cycles::new(30.0),
                    core: 0,
                    arrival: 0,
                },
                v10_sim::DepartureMsg {
                    at_cycles: v10_sim::Cycles::new(10.0),
                    core: 1,
                    arrival: 1,
                },
            ],
        );
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("out of simulated-time order")));

        let mut fleet = FleetConservation::new();
        fleet.record_flow(2, 2, 0);
        fleet.record_departures(
            2,
            &[
                v10_sim::DepartureMsg {
                    at_cycles: v10_sim::Cycles::new(10.0),
                    core: 5,
                    arrival: 0,
                },
                v10_sim::DepartureMsg {
                    at_cycles: v10_sim::Cycles::new(10.0),
                    core: 5,
                    arrival: 0,
                },
            ],
        );
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("names core 5")));
        assert!(fleet.violations().iter().any(|v| v.contains("twice")));

        // Hosted/placed mismatch surfaces at reconcile.
        let mut fleet = FleetConservation::new();
        fleet.record_flow(1, 1, 0);
        fleet.reconcile();
        assert!(!fleet.is_clean());
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("1 placements + 0 evacuations but 0 tenancies")));
    }

    #[test]
    fn fleet_conservation_tracks_crash_restore_pairing() {
        let mut fleet = FleetConservation::new();
        fleet.record_shard_crash(1, 4.0e6);
        fleet.record_shard_restore(1, 8.0e6);
        fleet.reconcile();
        assert!(fleet.is_clean(), "violations: {:?}", fleet.violations());

        // Restore with no crash = resurrection of a live worker.
        let mut fleet = FleetConservation::new();
        fleet.record_shard_restore(0, 4.0e6);
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("without a preceding crash")));

        // Crash twice without a restore in between.
        let mut fleet = FleetConservation::new();
        fleet.record_shard_crash(2, 4.0e6);
        fleet.record_shard_crash(2, 8.0e6);
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("crashed twice")));

        // A crash never answered by a restore surfaces at reconcile.
        let mut fleet = FleetConservation::new();
        fleet.record_shard_crash(3, 4.0e6);
        fleet.reconcile();
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("never restored")));

        // Degenerate timestamps are their own violation.
        let mut fleet = FleetConservation::new();
        fleet.record_shard_crash(0, f64::NAN);
        assert!(fleet
            .violations()
            .iter()
            .any(|v| v.contains("degenerate time")));
    }

    #[test]
    fn fleet_conservation_tracks_region_and_evacuation_flow() {
        let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, true);
        let report = engine
            .run_observed(
                &[spec("a"), spec("b")],
                &RunOptions::new(2).unwrap(),
                &mut NullObserver,
            )
            .unwrap();
        // Two placements; one of them evacuated to a surviving core hosts
        // twice, so hosted = placed + evacuated reconciles.
        let mut fleet = FleetConservation::new();
        fleet.record_flow(2, 2, 0);
        fleet.record_region_fail(0, &[0, 1], 6.0e6);
        fleet.record_evacuation(0, 2, 6.5e6);
        fleet.record_shed(1, 7.0e6);
        fleet.record_core(0, &report); // the pre-fail hosting records
        fleet.record_core(2, &{
            let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, true);
            engine
                .run_observed(
                    &[spec("evac")],
                    &RunOptions::new(2).unwrap(),
                    &mut NullObserver,
                )
                .unwrap()
        });
        fleet.reconcile();
        assert!(fleet.is_clean(), "violations: {:?}", fleet.violations());
        assert_eq!(fleet.evacuated(), 1);
        assert_eq!(fleet.shed(), 1);

        // Evacuating from a healthy core, onto a dead one, double-failing a
        // core, and shedding from a healthy core are each violations.
        let mut fleet = FleetConservation::new();
        fleet.record_region_fail(0, &[0], 1.0e6);
        fleet.record_region_fail(1, &[0], 2.0e6);
        fleet.record_evacuation(3, 0, 2.5e6);
        fleet.record_shed(4, 3.0e6);
        let v = fleet.violations();
        assert!(v.iter().any(|m| m.contains("failed twice")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("which never failed")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("onto failed core 0")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("shed from core 4")), "{v:?}");
    }

    #[test]
    fn violation_recording_is_bounded() {
        let mut a = RuntimeAuditor::new();
        for _ in 0..(MAX_RECORDED + 10) {
            a.on_event(SimEvent::CtxSwitchEnded { fu: 0, at: 0.0 });
        }
        assert_eq!(a.violations().len(), MAX_RECORDED);
        assert!(a.suppressed_violations() >= 10);
    }
}
