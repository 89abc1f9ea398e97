//! SLO-aware recovery for the fleet plane: bounded re-admission with
//! exponential backoff across cores, load shedding when fault-reduced
//! capacity makes a deadline unmeetable, and the report a multi-core serve
//! returns.
//!
//! A region failure in
//! [`FleetPlane::serve_faulted`](crate::fleet::FleetPlane::serve_faulted)
//! retires every core of one HBM group at an epoch boundary and displaces
//! each resident whose request quota was still open. Each displaced tenant
//! climbs a fixed ladder of five attempts: attempt `k` fires at
//! `fail + 1e6·(2^k − 1)` cycles and asks the fleet's placement for a core;
//! the tenant is shed once even an ideally-served remainder could not
//! finish by its deadline (8× its ideal single-tenant service time after
//! arrival), or once every attempt has backed off. The attempts see
//! the fleet's occupancy as of the boundary (plus the evacuees already
//! re-placed there); between attempts only the deadline test and link
//! partition windows change. Transient faults never reach this layer: the
//! single-core engine absorbs them by input-checkpoint replay
//! (`v10_core::serve_design_stressed`).
//!
//! [`ClusterServeReport`] holds the serve's final per-core reports and its
//! recovery ledger (requeues, sheds, retired cores), and
//! [`ConservationLedger`] reconciles the two.
//!
//! Everything here is deterministic: the same arrivals and fault plan
//! produce byte-identical reports and event streams, regardless of how the
//! caller parallelizes the surrounding sweep.

use std::sync::Arc;

use v10_core::RunReport;
use v10_sim::convert::usize_to_f64;
use v10_sim::{LatencySummary, V10Result};

/// A displaced tenant's deadline, as a multiple of its ideal single-tenant
/// service time: admitted at `t` with quota `q` over a trace of `w`
/// compute cycles per request, it is due at `t + 8 · q · w`.
const DEADLINE_FACTOR: f64 = 8.0;
/// Re-admission attempt `k` (0-based) fires this many cycles times
/// `2^k − 1` after the failure.
const BACKOFF_BASE_CYCLES: f64 = 1.0e6;
/// Retries after the immediate first attempt: five attempts in all.
const MAX_RETRIES: u32 = 4;

/// Runs the backoff-and-shed ladder for one displaced tenant: attempt `k`
/// fires at `start + BACKOFF_BASE_CYCLES · (2^k − 1)` and calls `step` with
/// its fire time. `step` returns the core the tenant lands on, or `None` to
/// back off to the next attempt. The tenant is shed as soon as even ideal
/// service from an attempt's fire time misses its deadline, or once
/// `MAX_RETRIES + 1` attempts have backed off.
///
/// # Errors
///
/// Propagates `step`'s errors.
pub(crate) fn readmit(
    tenant: Displaced,
    start: f64,
    mut step: impl FnMut(f64) -> V10Result<Option<usize>>,
) -> V10Result<Readmission> {
    let deadline =
        tenant.arrived_at + DEADLINE_FACTOR * usize_to_f64(tenant.quota) * tenant.per_request;
    let ideal_remaining = usize_to_f64(tenant.remaining) * tenant.per_request;
    let mut last_attempt_at = start;
    for attempt in 0..=MAX_RETRIES {
        let exp = f64::from(2u32.saturating_pow(attempt)) - 1.0;
        let at = start + BACKOFF_BASE_CYCLES * exp;
        last_attempt_at = at;
        if at + ideal_remaining > deadline {
            // Even perfect service from here misses the deadline:
            // shedding now beats queueing doomed work.
            return Ok(Readmission::Shed(tenant.shed(at, true)));
        }
        if let Some(to_core) = step(at)? {
            return Ok(Readmission::Requeued(RequeueRecord {
                label: tenant.label,
                from_core: tenant.from_core,
                to_core,
                at_cycles: at,
                attempt,
                remaining_requests: tenant.remaining,
            }));
        }
    }
    Ok(Readmission::Shed(tenant.shed(last_attempt_at, false)))
}

/// One displaced tenant, as [`readmit`] sees it.
#[derive(Debug)]
pub(crate) struct Displaced {
    /// The tenant's label, shared with its arrival.
    pub(crate) label: Arc<str>,
    /// The core the fault evicted it from.
    pub(crate) from_core: usize,
    /// The original arrival: deadlines anchor here even after requeues.
    pub(crate) arrived_at: f64,
    /// Full original quota (deadline sizing).
    pub(crate) quota: usize,
    /// Requests still open.
    pub(crate) remaining: usize,
    /// Ideal single-tenant service cycles per request.
    pub(crate) per_request: f64,
}

impl Displaced {
    fn shed(self, at_cycles: f64, deadline_unmeetable: bool) -> ShedRecord {
        ShedRecord {
            label: self.label,
            from_core: self.from_core,
            at_cycles,
            lost_requests: self.remaining,
            deadline_unmeetable,
        }
    }
}

/// Where [`readmit`] left a displaced tenant.
#[derive(Debug, PartialEq)]
pub(crate) enum Readmission {
    /// Landed on another core.
    Requeued(RequeueRecord),
    /// Given up on.
    Shed(ShedRecord),
}

/// One displaced tenant successfully re-admitted onto another core.
#[derive(Debug, Clone, PartialEq)]
pub struct RequeueRecord {
    /// The tenant's label, shared with its arrival.
    pub label: Arc<str>,
    /// The core the permanent fault evicted it from.
    pub from_core: usize,
    /// The core that took it.
    pub to_core: usize,
    /// When the successful attempt fired, in cycles.
    pub at_cycles: f64,
    /// 0-based index of the successful attempt (0 = immediate).
    pub attempt: u32,
    /// Requests still open when displaced (the re-admission quota).
    pub remaining_requests: usize,
}

/// One displaced tenant the recovery ladder gave up on.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// The tenant's label, shared with its arrival.
    pub label: Arc<str>,
    /// The core the permanent fault evicted it from.
    pub from_core: usize,
    /// When shedding was decided, in cycles.
    pub at_cycles: f64,
    /// Requests left unserved.
    pub lost_requests: usize,
    /// True when shed because no attempt could meet the deadline (as
    /// opposed to every attempt backing off against a full fleet or a
    /// partitioned uplink).
    pub deadline_unmeetable: bool,
}

/// The cluster-wide session-conservation identity, computed over the final
/// per-core reports of a serve. Every admission entry the cluster ever
/// offered a core — the initially placed sessions plus each successful
/// requeue — must end in exactly one of three per-core outcomes: boarded
/// (it appears in that core's workload reports, possibly partially
/// served), rejected by the engine, or shed by an overload controller's
/// deadline-shed rung (none in a fleet serve, whose per-core runs are
/// disarmed). [`holds`](Self::holds) asserts that identity; it is the
/// fleet-level extension of the single-core `session-conservation`
/// invariant across region failures and evacuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationLedger {
    offered_sessions: u64,
    requeued_sessions: u64,
    boarded_tenancies: u64,
    engine_rejections: u64,
    overload_shed_sessions: u64,
}

impl ConservationLedger {
    /// Sessions initially placed onto cores.
    #[must_use]
    pub fn offered_sessions(&self) -> u64 {
        self.offered_sessions
    }

    /// Admissions the engines turned away (full table at arrival, or an
    /// arrival after the core retired).
    #[must_use]
    pub fn engine_rejections(&self) -> u64 {
        self.engine_rejections
    }

    /// Left-hand side of the identity: every per-core outcome.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.boarded_tenancies + self.engine_rejections + self.overload_shed_sessions
    }

    /// Right-hand side of the identity: every admission entry offered.
    #[must_use]
    pub fn expected(&self) -> u64 {
        self.offered_sessions + self.requeued_sessions
    }

    /// Does the conservation identity hold?
    #[must_use]
    pub fn holds(&self) -> bool {
        self.accounted() == self.expected()
    }
}

/// The outcome of a multi-core serve
/// ([`FleetPlane::serve`](crate::fleet::FleetPlane::serve)): final per-core
/// reports plus the recovery ledger of its evacuations.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServeReport {
    offered_sessions: usize,
    per_core: Vec<Option<RunReport>>,
    requeued: Vec<RequeueRecord>,
    shed: Vec<ShedRecord>,
    retired_cores: Vec<(usize, f64)>,
}

impl ClusterServeReport {
    /// Assembles a report from the fleet plane's parts: the final per-core
    /// reports and the recovery ledger of its evacuations.
    pub(crate) fn from_parts(
        offered_sessions: usize,
        per_core: Vec<Option<RunReport>>,
        requeued: Vec<RequeueRecord>,
        shed: Vec<ShedRecord>,
        retired_cores: Vec<(usize, f64)>,
    ) -> Self {
        ClusterServeReport {
            offered_sessions,
            per_core,
            requeued,
            shed,
            retired_cores,
        }
    }

    /// Sessions initially placed onto cores (requeues excluded).
    #[must_use]
    pub fn offered_sessions(&self) -> usize {
        self.offered_sessions
    }

    /// Computes the cluster-wide session-conservation ledger over the
    /// final per-core reports (see [`ConservationLedger`]).
    #[must_use]
    pub fn conservation(&self) -> ConservationLedger {
        let boarded = self
            .reports()
            .map(|r| r.workloads().len() as u64)
            .sum::<u64>();
        let engine_rejections = self.reports().map(RunReport::rejected_admissions).sum();
        let overload_shed = self
            .reports()
            .map(|r| r.overload_stats().shed_requests())
            .sum();
        ConservationLedger {
            offered_sessions: self.offered_sessions as u64,
            requeued_sessions: self.requeued.len() as u64,
            boarded_tenancies: boarded,
            engine_rejections,
            overload_shed_sessions: overload_shed,
        }
    }

    /// Final run report per core (`None` for cores that never hosted a
    /// tenant).
    #[must_use]
    pub fn per_core(&self) -> &[Option<RunReport>] {
        &self.per_core
    }

    /// Tenants re-admitted onto another core, in recovery order.
    #[must_use]
    pub fn requeued(&self) -> &[RequeueRecord] {
        &self.requeued
    }

    /// Tenants shed, in recovery order.
    #[must_use]
    pub fn shed(&self) -> &[ShedRecord] {
        &self.shed
    }

    /// Cores retired by permanent faults, with retirement times, ascending
    /// by core index.
    #[must_use]
    pub fn retired_cores(&self) -> &[(usize, f64)] {
        &self.retired_cores
    }

    /// Requests served across the cluster — goodput's numerator. Work a
    /// failed core completed *before* retiring counts (those responses were
    /// delivered); requeued tenants serve only their remaining quota, so
    /// nothing is double-counted.
    #[must_use]
    pub fn completed_requests(&self) -> usize {
        self.reports()
            .flat_map(RunReport::workloads)
            .map(|w| w.completed_requests())
            .sum()
    }

    /// Requests lost to shedding.
    #[must_use]
    pub fn shed_requests(&self) -> usize {
        self.shed.iter().map(|s| s.lost_requests).sum()
    }

    /// Fraction of requests that reached a serving decision but were shed:
    /// `shed / (completed + shed)`. Zero when nothing was offered.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        let done = usize_to_f64(self.completed_requests());
        let lost = usize_to_f64(self.shed_requests());
        if done + lost == 0.0 {
            return 0.0;
        }
        lost / (done + lost)
    }

    /// Total checkpoint-replay overhead across the cluster, in cycles.
    #[must_use]
    pub fn replay_overhead_cycles(&self) -> f64 {
        self.reports().map(RunReport::replay_overhead_cycles).sum()
    }

    /// Total faults injected across the cluster.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.reports().map(RunReport::faults_injected).sum()
    }

    /// Every request latency across the cluster, sorted ascending (total
    /// order over the raw bit patterns, so the result is deterministic).
    #[must_use]
    pub fn latencies_cycles(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .reports()
            .flat_map(RunReport::workloads)
            .flat_map(|w| w.latencies_cycles())
            .copied()
            .collect();
        all.sort_by(|a, b| a.total_cmp(b));
        all
    }

    /// Summary statistics over every request latency across the cluster,
    /// or `None` with no completions. Uses the workspace-wide
    /// [`LatencySummary`] convention, so cluster tails aggregate exactly
    /// like the serving benches'.
    #[must_use]
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_samples(&self.latencies_cycles())
    }

    /// The p99 request latency across the cluster, in cycles (interpolated
    /// [`LatencySummary`] convention). Zero with no completions.
    #[must_use]
    pub fn p99_latency_cycles(&self) -> f64 {
        self.latency_summary().map_or(0.0, |s| s.p99())
    }

    fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.per_core.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A displaced tenant with ideal service of 1e6 cycles per request: 3
    /// requests still open out of 4, arrived at 0, so it is due at
    /// `DEADLINE_FACTOR · 4e6` cycles.
    fn displaced() -> Displaced {
        Displaced {
            label: "t".into(),
            from_core: 1,
            arrived_at: 0.0,
            quota: 4,
            remaining: 3,
            per_request: 1.0e6,
        }
    }

    /// Attempt `k`'s fire time on a ladder started at `start`.
    fn fire_at(start: f64, k: u32) -> f64 {
        start + BACKOFF_BASE_CYCLES * f64::from((1u32 << k) - 1)
    }

    #[test]
    fn readmit_backs_off_exponentially_then_sheds() {
        // From 50 cycles, 3e6 cycles of ideal work still fit after the last
        // attempt (1.5e7 later at the production constants), so every
        // attempt backs off.
        let mut fired = Vec::new();
        let out = readmit(displaced(), 50.0, |at| {
            fired.push(at);
            Ok(None)
        })
        .unwrap();
        let every: Vec<f64> = (0..=MAX_RETRIES).map(|k| fire_at(50.0, k)).collect();
        assert_eq!(fired, every);
        // Retries exhaust: shed, stamped with the last attempt's time.
        let Readmission::Shed(shed) = out else {
            panic!("{out:?}")
        };
        assert_eq!(shed.at_cycles, fire_at(50.0, MAX_RETRIES));
        assert!(!shed.deadline_unmeetable);
        assert_eq!((shed.from_core, shed.lost_requests), (1, 3));

        // A `None` step backs off; the first `Some` lands the tenant.
        let mut attempts = 0;
        let out = readmit(displaced(), 50.0, |_| {
            attempts += 1;
            Ok((attempts == 2).then_some(7))
        })
        .unwrap();
        assert_eq!(
            out,
            Readmission::Requeued(RequeueRecord {
                label: "t".into(),
                from_core: 1,
                to_core: 7,
                at_cycles: fire_at(50.0, 1),
                attempt: 1,
                remaining_requests: 3,
            })
        );

        // Started so that ideal service from attempt 2 ends exactly at the
        // deadline: attempts 0 to 2 fire, and attempt 3 cannot finish in
        // time and sheds before calling `step`.
        let t = displaced();
        let deadline = DEADLINE_FACTOR * usize_to_f64(t.quota) * t.per_request;
        let start = deadline - usize_to_f64(t.remaining) * t.per_request - fire_at(0.0, 2);
        let mut fired = Vec::new();
        let out = readmit(t, start, |at| {
            fired.push(at);
            Ok(None)
        })
        .unwrap();
        let fitting: Vec<f64> = (0..3).map(|k| fire_at(start, k)).collect();
        assert_eq!(fired, fitting);
        let Readmission::Shed(shed) = out else {
            panic!("{out:?}")
        };
        assert_eq!(shed.at_cycles, fire_at(start, 3));
        assert!(shed.deadline_unmeetable);
    }
}
