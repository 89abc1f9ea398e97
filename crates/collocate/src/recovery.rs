//! SLO-aware serving under faults: checkpoint-replay recovery inside each
//! core, bounded re-admission with exponential backoff across cores, and
//! load shedding when fault-reduced capacity makes a deadline unmeetable.
//!
//! [`MultiCoreAdmission::serve`] plays a planned multi-core
//! deployment forward under per-core [`FaultPlan`]s. Transient faults are
//! absorbed inside the affected core by the engine's input-checkpoint
//! replay (the slot-level V10 recovery of `v10_core::serve_design_stressed`)
//! and never reach this layer. A *permanent* core fault does: the core
//! drains, its [`ClusterState`](v10_npu::ClusterState) slots retire, and
//! every tenant whose request quota was still open is handed back to
//! admission. The controller then retries placement with exponential
//! backoff in simulated time — attempt `k` fires at
//! `fail + base·(2^k − 1)` — releasing slots whose tenants have departed
//! in the meantime, and sheds the tenant outright once even an
//! ideally-served remainder could not finish by its deadline. The fleet
//! plane's evacuations climb the same ladder.
//!
//! Everything here is planning-time and deterministic: the same admissions,
//! fault plans, and policy produce byte-identical reports and event
//! streams, regardless of how the caller parallelizes the surrounding
//! sweep.

use v10_core::{
    serve_design_stressed, Admission, AdmissionSchedule, Design, OverloadController, RunOptions,
    RunReport, SimEvent, SimObserver,
};
use v10_npu::NpuConfig;
use v10_sim::convert::{u64_to_f64, usize_to_f64};
use v10_sim::{FaultPlan, LatencySummary, V10Error, V10Result};

use crate::placer::{MultiCoreAdmission, Placement};

/// Knobs for the re-admission/shedding policy of
/// [`MultiCoreAdmission::serve`].
///
/// The deadline of a tenant admitted at `t` with quota `q` over a trace of
/// `w` compute cycles per request is `t + deadline_factor · q · w`: a
/// multiple of its ideal single-tenant service time. Re-admission attempt
/// `k` (0-based) fires at `fail + backoff_base_cycles · (2^k − 1)`; after
/// `max_retries + 1` failed attempts — or as soon as no attempt can meet
/// the deadline — the tenant is shed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    deadline_factor: f64,
    backoff_base_cycles: f64,
    max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            deadline_factor: 8.0,
            backoff_base_cycles: 1.0e6,
            max_retries: 4,
        }
    }
}

impl RecoveryPolicy {
    /// The default policy (deadline 8× ideal service, 1M-cycle backoff
    /// base, 5 attempts).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the deadline as a multiple of the tenant's ideal single-tenant
    /// service time.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `factor` is finite and
    /// at least 1 (a sub-ideal deadline is unmeetable by construction).
    #[cfg(test)]
    pub(crate) fn with_deadline_factor(mut self, factor: f64) -> V10Result<Self> {
        if !(factor.is_finite() && factor >= 1.0) {
            return Err(V10Error::invalid(
                "RecoveryPolicy::with_deadline_factor",
                format!("deadline factor must be finite and >= 1, got {factor}"),
            ));
        }
        self.deadline_factor = factor;
        Ok(self)
    }

    /// Sets the exponential-backoff base in cycles.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `cycles` is finite and
    /// positive.
    #[cfg(test)]
    pub(crate) fn with_backoff_base_cycles(mut self, cycles: f64) -> V10Result<Self> {
        if !(cycles.is_finite() && cycles > 0.0) {
            return Err(V10Error::invalid(
                "RecoveryPolicy::with_backoff_base_cycles",
                format!("backoff base must be finite and positive, got {cycles}"),
            ));
        }
        self.backoff_base_cycles = cycles;
        Ok(self)
    }

    /// Sets the number of re-admission retries after the immediate first
    /// attempt (so `max_retries + 1` attempts total).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// The deadline multiple over ideal service time.
    #[must_use]
    pub fn deadline_factor(&self) -> f64 {
        self.deadline_factor
    }

    /// The backoff base in cycles.
    #[must_use]
    pub fn backoff_base_cycles(&self) -> f64 {
        self.backoff_base_cycles
    }

    /// Retries after the first attempt.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Runs the backoff-and-shed ladder for one displaced tenant: attempt
    /// `k` fires at `start + backoff_base_cycles · (2^k − 1)` and calls
    /// `step` with its fire time. `step` returns the core the tenant lands
    /// on, or `None` to back off to the next attempt. The tenant is shed
    /// as soon as even ideal service from an attempt's fire time misses
    /// its deadline, or once `max_retries + 1` attempts have backed off.
    ///
    /// # Errors
    ///
    /// Propagates `step`'s errors.
    pub(crate) fn readmit(
        &self,
        tenant: Displaced,
        start: f64,
        mut step: impl FnMut(f64) -> V10Result<Option<usize>>,
    ) -> V10Result<Readmission> {
        let deadline = tenant.arrived_at
            + self.deadline_factor * usize_to_f64(tenant.quota) * tenant.per_request;
        let ideal_remaining = usize_to_f64(tenant.remaining) * tenant.per_request;
        let mut last_attempt_at = start;
        for attempt in 0..=self.max_retries {
            let exp = f64::from(2u32.saturating_pow(attempt)) - 1.0;
            let at = start + self.backoff_base_cycles * exp;
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
}

/// One displaced tenant, as [`RecoveryPolicy::readmit`] sees it.
#[derive(Debug)]
pub(crate) struct Displaced {
    /// The tenant's label.
    pub(crate) label: String,
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

/// Where [`RecoveryPolicy::readmit`] left a displaced tenant.
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
    /// The tenant's label.
    pub label: String,
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

/// One displaced tenant the controller gave up on.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// The tenant's label.
    pub label: String,
    /// The core the permanent fault evicted it from.
    pub from_core: usize,
    /// When shedding was decided, in cycles.
    pub at_cycles: f64,
    /// Requests left unserved.
    pub lost_requests: usize,
    /// True when shed because no attempt could meet the deadline (as
    /// opposed to exhausting `max_retries` against a full cluster).
    pub deadline_unmeetable: bool,
}

/// The cluster-wide session-conservation identity, computed over the final
/// per-core reports of a serve. Every admission entry the cluster ever
/// offered a core — the initially placed sessions plus each successful
/// requeue — must end in exactly one of three per-core outcomes: boarded
/// (it appears in that core's workload reports, possibly partially
/// served), rejected by the engine, or shed by the overload controller's
/// deadline-shed rung. [`holds`](Self::holds) asserts that identity; it is
/// the fleet-level extension of the single-core `session-conservation`
/// invariant and covers the combined overload×fault path.
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

    /// Displaced sessions re-admitted onto another core (each adds one
    /// admission entry on the receiving core).
    #[must_use]
    pub fn requeued_sessions(&self) -> u64 {
        self.requeued_sessions
    }

    /// Tenancies that boarded a core, summed over final per-core reports.
    #[must_use]
    pub fn boarded_tenancies(&self) -> u64 {
        self.boarded_tenancies
    }

    /// Admissions the engines turned away (full table at arrival, or an
    /// arrival after the core retired).
    #[must_use]
    pub fn engine_rejections(&self) -> u64 {
        self.engine_rejections
    }

    /// Queued sessions the overload controllers' deadline-shed rung
    /// dropped.
    #[must_use]
    pub fn overload_shed_sessions(&self) -> u64 {
        self.overload_shed_sessions
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

/// The outcome of a faulted multi-core serve: final per-core reports plus
/// the controller's recovery ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServeReport {
    offered_sessions: usize,
    per_core: Vec<Option<RunReport>>,
    requeued: Vec<RequeueRecord>,
    shed: Vec<ShedRecord>,
    retired_cores: Vec<(usize, f64)>,
}

impl ClusterServeReport {
    /// Assembles a report from the serving plane's parts (the sharded fleet
    /// plane produces the same report shape with an empty recovery ledger).
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

/// A tenant the planning loop tracks: where it sits, what it still owes,
/// and when it must be done.
#[derive(Debug, Clone)]
struct Tenant {
    admission: Admission,
    class: usize,
    core: usize,
    /// The original arrival: deadlines anchor here even after requeues.
    arrived_at: f64,
    /// Full original quota (deadline sizing).
    quota: usize,
    /// Set once the tenant's slot no longer counts against its core
    /// (departed, shed, or the core failed).
    slot_released: bool,
    decision_index: usize,
}

impl MultiCoreAdmission<'_> {
    /// Serves the planned deployment under per-core [`FaultPlan`]s with
    /// checkpoint-replay recovery and SLO-aware overload control (see the
    /// module docs for the mechanism), each core additionally running under
    /// a fresh clone of `controller` per recompute (so hysteresis state never
    /// leaks between recomputes). `fault_plans` must have one entry per core.
    /// With all-empty plans and a disarmed controller the result is
    /// bit-identical to serving each of [`schedules`](Self::schedules)
    /// directly.
    ///
    /// The controller's recovery decisions — [`SimEvent::RequestRequeued`]
    /// and [`SimEvent::RequestShed`], with `arrival` indexing into
    /// [`decisions`](Self::decisions) — go to `observer` in decision order.
    /// Per-core engine streams stay internal; replay a single core through
    /// `v10_core::serve_design_stressed_observed` for an operator-level
    /// timeline.
    ///
    /// [`ClusterServeReport::conservation`] reconciles the result: every
    /// placed or requeued session ends boarded, engine-rejected, or
    /// overload-shed. The occupancy state reflects the post-recovery cluster
    /// afterwards, so later [`offer`](Self::offer)s see failed cores as full.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `fault_plans` does not have
    /// exactly one plan per core or for `Design::Pmt` with an armed
    /// controller (no priority mechanism to degrade), and propagates engine
    /// errors from the underlying runs.
    #[allow(clippy::too_many_arguments)]
    pub fn serve<O: SimObserver>(
        &mut self,
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
        fault_plans: &[FaultPlan],
        policy: &RecoveryPolicy,
        controller: &OverloadController,
        observer: &mut O,
    ) -> V10Result<ClusterServeReport> {
        let cores = self.state.cores();
        if fault_plans.len() != cores {
            return Err(V10Error::invalid(
                "MultiCoreAdmission::serve",
                format!(
                    "{} fault plans for a {cores}-core cluster (need one per core)",
                    fault_plans.len()
                ),
            ));
        }

        let mut tenants = self.initial_tenants()?;
        let offered_sessions = tenants.len();
        // Admissions the recovery loop appends, per core.
        let mut extra: Vec<Vec<Admission>> = vec![Vec::new(); cores];
        let mut reports: Vec<Option<RunReport>> = vec![None; cores];
        let mut dirty = vec![true; cores];
        let mut processed = vec![false; cores];
        let mut requeued = Vec::new();
        let mut shed = Vec::new();
        let mut retired_cores = Vec::new();

        loop {
            for core in 0..cores {
                if !dirty[core] {
                    continue;
                }
                dirty[core] = false;
                let mut entries = self.per_core[core].clone();
                entries.extend(extra[core].iter().cloned());
                reports[core] = if entries.is_empty() {
                    None
                } else {
                    let schedule = AdmissionSchedule::new(entries)?;
                    Some(serve_design_stressed(
                        design,
                        &schedule,
                        config,
                        opts,
                        fault_plans.get(core).unwrap_or(&FaultPlan::none()),
                        controller.clone(),
                    )?)
                };
            }

            // The earliest unprocessed permanent fault drives the next
            // recovery round; ties break on core index for determinism.
            let next = reports
                .iter()
                .enumerate()
                .filter(|&(core, _)| !processed[core])
                .filter_map(|(core, r)| {
                    r.as_ref()
                        .and_then(RunReport::core_retired_at)
                        .map(|t| (core, t))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let Some((failed_core, fail_at)) = next else {
                break;
            };
            processed[failed_core] = true;
            retired_cores.push((failed_core, fail_at));
            self.state.fail(failed_core)?;
            for t in tenants.iter_mut().filter(|t| t.core == failed_core) {
                t.slot_released = true;
            }

            // Displaced tenants, in admission order: open quota when the
            // core died, or turned away at the retirement instant.
            let displaced = self.displaced(&tenants, &reports, failed_core, fail_at);
            for (tenant_idx, remaining) in displaced {
                self.replace_tenant(
                    tenant_idx,
                    remaining,
                    fail_at,
                    policy,
                    &mut tenants,
                    &reports,
                    &mut extra,
                    &mut dirty,
                    &mut requeued,
                    &mut shed,
                    observer,
                )?;
            }
        }

        retired_cores.sort_by_key(|r| r.0);
        Ok(ClusterServeReport {
            offered_sessions,
            per_core: reports,
            requeued,
            shed,
            retired_cores,
        })
    }

    /// The initially placed tenants, in decision order, with their behavior
    /// classes recovered from the admission ledger.
    fn initial_tenants(&self) -> V10Result<Vec<Tenant>> {
        let mut tenants = Vec::new();
        // Walk decisions and per-core admission lists in lockstep: offers
        // append to both in order, so the i-th accepted decision for a core
        // pairs with that core's i-th admission.
        let mut cursor = vec![0usize; self.per_core.len()];
        for (decision_index, d) in self.decisions.iter().enumerate() {
            let Placement::Core(core) = d.placement else {
                continue;
            };
            let slot = cursor.get_mut(core).ok_or_else(|| {
                V10Error::invalid("MultiCoreAdmission::serve", "decision core out of range")
            })?;
            let admission = self
                .per_core
                .get(core)
                .and_then(|list| list.get(*slot))
                .ok_or_else(|| {
                    V10Error::invalid(
                        "MultiCoreAdmission::serve",
                        "admission ledger out of sync with decisions",
                    )
                })?
                .clone();
            *slot += 1;
            tenants.push(Tenant {
                arrived_at: admission.at_cycles(),
                quota: admission.requests(),
                class: self.placer.class_of_model(d.model),
                core,
                slot_released: false,
                decision_index,
                admission,
            });
        }
        Ok(tenants)
    }

    /// Tenants on `failed_core` with open quota at `fail_at`, as
    /// `(tenant index, remaining requests)` in admission order.
    fn displaced(
        &self,
        tenants: &[Tenant],
        reports: &[Option<RunReport>],
        failed_core: usize,
        fail_at: f64,
    ) -> Vec<(usize, usize)> {
        let report = reports.get(failed_core).and_then(Option::as_ref);
        let mut out = Vec::new();
        for (i, t) in tenants.iter().enumerate() {
            if t.core != failed_core {
                continue;
            }
            let served = report
                .and_then(|r| {
                    r.workloads()
                        .iter()
                        .find(|w| w.label() == t.admission.spec().label())
                })
                .map(|w| w.completed_requests());
            let remaining = match served {
                Some(done) => t.admission.requests().saturating_sub(done),
                // Never boarded: displaced only if the retirement (not a
                // full table) turned it away.
                None if t.admission.at_cycles() >= fail_at => t.admission.requests(),
                None => 0,
            };
            if remaining > 0 {
                out.push((i, remaining));
            }
        }
        out
    }

    /// Runs the backoff-and-shed ladder for one displaced tenant, freeing
    /// departed tenants' slots before each placement attempt.
    #[allow(clippy::too_many_arguments)]
    fn replace_tenant<O: SimObserver>(
        &mut self,
        tenant_idx: usize,
        remaining: usize,
        fail_at: f64,
        policy: &RecoveryPolicy,
        tenants: &mut Vec<Tenant>,
        reports: &[Option<RunReport>],
        extra: &mut [Vec<Admission>],
        dirty: &mut [bool],
        requeued: &mut Vec<RequeueRecord>,
        shed: &mut Vec<ShedRecord>,
        observer: &mut O,
    ) -> V10Result<()> {
        let t = &tenants[tenant_idx];
        let (class, arrived_at, quota, decision_index) =
            (t.class, t.arrived_at, t.quota, t.decision_index);
        let spec = t.admission.spec().clone();
        let displaced = Displaced {
            label: spec.label().to_string(),
            from_core: t.core,
            arrived_at,
            quota,
            remaining,
            per_request: u64_to_f64(spec.trace().total_compute_cycles()),
        };
        // A displaced arrival can only restart from when it existed.
        let start = fail_at.max(arrived_at);
        let readmission = policy.readmit(displaced, start, |at| {
            self.release_departed(tenants, reports, at)?;
            Ok(match self.placer.place_class(class, &self.state)? {
                Placement::Core(core) => Some(core),
                Placement::Reject => None,
            })
        })?;
        match readmission {
            Readmission::Requeued(record) => {
                let (to_core, at) = (record.to_core, record.at_cycles);
                self.state.admit(to_core, class)?;
                let admission = Admission::new(spec, at, remaining)?;
                extra[to_core].push(admission.clone());
                dirty[to_core] = true;
                observer.on_event(SimEvent::RequestRequeued {
                    arrival: decision_index,
                    from_core: record.from_core,
                    to_core,
                    at,
                });
                requeued.push(record);
                tenants.push(Tenant {
                    arrived_at,
                    quota,
                    admission,
                    class,
                    core: to_core,
                    slot_released: false,
                    decision_index,
                });
            }
            Readmission::Shed(record) => {
                observer.on_event(SimEvent::RequestShed {
                    arrival: decision_index,
                    at: record.at_cycles,
                });
                shed.push(record);
            }
        }
        Ok(())
    }

    /// Frees the slots of tenants whose latest report shows them departed
    /// by `now` — planning-time release so a backoff retry sees the
    /// capacity that exists at its fire time.
    fn release_departed(
        &mut self,
        tenants: &mut [Tenant],
        reports: &[Option<RunReport>],
        now: f64,
    ) -> V10Result<()> {
        for t in tenants.iter_mut().filter(|t| !t.slot_released) {
            let departed = reports
                .get(t.core)
                .and_then(Option::as_ref)
                .and_then(|r| {
                    r.workloads()
                        .iter()
                        .find(|w| w.label() == t.admission.spec().label())
                })
                .and_then(|w| w.retired_at_cycles())
                .is_some_and(|retired| retired <= now);
            if departed {
                t.slot_released = true;
                self.state.release(t.core, t.class)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_dataset;
    use crate::eval::PairPerfCache;
    use crate::pipeline::ClusteringPipeline;
    use crate::placer::OnlinePlacer;
    use v10_core::{serve_design, Design, NullObserver};
    use v10_workloads::{Model, TimedArrival};

    fn pipeline() -> ClusteringPipeline {
        let models = [
            Model::Bert,
            Model::Ncf,
            Model::Dlrm,
            Model::ResNet,
            Model::Mnist,
            Model::RetinaNet,
        ];
        let points = build_dataset(&models, &[], 3);
        let mut cache = PairPerfCache::new(2, 3);
        ClusteringPipeline::fit(&points, 3, 3, &mut cache, 3)
    }

    fn arrival(label: &str, model: Model, at: f64, requests: usize) -> TimedArrival {
        TimedArrival::new(
            label,
            model,
            model.default_profile().synthesize(7),
            at,
            requests,
        )
        .unwrap()
    }

    /// Offers four small tenants to a 2x2 cluster with a permissive
    /// threshold (everything collocates).
    fn controller(p: &ClusteringPipeline) -> MultiCoreAdmission<'_> {
        let placer = OnlinePlacer::new(p).with_threshold(0.01).unwrap();
        let mut ctl = MultiCoreAdmission::new(placer, 2, 2).unwrap();
        for (i, at) in [0.0, 20_000.0, 40_000.0, 60_000.0].iter().enumerate() {
            let a = arrival(&format!("t{i}"), Model::Mnist, *at, 2);
            ctl.offer(&a).unwrap();
        }
        ctl
    }

    fn no_faults() -> Vec<FaultPlan> {
        vec![FaultPlan::none(), FaultPlan::none()]
    }

    /// A displaced tenant with ideal service of 1 000 cycles per request:
    /// 3 requests still open out of 4, arrived at 0.
    fn displaced() -> Displaced {
        Displaced {
            label: "t".to_string(),
            from_core: 1,
            arrived_at: 0.0,
            quota: 4,
            remaining: 3,
            per_request: 1_000.0,
        }
    }

    #[test]
    fn readmit_backs_off_exponentially_then_sheds() {
        // Deadline 400 · 4 · 1 000 = 1.6e6 is far away: 3 attempts back off.
        let policy = RecoveryPolicy::new()
            .with_deadline_factor(400.0)
            .unwrap()
            .with_backoff_base_cycles(100.0)
            .unwrap()
            .with_max_retries(2);
        let mut fired = Vec::new();
        let out = policy
            .readmit(displaced(), 50.0, |at| {
                fired.push(at);
                Ok(None)
            })
            .unwrap();
        // Attempt k fires at start + base · (2^k − 1).
        assert_eq!(fired, vec![50.0, 150.0, 350.0]);
        // Retries exhaust: shed, stamped with the last attempt's time.
        let Readmission::Shed(shed) = out else {
            panic!("{out:?}")
        };
        assert_eq!(shed.at_cycles, 350.0);
        assert!(!shed.deadline_unmeetable);
        assert_eq!((shed.from_core, shed.lost_requests), (1, 3));

        // A `None` step backs off; the first `Some` lands the tenant.
        let mut attempts = 0;
        let out = policy
            .readmit(displaced(), 50.0, |_| {
                attempts += 1;
                Ok((attempts == 2).then_some(7))
            })
            .unwrap();
        assert_eq!(
            out,
            Readmission::Requeued(RequeueRecord {
                label: "t".to_string(),
                from_core: 1,
                to_core: 7,
                at_cycles: 150.0,
                attempt: 1,
                remaining_requests: 3,
            })
        );

        // Deadline 2 · 4 · 1 000 = 8 000 and 3 000 cycles of ideal work left:
        // attempts at 0, 1e3 and 3e3 fit; the one at 7e3 cannot finish in
        // time and sheds before calling `step`.
        let tight = RecoveryPolicy::new()
            .with_deadline_factor(2.0)
            .unwrap()
            .with_backoff_base_cycles(1_000.0)
            .unwrap();
        let mut fired = Vec::new();
        let out = tight
            .readmit(displaced(), 0.0, |at| {
                fired.push(at);
                Ok(None)
            })
            .unwrap();
        assert_eq!(fired, vec![0.0, 1_000.0, 3_000.0]);
        let Readmission::Shed(shed) = out else {
            panic!("{out:?}")
        };
        assert_eq!(shed.at_cycles, 7_000.0);
        assert!(shed.deadline_unmeetable);
    }

    #[test]
    fn plan_count_is_validated() {
        let p = pipeline();
        let mut ctl = controller(&p);
        let err = ctl
            .serve(
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(2).unwrap(),
                &[FaultPlan::none()],
                &RecoveryPolicy::new(),
                &OverloadController::disarmed(),
                &mut NullObserver,
            )
            .unwrap_err();
        assert!(err.to_string().contains("one per core"), "{err}");
    }

    #[test]
    fn empty_plans_match_unfaulted_serving() {
        let p = pipeline();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let mut ctl = controller(&p);
        let schedules = ctl.schedules().unwrap();
        let report = ctl
            .serve(
                Design::V10Full,
                &cfg,
                &opts,
                &no_faults(),
                &RecoveryPolicy::new(),
                &OverloadController::disarmed(),
                &mut NullObserver,
            )
            .unwrap();
        assert!(report.requeued().is_empty());
        assert!(report.shed().is_empty());
        assert!(report.retired_cores().is_empty());
        assert_eq!(report.shed_fraction(), 0.0);
        for (core, schedule) in schedules.iter().enumerate() {
            let direct = schedule
                .as_ref()
                .map(|s| serve_design(Design::V10Full, s, &cfg, &opts).unwrap());
            let faulted = report.per_core()[core].as_ref();
            match (direct, faulted) {
                (None, None) => {}
                (Some(d), Some(f)) => {
                    assert_eq!(d.elapsed_cycles().to_bits(), f.elapsed_cycles().to_bits());
                    for (dw, fw) in d.workloads().iter().zip(f.workloads()) {
                        assert_eq!(dw.completed_requests(), fw.completed_requests());
                        for (a, b) in dw.latencies_cycles().iter().zip(fw.latencies_cycles()) {
                            assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                }
                (d, f) => panic!("core {core}: direct {d:?} vs faulted {f:?}"),
            }
        }
    }

    #[test]
    fn core_failure_conserves_requests_between_goodput_and_shed() {
        let p = pipeline();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let mut ctl = controller(&p);
        let offered: usize = ctl
            .decisions()
            .iter()
            .filter(|d| matches!(d.placement, Placement::Core(_)))
            .count()
            * 2;
        let plans = vec![
            FaultPlan::none()
                .with_fault(30_000.0, v10_sim::FaultKind::CoreRetire)
                .unwrap(),
            FaultPlan::none(),
        ];
        let policy = RecoveryPolicy::new()
            .with_backoff_base_cycles(50_000.0)
            .unwrap()
            .with_max_retries(8)
            .with_deadline_factor(400.0)
            .unwrap();
        let report = ctl
            .serve(
                Design::V10Full,
                &cfg,
                &opts,
                &plans,
                &policy,
                &OverloadController::disarmed(),
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(report.retired_cores().len(), 1);
        assert_eq!(report.retired_cores()[0], (0, 30_000.0));
        assert!(ctl.state().is_failed(0).unwrap());
        assert!(
            !report.requeued().is_empty() || !report.shed().is_empty(),
            "an early core failure must displace someone"
        );
        // Pre-fault completions on the dead core plus post-requeue service
        // plus shed losses account for every admitted request.
        assert_eq!(
            report.completed_requests() + report.shed_requests(),
            offered,
            "requeued={:?} shed={:?}",
            report.requeued(),
            report.shed()
        );
        for r in report.requeued() {
            assert_eq!(r.from_core, 0);
            assert_eq!(r.to_core, 1, "only core 1 survives");
            assert!(r.at_cycles >= 30_000.0);
        }
    }

    #[test]
    fn tight_deadline_sheds_instead_of_queueing() {
        let p = pipeline();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let mut ctl = controller(&p);
        let plans = vec![
            FaultPlan::none()
                .with_fault(30_000.0, v10_sim::FaultKind::CoreRetire)
                .unwrap(),
            FaultPlan::none(),
        ];
        // Deadline of 1x ideal service: any displacement is unmeetable.
        let policy = RecoveryPolicy::new().with_deadline_factor(1.0).unwrap();
        let report = ctl
            .serve(
                Design::V10Full,
                &cfg,
                &opts,
                &plans,
                &policy,
                &OverloadController::disarmed(),
                &mut NullObserver,
            )
            .unwrap();
        assert!(!report.shed().is_empty());
        assert!(report.shed().iter().all(|s| s.deadline_unmeetable));
        assert!(report.requeued().is_empty());
        assert!(report.shed_fraction() > 0.0);
    }

    #[test]
    fn latency_summary_matches_the_sorted_samples() {
        let p = pipeline();
        let mut ctl = controller(&p);
        let report = ctl
            .serve(
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(2).unwrap(),
                &no_faults(),
                &RecoveryPolicy::new(),
                &OverloadController::disarmed(),
                &mut NullObserver,
            )
            .unwrap();
        let summary = report.latency_summary().unwrap();
        assert_eq!(summary.count(), report.completed_requests());
        let direct = LatencySummary::from_samples(&report.latencies_cycles()).unwrap();
        assert_eq!(summary.p99().to_bits(), direct.p99().to_bits());
        assert_eq!(
            report.p99_latency_cycles().to_bits(),
            summary.p99().to_bits()
        );
        assert!(summary.p50() <= summary.p95() && summary.p95() <= summary.p99());
    }

    #[test]
    fn conservation_ledger_reconciles_the_combined_path() {
        use v10_core::{OverloadController, OverloadPolicy};
        let p = pipeline();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let plans = vec![
            FaultPlan::none()
                .with_fault(30_000.0, v10_sim::FaultKind::CoreRetire)
                .unwrap(),
            FaultPlan::none()
                .with_poisson_transients(0xC0DE, 300_000.0, 5_000_000.0)
                .unwrap(),
        ];
        let policy = RecoveryPolicy::new()
            .with_backoff_base_cycles(50_000.0)
            .unwrap()
            .with_max_retries(8)
            .with_deadline_factor(400.0)
            .unwrap();
        let mut ctl = controller(&p);
        let report = ctl
            .serve(
                Design::V10Full,
                &cfg,
                &opts,
                &plans,
                &policy,
                &OverloadController::armed(OverloadPolicy::default()),
                &mut NullObserver,
            )
            .unwrap();
        let ledger = report.conservation();
        assert!(ledger.holds(), "{ledger:?}");
        assert_eq!(ledger.offered_sessions(), 4);
        assert_eq!(
            ledger.requeued_sessions(),
            report.requeued().len() as u64,
            "ledger must mirror the requeue records"
        );
        assert_eq!(
            ledger.accounted(),
            ledger.offered_sessions() + ledger.requeued_sessions()
        );
        // Breaking the identity by hand is detected.
        let broken = ClusterServeReport::from_parts(
            report.offered_sessions() + 1,
            report.per_core().to_vec(),
            report.requeued().to_vec(),
            report.shed().to_vec(),
            report.retired_cores().to_vec(),
        );
        assert!(!broken.conservation().holds());
    }

    #[test]
    fn faulted_cluster_serving_is_deterministic() {
        let p = pipeline();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2).unwrap();
        let plans = vec![
            FaultPlan::none()
                .with_poisson_transients(0x7E57, 200_000.0, 5_000_000.0)
                .unwrap()
                .with_fault(80_000.0, v10_sim::FaultKind::CoreRetire)
                .unwrap(),
            FaultPlan::none()
                .with_poisson_transients(0x7E58, 300_000.0, 5_000_000.0)
                .unwrap(),
        ];
        let policy = RecoveryPolicy::new()
            .with_backoff_base_cycles(50_000.0)
            .unwrap()
            .with_deadline_factor(400.0)
            .unwrap();
        let run = |p: &ClusteringPipeline| {
            let mut ctl = controller(p);
            ctl.serve(
                Design::V10Full,
                &cfg,
                &opts,
                &plans,
                &policy,
                &OverloadController::disarmed(),
                &mut NullObserver,
            )
            .unwrap()
        };
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a.requeued(), b.requeued());
        assert_eq!(a.shed(), b.shed());
        assert_eq!(a.retired_cores(), b.retired_cores());
        assert_eq!(a.completed_requests(), b.completed_requests());
        let (la, lb) = (a.latencies_cycles(), b.latencies_cycles());
        assert_eq!(la.len(), lb.len());
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
