//! The sharded fleet serving plane: topology-aware admission over a
//! ≥1000-core fleet, partitioned into per-shard admission workers that
//! exchange state deterministically at epoch boundaries.
//!
//! # Why sharding helps even on one thread
//!
//! The flat [`OnlinePlacer`] ranking is an argmax over every core: each
//! arrival rescans the fleet. The fleet plane decomposes that argmax.
//! Cores are partitioned into fixed contiguous shards ([`ShardMap`]); each
//! shard's admission worker keeps a summary table of its best candidate
//! core per (behavior class, home HBM group) pair. An admit or release
//! touches exactly one core, so it invalidates exactly one worker's table;
//! the next placement query rebuilds only the dirty tables — a rescan of
//! `cores / shards` cores instead of `cores` — and takes the argmax over
//! the `shards` table entries. Because a core's score is a pure function
//! of its own occupancy (plus static topology), and every scan keeps the
//! incumbent on ties, the decomposed argmax picks the *identical* core the
//! flat scan would: finer sharding changes the work done, never the
//! answer. The per-arrival placement cost drops by roughly the shard
//! count, which is where the fleet bench's wall-clock speedup comes from —
//! no threads required.
//!
//! # Determinism across shard and thread counts
//!
//! Shards exchange state only at epoch boundaries ([`EpochClock`]): tenant
//! departures observed in the cached per-core engine reports are released
//! in simulated-time order ([`merge_messages`], tie-broken by core index
//! and interned label), and only departures at or before the boundary are
//! applied. An arrival strictly after the boundary cannot change engine
//! events before it, so a departure once applied can never be retracted by
//! later admissions — the plane's slot bookkeeping is conservative with
//! respect to the engine's own context table and the engine never rejects
//! an admission the plane made (a serve where it did is an error). Dirty
//! cores are re-simulated through the workspace's input-order scatter-back
//! parallel map ([`parallel_map_with`]), so the [`ClusterServeReport`] is
//! byte-identical across 1/2/4/8 shards and any worker-thread count; only
//! the [`FleetOutcome`] scan counters depend on the shard layout.
//!
//! # Fleet fault domains
//!
//! [`FleetPlane::serve_faulted`] extends the epoch loop with scripted,
//! epoch-quantized fleet faults ([`FleetFaultPlan`]): each event applies at
//! the first processed epoch boundary at or after its scripted time, in
//! compiled order, so the blast radius is a deterministic function of the
//! plan and the arrival stream alone.
//!
//! * **Shard crash / restore** ([`FleetFaultKind::ShardCrash`]): the
//!   shard's admission worker goes dark — its summary table is lost and
//!   the decomposed argmax skips it, steering the crash epoch's arrivals
//!   onto surviving shards (the cores it owns keep serving: the data plane
//!   outlives its control plane). At the next processed boundary the
//!   worker restores from the snapshot taken at the last boundary it was
//!   alive for and replays the delta with one dirty rebuild.
//! * **Region failure** ([`FleetFaultKind::RegionFail`]): every core in
//!   one HBM affinity group fails together. Each core's engine history is
//!   truncated once with a scripted `CoreRetire` at the boundary and then
//!   frozen; residents with open quota are displaced and re-placed through
//!   the same decomposed argmax under an exponential backoff-and-shed
//!   ladder ([`RecoveryPolicy`]) — shed when even ideal service from the
//!   attempt time misses the deadline, or when retries exhaust against a
//!   full fleet.
//! * **Link faults** ([`FleetFaultKind::LinkDegrade`] /
//!   [`FleetFaultKind::LinkPartition`] / [`FleetFaultKind::LinkRestore`]):
//!   an evacuation pays the faulted transfer cost of re-fetching the
//!   tenant's context image through the failed region's uplink; a
//!   partitioned uplink blocks the read outright, so attempts inside the
//!   partition window fail and the backoff ladder rides the partition out
//!   — partition-tolerant recovery.
//!
//! The disarmed plan ([`FleetFaultPlan::none`]) executes zero fault
//! branches: [`FleetPlane::serve`] *is* `serve_faulted` under the empty
//! plan, byte-identical to the pre-fault-domain plane.

use v10_core::{
    serve_design, serve_design_stressed, Admission, AdmissionSchedule, Design, NullObserver,
    OverloadController, RunOptions, RunReport, SimEvent, SimObserver, WorkloadSpec,
};
use v10_npu::{ClusterState, FleetTopology, NpuConfig};
use v10_sim::convert::{u64_from_usize, u64_to_f64};
use v10_sim::{
    merge_messages, parallel_map_with, Cycles, DepartureMsg, EpochClock, FaultKind, FaultPlan,
    FleetFaultEvent, FleetFaultKind, FleetFaultPlan, LabelId, LabelInterner, ShardMap, V10Error,
    V10Result,
};
use v10_workloads::TimedArrival;

use crate::placer::{AdmissionDecision, OnlinePlacer, Placement, TopoScore, TopologyWeights};
use crate::recovery::{
    ClusterServeReport, Displaced, Readmission, RecoveryPolicy, RequeueRecord, ShedRecord,
};

/// Bytes moved to evacuate one displaced tenant: the context-table row plus
/// the resident weight image, re-fetched through the failed region's
/// uplink (64 MiB — about a million cycles per hop at the Table 5 link
/// bandwidth).
const EVAC_IMAGE_BYTES: f64 = 67_108_864.0;

/// One shard's admission worker: the per-(class, home-group) best-candidate
/// summary over the cores the shard owns, plus a dirty bit set whenever any
/// owned core's occupancy changes.
#[derive(Debug, Clone)]
struct ShardWorker {
    /// `best[class * groups + group]` = the shard's best admissible core
    /// for that (class, home group), lowest core index on ties.
    best: Vec<Option<(TopoScore, usize)>>,
    dirty: bool,
}

/// Deterministic, shard-layout-dependent work counters from one
/// [`FleetPlane::serve`] run.
///
/// Everything observable about the *serving outcome* lives in the
/// byte-identical [`ClusterServeReport`]; this struct carries the
/// telemetry that legitimately varies with the shard layout (how many
/// cores the table rebuilds scanned) alongside the shard-independent
/// admission flow and fault application log the fleet auditor checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    shards: usize,
    epochs: u64,
    offered: usize,
    placed: usize,
    rejected: usize,
    rebuild_core_scans: u64,
    departures: Vec<DepartureMsg>,
    decisions: Vec<AdmissionDecision>,
    shard_crash_log: Vec<(usize, f64)>,
    shard_restore_log: Vec<(usize, f64)>,
    region_fail_log: Vec<(usize, f64)>,
    link_faults: u64,
}

impl FleetOutcome {
    /// Shard count the plane ran with.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Epochs the serve loop processed (epochs with no arrivals are
    /// coalesced into their successor).
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Arrivals offered to the plane.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Arrivals placed onto a core.
    #[must_use]
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// Arrivals rejected (no admissible core).
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Cores scanned by summary-table rebuilds — the plane's dominant
    /// placement cost. This counter is the *only* shard-layout-dependent
    /// observable: at one shard every admission triggers a full-fleet
    /// rescan, at `S` shards a `cores / S` rescan, which is the measured
    /// scaling mechanism of the fleet bench.
    #[must_use]
    pub fn rebuild_core_scans(&self) -> u64 {
        self.rebuild_core_scans
    }

    /// Every admission decision in offer order — identical across shard
    /// layouts and thread counts.
    #[must_use]
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Every tenant departure the plane released, in release order:
    /// epoch by epoch, simulated-time-ordered within each epoch by the
    /// deterministic cross-shard merge. Identical across shard layouts.
    #[must_use]
    pub fn departures(&self) -> &[DepartureMsg] {
        &self.departures
    }

    /// Shard crashes applied, as `(shard, boundary_cycles)` in application
    /// order. Empty on a disarmed run.
    #[must_use]
    pub fn shard_crashes(&self) -> &[(usize, f64)] {
        &self.shard_crash_log
    }

    /// Shard restores applied, as `(shard, boundary_cycles)` in
    /// application order. A crash in the final processed epoch never
    /// restores, which the fleet auditor flags.
    #[must_use]
    pub fn shard_restores(&self) -> &[(usize, f64)] {
        &self.shard_restore_log
    }

    /// Region failures applied, as `(hbm_group, boundary_cycles)` in
    /// application order.
    #[must_use]
    pub fn regions_failed(&self) -> &[(usize, f64)] {
        &self.region_fail_log
    }

    /// Link-health events applied (degrades, partitions, restores).
    #[must_use]
    pub fn link_faults(&self) -> u64 {
        self.link_faults
    }
}

/// One placed tenant's plane-side bookkeeping.
#[derive(Debug, Clone)]
struct FleetTenant {
    core: usize,
    /// Position in the core's admission list == position in the core's
    /// report workload list (both are kept sorted by arrival time with
    /// ties in insertion order, matching the schedule's stable sort;
    /// evacuations insert mid-list and shift the indices after them).
    idx: usize,
    class: usize,
    label: LabelId,
    released: bool,
    /// Home HBM group the tenant's weights reside in.
    group: usize,
    /// The original arrival time — deadlines anchor here even after an
    /// evacuation.
    arrived_at: f64,
    /// Full original request quota (deadline sizing).
    quota: usize,
    /// Requests assigned to this placement: the full quota initially, the
    /// open remainder after an evacuation.
    assigned: usize,
    /// Index into [`FleetOutcome::decisions`] for observer events.
    decision: usize,
}

/// Mutable fault-domain state one faulted serve threads through its epoch
/// loop: the compiled plan cursor, per-shard crash flags and boundary
/// snapshots, per-group link-health shadows, and the recovery ledger.
struct FaultDomains {
    events: Vec<FleetFaultEvent>,
    cursor: usize,
    /// Crashed-shard flags; a crashed worker is skipped by table rebuilds
    /// and placement queries until its boundary restore.
    crashed: Vec<bool>,
    /// Per-shard summary-table snapshot from the last boundary the shard
    /// was alive for — what a restore replays from.
    snapshots: Vec<Vec<Option<(TopoScore, usize)>>>,
    /// Simulated time each group's partition window closes
    /// (`NEG_INFINITY` when never partitioned).
    partition_until: Vec<f64>,
    /// Sticky degrade factor to re-apply when a partition heals.
    degrade: Vec<f64>,
    requeued: Vec<RequeueRecord>,
    shed: Vec<ShedRecord>,
    retired: Vec<(usize, f64)>,
}

/// A topology-aware, sharded admission plane over a multi-core fleet.
///
/// Construction fixes the fleet geometry ([`FleetTopology`]), the shard
/// partition, the epoch length, and the topology scoring weights; then
/// [`serve`](Self::serve) plays an arrival stream forward and returns the
/// same [`ClusterServeReport`] shape as the single-coordinator recovery
/// path, plus a [`FleetOutcome`] with the plane's work counters. Every
/// serve starts from the plane as constructed.
#[derive(Debug)]
pub struct FleetPlane<'a> {
    placer: OnlinePlacer<'a>,
    /// The fleet as the last serve left it.
    state: ClusterState,
    shard_map: ShardMap,
    clock: EpochClock,
    weights: TopologyWeights,
    workers: Vec<ShardWorker>,
    threads: usize,
    groups: usize,
    classes: usize,
    slots_per_core: usize,
}

impl<'a> FleetPlane<'a> {
    /// A fleet plane over `topology` with `slots_per_core` context-table
    /// slots per core, partitioned into `shards` admission workers that
    /// exchange departures every `epoch_cycles` of simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `slots_per_core` is zero,
    /// the shard partition is degenerate (zero shards, or more shards than
    /// cores), or the epoch length is not positive and finite.
    pub fn new(
        placer: OnlinePlacer<'a>,
        topology: FleetTopology,
        slots_per_core: usize,
        shards: usize,
        epoch_cycles: Cycles,
        weights: TopologyWeights,
    ) -> V10Result<Self> {
        let shard_map = ShardMap::new(topology.cores(), shards)?;
        let clock = EpochClock::new(epoch_cycles)?;
        let groups = topology.groups();
        let state = ClusterState::with_topology(topology, slots_per_core)?;
        let classes = placer.pipeline().clusters();
        let workers = vec![
            ShardWorker {
                best: vec![None; classes * groups],
                dirty: true,
            };
            shards
        ];
        Ok(FleetPlane {
            placer,
            state,
            shard_map,
            clock,
            weights,
            workers,
            threads: 1,
            groups,
            classes,
            slots_per_core,
        })
    }

    /// Sets the worker-thread count for the dirty-core re-simulation step
    /// (default 1). The report is byte-identical at any thread count; the
    /// threads only shorten wall-clock on multi-core hosts.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Fleet occupancy as the last serve left it (the empty fleet before
    /// the first).
    #[must_use]
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// The fixed core → shard partition.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
        self.shard_map
    }

    /// The epoch clock governing cross-shard exchange.
    #[must_use]
    pub fn clock(&self) -> EpochClock {
        self.clock
    }

    /// The topology scoring weights in use.
    #[must_use]
    pub fn weights(&self) -> TopologyWeights {
        self.weights
    }

    /// Returns the fleet and every shard worker to their constructed
    /// state: no residents, no failed cores, healthy links, empty tables.
    fn reset(&mut self) -> V10Result<()> {
        let mut topology = self.state.topology().clone();
        for group in 0..self.groups {
            topology.restore_link(group)?;
        }
        self.state = ClusterState::with_topology(topology, self.slots_per_core)?;
        for worker in &mut self.workers {
            worker.best.fill(None);
            worker.dirty = true;
        }
        Ok(())
    }

    /// Rebuilds every dirty live worker's summary table and returns the
    /// cores scanned doing so. Crashed workers stay stale until their
    /// boundary restore marks them dirty again.
    fn rebuild_dirty(&mut self, crashed: &[bool]) -> V10Result<u64> {
        let mut scanned = 0u64;
        for (shard, &down) in crashed.iter().enumerate() {
            if down || !self.workers[shard].dirty {
                continue;
            }
            let range = self.shard_map.range(shard);
            scanned += u64_from_usize(range.len());
            let mut best: Vec<Option<(TopoScore, usize)>> = vec![None; self.classes * self.groups];
            for core in range {
                for class in 0..self.classes {
                    for group in 0..self.groups {
                        let Some(score) = self.placer.topo_score(
                            class,
                            core,
                            &self.state,
                            group,
                            &self.weights,
                        )?
                        else {
                            continue;
                        };
                        let slot = &mut best[class * self.groups + group];
                        if slot.is_none_or(|(incumbent, _)| score.beats(&incumbent)) {
                            *slot = Some((score, core));
                        }
                    }
                }
            }
            let worker = &mut self.workers[shard];
            worker.best = best;
            worker.dirty = false;
        }
        Ok(scanned)
    }

    /// The decomposed argmax: best summary entry across live shards in
    /// shard order, incumbent kept on ties. Shards own ascending core
    /// ranges, so this picks exactly the core a flat
    /// lowest-index-tie-break scan ([`OnlinePlacer::place_class_topo`])
    /// would. Crashed shards are skipped — their blast radius is the
    /// arrivals their cores would have won.
    fn query(&self, class: usize, group: usize, crashed: &[bool]) -> Placement {
        let mut best: Option<(TopoScore, usize)> = None;
        for (shard, worker) in self.workers.iter().enumerate() {
            if crashed[shard] {
                continue;
            }
            let Some((score, core)) = worker.best[class * self.groups + group] else {
                continue;
            };
            if best.is_none_or(|(incumbent, _)| score.beats(&incumbent)) {
                best = Some((score, core));
            }
        }
        best.map_or(Placement::Reject, |(_, core)| Placement::Core(core))
    }

    /// Marks the worker owning `core` dirty.
    fn invalidate(&mut self, core: usize) -> V10Result<()> {
        let owner = self.shard_map.owner(core)?;
        self.workers[owner].dirty = true;
        Ok(())
    }

    /// Releases every unapplied departure at or before `boundary`:
    /// collects one message stream per owning shard from the cached
    /// per-core reports, merges them into simulated-time order, and frees
    /// the departed tenants' slots. Returns the merged messages.
    fn apply_departures(
        &mut self,
        boundary: Cycles,
        tenants: &mut [FleetTenant],
        reports: &[Option<RunReport>],
    ) -> V10Result<Vec<DepartureMsg>> {
        let mut streams: Vec<Vec<DepartureMsg>> = vec![Vec::new(); self.workers.len()];
        for t in tenants.iter_mut().filter(|t| !t.released) {
            let Some(retired_at) = reports
                .get(t.core)
                .and_then(Option::as_ref)
                .and_then(|r| r.workloads().get(t.idx))
                .and_then(|w| w.retired_at_cycles())
            else {
                continue;
            };
            if retired_at > boundary.as_f64() {
                continue;
            }
            t.released = true;
            self.state.release(t.core, t.class)?;
            let owner = self.shard_map.owner(t.core)?;
            self.workers[owner].dirty = true;
            streams[owner].push(DepartureMsg {
                at_cycles: Cycles::new(retired_at),
                core: t.core,
                label: t.label,
            });
        }
        Ok(merge_messages(streams))
    }

    /// Serves `arrivals` (non-decreasing in time) on the fleet under
    /// `design`, re-simulating each core's admission history with
    /// [`serve_design`] whenever the plane admits a tenant to it. The
    /// engine's context table is sized to the plane's `slots_per_core`, so
    /// plane bookkeeping and hardware state agree.
    ///
    /// The returned report is byte-identical across shard counts and
    /// worker-thread counts; the outcome carries the layout-dependent work
    /// counters. This is exactly
    /// [`serve_faulted`](Self::serve_faulted) under the empty
    /// [`FleetFaultPlan`] — the fault path shares every instruction of the
    /// plain path.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `arrivals` is not sorted by
    /// arrival time, and propagates engine errors from the per-core runs.
    pub fn serve(
        &mut self,
        arrivals: &[TimedArrival],
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
    ) -> V10Result<(ClusterServeReport, FleetOutcome)> {
        self.serve_faulted(
            arrivals,
            design,
            config,
            opts,
            &FleetFaultPlan::none(),
            &RecoveryPolicy::new(),
            &mut NullObserver,
        )
    }

    /// [`serve`](Self::serve) under a scripted [`FleetFaultPlan`]: shard
    /// crashes darken their admission worker for the rest of the crash
    /// epoch, region failures retire whole HBM groups and evacuate their
    /// residents through `policy`'s backoff-and-shed ladder, and link
    /// faults tax or block the evacuation transfers (see the module docs).
    ///
    /// The recovery ledger lands in the returned [`ClusterServeReport`]
    /// ([`requeued`](ClusterServeReport::requeued),
    /// [`shed`](ClusterServeReport::shed),
    /// [`retired_cores`](ClusterServeReport::retired_cores)); the
    /// [`FleetOutcome`] carries the fault application log. The plane's
    /// fault and recovery decisions — [`SimEvent::ShardCrashed`],
    /// [`SimEvent::ShardRestored`], [`SimEvent::RegionFailed`],
    /// [`SimEvent::TenantEvacuated`], and [`SimEvent::RequestShed`] (with
    /// `arrival` indexing [`FleetOutcome::decisions`]) — go to `observer`
    /// in application order. With the empty plan the ledgers are empty and
    /// the result is bit-identical to [`serve`](Self::serve).
    ///
    /// # Errors
    ///
    /// As [`serve`](Self::serve), plus [`V10Error::InvalidArgument`] when a
    /// plan event targets a shard or HBM group the plane does not have.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_faulted<O: SimObserver>(
        &mut self,
        arrivals: &[TimedArrival],
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
        plan: &FleetFaultPlan,
        policy: &RecoveryPolicy,
        observer: &mut O,
    ) -> V10Result<(ClusterServeReport, FleetOutcome)> {
        if let Some(w) = arrivals
            .windows(2)
            .find(|w| w[1].at_cycles() < w[0].at_cycles())
        {
            return Err(V10Error::invalid(
                "FleetPlane::serve",
                format!(
                    "arrivals must be sorted by time ({} after {})",
                    w[1].at_cycles(),
                    w[0].at_cycles()
                ),
            ));
        }
        let events = plan.compiled();
        self.validate_events(&events)?;
        self.reset()?;
        let armed = !events.is_empty();
        let mut fd = FaultDomains {
            events,
            cursor: 0,
            crashed: vec![false; self.shard_map.shards()],
            snapshots: vec![Vec::new(); self.shard_map.shards()],
            partition_until: vec![f64::NEG_INFINITY; self.groups],
            degrade: vec![1.0; self.groups],
            requeued: Vec::new(),
            shed: Vec::new(),
            retired: Vec::new(),
        };
        let opts = opts.with_table_capacity(self.slots_per_core)?;
        let cores = self.state.cores();
        let mut interner = LabelInterner::new();
        let mut tenants: Vec<FleetTenant> = Vec::new();
        let mut per_core: Vec<Vec<Admission>> = vec![Vec::new(); cores];
        let mut reports: Vec<Option<RunReport>> = vec![None; cores];
        let mut dirty_core = vec![false; cores];
        let mut outcome = FleetOutcome {
            shards: self.shard_map.shards(),
            epochs: 0,
            offered: arrivals.len(),
            placed: 0,
            rejected: 0,
            rebuild_core_scans: 0,
            departures: Vec::new(),
            decisions: Vec::new(),
            shard_crash_log: Vec::new(),
            shard_restore_log: Vec::new(),
            region_fail_log: Vec::new(),
            link_faults: 0,
        };

        let mut i = 0;
        while i < arrivals.len() {
            let epoch = self.clock.epoch_of(Cycles::new(arrivals[i].at_cycles()));
            let boundary = self.clock.start_of(epoch);
            outcome.epochs += 1;

            if armed {
                // Crashed workers come back first: a crash is visible for
                // exactly the remainder of its crash epoch.
                self.heal_links(boundary.as_f64(), &fd)?;
                self.restore_crashed_shards(boundary, &mut fd, &mut outcome, observer);
            }

            // Epoch boundary: exchange departures across shards and free
            // the retired tenants' slots.
            let merged = self.apply_departures(boundary, &mut tenants, &reports)?;
            outcome.departures.extend(merged);

            if armed {
                self.apply_fleet_faults(
                    boundary,
                    design,
                    config,
                    &opts,
                    policy,
                    &mut fd,
                    &mut tenants,
                    &mut per_core,
                    &mut reports,
                    &mut dirty_core,
                    &mut outcome,
                    observer,
                )?;
                // Live workers snapshot their tables at every boundary —
                // what the next crash in this epoch would restore from.
                for shard in 0..self.workers.len() {
                    if !fd.crashed[shard] {
                        fd.snapshots[shard] = self.workers[shard].best.clone();
                    }
                }
            }

            // Place this epoch's arrivals in time order.
            while i < arrivals.len()
                && self.clock.epoch_of(Cycles::new(arrivals[i].at_cycles())) == epoch
            {
                let arrival = &arrivals[i];
                let class = self.placer.class_of_model(arrival.model());
                // Weight residence is striped round-robin across HBM
                // groups in arrival order — deterministic and independent
                // of the shard layout.
                let group = i % self.groups;
                outcome.rebuild_core_scans += self.rebuild_dirty(&fd.crashed)?;
                let placement = self.query(class, group, &fd.crashed);
                let decision = outcome.decisions.len();
                outcome.decisions.push(AdmissionDecision {
                    label: arrival.label().to_string(),
                    model: arrival.model(),
                    at_cycles: arrival.at_cycles(),
                    placement,
                });
                match placement {
                    Placement::Core(core) => {
                        self.state.admit(core, class)?;
                        self.invalidate(core)?;
                        dirty_core[core] = true;
                        let spec = WorkloadSpec::new(arrival.label(), arrival.trace().clone());
                        let admission =
                            Admission::new(spec, arrival.at_cycles(), arrival.requests())?;
                        let idx =
                            insert_admission(&mut per_core[core], &mut tenants, core, admission);
                        tenants.push(FleetTenant {
                            core,
                            idx,
                            class,
                            label: interner.intern(arrival.label()),
                            released: false,
                            group,
                            arrived_at: arrival.at_cycles(),
                            quota: arrival.requests(),
                            assigned: arrival.requests(),
                            decision,
                        });
                        outcome.placed += 1;
                    }
                    Placement::Reject => outcome.rejected += 1,
                }
                i += 1;
            }

            // Re-simulate the cores whose admission history changed, in
            // parallel with input-order scatter-back.
            let jobs: Vec<usize> = (0..cores).filter(|&c| dirty_core[c]).collect();
            let results = parallel_map_with(self.threads, &jobs, |&core| {
                let schedule = AdmissionSchedule::new(per_core[core].clone())?;
                serve_design(design, &schedule, config, &opts)
            });
            for (&core, result) in jobs.iter().zip(results) {
                reports[core] = Some(result?);
                dirty_core[core] = false;
            }
        }

        let mut engine_rejections = 0;
        for (core, report) in reports.iter().enumerate() {
            // A region-failed core's turn-aways at its retirement instant
            // are displacements, already accounted by the recovery ledger.
            if self.state.is_failed(core)? {
                continue;
            }
            if let Some(r) = report {
                engine_rejections += r.rejected_admissions();
            }
        }
        if engine_rejections != 0 {
            return Err(V10Error::invalid(
                "FleetPlane::serve",
                format!(
                    "engine rejected {engine_rejections} admissions the plane made: the \
                     epoch exchange released a slot before its tenant retired"
                ),
            ));
        }
        fd.retired.sort_by_key(|r| r.0);
        let report = ClusterServeReport::from_parts(
            outcome.placed,
            reports,
            fd.requeued,
            fd.shed,
            fd.retired,
        );
        Ok((report, outcome))
    }

    /// Rejects plan events that target a shard or HBM group the plane does
    /// not have, before the serve touches any state.
    fn validate_events(&self, events: &[FleetFaultEvent]) -> V10Result<()> {
        for e in events {
            let (ok, have) = match e.kind() {
                FleetFaultKind::ShardCrash { shard } => {
                    (shard < self.shard_map.shards(), self.shard_map.shards())
                }
                FleetFaultKind::RegionFail { hbm_group }
                | FleetFaultKind::LinkDegrade { hbm_group, .. }
                | FleetFaultKind::LinkPartition { hbm_group, .. }
                | FleetFaultKind::LinkRestore { hbm_group } => {
                    (hbm_group < self.groups, self.groups)
                }
            };
            if !ok {
                return Err(V10Error::invalid(
                    "FleetPlane::serve_faulted",
                    format!(
                        "{} at {} targets an out-of-range domain (fleet has {have})",
                        e.kind().label(),
                        e.at_cycles()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Restores a partitioned uplink whose window has closed by `now`,
    /// re-applying any sticky degrade factor.
    fn heal_links(&mut self, now: f64, fd: &FaultDomains) -> V10Result<()> {
        for group in 0..self.groups {
            if now >= fd.partition_until[group]
                && self.state.topology().is_link_partitioned(group)?
            {
                self.state.topology_mut().restore_link(group)?;
                if fd.degrade[group] > 1.0 {
                    self.state
                        .topology_mut()
                        .degrade_link(group, fd.degrade[group])?;
                }
            }
        }
        Ok(())
    }

    /// Brings every crashed shard worker back at `boundary`: its table is
    /// reset to the last snapshot and marked dirty, so the next rebuild
    /// replays the admissions and departures it missed.
    fn restore_crashed_shards<O: SimObserver>(
        &mut self,
        boundary: Cycles,
        fd: &mut FaultDomains,
        outcome: &mut FleetOutcome,
        observer: &mut O,
    ) {
        let now = boundary.as_f64();
        for shard in 0..self.workers.len() {
            if !fd.crashed[shard] {
                continue;
            }
            fd.crashed[shard] = false;
            let snapshot = if fd.snapshots[shard].is_empty() {
                vec![None; self.classes * self.groups]
            } else {
                fd.snapshots[shard].clone()
            };
            let worker = &mut self.workers[shard];
            worker.best = snapshot;
            worker.dirty = true;
            outcome.shard_restore_log.push((shard, now));
            observer.on_event(SimEvent::ShardRestored { shard, at: now });
        }
    }

    /// Applies every compiled fleet fault scripted at or before `boundary`
    /// in compiled order.
    #[allow(clippy::too_many_arguments)]
    fn apply_fleet_faults<O: SimObserver>(
        &mut self,
        boundary: Cycles,
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
        policy: &RecoveryPolicy,
        fd: &mut FaultDomains,
        tenants: &mut Vec<FleetTenant>,
        per_core: &mut [Vec<Admission>],
        reports: &mut [Option<RunReport>],
        dirty_core: &mut [bool],
        outcome: &mut FleetOutcome,
        observer: &mut O,
    ) -> V10Result<()> {
        let now = boundary.as_f64();
        while fd.cursor < fd.events.len() && fd.events[fd.cursor].at_cycles() <= now {
            let event = fd.events[fd.cursor];
            fd.cursor += 1;
            match event.kind() {
                FleetFaultKind::ShardCrash { shard } => {
                    if fd.crashed[shard] {
                        // Crashing a crashed shard is a no-op: it is
                        // already dark until the next boundary.
                        continue;
                    }
                    fd.crashed[shard] = true;
                    // The live table dies with the worker; the snapshot
                    // taken at the last boundary survives for the restore.
                    let lost = vec![None; self.classes * self.groups];
                    let worker = &mut self.workers[shard];
                    worker.best = lost;
                    worker.dirty = true;
                    outcome.shard_crash_log.push((shard, now));
                    observer.on_event(SimEvent::ShardCrashed { shard, at: now });
                }
                FleetFaultKind::RegionFail { hbm_group } => {
                    self.fail_region(
                        hbm_group, boundary, design, config, opts, policy, fd, tenants, per_core,
                        reports, dirty_core, outcome, observer,
                    )?;
                }
                FleetFaultKind::LinkDegrade { hbm_group, factor } => {
                    fd.degrade[hbm_group] = factor;
                    if !self.state.topology().is_link_partitioned(hbm_group)? {
                        self.state.topology_mut().degrade_link(hbm_group, factor)?;
                    }
                    outcome.link_faults += 1;
                }
                FleetFaultKind::LinkPartition {
                    hbm_group,
                    window_cycles,
                } => {
                    fd.partition_until[hbm_group] =
                        fd.partition_until[hbm_group].max(event.at_cycles() + window_cycles);
                    self.state.topology_mut().partition_link(hbm_group)?;
                    outcome.link_faults += 1;
                }
                FleetFaultKind::LinkRestore { hbm_group } => {
                    fd.degrade[hbm_group] = 1.0;
                    fd.partition_until[hbm_group] = f64::NEG_INFINITY;
                    self.state.topology_mut().restore_link(hbm_group)?;
                    outcome.link_faults += 1;
                }
            }
        }
        Ok(())
    }

    /// Fails every live core of one HBM affinity group at `boundary`:
    /// truncates each core's engine history with a scripted retirement and
    /// freezes it, then runs the evacuation ladder for every resident with
    /// open quota, in admission order.
    #[allow(clippy::too_many_arguments)]
    fn fail_region<O: SimObserver>(
        &mut self,
        group: usize,
        boundary: Cycles,
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
        policy: &RecoveryPolicy,
        fd: &mut FaultDomains,
        tenants: &mut Vec<FleetTenant>,
        per_core: &mut [Vec<Admission>],
        reports: &mut [Option<RunReport>],
        dirty_core: &mut [bool],
        outcome: &mut FleetOutcome,
        observer: &mut O,
    ) -> V10Result<()> {
        let now = boundary.as_f64();
        outcome.region_fail_log.push((group, now));
        observer.on_event(SimEvent::RegionFailed { group, at: now });
        let mut region_cores = Vec::new();
        for core in 0..self.state.cores() {
            if self.state.topology().group_of(core)? == group && !self.state.is_failed(core)? {
                region_cores.push(core);
            }
        }
        for &core in &region_cores {
            self.state.fail(core)?;
            self.invalidate(core)?;
            fd.retired.push((core, now));
            // The truncated report is this core's final word: pre-failure
            // completions count (those responses were delivered), and the
            // core is never re-simulated again.
            dirty_core[core] = false;
            reports[core] = if per_core[core].is_empty() {
                None
            } else {
                let schedule = AdmissionSchedule::new(per_core[core].clone())?;
                let fault = FaultPlan::none().with_fault(now, FaultKind::CoreRetire)?;
                Some(serve_design_stressed(
                    design,
                    &schedule,
                    config,
                    opts,
                    &fault,
                    OverloadController::disarmed(),
                )?)
            };
        }
        // Displaced tenants in admission order: open quota when the region
        // died, or (for an evacuee scheduled to land after the boundary)
        // turned away at the retirement instant.
        let mut displaced: Vec<(usize, usize)> = Vec::new();
        for (idx, t) in tenants.iter_mut().enumerate() {
            if t.released || !region_cores.contains(&t.core) {
                continue;
            }
            t.released = true;
            let completed = reports[t.core]
                .as_ref()
                .and_then(|r| r.workloads().get(t.idx))
                .map(|w| w.completed_requests());
            let remaining = match completed {
                Some(done) => t.assigned.saturating_sub(done),
                None => t.assigned,
            };
            if remaining > 0 {
                displaced.push((idx, remaining));
            }
        }
        for (idx, remaining) in displaced {
            self.evacuate_tenant(
                idx, remaining, now, policy, fd, tenants, per_core, dirty_core, outcome, observer,
            )?;
        }
        Ok(())
    }

    /// Runs the backoff-and-shed ladder for one displaced tenant: an
    /// attempt is blocked while the failed region's uplink is partitioned
    /// and pays the faulted transfer cost of the context image on success.
    #[allow(clippy::too_many_arguments)]
    fn evacuate_tenant<O: SimObserver>(
        &mut self,
        tenant_idx: usize,
        remaining: usize,
        fail_at: f64,
        policy: &RecoveryPolicy,
        fd: &mut FaultDomains,
        tenants: &mut Vec<FleetTenant>,
        per_core: &mut [Vec<Admission>],
        dirty_core: &mut [bool],
        outcome: &mut FleetOutcome,
        observer: &mut O,
    ) -> V10Result<()> {
        let t = &tenants[tenant_idx];
        let (class, group, from_core, arrived_at, quota, label, decision) = (
            t.class,
            t.group,
            t.core,
            t.arrived_at,
            t.quota,
            t.label,
            t.decision,
        );
        let spec = per_core[from_core][t.idx].spec().clone();
        let displaced = Displaced {
            label: spec.label().to_string(),
            from_core,
            arrived_at,
            quota,
            remaining,
            per_request: u64_to_f64(spec.trace().total_compute_cycles()),
        };
        let src_group = self.state.topology().group_of(from_core)?;
        let readmission = policy.readmit(displaced, fail_at, |at| {
            if at < fd.partition_until[src_group] {
                // The failed region's snapshot is unreachable across a
                // partitioned uplink: back off and ride it out.
                return Ok(None);
            }
            self.heal_links(at, fd)?;
            outcome.rebuild_core_scans += self.rebuild_dirty(&fd.crashed)?;
            Ok(match self.query(class, group, &fd.crashed) {
                Placement::Core(core) => Some(core),
                Placement::Reject => None,
            })
        })?;
        match readmission {
            Readmission::Requeued(record) => {
                let (to_core, at) = (record.to_core, record.at_cycles);
                self.state.admit(to_core, class)?;
                self.invalidate(to_core)?;
                dirty_core[to_core] = true;
                let hops = self.state.topology().hop_cost(to_core, src_group)?;
                let transfer = self.state.topology().faulted_transfer_cycles(
                    EVAC_IMAGE_BYTES,
                    hops,
                    src_group,
                )?;
                let admission = Admission::new(spec, at + transfer, remaining)?;
                let idx = insert_admission(&mut per_core[to_core], tenants, to_core, admission);
                tenants.push(FleetTenant {
                    core: to_core,
                    idx,
                    class,
                    label,
                    released: false,
                    group,
                    arrived_at,
                    quota,
                    assigned: remaining,
                    decision,
                });
                fd.requeued.push(record);
                observer.on_event(SimEvent::TenantEvacuated {
                    from_core,
                    to_core,
                    at,
                });
            }
            Readmission::Shed(record) => {
                observer.on_event(SimEvent::RequestShed {
                    arrival: decision,
                    at: record.at_cycles,
                });
                fd.shed.push(record);
            }
        }
        Ok(())
    }
}

/// Inserts `admission` into `list` keeping it sorted by arrival time (ties
/// after existing entries, matching the schedule's stable sort) and shifts
/// the report indices of later tenants on `core`. Returns the insertion
/// index. In-order arrivals always append, so the plain path never shifts.
fn insert_admission(
    list: &mut Vec<Admission>,
    tenants: &mut [FleetTenant],
    core: usize,
    admission: Admission,
) -> usize {
    let at = admission.at_cycles();
    let idx = list.partition_point(|a| a.at_cycles() <= at);
    for t in tenants
        .iter_mut()
        .filter(|t| t.core == core && t.idx >= idx)
    {
        t.idx += 1;
    }
    list.insert(idx, admission);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_dataset;
    use crate::eval::PairPerfCache;
    use crate::pipeline::ClusteringPipeline;
    use v10_workloads::Model;

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

    fn arrivals() -> Vec<TimedArrival> {
        let models = [Model::Mnist, Model::Ncf, Model::Dlrm];
        (0..9)
            .map(|i| {
                let model = models[i % models.len()];
                #[allow(clippy::cast_precision_loss)]
                let at = 2_000_000.0 * i as f64;
                arrival(&format!("t{i}"), model, at, 1)
            })
            .collect()
    }

    fn plane(p: &ClusteringPipeline, shards: usize, threads: usize) -> FleetPlane<'_> {
        let placer = OnlinePlacer::new(p).with_threshold(0.01).unwrap();
        let topo = FleetTopology::mesh(4, 2, 2, 64.0).unwrap();
        let weights = TopologyWeights::new(0.02, 0.01).unwrap();
        FleetPlane::new(placer, topo, 2, shards, Cycles::new(4_000_000.0), weights)
            .unwrap()
            .with_threads(threads)
    }

    #[test]
    fn serve_places_everything_on_an_uncontended_fleet() {
        let p = pipeline();
        let mut plane = plane(&p, 2, 1);
        let arrivals = arrivals();
        let opts = RunOptions::new(1).unwrap();
        let (report, outcome) = plane
            .serve(&arrivals, Design::V10Full, &NpuConfig::table5(), &opts)
            .unwrap();
        assert_eq!(outcome.offered(), 9);
        assert_eq!(outcome.placed() + outcome.rejected(), 9);
        assert_eq!(outcome.rejected(), 0, "16 slots for 9 small tenants");
        assert_eq!(outcome.decisions().len(), 9);
        assert!(outcome.epochs() >= 2, "arrivals span multiple epochs");
        assert!(
            !outcome.departures().is_empty(),
            "later epochs should observe earlier tenants retiring"
        );
        assert_eq!(report.completed_requests(), 9);
        let hosted = report.per_core().iter().flatten().count();
        assert!(hosted >= 1);
    }

    #[test]
    fn departures_free_slots_for_later_arrivals() {
        let p = pipeline();
        // One core, one slot: only departure releases make room for the
        // second and third tenants, which arrive epochs later.
        let placer = OnlinePlacer::new(&p).with_threshold(0.01).unwrap();
        let topo = FleetTopology::flat(1).unwrap();
        let mut plane = FleetPlane::new(
            placer,
            topo,
            1,
            1,
            Cycles::new(1.0e7),
            TopologyWeights::zero(),
        )
        .unwrap();
        let stream = vec![
            arrival("a", Model::Mnist, 0.0, 1),
            arrival("b", Model::Mnist, 2.0e7, 1),
        ];
        let opts = RunOptions::new(1).unwrap();
        let (report, outcome) = plane
            .serve(&stream, Design::V10Full, &NpuConfig::table5(), &opts)
            .unwrap();
        assert_eq!(outcome.placed(), 2, "slot recycled across the epoch gap");
        assert_eq!(outcome.departures().len(), 1);
        assert_eq!(report.completed_requests(), 2);
    }

    #[test]
    fn reports_identical_across_shard_and_thread_counts() {
        let p = pipeline();
        let arrivals = arrivals();
        let opts = RunOptions::new(1).unwrap();
        let cfg = NpuConfig::table5();
        let (base_report, base_outcome) = plane(&p, 1, 1)
            .serve(&arrivals, Design::V10Full, &cfg, &opts)
            .unwrap();
        for (shards, threads) in [(2, 1), (4, 2), (8, 3)] {
            let (report, outcome) = plane(&p, shards, threads)
                .serve(&arrivals, Design::V10Full, &cfg, &opts)
                .unwrap();
            assert_eq!(report, base_report, "{shards} shards, {threads} threads");
            assert_eq!(outcome.decisions(), base_outcome.decisions());
            assert_eq!(outcome.departures(), base_outcome.departures());
            assert_eq!(outcome.placed(), base_outcome.placed());
            assert_eq!(outcome.epochs(), base_outcome.epochs());
        }
    }

    #[test]
    fn serving_twice_on_one_plane_matches_a_fresh_plane() {
        let p = pipeline();
        let arrivals = arrivals();
        let opts = RunOptions::new(1).unwrap();
        let cfg = NpuConfig::table5();
        let fresh = || plane(&p, 2, 1);
        let plain = fresh()
            .serve(&arrivals, Design::V10Full, &cfg, &opts)
            .unwrap();
        let mut reused = fresh();
        for _ in 0..2 {
            let again = reused
                .serve(&arrivals, Design::V10Full, &cfg, &opts)
                .unwrap();
            assert_eq!(again, plain, "a serve must not see earlier residents");
        }
        // Failed cores and a degraded uplink do not outlive their serve
        // either.
        let plan = FleetFaultPlan::none()
            .with_fault(
                0.0,
                FleetFaultKind::LinkDegrade {
                    hbm_group: 1,
                    factor: 4.0,
                },
            )
            .unwrap()
            .with_fault(3_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        reused
            .serve_faulted(
                &arrivals,
                Design::V10Full,
                &cfg,
                &opts,
                &plan,
                &RecoveryPolicy::new(),
                &mut NullObserver,
            )
            .unwrap();
        assert!(
            reused.state().is_failed(0).unwrap(),
            "state() keeps the last serve"
        );
        let after_faults = reused
            .serve(&arrivals, Design::V10Full, &cfg, &opts)
            .unwrap();
        assert_eq!(after_faults, plain);
    }

    #[test]
    fn finer_sharding_scans_fewer_cores() {
        let p = pipeline();
        let arrivals = arrivals();
        let opts = RunOptions::new(1).unwrap();
        let cfg = NpuConfig::table5();
        let scans = |shards: usize| {
            let (_, o) = plane(&p, shards, 1)
                .serve(&arrivals, Design::V10Full, &cfg, &opts)
                .unwrap();
            o.rebuild_core_scans()
        };
        let one = scans(1);
        let four = scans(4);
        assert!(
            four < one,
            "4-shard rebuilds ({four}) must scan fewer cores than 1-shard ({one})"
        );
    }

    /// A 4x2 mesh with two column-band HBM groups (group 0 = cores
    /// 0,1,4,5) and a strong hop penalty, so arrivals land in their home
    /// group whenever it has capacity.
    fn faulted_plane(p: &ClusteringPipeline, shards: usize, threads: usize) -> FleetPlane<'_> {
        let placer = OnlinePlacer::new(p).with_threshold(0.01).unwrap();
        let topo = FleetTopology::mesh(4, 2, 2, 64.0).unwrap();
        let weights = TopologyWeights::new(10.0, 0.0).unwrap();
        FleetPlane::new(placer, topo, 2, shards, Cycles::new(4_000_000.0), weights)
            .unwrap()
            .with_threads(threads)
    }

    /// Six long-running Bert tenants in epoch 0, plus one late arrival that
    /// forces the plane to process the epoch-2 boundary where mid-run
    /// faults apply. Collocation preference packs all six pairwise onto
    /// group-0 cores (the collocated tier beats any hop penalty), so a
    /// group-0 region failure displaces every tenant.
    fn faulted_arrivals() -> Vec<TimedArrival> {
        let mut stream: Vec<TimedArrival> = (0..6)
            .map(|i| {
                #[allow(clippy::cast_precision_loss)]
                let at = 100_000.0 * i as f64;
                arrival(&format!("b{i}"), Model::Bert, at, 8)
            })
            .collect();
        stream.push(arrival("late", Model::Mnist, 8_100_000.0, 1));
        stream
    }

    #[test]
    fn plain_serve_leaves_the_fault_ledgers_empty() {
        let p = pipeline();
        let (report, outcome) = plane(&p, 2, 1)
            .serve(
                &arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
            )
            .unwrap();
        assert!(report.requeued().is_empty());
        assert!(report.shed().is_empty());
        assert!(report.retired_cores().is_empty());
        assert!(outcome.shard_crashes().is_empty());
    }

    #[test]
    fn shard_crash_steers_arrivals_and_restores_next_boundary() {
        let p = pipeline();
        let plan = FleetFaultPlan::none()
            .with_fault(0.0, FleetFaultKind::ShardCrash { shard: 0 })
            .unwrap();
        // Shard 0 owns cores 0..4. Four epoch-0 arrivals, two epoch-1.
        let mut stream: Vec<TimedArrival> = (0..4)
            .map(|i| {
                #[allow(clippy::cast_precision_loss)]
                let at = 100_000.0 * i as f64;
                arrival(&format!("t{i}"), Model::Mnist, at, 1)
            })
            .collect();
        stream.push(arrival("t4", Model::Mnist, 4_200_000.0, 1));
        stream.push(arrival("t5", Model::Mnist, 4_300_000.0, 1));
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let (report, outcome) = plane
            .serve_faulted(
                &stream,
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &RecoveryPolicy::new(),
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(outcome.shard_crashes(), &[(0, 0.0)]);
        assert_eq!(outcome.shard_restores(), &[(0, 4_000_000.0)]);
        for d in &outcome.decisions()[..4] {
            match d.placement {
                Placement::Core(core) => assert!(
                    core >= 4,
                    "epoch-0 arrival on core {core}: the crashed shard 0 must be dark"
                ),
                Placement::Reject => panic!("shard 1 has 8 slots for 4 tenants"),
            }
        }
        assert_eq!(outcome.placed(), 6, "the restored shard serves epoch 1");
        assert!(report.conservation().holds());
    }

    /// With one shard a crash leaves no surviving admission worker: every
    /// arrival of the crash epoch is rejected (the 1-shard shard-crash row
    /// of `BENCH_fleet_faults.json`), and the restore at the next processed
    /// boundary places arrivals again.
    #[test]
    fn one_shard_crash_rejects_exactly_the_crash_epoch() {
        let p = pipeline();
        let plan = FleetFaultPlan::none()
            .with_fault(4_000_000.0, FleetFaultKind::ShardCrash { shard: 0 })
            .unwrap();
        let arrivals = arrivals();
        let mut plane = plane(&p, 1, 1);
        let (report, outcome) = plane
            .serve_faulted(
                &arrivals,
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
                &plan,
                &RecoveryPolicy::new(),
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(outcome.shard_crashes(), &[(0, 4_000_000.0)]);
        assert_eq!(outcome.shard_restores(), &[(0, 8_000_000.0)]);
        let crash_epoch = plane.clock().epoch_of(Cycles::new(4_000_000.0));
        for (arrival, decision) in arrivals.iter().zip(outcome.decisions()) {
            let in_crash_epoch =
                plane.clock().epoch_of(Cycles::new(arrival.at_cycles())) == crash_epoch;
            assert_eq!(
                decision.placement == Placement::Reject,
                in_crash_epoch,
                "{}",
                decision.label
            );
        }
        assert_eq!(outcome.rejected(), 2, "t2 and t3 arrive in the crash epoch");
        assert!(report.conservation().holds());
    }

    #[test]
    fn region_failure_evacuates_open_tenants_onto_survivors() {
        let p = pipeline();
        let plan = FleetFaultPlan::none()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        let policy = RecoveryPolicy::new().with_deadline_factor(400.0).unwrap();
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let (report, outcome) = plane
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &policy,
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(outcome.regions_failed(), &[(0, 8_000_000.0)]);
        assert_eq!(report.retired_cores().len(), 4, "group 0 is cores 0,1,4,5");
        for &(core, at) in report.retired_cores() {
            assert!(matches!(core, 0 | 1 | 4 | 5));
            assert_eq!(at, 8_000_000.0);
            assert!(plane.state().is_failed(core).unwrap());
        }
        // All six Bert tenants (8 requests over ~1.1e8 cycles each) have
        // open quota at the 8e6 boundary and must land on surviving
        // group-1 cores.
        assert_eq!(report.requeued().len(), 6, "shed={:?}", report.shed());
        assert!(report.shed().is_empty());
        for r in report.requeued() {
            assert!(matches!(r.from_core, 0 | 1 | 4 | 5));
            assert!(matches!(r.to_core, 2 | 3 | 6 | 7));
            assert!(r.at_cycles >= 8_000_000.0);
        }
        // Requests conservation through the blast radius: everything the
        // plane placed either completed (possibly after evacuation) or
        // shows up as a shed loss.
        let offered_requests: usize = faulted_arrivals().iter().map(|a| a.requests()).sum();
        assert_eq!(outcome.rejected(), 0);
        assert_eq!(
            report.completed_requests() + report.shed_requests(),
            offered_requests
        );
        assert!(report.conservation().holds());
    }

    #[test]
    fn partitioned_uplink_defers_evacuation_until_the_window_closes() {
        let p = pipeline();
        let plan = FleetFaultPlan::none()
            .with_fault(
                5_000_000.0,
                FleetFaultKind::LinkPartition {
                    hbm_group: 0,
                    window_cycles: 10_000_000.0,
                },
            )
            .unwrap()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        let policy = RecoveryPolicy::new()
            .with_deadline_factor(400.0)
            .unwrap()
            .with_max_retries(6);
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let (report, _) = plane
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &policy,
                &mut NullObserver,
            )
            .unwrap();
        // The partition holds until 5e6 + 1e7 = 1.5e7. Backoff attempts
        // fire at 8e6, 9e6, 1.1e7, 1.5e7: the first three are inside the
        // window, so every successful evacuation is attempt 3 at 1.5e7.
        assert_eq!(report.requeued().len(), 6, "shed={:?}", report.shed());
        for r in report.requeued() {
            assert_eq!(r.attempt, 3, "attempts inside the partition must fail");
            assert_eq!(r.at_cycles, 15_000_000.0);
        }
        assert!(report.conservation().holds());
        let offered_requests: usize = faulted_arrivals().iter().map(|a| a.requests()).sum();
        assert_eq!(
            report.completed_requests() + report.shed_requests(),
            offered_requests
        );
    }

    #[test]
    fn armed_fleet_serving_is_deterministic_across_thread_counts() {
        let p = pipeline();
        let plan = FleetFaultPlan::none()
            .with_fault(100_000.0, FleetFaultKind::ShardCrash { shard: 1 })
            .unwrap()
            .with_fault(
                4_500_000.0,
                FleetFaultKind::LinkDegrade {
                    hbm_group: 0,
                    factor: 4.0,
                },
            )
            .unwrap()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        let policy = RecoveryPolicy::new().with_deadline_factor(400.0).unwrap();
        let opts = RunOptions::new(1).unwrap();
        let cfg = NpuConfig::table5();
        let arrivals = faulted_arrivals();
        let run = |threads: usize| {
            faulted_plane(&p, 2, threads)
                .serve_faulted(
                    &arrivals,
                    Design::V10Full,
                    &cfg,
                    &opts,
                    &plan,
                    &policy,
                    &mut NullObserver,
                )
                .unwrap()
        };
        let (base_report, base_outcome) = run(1);
        let (report, outcome) = run(3);
        assert_eq!(report, base_report);
        assert_eq!(outcome, base_outcome);
        assert!(base_report.conservation().holds());
    }

    #[test]
    fn disarmed_identity_holds_across_shard_and_thread_matrix() {
        let p = pipeline();
        let arrivals = arrivals();
        let opts = RunOptions::new(1).unwrap();
        let cfg = NpuConfig::table5();
        let (base_report, base_outcome) = plane(&p, 1, 1)
            .serve(&arrivals, Design::V10Full, &cfg, &opts)
            .unwrap();
        for shards in [1, 2, 4, 8] {
            for threads in [1, 2, 4] {
                let (report, outcome) = plane(&p, shards, threads)
                    .serve_faulted(
                        &arrivals,
                        Design::V10Full,
                        &cfg,
                        &opts,
                        &v10_sim::FleetFaultPlan::none(),
                        &RecoveryPolicy::new(),
                        &mut NullObserver,
                    )
                    .unwrap();
                assert_eq!(report, base_report, "{shards} shards, {threads} threads");
                assert_eq!(outcome.decisions(), base_outcome.decisions());
                assert_eq!(outcome.departures(), base_outcome.departures());
            }
        }
    }

    #[test]
    fn armed_run_passes_the_fleet_conservation_oracle() {
        use v10_core::{check_serve_invariants, FleetConservation};
        let p = pipeline();
        // Crash shard 1 mid-run (applied at the 4e6 boundary, restored at
        // 8e6), then blow away HBM group 0 over a degraded uplink.
        let plan = FleetFaultPlan::none()
            .with_fault(100_000.0, FleetFaultKind::ShardCrash { shard: 1 })
            .unwrap()
            .with_fault(
                4_500_000.0,
                FleetFaultKind::LinkDegrade {
                    hbm_group: 0,
                    factor: 2.0,
                },
            )
            .unwrap()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        let mut stream = faulted_arrivals();
        // An epoch-1 arrival forces the 4e6 boundary to be processed so the
        // crashed shard restores before the run ends.
        stream.insert(6, arrival("mid", Model::Mnist, 4_200_000.0, 1));
        let policy = RecoveryPolicy::new().with_deadline_factor(400.0).unwrap();
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let (report, outcome) = plane
            .serve_faulted(
                &stream,
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &policy,
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(outcome.shard_crashes(), &[(1, 4_000_000.0)]);
        assert_eq!(outcome.shard_restores(), &[(1, 8_000_000.0)]);
        assert!(!report.requeued().is_empty());

        let mut auditor = FleetConservation::new();
        auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
        for &(shard, at) in outcome.shard_crashes() {
            auditor.record_shard_crash(shard, at);
        }
        for &(shard, at) in outcome.shard_restores() {
            auditor.record_shard_restore(shard, at);
        }
        for &(group, at) in outcome.regions_failed() {
            let cores: Vec<usize> = report
                .retired_cores()
                .iter()
                .filter(|&&(_, when)| when == at)
                .map(|&(core, _)| core)
                .collect();
            auditor.record_region_fail(group, &cores, at);
        }
        for r in report.requeued() {
            auditor.record_evacuation(r.from_core, r.to_core, r.at_cycles);
        }
        for s in report.shed() {
            auditor.record_shed(s.from_core, s.at_cycles);
        }
        for (core, r) in report.per_core().iter().enumerate() {
            if let Some(r) = r {
                auditor.record_core(core, r);
            }
        }
        auditor.record_departures(8, outcome.departures());
        auditor.reconcile();
        assert!(
            auditor.is_clean(),
            "fleet conservation violated: {:?}",
            auditor.violations()
        );

        // Every per-core report independently passes the serving oracle.
        for r in report.per_core().iter().flatten() {
            let offered = r.workloads().len()
                + usize::try_from(r.rejected_admissions()).unwrap()
                + usize::try_from(r.overload_stats().shed_requests()).unwrap();
            let violations = check_serve_invariants(r, offered);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn out_of_range_fault_targets_rejected_up_front() {
        let p = pipeline();
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let plan = FleetFaultPlan::none()
            .with_fault(0.0, FleetFaultKind::ShardCrash { shard: 9 })
            .unwrap();
        let err = plane
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &RecoveryPolicy::new(),
                &mut NullObserver,
            )
            .unwrap_err();
        assert!(err.to_string().contains("out-of-range"), "{err}");
        let plan = FleetFaultPlan::none()
            .with_fault(0.0, FleetFaultKind::RegionFail { hbm_group: 7 })
            .unwrap();
        let err = plane
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &RecoveryPolicy::new(),
                &mut NullObserver,
            )
            .unwrap_err();
        assert!(err.to_string().contains("out-of-range"), "{err}");
    }

    #[test]
    fn unsorted_arrivals_rejected() {
        let p = pipeline();
        let mut plane = plane(&p, 1, 1);
        let stream = vec![
            arrival("a", Model::Mnist, 1000.0, 1),
            arrival("b", Model::Mnist, 0.0, 1),
        ];
        let opts = RunOptions::new(1).unwrap();
        let err = plane
            .serve(&stream, Design::V10Full, &NpuConfig::table5(), &opts)
            .unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");
    }

    #[test]
    fn degenerate_planes_rejected() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p);
        let topo = || FleetTopology::flat(4).unwrap();
        assert!(FleetPlane::new(
            placer,
            topo(),
            0,
            1,
            Cycles::new(1.0),
            TopologyWeights::zero()
        )
        .is_err());
        assert!(FleetPlane::new(
            placer,
            topo(),
            1,
            0,
            Cycles::new(1.0),
            TopologyWeights::zero()
        )
        .is_err());
        assert!(FleetPlane::new(
            placer,
            topo(),
            1,
            5,
            Cycles::new(1.0),
            TopologyWeights::zero()
        )
        .is_err());
        assert!(FleetPlane::new(
            placer,
            topo(),
            1,
            1,
            Cycles::new(0.0),
            TopologyWeights::zero()
        )
        .is_err());
    }
}
