//! The sharded fleet serving plane: topology-aware admission over a
//! ≥1000-core fleet, partitioned into per-shard admission workers that
//! exchange state deterministically at epoch boundaries.
//!
//! # Placement: cached scores, decomposed argmax
//!
//! The flat [`OnlinePlacer`] ranking is an argmax over every core: each
//! arrival rescans the fleet. The fleet plane avoids both halves of that
//! cost.
//!
//! * **Each core is scored once per occupancy change.** A core's
//!   [`OnlinePlacer::topo_score`] is a pure function of the class and of
//!   the core's residents, capacity and failed flag (plus the static hop
//!   table and the plane's weights), so the plane caches every core's
//!   scores for each (behavior class, home HBM group) pair. An admit, a
//!   release or a region failure marks its one core stale, and only a
//!   stale core is rescored.
//! * **The argmax is decomposed across shards.** Cores are partitioned into
//!   fixed contiguous shards ([`ShardMap`]); each shard's admission worker
//!   keeps a summary table of its best candidate core per (class, home
//!   group) pair. An occupancy change dirties exactly one worker's table;
//!   the next placement query rebuilds only the dirty tables from the
//!   cached scores — a scan of `cores / shards` cores instead of `cores` —
//!   and takes the argmax over the `shards` table entries.
//!
//! Because a cached score equals a fresh one until its core's occupancy
//! changes, and every scan keeps the incumbent on ties, the decomposed
//! argmax picks the *identical* core the flat scan would: the cache and
//! finer sharding change the work done, never the answer (debug builds
//! check both on every query). Sharding cuts the rebuild scans by roughly
//! the shard count; with scores cached, a scan reads a few cached entries
//! per core, so most of the plane's wall time is advancing the per-core
//! runs, which sharding does not shrink.
//!
//! # Determinism across shard and thread counts
//!
//! Shards exchange state only at epoch boundaries ([`EpochClock`]): tenant
//! departures read from the per-core engine runs are released
//! in simulated-time order ([`merge_messages`], tie-broken by core index
//! and arrival index), and only departures at or before the boundary are
//! applied. Each core the plane touches runs as one resumable [`CoreRun`]:
//! at every processed boundary each live run advances once, up to the
//! boundary, and the plane reads its departures there; admissions placed
//! in the epoch are then handed to their cores' runs, all dated at or
//! after the boundary. A resumed run is bit-identical to a run handed its
//! whole admission list up front, so a departure once applied can never
//! be retracted by later admissions — the plane's slot bookkeeping is
//! conservative with respect to the engine's own context table and the
//! engine never rejects an admission the plane made (a serve where it did
//! is an error). Each core simulates each admission once. The runs
//! advance through the workspace's input-order scatter-back parallel map
//! ([`parallel_map_with`]), so the [`ClusterServeReport`] is
//! byte-identical across 1/2/4/8 shards and any worker-thread count; only
//! the [`FleetOutcome`] scan counters depend on the shard layout.
//!
//! # Fleet fault domains
//!
//! [`FleetPlane::serve_faulted`] extends the epoch loop with scripted,
//! epoch-quantized fleet faults ([`FleetFaultPlan`]): each event applies at
//! the first processed epoch boundary at or after its scripted time, in
//! compiled order, so the blast radius is a deterministic function of the
//! plan and the arrival stream alone. The plane processes only the
//! boundaries of epochs that hold arrivals, so an event scripted after the
//! last one (the start of the last arrival's epoch) could never apply; the
//! serve rejects it up front.
//!
//! * **Shard crash / restore** ([`FleetFaultKind::ShardCrash`]): the
//!   shard's admission worker goes dark — its summary table is lost and
//!   the decomposed argmax skips it, steering the crash epoch's arrivals
//!   onto surviving shards (the cores it owns keep serving: the data plane
//!   outlives its control plane). At the next processed boundary the
//!   worker comes back and rebuilds its table from the fleet state with
//!   one dirty rebuild before its next query.
//! * **Region failure** ([`FleetFaultKind::RegionFail`]): every core in
//!   one HBM affinity group fails together. Each core's run is handed a
//!   scripted `CoreRetire` at the boundary and finished, and its report is
//!   frozen; residents with open quota are displaced and re-placed through
//!   the same decomposed argmax under an exponential backoff-and-shed
//!   ladder ([`recovery`](crate::recovery)) — shed when even ideal service
//!   from the attempt time misses the deadline, or when retries exhaust
//!   against a full fleet.
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
    Admission, CoreRun, Design, FaultEvent, NullObserver, OverloadController, RunOptions,
    RunReport, SimEvent, SimObserver, WorkloadSpec,
};
use v10_npu::{ClusterState, FleetTopology, NpuConfig};
use v10_sim::convert::{u64_from_usize, u64_to_f64};
use v10_sim::{
    merge_messages, parallel_map_with, Cycles, DepartureMsg, EpochClock, FaultKind, FaultPlan,
    FleetFaultEvent, FleetFaultKind, FleetFaultPlan, ShardMap, V10Error, V10Result,
};
use v10_workloads::TimedArrival;

use crate::placer::{AdmissionDecision, OnlinePlacer, Placement, TopoScore, TopologyWeights};
use crate::recovery::{
    readmit, ClusterServeReport, Displaced, Readmission, RequeueRecord, ShedRecord,
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
    region_fail_log: Vec<(usize, f64)>,
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

    /// Cores scanned by summary-table rebuilds. This counter is the *only*
    /// shard-layout-dependent observable: at one shard every admission
    /// triggers a full-fleet rescan, at `S` shards a `cores / S` rescan. A
    /// scan reads the core's cached scores and rescores only a core whose
    /// occupancy changed, so the count measures the decomposition, not
    /// the scoring work.
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

    /// Region failures applied, as `(hbm_group, boundary_cycles)` in
    /// application order.
    #[must_use]
    pub fn regions_failed(&self) -> &[(usize, f64)] {
        &self.region_fail_log
    }
}

/// One placed tenant's plane-side bookkeeping.
#[derive(Debug, Clone)]
struct FleetTenant {
    core: usize,
    /// Position among the core's admissions == position in the core's
    /// report workload list (both ordered by admission time with ties in
    /// insertion order, as a run queues its admissions; evacuations insert
    /// mid-order and shift the indices after them). Set by
    /// [`Tenants::push`].
    idx: usize,
    /// When the tenant is admitted to `core`: its arrival, or for an
    /// evacuee its landing after the context transfer.
    admit_at: f64,
    class: usize,
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
    /// Index into [`FleetOutcome::decisions`]: the tenant's arrival index,
    /// which its observer events and departure messages carry.
    decision: usize,
}

/// The serve's placed tenants in placement order, with each core's
/// tenants in report order.
struct Tenants {
    all: Vec<FleetTenant>,
    /// `by_core[core]`: indices into `all` of the tenants placed on `core`,
    /// in report order, so `all[by_core[core][i]].idx == i`.
    by_core: Vec<Vec<usize>>,
}

impl Tenants {
    fn new(cores: usize, capacity: usize) -> Self {
        Tenants {
            all: Vec::with_capacity(capacity),
            by_core: vec![Vec::new(); cores],
        }
    }

    /// Records `tenant` at the report index an admission at its `admit_at`
    /// takes among its core's admissions — ordered by admission time with
    /// ties after existing entries, as the core's run queues them —
    /// shifting the indices of later tenants on the core. In-order
    /// arrivals always append, so the plain path never shifts.
    fn push(&mut self, mut tenant: FleetTenant) -> V10Result<()> {
        let on_core = self
            .by_core
            .get_mut(tenant.core)
            .ok_or_else(|| unknown_core(tenant.core))?;
        let idx = on_core
            .iter()
            .filter(|&&id| self.all[id].admit_at <= tenant.admit_at)
            .count();
        for &id in &on_core[idx..] {
            self.all[id].idx += 1;
        }
        on_core.insert(idx, self.all.len());
        tenant.idx = idx;
        self.all.push(tenant);
        Ok(())
    }
}

/// Mutable fault-domain state one faulted serve threads through its epoch
/// loop: the compiled plan cursor, per-shard crash flags, per-group
/// link-health shadows, and the recovery ledger.
struct FaultDomains {
    events: Vec<FleetFaultEvent>,
    cursor: usize,
    /// Crashed-shard flags; a crashed worker is skipped by table rebuilds
    /// and placement queries until its boundary restore.
    crashed: Vec<bool>,
    /// Simulated time each group's partition window closes
    /// (`NEG_INFINITY` when never partitioned).
    partition_until: Vec<f64>,
    /// Sticky degrade factor to re-apply when a partition heals.
    degrade: Vec<f64>,
    requeued: Vec<RequeueRecord>,
    shed: Vec<ShedRecord>,
    retired: Vec<(usize, f64)>,
}

impl FaultDomains {
    /// Brings every crashed shard worker back at `boundary`. Its table has
    /// stayed dirty since the crash, so the next query's rebuild recomputes
    /// it from the fleet state, admissions and departures it missed
    /// included.
    fn restore_crashed_shards<O: SimObserver>(&mut self, boundary: Cycles, observer: &mut O) {
        let now = boundary.as_f64();
        for (shard, crashed) in self.crashed.iter_mut().enumerate() {
            if std::mem::take(crashed) {
                observer.on_event(SimEvent::ShardRestored { shard, at: now });
            }
        }
    }
}

/// The plane's resumable per-core runs: one for each core it has touched,
/// each handed its admissions as the plane places them and advanced once
/// per processed epoch boundary.
struct CoreRuns<'c> {
    design: Design,
    config: &'c NpuConfig,
    opts: RunOptions,
    /// `runs[core]`: the core's run, from the first admission the plane
    /// hands it until the core fails or the serve ends. Boxed, so untouched
    /// cores cost a pointer.
    runs: Vec<Option<Box<CoreRun<NullObserver>>>>,
    /// `frozen[core]`: a failed core's final report, frozen when its run
    /// retired. Boxed, so cores that never fail cost a pointer.
    frozen: Vec<Option<Box<RunReport>>>,
}

impl<'c> CoreRuns<'c> {
    fn new(cores: usize, design: Design, config: &'c NpuConfig, opts: RunOptions) -> Self {
        CoreRuns {
            design,
            config,
            opts,
            runs: std::iter::repeat_with(|| None).take(cores).collect(),
            frozen: std::iter::repeat_with(|| None).take(cores).collect(),
        }
    }

    /// Hands `admission` to `core`'s run, starting the run on the core's
    /// first admission.
    fn push(&mut self, core: usize, admission: Admission) -> V10Result<()> {
        let slot = self.runs.get_mut(core).ok_or_else(|| unknown_core(core))?;
        let run = match slot {
            Some(run) => run,
            None => slot.insert(Box::new(CoreRun::new(
                self.design,
                self.config,
                &self.opts,
                &FaultPlan::none(),
                OverloadController::disarmed(),
                NullObserver,
            )?)),
        };
        run.push(admission)
    }

    /// Advances every live run to `boundary`, on `threads` workers.
    fn advance(&mut self, threads: usize, boundary: Cycles) -> V10Result<()> {
        let runs = self.runs.iter_mut().flatten();
        parallel_map_with(threads, runs, |run| run.run_until(boundary))
            .into_iter()
            .collect()
    }

    /// When the `idx`-th tenancy admitted to `core` retired, if it has by
    /// the run's current instant.
    fn retired_at(&self, core: usize, idx: usize) -> Option<f64> {
        self.runs.get(core)?.as_ref()?.retired_at_cycles(idx)
    }

    /// Retires `core` at `at` with a scripted `CoreRetire` and freezes its
    /// run's report (none for a core that never hosted a tenant).
    fn retire(&mut self, core: usize, at: f64) -> V10Result<()> {
        let Some(mut run) = self.runs.get_mut(core).and_then(Option::take) else {
            return Ok(());
        };
        run.push_fault(FaultEvent::new(at, FaultKind::CoreRetire)?)?;
        let frozen = self
            .frozen
            .get_mut(core)
            .ok_or_else(|| unknown_core(core))?;
        *frozen = Some(Box::new(run.finish()?));
        Ok(())
    }

    /// `core`'s frozen report, if it failed.
    fn frozen(&self, core: usize) -> Option<&RunReport> {
        self.frozen.get(core)?.as_deref()
    }

    /// Finishes every live run on `threads` workers; returns each core's
    /// report.
    fn finish(self, threads: usize) -> V10Result<Vec<Option<RunReport>>> {
        let finished = parallel_map_with(threads, self.runs, |run| {
            run.map(|run| run.finish()).transpose()
        });
        finished
            .into_iter()
            .zip(self.frozen)
            .map(|(finished, frozen)| Ok(finished?.or(frozen.map(|r| *r))))
            .collect()
    }
}

fn unknown_core(core: usize) -> V10Error {
    V10Error::invalid(
        "FleetPlane::serve",
        format!("core {core} is not in the fleet"),
    )
}

/// A topology-aware, sharded admission plane over a multi-core fleet.
///
/// Construction fixes the fleet geometry ([`FleetTopology`]), the shard
/// partition, the epoch length, and the topology scoring weights; then
/// [`serve`](Self::serve) plays an arrival stream forward and returns a
/// [`ClusterServeReport`] (the per-core reports and the recovery ledger)
/// plus a [`FleetOutcome`] with the plane's decisions and work counters.
/// It is the one multi-core serving path: a two-core cluster is
/// `FleetTopology::flat(2)` with one shard. Every serve starts from the
/// plane as constructed.
#[derive(Debug)]
pub struct FleetPlane<'a> {
    placer: OnlinePlacer<'a>,
    /// The fleet as the last serve left it.
    state: ClusterState,
    shard_map: ShardMap,
    clock: EpochClock,
    weights: TopologyWeights,
    workers: Vec<ShardWorker>,
    /// `scores[(core * classes + class) * groups + group]`: the core's
    /// [`OnlinePlacer::topo_score`] for that (class, home group), as of its
    /// last rescoring.
    scores: Vec<Option<TopoScore>>,
    /// `stale[core]`: the core's occupancy changed since it was last
    /// rescored.
    stale: Vec<bool>,
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
        let cores = state.cores();
        Ok(FleetPlane {
            placer,
            state,
            shard_map,
            clock,
            weights,
            workers,
            scores: vec![None; cores * classes * groups],
            stale: vec![true; cores],
            threads: 1,
            groups,
            classes,
            slots_per_core,
        })
    }

    /// Sets the worker-thread count for advancing the per-core runs at each
    /// epoch boundary (default 1). The report is byte-identical at any
    /// thread count; the threads only shorten wall-clock on multi-core
    /// hosts.
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
    /// state: no residents, no failed cores, healthy links, empty tables,
    /// every core due a rescoring.
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
        self.stale.fill(true);
        Ok(())
    }

    /// Rebuilds every dirty live worker's summary table and returns the
    /// cores scanned doing so. A scanned core is rescored only when its
    /// occupancy changed since its last rescoring; the table is then the
    /// argmax over the scanned cores' cached scores. Crashed workers stay
    /// dirty until their boundary restore.
    fn rebuild_dirty(&mut self, crashed: &[bool]) -> V10Result<u64> {
        let row = self.classes * self.groups;
        let mut scanned = 0u64;
        for (shard, &down) in crashed.iter().enumerate() {
            if down || !self.workers[shard].dirty {
                continue;
            }
            let range = self.shard_map.range(shard);
            scanned += u64_from_usize(range.len());
            for core in range.clone() {
                if self.stale[core] {
                    self.rescore(core)?;
                }
            }
            let worker = &mut self.workers[shard];
            worker.best.fill(None);
            let rows = self.scores[range.start * row..range.end * row].chunks_exact(row);
            for (core, scores) in range.zip(rows) {
                for (slot, &score) in worker.best.iter_mut().zip(scores) {
                    let Some(score) = score else {
                        continue;
                    };
                    if slot.is_none_or(|(incumbent, _)| score.beats(&incumbent)) {
                        *slot = Some((score, core));
                    }
                }
            }
            worker.dirty = false;
        }
        Ok(scanned)
    }

    /// Recomputes `core`'s cached score for every (class, home group) and
    /// clears its stale mark.
    fn rescore(&mut self, core: usize) -> V10Result<()> {
        let row = self.score_row(core);
        for (i, slot) in self.scores[row].iter_mut().enumerate() {
            let (class, group) = (i / self.groups, i % self.groups);
            *slot = self
                .placer
                .topo_score(class, core, &self.state, group, &self.weights)?;
        }
        self.stale[core] = false;
        Ok(())
    }

    /// `core`'s entries in `scores`, one per (class, home group).
    fn score_row(&self, core: usize) -> std::ops::Range<usize> {
        let row = self.classes * self.groups;
        core * row..(core + 1) * row
    }

    /// The decomposed argmax: best summary entry across live shards in
    /// shard order, incumbent kept on ties. Shards own ascending core
    /// ranges, so this picks exactly the core the flat
    /// lowest-index-tie-break scan (`OnlinePlacer::best_core`) would.
    /// Crashed shards are skipped — their blast radius is the arrivals
    /// their cores would have won.
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
        let placement = best.map_or(Placement::Reject, |(_, core)| Placement::Core(core));
        #[cfg(debug_assertions)]
        self.debug_validate_placement(class, group, crashed, placement);
        placement
    }

    /// Checks the score cache against its reference: every core of every
    /// live shard caches exactly the scores a fresh
    /// [`OnlinePlacer::topo_score`] returns, and with no shard crashed the
    /// decomposed argmax picks the core the flat scan
    /// (`OnlinePlacer::best_core`) picks. Debug builds run this on every
    /// query; release builds compile it out.
    ///
    /// # Panics
    ///
    /// Panics when a cached score or the placement diverges from its
    /// recomputation.
    #[cfg(debug_assertions)]
    fn debug_validate_placement(
        &self,
        class: usize,
        group: usize,
        crashed: &[bool],
        placement: Placement,
    ) {
        for (shard, _) in crashed.iter().enumerate().filter(|(_, &down)| !down) {
            for core in self.shard_map.range(shard) {
                for (i, &score) in self.scores[self.score_row(core)].iter().enumerate() {
                    let (c, g) = (i / self.groups, i % self.groups);
                    let fresh = self
                        .placer
                        .topo_score(c, core, &self.state, g, &self.weights);
                    assert_eq!(
                        fresh.ok(),
                        Some(score),
                        "core {core}: cached score for class {c}, home group {g} is stale"
                    );
                }
            }
        }
        if !crashed.contains(&true) {
            let flat = self
                .placer
                .best_core(class, &self.state, group, &self.weights);
            assert_eq!(
                flat.ok(),
                Some(placement),
                "class {class}, home group {group}: the decomposed argmax diverged from the \
                 flat scan"
            );
        }
    }

    /// Marks `core` due a rescoring and the worker owning it dirty: the
    /// core's occupancy changed.
    fn invalidate(&mut self, core: usize) -> V10Result<()> {
        let owner = self.shard_map.owner(core)?;
        self.workers[owner].dirty = true;
        self.stale[core] = true;
        Ok(())
    }

    /// Releases every unapplied departure at or before `boundary`:
    /// collects one message stream per owning shard from the per-core runs
    /// (advanced to the boundary), merges them into simulated-time order,
    /// and frees the departed tenants' slots. Returns the merged messages.
    fn apply_departures(
        &mut self,
        boundary: Cycles,
        tenants: &mut Tenants,
        runs: &CoreRuns<'_>,
    ) -> V10Result<Vec<DepartureMsg>> {
        let mut streams: Vec<Vec<DepartureMsg>> = vec![Vec::new(); self.workers.len()];
        for t in tenants.all.iter_mut().filter(|t| !t.released) {
            let Some(retired_at) = runs.retired_at(t.core, t.idx) else {
                continue;
            };
            if retired_at > boundary.as_f64() {
                continue;
            }
            t.released = true;
            self.state.release(t.core, t.class)?;
            self.invalidate(t.core)?;
            let owner = self.shard_map.owner(t.core)?;
            streams[owner].push(DepartureMsg {
                at_cycles: Cycles::new(retired_at),
                core: t.core,
                arrival: t.decision,
            });
        }
        Ok(merge_messages(streams))
    }

    /// Serves `arrivals` (non-decreasing in time) on the fleet under
    /// `design`. Each core the plane admits a tenant to runs as one
    /// resumable [`CoreRun`], handed its admissions as they are placed and
    /// advanced once per processed epoch boundary, so each admission is
    /// simulated once. The engine's context table is sized to the plane's
    /// `slots_per_core`, so plane bookkeeping and hardware state agree.
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
            &mut NullObserver,
        )
    }

    /// [`serve`](Self::serve) under a scripted [`FleetFaultPlan`]: shard
    /// crashes darken their admission worker for the rest of the crash
    /// epoch, region failures retire whole HBM groups and evacuate their
    /// residents through the backoff-and-shed ladder of
    /// [`recovery`](crate::recovery), and link
    /// faults tax or block the evacuation transfers (see the module docs).
    ///
    /// The recovery ledger lands in the returned [`ClusterServeReport`]
    /// ([`requeued`](ClusterServeReport::requeued),
    /// [`shed`](ClusterServeReport::shed),
    /// [`retired_cores`](ClusterServeReport::retired_cores)); the
    /// [`FleetOutcome`] carries the fault application log. The plane's
    /// fault and recovery decisions — [`SimEvent::ShardCrashed`],
    /// [`SimEvent::ShardRestored`], [`SimEvent::RegionFailed`],
    /// [`SimEvent::TenantEvacuated`], and [`SimEvent::RequestShed`] (the
    /// last two with `arrival` indexing [`FleetOutcome::decisions`]) — go
    /// to `observer` in application order. With the empty plan the ledgers
    /// are empty and the result is bit-identical to [`serve`](Self::serve).
    ///
    /// # Errors
    ///
    /// As [`serve`](Self::serve), plus [`V10Error::InvalidArgument`] when a
    /// plan event targets a shard or HBM group the plane does not have, or
    /// is scripted after the last epoch boundary the serve processes (the
    /// start of the last arrival's epoch; with no arrivals, none), where
    /// it could never apply.
    pub fn serve_faulted<O: SimObserver>(
        &mut self,
        arrivals: &[TimedArrival],
        design: Design,
        config: &NpuConfig,
        opts: &RunOptions,
        plan: &FleetFaultPlan,
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
        self.validate_events(&events, arrivals)?;
        self.reset()?;
        let armed = !events.is_empty();
        let mut fd = FaultDomains {
            events,
            cursor: 0,
            crashed: vec![false; self.shard_map.shards()],
            partition_until: vec![f64::NEG_INFINITY; self.groups],
            degrade: vec![1.0; self.groups],
            requeued: Vec::new(),
            shed: Vec::new(),
            retired: Vec::new(),
        };
        let opts = opts.with_table_capacity(self.slots_per_core)?;
        let mut runs = CoreRuns::new(self.state.cores(), design, config, opts);
        let mut tenants = Tenants::new(self.state.cores(), arrivals.len());
        let mut outcome = FleetOutcome {
            shards: self.shard_map.shards(),
            epochs: 0,
            offered: arrivals.len(),
            placed: 0,
            rejected: 0,
            rebuild_core_scans: 0,
            departures: Vec::with_capacity(arrivals.len()),
            decisions: Vec::with_capacity(arrivals.len()),
            region_fail_log: Vec::new(),
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
                fd.restore_crashed_shards(boundary, observer);
            }

            // Epoch boundary: every live run reaches it, then the shards
            // exchange departures and free the retired tenants' slots.
            runs.advance(self.threads, boundary)?;
            let merged = self.apply_departures(boundary, &mut tenants, &runs)?;
            outcome.departures.extend(merged);

            if armed {
                self.apply_fleet_faults(
                    boundary,
                    arrivals,
                    &mut fd,
                    &mut tenants,
                    &mut runs,
                    &mut outcome,
                    observer,
                )?;
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
                    label: arrival.shared_label(),
                    model: arrival.model(),
                    at_cycles: arrival.at_cycles(),
                    placement,
                });
                match placement {
                    Placement::Core(core) => {
                        self.state.admit(core, class)?;
                        self.invalidate(core)?;
                        let at = arrival.at_cycles();
                        runs.push(core, admission_of(arrival, at, arrival.requests())?)?;
                        tenants.push(FleetTenant {
                            core,
                            idx: 0,
                            admit_at: at,
                            class,
                            released: false,
                            group,
                            arrived_at: at,
                            quota: arrival.requests(),
                            assigned: arrival.requests(),
                            decision,
                        })?;
                        outcome.placed += 1;
                    }
                    Placement::Reject => outcome.rejected += 1,
                }
                i += 1;
            }
        }

        let reports = runs.finish(self.threads)?;
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
        let report = ClusterServeReport::from_parts(reports, fd.requeued, fd.shed, fd.retired);
        Ok((report, outcome))
    }

    /// Rejects plan events that target a shard or HBM group the plane does
    /// not have, or that no processed epoch boundary would apply (scripted
    /// after the start of the last arrival's epoch), before the serve
    /// touches any state.
    fn validate_events(
        &self,
        events: &[FleetFaultEvent],
        arrivals: &[TimedArrival],
    ) -> V10Result<()> {
        let last_boundary = arrivals.last().map(|a| {
            self.clock
                .start_of(self.clock.epoch_of(Cycles::new(a.at_cycles())))
        });
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
            let late = match last_boundary {
                Some(boundary) if e.at_cycles() <= boundary.as_f64() => continue,
                Some(boundary) => format!(
                    "the last processed epoch boundary is {} (the start of the last \
                     arrival's epoch)",
                    boundary.as_f64()
                ),
                None => "no arrivals, so no epoch boundary is processed".to_string(),
            };
            return Err(V10Error::invalid(
                "FleetPlane::serve_faulted",
                format!(
                    "{} at {} would never apply: {late}",
                    e.kind().label(),
                    e.at_cycles()
                ),
            ));
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

    /// Applies every compiled fleet fault scripted at or before `boundary`
    /// in compiled order.
    #[allow(clippy::too_many_arguments)]
    fn apply_fleet_faults<O: SimObserver>(
        &mut self,
        boundary: Cycles,
        arrivals: &[TimedArrival],
        fd: &mut FaultDomains,
        tenants: &mut Tenants,
        runs: &mut CoreRuns<'_>,
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
                    // The table dies with the worker: it stays dirty, and is
                    // neither read nor rebuilt until the restore.
                    fd.crashed[shard] = true;
                    self.workers[shard].dirty = true;
                    observer.on_event(SimEvent::ShardCrashed { shard, at: now });
                }
                FleetFaultKind::RegionFail { hbm_group } => {
                    self.fail_region(
                        hbm_group, boundary, arrivals, fd, tenants, runs, outcome, observer,
                    )?;
                }
                FleetFaultKind::LinkDegrade { hbm_group, factor } => {
                    fd.degrade[hbm_group] = factor;
                    if !self.state.topology().is_link_partitioned(hbm_group)? {
                        self.state.topology_mut().degrade_link(hbm_group, factor)?;
                    }
                }
                FleetFaultKind::LinkPartition {
                    hbm_group,
                    window_cycles,
                } => {
                    fd.partition_until[hbm_group] =
                        fd.partition_until[hbm_group].max(event.at_cycles() + window_cycles);
                    self.state.topology_mut().partition_link(hbm_group)?;
                }
                FleetFaultKind::LinkRestore { hbm_group } => {
                    fd.degrade[hbm_group] = 1.0;
                    fd.partition_until[hbm_group] = f64::NEG_INFINITY;
                    self.state.topology_mut().restore_link(hbm_group)?;
                }
            }
        }
        Ok(())
    }

    /// Fails every live core of one HBM affinity group at `boundary`:
    /// retires each core's run with a scripted `CoreRetire` and freezes its
    /// report, then runs the evacuation ladder for every resident with open
    /// quota, in admission order.
    #[allow(clippy::too_many_arguments)]
    fn fail_region<O: SimObserver>(
        &mut self,
        group: usize,
        boundary: Cycles,
        arrivals: &[TimedArrival],
        fd: &mut FaultDomains,
        tenants: &mut Tenants,
        runs: &mut CoreRuns<'_>,
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
            // The retired run's report is this core's final word:
            // pre-failure completions count (those responses were
            // delivered), and the core never runs again.
            runs.retire(core, now)?;
        }
        // Displaced tenants in admission order: open quota when the region
        // died, or (for an evacuee scheduled to land after the boundary)
        // turned away at the retirement instant.
        let mut on_region: Vec<usize> = region_cores
            .iter()
            .flat_map(|&core| tenants.by_core[core].iter().copied())
            .collect();
        on_region.sort_unstable();
        let mut displaced: Vec<(usize, usize)> = Vec::new();
        for idx in on_region {
            let t = &mut tenants.all[idx];
            if t.released {
                continue;
            }
            t.released = true;
            let completed = runs
                .frozen(t.core)
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
                idx, remaining, now, arrivals, fd, tenants, runs, outcome, observer,
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
        arrivals: &[TimedArrival],
        fd: &mut FaultDomains,
        tenants: &mut Tenants,
        runs: &mut CoreRuns<'_>,
        outcome: &mut FleetOutcome,
        observer: &mut O,
    ) -> V10Result<()> {
        let t = &tenants.all[tenant_idx];
        let (class, group, from_core, arrived_at, quota, decision) =
            (t.class, t.group, t.core, t.arrived_at, t.quota, t.decision);
        let arrival = arrivals.get(decision).ok_or_else(|| {
            V10Error::invalid("FleetPlane::serve", "tenant without an admission decision")
        })?;
        let displaced = Displaced {
            label: arrival.shared_label(),
            from_core,
            arrived_at,
            quota,
            remaining,
            per_request: u64_to_f64(arrival.source().total_compute_cycles()),
        };
        let src_group = self.state.topology().group_of(from_core)?;
        let readmission = readmit(displaced, fail_at, |at| {
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
                let hops = self.state.topology().hop_cost(to_core, src_group)?;
                let transfer = self.state.topology().faulted_transfer_cycles(
                    EVAC_IMAGE_BYTES,
                    hops,
                    src_group,
                )?;
                let lands_at = at + transfer;
                runs.push(to_core, admission_of(arrival, lands_at, remaining)?)?;
                tenants.push(FleetTenant {
                    core: to_core,
                    idx: 0,
                    admit_at: lands_at,
                    class,
                    released: false,
                    group,
                    arrived_at,
                    quota,
                    assigned: remaining,
                    decision,
                })?;
                fd.requeued.push(record);
                observer.on_event(SimEvent::TenantEvacuated {
                    arrival: decision,
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

/// The engine admission for `arrival`'s session landing on a core at
/// `at` with `requests` requests to serve. It shares the arrival's label
/// and trace source, so a sampled session's trace is built only when the
/// core seats it.
fn admission_of(arrival: &TimedArrival, at: f64, requests: usize) -> V10Result<Admission> {
    let spec = WorkloadSpec::new(arrival.shared_label(), arrival.source().clone());
    Admission::new(spec, at, requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_dataset;
    use crate::eval::PairPerfCache;
    use crate::pipeline::ClusteringPipeline;
    use v10_core::FleetConservation;
    use v10_workloads::Model;

    /// Records the plane-level events a faulted serve emits, in emission
    /// order: shard crashes and restores as `(shard, boundary_cycles)`,
    /// evacuations as `(arrival, from_core, to_core, at)`, and sheds as
    /// `(arrival, at)`.
    #[derive(Default)]
    struct FaultLog {
        crashes: Vec<(usize, f64)>,
        restores: Vec<(usize, f64)>,
        evacuations: Vec<(usize, usize, usize, f64)>,
        sheds: Vec<(usize, f64)>,
    }

    impl SimObserver for FaultLog {
        fn on_event(&mut self, event: SimEvent) {
            match event {
                SimEvent::ShardCrashed { shard, at } => self.crashes.push((shard, at)),
                SimEvent::ShardRestored { shard, at } => self.restores.push((shard, at)),
                SimEvent::TenantEvacuated {
                    arrival,
                    from_core,
                    to_core,
                    at,
                } => self.evacuations.push((arrival, from_core, to_core, at)),
                SimEvent::RequestShed { arrival, at } => self.sheds.push((arrival, at)),
                _ => {}
            }
        }
    }

    /// Feeds one serve's outputs to the [`FleetConservation`] oracle — the
    /// admission flow, the shard crashes and restores `log` recorded, the
    /// region failures, evacuations and sheds, every core's report, and the
    /// departure stream — and asserts that it comes back clean.
    fn assert_conserved(report: &ClusterServeReport, outcome: &FleetOutcome, log: &FaultLog) {
        let mut auditor = FleetConservation::new();
        auditor.record_flow(outcome.offered(), outcome.placed(), outcome.rejected());
        for &(shard, at) in &log.crashes {
            auditor.record_shard_crash(shard, at);
        }
        for &(shard, at) in &log.restores {
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
        auditor.record_departures(report.per_core().len(), outcome.departures());
        auditor.reconcile();
        assert!(
            auditor.is_clean(),
            "fleet conservation violated: {:?}",
            auditor.violations()
        );
    }

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

        // The cluster latency summary, its p99, and the sorted samples
        // agree.
        let samples = report.latencies_cycles();
        assert_eq!(samples.len(), 9);
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "{samples:?}");
        let summary = report.latency_summary().unwrap();
        assert_eq!(summary.count(), report.completed_requests());
        let direct = v10_sim::LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(summary.p99().to_bits(), direct.p99().to_bits());
        assert_eq!(
            report.p99_latency_cycles().to_bits(),
            summary.p99().to_bits()
        );
        assert!(summary.p50() <= summary.p95() && summary.p95() <= summary.p99());
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

    /// Two sessions may share a label: a departure names its tenant by
    /// arrival index, so a one-slot core that seats `dup` twice in turn
    /// releases two distinct tenants and the oracle stays clean.
    #[test]
    fn sessions_sharing_a_label_depart_as_distinct_tenants() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p).with_threshold(0.01).unwrap();
        let topo = FleetTopology::mesh(1, 1, 1, 64.0).unwrap();
        let weights = TopologyWeights::new(0.02, 0.01).unwrap();
        let mut plane = FleetPlane::new(placer, topo, 1, 1, Cycles::new(1.0e7), weights).unwrap();
        let stream = [
            arrival("dup", Model::Mnist, 0.0, 1),
            arrival("dup", Model::Mnist, 2.0e7, 1),
            arrival("x", Model::Mnist, 4.0e7, 1),
        ];
        let (report, outcome) = plane
            .serve(
                &stream,
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
            )
            .unwrap();
        assert_eq!(outcome.placed(), 3);
        let departed: Vec<usize> = outcome.departures().iter().map(|d| d.arrival).collect();
        assert_eq!(departed, [0, 1]);
        assert_conserved(&report, &outcome, &FaultLog::default());
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
        assert!(outcome.regions_failed().is_empty());

        let mut log = FaultLog::default();
        plane(&p, 2, 1)
            .serve_faulted(
                &arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
                &FleetFaultPlan::none(),
                &mut log,
            )
            .unwrap();
        assert!(log.crashes.is_empty());
        assert!(log.restores.is_empty());
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
        let mut log = FaultLog::default();
        let (report, outcome) = plane
            .serve_faulted(
                &stream,
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &mut log,
            )
            .unwrap();
        assert_eq!(log.crashes, &[(0, 0.0)]);
        assert_eq!(log.restores, &[(0, 4_000_000.0)]);
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
        assert_conserved(&report, &outcome, &log);
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
        let mut log = FaultLog::default();
        let (report, outcome) = plane
            .serve_faulted(
                &arrivals,
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
                &plan,
                &mut log,
            )
            .unwrap();
        assert_eq!(log.crashes, &[(0, 4_000_000.0)]);
        assert_eq!(log.restores, &[(0, 8_000_000.0)]);
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
        assert_conserved(&report, &outcome, &log);
    }

    /// Each core's report — a run resumed at every epoch boundary, or one
    /// retired by a region failure — equals a from-scratch serve of the
    /// arrivals placed on that core (with the `CoreRetire` for a failed
    /// core). Cores that took evacuees are skipped: their landing times
    /// are internal to the plane.
    #[test]
    fn per_core_runs_equal_from_scratch_serves() {
        use v10_core::{serve_design_stressed, AdmissionSchedule};
        let p = pipeline();
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(1).unwrap();
        let region_fail = FleetFaultPlan::none()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        let mut stream = faulted_arrivals();
        stream.extend(arrivals().into_iter().map(|a| {
            let at = a.at_cycles() + 9_000_000.0;
            arrival(&format!("late-{}", a.label()), a.model(), at, 1)
        }));
        for plan in [FleetFaultPlan::none(), region_fail] {
            let (report, outcome) = faulted_plane(&p, 2, 2)
                .serve_faulted(
                    &stream,
                    Design::V10Full,
                    &cfg,
                    &opts,
                    &plan,
                    &mut NullObserver,
                )
                .unwrap();
            let mut compared = 0;
            for (core, got) in report.per_core().iter().enumerate() {
                if report.requeued().iter().any(|r| r.to_core == core) {
                    continue;
                }
                let admissions: Vec<Admission> = stream
                    .iter()
                    .zip(outcome.decisions())
                    .filter(|(_, d)| d.placement == Placement::Core(core))
                    .map(|(a, _)| admission_of(a, a.at_cycles(), a.requests()).unwrap())
                    .collect();
                if admissions.is_empty() {
                    assert!(got.is_none(), "core {core}");
                    continue;
                }
                let mut faults = FaultPlan::none();
                if let Some(&(_, at)) = report.retired_cores().iter().find(|r| r.0 == core) {
                    faults = faults.with_fault(at, FaultKind::CoreRetire).unwrap();
                }
                let want = serve_design_stressed(
                    Design::V10Full,
                    &AdmissionSchedule::new(admissions).unwrap(),
                    &cfg,
                    &opts.with_table_capacity(2).unwrap(),
                    &faults,
                    OverloadController::disarmed(),
                )
                .unwrap();
                assert_eq!(got.as_ref(), Some(&want), "core {core}");
                compared += 1;
            }
            assert!(compared >= 2, "compared {compared} cores");
        }
    }

    #[test]
    fn region_failure_evacuates_open_tenants_onto_survivors() {
        let p = pipeline();
        let plan = FleetFaultPlan::none()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap();
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let mut log = FaultLog::default();
        let (report, outcome) = plane
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &mut log,
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
        assert_conserved(&report, &outcome, &log);

        // One evacuation event per requeue, naming the evacuee's decision.
        assert!(log.sheds.is_empty());
        assert_eq!(log.evacuations.len(), report.requeued().len());
        for (&(arrival, from_core, to_core, at), r) in log.evacuations.iter().zip(report.requeued())
        {
            assert_eq!(outcome.decisions()[arrival].label, r.label);
            assert_eq!(
                outcome.decisions()[arrival].placement,
                Placement::Core(from_core)
            );
            assert_eq!(
                (from_core, to_core, at),
                (r.from_core, r.to_core, r.at_cycles)
            );
        }
    }

    /// HBM group 0 fails at 5e6 (applied at the 8e6 boundary) with its
    /// uplink partitioned for `window_cycles` from 5e6. Recovery attempts
    /// fire at 8e6, 9e6, 1.1e7, 1.5e7 and 2.3e7.
    fn partitioned_region_fail(window_cycles: f64) -> FleetFaultPlan {
        FleetFaultPlan::none()
            .with_fault(
                5_000_000.0,
                FleetFaultKind::LinkPartition {
                    hbm_group: 0,
                    window_cycles,
                },
            )
            .unwrap()
            .with_fault(5_000_000.0, FleetFaultKind::RegionFail { hbm_group: 0 })
            .unwrap()
    }

    /// A light session displaced behind a partition cannot wait it out. A
    /// one-request Mnist session (8.0e5 ideal cycles) placed on group 0 at
    /// 7.5e6 is due 8 × 8.0e5 later, at 1.39e7. The partition, dark until
    /// 1.5e7, blocks the attempts at 8e6, 9e6 and 1.1e7, and ideal service
    /// from the next one would miss the deadline, so the session is shed
    /// there as deadline-unmeetable. The six Bert tenants, due ~9e8 cycles
    /// after arrival, ride the partition out. One `RequestShed` names the
    /// session's decision.
    #[test]
    fn light_session_behind_a_partition_sheds_at_its_deadline() {
        let p = pipeline();
        let mut stream = faulted_arrivals();
        stream.insert(6, arrival("m6", Model::Mnist, 7_500_000.0, 1));
        let mut log = FaultLog::default();
        let (report, outcome) = faulted_plane(&p, 2, 1)
            .serve_faulted(
                &stream,
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
                &partitioned_region_fail(10_000_000.0),
                &mut log,
            )
            .unwrap();
        assert_eq!(outcome.decisions()[6].placement, Placement::Core(5));
        assert_eq!(report.requeued().len(), 6, "shed={:?}", report.shed());
        assert_eq!(log.evacuations.len(), 6);
        assert_eq!(report.shed().len(), 1, "{:?}", report.shed());
        let shed = &report.shed()[0];
        assert_eq!(
            (&*shed.label, shed.at_cycles, shed.lost_requests),
            ("m6", 15_000_000.0, 1)
        );
        assert!(shed.deadline_unmeetable);
        assert!(report.shed_fraction() > 0.0);
        assert_eq!(log.sheds, &[(6, 15_000_000.0)]);
        // Requests are conserved with a shed present: every placed request
        // either completed (possibly after evacuation) or is a shed loss.
        let offered_requests: usize = stream.iter().map(TimedArrival::requests).sum();
        assert_eq!(outcome.rejected(), 0);
        assert_eq!(
            report.completed_requests() + report.shed_requests(),
            offered_requests
        );
        assert_conserved(&report, &outcome, &log);
    }

    #[test]
    fn partitioned_uplink_defers_evacuation_until_the_window_closes() {
        let p = pipeline();
        let (report, outcome) = faulted_plane(&p, 2, 1)
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
                &partitioned_region_fail(10_000_000.0),
                &mut NullObserver,
            )
            .unwrap();
        // The partition holds until 5e6 + 1e7 = 1.5e7: the attempts at
        // 8e6, 9e6 and 1.1e7 are inside the window, so every successful
        // evacuation is attempt 3 at 1.5e7.
        assert_eq!(report.requeued().len(), 6, "shed={:?}", report.shed());
        for r in report.requeued() {
            assert_eq!(r.attempt, 3, "attempts inside the partition must fail");
            assert_eq!(r.at_cycles, 15_000_000.0);
        }
        assert_conserved(&report, &outcome, &FaultLog::default());
        let offered_requests: usize = faulted_arrivals().iter().map(|a| a.requests()).sum();
        assert_eq!(
            report.completed_requests() + report.shed_requests(),
            offered_requests
        );
    }

    /// A partition that outlasts the whole ladder sheds on exhausted
    /// retries, not on the deadline: dark until 2.5e7, it blocks all five
    /// attempts, so each of the six Bert tenants (due ~9e8 cycles after
    /// arrival) is shed at the last one, 2.3e7, with all 8 requests lost.
    #[test]
    fn partition_outlasting_every_attempt_sheds_on_exhausted_retries() {
        let p = pipeline();
        let mut log = FaultLog::default();
        let (report, outcome) = faulted_plane(&p, 2, 1)
            .serve_faulted(
                &faulted_arrivals(),
                Design::V10Full,
                &NpuConfig::table5(),
                &RunOptions::new(1).unwrap(),
                &partitioned_region_fail(20_000_000.0),
                &mut log,
            )
            .unwrap();
        assert!(report.requeued().is_empty());
        assert!(log.evacuations.is_empty());
        assert_eq!(report.shed().len(), 6, "{:?}", report.shed());
        for shed in report.shed() {
            assert!(!shed.deadline_unmeetable, "{shed:?}");
            assert_eq!((shed.at_cycles, shed.lost_requests), (23_000_000.0, 8));
        }
        assert_eq!(log.sheds.len(), report.shed().len());
        for (&(arrival, at), s) in log.sheds.iter().zip(report.shed()) {
            assert_eq!(outcome.decisions()[arrival].label, s.label);
            assert_eq!(at, s.at_cycles);
        }
        let offered_requests: usize = faulted_arrivals().iter().map(|a| a.requests()).sum();
        assert_eq!(outcome.rejected(), 0);
        assert_eq!(
            report.completed_requests() + report.shed_requests(),
            offered_requests
        );
        assert_conserved(&report, &outcome, &log);
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
                    &mut NullObserver,
                )
                .unwrap()
        };
        let (base_report, base_outcome) = run(1);
        let (report, outcome) = run(3);
        assert_eq!(report, base_report);
        assert_eq!(outcome, base_outcome);
        assert_conserved(&base_report, &base_outcome, &FaultLog::default());
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
        use v10_core::check_serve_invariants;
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
        let opts = RunOptions::new(1).unwrap();
        let mut plane = faulted_plane(&p, 2, 1);
        let mut log = FaultLog::default();
        let (report, outcome) = plane
            .serve_faulted(
                &stream,
                Design::V10Full,
                &NpuConfig::table5(),
                &opts,
                &plan,
                &mut log,
            )
            .unwrap();
        assert_eq!(log.crashes, &[(1, 4_000_000.0)]);
        assert_eq!(log.restores, &[(1, 8_000_000.0)]);
        assert!(!report.requeued().is_empty());

        assert_conserved(&report, &outcome, &log);

        // Every per-core report independently passes the serving oracle.
        for r in report.per_core().iter().flatten() {
            let offered = r.workloads().len()
                + usize::try_from(r.rejected_admissions()).unwrap()
                + usize::try_from(r.overload_stats().shed_requests()).unwrap();
            let violations = check_serve_invariants(r, offered);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    /// A plan event the serve could never apply is rejected before any
    /// state changes: one targeting a shard or HBM group the plane does not
    /// have, or one scripted after the last processed epoch boundary (the
    /// start of the last arrival's epoch; with no arrivals, any event),
    /// which would otherwise return a report indistinguishable from a
    /// disarmed serve.
    #[test]
    fn faults_that_cannot_apply_are_rejected_up_front() {
        let p = pipeline();
        let opts = RunOptions::new(1).unwrap();
        let cfg = NpuConfig::table5();
        let mut plane = faulted_plane(&p, 2, 1);
        let mut serve = |arrivals: &[TimedArrival], at: f64, kind: FleetFaultKind| {
            let plan = FleetFaultPlan::none().with_fault(at, kind).unwrap();
            plane.serve_faulted(
                arrivals,
                Design::V10Full,
                &cfg,
                &opts,
                &plan,
                &mut NullObserver,
            )
        };
        let stream = faulted_arrivals();
        for kind in [
            FleetFaultKind::ShardCrash { shard: 9 },
            FleetFaultKind::RegionFail { hbm_group: 7 },
        ] {
            let err = serve(&stream, 0.0, kind).unwrap_err();
            assert!(err.to_string().contains("out-of-range"), "{err}");
        }
        // The last arrival (8.1e6) lies in the epoch that starts at 8e6.
        let region = FleetFaultKind::RegionFail { hbm_group: 0 };
        let err = serve(&stream, 8_000_001.0, region).unwrap_err();
        assert!(matches!(err, V10Error::InvalidArgument { .. }), "{err}");
        assert!(
            err.to_string().contains(
                "at 8000001 would never apply: the last processed epoch boundary is 8000000"
            ),
            "{err}"
        );
        let err = serve(&[], 0.0, region).unwrap_err();
        assert!(err.to_string().contains("no arrivals"), "{err}");
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
