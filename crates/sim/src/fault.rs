//! Deterministic fault injection: declarative plans compiled to event streams.
//!
//! V10's operator-granularity preemption hardware (input checkpoint + replay
//! on the SA, PC/register save on the VU, §3.3 of the paper) doubles as a
//! recovery primitive: an operator corrupted in flight can be re-issued from
//! its checkpoint at exactly the preemption-overhead cost of Fig. 21. This
//! module supplies the *fault side* of that story — a seeded, deterministic
//! source of scheduled fault events that the engine crates consume:
//!
//! * [`FaultPlan`] — a declarative description of the faults one core will
//!   experience: individually scripted events plus an optional Poisson
//!   stream of transient operator faults.
//! * [`FaultInjector`] — the compiled form: every stochastic event is
//!   pre-sampled at compile time from a [`SimRng`] seeded by the plan, then
//!   merged and sorted, so injection during a run consumes **no** randomness
//!   and a run under a given plan replays bit-for-bit from its seed
//!   (lint rule D2 clean by construction).
//!
//! A disarmed injector (compiled from [`FaultPlan::none`]) holds no events:
//! it offers no time horizon and no fault ever fires, so the recovery
//! machinery in the engines is behavior-neutral when fault injection is off.
//!
//! # Example
//!
//! ```
//! use v10_sim::{FaultInjector, FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::none()
//!     .with_fault(5.0e6, FaultKind::TransientOp { victim_salt: 1 })
//!     .unwrap()
//!     .with_fault(9.0e6, FaultKind::CoreRetire)
//!     .unwrap();
//! let mut inj = FaultInjector::compile(&plan).unwrap();
//! assert_eq!(inj.next_at(), Some(5.0e6));
//! let first = inj.pop_due(5.0e6, 1e-6).unwrap();
//! assert!(matches!(first.kind(), FaultKind::TransientOp { .. }));
//! assert_eq!(inj.remaining(), 1);
//! ```

use std::collections::VecDeque;

use crate::convert::{u64_from_usize, usize_from_u64};
use crate::error::{V10Error, V10Result};
use crate::rng::SimRng;

/// Compiled-plan size cap: a plan whose Poisson stream would expand past
/// this many events is rejected at compile time instead of exhausting
/// memory (e.g. a microsecond-scale mean against a multi-hour horizon).
pub const MAX_COMPILED_EVENTS: usize = 65_536;

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transient corruption of one in-flight operator: the engine picks the
    /// victim among currently-issued operators, discards its progress, and
    /// re-issues it from the input checkpoint at the design's context-switch
    /// cost (V10: Fig. 21 per-FU cycle costs; PMT: a whole-core 20–40 µs
    /// restore).
    TransientOp {
        /// Deterministic victim-selection salt. The engine maps it onto the
        /// set of occupied functional units with [`pick_victim`], keeping
        /// the injection path free of run-time RNG draws.
        victim_salt: u64,
    },
    /// Transient whole-core stall: every functional unit freezes for the
    /// given duration, then execution resumes with no work lost.
    CoreStall {
        /// How long the core is frozen, in cycles. Finite and positive.
        stall_cycles: f64,
    },
    /// Permanent core retirement: the core drains, every resident tenant is
    /// force-retired, and pending arrivals bounce back to admission.
    CoreRetire,
}

impl FaultKind {
    /// Stable snake_case label used by the JSON-lines observer encoding.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TransientOp { .. } => "transient_op",
            FaultKind::CoreStall { .. } => "core_stall",
            FaultKind::CoreRetire => "core_retire",
        }
    }
}

/// Maps a victim salt uniformly onto `[0, candidates)`.
///
/// Returns 0 when `candidates` is 0 so callers can guard on emptiness
/// separately without a panic path.
#[must_use]
pub fn pick_victim(salt: u64, candidates: usize) -> usize {
    if candidates == 0 {
        return 0;
    }
    usize_from_u64(salt % u64_from_usize(candidates))
}

/// A single scheduled fault: a timestamp plus a [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    at_cycles: f64,
    kind: FaultKind,
}

impl FaultEvent {
    /// Builds a validated fault event.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] when `at_cycles` is not finite
    /// and non-negative, or when a [`FaultKind::CoreStall`] duration is not
    /// finite and positive.
    pub fn new(at_cycles: f64, kind: FaultKind) -> V10Result<Self> {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            return Err(V10Error::invalid(
                "FaultEvent::new",
                format!("fault time must be finite and non-negative, got {at_cycles}"),
            ));
        }
        if let FaultKind::CoreStall { stall_cycles } = kind {
            if !stall_cycles.is_finite() || stall_cycles <= 0.0 {
                return Err(V10Error::invalid(
                    "FaultEvent::new",
                    format!("stall duration must be finite and positive, got {stall_cycles}"),
                ));
            }
        }
        Ok(FaultEvent { at_cycles, kind })
    }

    /// When the fault fires, in simulated cycles.
    #[must_use]
    pub fn at_cycles(&self) -> f64 {
        self.at_cycles
    }

    /// What the fault does.
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        self.kind
    }
}

/// Parameters of one seeded Poisson stream of transient faults.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PoissonSpec {
    seed: u64,
    mean_interarrival_cycles: f64,
    horizon_cycles: f64,
}

/// Declarative description of the faults one engine run will experience.
///
/// A plan combines individually scripted events ([`FaultPlan::with_fault`])
/// with an optional Poisson stream of transient operator faults. The
/// default plan ([`FaultPlan::none`]) carries no faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    scripted: Vec<FaultEvent>,
    transients: Option<PoissonSpec>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever. Compiling it yields a disarmed
    /// injector, under which every engine run is bit-identical to a run
    /// without fault support at all.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan carries no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scripted.is_empty() && self.transients.is_none()
    }

    /// Adds one scripted fault at an absolute simulated time.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultEvent::new`] validation failures.
    pub fn with_fault(mut self, at_cycles: f64, kind: FaultKind) -> V10Result<Self> {
        self.scripted.push(FaultEvent::new(at_cycles, kind)?);
        Ok(self)
    }

    /// Adds a seeded Poisson stream of transient operator faults with the
    /// given mean interarrival, truncated at `horizon_cycles`. Victim salts
    /// are drawn from the same stream, so the whole schedule is a pure
    /// function of `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] for a non-positive mean or a
    /// non-finite/negative horizon, or when the plan already has a
    /// transient stream.
    pub fn with_poisson_transients(
        mut self,
        seed: u64,
        mean_interarrival_cycles: f64,
        horizon_cycles: f64,
    ) -> V10Result<Self> {
        let invalid =
            |message: String| V10Error::invalid("FaultPlan::with_poisson_transients", message);
        if self.transients.is_some() {
            return Err(invalid("plan already has a transient-fault stream".into()));
        }
        if !mean_interarrival_cycles.is_finite() || mean_interarrival_cycles <= 0.0 {
            return Err(invalid(format!(
                "mean interarrival must be finite and positive, got {mean_interarrival_cycles}"
            )));
        }
        if !horizon_cycles.is_finite() || horizon_cycles < 0.0 {
            return Err(invalid(format!(
                "horizon must be finite and non-negative, got {horizon_cycles}"
            )));
        }
        self.transients = Some(PoissonSpec {
            seed,
            mean_interarrival_cycles,
            horizon_cycles,
        });
        Ok(self)
    }

    /// The individually scripted events, in insertion order.
    #[must_use]
    pub fn scripted(&self) -> &[FaultEvent] {
        &self.scripted
    }
}

/// A [`FaultPlan`] compiled into a time-ordered queue of concrete events.
///
/// Compilation pre-samples every stochastic event, so injection during a
/// run is a deterministic queue pop: no RNG state lives in the injector and
/// two runs under the same plan see byte-identical fault schedules
/// regardless of thread count or host.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    queue: VecDeque<FaultEvent>,
    injected: usize,
}

impl FaultInjector {
    /// An injector with no events: never fires, never bounds a time step.
    #[must_use]
    pub fn disarmed() -> Self {
        FaultInjector {
            queue: VecDeque::new(),
            injected: 0,
        }
    }

    /// Compiles a plan: expands its Poisson stream from its seed, merges it
    /// with the scripted events, and sorts by fire time
    /// (`total_cmp`; ties keep scripted-before-generated insertion order).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] when the expansion exceeds
    /// [`MAX_COMPILED_EVENTS`].
    pub fn compile(plan: &FaultPlan) -> V10Result<Self> {
        let mut events: Vec<FaultEvent> = plan.scripted.clone();
        if let Some(spec) = plan.transients {
            let mut rng = SimRng::seed_from(spec.seed);
            let mut t = 0.0;
            loop {
                t += rng.exponential(spec.mean_interarrival_cycles);
                if t > spec.horizon_cycles {
                    break;
                }
                let victim_salt = rng.next_u64();
                events.push(FaultEvent {
                    at_cycles: t,
                    kind: FaultKind::TransientOp { victim_salt },
                });
                if events.len() > MAX_COMPILED_EVENTS {
                    return Err(V10Error::invalid(
                        "FaultInjector::compile",
                        format!("plan expands past {MAX_COMPILED_EVENTS} events; raise the mean interarrival or shorten the horizon"),
                    ));
                }
            }
        }
        events.sort_by(|a, b| a.at_cycles.total_cmp(&b.at_cycles));
        Ok(FaultInjector {
            queue: events.into(),
            injected: 0,
        })
    }

    /// Fire time of the next pending fault, if any. Engines fold this into
    /// their time-step horizon so no fault fires mid-step.
    #[must_use]
    #[inline]
    pub fn next_at(&self) -> Option<f64> {
        self.queue.front().map(FaultEvent::at_cycles)
    }

    /// Pops the next fault if it is due at `now` (within `slack` cycles of
    /// simultaneity, the engines' `EPS`).
    #[inline]
    pub fn pop_due(&mut self, now: f64, slack: f64) -> Option<FaultEvent> {
        let due = self
            .queue
            .front()
            .is_some_and(|e| e.at_cycles <= now + slack);
        if !due {
            return None;
        }
        let event = self.queue.pop_front();
        if event.is_some() {
            self.injected += 1;
        }
        event
    }

    /// Queues one more scripted fault after every queued event due at or
    /// before its fire time. A resumable core run pushes faults this way as
    /// they become known instead of compiling them up front.
    pub fn push(&mut self, event: FaultEvent) {
        let at = event.at_cycles;
        let pos = self.queue.partition_point(|e| e.at_cycles <= at);
        self.queue.insert(pos, event);
    }

    /// Number of faults not yet fired.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }

    /// Number of faults fired so far.
    #[must_use]
    pub fn injected(&self) -> usize {
        self.injected
    }
}

/// What a scheduled fleet-plane fault does when it fires. Where
/// [`FaultKind`] describes a fault *inside* one core, these describe faults
/// of the serving fleet's control and transport planes: a shard worker
/// crashing, a whole HBM affinity group failing together (correlated blast
/// radius), and interconnect links degrading or partitioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetFaultKind {
    /// A shard worker crashes: its candidate tables and in-flight placement
    /// state are lost, and at the next epoch boundary it comes back and
    /// rebuilds its tables from the fleet state, deterministically.
    ShardCrash {
        /// Which shard crashes (index into the fleet's `ShardMap`).
        shard: usize,
    },
    /// Every core in one HBM affinity group fails together: residents are
    /// orphaned and must be evacuated onto surviving groups.
    RegionFail {
        /// Which topology affinity group fails.
        hbm_group: usize,
    },
    /// The uplink of one HBM group degrades: transfer latency through the
    /// group is multiplied by `factor` until the link is restored by a
    /// later [`FleetFaultKind::LinkRestore`].
    LinkDegrade {
        /// Which group's uplink degrades.
        hbm_group: usize,
        /// Transfer-cycle multiplier. Finite and ≥ 1.
        factor: f64,
    },
    /// The uplink of one HBM group partitions entirely for a bounded
    /// window: no transfer through the group completes until the window
    /// elapses.
    LinkPartition {
        /// Which group's uplink partitions.
        hbm_group: usize,
        /// How long the partition lasts, in cycles. Finite and positive.
        window_cycles: f64,
    },
    /// The uplink of one HBM group returns to its nominal latency,
    /// clearing any earlier degrade.
    LinkRestore {
        /// Which group's uplink is restored.
        hbm_group: usize,
    },
}

impl FleetFaultKind {
    /// Stable snake_case label used by observer encodings and bench rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FleetFaultKind::ShardCrash { .. } => "shard_crash",
            FleetFaultKind::RegionFail { .. } => "region_fail",
            FleetFaultKind::LinkDegrade { .. } => "link_degrade",
            FleetFaultKind::LinkPartition { .. } => "link_partition",
            FleetFaultKind::LinkRestore { .. } => "link_restore",
        }
    }
}

/// A single scheduled fleet-plane fault: a timestamp plus a
/// [`FleetFaultKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultEvent {
    at_cycles: f64,
    kind: FleetFaultKind,
}

impl FleetFaultEvent {
    /// Builds a validated fleet fault event.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] when `at_cycles` is not finite
    /// and non-negative, when a [`FleetFaultKind::LinkDegrade`] factor is
    /// not finite and ≥ 1, or when a [`FleetFaultKind::LinkPartition`]
    /// window is not finite and positive.
    pub fn new(at_cycles: f64, kind: FleetFaultKind) -> V10Result<Self> {
        if !at_cycles.is_finite() || at_cycles < 0.0 {
            return Err(V10Error::invalid(
                "FleetFaultEvent::new",
                format!("fault time must be finite and non-negative, got {at_cycles}"),
            ));
        }
        match kind {
            FleetFaultKind::LinkDegrade { factor, .. } => {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(V10Error::invalid(
                        "FleetFaultEvent::new",
                        format!("degrade factor must be finite and >= 1, got {factor}"),
                    ));
                }
            }
            FleetFaultKind::LinkPartition { window_cycles, .. } => {
                if !window_cycles.is_finite() || window_cycles <= 0.0 {
                    return Err(V10Error::invalid(
                        "FleetFaultEvent::new",
                        format!(
                            "partition window must be finite and positive, got {window_cycles}"
                        ),
                    ));
                }
            }
            FleetFaultKind::ShardCrash { .. }
            | FleetFaultKind::RegionFail { .. }
            | FleetFaultKind::LinkRestore { .. } => {}
        }
        Ok(FleetFaultEvent { at_cycles, kind })
    }

    /// When the fault fires, in simulated cycles.
    #[must_use]
    pub fn at_cycles(&self) -> f64 {
        self.at_cycles
    }

    /// What the fault does.
    #[must_use]
    pub fn kind(&self) -> FleetFaultKind {
        self.kind
    }
}

/// Declarative description of the fleet-plane faults one serving run will
/// experience. All events are scripted — fleet faults are rare, correlated
/// incidents, not a stochastic background process — so the plan is its own
/// compiled form: [`FleetFaultPlan::compiled`] returns the events sorted by
/// fire time and the fleet plane consumes them with a cursor at epoch
/// boundaries.
///
/// The default plan ([`FleetFaultPlan::none`]) carries no faults; a fleet
/// run under it is bit-identical to a run on the plain fault-free path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetFaultPlan {
    scripted: Vec<FleetFaultEvent>,
}

impl FleetFaultPlan {
    /// The empty plan: no fleet faults, ever.
    #[must_use]
    pub fn none() -> Self {
        FleetFaultPlan::default()
    }

    /// Whether the plan carries no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scripted.is_empty()
    }

    /// Adds one scripted fleet fault at an absolute simulated time.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetFaultEvent::new`] validation failures, and rejects
    /// plans past [`MAX_COMPILED_EVENTS`].
    pub fn with_fault(mut self, at_cycles: f64, kind: FleetFaultKind) -> V10Result<Self> {
        if self.scripted.len() >= MAX_COMPILED_EVENTS {
            return Err(V10Error::invalid(
                "FleetFaultPlan::with_fault",
                format!("plan already holds {MAX_COMPILED_EVENTS} events"),
            ));
        }
        self.scripted.push(FleetFaultEvent::new(at_cycles, kind)?);
        Ok(self)
    }

    /// The scripted events, in insertion order.
    #[must_use]
    pub fn scripted(&self) -> &[FleetFaultEvent] {
        &self.scripted
    }

    /// The events sorted by fire time (`total_cmp`; ties keep insertion
    /// order), ready for cursor-based consumption at epoch boundaries.
    #[must_use]
    pub fn compiled(&self) -> Vec<FleetFaultEvent> {
        let mut events = self.scripted.clone();
        events.sort_by(|a, b| a.at_cycles.total_cmp(&b.at_cycles));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_compiles_to_disarmed_injector() {
        let inj = FaultInjector::compile(&FaultPlan::none()).unwrap();
        assert_eq!(inj.next_at(), None);
        assert_eq!(inj.remaining(), 0);
        assert_eq!(inj.injected(), 0);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn scripted_events_pop_in_time_order() {
        let plan = FaultPlan::none()
            .with_fault(9.0, FaultKind::CoreRetire)
            .unwrap()
            .with_fault(2.0, FaultKind::TransientOp { victim_salt: 7 })
            .unwrap()
            .with_fault(5.0, FaultKind::CoreStall { stall_cycles: 10.0 })
            .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.scripted().len(), 3);
        let mut inj = FaultInjector::compile(&plan).unwrap();
        assert_eq!(inj.remaining(), 3);
        assert_eq!(inj.next_at(), Some(2.0));
        assert!(inj.pop_due(1.0, 1e-6).is_none(), "not yet due");
        let a = inj.pop_due(2.0, 1e-6).unwrap();
        assert!(matches!(
            a.kind(),
            FaultKind::TransientOp { victim_salt: 7 }
        ));
        let b = inj.pop_due(100.0, 1e-6).unwrap();
        assert!(matches!(b.kind(), FaultKind::CoreStall { .. }));
        let c = inj.pop_due(100.0, 1e-6).unwrap();
        assert_eq!(c.kind(), FaultKind::CoreRetire);
        assert_eq!(c.at_cycles(), 9.0);
        assert_eq!(inj.injected(), 3);
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn pushed_faults_queue_where_the_plan_would_have_put_them() {
        let stall = FaultKind::CoreStall { stall_cycles: 10.0 };
        let transient = FaultKind::TransientOp { victim_salt: 3 };
        let whole = FaultPlan::none()
            .with_fault(5.0, stall)
            .unwrap()
            .with_fault(2.0, transient)
            .unwrap()
            .with_fault(5.0, FaultKind::CoreRetire)
            .unwrap();
        let mut pushed =
            FaultInjector::compile(&FaultPlan::none().with_fault(5.0, stall).unwrap()).unwrap();
        pushed.push(FaultEvent::new(2.0, transient).unwrap());
        pushed.push(FaultEvent::new(5.0, FaultKind::CoreRetire).unwrap());
        let mut compiled = FaultInjector::compile(&whole).unwrap();
        assert_eq!(pushed.remaining(), compiled.remaining());
        while let Some(want) = compiled.pop_due(f64::INFINITY, 0.0) {
            assert_eq!(pushed.pop_due(f64::INFINITY, 0.0), Some(want));
        }
    }

    #[test]
    fn poisson_streams_are_deterministic_and_bounded_by_horizon() {
        let plan = FaultPlan::none()
            .with_poisson_transients(0xFA_17, 1_000.0, 50_000.0)
            .unwrap();
        let a = FaultInjector::compile(&plan).unwrap();
        let b = FaultInjector::compile(&plan).unwrap();
        let times = |inj: &FaultInjector| -> Vec<(u64, &'static str)> {
            inj.queue
                .iter()
                .map(|e| (e.at_cycles().to_bits(), e.kind().label()))
                .collect()
        };
        assert_eq!(times(&a), times(&b), "same plan, same compiled stream");
        assert!(
            a.remaining() > 10,
            "expected tens of events, got {}",
            a.remaining()
        );
        let mut prev = 0.0;
        for e in &a.queue {
            assert!(e.at_cycles() >= prev, "events must be time-sorted");
            assert!(e.at_cycles() <= 50_000.0, "event past the horizon");
            prev = e.at_cycles();
        }
    }

    #[test]
    fn plan_validation_rejects_bad_arguments() {
        assert!(FaultPlan::none()
            .with_fault(-1.0, FaultKind::CoreRetire)
            .is_err());
        assert!(FaultPlan::none()
            .with_fault(f64::NAN, FaultKind::CoreRetire)
            .is_err());
        assert!(FaultPlan::none()
            .with_fault(1.0, FaultKind::CoreStall { stall_cycles: 0.0 })
            .is_err());
        assert!(FaultPlan::none()
            .with_poisson_transients(1, 0.0, 100.0)
            .is_err());
        assert!(FaultPlan::none()
            .with_poisson_transients(1, 10.0, f64::INFINITY)
            .is_err());
        let doubled = FaultPlan::none()
            .with_poisson_transients(1, 10.0, 100.0)
            .unwrap()
            .with_poisson_transients(2, 10.0, 100.0);
        assert!(doubled.is_err(), "second transient stream must be rejected");
    }

    #[test]
    fn oversized_expansion_is_rejected() {
        let plan = FaultPlan::none()
            .with_poisson_transients(3, 1.0, 1.0e9)
            .unwrap();
        let err = FaultInjector::compile(&plan).unwrap_err();
        assert!(err.to_string().contains("expands past"));
    }

    #[test]
    fn pick_victim_is_in_range_and_total() {
        assert_eq!(pick_victim(0, 0), 0, "empty candidate set must not panic");
        for salt in [0u64, 1, 41, u64::MAX] {
            for n in 1..=8usize {
                assert!(pick_victim(salt, n) < n);
            }
        }
        assert_eq!(pick_victim(5, 4), 1);
    }

    #[test]
    fn fleet_plan_sorts_events_and_validates_arguments() {
        let plan = FleetFaultPlan::none()
            .with_fault(9.0e6, FleetFaultKind::RegionFail { hbm_group: 2 })
            .unwrap()
            .with_fault(3.0e6, FleetFaultKind::ShardCrash { shard: 1 })
            .unwrap()
            .with_fault(
                3.0e6,
                FleetFaultKind::LinkDegrade {
                    hbm_group: 0,
                    factor: 4.0,
                },
            )
            .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.scripted().len(), 3);
        let compiled = plan.compiled();
        assert!(matches!(
            compiled[0].kind(),
            FleetFaultKind::ShardCrash { shard: 1 }
        ));
        assert!(
            matches!(compiled[1].kind(), FleetFaultKind::LinkDegrade { .. }),
            "ties keep insertion order"
        );
        assert_eq!(compiled[2].at_cycles(), 9.0e6);
        assert!(FleetFaultPlan::none().is_empty());
        assert!(FleetFaultPlan::none().compiled().is_empty());

        assert!(FleetFaultPlan::none()
            .with_fault(-1.0, FleetFaultKind::ShardCrash { shard: 0 })
            .is_err());
        assert!(FleetFaultPlan::none()
            .with_fault(f64::NAN, FleetFaultKind::RegionFail { hbm_group: 0 })
            .is_err());
        assert!(FleetFaultPlan::none()
            .with_fault(
                1.0,
                FleetFaultKind::LinkDegrade {
                    hbm_group: 0,
                    factor: 0.5,
                },
            )
            .is_err());
        assert!(FleetFaultPlan::none()
            .with_fault(
                1.0,
                FleetFaultKind::LinkPartition {
                    hbm_group: 0,
                    window_cycles: 0.0,
                },
            )
            .is_err());
    }

    #[test]
    fn fleet_labels_are_stable() {
        assert_eq!(
            FleetFaultKind::ShardCrash { shard: 0 }.label(),
            "shard_crash"
        );
        assert_eq!(
            FleetFaultKind::RegionFail { hbm_group: 0 }.label(),
            "region_fail"
        );
        assert_eq!(
            FleetFaultKind::LinkDegrade {
                hbm_group: 0,
                factor: 2.0
            }
            .label(),
            "link_degrade"
        );
        assert_eq!(
            FleetFaultKind::LinkPartition {
                hbm_group: 0,
                window_cycles: 1.0
            }
            .label(),
            "link_partition"
        );
        assert_eq!(
            FleetFaultKind::LinkRestore { hbm_group: 0 }.label(),
            "link_restore"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            FaultKind::TransientOp { victim_salt: 0 }.label(),
            "transient_op"
        );
        assert_eq!(
            FaultKind::CoreStall { stall_cycles: 1.0 }.label(),
            "core_stall"
        );
        assert_eq!(FaultKind::CoreRetire.label(), "core_retire");
    }
}
