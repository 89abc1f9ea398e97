//! Seeded adversarial scenario generation.
//!
//! The control plane built in PRs 4–6 (overload ladder, starvation
//! watchdog, fault recovery) is only as good as the worst
//! tenant mix it faces. This module derives complete serving scenarios —
//! arrival process × fault plan × tenant mix — from **one master seed** and
//! a [`ScenarioProfile`]:
//!
//! * [`ScenarioProfile::Expected`] — well-behaved traffic the controllers
//!   should sail through (steady Poisson mixes, slow diurnal drift).
//! * [`ScenarioProfile::Stress`] — heavy but honest load (flash crowds,
//!   fault storms, fleet-plane fault domains: a shard crash timed to an
//!   epoch boundary, a region blackout in the middle of a flash crowd)
//!   that exercises every ladder rung and the partition-tolerant
//!   recovery path.
//! * [`ScenarioProfile::Adversarial`] — tenants that actively exploit
//!   controller mechanics: bursts timed to the overload ladder's sensing
//!   cadence, priority-inversion mixes that pin the watchdog against its
//!   priority cap, idle-op padding that games `active_rate_p`, operator
//!   lengths parked at the preemption-cost cliff, and fault plans that
//!   switch transient storms on and off at a trip/cool-down cadence.
//!
//! Every scenario is a pure function of `(master seed, case, knobs)`: the
//! per-tenant streams are forked (`SimRng::fork`) so shrinking the
//! [`ScenarioKnobs`] — fewer tenants, a shorter arrival horizon, a prefix
//! of the fault events — yields a *prefix* of the original scenario rather
//! than a reshuffled one. That property is what makes the property
//! harness's minimization replayable from a six-field repro fixture.
//!
//! # Example
//!
//! ```
//! use v10_workloads::adversary::{AdversaryCase, AdversaryGen};
//!
//! let gen = AdversaryGen::new(0xC0FFEE);
//! let knobs = gen.default_knobs(AdversaryCase::HysteresisBeat);
//! let a = gen.scenario(AdversaryCase::HysteresisBeat, &knobs).expect("valid knobs");
//! let b = gen.scenario(AdversaryCase::HysteresisBeat, &knobs).expect("valid knobs");
//! assert_eq!(a, b, "same seed, same scenario");
//! ```

use v10_isa::{FuKind, OpDesc, RequestTrace};
use v10_sim::{
    FaultKind, FaultPlan, FleetFaultKind, FleetFaultPlan, ScenarioKnobs, SimRng, V10Error,
    V10Result,
};

use crate::arrivals::{MmppProcess, OpenLoopProcess, TimedArrival};
use crate::model::Model;

/// The light model mix every generated scenario draws from — small traces
/// keep a full profile sweep inside a smoke-test budget.
const MIX: [Model; 3] = [Model::Mnist, Model::Dlrm, Model::Ncf];

/// A model drawn uniformly from [`MIX`].
fn mix_model(rng: &mut SimRng) -> V10Result<Model> {
    rng.choose(&MIX)
        .copied()
        .ok_or_else(|| V10Error::invalid("AdversaryGen", "the model mix is empty"))
}

/// The overload controller's sensing interval, which the adversarial cases
/// time themselves against: a copy of v10-core's
/// `overload::SENSE_INTERVAL_CYCLES`, because this crate sits below
/// v10-core. The facade's `tests/adversary.rs` sees both crates and checks
/// that the `hysteresis-beat` bursts still land on the core's cadence.
const SENSE_INTERVAL_CYCLES: f64 = 1.0e6;

/// The Table-5 preemption slice the cliff case straddles: a copy of
/// v10-npu's `NpuConfig::table5().time_slice_cycles()`, checked by the same
/// test.
const TIME_SLICE_CYCLES: u64 = 32_768;

/// The fleet-plane epoch the fleet-fault cases time themselves against:
/// [`AdversaryCase::EpochCrash`] lands its shard crash exactly on a
/// boundary of this epoch, the worst instant for crash/restore (the crash
/// races the boundary exchange, and the restore lands one boundary
/// later).
const FLEET_EPOCH_CYCLES: f64 = 4.0e6;

/// A scenario family: how hostile the generated tenant mix is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioProfile {
    /// Well-behaved traffic within provisioned capacity.
    Expected,
    /// Heavy but honest load: every controller rung gets exercised.
    Stress,
    /// Tenants that actively exploit controller mechanics.
    Adversarial,
}

impl ScenarioProfile {
    /// Every profile, in severity order.
    pub const ALL: [ScenarioProfile; 3] = [
        ScenarioProfile::Expected,
        ScenarioProfile::Stress,
        ScenarioProfile::Adversarial,
    ];

    /// Stable lowercase label (used in reports and repro fixtures).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScenarioProfile::Expected => "expected",
            ScenarioProfile::Stress => "stress",
            ScenarioProfile::Adversarial => "adversarial",
        }
    }

    /// The profile for a label produced by [`label`](Self::label).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] for an unknown label.
    pub fn from_label(label: &str) -> V10Result<Self> {
        ScenarioProfile::ALL
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| {
                V10Error::invalid(
                    "ScenarioProfile::from_label",
                    format!("unknown profile {label:?}"),
                )
            })
    }

    /// Seed salt mixed into every case of this profile.
    #[must_use]
    pub fn salt(self) -> u64 {
        match self {
            ScenarioProfile::Expected => 0x4558_5045_4354, // "EXPECT"
            ScenarioProfile::Stress => 0x5354_5245_5353,   // "STRESS"
            ScenarioProfile::Adversarial => 0x4144_5645_5253, // "ADVERS"
        }
    }

    /// The cases belonging to this profile.
    #[must_use]
    pub fn cases(self) -> &'static [AdversaryCase] {
        match self {
            ScenarioProfile::Expected => &[AdversaryCase::SteadyMix, AdversaryCase::DiurnalDrift],
            ScenarioProfile::Stress => &[
                AdversaryCase::FlashCrowd,
                AdversaryCase::FaultStorm,
                AdversaryCase::EpochCrash,
                AdversaryCase::RegionBlackout,
            ],
            ScenarioProfile::Adversarial => &[
                AdversaryCase::HysteresisBeat,
                AdversaryCase::PriorityInversion,
                AdversaryCase::ArpGaming,
                AdversaryCase::PreemptionCliff,
                AdversaryCase::BreakerFlap,
            ],
        }
    }
}

/// One concrete scenario template within a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdversaryCase {
    /// Steady Poisson mix comfortably inside capacity.
    SteadyMix,
    /// Slow day/night MMPP drift between a busy and a quiet rate.
    DiurnalDrift,
    /// Coordinated MMPP flash crowd: bursts multiply the arrival rate.
    FlashCrowd,
    /// Honest load under a pre-sampled storm of transient faults and
    /// core stalls.
    FaultStorm,
    /// Steady load with a fleet-plane shard crash scripted *exactly* on an
    /// epoch boundary — the crash races the boundary exchange, and its
    /// restore lands one boundary later.
    EpochCrash,
    /// A flash crowd with an HBM-region blackout and uplink partition
    /// scripted mid-crowd: orphaned tenants must ride out the partition
    /// and evacuate onto survivors at peak demand.
    RegionBlackout,
    /// Arrival bursts phase-locked to the overload ladder's sensing
    /// cadence, so demand peaks land between sense points.
    HysteresisBeat,
    /// VIP tenants pre-pinned at the watchdog's priority cap mixed with
    /// low-priority hogs — a starved VIP's boost has nowhere to go.
    PriorityInversion,
    /// Tenants padding traces with near-idle operators (tiny compute,
    /// huge dispatch gaps) to deflate `active_rate_p` and farm boosts.
    ArpGaming,
    /// Operator lengths parked just past the preemption slice, maximizing
    /// switch overhead per unit of useful work.
    PreemptionCliff,
    /// Per-core fault storms switched on and off at a circuit breaker's
    /// trip/cool-down rhythm, so recovery never settles.
    BreakerFlap,
}

impl AdversaryCase {
    /// Every case, grouped by profile in severity order.
    pub const ALL: [AdversaryCase; 11] = [
        AdversaryCase::SteadyMix,
        AdversaryCase::DiurnalDrift,
        AdversaryCase::FlashCrowd,
        AdversaryCase::FaultStorm,
        AdversaryCase::EpochCrash,
        AdversaryCase::RegionBlackout,
        AdversaryCase::HysteresisBeat,
        AdversaryCase::PriorityInversion,
        AdversaryCase::ArpGaming,
        AdversaryCase::PreemptionCliff,
        AdversaryCase::BreakerFlap,
    ];

    /// Stable kebab-case label (used in reports and repro fixtures).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdversaryCase::SteadyMix => "steady-mix",
            AdversaryCase::DiurnalDrift => "diurnal-drift",
            AdversaryCase::FlashCrowd => "flash-crowd",
            AdversaryCase::FaultStorm => "fault-storm",
            AdversaryCase::EpochCrash => "epoch-crash",
            AdversaryCase::RegionBlackout => "region-blackout",
            AdversaryCase::HysteresisBeat => "hysteresis-beat",
            AdversaryCase::PriorityInversion => "priority-inversion",
            AdversaryCase::ArpGaming => "arp-gaming",
            AdversaryCase::PreemptionCliff => "preemption-cliff",
            AdversaryCase::BreakerFlap => "breaker-flap",
        }
    }

    /// The case for a label produced by [`label`](Self::label).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] for an unknown label.
    pub fn from_label(label: &str) -> V10Result<Self> {
        AdversaryCase::ALL
            .into_iter()
            .find(|c| c.label() == label)
            .ok_or_else(|| {
                V10Error::invalid(
                    "AdversaryCase::from_label",
                    format!("unknown case {label:?}"),
                )
            })
    }

    /// The profile this case belongs to.
    #[must_use]
    pub fn profile(self) -> ScenarioProfile {
        match self {
            AdversaryCase::SteadyMix | AdversaryCase::DiurnalDrift => ScenarioProfile::Expected,
            AdversaryCase::FlashCrowd
            | AdversaryCase::FaultStorm
            | AdversaryCase::EpochCrash
            | AdversaryCase::RegionBlackout => ScenarioProfile::Stress,
            AdversaryCase::HysteresisBeat
            | AdversaryCase::PriorityInversion
            | AdversaryCase::ArpGaming
            | AdversaryCase::PreemptionCliff
            | AdversaryCase::BreakerFlap => ScenarioProfile::Adversarial,
        }
    }

    /// Seed salt distinguishing this case within its profile.
    #[must_use]
    pub fn salt(self) -> u64 {
        match self {
            AdversaryCase::SteadyMix => 0x01,
            AdversaryCase::DiurnalDrift => 0x02,
            AdversaryCase::FlashCrowd => 0x03,
            AdversaryCase::FaultStorm => 0x04,
            AdversaryCase::EpochCrash => 0x0A,
            AdversaryCase::RegionBlackout => 0x0B,
            AdversaryCase::HysteresisBeat => 0x05,
            AdversaryCase::PriorityInversion => 0x06,
            AdversaryCase::ArpGaming => 0x07,
            AdversaryCase::PreemptionCliff => 0x08,
            AdversaryCase::BreakerFlap => 0x09,
        }
    }
}

/// A complete generated scenario: timed arrivals with per-tenant
/// priorities, per-core fault plans, and a context-table sizing hint.
/// Everything is a value; equal inputs generate `==` scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryScenario {
    case: AdversaryCase,
    knobs: ScenarioKnobs,
    master_seed: u64,
    arrivals: Vec<TimedArrival>,
    priorities: Vec<f64>,
    fault_plans: Vec<FaultPlan>,
    fleet_plan: FleetFaultPlan,
    table_slots: usize,
}

impl AdversaryScenario {
    /// The case this scenario instantiates.
    #[must_use]
    pub fn case(&self) -> AdversaryCase {
        self.case
    }

    /// The profile of the case.
    #[must_use]
    pub fn profile(&self) -> ScenarioProfile {
        self.case.profile()
    }

    /// The knobs the scenario was generated with.
    #[must_use]
    pub fn knobs(&self) -> ScenarioKnobs {
        self.knobs
    }

    /// The master seed the scenario derives from.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The timed tenant arrivals, in admission order.
    #[must_use]
    pub fn arrivals(&self) -> &[TimedArrival] {
        &self.arrivals
    }

    /// Per-arrival scheduler priorities (parallel to
    /// [`arrivals`](Self::arrivals)).
    #[must_use]
    pub fn priorities(&self) -> &[f64] {
        &self.priorities
    }

    /// Per-core fault plans. Single-core cases carry one plan;
    /// [`AdversaryCase::BreakerFlap`] carries one per simulated core.
    #[must_use]
    pub fn fault_plans(&self) -> &[FaultPlan] {
        &self.fault_plans
    }

    /// Suggested context-table capacity: adversarial cases run slot-starved
    /// so parking, shedding, and the watchdog all engage.
    #[must_use]
    pub fn table_slots(&self) -> usize {
        self.table_slots
    }

    /// The fleet-scoped fault plan (shard crashes, region failures, link
    /// faults) for planes served through `FleetPlane::serve_faulted`.
    /// Empty for every case outside the fleet-fault family.
    #[must_use]
    pub fn fleet_plan(&self) -> &FleetFaultPlan {
        &self.fleet_plan
    }

    /// Whether every fault plan — per-core and fleet-scoped — is empty.
    #[cfg(test)]
    pub(crate) fn is_fault_free(&self) -> bool {
        self.fault_plans.iter().all(FaultPlan::is_empty) && self.fleet_plan.is_empty()
    }
}

/// The scenario generator: one master seed, eleven deterministic cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryGen {
    master_seed: u64,
}

impl AdversaryGen {
    /// A generator deriving every scenario from `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        AdversaryGen { master_seed }
    }

    /// The master seed.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The full-size knobs for a case — the starting point the harness
    /// shrinks from.
    #[must_use]
    pub fn default_knobs(&self, case: AdversaryCase) -> ScenarioKnobs {
        let (tenants, horizon_cycles) = match case {
            AdversaryCase::SteadyMix => (10, 6.0e7),
            AdversaryCase::DiurnalDrift => (10, 8.0e7),
            AdversaryCase::FlashCrowd => (14, 6.0e7),
            AdversaryCase::FaultStorm => (10, 5.0e7),
            AdversaryCase::EpochCrash => (10, 6.0e7),
            AdversaryCase::RegionBlackout => (14, 6.0e7),
            AdversaryCase::HysteresisBeat => (12, 4.0e7),
            AdversaryCase::PriorityInversion => (8, 2.0e7),
            AdversaryCase::ArpGaming => (9, 3.0e7),
            AdversaryCase::PreemptionCliff => (8, 2.0e7),
            AdversaryCase::BreakerFlap => (12, 6.0e7),
        };
        ScenarioKnobs {
            tenants,
            horizon_cycles,
            fault_prefix: fault_event_budget(case),
        }
    }

    /// Generates the scenario for `case` at the given knobs. Pure and
    /// deterministic: equal `(master seed, case, knobs)` return `==`
    /// scenarios, and smaller knobs return prefixes of larger ones.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the knobs are degenerate
    /// (zero tenants, non-positive horizon).
    pub fn scenario(
        &self,
        case: AdversaryCase,
        knobs: &ScenarioKnobs,
    ) -> V10Result<AdversaryScenario> {
        let knobs = ScenarioKnobs::new(knobs.tenants, knobs.horizon_cycles, knobs.fault_prefix)?;
        let seed = self.master_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ case.profile().salt()
            ^ case.salt();
        let (arrivals, priorities) = self.arrivals_for(case, &knobs, seed)?;
        let fault_plans = fault_plans_for(case, &knobs, seed)?;
        let fleet_plan = fleet_plan_for(case, &knobs, seed)?;
        Ok(AdversaryScenario {
            case,
            knobs,
            master_seed: self.master_seed,
            arrivals,
            priorities,
            fault_plans,
            fleet_plan,
            table_slots: table_slots_for(case),
        })
    }

    /// Samples arrivals plus parallel priorities for one case.
    fn arrivals_for(
        &self,
        case: AdversaryCase,
        knobs: &ScenarioKnobs,
        seed: u64,
    ) -> V10Result<(Vec<TimedArrival>, Vec<f64>)> {
        let n = knobs.tenants;
        let (arrivals, priorities): (Vec<TimedArrival>, Vec<f64>) = match case {
            AdversaryCase::SteadyMix => {
                let a = OpenLoopProcess::new(&MIX, 5.0e6, seed)?
                    .with_requests_per_session(2)?
                    .with_think_cycles(2.0e5)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
            AdversaryCase::DiurnalDrift => {
                let a = MmppProcess::diurnal(&MIX, 2.5e6, 2.0e7, 1.2e7, seed)?
                    .with_requests_per_session(2)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
            AdversaryCase::FlashCrowd => {
                let a = MmppProcess::flash_crowd(&MIX, 4.0e6, 6.0, 1.5e7, seed)?
                    .with_requests_per_session(3)?
                    .with_think_cycles(1.0e5)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
            AdversaryCase::FaultStorm => {
                let a = OpenLoopProcess::new(&MIX, 3.0e6, seed)?
                    .with_requests_per_session(2)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
            AdversaryCase::EpochCrash => {
                // Steady arrivals straddling several fleet epochs, so the
                // boundary-timed crash always has live tenants both sides.
                let a = OpenLoopProcess::new(&MIX, 2.0e6, seed)?
                    .with_requests_per_session(2)?
                    .with_think_cycles(1.5e5)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
            AdversaryCase::RegionBlackout => {
                // The same flash-crowd process the FlashCrowd case uses —
                // the blackout lands while the crowd is at full rate.
                let a = MmppProcess::flash_crowd(&MIX, 4.0e6, 6.0, 1.5e7, seed)?
                    .with_requests_per_session(3)?
                    .with_think_cycles(1.0e5)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
            AdversaryCase::HysteresisBeat => hysteresis_beat_arrivals(n, seed)?,
            AdversaryCase::PriorityInversion => priority_inversion_arrivals(n, seed)?,
            AdversaryCase::ArpGaming => arp_gaming_arrivals(n, seed)?,
            AdversaryCase::PreemptionCliff => preemption_cliff_arrivals(n, seed)?,
            AdversaryCase::BreakerFlap => {
                let a = MmppProcess::flash_crowd(&MIX, 3.0e6, 3.0, 1.0e7, seed)?
                    .with_requests_per_session(2)?
                    .sample(n)?;
                let p = vec![1.0; a.len()];
                (a, p)
            }
        };
        Ok(clip_to_horizon(arrivals, priorities, knobs.horizon_cycles))
    }
}

/// Context-table sizing per case: adversarial cases run slot-starved.
/// ArpGaming keeps enough slots that a dense honest tenant stays resident
/// alongside the cap-gaming VIP — the rung-1 demotion always has a hoggier
/// victim, so the VIP rides its capped priority into the watchdog window.
fn table_slots_for(case: AdversaryCase) -> usize {
    if case == AdversaryCase::ArpGaming {
        return 6;
    }
    match case.profile() {
        ScenarioProfile::Expected => 6,
        ScenarioProfile::Stress => 4,
        ScenarioProfile::Adversarial => 3,
    }
}

/// How many fault events each case pre-samples (the `fault_prefix` knob
/// saturates here).
fn fault_event_budget(case: AdversaryCase) -> usize {
    match case {
        AdversaryCase::FaultStorm => 12,
        AdversaryCase::BreakerFlap => 16,
        // Fleet-scoped events count against the same prefix knob.
        AdversaryCase::EpochCrash => 1,
        AdversaryCase::RegionBlackout => 2,
        _ => 0,
    }
}

/// Drops arrivals past the horizon, keeping the parallel priority list in
/// lockstep. If everything lands past the horizon the first arrival is
/// clamped *to* the horizon so the scenario never goes empty.
fn clip_to_horizon(
    arrivals: Vec<TimedArrival>,
    priorities: Vec<f64>,
    horizon: f64,
) -> (Vec<TimedArrival>, Vec<f64>) {
    let mut kept_a = Vec::with_capacity(arrivals.len());
    let mut kept_p = Vec::with_capacity(priorities.len());
    for (a, p) in arrivals.iter().zip(&priorities) {
        if a.at_cycles() <= horizon {
            kept_a.push(a.clone());
            kept_p.push(*p);
        }
    }
    if kept_a.is_empty() {
        if let (Some(first), Some(p)) = (arrivals.first(), priorities.first()) {
            if let Ok(clamped) = TimedArrival::new(
                first.label(),
                first.model(),
                first.trace(),
                horizon,
                first.requests(),
            ) {
                kept_a.push(clamped);
                kept_p.push(*p);
            }
        }
    }
    (kept_a, kept_p)
}

/// Bursts of three tenants phase-locked to the controller's sensing cadence:
/// each burst lands just *after* a sense point, so queue depth peaks and
/// drains between observations — the worst case for hysteresis.
fn hysteresis_beat_arrivals(n: usize, seed: u64) -> V10Result<(Vec<TimedArrival>, Vec<f64>)> {
    let mut base = SimRng::seed_from(seed);
    let mut arrivals = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = base.fork(i as u64);
        let burst = i / 3;
        // Land 5–15 kcycles after the sense point, cadence 2 sense
        // intervals per burst.
        let at = (burst as f64) * 2.0 * SENSE_INTERVAL_CYCLES + rng.uniform(5.0e3, 1.5e4);
        let model = mix_model(&mut rng)?;
        let trace = model.default_profile().synthesize(rng.next_u64());
        arrivals.push(TimedArrival::new(
            format!("beat-{}#{i}", model.abbrev()),
            model,
            trace,
            at,
            2,
        )?);
    }
    let priorities = vec![1.0; arrivals.len()];
    Ok((arrivals, priorities))
}

/// Alternating VIPs pinned at the watchdog's priority cap (16.0, the
/// default `max_priority`) and half-priority hogs, all arriving nearly at
/// once against a 3-slot table: starved VIPs get boosts that cannot raise
/// their priority any further.
fn priority_inversion_arrivals(n: usize, seed: u64) -> V10Result<(Vec<TimedArrival>, Vec<f64>)> {
    let mut base = SimRng::seed_from(seed);
    let mut arrivals = Vec::with_capacity(n);
    let mut priorities = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = base.fork(i as u64);
        let vip = i % 2 == 0;
        let model = if vip { Model::Mnist } else { Model::Dlrm };
        let trace = model.default_profile().synthesize(rng.next_u64());
        let at = (i as f64) * 1.0e4 + rng.uniform(0.0, 5.0e3);
        let role = if vip { "vip" } else { "hog" };
        arrivals.push(TimedArrival::new(
            format!("{role}-{}#{i}", model.abbrev()),
            model,
            trace,
            at,
            2,
        )?);
        priorities.push(if vip { 16.0 } else { 0.5 });
    }
    Ok((arrivals, priorities))
}

/// Gamers padding traces with near-idle operators: tiny compute behind
/// huge dispatch gaps deflates `active_rate_p`, so the watchdog reads the
/// tenant as starved while it is merely idling on purpose. Every third
/// tenant is an honest bystander.
fn arp_gaming_arrivals(n: usize, seed: u64) -> V10Result<(Vec<TimedArrival>, Vec<f64>)> {
    let mut base = SimRng::seed_from(seed);
    let mut arrivals = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = base.fork(i as u64);
        let at = (i as f64) * 2.0e5 + rng.uniform(0.0, 1.0e4);
        if i == 0 {
            // The lead adversary registers at the watchdog's boost cap and
            // throttles itself into the starvation band: duty cycle ~0.24
            // keeps `active_rate / 16 < 0.02` (flagged starved every
            // window) while per-request slowdown stays under the overload
            // entry threshold, so the ladder never quota-trims it away.
            // Pre-fix, every one of its starvation detections no-opped
            // silently at the cap.
            let trace = throttled_vip_trace(&mut rng)?;
            arrivals.push(TimedArrival::new(
                "vip-gamer#0".to_string(),
                Model::Mnist,
                trace,
                at,
                32,
            )?);
        } else if i % 3 == 2 {
            let model = mix_model(&mut rng)?;
            let trace = model.default_profile().synthesize(rng.next_u64());
            // Long-lived dense tenants: as long as one of them is live, the
            // ladder's rung-1 demotion has a hoggier victim than the
            // cap-gaming VIP, so the VIP holds its capped priority.
            arrivals.push(TimedArrival::new(
                format!("honest-{}#{i}", model.abbrev()),
                model,
                trace,
                at,
                10,
            )?);
        } else {
            // Gamers run long enough (8 near-idle requests, ~13 Mcycles) to
            // sit through the watchdog's 8 Mcycle window and get flagged
            // starved by their own idleness.
            let trace = padded_idle_trace(&mut rng)?;
            arrivals.push(TimedArrival::new(
                format!("gamer#{i}"),
                Model::Mnist,
                trace,
                at,
                8,
            )?);
        }
    }
    // The lead gamer registers at the watchdog's boost cap outright: its
    // starvation detections find no headroom to boost into — the exact
    // trigger of the watchdog silent no-op this suite regressed on.
    let priorities: Vec<f64> = (0..arrivals.len())
        .map(|i| if i == 0 { 16.0 } else { 1.0 })
        .collect();
    Ok((arrivals, priorities))
}

/// Twelve moderate operators throttled to a ~0.24 duty cycle: 30 kcycle
/// compute bursts behind ~95 kcycle dispatch gaps. Low enough activity to
/// sit below the watchdog's starvation bound at the priority cap, high
/// enough that slowdown never breaches the overload ladder. Long requests
/// (~1.5 Mcycles wall) keep the tenant alive across a full watchdog window
/// even after the ladder's quota-trim rung cuts its request count.
fn throttled_vip_trace(rng: &mut SimRng) -> V10Result<RequestTrace> {
    let mut ops = Vec::with_capacity(12);
    for k in 0..12u64 {
        let fu = if k % 2 == 0 { FuKind::Sa } else { FuKind::Vu };
        ops.push(
            OpDesc::builder(fu)
                .compute_cycles(30_000)
                .hbm_bytes(16_384)
                .vmem_bytes(8_192)
                .flops(262_144)
                .instr_count(16)
                .dispatch_gap_cycles(90_000 + rng.uniform_u64(0, 10_000))
                .build(),
        );
    }
    RequestTrace::new(ops)
}

/// Four near-idle operators: 64-cycle compute bursts separated by
/// ~0.4 Mcycle dispatch gaps.
fn padded_idle_trace(rng: &mut SimRng) -> V10Result<RequestTrace> {
    let mut ops = Vec::with_capacity(4);
    for k in 0..4u64 {
        let fu = if k % 2 == 0 { FuKind::Sa } else { FuKind::Vu };
        ops.push(
            OpDesc::builder(fu)
                .compute_cycles(64)
                .hbm_bytes(4_096)
                .vmem_bytes(4_096)
                .flops(8_192)
                .instr_count(4)
                .dispatch_gap_cycles(380_000 + rng.uniform_u64(0, 40_000))
                .build(),
        );
    }
    RequestTrace::new(ops)
}

/// Operators sized just past the preemption slice (32 768 cycles): each
/// one earns a preemption at the slice boundary, maximizing switch
/// overhead per useful cycle.
fn preemption_cliff_arrivals(n: usize, seed: u64) -> V10Result<(Vec<TimedArrival>, Vec<f64>)> {
    let mut base = SimRng::seed_from(seed);
    let mut arrivals = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = base.fork(i as u64);
        let at = (i as f64) * 1.5e5 + rng.uniform(0.0, 1.0e4);
        let mut ops = Vec::with_capacity(3);
        for k in 0..3u64 {
            let fu = if k % 2 == 0 { FuKind::Sa } else { FuKind::Vu };
            ops.push(
                OpDesc::builder(fu)
                    .compute_cycles(TIME_SLICE_CYCLES + 256 + rng.uniform_u64(0, 2_048))
                    .hbm_bytes(65_536)
                    .vmem_bytes(32_768)
                    .flops(1_048_576)
                    .instr_count(64)
                    .dispatch_gap_cycles(rng.uniform_u64(0, 512))
                    .build(),
            );
        }
        arrivals.push(TimedArrival::new(
            format!("cliff#{i}"),
            Model::Mnist,
            RequestTrace::new(ops)?,
            at,
            2,
        )?);
    }
    let priorities = vec![1.0; arrivals.len()];
    Ok((arrivals, priorities))
}

/// Builds the per-core fault plans for a case: pre-sample the case's full
/// event list, order it globally by time, keep the first
/// `knobs.fault_prefix` events, and compile per-core plans from what
/// remains.
fn fault_plans_for(
    case: AdversaryCase,
    knobs: &ScenarioKnobs,
    seed: u64,
) -> V10Result<Vec<FaultPlan>> {
    let cores = match case {
        AdversaryCase::BreakerFlap => 4,
        _ => 1,
    };
    let mut events: Vec<(usize, f64, FaultKind)> = match case {
        AdversaryCase::FaultStorm => fault_storm_events(seed),
        AdversaryCase::BreakerFlap => breaker_flap_events(seed),
        _ => Vec::new(),
    };
    // Global time order (ties broken by core, then list position — both
    // already encoded by the stable sort key) so the prefix knob means
    // "the first k faults to fire anywhere".
    events.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    events.truncate(knobs.fault_prefix);
    let mut plans = vec![FaultPlan::none(); cores];
    for (core, at, kind) in events {
        let plan = plans
            .get(core)
            .cloned()
            .unwrap_or_default()
            .with_fault(at, kind)?;
        if let Some(slot) = plans.get_mut(core) {
            *slot = plan;
        }
    }
    Ok(plans)
}

/// Builds the fleet-scoped fault plan for a case. Fleet events honour the
/// same `fault_prefix` knob as per-core plans: the pre-sampled events are
/// ordered by fire time and the first `fault_prefix` kept, so shrinking a
/// fleet-fault repro disarms the latest faults first.
fn fleet_plan_for(
    case: AdversaryCase,
    knobs: &ScenarioKnobs,
    seed: u64,
) -> V10Result<FleetFaultPlan> {
    let mut events: Vec<(f64, FleetFaultKind)> = match case {
        AdversaryCase::EpochCrash => {
            // Crash shard 0 (the one shard every plane has) exactly on a
            // fleet epoch boundary between epochs 2 and 5 — the same
            // boundary's departures are applied before the crash lands.
            let mut rng = SimRng::seed_from(seed ^ 0x0E90);
            #[allow(clippy::cast_precision_loss)]
            let boundary = (2 + rng.index(4)) as f64 * FLEET_EPOCH_CYCLES;
            vec![(boundary, FleetFaultKind::ShardCrash { shard: 0 })]
        }
        AdversaryCase::RegionBlackout => {
            // Black out HBM group 0 mid-crowd and partition its uplink at
            // the same instant, so evacuations must back off through the
            // partition window before they can land on survivors.
            let mut rng = SimRng::seed_from(seed ^ 0xB1AC);
            let at = rng.uniform(1.0e7, 2.0e7);
            let window = rng.uniform(5.0e6, 1.0e7);
            vec![
                (
                    at,
                    FleetFaultKind::LinkPartition {
                        hbm_group: 0,
                        window_cycles: window,
                    },
                ),
                (at, FleetFaultKind::RegionFail { hbm_group: 0 }),
            ]
        }
        _ => Vec::new(),
    };
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events.truncate(knobs.fault_prefix);
    let mut plan = FleetFaultPlan::none();
    for (at, kind) in events {
        plan = plan.with_fault(at, kind)?;
    }
    Ok(plan)
}

/// Twelve storm events on the single serving core: mostly transient op
/// failures, every fourth a core stall.
fn fault_storm_events(seed: u64) -> Vec<(usize, f64, FaultKind)> {
    let mut rng = SimRng::seed_from(seed ^ 0xFA17);
    let mut events = Vec::with_capacity(12);
    let mut at = 0.0;
    for k in 0..12u64 {
        at += rng.exponential(2.0e6);
        let kind = if k % 4 == 3 {
            FaultKind::CoreStall {
                stall_cycles: rng.uniform(3.0e4, 6.0e4),
            }
        } else {
            FaultKind::TransientOp {
                victim_salt: rng.next_u64(),
            }
        };
        events.push((0, at, kind));
    }
    events
}

/// Sixteen events across four cores: clustered transient storms
/// alternating with quiet gaps sized to a breaker's cool-down.
fn breaker_flap_events(seed: u64) -> Vec<(usize, f64, FaultKind)> {
    let mut base = SimRng::seed_from(seed ^ 0xF1A9);
    let mut events = Vec::with_capacity(16);
    for core in 0..4usize {
        let mut rng = base.fork(core as u64);
        let offset = rng.uniform(0.0, 1.0e6);
        for wave in 0..2u64 {
            // Two storms per core, 8 Mcycles apart (≈ a cooldown window).
            let storm_start = offset + (wave as f64) * 8.0e6 + (core as f64) * 5.0e5;
            for hit in 0..2u64 {
                let at = storm_start + (hit as f64) * 4.0e4 + rng.uniform(0.0, 1.0e4);
                events.push((
                    core,
                    at,
                    FaultKind::TransientOp {
                        victim_salt: rng.next_u64(),
                    },
                ));
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in ScenarioProfile::ALL {
            assert_eq!(ScenarioProfile::from_label(p.label()).unwrap(), p);
        }
        for c in AdversaryCase::ALL {
            assert_eq!(AdversaryCase::from_label(c.label()).unwrap(), c);
            assert!(c.profile().cases().contains(&c));
        }
        assert!(ScenarioProfile::from_label("nope").is_err());
        assert!(AdversaryCase::from_label("nope").is_err());
    }

    #[test]
    fn every_case_generates_deterministically() {
        let gen = AdversaryGen::new(0xA5A5_5A5A);
        for case in AdversaryCase::ALL {
            let knobs = gen.default_knobs(case);
            let a = gen.scenario(case, &knobs).unwrap();
            let b = gen.scenario(case, &knobs).unwrap();
            assert_eq!(a, b, "{case:?} must be deterministic");
            assert!(!a.arrivals().is_empty(), "{case:?} generated no arrivals");
            assert_eq!(a.arrivals().len(), a.priorities().len());
            assert!(a.table_slots() >= 3);
            assert!(!a.fault_plans().is_empty());
            for x in a.arrivals() {
                assert!(x.at_cycles() <= knobs.horizon_cycles, "{case:?}");
            }
        }
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = AdversaryGen::new(1);
        let b = AdversaryGen::new(2);
        let case = AdversaryCase::SteadyMix;
        let knobs = a.default_knobs(case);
        assert_ne!(
            a.scenario(case, &knobs).unwrap(),
            b.scenario(case, &knobs).unwrap()
        );
    }

    #[test]
    fn tenant_shrink_is_a_prefix() {
        let gen = AdversaryGen::new(0xBEEF);
        for case in AdversaryCase::ALL {
            let full_knobs = gen.default_knobs(case);
            let full = gen.scenario(case, &full_knobs).unwrap();
            let mut small_knobs = full_knobs;
            small_knobs.tenants = 3;
            let small = gen.scenario(case, &small_knobs).unwrap();
            assert!(small.arrivals().len() <= 3);
            for (s, f) in small.arrivals().iter().zip(full.arrivals()) {
                assert_eq!(s, f, "{case:?}: tenant shrink must keep the prefix");
            }
        }
    }

    #[test]
    fn horizon_shrink_drops_late_arrivals_but_never_all() {
        let gen = AdversaryGen::new(0xBEEF);
        for case in AdversaryCase::ALL {
            let mut knobs = gen.default_knobs(case);
            knobs.horizon_cycles = 1.0; // pathologically short
            let s = gen.scenario(case, &knobs).unwrap();
            assert!(!s.arrivals().is_empty(), "{case:?} went empty");
            assert!(s.arrivals().iter().all(|a| a.at_cycles() <= 1.0));
        }
    }

    #[test]
    fn fault_prefix_truncates_in_time_order() {
        let gen = AdversaryGen::new(0xBEEF);
        for case in [AdversaryCase::FaultStorm, AdversaryCase::BreakerFlap] {
            let full_knobs = gen.default_knobs(case);
            let full = gen.scenario(case, &full_knobs).unwrap();
            let total: usize = full.fault_plans().iter().map(|p| p.scripted().len()).sum();
            assert_eq!(total, fault_event_budget(case));

            let mut cut = full_knobs;
            cut.fault_prefix = 3;
            let small = gen.scenario(case, &cut).unwrap();
            let kept: usize = small.fault_plans().iter().map(|p| p.scripted().len()).sum();
            assert_eq!(kept, 3, "{case:?}");
            // The kept events are the globally earliest ones.
            let latest_kept = small
                .fault_plans()
                .iter()
                .flat_map(|p| p.scripted().iter().map(|e| e.at_cycles()))
                .fold(0.0f64, f64::max);
            let mut all: Vec<f64> = full
                .fault_plans()
                .iter()
                .flat_map(|p| p.scripted().iter().map(|e| e.at_cycles()))
                .collect();
            all.sort_by(f64::total_cmp);
            assert!(latest_kept <= all[2], "{case:?}: prefix must be earliest");

            let mut none = full_knobs;
            none.fault_prefix = 0;
            assert!(gen.scenario(case, &none).unwrap().is_fault_free());
        }
    }

    #[test]
    fn fleet_cases_script_fleet_faults() {
        let gen = AdversaryGen::new(0xBEEF);
        for case in AdversaryCase::ALL {
            let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
            let fleet_case = matches!(
                case,
                AdversaryCase::EpochCrash | AdversaryCase::RegionBlackout
            );
            assert_eq!(!s.fleet_plan().is_empty(), fleet_case, "{case:?}");
        }

        let case = AdversaryCase::EpochCrash;
        let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        assert_eq!(s.fleet_plan().scripted().len(), 1);
        let crash = &s.fleet_plan().scripted()[0];
        assert!(matches!(
            crash.kind(),
            FleetFaultKind::ShardCrash { shard: 0 }
        ));
        let epochs = crash.at_cycles() / FLEET_EPOCH_CYCLES;
        assert_eq!(epochs.fract(), 0.0, "crash must land exactly on a boundary");
        assert!((2.0..=5.0).contains(&epochs));
        assert!(!s.is_fault_free());
        assert!(
            s.fault_plans().iter().all(FaultPlan::is_empty),
            "fleet cases script no per-core faults"
        );

        let case = AdversaryCase::RegionBlackout;
        let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        let scripted = s.fleet_plan().scripted();
        assert_eq!(scripted.len(), 2);
        assert!(matches!(
            scripted[0].kind(),
            FleetFaultKind::LinkPartition { hbm_group: 0, .. }
        ));
        assert!(matches!(
            scripted[1].kind(),
            FleetFaultKind::RegionFail { hbm_group: 0 }
        ));
        assert_eq!(
            scripted[0].at_cycles(),
            scripted[1].at_cycles(),
            "the uplink partitions at the instant the region dies"
        );

        // The prefix knob shrinks fleet events like per-core ones: cutting
        // to one leaves only the earliest (the harmless partition), zero
        // disarms the case entirely.
        let mut knobs = gen.default_knobs(case);
        knobs.fault_prefix = 1;
        let cut = gen.scenario(case, &knobs).unwrap();
        assert_eq!(cut.fleet_plan().scripted().len(), 1);
        assert!(matches!(
            cut.fleet_plan().scripted()[0].kind(),
            FleetFaultKind::LinkPartition { .. }
        ));
        knobs.fault_prefix = 0;
        assert!(gen.scenario(case, &knobs).unwrap().is_fault_free());
    }

    #[test]
    fn degenerate_knobs_rejected() {
        let gen = AdversaryGen::new(1);
        let bad = ScenarioKnobs {
            tenants: 0,
            horizon_cycles: 1.0e6,
            fault_prefix: 0,
        };
        assert!(gen.scenario(AdversaryCase::SteadyMix, &bad).is_err());
        for h in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(ScenarioKnobs::new(1, h, 0).is_err(), "horizon {h}");
        }
    }

    #[test]
    fn priority_inversion_pins_vips_at_the_cap() {
        let gen = AdversaryGen::new(7);
        let case = AdversaryCase::PriorityInversion;
        let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        assert!(s.priorities().contains(&16.0));
        assert!(s.priorities().contains(&0.5));
        assert_eq!(s.table_slots(), 3);
    }

    #[test]
    fn arp_gamers_pad_their_traces() {
        let gen = AdversaryGen::new(7);
        let case = AdversaryCase::ArpGaming;
        let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        let gamer = s
            .arrivals()
            .iter()
            .find(|a| a.label().starts_with("gamer"))
            .expect("gamers present");
        assert!(gamer
            .trace()
            .ops()
            .iter()
            .all(|op| op.dispatch_gap_cycles() >= 380_000 && op.compute_cycles() == 64));
        assert!(
            gamer.requests() >= 8,
            "gamers must outlive a watchdog window"
        );
        assert_eq!(
            s.priorities()[0],
            16.0,
            "the lead gamer games the boost cap itself"
        );
    }

    #[test]
    fn preemption_cliff_ops_straddle_the_slice() {
        let gen = AdversaryGen::new(7);
        let case = AdversaryCase::PreemptionCliff;
        let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        for a in s.arrivals() {
            for op in a.trace().ops() {
                assert!(op.compute_cycles() > TIME_SLICE_CYCLES);
                assert!(op.compute_cycles() < TIME_SLICE_CYCLES + 4_096);
            }
        }
    }

    #[test]
    fn breaker_flap_spreads_over_four_cores() {
        let gen = AdversaryGen::new(7);
        let case = AdversaryCase::BreakerFlap;
        let s = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        assert_eq!(s.fault_plans().len(), 4);
        assert!(s.fault_plans().iter().all(|p| !p.is_empty()));
    }
}
