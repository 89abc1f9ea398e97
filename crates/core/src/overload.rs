//! SLO-aware overload control: graceful degradation instead of rejection.
//!
//! Under a flash crowd the plain serving path degrades metastably: the
//! context table fills, every further arrival is hard-rejected, and the
//! tenants that did board see unbounded queueing delay. The
//! [`OverloadController`] replaces that cliff with a *graceful-degradation
//! ladder*. It senses pressure — the depth of the armed path's admission
//! queue plus the worst in-flight request slowdown — on a fixed cadence,
//! and walks four rungs with hysteresis:
//!
//! 1. **Priority demotion** — the tenant hogging the core (highest active
//!    rate) has its priority cut, letting Algorithm 1 steer FU time toward
//!    everyone else.
//! 2. **Time-slice shrink** — the preemption timer fires more often, so
//!    long operators cannot monopolize an FU between scheduling points
//!    (preemptive designs only).
//! 3. **Quota trim** — resident request quotas are cut toward their
//!    completed counts, so tenants retire sooner and slots turn over.
//! 4. **Deadline-aware shed** — queued arrivals that have waited past the
//!    shed deadline are dropped with [`SimEvent::RequestShed`]; everything
//!    younger keeps its place in line.
//!
//! A *starvation watchdog* runs alongside the ladder: any tenant whose
//! priority-weighted active rate (`active_rate_p`, Algorithm 1's fairness
//! currency) stays below a bound for a full observation window is flagged
//! ([`SimEvent::TenantStarved`]) and boosted
//! ([`SimEvent::WatchdogBoost`]), so degradation never silently starves an
//! admitted tenant.
//!
//! A **disarmed** controller is free: it exposes no event horizon, touches
//! no state, and leaves the serving path bit-identical to plain
//! [`serve_design`](crate::serve_design) — the same pattern as
//! [`FaultInjector::disarmed`](v10_sim::FaultInjector::disarmed).
//!
//! [`SimEvent::RequestShed`]: crate::SimEvent::RequestShed
//! [`SimEvent::TenantStarved`]: crate::SimEvent::TenantStarved
//! [`SimEvent::WatchdogBoost`]: crate::SimEvent::WatchdogBoost

use crate::engine_core::EPS;

/// One rung of the graceful-degradation ladder, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// Cut the hoggiest tenant's priority.
    PriorityDemotion,
    /// Shrink the preemption time slice.
    SliceShrink,
    /// Trim resident request quotas toward their completed counts.
    QuotaTrim,
    /// Shed queued arrivals past the shed deadline.
    DeadlineShed,
}

impl DegradationRung {
    /// Every rung, mildest first.
    pub const ALL: [DegradationRung; 4] = [
        DegradationRung::PriorityDemotion,
        DegradationRung::SliceShrink,
        DegradationRung::QuotaTrim,
        DegradationRung::DeadlineShed,
    ];

    /// 1-based ladder position (1 = mildest).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DegradationRung::PriorityDemotion => 1,
            DegradationRung::SliceShrink => 2,
            DegradationRung::QuotaTrim => 3,
            DegradationRung::DeadlineShed => 4,
        }
    }

    /// A short stable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DegradationRung::PriorityDemotion => "priority_demotion",
            DegradationRung::SliceShrink => "slice_shrink",
            DegradationRung::QuotaTrim => "quota_trim",
            DegradationRung::DeadlineShed => "deadline_shed",
        }
    }
}

/// One pressure sample the controller senses per cadence tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPressure {
    /// Arrivals waiting in the armed path's admission queue.
    pub queue_depth: usize,
    /// Worst in-flight request slowdown across live tenants: elapsed time
    /// on the current request over the trace's ideal compute cycles.
    pub worst_slowdown: f64,
}

// The ladder's settings. They suit the workspace's 700 MHz core, and every
// serving path runs with exactly these values (DESIGN.md §8 tabulates them).

/// Sensing cadence: one pressure sample every 1 M cycles (~1.4 ms).
pub const SENSE_INTERVAL_CYCLES: f64 = 1.0e6;
/// Overload is entered as soon as one arrival waits in the admission queue.
const ENTER_QUEUE_DEPTH: usize = 1;
/// Overload is also entered as soon as an in-flight request runs 8x past
/// its ideal service time.
const ENTER_SLOWDOWN: f64 = 8.0;
/// A sample is calm only with an empty queue and every slowdown below 4x.
const CLEAR_SLOWDOWN: f64 = 4.0;
/// Breached senses per escalation by one rung.
const ESCALATE_TICKS: u32 = 2;
/// Consecutive calm senses that stand the ladder down.
const CLEAR_HOLD_TICKS: u32 = 3;
/// Rung 1 multiplies the victim's priority by this.
const DEMOTE_FACTOR: f64 = 0.5;
/// Rung 1 never demotes a priority below this floor.
const MIN_PRIORITY: f64 = 0.125;
/// Rung 2 multiplies the preemption slice by this.
const SLICE_SHRINK_FACTOR: f64 = 0.5;
/// Rung 2 never shrinks the slice below this many cycles.
const MIN_SLICE_CYCLES: f64 = 35_000.0;
/// Rung 3 keeps this fraction of each tenant's remaining requests.
const QUOTA_KEEP_FRACTION: f64 = 0.5;
/// Rung 4 sheds queued arrivals that have waited longer than this, in
/// cycles.
pub(crate) const SHED_WAIT_CYCLES: f64 = 2.0e7;
/// The watchdog flags a tenant whose `active_rate_p` stays below
/// [`WATCHDOG_ARP_BOUND`] for this many cycles.
const WATCHDOG_WINDOW_CYCLES: f64 = 8.0e6;
/// The watchdog's `active_rate_p` starvation bound.
const WATCHDOG_ARP_BOUND: f64 = 0.02;
/// A watchdog boost multiplies the starved tenant's priority by this.
const WATCHDOG_BOOST_FACTOR: f64 = 2.0;
/// A watchdog boost never raises a priority above this cap.
const MAX_PRIORITY: f64 = 16.0;

/// The argument [`OverloadController::armed`] takes and ignores: the
/// ladder's settings are constants (DESIGN.md §8). The type has no fields
/// and stays only because the benchmark package spells
/// `OverloadController::armed(OverloadPolicy::default())`; the `ServeSpec`
/// change planned in ROADMAP.md, which rewrites those calls, deletes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadPolicy;

/// Does this pressure sample breach the overload-entry condition?
pub(crate) fn breaching(p: OverloadPressure) -> bool {
    p.queue_depth >= ENTER_QUEUE_DEPTH || p.worst_slowdown >= ENTER_SLOWDOWN
}

/// Does this pressure sample satisfy the (stricter) calm condition?
fn calm(p: OverloadPressure) -> bool {
    p.queue_depth == 0 && p.worst_slowdown < CLEAR_SLOWDOWN
}

/// A demoted priority: scaled down, floored, and never above the input —
/// the rung monotonically reduces a tenant's allocation.
pub(crate) fn demoted_priority(priority: f64) -> f64 {
    (priority * DEMOTE_FACTOR).max(MIN_PRIORITY).min(priority)
}

/// A shrunk preemption slice: scaled down, floored, and never above the
/// input.
pub(crate) fn shrunk_slice(slice_cycles: f64) -> f64 {
    (slice_cycles * SLICE_SHRINK_FACTOR)
        .max(MIN_SLICE_CYCLES)
        .min(slice_cycles)
}

/// A trimmed request quota: keeps [`QUOTA_KEEP_FRACTION`] of the remaining
/// requests (at least one), and never exceeds the input. A tenant at or
/// past its quota is untouched.
pub(crate) fn trimmed_quota(quota: usize, completed: usize) -> usize {
    let remaining = quota.saturating_sub(completed);
    if remaining <= 1 {
        return quota;
    }
    // Ceiling of remaining * keep_fraction without leaving integers: the
    // fraction is in (0, 1) so the product is below `remaining` and the
    // manual ceil stays exact for any practical quota.
    let scaled = v10_sim::convert::usize_to_f64(remaining) * QUOTA_KEEP_FRACTION;
    let keep = v10_sim::convert::f64_to_usize(scaled.ceil()).max(1);
    (completed + keep).min(quota)
}

/// A watchdog-boosted priority: scaled up and capped, never below the
/// input.
pub(crate) fn boosted_priority(priority: f64) -> f64 {
    (priority * WATCHDOG_BOOST_FACTOR)
        .min(MAX_PRIORITY)
        .max(priority)
}

/// What the hysteresis state machine decided on one pressure sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LadderStep {
    /// No transition this tick.
    Hold,
    /// Overload entered; the ladder starts at rung 1.
    Enter,
    /// The ladder escalated one rung.
    Escalate,
    /// Sustained calm; the ladder stood down.
    Clear,
}

/// Counters of every overload-control action a run took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverloadStats {
    pub(crate) overload_entries: u64,
    pub(crate) overload_clears: u64,
    pub(crate) demotions: u64,
    pub(crate) slice_shrinks: u64,
    pub(crate) quota_trims: u64,
    pub(crate) shed_requests: u64,
    pub(crate) starvations: u64,
    pub(crate) boosts: u64,
    pub(crate) boost_requeues: u64,
    pub(crate) overload_cycles: f64,
}

impl OverloadStats {
    /// Times the controller entered overload.
    #[must_use]
    pub fn overload_entries(&self) -> u64 {
        self.overload_entries
    }

    /// Times the controller stood the ladder down.
    #[must_use]
    pub fn overload_clears(&self) -> u64 {
        self.overload_clears
    }

    /// Priority demotions applied (rung 1).
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Preemption-slice shrinks applied (rung 2).
    #[must_use]
    pub fn slice_shrinks(&self) -> u64 {
        self.slice_shrinks
    }

    /// Request-quota trims applied (rung 3).
    #[must_use]
    pub fn quota_trims(&self) -> u64 {
        self.quota_trims
    }

    /// Queued arrivals shed past their deadline (rung 4).
    #[must_use]
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    /// Starvation detections by the watchdog.
    #[must_use]
    pub fn starvations(&self) -> u64 {
        self.starvations
    }

    /// Priority boosts the watchdog issued.
    #[must_use]
    pub fn boosts(&self) -> u64 {
        self.boosts
    }

    /// Starvation detections whose boost could not raise the tenant's
    /// priority immediately (already at the priority cap) and were re-queued
    /// for retry instead of being dropped.
    #[must_use]
    pub fn boost_requeues(&self) -> u64 {
        self.boost_requeues
    }

    /// Total degradation actions across all rungs.
    #[must_use]
    pub fn degradations(&self) -> u64 {
        self.demotions + self.slice_shrinks + self.quota_trims + self.shed_requests
    }

    /// Cycles spent inside overload episodes that also cleared. (A run that
    /// ends mid-overload does not count its final open episode.)
    #[must_use]
    pub fn overload_cycles(&self) -> f64 {
        self.overload_cycles
    }
}

/// The overload control plane's state machine: sensing cadence, hysteresis
/// ladder position, watchdog tracking, and action counters.
///
/// Construct with [`OverloadController::disarmed`] (a free no-op that keeps
/// the serving path bit-identical) or [`OverloadController::armed`].
#[derive(Debug, Clone)]
pub struct OverloadController {
    armed: bool,
    next_sense_at: f64,
    overloaded: bool,
    rung: usize,
    breach_ticks: u32,
    calm_ticks: u32,
    entered_at: f64,
    /// First sense instant each tenancy (by admission index, ascending)
    /// was observed below the watchdog bound, cleared whenever it recovers.
    /// Sorted vectors rather than tree maps: they keep their buffers when
    /// they empty, so a sense tick allocates nothing in steady state.
    starve_since: Vec<(usize, f64)>,
    /// Starved tenancies (ascending) whose boost no-opped at the priority
    /// cap, waiting for headroom (e.g. a ladder demotion) to retry.
    pending_boosts: Vec<usize>,
    stats: OverloadStats,
}

impl OverloadController {
    /// The disabled controller: no event horizon, no sensing, no actions.
    /// Serving with it is bit-identical to serving without one.
    #[must_use]
    pub fn disarmed() -> Self {
        OverloadController {
            armed: false,
            next_sense_at: f64::INFINITY,
            overloaded: false,
            rung: 0,
            breach_ticks: 0,
            calm_ticks: 0,
            entered_at: 0.0,
            starve_since: Vec::new(),
            pending_boosts: Vec::new(),
            stats: OverloadStats::default(),
        }
    }

    /// An armed controller, first sensing one interval into the run. The
    /// argument carries nothing (see [`OverloadPolicy`]).
    #[must_use]
    pub fn armed(_policy: OverloadPolicy) -> Self {
        OverloadController {
            armed: true,
            next_sense_at: SENSE_INTERVAL_CYCLES,
            overloaded: false,
            rung: 0,
            breach_ticks: 0,
            calm_ticks: 0,
            entered_at: 0.0,
            starve_since: Vec::new(),
            pending_boosts: Vec::new(),
            stats: OverloadStats::default(),
        }
    }

    /// Is the controller armed?
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Is the controller currently inside an overload episode?
    #[must_use]
    pub fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// The ladder's current rung, 0 when not overloaded.
    #[must_use]
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// The run's accumulated action counters.
    #[must_use]
    pub fn stats(&self) -> OverloadStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut OverloadStats {
        &mut self.stats
    }

    /// The next sense instant — an event horizon the strategy must respect
    /// while armed. Disarmed controllers never bound a step.
    pub(crate) fn next_at(&self) -> Option<f64> {
        self.armed.then_some(self.next_sense_at)
    }

    /// Is a sense tick due at `now`?
    pub(crate) fn due(&self, now: f64) -> bool {
        self.armed && now + EPS >= self.next_sense_at
    }

    /// Advances the sensing cadence past `now`.
    pub(crate) fn advance_sense(&mut self, now: f64) {
        while self.next_sense_at <= now + EPS {
            self.next_sense_at += SENSE_INTERVAL_CYCLES;
        }
    }

    /// Feeds one pressure sample through the hysteresis state machine.
    /// The rung is monotone non-decreasing between `Enter` and `Clear`.
    pub(crate) fn observe(&mut self, pressure: OverloadPressure, now: f64) -> LadderStep {
        if !self.overloaded {
            if breaching(pressure) {
                self.overloaded = true;
                self.rung = 1;
                self.breach_ticks = 0;
                self.calm_ticks = 0;
                self.entered_at = now;
                self.stats.overload_entries += 1;
                return LadderStep::Enter;
            }
            return LadderStep::Hold;
        }
        if calm(pressure) {
            self.calm_ticks += 1;
            if self.calm_ticks >= CLEAR_HOLD_TICKS {
                self.overloaded = false;
                self.rung = 0;
                self.calm_ticks = 0;
                self.breach_ticks = 0;
                self.stats.overload_clears += 1;
                self.stats.overload_cycles += now - self.entered_at;
                return LadderStep::Clear;
            }
            return LadderStep::Hold;
        }
        self.calm_ticks = 0;
        if breaching(pressure) && self.rung < DegradationRung::ALL.len() {
            self.breach_ticks += 1;
            if self.breach_ticks >= ESCALATE_TICKS {
                self.rung += 1;
                self.breach_ticks = 0;
                return LadderStep::Escalate;
            }
        }
        LadderStep::Hold
    }

    /// Watchdog bookkeeping for one live tenancy: returns `true` when the
    /// tenant has sat below the starvation bound for a full window (and
    /// resets the window so a boosted tenant gets time to recover).
    pub(crate) fn watchdog_starved(&mut self, w: usize, active_rate_p: f64, now: f64) -> bool {
        let pos = self.starve_since.binary_search_by_key(&w, |&(t, _)| t);
        if active_rate_p >= WATCHDOG_ARP_BOUND {
            if let Ok(i) = pos {
                self.starve_since.remove(i);
            }
            return false;
        }
        let i = pos.unwrap_or_else(|i| {
            self.starve_since.insert(i, (w, now));
            i
        });
        let Some((_, since)) = self.starve_since.get_mut(i) else {
            return false;
        };
        if now - *since >= WATCHDOG_WINDOW_CYCLES {
            *since = now;
            return true;
        }
        false
    }

    /// Drops watchdog tracking for tenancies no longer live.
    pub(crate) fn watchdog_retain(&mut self, is_live: impl Fn(usize) -> bool) {
        self.starve_since.retain(|&(w, _)| is_live(w));
        self.pending_boosts.retain(|&w| is_live(w));
    }

    /// Queues a boost that no-opped at the priority cap for later retry.
    /// Counts a re-queue only on first entry — a tenant waiting across
    /// several ticks is one deferred boost, not many.
    pub(crate) fn queue_boost(&mut self, w: usize) {
        if let Err(i) = self.pending_boosts.binary_search(&w) {
            self.pending_boosts.insert(i, w);
            self.stats.boost_requeues += 1;
        }
    }

    /// The `i`-th tenancy with a deferred boost, in index order.
    pub(crate) fn pending_boost(&self, i: usize) -> Option<usize> {
        self.pending_boosts.get(i).copied()
    }

    /// Clears a deferred boost once it has been applied.
    pub(crate) fn clear_pending_boost(&mut self, w: usize) {
        if let Ok(i) = self.pending_boosts.binary_search(&w) {
            self.pending_boosts.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(queue_depth: usize, worst_slowdown: f64) -> OverloadPressure {
        OverloadPressure {
            queue_depth,
            worst_slowdown,
        }
    }

    #[test]
    fn rung_metadata_is_consistent() {
        for (i, rung) in DegradationRung::ALL.iter().enumerate() {
            assert_eq!(rung.index(), i + 1);
            assert!(!rung.label().is_empty());
        }
    }

    #[test]
    fn disarmed_controller_exposes_no_horizon() {
        let c = OverloadController::disarmed();
        assert!(!c.is_armed());
        assert_eq!(c.next_at(), None);
        assert!(!c.due(f64::MAX / 2.0));
        assert_eq!(c.stats(), OverloadStats::default());
    }

    #[test]
    fn hysteresis_enters_escalates_and_clears() {
        let mut c = OverloadController::armed(OverloadPolicy);
        assert_eq!(c.observe(sample(0, 1.0), 1.0e6), LadderStep::Hold);
        assert!(!c.is_overloaded());
        assert_eq!(c.observe(sample(3, 1.0), 2.0e6), LadderStep::Enter);
        assert_eq!(c.rung(), 1);
        // Two breached ticks per escalation.
        assert_eq!(c.observe(sample(3, 1.0), 3.0e6), LadderStep::Hold);
        assert_eq!(c.observe(sample(3, 1.0), 4.0e6), LadderStep::Escalate);
        assert_eq!(c.rung(), 2);
        // Calm ticks reset neither the rung nor the episode, and a breach
        // before the third restarts the count...
        assert_eq!(c.observe(sample(0, 1.0), 5.0e6), LadderStep::Hold);
        assert_eq!(c.observe(sample(0, 1.0), 6.0e6), LadderStep::Hold);
        assert_eq!(c.rung(), 2);
        assert_eq!(c.observe(sample(1, 1.0), 7.0e6), LadderStep::Hold);
        assert_eq!(c.rung(), 2);
        // ...so only three calm ticks in a row stand the ladder down.
        assert_eq!(c.observe(sample(0, 1.0), 8.0e6), LadderStep::Hold);
        assert_eq!(c.observe(sample(0, 1.0), 9.0e6), LadderStep::Hold);
        assert_eq!(c.observe(sample(0, 1.0), 10.0e6), LadderStep::Clear);
        assert!(!c.is_overloaded());
        assert_eq!(c.rung(), 0);
        assert_eq!(c.stats().overload_entries(), 1);
        assert_eq!(c.stats().overload_clears(), 1);
        assert_eq!(c.stats().overload_cycles(), 8.0e6);
    }

    #[test]
    fn ladder_saturates_at_the_final_rung() {
        let mut c = OverloadController::armed(OverloadPolicy);
        assert_eq!(c.observe(sample(9, 99.0), 1.0), LadderStep::Enter);
        // Two breached ticks per rung: six climb from rung 1 to rung 4.
        for _ in 0..6 {
            c.observe(sample(9, 99.0), 2.0);
        }
        assert_eq!(c.rung(), DegradationRung::ALL.len());
        for _ in 0..10 {
            assert_eq!(c.observe(sample(9, 99.0), 3.0), LadderStep::Hold);
        }
        assert_eq!(c.rung(), DegradationRung::ALL.len());
    }

    #[test]
    fn sense_cadence_advances_past_now() {
        let mut c = OverloadController::armed(OverloadPolicy);
        assert_eq!(c.next_at(), Some(1.0e6));
        assert!(c.due(1.0e6));
        assert!(!c.due(0.5e6));
        c.advance_sense(3.2e6);
        assert_eq!(c.next_at(), Some(4.0e6));
    }

    #[test]
    fn watchdog_fires_after_a_full_window_and_resets() {
        // An 8e6-cycle window below an `active_rate_p` of 0.02.
        let mut c = OverloadController::armed(OverloadPolicy);
        assert!(!c.watchdog_starved(0, 0.01, 0.0));
        assert!(!c.watchdog_starved(0, 0.01, 4.0e6));
        assert!(c.watchdog_starved(0, 0.01, 8.0e6));
        // The window restarts after a firing.
        assert!(!c.watchdog_starved(0, 0.01, 12.0e6));
        assert!(c.watchdog_starved(0, 0.01, 16.0e6));
        // Recovery to the bound clears the tracking entirely.
        assert!(!c.watchdog_starved(0, 0.02, 20.0e6));
        assert!(!c.watchdog_starved(0, 0.01, 24.0e6));
        assert!(!c.watchdog_starved(0, 0.01, 28.0e6));
        assert!(c.watchdog_starved(0, 0.01, 32.0e6));
        c.watchdog_retain(|_| false);
        assert!(!c.watchdog_starved(1, 0.5, 32.0e6));
    }

    #[test]
    fn degradation_helpers_respect_floors_and_caps() {
        assert_eq!(demoted_priority(1.0), 0.5);
        assert_eq!(demoted_priority(0.125), 0.125);
        assert_eq!(demoted_priority(0.01), 0.01, "never raised to the floor");
        assert_eq!(shrunk_slice(140_000.0), 70_000.0);
        assert_eq!(shrunk_slice(35_000.0), 35_000.0);
        assert_eq!(shrunk_slice(1_000.0), 1_000.0);
        assert_eq!(trimmed_quota(10, 2), 2 + 4);
        assert_eq!(trimmed_quota(3, 2), 3, "one remaining request is kept");
        assert_eq!(trimmed_quota(5, 5), 5);
        assert_eq!(trimmed_quota(5, 9), 5, "over-quota tenants untouched");
        assert_eq!(boosted_priority(1.0), 2.0);
        assert_eq!(boosted_priority(12.0), 16.0);
        assert_eq!(boosted_priority(100.0), 100.0, "never cut by the cap");
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use v10_sim::SimRng;

    /// Property (satellite): the degradation ladder is monotone. Whatever
    /// pressure sequence drives the state machine, the rung never decreases
    /// mid-episode, and every rung helper only ever reduces the allocation
    /// it governs (priority, slice, quota) — boosts live outside the ladder.
    #[test]
    fn ladder_is_monotone_under_random_pressure() {
        let mut rng = SimRng::seed_from(0x0DE6);
        for case in 0..64 {
            let mut c = OverloadController::armed(OverloadPolicy);
            let mut now = 0.0;
            let mut last_rung = 0usize;
            for _ in 0..256 {
                now += 1.0e6;
                let pressure = OverloadPressure {
                    queue_depth: rng.index(4),
                    worst_slowdown: rng.uniform(0.0, 16.0),
                };
                let was_overloaded = c.is_overloaded();
                let step = c.observe(pressure, now);
                match step {
                    LadderStep::Enter => {
                        assert!(!was_overloaded, "case {case}: double entry");
                        assert_eq!(c.rung(), 1);
                    }
                    LadderStep::Escalate => {
                        assert!(was_overloaded);
                        assert_eq!(c.rung(), last_rung + 1, "case {case}: rung skipped");
                    }
                    LadderStep::Clear => {
                        assert!(was_overloaded);
                        assert_eq!(c.rung(), 0);
                    }
                    LadderStep::Hold => {
                        if was_overloaded {
                            assert_eq!(c.rung(), last_rung, "case {case}: rung moved on Hold");
                        }
                    }
                }
                if was_overloaded && c.is_overloaded() {
                    assert!(c.rung() >= last_rung, "case {case}: ladder went down");
                }
                assert!(c.rung() <= DegradationRung::ALL.len());
                last_rung = c.rung();

                // Rung helpers only ever reduce the allocation they govern.
                let priority = rng.uniform(0.01, 20.0);
                assert!(demoted_priority(priority) <= priority);
                assert!(demoted_priority(priority) > 0.0);
                let slice = rng.uniform(1.0e3, 1.0e6);
                assert!(shrunk_slice(slice) <= slice);
                assert!(shrunk_slice(slice) > 0.0);
                let quota = 1 + rng.index(32);
                let completed = rng.index(40);
                let trimmed = trimmed_quota(quota, completed);
                assert!(trimmed <= quota, "case {case}: quota grew");
                assert!(
                    trimmed >= quota.min(completed + 1),
                    "case {case}: trimmed below the in-flight request"
                );
                // Trimming is idempotent-safe: re-trimming never increases.
                assert!(trimmed_quota(trimmed, completed) <= trimmed);
            }
        }
    }
}
