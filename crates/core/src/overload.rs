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

use v10_sim::{V10Error, V10Result};

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

/// Tuning knobs for the [`OverloadController`]. The defaults suit the
/// workspace's 700 MHz core: sensing every 1 M cycles (~1.4 ms), entering
/// overload as soon as an arrival queues or a request runs 8x past its
/// ideal service time, and escalating one rung every two breached senses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    sense_interval_cycles: f64,
    enter_queue_depth: usize,
    enter_slowdown: f64,
    clear_slowdown: f64,
    escalate_ticks: u32,
    clear_hold_ticks: u32,
    demote_factor: f64,
    min_priority: f64,
    slice_shrink_factor: f64,
    min_slice_cycles: f64,
    quota_keep_fraction: f64,
    shed_wait_cycles: f64,
    watchdog_window_cycles: f64,
    watchdog_arp_bound: f64,
    watchdog_boost_factor: f64,
    max_priority: f64,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            sense_interval_cycles: 1.0e6,
            enter_queue_depth: 1,
            enter_slowdown: 8.0,
            clear_slowdown: 4.0,
            escalate_ticks: 2,
            clear_hold_ticks: 3,
            demote_factor: 0.5,
            min_priority: 0.125,
            slice_shrink_factor: 0.5,
            min_slice_cycles: 35_000.0,
            quota_keep_fraction: 0.5,
            shed_wait_cycles: 2.0e7,
            watchdog_window_cycles: 8.0e6,
            watchdog_arp_bound: 0.02,
            watchdog_boost_factor: 2.0,
            max_priority: 16.0,
        }
    }
}

fn positive_finite(context: &'static str, name: &str, v: f64) -> V10Result<()> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(V10Error::invalid(
            context,
            format!("{name} must be positive and finite, got {v}"),
        ))
    }
}

#[cfg(test)]
fn fraction(context: &'static str, name: &str, v: f64) -> V10Result<()> {
    if v.is_finite() && v > 0.0 && v < 1.0 {
        Ok(())
    } else {
        Err(V10Error::invalid(
            context,
            format!("{name} must be in (0, 1), got {v}"),
        ))
    }
}

impl OverloadPolicy {
    /// The default policy (see the type-level docs for the values).
    #[must_use]
    pub fn new() -> Self {
        OverloadPolicy::default()
    }

    /// Sets the sensing cadence in cycles.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `cycles` is positive
    /// and finite.
    pub fn with_sense_interval_cycles(mut self, cycles: f64) -> V10Result<Self> {
        positive_finite(
            "OverloadPolicy::with_sense_interval_cycles",
            "interval",
            cycles,
        )?;
        self.sense_interval_cycles = cycles;
        Ok(self)
    }

    /// Sets the queue depth at which overload is entered.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `depth` is zero.
    #[cfg(test)]
    pub(crate) fn with_enter_queue_depth(mut self, depth: usize) -> V10Result<Self> {
        if depth == 0 {
            return Err(V10Error::invalid(
                "OverloadPolicy::with_enter_queue_depth",
                "entry depth of zero would latch overload permanently",
            ));
        }
        self.enter_queue_depth = depth;
        Ok(self)
    }

    /// Sets the in-flight slowdown thresholds: overload is entered at
    /// `enter` and considered calm below `clear`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless
    /// `1 <= clear <= enter` and both are finite.
    #[cfg(test)]
    pub(crate) fn with_slowdown_thresholds(mut self, enter: f64, clear: f64) -> V10Result<Self> {
        let ctx = "OverloadPolicy::with_slowdown_thresholds";
        positive_finite(ctx, "enter", enter)?;
        positive_finite(ctx, "clear", clear)?;
        if !(clear >= 1.0 && clear <= enter) {
            return Err(V10Error::invalid(
                ctx,
                format!("need 1 <= clear <= enter, got clear {clear}, enter {enter}"),
            ));
        }
        self.enter_slowdown = enter;
        self.clear_slowdown = clear;
        Ok(self)
    }

    /// Sets the hysteresis pacing: escalate one rung per `escalate_ticks`
    /// breached senses; stand down after `clear_hold_ticks` calm senses.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if either count is zero.
    #[cfg(test)]
    pub(crate) fn with_hysteresis(
        mut self,
        escalate_ticks: u32,
        clear_hold_ticks: u32,
    ) -> V10Result<Self> {
        if escalate_ticks == 0 || clear_hold_ticks == 0 {
            return Err(V10Error::invalid(
                "OverloadPolicy::with_hysteresis",
                "hysteresis tick counts must be positive",
            ));
        }
        self.escalate_ticks = escalate_ticks;
        self.clear_hold_ticks = clear_hold_ticks;
        Ok(self)
    }

    /// Sets the priority-demotion rung: each application multiplies the
    /// victim's priority by `factor`, never below `min_priority`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `factor` is in (0, 1)
    /// and `min_priority` is positive and finite.
    #[cfg(test)]
    pub(crate) fn with_demotion(mut self, factor: f64, min_priority: f64) -> V10Result<Self> {
        let ctx = "OverloadPolicy::with_demotion";
        fraction(ctx, "factor", factor)?;
        positive_finite(ctx, "min_priority", min_priority)?;
        self.demote_factor = factor;
        self.min_priority = min_priority;
        Ok(self)
    }

    /// Sets the slice-shrink rung: each application multiplies the
    /// preemption slice by `factor`, never below `min_slice_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `factor` is in (0, 1)
    /// and `min_slice_cycles` is positive and finite.
    #[cfg(test)]
    pub(crate) fn with_slice_shrink(
        mut self,
        factor: f64,
        min_slice_cycles: f64,
    ) -> V10Result<Self> {
        let ctx = "OverloadPolicy::with_slice_shrink";
        fraction(ctx, "factor", factor)?;
        positive_finite(ctx, "min_slice_cycles", min_slice_cycles)?;
        self.slice_shrink_factor = factor;
        self.min_slice_cycles = min_slice_cycles;
        Ok(self)
    }

    /// Sets the quota-trim rung: each application keeps `keep_fraction` of
    /// a tenant's remaining requests (always at least one).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `keep_fraction` is in
    /// (0, 1).
    #[cfg(test)]
    pub(crate) fn with_quota_keep_fraction(mut self, keep_fraction: f64) -> V10Result<Self> {
        fraction(
            "OverloadPolicy::with_quota_keep_fraction",
            "keep_fraction",
            keep_fraction,
        )?;
        self.quota_keep_fraction = keep_fraction;
        Ok(self)
    }

    /// Sets the shed rung's deadline: queued arrivals that have waited more
    /// than `cycles` are dropped while the ladder sits on its final rung.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `cycles` is positive
    /// and finite.
    #[cfg(test)]
    pub(crate) fn with_shed_wait_cycles(mut self, cycles: f64) -> V10Result<Self> {
        positive_finite("OverloadPolicy::with_shed_wait_cycles", "deadline", cycles)?;
        self.shed_wait_cycles = cycles;
        Ok(self)
    }

    /// Sets the starvation watchdog: a tenant whose `active_rate_p` stays
    /// below `arp_bound` for `window_cycles` has its priority multiplied by
    /// `boost_factor`, capped at `max_priority`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `window_cycles`,
    /// `arp_bound`, and `max_priority` are positive and finite and
    /// `boost_factor` exceeds 1.
    pub fn with_watchdog(
        mut self,
        window_cycles: f64,
        arp_bound: f64,
        boost_factor: f64,
        max_priority: f64,
    ) -> V10Result<Self> {
        let ctx = "OverloadPolicy::with_watchdog";
        positive_finite(ctx, "window_cycles", window_cycles)?;
        positive_finite(ctx, "arp_bound", arp_bound)?;
        positive_finite(ctx, "max_priority", max_priority)?;
        if !(boost_factor.is_finite() && boost_factor > 1.0) {
            return Err(V10Error::invalid(
                ctx,
                format!("boost_factor must exceed 1, got {boost_factor}"),
            ));
        }
        self.watchdog_window_cycles = window_cycles;
        self.watchdog_arp_bound = arp_bound;
        self.watchdog_boost_factor = boost_factor;
        self.max_priority = max_priority;
        Ok(self)
    }

    /// The sensing cadence in cycles.
    #[must_use]
    pub fn sense_interval_cycles(&self) -> f64 {
        self.sense_interval_cycles
    }

    /// The shed rung's waiting-time deadline in cycles.
    #[must_use]
    pub fn shed_wait_cycles(&self) -> f64 {
        self.shed_wait_cycles
    }

    /// The watchdog's `active_rate_p` starvation bound.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn watchdog_arp_bound(&self) -> f64 {
        self.watchdog_arp_bound
    }

    /// The watchdog's observation window in cycles.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn watchdog_window_cycles(&self) -> f64 {
        self.watchdog_window_cycles
    }

    /// Does this pressure sample breach the overload-entry condition?
    #[must_use]
    pub fn breaching(&self, p: OverloadPressure) -> bool {
        p.queue_depth >= self.enter_queue_depth || p.worst_slowdown >= self.enter_slowdown
    }

    /// Does this pressure sample satisfy the (stricter) calm condition?
    #[must_use]
    pub fn calm(&self, p: OverloadPressure) -> bool {
        p.queue_depth == 0 && p.worst_slowdown < self.clear_slowdown
    }

    /// A demoted priority: scaled down, floored, and never above the input
    /// — the rung monotonically reduces a tenant's allocation.
    #[must_use]
    pub fn demoted_priority(&self, priority: f64) -> f64 {
        (priority * self.demote_factor)
            .max(self.min_priority)
            .min(priority)
    }

    /// A shrunk preemption slice: scaled down, floored, and never above the
    /// input.
    #[must_use]
    pub fn shrunk_slice(&self, slice_cycles: f64) -> f64 {
        (slice_cycles * self.slice_shrink_factor)
            .max(self.min_slice_cycles)
            .min(slice_cycles)
    }

    /// A trimmed request quota: keeps `quota_keep_fraction` of the
    /// remaining requests (at least one), and never exceeds the input. A
    /// tenant at or past its quota is untouched.
    #[must_use]
    pub fn trimmed_quota(&self, quota: usize, completed: usize) -> usize {
        let remaining = quota.saturating_sub(completed);
        if remaining <= 1 {
            return quota;
        }
        // Ceiling of remaining * keep_fraction without leaving integers:
        // keep_fraction is in (0, 1) so the product is below `remaining`
        // and the manual ceil stays exact for any practical quota.
        let scaled = v10_sim::convert::usize_to_f64(remaining) * self.quota_keep_fraction;
        let keep = v10_sim::convert::f64_to_usize(scaled.ceil()).max(1);
        (completed + keep).min(quota)
    }

    /// A watchdog-boosted priority: scaled up and capped, never below the
    /// input.
    #[must_use]
    pub fn boosted_priority(&self, priority: f64) -> f64 {
        (priority * self.watchdog_boost_factor)
            .min(self.max_priority)
            .max(priority)
    }
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
    /// priority immediately (already at the policy cap) and were re-queued
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
    policy: OverloadPolicy,
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
            policy: OverloadPolicy::default(),
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

    /// An armed controller enforcing `policy`, first sensing one interval
    /// into the run.
    #[must_use]
    pub fn armed(policy: OverloadPolicy) -> Self {
        let next_sense_at = policy.sense_interval_cycles();
        OverloadController {
            policy,
            armed: true,
            next_sense_at,
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

    /// The enforced policy.
    #[must_use]
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
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
            self.next_sense_at += self.policy.sense_interval_cycles;
        }
    }

    /// Feeds one pressure sample through the hysteresis state machine.
    /// The rung is monotone non-decreasing between `Enter` and `Clear`.
    pub(crate) fn observe(&mut self, pressure: OverloadPressure, now: f64) -> LadderStep {
        if !self.overloaded {
            if self.policy.breaching(pressure) {
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
        if self.policy.calm(pressure) {
            self.calm_ticks += 1;
            if self.calm_ticks >= self.policy.clear_hold_ticks {
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
        if self.policy.breaching(pressure) && self.rung < DegradationRung::ALL.len() {
            self.breach_ticks += 1;
            if self.breach_ticks >= self.policy.escalate_ticks {
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
        if active_rate_p >= self.policy.watchdog_arp_bound {
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
        if now - *since >= self.policy.watchdog_window_cycles {
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
    fn policy_builders_validate() {
        assert!(OverloadPolicy::new()
            .with_sense_interval_cycles(0.0)
            .is_err());
        assert!(OverloadPolicy::new().with_enter_queue_depth(0).is_err());
        assert!(OverloadPolicy::new()
            .with_slowdown_thresholds(2.0, 4.0)
            .is_err());
        assert!(OverloadPolicy::new()
            .with_slowdown_thresholds(4.0, 0.5)
            .is_err());
        assert!(OverloadPolicy::new().with_hysteresis(0, 1).is_err());
        assert!(OverloadPolicy::new().with_demotion(1.5, 0.1).is_err());
        assert!(OverloadPolicy::new().with_demotion(0.5, f64::NAN).is_err());
        assert!(OverloadPolicy::new().with_slice_shrink(0.0, 1.0).is_err());
        assert!(OverloadPolicy::new().with_quota_keep_fraction(1.0).is_err());
        assert!(OverloadPolicy::new()
            .with_shed_wait_cycles(f64::INFINITY)
            .is_err());
        assert!(OverloadPolicy::new()
            .with_watchdog(1.0, 1.0, 0.5, 1.0)
            .is_err());
        let ok = OverloadPolicy::new()
            .with_sense_interval_cycles(5.0e5)
            .unwrap()
            .with_enter_queue_depth(2)
            .unwrap()
            .with_slowdown_thresholds(10.0, 5.0)
            .unwrap()
            .with_hysteresis(1, 2)
            .unwrap()
            .with_demotion(0.25, 0.5)
            .unwrap()
            .with_slice_shrink(0.5, 10_000.0)
            .unwrap()
            .with_quota_keep_fraction(0.75)
            .unwrap()
            .with_shed_wait_cycles(1.0e7)
            .unwrap()
            .with_watchdog(4.0e6, 0.01, 4.0, 32.0)
            .unwrap();
        assert_eq!(ok.sense_interval_cycles(), 5.0e5);
        assert_eq!(ok.shed_wait_cycles(), 1.0e7);
        assert_eq!(ok.watchdog_arp_bound(), 0.01);
        assert_eq!(ok.watchdog_window_cycles(), 4.0e6);
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
        let policy = OverloadPolicy::new().with_hysteresis(2, 2).unwrap();
        let mut c = OverloadController::armed(policy);
        assert_eq!(c.observe(sample(0, 1.0), 1.0e6), LadderStep::Hold);
        assert!(!c.is_overloaded());
        assert_eq!(c.observe(sample(3, 1.0), 2.0e6), LadderStep::Enter);
        assert_eq!(c.rung(), 1);
        // Two breached ticks per escalation.
        assert_eq!(c.observe(sample(3, 1.0), 3.0e6), LadderStep::Hold);
        assert_eq!(c.observe(sample(3, 1.0), 4.0e6), LadderStep::Escalate);
        assert_eq!(c.rung(), 2);
        // A calm tick resets neither the rung nor the episode...
        assert_eq!(c.observe(sample(0, 1.0), 5.0e6), LadderStep::Hold);
        assert_eq!(c.rung(), 2);
        // ...until the hold requirement is met.
        assert_eq!(c.observe(sample(0, 1.0), 6.0e6), LadderStep::Clear);
        assert!(!c.is_overloaded());
        assert_eq!(c.rung(), 0);
        assert_eq!(c.stats().overload_entries(), 1);
        assert_eq!(c.stats().overload_clears(), 1);
        assert_eq!(c.stats().overload_cycles(), 4.0e6);
    }

    #[test]
    fn ladder_saturates_at_the_final_rung() {
        let policy = OverloadPolicy::new().with_hysteresis(1, 1).unwrap();
        let mut c = OverloadController::armed(policy);
        assert_eq!(c.observe(sample(9, 99.0), 1.0), LadderStep::Enter);
        for _ in 0..10 {
            c.observe(sample(9, 99.0), 2.0);
        }
        assert_eq!(c.rung(), DegradationRung::ALL.len());
    }

    #[test]
    fn sense_cadence_advances_past_now() {
        let mut c = OverloadController::armed(OverloadPolicy::default());
        assert_eq!(c.next_at(), Some(1.0e6));
        assert!(c.due(1.0e6));
        assert!(!c.due(0.5e6));
        c.advance_sense(3.2e6);
        assert_eq!(c.next_at(), Some(4.0e6));
    }

    #[test]
    fn watchdog_fires_after_a_full_window_and_resets() {
        let policy = OverloadPolicy::new()
            .with_watchdog(1.0e6, 0.1, 2.0, 8.0)
            .unwrap();
        let mut c = OverloadController::armed(policy);
        assert!(!c.watchdog_starved(0, 0.01, 0.0));
        assert!(!c.watchdog_starved(0, 0.01, 0.5e6));
        assert!(c.watchdog_starved(0, 0.01, 1.0e6));
        // The window restarts after a firing.
        assert!(!c.watchdog_starved(0, 0.01, 1.5e6));
        assert!(c.watchdog_starved(0, 0.01, 2.0e6));
        // Recovery clears the tracking entirely.
        assert!(!c.watchdog_starved(0, 0.5, 2.5e6));
        assert!(!c.watchdog_starved(0, 0.01, 3.0e6));
        assert!(!c.watchdog_starved(0, 0.01, 3.5e6));
        assert!(c.watchdog_starved(0, 0.01, 4.0e6));
        c.watchdog_retain(|_| false);
        assert!(!c.watchdog_starved(1, 0.5, 4.0e6));
    }

    #[test]
    fn degradation_helpers_respect_floors_and_caps() {
        let p = OverloadPolicy::default();
        assert_eq!(p.demoted_priority(1.0), 0.5);
        assert_eq!(p.demoted_priority(0.125), 0.125);
        assert_eq!(p.demoted_priority(0.01), 0.01, "never raised to the floor");
        assert_eq!(p.shrunk_slice(140_000.0), 70_000.0);
        assert_eq!(p.shrunk_slice(35_000.0), 35_000.0);
        assert_eq!(p.shrunk_slice(1_000.0), 1_000.0);
        assert_eq!(p.trimmed_quota(10, 2), 2 + 4);
        assert_eq!(p.trimmed_quota(3, 2), 3, "one remaining request is kept");
        assert_eq!(p.trimmed_quota(5, 5), 5);
        assert_eq!(p.trimmed_quota(5, 9), 5, "over-quota tenants untouched");
        assert_eq!(p.boosted_priority(1.0), 2.0);
        assert_eq!(p.boosted_priority(12.0), 16.0);
        assert_eq!(p.boosted_priority(100.0), 100.0, "never cut by the cap");
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
            let policy = OverloadPolicy::new()
                .with_hysteresis(1 + rng.index(3) as u32, 1 + rng.index(3) as u32)
                .unwrap()
                .with_demotion(rng.uniform(0.1, 0.9), rng.uniform(0.01, 0.5))
                .unwrap()
                .with_slice_shrink(rng.uniform(0.1, 0.9), rng.uniform(1.0e3, 5.0e4))
                .unwrap()
                .with_quota_keep_fraction(rng.uniform(0.1, 0.9))
                .unwrap();
            let mut c = OverloadController::armed(policy);
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
                assert!(c.policy().demoted_priority(priority) <= priority);
                assert!(c.policy().demoted_priority(priority) > 0.0);
                let slice = rng.uniform(1.0e3, 1.0e6);
                assert!(c.policy().shrunk_slice(slice) <= slice);
                assert!(c.policy().shrunk_slice(slice) > 0.0);
                let quota = 1 + rng.index(32);
                let completed = rng.index(40);
                let trimmed = c.policy().trimmed_quota(quota, completed);
                assert!(trimmed <= quota, "case {case}: quota grew");
                assert!(
                    trimmed >= quota.min(completed + 1),
                    "case {case}: trimmed below the in-flight request"
                );
                // Trimming is idempotent-safe: re-trimming never increases.
                assert!(c.policy().trimmed_quota(trimmed, completed) <= trimmed);
            }
        }
    }
}
