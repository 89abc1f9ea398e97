//! Operator scheduling policies (§3.2 of the paper).
//!
//! When more operators are ready than functional units are free, the
//! scheduling policy decides which workload executes next:
//!
//! * **Round-Robin** (the V10-Base policy): circulate through the workloads
//!   with ready operators. Balances operator *counts*, not execution time,
//!   so long-operator workloads starve short-operator ones.
//! * **Priority-based** (Algorithm 1, used by V10-Fair and V10-Full): pick
//!   the non-running workload with the smallest
//!   `active_rate_p = active_rate / priority` whose ready operator matches
//!   the free FU's kind — the workload most starved relative to its
//!   priority.

use v10_isa::FuKind;
use v10_sim::Cycles;

use crate::context::{ContextTable, WorkloadId};

/// Preempt when the waiting workload's `active_rate_p` is below this
/// fraction of the running one's. At `1.0` this is Algorithm 1 verbatim:
/// any active-rate imbalance lets the starved workload take the FU at the
/// next timer tick. Values below 1.0 add hysteresis (preempt only on clear
/// starvation); with realistic traces — whose inter-operator dispatch gaps
/// give the preempted workload natural catch-up windows — the verbatim
/// policy measures strictly better, so it is the default. See
/// [`Scheduler::prefers_preemption`].
///
/// unit: dimensionless ratio of two `active_rate_p` values (cycles/cycle),
/// in `(0, 1]`.
pub const PREEMPT_HYSTERESIS: f64 = 1.0;

/// Which scheduling policy the operator scheduler enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Naïve round-robin over workloads with ready operators.
    RoundRobin,
    /// Algorithm 1: lowest `active_rate_p` first.
    Priority,
}

/// The operator scheduler's policy engine.
///
/// # Example
///
/// ```
/// use v10_core::{ContextTable, Policy, Scheduler, WorkloadId};
/// use v10_isa::FuKind;
///
/// let mut table = ContextTable::new(&[1.0, 1.0]).expect("valid priorities");
/// let (w0, w1) = (WorkloadId::new(0), WorkloadId::new(1));
/// for w in [w0, w1] {
///     table.set_current_op(w, 0, FuKind::Sa).expect("live id");
///     table.set_ready(w, true).expect("live id");
/// }
/// // w0 has hogged the core; Algorithm 1 picks the starved w1.
/// table.add_active_cycles(w0, 900.0);
/// table.add_active_cycles(w1, 100.0);
/// let mut sched = Scheduler::new(Policy::Priority);
/// let now = v10_sim::Cycles::new(1_000.0);
/// assert_eq!(sched.pick_next(&table, FuKind::Sa, now), Some(w1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduler {
    policy: Policy,
    rr_cursor: usize,
}

impl Scheduler {
    /// Creates a scheduler enforcing `policy`.
    #[must_use]
    pub fn new(policy: Policy) -> Self {
        Scheduler {
            policy,
            rr_cursor: 0,
        }
    }

    /// The enforced policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Picks the workload whose ready operator should be issued to a free
    /// FU of kind `fu_type`, or `None` if no workload qualifies
    /// (Algorithm 1's `NO_WORKLOAD_AVAILABLE`).
    ///
    /// A workload qualifies when it is not already running on some FU
    /// (operators within a workload are sequential) and its current operator
    /// is ready and of the right kind: the context table's candidate set
    /// for `fu_type`.
    pub fn pick_next(
        &mut self,
        table: &ContextTable,
        fu_type: FuKind,
        now: Cycles,
    ) -> Option<WorkloadId> {
        self.pick(table, fu_type, now).map(|pick| pick.0)
    }

    /// [`pick_next`](Self::pick_next), also answering the pick's
    /// `active_rate_p` when the priority policy computed it (a pick among
    /// two or more candidates) so [`prefers_preemption`](Self::prefers_preemption)
    /// can reuse it.
    #[inline]
    pub(crate) fn pick(
        &mut self,
        table: &ContextTable,
        fu_type: FuKind,
        now: Cycles,
    ) -> Option<(WorkloadId, Option<f64>)> {
        match self.policy {
            Policy::RoundRobin => self.pick_round_robin(table, fu_type),
            Policy::Priority => table.pick_min_arp(fu_type, now.as_f64()),
        }
    }

    /// Would Algorithm 1 rather run `candidate` than keep `running` on the
    /// FU? True when the candidate is more starved relative to its priority
    /// (scaled by [`PREEMPT_HYSTERESIS`]) — the preemption module's trigger
    /// condition (§3.3), evaluated on every preemption-timer tick. This is
    /// what stops long operators from starving short ones (Fig. 12).
    /// `candidate` carries the candidate's `active_rate_p` at `now` when the
    /// caller already holds it from its pick; `None` computes it here.
    ///
    /// Round-robin is non-preemptive (V10-Base), so it never prefers a
    /// switch.
    #[must_use]
    pub fn prefers_preemption(
        &self,
        table: &ContextTable,
        running: WorkloadId,
        candidate: (WorkloadId, Option<f64>),
        now: Cycles,
    ) -> bool {
        match self.policy {
            Policy::RoundRobin => false,
            Policy::Priority => {
                let (candidate, arp) = candidate;
                let candidate_arp =
                    arp.unwrap_or_else(|| table.active_rate_p(candidate, now.as_f64()));
                candidate_arp < PREEMPT_HYSTERESIS * table.active_rate_p(running, now.as_f64())
            }
        }
    }

    /// Round-robin: the first candidate at or after the cursor, cyclically
    /// over hardware slots (not live tenants), so a retirement does not
    /// renumber everyone after it. The cursor moves past the pick.
    fn pick_round_robin(
        &mut self,
        table: &ContextTable,
        fu_type: FuKind,
    ) -> Option<(WorkloadId, Option<f64>)> {
        let id = table.first_candidate_from(fu_type, self.rr_cursor)?;
        self.rr_cursor = (id.index() + 1) % table.capacity();
        Some((id, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_table(n: usize, kind: FuKind) -> ContextTable {
        let mut t = ContextTable::new(&vec![1.0; n]).unwrap();
        for id in t.ids().collect::<Vec<_>>() {
            t.set_current_op(id, 0, kind).unwrap();
            t.set_ready(id, true).unwrap();
        }
        t
    }

    #[test]
    fn round_robin_circulates() {
        let t = ready_table(3, FuKind::Sa);
        let mut s = Scheduler::new(Policy::RoundRobin);
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                s.pick_next(&t, FuKind::Sa, Cycles::new(0.0))
                    .unwrap()
                    .index()
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_unready_and_active() {
        let mut t = ready_table(3, FuKind::Sa);
        t.set_ready(WorkloadId::new(0), false).unwrap();
        let fu = v10_npu::FuPool::new(1).unwrap().iter().next().unwrap();
        t.mark_issued(WorkloadId::new(1), fu).unwrap();
        let mut s = Scheduler::new(Policy::RoundRobin);
        assert_eq!(
            s.pick_next(&t, FuKind::Sa, Cycles::new(0.0)),
            Some(WorkloadId::new(2))
        );
    }

    #[test]
    fn round_robin_skips_retired_slots() {
        let mut t = ready_table(3, FuKind::Sa);
        t.retire(t.id_at_slot(1).unwrap()).unwrap();
        let mut s = Scheduler::new(Policy::RoundRobin);
        let picks: Vec<usize> = (0..4)
            .map(|_| {
                s.pick_next(&t, FuKind::Sa, Cycles::new(0.0))
                    .unwrap()
                    .index()
            })
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn demotion_reorders_priority_picks() {
        // The overload ladder's rung 1 acts purely through Algorithm 1:
        // cutting a tenant's priority inflates its active_rate_p, so the
        // scheduler stops favoring it on the very next pick.
        let mut t = ready_table(2, FuKind::Sa);
        let (a, b) = (WorkloadId::new(0), WorkloadId::new(1));
        t.add_active_cycles(a, 400.0);
        t.add_active_cycles(b, 600.0);
        let mut s = Scheduler::new(Policy::Priority);
        // At equal priority, `a` is the more starved (lower active rate).
        assert_eq!(s.pick_next(&t, FuKind::Sa, Cycles::new(1_000.0)), Some(a));
        // Demote `a` 4x: its arp quadruples past `b`'s and the pick flips.
        t.set_priority(a, 0.25).unwrap();
        assert_eq!(s.pick_next(&t, FuKind::Sa, Cycles::new(1_000.0)), Some(b));
    }

    #[test]
    fn kind_mismatch_yields_none() {
        let t = ready_table(2, FuKind::Sa);
        let mut s = Scheduler::new(Policy::Priority);
        assert_eq!(s.pick_next(&t, FuKind::Vu, Cycles::new(0.0)), None);
    }

    #[test]
    fn priority_picks_most_starved() {
        let mut t = ready_table(3, FuKind::Vu);
        t.add_active_cycles(WorkloadId::new(0), 300.0);
        t.add_active_cycles(WorkloadId::new(1), 100.0);
        t.add_active_cycles(WorkloadId::new(2), 200.0);
        let mut s = Scheduler::new(Policy::Priority);
        assert_eq!(
            s.pick_next(&t, FuKind::Vu, Cycles::new(1_000.0)),
            Some(WorkloadId::new(1))
        );
    }

    #[test]
    fn priority_respects_configured_weights() {
        // Equal active time, but w1 has twice the priority: its arp is half
        // of w0's, so it is scheduled first.
        let mut t = ContextTable::new(&[1.0, 2.0]).unwrap();
        for id in [WorkloadId::new(0), WorkloadId::new(1)] {
            t.set_current_op(id, 0, FuKind::Sa).unwrap();
            t.set_ready(id, true).unwrap();
            t.add_active_cycles(id, 500.0);
        }
        let mut s = Scheduler::new(Policy::Priority);
        assert_eq!(
            s.pick_next(&t, FuKind::Sa, Cycles::new(1_000.0)),
            Some(WorkloadId::new(1))
        );
    }

    #[test]
    fn priority_ties_break_by_index() {
        let t = ready_table(2, FuKind::Sa);
        let mut s = Scheduler::new(Policy::Priority);
        assert_eq!(
            s.pick_next(&t, FuKind::Sa, Cycles::new(0.0)),
            Some(WorkloadId::new(0))
        );
    }

    #[test]
    fn preemption_preference_tracks_arp() {
        let mut t = ready_table(2, FuKind::Sa);
        t.add_active_cycles(WorkloadId::new(0), 900.0);
        t.add_active_cycles(WorkloadId::new(1), 100.0);
        let s = Scheduler::new(Policy::Priority);
        assert!(s.prefers_preemption(
            &t,
            WorkloadId::new(0),
            (WorkloadId::new(1), None),
            Cycles::new(1_000.0)
        ));
        assert!(!s.prefers_preemption(
            &t,
            WorkloadId::new(1),
            (WorkloadId::new(0), None),
            Cycles::new(1_000.0)
        ));
    }

    #[test]
    fn round_robin_never_preempts() {
        let mut t = ready_table(2, FuKind::Sa);
        t.add_active_cycles(WorkloadId::new(0), 900.0);
        let s = Scheduler::new(Policy::RoundRobin);
        assert!(!s.prefers_preemption(
            &t,
            WorkloadId::new(0),
            (WorkloadId::new(1), None),
            Cycles::new(1_000.0)
        ));
    }

    #[test]
    fn all_blocked_yields_none() {
        let mut t = ready_table(2, FuKind::Sa);
        t.set_ready(WorkloadId::new(0), false).unwrap();
        t.set_ready(WorkloadId::new(1), false).unwrap();
        let mut s = Scheduler::new(Policy::Priority);
        assert_eq!(s.pick_next(&t, FuKind::Sa, Cycles::new(0.0)), None);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use v10_sim::SimRng;

    /// Whatever the state, a picked workload always qualifies: not
    /// active, ready, right kind. Under the priority policy the pick also
    /// minimizes the priority-normalized active rate.
    #[test]
    fn picked_workload_qualifies() {
        let mut rng = SimRng::seed_from(0x50C1);
        for _ in 0..256 {
            let n = 1 + rng.index(8);
            let ready_mask = rng.next_u64() as u8;
            let kind_mask = rng.next_u64() as u8;
            let rr = rng.next_u64() & 1 == 0;
            let mut t = ContextTable::new(&vec![1.0; n]).unwrap();
            for (i, id) in t.ids().collect::<Vec<_>>().into_iter().enumerate() {
                let kind = if kind_mask & (1 << i) != 0 {
                    FuKind::Sa
                } else {
                    FuKind::Vu
                };
                t.set_current_op(id, i as u64, kind).unwrap();
                t.set_ready(id, ready_mask & (1 << i) != 0).unwrap();
                t.add_active_cycles(id, rng.uniform(0.0, 1e6));
            }
            let mut s = Scheduler::new(if rr {
                Policy::RoundRobin
            } else {
                Policy::Priority
            });
            for fu_type in [FuKind::Sa, FuKind::Vu] {
                if let Some(picked) = s.pick_next(&t, fu_type, Cycles::new(2e6)) {
                    assert!(t.is_ready(picked));
                    assert!(!t.is_active(picked));
                    assert_eq!(t.op_kind(picked), Some(fu_type));
                    // Priority: nothing qualifying has a strictly lower arp.
                    if !rr {
                        for other in t.ids() {
                            if t.is_ready(other)
                                && !t.is_active(other)
                                && t.op_kind(other) == Some(fu_type)
                            {
                                assert!(
                                    t.active_rate_p(picked, 2e6)
                                        <= t.active_rate_p(other, 2e6) + 1e-12
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
