//! Indexed next-event calendar for the engine step loops.
//!
//! The executors advance a piecewise-constant simulation by jumping the
//! clock to the earliest pending *horizon* — a DMA fetch completing, a
//! context-switch window closing, the next arrival. Historically each
//! `step()` rediscovered that horizon by min-scanning every tenancy ever
//! admitted, which makes long serving runs quadratic in session turnover.
//! [`HorizonCalendar`] replaces the scan: a lazy-deletion binary min-heap
//! over `(deadline, key)` pairs with a per-key deadline table as the
//! source of truth, supporting O(log n)-amortized insert/remove, an exact
//! minimum query, and batch removal of everything due at the current
//! clock. Stale heap entries (rescheduled or cleared keys) are discarded
//! when they surface at the top, so the steady-state step loop performs
//! no heap allocation and no full scans.
//!
//! Determinism contract: the observable results — [`peek_min`] and
//! [`pop_due`] — depend only on the (key, deadline) *set*, never on
//! insertion order or internal heap layout. Deadlines are non-negative
//! finite floats, for which IEEE-754 bit order equals numeric order, so
//! the heap orders by `(deadline.to_bits(), key)` exactly: ties on the
//! deadline break toward the lowest key, and `pop_due` returns keys in
//! ascending key order, matching the index-order scans the engines used
//! before. The module's property tests drive random schedules through
//! the calendar and a naive min-scan model side by side and demand
//! bit-identical answers; the engine repeats that differential check
//! live under `debug_assertions`.
//!
//! Deadlines are compared exactly (no epsilon) — the caller keeps
//! whatever `EPS`-slack semantics it had by choosing the thresholds it
//! passes to [`pop_due`], so the calendar itself never perturbs time
//! arithmetic.
//!
//! [`peek_min`]: HorizonCalendar::peek_min
//! [`pop_due`]: HorizonCalendar::pop_due

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::{V10Error, V10Result};
use crate::time::Cycles;

/// A next-event calendar over absolute [`Cycles`] deadlines with stable
/// `usize` keys (at most one deadline per key).
///
/// # Example
///
/// ```
/// use v10_sim::{Cycles, HorizonCalendar};
///
/// let mut cal = HorizonCalendar::new();
/// cal.set(3, Cycles::new(250.0)).unwrap();
/// cal.set(1, Cycles::new(250.0)).unwrap(); // same deadline: lowest key wins ties
/// cal.set(7, Cycles::new(90.0)).unwrap();
/// assert_eq!(cal.peek_min(), Some((7, Cycles::new(90.0))));
///
/// let mut due = Vec::new();
/// cal.pop_due(Cycles::new(260.0), &mut due);
/// assert_eq!(due, vec![1, 3, 7]); // ascending key order
/// assert!(cal.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HorizonCalendar {
    /// Per-key deadline; `INFINITY` marks an absent key. The heap holds
    /// candidates; this table decides which are live.
    deadline: Vec<f64>,
    /// Min-heap of `(deadline_bits, key)` candidates with lazy deletion:
    /// an entry is live iff the deadline table still holds its exact
    /// deadline. Bit order equals numeric order for the non-negative
    /// finite deadlines [`set`](Self::set) admits.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Live entry count.
    len: usize,
}

impl HorizonCalendar {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The deadline stored for `key`, if any.
    #[must_use]
    pub fn deadline_of(&self, key: usize) -> Option<Cycles> {
        self.deadline
            .get(key)
            .copied()
            .filter(|d| d.is_finite())
            .map(Cycles::new)
    }

    /// True when `key` has a pending deadline.
    #[must_use]
    pub fn contains(&self, key: usize) -> bool {
        self.deadline_of(key).is_some()
    }

    /// Schedules (or reschedules) `key` at `deadline`.
    ///
    /// # Errors
    ///
    /// `deadline` must be finite and non-negative.
    pub fn set(&mut self, key: usize, deadline: Cycles) -> V10Result<()> {
        let deadline = deadline.as_f64();
        if !deadline.is_finite() || deadline < 0.0 {
            return Err(V10Error::invalid(
                "HorizonCalendar::set",
                format!("deadline must be finite and non-negative, got {deadline}"),
            ));
        }
        self.clear(key);
        if key >= self.deadline.len() {
            self.deadline.resize(key + 1, f64::INFINITY);
        }
        if let Some(slot) = self.deadline.get_mut(key) {
            *slot = deadline;
        }
        self.heap.push(Reverse((deadline.to_bits(), key)));
        self.len += 1;
        Ok(())
    }

    /// Removes `key`'s deadline if one is pending. Returns whether an
    /// entry was removed. O(1): the heap entry goes stale and is
    /// discarded when it surfaces at the top.
    pub fn clear(&mut self, key: usize) -> bool {
        let Some(slot) = self.deadline.get_mut(key) else {
            return false;
        };
        if !slot.is_finite() {
            return false;
        }
        *slot = f64::INFINITY;
        self.len -= 1;
        true
    }

    /// Drops every entry (keys keep their capacity).
    pub fn reset(&mut self) {
        self.deadline.fill(f64::INFINITY);
        self.heap.clear();
        self.len = 0;
    }

    /// The earliest pending `(key, deadline)`, breaking deadline ties
    /// toward the lowest key; `None` when empty.
    ///
    /// Amortized O(log n): stale heap entries surfacing at the top are
    /// discarded here, each paid for once by the `set`/`clear` that
    /// staled it.
    pub fn peek_min(&mut self) -> Option<(usize, Cycles)> {
        if self.len == 0 {
            return None;
        }
        while let Some(&Reverse((bits, key))) = self.heap.peek() {
            let live = self
                .deadline
                .get(key)
                .is_some_and(|d| d.to_bits() == bits && d.is_finite());
            if live {
                return Some((key, Cycles::new(f64::from_bits(bits))));
            }
            self.heap.pop();
        }
        None
    }

    /// Removes every entry with `deadline <= threshold` and appends the
    /// keys to `out` in ascending key order. Returns how many entries
    /// were popped.
    pub fn pop_due(&mut self, threshold: Cycles, out: &mut Vec<usize>) -> usize {
        let start = out.len();
        while let Some((k, d)) = self.peek_min() {
            if d.as_f64() > threshold.as_f64() {
                break;
            }
            self.clear(k);
            out.push(k);
        }
        if let Some(due) = out.get_mut(start..) {
            due.sort_unstable();
        }
        out.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_deadlines() {
        // Non-finite values cannot be expressed as `Cycles` (its constructor
        // debug-asserts finiteness); negative ones still reach the error path.
        let mut cal = HorizonCalendar::new();
        assert!(cal.set(0, Cycles::new(-1.0)).is_err());
        assert!(cal.is_empty());
    }

    #[test]
    fn set_clear_peek_roundtrip() {
        let mut cal = HorizonCalendar::new();
        assert_eq!(cal.peek_min(), None);
        cal.set(5, Cycles::new(730.0)).unwrap();
        cal.set(2, Cycles::new(410.0)).unwrap();
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.peek_min(), Some((2, Cycles::new(410.0))));
        assert_eq!(cal.deadline_of(5), Some(Cycles::new(730.0)));
        assert!(cal.contains(5));
        assert!(!cal.contains(3));
        assert!(cal.clear(2));
        assert!(!cal.clear(2));
        assert_eq!(cal.peek_min(), Some((5, Cycles::new(730.0))));
        cal.reset();
        assert!(cal.is_empty());
        assert_eq!(cal.peek_min(), None);
    }

    #[test]
    fn reset_overwrites_a_pending_deadline() {
        let mut cal = HorizonCalendar::new();
        cal.set(1, Cycles::new(500.0)).unwrap();
        cal.set(1, Cycles::new(40.0)).unwrap(); // reschedule earlier; old entry goes stale
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_min(), Some((1, Cycles::new(40.0))));
    }

    #[test]
    fn ties_break_toward_the_lowest_key() {
        let mut cal = HorizonCalendar::new();
        cal.set(9, Cycles::new(300.0)).unwrap();
        cal.set(4, Cycles::new(300.0)).unwrap();
        cal.set(7, Cycles::new(300.0)).unwrap();
        assert_eq!(cal.peek_min(), Some((4, Cycles::new(300.0))));
    }

    #[test]
    fn far_future_horizons_are_exact() {
        let mut cal = HorizonCalendar::new();
        cal.set(3, Cycles::new(1.0e9)).unwrap();
        cal.set(8, Cycles::new(2.0e9)).unwrap();
        assert_eq!(cal.peek_min(), Some((3, Cycles::new(1.0e9))));
    }

    #[test]
    fn pop_due_returns_keys_in_ascending_key_order() {
        let mut cal = HorizonCalendar::new();
        cal.set(6, Cycles::new(120.0)).unwrap();
        cal.set(1, Cycles::new(180.0)).unwrap();
        cal.set(4, Cycles::new(50.0)).unwrap();
        cal.set(9, Cycles::new(900.0)).unwrap();
        let mut due = Vec::new();
        assert_eq!(cal.pop_due(Cycles::new(200.0), &mut due), 3);
        assert_eq!(due, vec![1, 4, 6]);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_min(), Some((9, Cycles::new(900.0))));
        // Threshold below everything: no-op.
        assert_eq!(cal.pop_due(Cycles::new(300.0), &mut due), 0);
        assert_eq!(due.len(), 3);
    }

    #[test]
    fn late_inserts_below_popped_thresholds_are_still_found() {
        let mut cal = HorizonCalendar::new();
        cal.set(0, Cycles::new(5_000.0)).unwrap();
        let mut due = Vec::new();
        cal.pop_due(Cycles::new(4_999.0), &mut due);
        assert!(due.is_empty());
        // Late insert below every threshold seen so far (engines never do
        // this, but the calendar must stay exact anyway).
        cal.set(1, Cycles::new(100.0)).unwrap();
        assert_eq!(cal.peek_min(), Some((1, Cycles::new(100.0))));
    }

    #[test]
    fn rescheduling_to_the_same_deadline_stays_consistent() {
        let mut cal = HorizonCalendar::new();
        cal.set(2, Cycles::new(75.0)).unwrap();
        cal.set(2, Cycles::new(75.0)).unwrap(); // duplicate heap entries, one live key
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_min(), Some((2, Cycles::new(75.0))));
        assert!(cal.clear(2));
        assert_eq!(cal.peek_min(), None);
        assert!(cal.is_empty());
    }
}

#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::convert::f64_to_u64;
    use crate::rng::SimRng;

    /// A naive model: the (key, deadline) pairs in a plain vector, min by
    /// exact (deadline, key) scan — the semantics the engine's historical
    /// min-scan had.
    #[derive(Default)]
    struct NaiveModel {
        entries: Vec<(usize, f64)>,
    }

    impl NaiveModel {
        fn set(&mut self, key: usize, d: f64) {
            self.clear(key);
            self.entries.push((key, d));
        }
        fn clear(&mut self, key: usize) {
            self.entries.retain(|&(k, _)| k != key);
        }
        fn peek_min(&self) -> Option<(usize, f64)> {
            self.entries
                .iter()
                .copied()
                .min_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).expect("finite"))
        }
        fn pop_due(&mut self, threshold: f64) -> Vec<usize> {
            let mut due: Vec<usize> = self
                .entries
                .iter()
                .filter(|&&(_, d)| d <= threshold)
                .map(|&(k, _)| k)
                .collect();
            due.sort_unstable();
            self.entries.retain(|&(_, d)| d > threshold);
            due
        }
    }

    /// Random schedules of set/clear/pop/peek agree with the naive scan,
    /// bit for bit, across deadline scales spanning four orders of
    /// magnitude.
    #[test]
    fn calendar_matches_naive_min_scan_on_random_schedules() {
        for &scale in &[0.5, 10.0, 1_000.0, 250_000.0] {
            let mut rng = SimRng::seed_from(0xCA1E ^ f64_to_u64(scale * 8.0));
            for round in 0..60 {
                let mut cal = HorizonCalendar::new();
                let mut model = NaiveModel::default();
                let mut now = 0.0_f64;
                let keys = 1 + rng.index(40);
                for _ in 0..400 {
                    match rng.index(10) {
                        // Schedule: deadlines at or after `now`, spread so
                        // some land far in the future.
                        0..=5 => {
                            let key = rng.index(keys);
                            let d = now + rng.uniform(0.0, scale * 300.0);
                            cal.set(key, Cycles::new(d)).unwrap();
                            model.set(key, d);
                        }
                        6 => {
                            let key = rng.index(keys);
                            assert_eq!(cal.clear(key), {
                                let had = model.entries.iter().any(|&(k, _)| k == key);
                                model.clear(key);
                                had
                            });
                        }
                        7..=8 => {
                            // Advance the clock and pop everything due.
                            now += rng.uniform(0.0, scale * 40.0);
                            let mut due = Vec::new();
                            cal.pop_due(Cycles::new(now), &mut due);
                            assert_eq!(due, model.pop_due(now), "round {round}");
                        }
                        _ => {
                            let got = cal.peek_min();
                            let want = model.peek_min();
                            match (got, want) {
                                (None, None) => {}
                                (Some((gk, gd)), Some((wk, wd))) => {
                                    assert_eq!(gk, wk, "round {round}");
                                    assert_eq!(
                                        gd.as_f64().to_bits(),
                                        wd.to_bits(),
                                        "round {round}"
                                    );
                                }
                                other => panic!("round {round}: {other:?}"),
                            }
                        }
                    }
                    assert_eq!(cal.len(), model.entries.len());
                }
            }
        }
    }
}
