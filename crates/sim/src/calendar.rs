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
//! A caller that reschedules keys without ever popping them (PMT's
//! executor does, once per operator) would otherwise grow the heap by one
//! stale entry per reschedule. So the heap is bounded by the live set: a
//! reschedule to the deadline a key already holds pushes nothing, and
//! once the heap holds more than `2 × len + 64` entries it is compacted
//! to the live ones. Each compaction is paid for by the `len + 64` or
//! more stale entries pushed since the last, so `set` stays amortized
//! `O(log n)`.
//!
//! Determinism contract: the observable results — [`peek_min`] and
//! [`pop_due`] — depend only on the (key, deadline) *set*, never on
//! insertion order or internal heap layout. Deadlines are non-negative
//! finite floats, for which IEEE-754 bit order equals numeric order, so
//! the heap orders by `(deadline.to_bits(), key)` exactly: ties on the
//! deadline break toward the lowest key, and `pop_due` returns keys in
//! ascending key order (a caller that promotes in another order, as the
//! engine does in admission order, sorts the due set it gets back). The
//! module's property tests drive random schedules through the calendar
//! and a naive min-scan model side by side and demand bit-identical
//! answers; the engine repeats that differential check live under
//! `debug_assertions`.
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

/// Stale heap entries tolerated on top of twice the live count before
/// [`HorizonCalendar`] compacts its heap: small calendars never compact,
/// and every compaction is paid for by at least this many pushes.
const STALE_SLACK: usize = 64;

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
    /// finite deadlines [`set`](Self::set) admits. Never more than
    /// `2 × len + STALE_SLACK` entries.
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

    /// Schedules (or reschedules) `key` at `deadline`. Rescheduling a key
    /// to the deadline it already holds changes nothing.
    ///
    /// # Errors
    ///
    /// `deadline` must be finite and non-negative.
    #[inline]
    pub fn set(&mut self, key: usize, deadline: Cycles) -> V10Result<()> {
        let deadline = deadline.as_f64();
        if !deadline.is_finite() || deadline < 0.0 {
            return Err(V10Error::invalid(
                "HorizonCalendar::set",
                format!("deadline must be finite and non-negative, got {deadline}"),
            ));
        }
        if key >= self.deadline.len() {
            self.deadline.resize(key + 1, f64::INFINITY);
        }
        if let Some(slot) = self.deadline.get_mut(key) {
            if slot.to_bits() == deadline.to_bits() {
                return Ok(());
            }
            if slot.is_finite() {
                // Rescheduled: the old heap entry goes stale.
                self.len -= 1;
            }
            *slot = deadline;
        }
        self.heap.push(Reverse((deadline.to_bits(), key)));
        self.len += 1;
        self.bound_stale();
        Ok(())
    }

    /// Removes `key`'s deadline if one is pending. Returns whether an
    /// entry was removed. Amortized O(1): the heap entry goes stale and is
    /// discarded when it surfaces at the top or the heap is compacted.
    #[inline]
    pub fn clear(&mut self, key: usize) -> bool {
        let Some(slot) = self.deadline.get_mut(key) else {
            return false;
        };
        if !slot.is_finite() {
            return false;
        }
        *slot = f64::INFINITY;
        self.len -= 1;
        self.bound_stale();
        true
    }

    /// Compacts the heap once it holds more than `2 × len + STALE_SLACK`
    /// entries.
    #[inline]
    fn bound_stale(&mut self) {
        if self.heap.len() > 2 * self.len + STALE_SLACK {
            self.compact();
        }
    }

    /// Keeps only the heap's live entries: those whose deadline the table
    /// still holds, one per key.
    #[cold]
    fn compact(&mut self) {
        let deadline = &self.deadline;
        self.heap
            .retain(|&Reverse((bits, key))| deadline.get(key).is_some_and(|d| d.to_bits() == bits));
        if self.heap.len() > self.len {
            // A key cleared and re-set to the same deadline before its old
            // entry surfaced matches twice: drop the duplicates.
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.sort_unstable();
            entries.dedup();
            self.heap = BinaryHeap::from(entries);
        }
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
    #[inline]
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
    #[inline]
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
        cal.set(2, Cycles::new(75.0)).unwrap(); // no second heap entry
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.heap.len(), 1);
        assert_eq!(cal.peek_min(), Some((2, Cycles::new(75.0))));
        assert!(cal.clear(2));
        assert_eq!(cal.peek_min(), None);
        assert!(cal.is_empty());
    }

    /// Clearing a key and re-setting it to the same deadline revives the
    /// key's stale entry next to the new one: two live copies of one
    /// entry. Key 0 goes through that before each reschedule of key 1
    /// whenever its clear would not itself compact, so copies pile up
    /// while key 1's reschedules trigger the compactions. Each compaction
    /// must still leave exactly one entry per live key, so the next is
    /// again `len + STALE_SLACK` pushes away.
    #[test]
    fn compaction_leaves_one_entry_per_live_key() {
        let mut cal = HorizonCalendar::new();
        cal.set(0, Cycles::new(75.0)).unwrap();
        let mut compactions = 0;
        for t in 0..10_000u32 {
            if cal.heap.len() <= 2 * (cal.len() - 1) + STALE_SLACK {
                cal.clear(0);
                cal.set(0, Cycles::new(75.0)).unwrap();
            }
            let before = cal.heap.len();
            cal.set(1, Cycles::new(f64::from(t))).unwrap();
            if cal.heap.len() <= before {
                compactions += 1;
                assert_eq!(cal.heap.len(), cal.len(), "after compaction {compactions}");
            }
            assert!(cal.heap.len() <= 2 * cal.len() + STALE_SLACK);
        }
        assert!(compactions > 0);
        assert_eq!(cal.peek_min(), Some((0, Cycles::new(75.0))));
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
                    assert!(cal.heap.len() <= 2 * cal.len() + STALE_SLACK);
                }
            }
        }
    }

    /// PMT's pattern: every operator reschedules its tenancy's fetch, and
    /// nothing ever pops. Tenancies arrive under fresh keys and depart by
    /// `clear`; some keys are re-set to the deadline they hold, or cleared
    /// and re-set to it. The heap stays within `2 × len + STALE_SLACK`
    /// entries after every operation, and the calendar still answers as
    /// the naive scan.
    #[test]
    fn rescheduling_without_popping_keeps_the_heap_bounded() {
        let mut rng = SimRng::seed_from(0xB0DE);
        for round in 0..20 {
            let mut cal = HorizonCalendar::new();
            let mut model = NaiveModel::default();
            let mut live: Vec<usize> = Vec::new();
            let mut next_key = 0;
            let mut now = 0.0_f64;
            for _ in 0..4_000 {
                now += rng.uniform(0.0, 5_000.0);
                match rng.index(50) {
                    0 if live.len() < 8 => {
                        live.push(next_key);
                        cal.set(next_key, Cycles::new(now)).unwrap();
                        model.set(next_key, now);
                        next_key += 1;
                    }
                    1 if live.len() > 1 => {
                        let key = live.swap_remove(rng.index(live.len()));
                        assert!(cal.clear(key));
                        model.clear(key);
                    }
                    2..=4 if !live.is_empty() => {
                        let key = live[rng.index(live.len())];
                        let held = cal.deadline_of(key).unwrap();
                        if rng.index(2) == 0 {
                            cal.clear(key);
                        }
                        cal.set(key, held).unwrap();
                    }
                    _ if !live.is_empty() => {
                        let key = live[rng.index(live.len())];
                        cal.set(key, Cycles::new(now)).unwrap();
                        model.set(key, now);
                    }
                    _ => {}
                }
                assert_eq!(cal.len(), live.len(), "round {round}");
                assert!(
                    cal.heap.len() <= 2 * cal.len() + STALE_SLACK,
                    "round {round}: {} heap entries for {} live keys",
                    cal.heap.len(),
                    cal.len()
                );
            }
            let want = model.peek_min();
            assert_eq!(
                cal.peek_min().map(|(k, d)| (k, d.as_f64().to_bits())),
                want.map(|(k, d)| (k, d.to_bits())),
                "round {round}"
            );
            let mut due = Vec::new();
            cal.pop_due(Cycles::new(now), &mut due);
            assert_eq!(due, model.pop_due(now), "round {round}");
            assert!(cal.is_empty());
        }
    }
}
