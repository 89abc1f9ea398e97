//! Deterministic discrete-event queue.
//!
//! The NPU performance model is event-driven: the engine repeatedly pops the
//! earliest pending event (operator completion, DMA ready, preemption-timer
//! tick, …) and advances the simulated clock to it. Determinism matters —
//! every experiment must reproduce exactly from a seed — so events scheduled
//! for the same cycle are delivered in FIFO insertion order rather than in
//! the arbitrary order a plain binary heap would give.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// A min-heap of timestamped events with stable FIFO ordering for ties.
///
/// # Example
///
/// ```
/// use v10_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(20), "b");
/// q.push(Cycle::new(10), "a");
/// q.push(Cycle::new(20), "c"); // same cycle as "b": FIFO order preserved
///
/// assert_eq!(q.pop(), Some((Cycle::new(10), "a")));
/// assert_eq!(q.pop(), Some((Cycle::new(20), "b")));
/// assert_eq!(q.pop(), Some((Cycle::new(20), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse both keys for min-heap behaviour
        // with FIFO tie-breaking on the insertion sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// Events may be scheduled in the past of the engine's clock; ordering is
    /// the queue's only concern.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties are broken in insertion order.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(Cycle, E)> for EventQueue<E> {
    fn extend<T: IntoIterator<Item = (Cycle, E)>>(&mut self, iter: T) {
        for (at, e) in iter {
            self.push(at, e);
        }
    }
}

impl<E> FromIterator<(Cycle, E)> for EventQueue<E> {
    fn from_iter<T: IntoIterator<Item = (Cycle, E)>>(iter: T) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q: EventQueue<u8> = (0..10).map(|i| (Cycle::new(i), i as u8)).collect();
        assert_eq!(q.len(), 10);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn extend_and_collect() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.extend([(Cycle::new(2), "late"), (Cycle::new(1), "early")]);
        assert_eq!(q.pop().unwrap().1, "early");
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use crate::rng::SimRng;

    /// Popping yields events sorted by time, and FIFO within equal times.
    #[test]
    fn pop_order_is_stable_sort() {
        let mut rng = SimRng::seed_from(0xE7E7);
        for _ in 0..100 {
            let n = rng.index(201);
            let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 50)).collect();
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Cycle::new(*t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
            expected.sort(); // stable key: (time, insertion index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_u64(), i))).collect();
            assert_eq!(got, expected);
        }
    }
}
