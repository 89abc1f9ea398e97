//! Deterministic cross-shard merge primitives.
//!
//! A sharded fleet simulation partitions its cores into fixed,
//! contiguous ownership ranges ([`ShardMap`]) and advances in epochs of
//! simulated time ([`EpochClock`]). Shards only exchange state at epoch
//! boundaries, as simulated-time-stamped messages ([`DepartureMsg`]), and
//! the coordinator consumes them through [`merge_messages`] — a total
//! order on `(time, core, interned label)` that is independent of how
//! many shards produced the streams or which thread finished first. This
//! is the byte-identical parallel-sweep recipe (input-order scatter-back
//! plus a deterministic reduce) applied *inside* one run: an N-shard
//! execution replays the exact event sequence of the 1-shard execution.
//! [`parallel_map_with`] is the recipe itself: the thread fan-out behind
//! both the fleet plane's per-core re-simulations and the benches'
//! parameter sweeps.
//!
//! Everything here is deterministic: no clocks, no hashing, no ambient
//! randomness (v10-lint D1/D2), and no panic paths of its own (P1) — a
//! worker panic in [`parallel_map_with`] is the caller's, re-raised as is.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::convert::f64_to_u64;
use crate::error::{V10Error, V10Result};
use crate::intern::LabelId;
use crate::time::Cycles;

/// Fixed, balanced, contiguous assignment of `cores` cores to `shards`
/// shards. The first `cores % shards` shards own one extra core, so
/// ownership is a pure function of the pair — every run with the same
/// geometry partitions identically.
///
/// # Example
///
/// ```
/// use v10_sim::shard::ShardMap;
///
/// let map = ShardMap::new(10, 4).expect("valid partition");
/// assert_eq!(map.range(0), 0..3); // 10 = 3+3+2+2
/// assert_eq!(map.range(2), 6..8);
/// assert_eq!(map.owner(7).expect("core in range"), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    cores: usize,
    shards: usize,
}

impl ShardMap {
    /// A partition of `cores` cores into `shards` contiguous ranges.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if either count is zero or
    /// there are more shards than cores (an empty shard owns nothing and
    /// indicates a misconfigured plane).
    pub fn new(cores: usize, shards: usize) -> V10Result<Self> {
        if cores == 0 {
            return Err(V10Error::invalid(
                "ShardMap::new",
                "a fleet needs at least one core",
            ));
        }
        if shards == 0 {
            return Err(V10Error::invalid(
                "ShardMap::new",
                "a fleet needs at least one shard",
            ));
        }
        if shards > cores {
            return Err(V10Error::invalid(
                "ShardMap::new",
                format!("{shards} shards cannot each own a core of a {cores}-core fleet"),
            ));
        }
        Ok(ShardMap { cores, shards })
    }

    /// Number of cores partitioned.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The half-open core range owned by `shard`. Empty when `shard` is
    /// out of range (no shard owns an empty range by construction).
    #[must_use]
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        if shard >= self.shards {
            return 0..0;
        }
        let base = self.cores / self.shards;
        let extra = self.cores % self.shards;
        let big = base + 1;
        if shard < extra {
            shard * big..shard * big + big
        } else {
            let start = extra * big + (shard - extra) * base;
            start..start + base
        }
    }

    /// The shard owning `core`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range.
    pub fn owner(&self, core: usize) -> V10Result<usize> {
        if core >= self.cores {
            return Err(V10Error::invalid(
                "ShardMap::owner",
                format!("core {core} out of range for a {}-core fleet", self.cores),
            ));
        }
        let base = self.cores / self.shards;
        let extra = self.cores % self.shards;
        let big = base + 1;
        if core < extra * big {
            Ok(core / big)
        } else {
            // base > 0 here: shards <= cores guarantees it.
            Ok(extra + (core - extra * big) / base)
        }
    }
}

/// Applies `f` to every item on a pool of `threads` scoped threads and
/// returns the results in input order.
///
/// Items are claimed dynamically from a shared atomic cursor (so a slow
/// item never stalls the rest of the batch); each thread keeps its
/// `(index, result)` pairs privately and the results are scattered back
/// into input order after the scope joins. The output is therefore
/// independent of thread count and scheduling. With one thread (or one
/// item) this is an ordinary sequential loop. A panic in `f` is re-raised
/// on the calling thread with its original payload.
///
/// # Example
///
/// ```
/// use v10_sim::parallel_map_with;
///
/// let squares = parallel_map_with(3, &[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Fixed-width epochs over simulated time. Epoch `e` covers
/// `[e * epoch_cycles, (e + 1) * epoch_cycles)`; shard state is only
/// exchanged at the boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochClock {
    epoch_cycles: f64,
}

impl EpochClock {
    /// An epoch clock with `epoch_cycles` of simulated time per epoch.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `epoch_cycles` is
    /// positive and finite.
    pub fn new(epoch_cycles: Cycles) -> V10Result<Self> {
        let epoch_cycles = epoch_cycles.as_f64();
        if !(epoch_cycles.is_finite() && epoch_cycles > 0.0) {
            return Err(V10Error::invalid(
                "EpochClock::new",
                format!("epoch length must be positive and finite, got {epoch_cycles}"),
            ));
        }
        Ok(EpochClock { epoch_cycles })
    }

    /// Simulated time per epoch.
    #[must_use]
    pub fn epoch_cycles(&self) -> Cycles {
        Cycles::new(self.epoch_cycles)
    }

    /// The epoch containing simulated time `at_cycles` (negative times
    /// clamp to epoch 0).
    #[must_use]
    pub fn epoch_of(&self, at_cycles: Cycles) -> u64 {
        f64_to_u64((at_cycles.as_f64() / self.epoch_cycles).floor())
    }

    /// Start of `epoch` in simulated time.
    /// unit: `epoch` is an epoch ordinal (dimensionless index).
    #[must_use]
    pub fn start_of(&self, epoch: u64) -> Cycles {
        Cycles::new(crate::convert::u64_to_f64(epoch) * self.epoch_cycles)
    }
}

/// One tenant departure crossing a shard boundary: the owning shard
/// reports that the tenant with interned label `label` retired from
/// `core` at simulated time `at_cycles`, so the coordinator can recycle
/// its context-table slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepartureMsg {
    /// Simulated retirement time.
    pub at_cycles: Cycles,
    /// The core the tenant departed from.
    pub core: usize,
    /// The tenant's interned label — the deterministic tie-break for
    /// simultaneous departures from the same core.
    pub label: LabelId,
}

/// Merges per-shard message streams into one simulated-time-ordered
/// stream: ascending `(at_cycles, core, label)` with `f64::total_cmp`
/// time ordering. Shards partition cores, so the `core` tie-break also
/// fixes the order between messages from different shards; the result is
/// byte-identical whatever the shard count or production order.
#[must_use]
pub fn merge_messages(streams: Vec<Vec<DepartureMsg>>) -> Vec<DepartureMsg> {
    let mut merged: Vec<DepartureMsg> = streams.into_iter().flatten().collect();
    merged.sort_by(|a, b| {
        a.at_cycles
            .total_cmp(&b.at_cycles)
            .then(a.core.cmp(&b.core))
            .then(a.label.cmp(&b.label))
    });
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = items.iter().map(|&i| i * i).collect();
        for threads in [1, 2, 8, 64] {
            assert_eq!(parallel_map_with(threads, &items, |&i| i * i), want);
        }
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn parallel_map_re_raises_a_worker_panic() {
        let items: Vec<usize> = (0..8).collect();
        parallel_map_with(4, &items, |&i| assert!(i != 5, "item {i}"));
    }

    #[test]
    fn shard_ranges_partition_the_cores() {
        for cores in [1usize, 2, 7, 10, 64, 1000] {
            for shards in [1usize, 2, 3, 4, 8] {
                if shards > cores {
                    assert!(ShardMap::new(cores, shards).is_err());
                    continue;
                }
                let map = ShardMap::new(cores, shards).unwrap();
                let mut seen = 0;
                for s in 0..shards {
                    let r = map.range(s);
                    assert_eq!(r.start, seen, "ranges are contiguous");
                    assert!(!r.is_empty(), "no shard owns nothing");
                    for core in r.clone() {
                        assert_eq!(map.owner(core).unwrap(), s);
                    }
                    seen = r.end;
                }
                assert_eq!(seen, cores, "ranges cover every core");
                assert!(map.owner(cores).is_err());
                assert_eq!(map.range(shards), 0..0);
            }
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let map = ShardMap::new(10, 3).unwrap();
        let sizes: Vec<usize> = (0..3).map(|s| map.range(s).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn degenerate_maps_rejected() {
        assert!(ShardMap::new(0, 1).is_err());
        assert!(ShardMap::new(4, 0).is_err());
        assert!(ShardMap::new(3, 4).is_err());
    }

    #[test]
    fn epoch_clock_boundaries() {
        let clock = EpochClock::new(Cycles::new(1000.0)).unwrap();
        assert_eq!(clock.epoch_cycles(), Cycles::new(1000.0));
        assert_eq!(clock.epoch_of(Cycles::new(0.0)), 0);
        assert_eq!(clock.epoch_of(Cycles::new(999.9)), 0);
        assert_eq!(clock.epoch_of(Cycles::new(1000.0)), 1);
        assert_eq!(clock.epoch_of(Cycles::new(2500.0)), 2);
        assert_eq!(clock.start_of(3), Cycles::new(3000.0));
        // Non-finite lengths cannot be expressed as `Cycles`; zero and
        // negative still reach the error path.
        assert!(EpochClock::new(Cycles::new(0.0)).is_err());
        assert!(EpochClock::new(Cycles::new(-1.0)).is_err());
    }

    #[test]
    fn merge_orders_by_time_then_core_then_label() {
        let a = vec![
            DepartureMsg {
                at_cycles: Cycles::new(10.0),
                core: 3,
                label: 7,
            },
            DepartureMsg {
                at_cycles: Cycles::new(5.0),
                core: 1,
                label: 2,
            },
        ];
        let b = vec![
            DepartureMsg {
                at_cycles: Cycles::new(10.0),
                core: 2,
                label: 9,
            },
            DepartureMsg {
                at_cycles: Cycles::new(10.0),
                core: 3,
                label: 1,
            },
            DepartureMsg {
                at_cycles: Cycles::new(5.0),
                core: 0,
                label: 4,
            },
        ];
        let merged = merge_messages(vec![a, b]);
        let keys: Vec<(f64, usize, u32)> = merged
            .iter()
            .map(|m| (m.at_cycles.as_f64(), m.core, m.label))
            .collect();
        assert_eq!(
            keys,
            vec![
                (5.0, 0, 4),
                (5.0, 1, 2),
                (10.0, 2, 9),
                (10.0, 3, 1),
                (10.0, 3, 7),
            ]
        );
    }

    #[test]
    fn merge_is_shard_layout_independent() {
        // The same messages split differently across streams merge to the
        // same sequence.
        let msgs: Vec<DepartureMsg> = (0..20usize)
            .map(|i| DepartureMsg {
                at_cycles: Cycles::new(f64::from(u32::try_from(i % 5).unwrap())),
                core: (17 * i + 3) % 8,
                label: u32::try_from(i * 13 % 6).unwrap(),
            })
            .collect();
        let one = merge_messages(vec![msgs.clone()]);
        let split: Vec<Vec<DepartureMsg>> = (0..4)
            .map(|s| {
                msgs.iter()
                    .copied()
                    .filter(|m| m.core % 4 == s)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(merge_messages(split), one);
    }
}
