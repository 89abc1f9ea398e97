//! Max-min fair (water-filling) bandwidth allocation.
//!
//! The NPU's off-chip HBM (330 GB/s per core in Table 5 of the paper) is
//! shared by every concurrently executing operator plus the DMA engine's
//! instruction prefetch. When aggregate demand exceeds capacity the paper's
//! simulator slows the contending flows down; we model that with the classic
//! max-min fair ("water-filling") allocation: capacity is divided equally,
//! flows that demand less than their fair share are fully satisfied, and the
//! freed capacity is re-divided among the remaining flows.

/// A single flow's bandwidth demand, in bytes/cycle.
///
/// `id` is an opaque caller-side handle used to match allocations back to
/// flows (operator index, DMA channel, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Caller-side flow identifier, echoed back in the allocation.
    pub id: usize,
    /// unit: requested rate in bytes/cycle. Must be finite and non-negative.
    pub rate: f64,
}

impl Demand {
    /// unit: `rate` is bytes per cycle.
    /// Convenience constructor.
    #[must_use]
    pub fn new(id: usize, rate: f64) -> Self {
        Demand { id, rate }
    }
}

/// One flow's working state during a water-filling round.
#[derive(Debug, Clone, Copy)]
struct Flow {
    id: usize,
    rate: f64,
    grant: f64,
    unsatisfied: bool,
}

/// Reusable working memory for the allocation-free `*_into` queries.
///
/// The engines call the allocator every simulation step; routing those
/// calls through one scratch instance means the steady state performs no
/// heap allocation at all (the internal vector is cleared, not dropped).
#[derive(Debug, Clone, Default)]
pub struct AllocationScratch {
    flows: Vec<Flow>,
}

/// Water-filling allocator over a fixed capacity.
///
/// # Example
///
/// ```
/// use v10_sim::{Demand, WaterFilling};
///
/// let hbm = WaterFilling::new(100.0); // 100 B/cycle capacity
/// // Three flows: one small, two large.
/// let alloc = hbm.allocate(&[
///     Demand::new(0, 10.0),
///     Demand::new(1, 80.0),
///     Demand::new(2, 80.0),
/// ]);
/// // The small flow is fully satisfied; the rest is split evenly.
/// assert_eq!(alloc[0], (0, 10.0));
/// assert_eq!(alloc[1], (1, 45.0));
/// assert_eq!(alloc[2], (2, 45.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterFilling {
    capacity: f64,
}

impl WaterFilling {
    /// Creates an allocator with the given capacity (bytes/cycle).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite or is negative.
    /// unit: `capacity` is bytes per cycle.
    #[must_use]
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "capacity must be finite and non-negative, got {capacity}"
        );
        WaterFilling { capacity }
    }

    /// Returns the total capacity.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Computes the max-min fair allocation for `demands`.
    ///
    /// Returns `(id, granted_rate)` pairs in the same order as the input.
    /// Invariants (exercised by property tests):
    ///
    /// * `granted <= demanded` for every flow;
    /// * `sum(granted) <= capacity` (up to f64 rounding);
    /// * if `sum(demanded) <= capacity`, every flow is fully satisfied;
    /// * otherwise `sum(granted) == capacity` and the allocation is max-min
    ///   fair: no flow can gain without a lesser-or-equal flow losing.
    ///
    /// # Panics
    ///
    /// Panics if any demand is negative, NaN, or infinite.
    #[must_use]
    pub fn allocate(&self, demands: &[Demand]) -> Vec<(usize, f64)> {
        let mut scratch = AllocationScratch::default();
        let mut out = Vec::with_capacity(demands.len());
        self.allocate_into(demands, &mut scratch, &mut out);
        out
    }

    /// [`allocate`](WaterFilling::allocate) without heap allocation:
    /// working state lives in `scratch` and the `(id, granted)` pairs are
    /// written to `out` (cleared first). The numerical result is identical
    /// to `allocate` — same operations in the same order.
    ///
    /// # Panics
    ///
    /// Panics if any demand is negative, NaN, or infinite.
    pub fn allocate_into(
        &self,
        demands: &[Demand],
        scratch: &mut AllocationScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        for d in demands {
            assert!(
                d.rate.is_finite() && d.rate >= 0.0,
                "demand rates must be finite and non-negative, got {} for id {}",
                d.rate,
                d.id
            );
        }
        let flows = &mut scratch.flows;
        flows.clear();
        flows.extend(demands.iter().map(|d| Flow {
            id: d.id,
            rate: d.rate,
            grant: 0.0,
            unsatisfied: d.rate > 0.0,
        }));
        let mut remaining_capacity = self.capacity;

        // Each round either satisfies at least one flow completely or
        // exhausts the capacity, so this terminates in <= n rounds.
        loop {
            // One fused pass per round: the unsatisfied count and the
            // minimum remaining deficit (the same `f64::min` fold over the
            // same filtered sequence the two-pass version ran).
            let mut unsatisfied = 0usize;
            let mut min_deficit = f64::INFINITY;
            for f in flows.iter().filter(|f| f.unsatisfied) {
                unsatisfied += 1;
                min_deficit = f64::min(min_deficit, f.rate - f.grant);
            }
            if unsatisfied == 0 || remaining_capacity <= 0.0 {
                break;
            }
            let fair_share = remaining_capacity / crate::convert::usize_to_f64(unsatisfied);

            if min_deficit >= fair_share {
                // Nobody is capped below the fair share: hand it out and stop.
                for f in flows.iter_mut().filter(|f| f.unsatisfied) {
                    f.grant += fair_share;
                }
                remaining_capacity = 0.0;
            } else {
                // Satisfy every flow whose remaining deficit fits in the fair
                // share, then redistribute.
                for f in flows.iter_mut().filter(|f| f.unsatisfied) {
                    let deficit = f.rate - f.grant;
                    if deficit <= min_deficit + f64::EPSILON {
                        f.grant = f.rate;
                        remaining_capacity -= deficit;
                    } else {
                        f.grant += min_deficit;
                        remaining_capacity -= min_deficit;
                    }
                    f.unsatisfied = f.rate - f.grant > 1e-12;
                }
            }
        }
        out.clear();
        out.extend(flows.iter().map(|f| (f.id, f.grant)));
    }

    /// Fraction of each flow's demand that was granted, i.e. the factor by
    /// which a memory-bound operator is slowed under contention. Flows with
    /// zero demand get factor `1.0` (they are not memory-limited). Performs
    /// no heap allocation beyond `scratch`; results are written to `out`
    /// (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if any demand is negative, NaN, or infinite.
    pub fn slowdown_factors_into(
        &self,
        demands: &[Demand],
        scratch: &mut AllocationScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        self.allocate_into(demands, scratch, out);
        for (granted, d) in out.iter_mut().zip(demands) {
            granted.1 = if d.rate <= 0.0 {
                1.0
            } else {
                granted.1 / d.rate
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(alloc: &[(usize, f64)]) -> f64 {
        alloc.iter().map(|&(_, g)| g).sum()
    }

    #[test]
    fn under_subscription_grants_everything() {
        let w = WaterFilling::new(100.0);
        let alloc = w.allocate(&[Demand::new(0, 30.0), Demand::new(1, 40.0)]);
        assert_eq!(alloc, vec![(0, 30.0), (1, 40.0)]);
    }

    #[test]
    fn over_subscription_splits_evenly() {
        let w = WaterFilling::new(100.0);
        let alloc = w.allocate(&[Demand::new(7, 200.0), Demand::new(9, 200.0)]);
        assert_eq!(alloc, vec![(7, 50.0), (9, 50.0)]);
    }

    #[test]
    fn small_flows_fully_satisfied_before_large() {
        let w = WaterFilling::new(90.0);
        let alloc = w.allocate(&[
            Demand::new(0, 10.0),
            Demand::new(1, 100.0),
            Demand::new(2, 100.0),
        ]);
        assert!((alloc[0].1 - 10.0).abs() < 1e-9);
        assert!((alloc[1].1 - 40.0).abs() < 1e-9);
        assert!((alloc[2].1 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_flows_get_zero() {
        let w = WaterFilling::new(10.0);
        let alloc = w.allocate(&[Demand::new(0, 0.0), Demand::new(1, 25.0)]);
        assert_eq!(alloc[0], (0, 0.0));
        assert!((alloc[1].1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_demand_list_is_ok() {
        let w = WaterFilling::new(10.0);
        assert!(w.allocate(&[]).is_empty());
    }

    #[test]
    fn zero_capacity_grants_nothing() {
        let w = WaterFilling::new(0.0);
        let alloc = w.allocate(&[Demand::new(0, 5.0)]);
        assert_eq!(total(&alloc), 0.0);
    }

    fn slowdown_factors(w: &WaterFilling, demands: &[Demand]) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        w.slowdown_factors_into(demands, &mut AllocationScratch::default(), &mut out);
        out
    }

    #[test]
    fn slowdown_factors_are_one_when_uncontended() {
        let w = WaterFilling::new(471.0); // ~HBM at 700 MHz
        let f = slowdown_factors(&w, &[Demand::new(0, 100.0), Demand::new(1, 0.0)]);
        assert_eq!(f, vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn slowdown_factors_scale_under_contention() {
        let w = WaterFilling::new(100.0);
        let f = slowdown_factors(&w, &[Demand::new(0, 100.0), Demand::new(1, 100.0)]);
        assert!((f[0].1 - 0.5).abs() < 1e-9);
        assert!((f[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_rejected() {
        let _ = WaterFilling::new(1.0).allocate(&[Demand::new(0, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn nan_capacity_rejected() {
        let _ = WaterFilling::new(f64::NAN);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use crate::rng::SimRng;

    fn random_demands(rng: &mut SimRng) -> Vec<Demand> {
        let n = rng.index(21);
        (0..n)
            .map(|i| Demand::new(i, rng.uniform(0.0, 500.0)))
            .collect()
    }

    /// Grants never exceed demand and the total never exceeds capacity.
    #[test]
    fn feasibility() {
        let mut rng = SimRng::seed_from(0xFEA5);
        for _ in 0..200 {
            let cap = rng.uniform(0.0, 1000.0);
            let demands = random_demands(&mut rng);
            let w = WaterFilling::new(cap);
            let alloc = w.allocate(&demands);
            let mut sum = 0.0;
            for ((id, g), d) in alloc.iter().zip(&demands) {
                assert_eq!(*id, d.id);
                assert!(*g <= d.rate + 1e-9);
                assert!(*g >= -1e-12);
                sum += g;
            }
            assert!(sum <= cap + 1e-6);
        }
    }

    /// When total demand fits, everyone is fully satisfied; otherwise the
    /// capacity is fully used.
    #[test]
    fn work_conserving() {
        let mut rng = SimRng::seed_from(0x3057);
        for _ in 0..200 {
            let cap = rng.uniform(1.0, 1000.0);
            let demands = random_demands(&mut rng);
            let w = WaterFilling::new(cap);
            let alloc = w.allocate(&demands);
            let demand_sum: f64 = demands.iter().map(|d| d.rate).sum();
            let grant_sum: f64 = alloc.iter().map(|&(_, g)| g).sum();
            if demand_sum <= cap {
                assert!((grant_sum - demand_sum).abs() < 1e-6);
            } else {
                assert!((grant_sum - cap).abs() < 1e-6);
            }
        }
    }

    /// Max-min fairness: all unsatisfied flows receive the same grant
    /// (the water level), and no satisfied flow exceeds it.
    #[test]
    fn max_min_water_level() {
        let mut rng = SimRng::seed_from(0x1EE7);
        for _ in 0..200 {
            let cap = rng.uniform(1.0, 1000.0);
            let demands = random_demands(&mut rng);
            let w = WaterFilling::new(cap);
            let alloc = w.allocate(&demands);
            let unsat: Vec<f64> = alloc
                .iter()
                .zip(&demands)
                .filter(|((_, g), d)| *g < d.rate - 1e-9)
                .map(|((_, g), _)| *g)
                .collect();
            if let Some(&level) = unsat.first() {
                for g in &unsat {
                    assert!(
                        (g - level).abs() < 1e-6,
                        "unsatisfied flows unequal: {g} vs {level}"
                    );
                }
                for ((_, g), d) in alloc.iter().zip(&demands) {
                    if *g >= d.rate - 1e-9 {
                        assert!(*g <= level + 1e-6, "satisfied flow above water level");
                    }
                }
            }
        }
    }
}
