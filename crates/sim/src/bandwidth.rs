//! Max-min fair (water-filling) bandwidth allocation.
//!
//! The NPU's off-chip HBM (330 GB/s per core in Table 5 of the paper) is
//! shared by every concurrently executing operator plus the DMA engine's
//! instruction prefetch. When aggregate demand exceeds capacity the paper's
//! simulator slows the contending flows down; we model that with the classic
//! max-min fair ("water-filling") allocation: capacity is divided equally,
//! flows that demand less than their fair share are fully satisfied, and the
//! freed capacity is re-divided among the remaining flows.

/// One flow of a water-filling allocation: its demand goes in, its grant
/// and slowdown factor come out of [`WaterFilling::fill`], in place.
///
/// A caller keeps one array of these and refills it only when its set of
/// demands changes, so the allocation copies nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// unit: requested rate in bytes/cycle.
    demand: f64,
    /// unit: granted rate in bytes/cycle.
    grant: f64,
    /// unit: dimensionless ratio `grant / demand` (1.0 for zero demand).
    factor: f64,
    unsatisfied: bool,
}

impl Flow {
    /// A flow demanding `demand`, not yet allocated.
    ///
    /// unit: `demand` is bytes per cycle.
    #[must_use]
    #[inline]
    pub fn new(demand: f64) -> Self {
        Flow {
            demand,
            grant: 0.0,
            factor: 1.0,
            unsatisfied: false,
        }
    }

    /// The requested rate.
    ///
    /// unit: bytes per cycle.
    #[must_use]
    #[inline]
    pub fn demand(&self) -> f64 {
        self.demand
    }

    /// Fraction of the demand the last [`WaterFilling::fill`] granted —
    /// the factor by which a memory-bound operator is slowed under
    /// contention. Zero-demand flows get `1.0` (they are not
    /// memory-limited).
    ///
    /// unit: dimensionless ratio in `[0, 1]`.
    #[must_use]
    #[inline]
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

/// Water-filling allocator over a fixed capacity.
///
/// # Example
///
/// ```
/// use v10_sim::{Flow, WaterFilling};
///
/// let hbm = WaterFilling::new(100.0); // 100 B/cycle capacity
/// // Three flows: one small, two large.
/// let mut flows = [Flow::new(10.0), Flow::new(80.0), Flow::new(80.0)];
/// hbm.fill(&mut flows);
/// // The small flow is fully satisfied; the rest is split evenly
/// // (45 of 80 B/cycle each).
/// assert_eq!(flows[0].factor(), 1.0);
/// assert_eq!(flows[1].factor(), 45.0 / 80.0);
/// assert_eq!(flows[2].factor(), 45.0 / 80.0);
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

    /// Computes the max-min fair allocation of `flows`' demands in place:
    /// each flow's grant, then its slowdown factor
    /// ([`Flow::factor`]). Invariants (exercised by property tests):
    ///
    /// * `granted <= demanded` for every flow;
    /// * `sum(granted) <= capacity` (up to f64 rounding);
    /// * if `sum(demanded) <= capacity`, every flow is fully satisfied;
    /// * otherwise `sum(granted) == capacity` and the allocation is max-min
    ///   fair: no flow can gain without a lesser-or-equal flow losing.
    ///
    /// Each round is one pass over the flows: it hands out the round's
    /// share and, in the same pass, counts the flows left unsatisfied and
    /// folds their smallest remaining deficit for the next round.
    ///
    /// # Panics
    ///
    /// Panics if any demand is negative, NaN, or infinite.
    #[inline]
    pub fn fill(&self, flows: &mut [Flow]) {
        let mut unsatisfied = 0usize;
        let mut min_deficit = f64::INFINITY;
        for f in flows.iter_mut() {
            assert!(
                f.demand.is_finite() && f.demand >= 0.0,
                "demand rates must be finite and non-negative, got {}",
                f.demand
            );
            f.grant = 0.0;
            f.unsatisfied = f.demand > 0.0;
            if f.unsatisfied {
                unsatisfied += 1;
                min_deficit = f64::min(min_deficit, f.demand - f.grant);
            }
        }
        let mut remaining_capacity = self.capacity;

        // Each round either satisfies at least one flow completely or
        // exhausts the capacity, so this terminates in <= n rounds.
        while unsatisfied > 0 && remaining_capacity > 0.0 {
            let fair_share = remaining_capacity / crate::convert::usize_to_f64(unsatisfied);
            let deficit_floor = min_deficit;
            unsatisfied = 0;
            min_deficit = f64::INFINITY;
            if deficit_floor >= fair_share {
                // Nobody is capped below the fair share: hand it out and stop.
                for f in flows.iter_mut().filter(|f| f.unsatisfied) {
                    f.grant += fair_share;
                }
                remaining_capacity = 0.0;
            } else {
                // Satisfy every flow whose remaining deficit fits in the fair
                // share, then redistribute.
                for f in flows.iter_mut().filter(|f| f.unsatisfied) {
                    let deficit = f.demand - f.grant;
                    if deficit <= deficit_floor + f64::EPSILON {
                        f.grant = f.demand;
                        remaining_capacity -= deficit;
                    } else {
                        f.grant += deficit_floor;
                        remaining_capacity -= deficit_floor;
                    }
                    f.unsatisfied = f.demand - f.grant > 1e-12;
                    if f.unsatisfied {
                        unsatisfied += 1;
                        min_deficit = f64::min(min_deficit, f.demand - f.grant);
                    }
                }
            }
        }
        for f in flows.iter_mut() {
            f.factor = if f.demand <= 0.0 {
                1.0
            } else {
                f.grant / f.demand
            };
        }
    }
}

/// A single flow's bandwidth demand, in bytes/cycle, with a caller-side
/// handle echoed back in the allocation: the input of the reference
/// allocator [`WaterFilling::allocate_into`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Demand {
    pub(crate) id: usize,
    pub(crate) rate: f64,
}

#[cfg(test)]
impl Demand {
    pub(crate) fn new(id: usize, rate: f64) -> Self {
        Demand { id, rate }
    }
}

/// One flow's working state during a round of the reference allocator.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct RefFlow {
    id: usize,
    rate: f64,
    grant: f64,
    unsatisfied: bool,
}

/// Working memory of the reference allocator.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocationScratch {
    flows: Vec<RefFlow>,
}

#[cfg(test)]
impl WaterFilling {
    /// [`fill`](Self::fill) over `demands`, as `(id, granted)` pairs in
    /// input order.
    pub(crate) fn allocate(&self, demands: &[Demand]) -> Vec<(usize, f64)> {
        let mut flows: Vec<Flow> = demands.iter().map(|d| Flow::new(d.rate)).collect();
        self.fill(&mut flows);
        demands
            .iter()
            .zip(&flows)
            .map(|(d, f)| (d.id, f.grant))
            .collect()
    }

    /// The reference allocator [`fill`](Self::fill) replaced: it copies the
    /// demands into `scratch`, writes `(id, granted)` pairs to `out`
    /// (cleared first), and scans the flows twice per round (count and
    /// minimum deficit, then the hand-out). `fill` must match it bit for
    /// bit.
    pub(crate) fn allocate_into(
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
        flows.extend(demands.iter().map(|d| RefFlow {
            id: d.id,
            rate: d.rate,
            grant: 0.0,
            unsatisfied: d.rate > 0.0,
        }));
        let mut remaining_capacity = self.capacity;
        loop {
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
                for f in flows.iter_mut().filter(|f| f.unsatisfied) {
                    f.grant += fair_share;
                }
                remaining_capacity = 0.0;
            } else {
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

    /// The reference slowdown factors: [`allocate_into`](Self::allocate_into)'s
    /// grants divided by their demands in a second pass (zero demand: 1.0).
    pub(crate) fn slowdown_factors_into(
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

    /// The one-array allocator equals the reference bit for bit, grants
    /// and slowdown factors both, over random sets of 0–4 flows that mix
    /// zero demands, repeated demands, demands within `2 * f64::EPSILON`
    /// of each other (deficits within the allocator's `f64::EPSILON` tie
    /// slack), zero capacity, and capacities exactly at the total demand.
    #[test]
    fn fill_matches_reference_bitwise() {
        let mut rng = SimRng::seed_from(0xF111_D1FF);
        let mut scratch = AllocationScratch::default();
        let (mut grants, mut factors) = (Vec::new(), Vec::new());
        for case in 0..20_000 {
            let n = rng.index(5);
            // Below 1 B/cycle an ulp is under `f64::EPSILON`, so near-equal
            // demands leave deficits within the allocator's tie slack.
            let scale = if rng.index(2) == 0 { 1.0 } else { 500.0 };
            let mut demands: Vec<Demand> = Vec::with_capacity(n);
            for i in 0..n {
                let rate = match rng.index(5) {
                    0 => 0.0,
                    1 if i > 0 => demands[rng.index(i)].rate,
                    2 if i > 0 => demands[rng.index(i)].rate + rng.uniform(0.0, 2.0 * f64::EPSILON),
                    _ => rng.uniform(0.0, scale),
                };
                demands.push(Demand::new(i, rate));
            }
            let total: f64 = demands.iter().map(|d| d.rate).sum();
            let cap = match rng.index(4) {
                0 => total,
                1 => 0.0,
                _ => rng.uniform(0.0, 1_000.0),
            };
            let w = WaterFilling::new(cap);
            w.allocate_into(&demands, &mut scratch, &mut grants);
            w.slowdown_factors_into(&demands, &mut scratch, &mut factors);
            let mut flows: Vec<Flow> = demands.iter().map(|d| Flow::new(d.rate)).collect();
            w.fill(&mut flows);
            for ((f, g), r) in flows.iter().zip(&grants).zip(&factors) {
                assert_eq!(
                    f.grant.to_bits(),
                    g.1.to_bits(),
                    "case {case}: grant diverged for {demands:?} at {cap}"
                );
                assert_eq!(
                    f.factor().to_bits(),
                    r.1.to_bits(),
                    "case {case}: factor diverged for {demands:?} at {cap}"
                );
            }
            // A refill of the same array (the engines reuse theirs) starts
            // from scratch and lands on the same answer.
            w.fill(&mut flows);
            for (f, g) in flows.iter().zip(&grants) {
                assert_eq!(
                    f.grant.to_bits(),
                    g.1.to_bits(),
                    "case {case}: refill diverged"
                );
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
