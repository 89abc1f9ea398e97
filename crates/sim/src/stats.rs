//! Exact latency statistics for metric collection.
//!
//! The evaluation reports averages (Fig. 19) and 95th-percentile tails
//! (Fig. 20). [`LatencySummary`] computes both, plus the p50/p99/max every
//! serving experiment reports, from exact samples: linear interpolation
//! between order statistics, no sketch error.

use crate::convert::{f64_to_usize, usize_to_f64};

/// Exact quantiles over a sorted copy of the samples.
///
/// Request counts per experiment are small (hundreds to thousands), so
/// exact quantiles are affordable and avoid sketch error in the
/// tail-latency numbers (Fig. 20).
struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Sorts a copy of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    fn new(samples: &[f64]) -> Self {
        assert!(
            !samples.iter().any(|x| x.is_nan()),
            "NaN sample in a latency summary"
        );
        let mut sorted = samples.to_vec();
        // No NaN (checked above); total_cmp agrees with partial_cmp on
        // everything else and cannot panic.
        sorted.sort_by(f64::total_cmp);
        Percentiles { sorted }
    }

    /// The q-quantile (0 ≤ q ≤ 1) with linear interpolation between order
    /// statistics, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        let n = self.sorted.len();
        if n <= 1 {
            return self.sorted.first().copied();
        }
        let pos = q * usize_to_f64(n - 1);
        let lo = f64_to_usize(pos.floor());
        let hi = f64_to_usize(pos.ceil());
        let frac = pos - usize_to_f64(lo);
        let a = self.sorted.get(lo).copied()?;
        let b = self.sorted.get(hi).copied().unwrap_or(a);
        Some(a * (1.0 - frac) + b * frac)
    }
}

/// One-shot summary of a latency sample set: count, mean, and the p50 /
/// p95 / p99 order statistics every serving experiment reports.
///
/// All quantiles interpolate linearly between order statistics, so every
/// consumer — the serving benches and the cluster recovery ledger —
/// aggregates tails identically instead of each rolling its own rank
/// arithmetic.
///
/// # Example
///
/// ```
/// use v10_sim::LatencySummary;
/// let s = LatencySummary::from_samples(&[4.0, 1.0, 3.0, 2.0]).unwrap();
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.p50(), 2.5);
/// assert_eq!(s.max(), 4.0);
/// assert!(LatencySummary::from_samples(&[]).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    count: usize,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

impl LatencySummary {
    /// Summarizes a sample set, or `None` when it is empty.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let p = Percentiles::new(samples);
        Some(LatencySummary {
            count: samples.len(),
            // Summed in sample order, not sorted order.
            mean: samples.iter().sum::<f64>() / usize_to_f64(samples.len()),
            p50: p.quantile(0.5)?,
            p95: p.quantile(0.95)?,
            p99: p.quantile(0.99)?,
            max: p.quantile(1.0)?,
        })
    }

    /// Number of samples summarized (always non-zero).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Median (interpolated 0.5 quantile).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.p50
    }

    /// Interpolated 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.p95
    }

    /// Interpolated 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.p99
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_extremes() {
        let p = Percentiles::new(&[3.0, 1.0, 2.0]);
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(3.0));
        assert_eq!(p.quantile(0.5), Some(2.0));
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(Percentiles::new(&[]).quantile(0.5), None);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(Percentiles::new(&[7.0]).quantile(0.95), Some(7.0));
    }

    #[test]
    fn percentile_interpolates() {
        let p = Percentiles::new(&[0.0, 10.0]);
        assert_eq!(p.quantile(0.25), Some(2.5));
        let p = Percentiles::new(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert!((p.quantile(0.95).unwrap() - 95.05).abs() < 1e-9);
        assert_eq!(p.quantile(0.5), Some(50.5));
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn percentile_rejects_out_of_range_q() {
        let _ = Percentiles::new(&[1.0]).quantile(1.5);
    }

    #[test]
    fn latency_summary_empty_is_none() {
        assert!(LatencySummary::from_samples(&[]).is_none());
    }

    #[test]
    fn latency_summary_single_sample_is_degenerate() {
        let s = LatencySummary::from_samples(&[9.0]).unwrap();
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 9.0);
        assert_eq!(s.p50(), 9.0);
        assert_eq!(s.p95(), 9.0);
        assert_eq!(s.p99(), 9.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn latency_summary_rejects_nan() {
        let _ = LatencySummary::from_samples(&[1.0, f64::NAN]);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use crate::rng::SimRng;

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone() {
        let mut rng = SimRng::seed_from(0xBEE5);
        for case in 0..64 {
            let n = 1 + rng.index(100);
            let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
            let (q1, q2) = (rng.unit_f64(), rng.unit_f64());
            let (qlo, qhi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let p = Percentiles::new(&xs);
            let vlo = p.quantile(qlo).unwrap();
            let vhi = p.quantile(qhi).unwrap();
            assert!(vlo <= vhi + 1e-9, "case {case}");
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9, "case {case}");
        }
    }

    /// The summary's quantiles agree with the exact order statistics of
    /// the same samples, whatever the sample order.
    #[test]
    fn latency_summary_matches_percentiles() {
        let mut rng = SimRng::seed_from(0x1A7E);
        for case in 0..64 {
            let n = 1 + rng.index(120);
            let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1e7)).collect();
            let s = LatencySummary::from_samples(&xs).unwrap();
            let p = Percentiles::new(&xs);
            assert_eq!(s.count(), xs.len(), "case {case}");
            assert_eq!(s.p50().to_bits(), p.quantile(0.5).unwrap().to_bits());
            assert_eq!(s.p95().to_bits(), p.quantile(0.95).unwrap().to_bits());
            assert_eq!(s.p99().to_bits(), p.quantile(0.99).unwrap().to_bits());
            assert!(s.p50() <= s.p95() && s.p95() <= s.p99() && s.p99() <= s.max());
        }
    }
}
