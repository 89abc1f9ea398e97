//! Order statistics over a run's samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` with its
//! default `exclusive` method, so a spread computed here matches one
//! computed from the same numbers with Python.

/// Median, first and third quartile of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `samples`; every field is the sample itself for a
    /// single sample, and `None` for none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut data = samples.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        let median = median_sorted(&data)?;
        if n == 1 {
            return Some(Quartiles {
                q1: median,
                median,
                q3: median,
                n,
            });
        }
        Some(Quartiles {
            q1: exclusive_quantile(&data, 1),
            median,
            q3: exclusive_quantile(&data, 3),
            n,
        })
    }

    /// Distance between the quartiles as a share of the median (0 when the
    /// median is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples`: the middle sample, or the mean of the two middle
/// samples for an even count. `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    median_sorted(&data)
}

fn median_sorted(data: &[f64]) -> Option<f64> {
    let n = data.len();
    if n == 0 {
        None
    } else if n % 2 == 1 {
        Some(data[n / 2])
    } else {
        Some((data[n / 2 - 1] + data[n / 2]) / 2.0)
    }
}

/// The `i`-th of the three cut points dividing sorted `data` (at least two
/// samples) into quarters, as Python's `exclusive` method computes it. With
/// fewer than three samples the outer cut points extrapolate past the data
/// (`delta` goes negative), exactly as Python's do.
fn exclusive_quantile(data: &[f64], i: usize) -> f64 {
    const PARTS: i64 = 4;
    let len = data.len();
    let m = len as i64 + 1;
    let i = i as i64;
    let j = (i * m / PARTS).clamp(1, len as i64 - 1);
    let delta = (i * m - j * PARTS) as f64;
    let j = j as usize;
    (data[j - 1] * (PARTS as f64 - delta) + data[j] * delta) / PARTS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(close(q.q1, 2.75) && close(q.median, 5.5) && close(q.q3, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(q.q1, 1.0) && close(q.median, 2.0) && close(q.q3, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        let q = Quartiles::of(&[5.0, 1.0]).unwrap();
        assert!(close(q.q1, 0.0) && close(q.median, 3.0) && close(q.q3, 6.0));
        // statistics.quantiles([2, 4, 8, 16], n=4) == [2.5, 6.0, 14.0]
        let q = Quartiles::of(&[16.0, 2.0, 8.0, 4.0]).unwrap();
        assert!(close(q.q1, 2.5) && close(q.median, 6.0) && close(q.q3, 14.0));
        // statistics.quantiles([0.9, 1.1, 1.0, 1.3, 0.95], n=4)
        //   == [0.925, 1.0, 1.2000000000000002]
        let q = Quartiles::of(&[0.9, 1.1, 1.0, 1.3, 0.95]).unwrap();
        assert!(close(q.q1, 0.925) && close(q.median, 1.0) && close(q.q3, 1.2));
        assert!(close(q.spread(), 0.275));
    }

    #[test]
    fn single_and_empty_samples() {
        let q = Quartiles::of(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(q.spread(), 0.0);
        assert!(Quartiles::of(&[]).is_none());
    }
}
