//! Wall-clock measurement for the serving benches.
//!
//! The workspace builds in fully offline environments, so instead of an
//! external bench framework the benches time whole simulation runs here:
//! [`measure`] wall-times one call, [`median_wall`] takes the median of an
//! odd number of calls (robust to one-off scheduling hiccups without
//! outlier statistics), [`per_call_wall`] times a call repeated until a
//! minimum wall time has passed (so a sample of a millisecond-scale run
//! is not at the mercy of one scheduler tick), and [`cycles_per_sec`]
//! turns a run's simulated cycles and wall time into the throughput the
//! benches report.

use std::time::{Duration, Instant};

use v10_sim::Cycles;

/// Wall-times a single call of `f`, returning its result and the elapsed
/// wall time. This is the one sanctioned wall-clock measurement point for
/// the serving benches — `sim_throughput`, `serving_openloop`, and
/// `serving_overload` all time their runs through here so their
/// cycles-per-second columns are directly comparable.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed())
}

/// Median wall time of `samples` calls of `f` (use an odd count so the
/// median is a single sample).
pub fn median_wall<R>(samples: usize, mut f: impl FnMut() -> R) -> Duration {
    let samples = samples.max(1);
    let mut times: Vec<Duration> = (0..samples).map(|_| measure(&mut f).1).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Wall time per call of `f`, calling it back to back until at least
/// `min_total` has passed (at least once): the elapsed time divided by
/// the number of calls.
pub fn per_call_wall<R>(min_total: Duration, mut f: impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        std::hint::black_box(f());
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= min_total {
            return elapsed / calls;
        }
    }
}

/// Simulated-cycles-per-wall-second throughput of a run that simulated
/// `simulated_cycles` in `wall` time. Returns 0 for a zero wall time.
///
/// unit: returns cycles per wall-clock second.
#[must_use]
pub fn cycles_per_sec(simulated_cycles: Cycles, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        simulated_cycles.as_f64() / secs
    }
}

/// Formats a cycles/second rate with an adaptive unit (cyc/s through
/// Gcyc/s), e.g. `"412.3 Mcyc/s"`.
#[must_use]
pub fn fmt_cycles_per_sec(rate: f64) -> String {
    if rate >= 1.0e9 {
        format!("{:.2} Gcyc/s", rate / 1.0e9)
    } else if rate >= 1.0e6 {
        format!("{:.1} Mcyc/s", rate / 1.0e6)
    } else if rate >= 1.0e3 {
        format!("{:.1} Kcyc/s", rate / 1.0e3)
    } else {
        format!("{rate:.1} cyc/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_result_and_positive_time() {
        let (v, t) = measure(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn median_wall_is_positive() {
        let t = median_wall(3, || std::hint::black_box((0..1000u64).sum::<u64>()));
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn per_call_wall_repeats_until_the_minimum() {
        let mut calls = 0u32;
        let t = per_call_wall(Duration::from_millis(20), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(calls >= 2, "one 2 ms call cannot fill 20 ms");
        assert!(t >= Duration::from_millis(2) && t < Duration::from_millis(20));
    }

    #[test]
    fn cycles_per_sec_math() {
        assert_eq!(
            cycles_per_sec(Cycles::new(1.0e6), Duration::from_secs(2)),
            5.0e5
        );
        assert_eq!(cycles_per_sec(Cycles::new(1.0e6), Duration::ZERO), 0.0);
    }

    #[test]
    fn rate_formatting_picks_units() {
        assert_eq!(fmt_cycles_per_sec(2.5e9), "2.50 Gcyc/s");
        assert_eq!(fmt_cycles_per_sec(412.34e6), "412.3 Mcyc/s");
        assert_eq!(fmt_cycles_per_sec(9.9e3), "9.9 Kcyc/s");
        assert_eq!(fmt_cycles_per_sec(12.0), "12.0 cyc/s");
    }
}
