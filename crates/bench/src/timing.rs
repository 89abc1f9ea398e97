//! A minimal, dependency-free timing harness for the micro-benchmarks.
//!
//! The workspace builds in fully offline environments, so instead of an
//! external bench framework the micro-benchmarks use this module: calibrate
//! a batch size so one batch runs long enough to dwarf timer noise, repeat
//! the batch an odd number of times, and report the median per-iteration
//! time. Median-of-batches is robust to the occasional scheduling hiccup
//! without needing outlier statistics.

use std::time::{Duration, Instant};

use v10_sim::Cycles;

/// Target wall time for one calibrated batch.
const BATCH_TARGET: Duration = Duration::from_millis(5);
/// Number of batches sampled; odd so the median is a single sample.
const BATCHES: usize = 9;

/// Times one batch of `iters` calls.
fn time_batch<R>(f: &mut impl FnMut() -> R, iters: u32) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed()
}

/// Measures the median per-iteration time of `f`.
///
/// Calibrates the batch size by doubling until a batch exceeds 5 ms, then
/// samples 9 batches and returns the median batch time divided by the
/// batch size.
pub fn bench<R>(mut f: impl FnMut() -> R) -> Duration {
    // Calibrate: double iters until the batch is long enough to time.
    let mut iters: u32 = 1;
    loop {
        let t = time_batch(&mut f, iters);
        if t >= BATCH_TARGET || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<Duration> = (0..BATCHES).map(|_| time_batch(&mut f, iters)).collect();
    samples.sort_unstable();
    samples[BATCHES / 2] / iters
}

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
/// median is a single sample). Robust to one-off scheduling hiccups
/// without the batch calibration of [`bench()`], which is meant for
/// microsecond-scale closures rather than whole simulation runs.
pub fn median_wall<R>(samples: usize, mut f: impl FnMut() -> R) -> Duration {
    let samples = samples.max(1);
    let mut times: Vec<Duration> = (0..samples).map(|_| measure(&mut f).1).collect();
    times.sort_unstable();
    times[times.len() / 2]
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

/// Formats a per-iteration duration with an adaptive unit (ns/µs/ms/s).
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_positive_time() {
        let t = bench(|| std::hint::black_box((0..100u64).sum::<u64>()));
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(12_340)), "12.34 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

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
