//! Shared plumbing for the serving-mode bench targets.
//!
//! The serving benches (`serving_openloop`, `serving_overload`,
//! `serving_fleet`, `serving_fleet_faults`, `sim_throughput`) share one
//! SLO factor and one smoke knob and compile sampled arrival streams the
//! same way; this module is the single home for that glue — the
//! thread-pool knob lives next door in
//! [`sweep::sweep_threads`](crate::sweep::sweep_threads).

use v10_core::{Admission, AdmissionSchedule, WorkloadSpec};
use v10_workloads::TimedArrival;

/// SLO multiple of the model's isolated request service demand.
pub const SLO_FACTOR: f64 = 4.0;

/// Smoke mode (env `V10_BENCH_SMOKE=1`): shrink the workload so CI can
/// exercise the full bench path in seconds.
#[must_use]
pub fn smoke() -> bool {
    std::env::var("V10_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Compiles a sampled arrival stream into one open-loop
/// [`AdmissionSchedule`].
///
/// # Panics
///
/// Panics on an empty stream or an arrival the admission validator
/// refuses — sampled streams from the workload generators are always
/// valid, so a panic here means the bench itself is misconfigured.
#[must_use]
pub fn schedule_of(arrivals: &[TimedArrival]) -> AdmissionSchedule {
    let admissions: Vec<Admission> = arrivals
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.label(), a.trace().clone()),
                a.at_cycles(),
                a.requests(),
            )
            .expect("sampled arrivals are valid admissions")
        })
        .collect();
    AdmissionSchedule::new(admissions).expect("non-empty schedule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_workloads::{Model, OpenLoopProcess};

    #[test]
    fn schedule_compiles_in_arrival_order() {
        let arrivals = OpenLoopProcess::new(&[Model::Mnist, Model::Ncf], 1.0e5, 9)
            .unwrap()
            .sample(6)
            .unwrap();
        let schedule = schedule_of(&arrivals);
        assert_eq!(schedule.len(), 6);
        let ats: Vec<f64> = schedule
            .entries()
            .iter()
            .map(Admission::at_cycles)
            .collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn smoke_knob_defaults_off() {
        // The test environment does not set the knob.
        if std::env::var("V10_BENCH_SMOKE").is_err() {
            assert!(!smoke());
        }
    }
}
