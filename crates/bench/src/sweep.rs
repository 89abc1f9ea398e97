//! Deterministic parallel sweep driver.
//!
//! The evaluation figures run many fully independent simulations — 11 pairs
//! × 4 executors for Figs. 16–21, a 4 × 8 grid for the Fig. 25 scaling
//! study. Each simulation owns its engine, its RNG stream, and its report,
//! so they parallelize embarrassingly: [`parallel_map`] fans the work out
//! over scoped threads ([`v10_sim::parallel_map_with`]) and returns
//! results **in input order**, which makes the printed tables
//! byte-identical to a sequential run regardless of thread count or
//! scheduling.
//!
//! Thread count comes from `V10_BENCH_THREADS` (default: available
//! parallelism); `V10_BENCH_THREADS=1` degenerates to an inline sequential
//! loop, which the unit tests use to prove order-independence.

use crate::PairCase;
use v10_core::{Design, RunReport};
use v10_npu::NpuConfig;
use v10_sim::parallel_map_with;

/// Worker threads for sweeps (env `V10_BENCH_THREADS`, default: all cores).
#[must_use]
pub fn sweep_threads() -> usize {
    std::env::var("V10_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Applies `f` to every item on a pool of [`sweep_threads`] scoped threads
/// and returns the results in input order.
///
/// See [`v10_sim::parallel_map_with`] for the ordering guarantee.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(sweep_threads(), items, f)
}

/// One pair's complete evaluation: single-tenant references plus all four
/// designs, in [`Design::ALL`] order.
#[derive(Debug, Clone)]
pub struct PairSweep {
    /// The pair's label (e.g. `"BERT+NCF"`).
    pub label: String,
    /// Single-tenant average latencies (STP normalization references).
    pub singles: Vec<f64>,
    /// Reports per design, in [`Design::ALL`] order.
    pub reports: Vec<(Design, RunReport)>,
}

/// Runs every pair's full evaluation in parallel, preserving input order.
#[must_use]
pub fn sweep_pairs(cases: &[PairCase], cfg: &NpuConfig) -> Vec<PairSweep> {
    parallel_map(cases, |case| PairSweep {
        label: case.label.clone(),
        singles: crate::single_refs(case, cfg),
        reports: crate::run_all_designs(case, cfg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_core::{run_design, run_digest, RunOptions, WorkloadSpec};
    use v10_workloads::Model;

    /// Every f64 a sweep can print, down to the last bit.
    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let cfg = NpuConfig::table5();
        let opts = RunOptions::new(2)
            .expect("non-zero request count")
            .with_seed(7);
        let pairs = [(Model::Bert, Model::Ncf), (Model::Dlrm, Model::Mnist)];
        let work: Vec<(Design, [WorkloadSpec; 2])> = pairs
            .iter()
            .flat_map(|&(a, b)| {
                Design::ALL.iter().map(move |&d| {
                    (
                        d,
                        [
                            WorkloadSpec::new(a.abbrev(), a.default_profile().synthesize(11)),
                            WorkloadSpec::new(b.abbrev(), b.default_profile().synthesize(12)),
                        ],
                    )
                })
            })
            .collect();
        let run = |threads: usize| -> Vec<Vec<u64>> {
            parallel_map_with(threads, &work, |(d, specs)| {
                run_digest(&run_design(*d, specs, &cfg, &opts).expect("validated case"))
            })
        };
        let sequential = run(1);
        assert_eq!(
            run(8),
            sequential,
            "8 threads must match the sequential sweep bit for bit"
        );
        assert_eq!(run(3), sequential, "odd thread counts too");
    }
}
