//! Deterministic parallel sweep driver.
//!
//! The evaluation figures run many fully independent simulations — 11 pairs
//! × 4 executors for Figs. 16–21, a 4 × 8 grid for the Fig. 25 scaling
//! study. Each simulation owns its engine, its RNG stream, and its report,
//! so they parallelize embarrassingly: [`parallel_map`] fans the work out
//! over scoped threads (`std::thread::scope`, no external crates) and
//! returns results **in input order**, which makes the printed tables
//! byte-identical to a sequential run regardless of thread count or
//! scheduling.
//!
//! Thread count comes from `V10_BENCH_THREADS` (default: available
//! parallelism); `V10_BENCH_THREADS=1` degenerates to an inline sequential
//! loop, which the unit tests use to prove order-independence.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::PairCase;
use v10_core::{Design, RunReport};
use v10_npu::NpuConfig;

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

/// Applies `f` to every item on a pool of scoped threads and returns the
/// results in input order, using [`sweep_threads`] workers.
///
/// See [`parallel_map_with`] for the ordering guarantee.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(sweep_threads(), items, f)
}

/// Applies `f` to every item on a pool of `threads` scoped threads and
/// returns the results in input order.
///
/// Items are claimed dynamically from a shared atomic cursor (so a slow
/// simulation never stalls the rest of the batch); each thread keeps its
/// `(index, result)` pairs privately and the results are scattered back
/// into input order after the scope joins. The output is therefore
/// independent of thread count and scheduling. With one thread (or one
/// item) this is an ordinary sequential loop.
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
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return mine;
                        }
                        mine.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
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

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = items.iter().map(|&i| i * i).collect();
        for threads in [1, 2, 8, 64] {
            assert_eq!(parallel_map_with(threads, &items, |&i| i * i), want);
        }
    }

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
