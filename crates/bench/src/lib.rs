//! # v10-bench — experiment harness for the V10 reproduction
//!
//! Every bench target (`cargo bench -p v10-bench --bench <id>`) has a
//! reason to exist: it regenerates a table or figure of the paper as a
//! markdown table, or runs the open-loop serving sweep (each has an
//! EXPERIMENTS.md row), or is a gated `ci.sh` step (`sim_throughput`,
//! `serving_overload`, `serving_fleet`, `serving_fleet_faults`,
//! `adversary_sweep`). The serving benches time their runs on the
//! in-repo [`timing`] harness. This library hosts the shared
//! plumbing: the canonical pair and model lists as ready-to-run specs
//! ([`pairs`]), design runners (sequential and [`sweep`]-parallel),
//! single-tenant reference caching, the serving glue ([`serving`]), JSON
//! artifacts ([`jsonio`]), and table formatting.
//!
//! Knobs (environment variables, all optional):
//!
//! * `V10_BENCH_REQUESTS` — requests each workload must complete per run
//!   (default 12; higher = steadier numbers, longer runs).
//! * `V10_BENCH_SEED` — the experiment seed (default 2023).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsonio;
pub mod pairs;
pub mod serving;
pub mod sweep;
pub mod timing;

pub use pairs::{eval_pairs, fig9_pairs, PairCase};

use v10_core::{run_design, run_single_tenant, Design, RunOptions, RunReport};
use v10_npu::NpuConfig;

/// Requests per workload per run (env `V10_BENCH_REQUESTS`, default 12).
#[must_use]
pub fn requests() -> usize {
    std::env::var("V10_BENCH_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(12)
}

/// The experiment seed (env `V10_BENCH_SEED`, default 2023).
#[must_use]
pub fn seed() -> u64 {
    std::env::var("V10_BENCH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2023)
}

/// Run options derived from the environment knobs.
#[must_use]
pub fn run_options() -> RunOptions {
    RunOptions::new(requests())
        .expect("requests() filters out zero")
        .with_seed(seed())
}

/// Runs one pair under all four designs, in [`Design::ALL`] order.
#[must_use]
pub fn run_all_designs(case: &PairCase, cfg: &NpuConfig) -> Vec<(Design, RunReport)> {
    let opts = run_options();
    Design::ALL
        .iter()
        .map(|&d| {
            (
                d,
                run_design(d, &case.specs, cfg, &opts).expect("validated pair case"),
            )
        })
        .collect()
}

/// Single-tenant average latencies for a pair (the STP normalization
/// references).
#[must_use]
pub fn single_refs(case: &PairCase, cfg: &NpuConfig) -> Vec<f64> {
    case.specs
        .iter()
        .map(|s| {
            run_single_tenant(s, cfg, requests())
                .expect("validated pair case")
                .workloads()[0]
                .avg_latency_cycles()
        })
        .collect()
}

/// Prints a markdown table: a header row, a separator, then the body rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Formats a ratio like the paper's "1.64x".
#[must_use]
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean of a slice (used for "on average" speedup claims).
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive entry.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(1.639), "1.64x");
        assert_eq!(fmt_pct(0.5012), "50.1%");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn default_knobs() {
        // In the test environment the vars are unset.
        assert!(requests() >= 1);
        let _ = seed();
    }
}
