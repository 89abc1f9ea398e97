//! Rendering a run's results: the human-readable tables, the one-line JSON
//! result that ends standard output, and the results file `compare` reads.

use std::fmt::Write as _;

use v10_bench::jsonio::escape;

use crate::metrics::Source;
use crate::run::WorkloadResult;

/// Schema tag of the results file.
pub const RESULTS_SCHEMA: &str = "v10-benchmark-results/1";

/// The human-readable report of one workload.
#[must_use]
pub fn human(r: &WorkloadResult, seed: u64) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} (seed {seed}, {} timed passes, {} library calls) ==",
        r.kind.name(),
        r.passes,
        r.attempted
    );
    let _ = writeln!(
        s,
        "  {:<30} {:<8} {:>14} {:>14} {:>14} {:>4}",
        "end-to-end", "unit", "median", "q1", "q3", "n"
    );
    for (d, q) in &r.end_to_end {
        let note = match d.name {
            "p50_mcyc" | "p99_mcyc" => format!("  ({} latency samples)", r.latency_samples),
            _ if d.source == Source::Simulated => "  (simulated)".to_owned(),
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "  {:<30} {:<8} {:>14.6} {:>14.6} {:>14.6} {:>4}{note}",
            d.name, d.unit, q.median, q.q1, q.q3, q.n
        );
    }
    if !r.per_layer.is_empty() {
        let coverage = r.coverage.unwrap_or(0.0) * 100.0;
        let _ = writeln!(
            s,
            "  {:<30} {:<8} {:>14}   (traced pass; its timed calls cover {coverage:.1}% of it)",
            "per-layer", "unit", "value"
        );
        for (d, v) in &r.per_layer {
            let _ = writeln!(s, "  {:<30} {:<8} {:>14.6}", d.name, d.unit, v);
        }
    }
    if r.violations.is_empty() {
        let _ = writeln!(s, "  correctness gate: pass");
    } else {
        for v in &r.violations {
            let _ = writeln!(s, "  correctness gate: FAIL: {v}");
        }
    }
    s
}

/// The last line of standard output: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`. Untraced runs report every
/// end-to-end metric's median, traced runs every per-layer metric. With
/// more than one workload each metric name is prefixed `<workload>/`.
#[must_use]
pub fn result_line(results: &[WorkloadResult], traced: bool) -> String {
    let correct = results.iter().all(|r| r.violations.is_empty());
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let prefix = |r: &WorkloadResult| {
        if results.len() == 1 {
            String::new()
        } else {
            format!("{}/", r.kind.name())
        }
    };
    let mut metrics = Vec::new();
    for r in results {
        let p = prefix(r);
        let entries: Vec<(&str, &str, f64)> = if traced {
            r.per_layer
                .iter()
                .map(|(d, v)| (d.name, d.unit, *v))
                .collect()
        } else {
            r.end_to_end
                .iter()
                .map(|(d, q)| (d.name, d.unit, q.median))
                .collect()
        };
        for (name, unit, value) in entries {
            metrics.push(format!(
                "\"{}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&p),
                escape(name),
                number(value),
                escape(unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The results file: every metric of every workload, end-to-end ones with
/// their quartiles.
#[must_use]
pub fn results_json(results: &[WorkloadResult], seed: u64) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let e2e: Vec<String> = r
                .end_to_end
                .iter()
                .map(|(d, q)| {
                    format!(
                        "\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \
                         \"n\": {}}}",
                        d.name,
                        escape(d.unit),
                        number(q.median),
                        number(q.q1),
                        number(q.q3),
                        q.n
                    )
                })
                .collect();
            let layers: Vec<String> = r
                .per_layer
                .iter()
                .map(|(d, v)| format!("\"{}\": {}", d.name, number(*v)))
                .collect();
            format!(
                "    \"{}\": {{\"passes\": {}, \"correct\": {},\n      \"end_to_end\": {{{}}},\n      \
                 \"per_layer\": {{{}}}}}",
                r.kind.name(),
                r.passes,
                r.violations.is_empty(),
                e2e.join(", "),
                layers.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{RESULTS_SCHEMA}\",\n  \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        workloads.join(",\n")
    )
}

/// A JSON number; a non-finite value (already reported as a correctness
/// violation) is written as 0 to keep the line parseable.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
