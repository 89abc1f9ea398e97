//! `compare A.json B.json`: applies the bounds declared in
//! `BENCHMARK.json` to every (workload, end-to-end metric) pair of two
//! results files, taking A as the baseline.

use v10_bench::jsonio::Json;

use crate::metrics::{self, Source};
use crate::report::RESULTS_SCHEMA;
use crate::stats::Quartiles;

/// Relative tolerance under which two simulated values count as equal.
const EXACT: f64 = 1e-9;

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A simulated metric, same seed, equal values.
    Same,
    /// Within the bound, and B's quartiles stay clear of it.
    Ok,
    /// Within the bound by median, but B's quartiles reach past it, or A's
    /// own spread is wider than the bound.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
    /// A simulated metric that differs under the same seed: the model's
    /// outputs changed.
    Changed,
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    #[must_use]
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Changed => "CHANGED",
        }
    }
}

/// One compared pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline.
    pub a: Quartiles,
    /// Candidate.
    pub b: Quartiles,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative = better).
    pub worse: f64,
    /// The declared bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A declared end-to-end metric as `BENCHMARK.json` states it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(manifest: &Json) -> Result<Vec<Declared>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest: missing array \"end_to_end\"")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .filter(|n| metrics::valid_name(n))
                .ok_or("manifest: an end_to_end entry has no valid name")?;
            m.get("unit")
                .and_then(Json::as_str)
                .filter(|u| metrics::valid_unit(u))
                .ok_or_else(|| format!("manifest: {name} has no valid unit"))?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("manifest: {name} has no \"better\""))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("manifest: {name} has no \"bound\""))?;
            let lower_is_better = match better {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("manifest: {name}: better is {other:?}")),
            };
            Ok(Declared {
                name: name.to_owned(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

fn quartiles(doc: &Json, workload: &str, metric: &str) -> Result<Quartiles, String> {
    let m = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("{workload}: no end-to-end metric {metric}"))?;
    let num = |key: &str| {
        m.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{workload}/{metric}: missing number {key:?}"))
    };
    Ok(Quartiles {
        q1: num("q1")?,
        median: num("median")?,
        q3: num("q3")?,
        n: num("n")? as usize,
    })
}

fn workload_names(doc: &Json) -> Result<Vec<String>, String> {
    match doc.get("workloads") {
        Some(Json::Obj(map)) => Ok(map.keys().cloned().collect()),
        _ => Err("results: missing object \"workloads\"".to_owned()),
    }
}

fn verdict(d: &Declared, a: Quartiles, b: Quartiles, exact: bool) -> (f64, Verdict) {
    let scale = a.median.abs();
    let diff = if d.lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    let worse = if scale == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            diff.signum() * f64::INFINITY
        }
    } else {
        diff / scale
    };
    if exact {
        let equal = (b.median - a.median).abs() <= EXACT * scale.max(b.median.abs());
        return (
            worse,
            if equal {
                Verdict::Same
            } else {
                Verdict::Changed
            },
        );
    }
    if worse > d.bound {
        return (worse, Verdict::Regressed);
    }
    let limit = if d.lower_is_better {
        a.median * (1.0 + d.bound)
    } else {
        a.median * (1.0 - d.bound)
    };
    let reaches = if d.lower_is_better {
        b.q3 > limit
    } else {
        b.q1 < limit
    };
    let unresolved = reaches || a.spread() > d.bound;
    (
        worse,
        if unresolved {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        },
    )
}

/// Compares results `b` against baseline `a` under `manifest`'s bounds.
/// Simulated metrics of two runs with the same seed must agree exactly.
///
/// # Errors
///
/// Returns a message when a results file has another schema, a document
/// lacks a field the comparison needs, or the two files cover different
/// workloads.
pub fn compare(manifest: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (doc, which) in [(a, "A"), (b, "B")] {
        if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
            return Err(format!("{which} is not a {RESULTS_SCHEMA} results file"));
        }
    }
    let decls = declared(manifest)?;
    let names = workload_names(a)?;
    if names != workload_names(b)? {
        return Err("the two results files cover different workloads".to_owned());
    }
    let same_seed = a.get("seed").and_then(Json::as_num) == b.get("seed").and_then(Json::as_num);
    let mut rows = Vec::new();
    for workload in &names {
        for d in &decls {
            let qa = quartiles(a, workload, &d.name)?;
            let qb = quartiles(b, workload, &d.name)?;
            let exact =
                same_seed && metrics::find(&d.name).is_some_and(|m| m.source == Source::Simulated);
            let (worse, verdict) = verdict(d, qa, qb, exact);
            rows.push(Row {
                workload: workload.clone(),
                metric: d.name.clone(),
                a: qa,
                b: qb,
                worse,
                bound: d.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one row per (workload, metric).
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a.median,
            r.b.median,
            r.worse * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_bench::jsonio::parse;

    const MANIFEST: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "p99_mcyc", "unit": "Mcyc", "better": "lower", "bound": 0.1},
        {"name": "sim_gcyc_per_s", "unit": "Gcyc/s", "better": "higher", "bound": 0.1}
    ]}"#;

    fn results(seed: u64, wall: [f64; 3], p99: f64, gcyc: [f64; 3]) -> Json {
        let m = |q: [f64; 3]| {
            format!(
                "{{\"unit\": \"x\", \"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": 9}}",
                q[0], q[1], q[2]
            )
        };
        parse(&format!(
            "{{\"schema\": \"{RESULTS_SCHEMA}\", \"seed\": {seed}, \"workloads\": {{\"w\": {{\"end_to_end\": {{\
             \"wall_s\": {}, \"p99_mcyc\": {}, \"sim_gcyc_per_s\": {}}}}}}}}}",
            m(wall),
            m([p99; 3]),
            m(gcyc)
        ))
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<Verdict> {
        compare(&parse(MANIFEST).unwrap(), a, b)
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn equal_runs_pass() {
        let a = results(1, [0.98, 1.0, 1.02], 5.0, [9.8, 10.0, 10.2]);
        assert_eq!(verdicts(&a, &a), [Verdict::Ok, Verdict::Same, Verdict::Ok]);
    }

    #[test]
    fn regressions_follow_the_direction() {
        let a = results(1, [0.98, 1.0, 1.02], 5.0, [9.8, 10.0, 10.2]);
        let b = results(1, [1.18, 1.2, 1.22], 5.0, [8.0, 8.5, 8.7]);
        assert_eq!(
            verdicts(&a, &b),
            [Verdict::Regressed, Verdict::Same, Verdict::Regressed]
        );
        // Faster is never a regression.
        let c = results(1, [0.7, 0.8, 0.9], 5.0, [12.0, 12.5, 13.0]);
        assert_eq!(verdicts(&a, &c)[0], Verdict::Ok);
        assert_eq!(verdicts(&a, &c)[2], Verdict::Ok);
    }

    #[test]
    fn quartiles_reaching_the_bound_are_unresolved() {
        let a = results(1, [0.98, 1.0, 1.02], 5.0, [9.8, 10.0, 10.2]);
        let b = results(1, [1.0, 1.05, 1.15], 5.0, [8.8, 9.5, 10.0]);
        assert_eq!(
            verdicts(&a, &b),
            [Verdict::Unresolved, Verdict::Same, Verdict::Unresolved]
        );
    }

    #[test]
    fn simulated_metrics_are_exact_under_one_seed_only() {
        let a = results(1, [0.98, 1.0, 1.02], 5.0, [9.8, 10.0, 10.2]);
        let b = results(1, [0.98, 1.0, 1.02], 5.001, [9.8, 10.0, 10.2]);
        assert_eq!(verdicts(&a, &b)[1], Verdict::Changed);
        assert!(Verdict::Changed.fails());
        let c = results(2, [0.98, 1.0, 1.02], 5.001, [9.8, 10.0, 10.2]);
        assert_eq!(verdicts(&a, &c)[1], Verdict::Ok);
    }

    #[test]
    fn malformed_manifests_are_errors() {
        let a = results(1, [0.98, 1.0, 1.02], 5.0, [9.8, 10.0, 10.2]);
        for bad in [
            r#"{"end_to_end": [{"name": "wall s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
            r#"{"end_to_end": [{"name": "wall_s", "unit": "", "better": "lower", "bound": 0.1}]}"#,
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "less", "bound": 0.1}]}"#,
        ] {
            assert!(compare(&parse(bad).unwrap(), &a, &a).is_err(), "{bad}");
        }
    }

    #[test]
    fn missing_metrics_and_other_schemas_are_errors() {
        let a = results(1, [0.98, 1.0, 1.02], 5.0, [9.8, 10.0, 10.2]);
        let b = parse(&format!(
            r#"{{"schema": "{RESULTS_SCHEMA}", "seed": 1, "workloads": {{"w": {{"end_to_end": {{}}}}}}}}"#
        ))
        .unwrap();
        assert!(compare(&parse(MANIFEST).unwrap(), &a, &b).is_err());
        let unversioned = parse(r#"{"seed": 1, "workloads": {}}"#).unwrap();
        let err = compare(&parse(MANIFEST).unwrap(), &a, &unversioned).unwrap_err();
        assert!(err.contains("B is not"), "{err}");
    }
}
