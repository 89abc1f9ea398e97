//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics. `BENCHMARK.json` at
//! the repository root is rendered from these tables
//! ([`manifest_json`]), and a test keeps the two identical.

use crate::workloads::Kind;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host time or host memory: subject to machine noise.
    Host,
    /// A simulated statistic: a pure function of the seed, so two runs of
    /// one commit with one seed agree exactly.
    Simulated,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as printed and as declared.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression. `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// Host-measured or simulated.
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        source,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        source: Source::Host,
    }
}

use Better::{Higher, Lower};
use Source::{Host, Simulated};

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [MetricDef; 8] = [
    // Median of repeated set-ups (input generation, schedules, pipeline
    // fit, reference runs); never inside a pass.
    e2e("setup_s", "s", Lower, 0.25, Host),
    // Median host seconds per pass.
    e2e("wall_s", "s", Lower, 0.25, Host),
    // Simulated cycles per host second, median over passes.
    e2e("sim_gcyc_per_s", "Gcyc/s", Higher, 0.25, Host),
    // Heap high-water mark during a pass, above the live heap (the
    // prepared inputs) when the pass began; median over passes.
    e2e("peak_heap_mb", "MiB", Lower, 0.2, Host),
    // Offered requests completed / offered (rejected, shed, trimmed or
    // unfinished requests count as not served).
    e2e("served_frac", "ratio", Higher, 0.05, Simulated),
    // Request latency percentiles in simulated Mcycles.
    e2e("p50_mcyc", "Mcyc", Lower, 0.1, Simulated),
    e2e("p99_mcyc", "Mcyc", Lower, 0.15, Simulated),
    // Requests completed within their SLO (4x the model's isolated
    // request demand) per simulated Mcycle.
    e2e("goodput_per_mcyc", "1/Mcyc", Higher, 0.25, Simulated),
];

/// Per-layer metrics from the traced pass. A layer that does not run on a
/// workload reports 0 there.
pub const PER_LAYER: [MetricDef; 39] = [
    // Set-up, split by layer.
    layer("workloads.sample_s", "s", Lower),
    layer("core.schedule_s", "s", Lower),
    layer("collocate.fit_s", "s", Lower),
    layer("core.refs_s", "s", Lower),
    // The core engine: calls, time and event counts.
    layer("core.serve_calls", "count", Lower),
    layer("core.serve_s", "s", Lower),
    layer("core.events", "count", Lower),
    layer("core.op_issued", "count", Lower),
    layer("core.op_preempted", "count", Lower),
    layer("core.ctx_switches", "count", Lower),
    layer("core.dma_ready", "count", Lower),
    layer("core.timer_ticks", "count", Lower),
    layer("core.tenant_admitted", "count", Higher),
    layer("core.admission_rejected", "count", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.events_per_request", "count", Lower),
    layer("core.allocs_per_request", "count", Lower),
    layer("core.timer_tick_share", "ratio", Lower),
    layer("core.preemptions_per_request", "count", Lower),
    layer("core.switch_overhead_frac", "ratio", Lower),
    layer("core.trace_overhead", "ratio", Lower),
    // The paper's Fig. 18 headline (pairs-closedloop only).
    layer("core.stp_vs_pmt", "ratio", Higher),
    layer("core.fig18_err", "ratio", Lower),
    // Overload control plane.
    layer("overload.degradations", "count", Lower),
    layer("overload.entered", "count", Lower),
    layer("overload.boosts", "count", Lower),
    layer("overload.shed", "count", Lower),
    // Fault injection and replay.
    layer("fault.injected", "count", Lower),
    layer("fault.replays", "count", Lower),
    layer("fault.replay_overhead_frac", "ratio", Lower),
    // The sharded fleet plane.
    layer("fleet.serve_s", "s", Lower),
    layer("fleet.resim_calls", "count", Lower),
    layer("fleet.resim_admissions_ratio", "ratio", Lower),
    layer("fleet.resim_s", "s", Lower),
    layer("fleet.self_s", "s", Lower),
    layer("fleet.thread_efficiency", "ratio", Higher),
    layer("fleet.epochs", "count", Lower),
    layer("fleet.scans_per_arrival", "count", Lower),
    // Correctness checks.
    layer("audit.s", "s", Lower),
];

/// The paper's Fig. 18 geomean STP gain of V10-Full over PMT.
pub const FIG18_STP_VS_PMT: f64 = 1.57;

/// The Fig. 18 error of a measured STP gain: its distance from the
/// paper's 1.57×, as a share of 1.57.
#[must_use]
pub fn fig18_err(stp_vs_pmt: f64) -> f64 {
    (stp_vs_pmt - FIG18_STP_VS_PMT).abs() / FIG18_STP_VS_PMT
}

/// Seconds each run of `BENCHMARK.json`'s command measures (its
/// `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--locked",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Looks up a declared metric (end-to-end or per-layer) by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// `true` for a valid metric or workload name: 1 to 64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", v10_bench::jsonio::escape(s))
}

/// Renders `BENCHMARK.json`.
#[must_use]
pub fn manifest_json() -> String {
    let list = |items: Vec<String>, indent: &str| -> String {
        let sep = format!(",\n{indent}");
        format!("[\n{indent}{}\n  ]", items.join(&sep))
    };
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let paths: Vec<String> = PATHS.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|k| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(k.name()),
                quoted(k.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound.unwrap_or_default()
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        paths.join(", "),
        list(workloads, "    "),
        list(end_to_end, "    "),
        list(per_layer, "    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                valid_unit(m.unit),
                "invalid unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for k in Kind::ALL {
            assert!(
                k.why().len() <= 200 && !k.why().contains('\n'),
                "{}",
                k.name()
            );
        }
    }

    #[test]
    fn name_validity_rules() {
        assert!(valid_name("core.ns_per_event"));
        assert!(valid_name("serve-openloop"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("Gcyc/s") && valid_unit("%") && valid_unit("1/Mcyc"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }
}
