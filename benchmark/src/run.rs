//! The runner: interleaved set-ups and timed passes, the traced
//! pass, the correctness gate, and the metrics each workload reports.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::metrics::{fig18_err, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, Quartiles};
use crate::trace::Tracer;
use crate::workloads::{self, ratio, Kind, Scale, Summary, Traced, Workload};

/// The set-up spans each workload records, and the per-layer metric each
/// one feeds.
const SETUP_LAYERS: [(&str, &str); 4] = [
    ("workloads.sample", "workloads.sample_s"),
    ("core.schedule", "core.schedule_s"),
    ("collocate.fit", "collocate.fit_s"),
    ("core.refs", "core.refs_s"),
];

const MIB: f64 = 1024.0 * 1024.0;

/// When the timed passes stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After this many rounds (each runs every workload once).
    Reps(usize),
    /// After the first round that ends this many seconds after the passes
    /// began.
    Seconds(f64),
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workloads, interleaved in this order.
    pub kinds: Vec<Kind>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Length of the timed phase.
    pub stop: Stop,
    /// Whether to run the traced pass.
    pub trace: bool,
}

/// One workload's results.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub kind: Kind,
    /// Timed passes run.
    pub passes: usize,
    /// Library calls made by the timed passes.
    pub attempted: u64,
    /// Library calls that returned an error.
    pub failed: u64,
    /// Every end-to-end metric, in declaration order.
    pub end_to_end: Vec<(&'static MetricDef, Quartiles)>,
    /// Every per-layer metric, in declaration order; empty when untraced.
    pub per_layer: Vec<(&'static MetricDef, f64)>,
    /// Request latency samples behind `p50_mcyc` and `p99_mcyc`.
    pub latency_samples: usize,
    /// Share of the traced pass's wall time covered by its timed calls.
    pub coverage: Option<f64>,
    /// Correctness violations; empty means the gate passed.
    pub violations: Vec<String>,
}

impl WorkloadResult {
    /// The end-to-end metric named `name`.
    #[must_use]
    pub fn end_to_end(&self, name: &str) -> Option<Quartiles> {
        self.end_to_end
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, q)| q)
    }

    /// The per-layer metric named `name`.
    #[must_use]
    pub fn per_layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }
}

/// A workload's state across the phases of a run.
struct State {
    kind: Kind,
    workload: Option<Box<dyn Workload>>,
    setup_s: Vec<f64>,
    setup_layers: BTreeMap<&'static str, Vec<f64>>,
    first: Option<Summary>,
    wall_s: Vec<f64>,
    gcyc_per_s: Vec<f64>,
    heap_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl State {
    fn new(kind: Kind) -> Self {
        State {
            kind,
            workload: None,
            setup_s: Vec::new(),
            setup_layers: BTreeMap::new(),
            first: None,
            wall_s: Vec::new(),
            gcyc_per_s: Vec::new(),
            heap_mb: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    /// One timed set-up. Every round starts with one, so the set-up
    /// samples spread over the run as the passes do; the first round's
    /// inputs are kept, later ones are timed and dropped.
    fn setup(&mut self, round: usize, cfg: &RunConfig, tr: &mut Tracer) {
        if round > 0 && self.workload.is_none() {
            return;
        }
        let kind = self.kind;
        let from = tr.spans().len();
        let start = Instant::now();
        let prepared = tr.span(kind.name(), |tr| {
            tr.span("setup", |tr| {
                workloads::setup(kind, cfg.seed, cfg.scale, tr)
            })
        });
        self.setup_s.push(start.elapsed().as_secs_f64());
        match prepared {
            Ok(w) if round == 0 => self.workload = Some(w),
            Ok(_) => {}
            Err(e) => {
                self.violations.push(format!("set-up {round} failed: {e}"));
                self.workload = None;
                return;
            }
        }
        for (span, metric) in SETUP_LAYERS {
            self.setup_layers
                .entry(metric)
                .or_default()
                .push(tr.seconds(from, span));
        }
    }

    /// One untraced pass: only the library calls are inside the timed
    /// interval; checking happens after it.
    fn pass(&mut self, round: usize) {
        let Some(w) = self.workload.as_deref() else {
            return;
        };
        let baseline = alloc::reset_peak();
        let start = Instant::now();
        let outputs = w.pass();
        let wall = start.elapsed().as_secs_f64();
        let peak = alloc::peak_bytes().saturating_sub(baseline);
        self.attempted += w.calls_per_pass();
        let outputs = match outputs {
            Ok(outputs) => outputs,
            Err(e) => {
                self.failed += w.calls_per_pass();
                self.violations.push(format!("pass {round} failed: {e}"));
                self.workload = None;
                return;
            }
        };
        let summary = w.summarize(&outputs);
        self.wall_s.push(wall);
        self.gcyc_per_s
            .push(summary.simulated_cycles / wall / 1.0e9);
        self.heap_mb.push(peak as f64 / MIB);
        match &self.first {
            None => {
                self.violations.extend(summary.violations.iter().cloned());
                self.first = Some(summary);
            }
            Some(first) if first.digest != summary.digest => self.violations.push(format!(
                "pass {round}: outputs differ from the first pass's"
            )),
            Some(_) => {}
        }
    }

    /// The traced pass and the per-layer metrics it yields.
    fn traced(&mut self, tr: &mut Tracer) -> (Vec<(&'static MetricDef, f64)>, Option<f64>) {
        let (Some(w), Some(first)) = (self.workload.as_deref(), self.first.as_ref()) else {
            return (Vec::new(), None);
        };
        let root = tr.spans().len();
        let result = tr.span(self.kind.name(), |tr| {
            tr.span("traced_pass", |tr| {
                let traced = w.traced_pass(tr)?;
                let summary = tr.span("audit", |_| w.summarize(&traced.outputs));
                v10_core::V10Result::Ok((traced, summary))
            })
        });
        let (traced, summary) = match result {
            Ok(r) => r,
            Err(e) => {
                self.violations.push(format!("traced pass failed: {e}"));
                return (Vec::new(), None);
            }
        };
        if summary.digest != first.digest {
            self.violations
                .push("traced pass: outputs differ from the untraced passes'".to_owned());
        }
        self.violations.extend(traced.violations.iter().cloned());
        let pass = root + 1;
        let coverage = tr.child_seconds(pass) / tr.spans()[pass].seconds();
        (
            self.layer_metrics(&traced, &summary, tr, root),
            Some(coverage),
        )
    }

    fn layer_metrics(
        &mut self,
        traced: &Traced,
        summary: &Summary,
        tr: &Tracer,
        from: usize,
    ) -> Vec<(&'static MetricDef, f64)> {
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for (&metric, samples) in &self.setup_layers {
            m.insert(metric, median(samples).unwrap_or(0.0));
        }
        let c = &traced.counter;
        let completed = summary.completed_requests as f64;
        let events = c.total() as f64;
        let serve_s = tr.seconds(from, "core.serve");
        let allocations: u64 = tr.named(from, "core.serve").map(|s| s.allocations).sum();
        let mut busy = 0.0;
        let mut switch = 0.0;
        let mut replay = 0.0;
        let mut preemptions = 0u64;
        let mut replays = 0u64;
        let mut faults = 0u64;
        let (mut degradations, mut entered, mut boosts, mut shed) = (0u64, 0u64, 0u64, 0u64);
        for r in traced.outputs.reports() {
            busy += r.sa_busy_cycles() + r.vu_busy_cycles();
            switch += r.switch_overhead_cycles();
            replay += r.replay_overhead_cycles();
            faults += r.faults_injected();
            let s = r.overload_stats();
            degradations += s.degradations();
            entered += s.overload_entries();
            boosts += s.boosts();
            shed += s.shed_requests();
            for wl in r.workloads() {
                preemptions += wl.preemptions();
                replays += wl.replays();
            }
        }
        let counts = [
            ("core.serve_calls", tr.count(from, "core.serve") as f64),
            ("core.serve_s", serve_s),
            ("core.events", events),
            ("core.op_issued", c.op_issued() as f64),
            ("core.op_preempted", c.op_preempted() as f64),
            ("core.ctx_switches", c.ctx_switch_started() as f64),
            ("core.dma_ready", c.dma_ready() as f64),
            ("core.timer_ticks", c.timer_tick() as f64),
            ("core.tenant_admitted", c.tenant_admitted() as f64),
            ("core.admission_rejected", c.admission_rejected() as f64),
            ("core.ns_per_event", ratio(serve_s * 1.0e9, events)),
            ("core.events_per_request", ratio(events, completed)),
            (
                "core.allocs_per_request",
                ratio(allocations as f64, completed),
            ),
            (
                "core.timer_tick_share",
                ratio(c.timer_tick() as f64, events),
            ),
            (
                "core.preemptions_per_request",
                ratio(preemptions as f64, completed),
            ),
            ("core.switch_overhead_frac", ratio(switch, busy)),
            (
                "core.trace_overhead",
                ratio(tr.seconds(from, "core.observe"), serve_s) - 1.0,
            ),
            ("overload.degradations", degradations as f64),
            ("overload.entered", entered as f64),
            ("overload.boosts", boosts as f64),
            ("overload.shed", shed as f64),
            ("fault.injected", faults as f64),
            ("fault.replays", replays as f64),
            ("fault.replay_overhead_frac", ratio(replay, busy)),
            ("audit.s", tr.seconds(from, "audit")),
        ];
        m.extend(counts);
        if let Some(stp) = summary.stp_vs_pmt {
            m.insert("core.stp_vs_pmt", stp);
            m.insert("core.fig18_err", fig18_err(stp));
        }
        m.extend(traced.extra.iter().copied());
        // Every declared metric; a layer that did not run reports 0.
        let out = PER_LAYER
            .iter()
            .map(|d| (d, m.remove(d.name).unwrap_or(0.0)))
            .collect();
        for name in m.keys() {
            self.violations
                .push(format!("per-layer metric {name} is not declared"));
        }
        out
    }

    fn finish(
        mut self,
        per_layer: Vec<(&'static MetricDef, f64)>,
        coverage: Option<f64>,
    ) -> WorkloadResult {
        let sim = self.first.take().unwrap_or_default();
        let passes = self.wall_s.len();
        let exact = |v: f64| Quartiles {
            q1: v,
            median: v,
            q3: v,
            n: passes,
        };
        let latency = |f: fn(&v10_sim::LatencySummary) -> f64| {
            exact(sim.latency.as_ref().map_or(0.0, f) / 1.0e6)
        };
        let quartiles = |xs: &[f64]| Quartiles::of(xs).unwrap_or_else(|| exact(0.0));
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                let q = match d.name {
                    "setup_s" => quartiles(&self.setup_s),
                    "wall_s" => quartiles(&self.wall_s),
                    "sim_gcyc_per_s" => quartiles(&self.gcyc_per_s),
                    "peak_heap_mb" => quartiles(&self.heap_mb),
                    "served_frac" => exact(sim.served_frac()),
                    "p50_mcyc" => latency(v10_sim::LatencySummary::p50),
                    "p99_mcyc" => latency(v10_sim::LatencySummary::p99),
                    "goodput_per_mcyc" => exact(sim.goodput_per_mcyc()),
                    other => unreachable!("end-to-end metric {other} has no measurement"),
                };
                (d, q)
            })
            .collect();
        for (d, q) in &end_to_end {
            if ![q.q1, q.median, q.q3].iter().all(|v| v.is_finite()) {
                self.violations.push(format!("{} is not finite", d.name));
            }
        }
        for (d, v) in &per_layer {
            if !v.is_finite() {
                self.violations.push(format!("{} is not finite", d.name));
            }
        }
        WorkloadResult {
            kind: self.kind,
            passes,
            attempted: self.attempted,
            failed: self.failed,
            end_to_end,
            per_layer,
            latency_samples: sim
                .latency
                .as_ref()
                .map_or(0, v10_sim::LatencySummary::count),
            coverage,
            violations: self.violations,
        }
    }
}

/// Runs the benchmark: rounds that each set up and then pass every
/// workload once, until `cfg.stop`, then (if asked) one traced pass per
/// workload. Set-up and traced spans land in `tr`.
#[must_use]
pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Vec<WorkloadResult> {
    let mut states: Vec<State> = cfg.kinds.iter().map(|&k| State::new(k)).collect();
    let start = Instant::now();
    let mut round = 0;
    loop {
        for st in &mut states {
            st.setup(round, cfg, tr);
        }
        if states.iter().all(|s| s.workload.is_none()) {
            break;
        }
        for st in &mut states {
            st.pass(round);
        }
        round += 1;
        let done = match cfg.stop {
            Stop::Reps(n) => round >= n,
            Stop::Seconds(s) => start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
    states
        .into_iter()
        .map(|mut st| {
            let (per_layer, coverage) = if cfg.trace {
                st.traced(tr)
            } else {
                (Vec::new(), None)
            };
            st.finish(per_layer, coverage)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use v10_core::{CounterObserver, V10Error, V10Result};

    use super::*;
    use crate::workloads::Outputs;

    /// A workload whose digest and failure are scripted per pass.
    struct Scripted {
        pass: Cell<u64>,
        digests: Vec<u64>,
        fail_at: Option<u64>,
    }

    impl Workload for Scripted {
        fn calls_per_pass(&self) -> u64 {
            3
        }

        fn pass(&self) -> V10Result<Outputs> {
            let n = self.pass.get();
            self.pass.set(n + 1);
            if self.fail_at == Some(n) {
                return Err(V10Error::invalid("scripted", "failure"));
            }
            Ok(Outputs::Core(Vec::new()))
        }

        fn traced_pass(&self, _: &mut Tracer) -> V10Result<Traced> {
            let outputs = self.pass()?;
            Ok(Traced {
                outputs,
                counter: CounterObserver::new(),
                extra: Vec::new(),
                violations: Vec::new(),
            })
        }

        fn summarize(&self, _: &Outputs) -> Summary {
            let n = self.pass.get() as usize - 1;
            Summary {
                digest: vec![self.digests[n.min(self.digests.len() - 1)]],
                ..Summary::default()
            }
        }
    }

    fn state(digests: Vec<u64>, fail_at: Option<u64>) -> State {
        let mut st = State::new(Kind::ServeOpenLoop);
        st.workload = Some(Box::new(Scripted {
            pass: Cell::new(0),
            digests,
            fail_at,
        }));
        st.setup_s.push(0.1);
        st
    }

    #[test]
    fn identical_passes_pass_the_gate() {
        let mut st = state(vec![7], None);
        for round in 0..3 {
            st.pass(round);
        }
        let (layers, _) = st.traced(&mut Tracer::new());
        let r = st.finish(layers, None);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!((r.passes, r.attempted, r.failed), (3, 9, 0));
        assert_eq!(r.per_layer.len(), PER_LAYER.len());
    }

    #[test]
    fn a_pass_that_differs_fails_the_gate() {
        let mut st = state(vec![7, 7, 8], None);
        for round in 0..3 {
            st.pass(round);
        }
        let r = st.finish(Vec::new(), None);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("pass 2"));
    }

    #[test]
    fn a_traced_pass_that_differs_fails_the_gate() {
        let mut st = state(vec![7, 7, 9], None);
        st.pass(0);
        st.pass(1);
        let (layers, _) = st.traced(&mut Tracer::new());
        let r = st.finish(layers, None);
        assert!(r.violations.iter().any(|v| v.contains("traced pass")));
    }

    #[test]
    fn a_failed_call_is_counted_and_stops_the_workload() {
        let mut st = state(vec![7], Some(1));
        for round in 0..3 {
            st.pass(round);
        }
        let r = st.finish(Vec::new(), None);
        assert_eq!((r.passes, r.attempted, r.failed), (1, 6, 3));
        assert!(r.violations[0].contains("pass 1 failed"));
    }
}
