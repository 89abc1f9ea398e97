//! Runs all four workloads at tiny sizes through the full correctness gate
//! and checks that the metric names a run prints are exactly the ones
//! `BENCHMARK.json` declares.

use std::collections::BTreeSet;

use v10_bench::jsonio::{self, Json};
use v10_benchmark::report;
use v10_benchmark::run::{run, RunConfig, Stop, WorkloadResult};
use v10_benchmark::trace::Tracer;
use v10_benchmark::workloads::{Kind, Scale};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    jsonio::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(manifest: &Json, key: &str) -> BTreeSet<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

fn printed(results: &[WorkloadResult], traced: bool) -> BTreeSet<String> {
    let line = report::result_line(results, traced);
    match jsonio::parse(&line).unwrap().get("metrics") {
        Some(Json::Obj(map)) => map.keys().cloned().collect(),
        _ => panic!("result line without metrics: {line}"),
    }
}

#[test]
fn every_workload_passes_the_gate_and_prints_the_declared_metrics() {
    let cfg = RunConfig {
        kinds: Kind::ALL.to_vec(),
        seed: 11,
        scale: Scale::Tiny,
        stop: Stop::Reps(2),
        trace: true,
    };
    let mut tracer = Tracer::new();
    let results = run(&cfg, &mut tracer);
    let manifest = manifest();
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    assert_eq!(results.len(), Kind::ALL.len());
    for r in &results {
        let name = r.kind.name();
        assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        assert_eq!((r.passes, r.failed), (2, 0), "{name}");
        assert!(r.attempted >= 2, "{name}");
        // Both directions: what a run prints is what the manifest declares.
        let one = std::slice::from_ref(r);
        assert_eq!(printed(one, false), end_to_end, "{name}: end-to-end names");
        assert_eq!(printed(one, true), per_layer, "{name}: per-layer names");
        let human = report::human(r, cfg.seed);
        for metric in end_to_end.iter().chain(&per_layer) {
            assert!(
                human.contains(metric.as_str()),
                "{name}: {metric} not printed"
            );
        }
        // The core layer runs everywhere; the traced calls account for the
        // traced pass.
        assert!(r.per_layer("core.events").unwrap() > 0.0, "{name}");
        assert!(r.per_layer("core.serve_s").unwrap() > 0.0, "{name}");
        assert!(r.end_to_end("wall_s").unwrap().median > 0.0, "{name}");
        assert!(r.coverage.unwrap() > 0.5, "{name}");
    }
    let layer = |kind: Kind, metric: &str| {
        results
            .iter()
            .find(|r| r.kind == kind)
            .and_then(|r| r.per_layer(metric))
            .unwrap()
    };
    assert!(layer(Kind::PairsClosedLoop, "core.stp_vs_pmt") > 0.0);
    assert!(layer(Kind::FleetFlashCrowd, "fleet.resim_calls") > 0.0);
    assert!(layer(Kind::FleetFlashCrowd, "collocate.fit_s") > 0.0);
    assert!(layer(Kind::StressedBrownout, "fault.injected") > 0.0);
    assert_eq!(layer(Kind::ServeOpenLoop, "fleet.resim_calls"), 0.0);
    // Set-up and traced spans were recorded for every workload.
    for kind in Kind::ALL {
        assert!(tracer.spans().iter().any(|s| s.name == kind.name()));
    }
    // Multi-workload result lines prefix each name with its workload.
    assert!(printed(&results, false).contains("fleet-flashcrowd/wall_s"));
}

#[test]
fn the_manifest_is_rendered_from_the_declarations() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        v10_benchmark::metrics::manifest_json(),
        "BENCHMARK.json is stale: regenerate it with `v10-benchmark manifest > BENCHMARK.json`"
    );
    let doc = manifest();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
}
