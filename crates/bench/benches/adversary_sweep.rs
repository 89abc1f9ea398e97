//! adversary_sweep — the seeded adversarial scenario engine under the full
//! runtime oracle.
//!
//! Every case of every [`ScenarioProfile`] (expected / stress /
//! adversarial) is derived from one master seed, served through the
//! combined overload×fault path on every V10 design (plus disarmed PMT),
//! and replayed through the [`RuntimeAuditor`] and the named serving
//! invariants. The sweep's contract is the tentpole acceptance gate of the
//! adversarial-scenario PR: hostile tenant mixes may degrade service, but
//! no profile may break an invariant.
//!
//! On a violation the bench does not just fail — it hands the scenario to
//! the [`PropertyHarness`], shrinks it to minimal knobs (tenant count,
//! arrival horizon, fault-event prefix, all seed-derived), prints the
//! minimized [`ReproFixture`] JSON ready to check in under
//! `tests/fixtures/adversary/`, and exits 1.
//!
//! Machine-readable output: `BENCH_adversary.json` (override with
//! `V10_BENCH_JSON_OUT`), schema `v10-adversary/1`: per-case
//! control-plane activity (overload entries, degradations, starvation
//! detections, capped-boost re-queues, shed requests, faults injected)
//! and the oracle verdict — deterministic fields only, so the committed
//! artifact is gated by a plain git diff; wall clock appears only in the
//! printed table.
//!
//! Knobs: `V10_BENCH_SEED` (master scenario seed), `V10_BENCH_SMOKE=1`
//! (V10Full only — the bounded budget CI runs), `V10_BENCH_THREADS`
//! (ignored; each case serves sequentially to keep the digests the
//! reference ordering).

use std::time::Duration;

use v10_bench::jsonio::{self, Json};
use v10_bench::serving::smoke;
use v10_bench::timing::measure;
use v10_bench::{print_table, seed};
use v10_core::{
    audit_serve_stressed, Admission, AdmissionSchedule, Design, OverloadController, OverloadPolicy,
    PropertyHarness, RunOptions, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_sim::{FaultPlan, ReproFixture, V10Result};
use v10_workloads::{AdversaryCase, AdversaryGen, AdversaryScenario, ScenarioProfile};

/// Schema identifier of `BENCH_adversary.json`.
const SCHEMA: &str = "v10-adversary/1";

/// One served (case, design) cell.
struct SweepPoint {
    case: AdversaryCase,
    design: Design,
    wall: Duration,
    tenants: usize,
    overload_entries: u64,
    degradations: u64,
    starvations: u64,
    boost_requeues: u64,
    shed_requests: u64,
    faults_injected: u64,
    violations: Vec<String>,
}

fn controller_for(design: Design) -> OverloadController {
    if design == Design::Pmt {
        OverloadController::disarmed()
    } else {
        OverloadController::armed(OverloadPolicy)
    }
}

/// Serves every core of a scenario under the full oracle; accumulates
/// control-plane stats across cores.
fn serve_scenario(design: Design, scenario: &AdversaryScenario) -> V10Result<(SweepPoint, ())> {
    let cores = scenario.fault_plans().len().max(1);
    let opts = RunOptions::new(2)?
        .with_seed(7)
        .with_table_capacity(scenario.table_slots())?;
    let cfg = NpuConfig::table5();
    let mut point = SweepPoint {
        case: scenario.case(),
        design,
        wall: Duration::ZERO,
        tenants: scenario.arrivals().len(),
        overload_entries: 0,
        degradations: 0,
        starvations: 0,
        boost_requeues: 0,
        shed_requests: 0,
        faults_injected: 0,
        violations: Vec::new(),
    };
    for core in 0..cores {
        let mut admissions = Vec::new();
        for (i, (a, p)) in scenario
            .arrivals()
            .iter()
            .zip(scenario.priorities())
            .enumerate()
        {
            if i % cores != core {
                continue;
            }
            let spec = WorkloadSpec::new(a.shared_label(), a.source().clone()).with_priority(*p)?;
            admissions.push(Admission::new(spec, a.at_cycles(), a.requests())?);
        }
        if admissions.is_empty() {
            continue;
        }
        let schedule = AdmissionSchedule::new(admissions)?;
        let plan = scenario
            .fault_plans()
            .get(core)
            .cloned()
            .unwrap_or_else(FaultPlan::none);
        let (result, wall) = measure(|| {
            audit_serve_stressed(
                design,
                &schedule,
                &cfg,
                &opts,
                &plan,
                controller_for(design),
            )
        });
        let (report, violations) = result?;
        point.wall += wall;
        let s = report.overload_stats();
        point.overload_entries += s.overload_entries();
        point.degradations += s.degradations();
        point.starvations += s.starvations();
        point.boost_requeues += s.boost_requeues();
        point.shed_requests += s.shed_requests();
        point.faults_injected += report.faults_injected();
        point
            .violations
            .extend(violations.into_iter().map(|v| format!("core {core}: {v}")));
    }
    Ok((point, ()))
}

/// Shrinks a violating case to minimal knobs and returns the repro
/// fixture JSON plus the shrink evaluation count.
fn shrink_violation(
    gen: &AdversaryGen,
    case: AdversaryCase,
    design: Design,
) -> V10Result<Option<(String, usize)>> {
    let report = PropertyHarness::new().shrink(gen.default_knobs(case), |knobs| {
        let scenario = gen.scenario(case, knobs)?;
        Ok(serve_scenario(design, &scenario)?.0.violations)
    })?;
    Ok(report.map(|r| {
        let fixture = ReproFixture::new(gen.master_seed(), case.profile().label(), case.label())
            .with_knobs(r.minimal())
            .with_invariant(
                r.violations()
                    .first()
                    .and_then(|v| v.split(':').next())
                    .unwrap_or("unknown"),
            );
        (fixture.to_json(), r.evaluations())
    }))
}

fn render_json(points: &[SweepPoint], designs: &[Design]) -> String {
    let clean = points.iter().filter(|p| p.violations.is_empty()).count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"master_seed\": {},\n", seed()));
    out.push_str(&format!("  \"designs\": {},\n", designs.len()));
    out.push_str(&format!("  \"cases\": {},\n", AdversaryCase::ALL.len()));
    out.push_str(&format!("  \"cells\": {},\n", points.len()));
    out.push_str(&format!("  \"clean_cells\": {clean},\n"));
    out.push_str("  \"points\": [\n");
    // Wall clock stays out of the artifact on purpose: every field here
    // is deterministic, so ci.sh can gate the committed file with a plain
    // git diff.
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"profile\": \"{}\", \"case\": \"{}\", \"design\": \"{:?}\", \
             \"tenants\": {}, \"overload_entries\": {}, \
             \"degradations\": {}, \"starvations\": {}, \"boost_requeues\": {}, \
             \"shed_requests\": {}, \"faults_injected\": {}, \"violations\": {}}}{}\n",
            p.case.profile().label(),
            p.case.label(),
            p.design,
            p.tenants,
            p.overload_entries,
            p.degradations,
            p.starvations,
            p.boost_requeues,
            p.shed_requests,
            p.faults_injected,
            p.violations.len(),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Validates a rendered artifact; returns the clean-cell count.
fn validate_artifact(doc: &Json) -> Result<usize, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("\"schema\" is {schema:?}, want {SCHEMA:?}"));
    }
    for field in ["master_seed", "designs", "cases", "cells", "clean_cells"] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field {field:?}"))?;
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"points\"")?;
    if points.is_empty() {
        return Err("\"points\" is empty".to_string());
    }
    for (i, p) in points.iter().enumerate() {
        for field in ["profile", "case", "design"] {
            p.get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("points[{i}]: missing string {field:?}"))?;
        }
        for field in [
            "tenants",
            "overload_entries",
            "degradations",
            "starvations",
            "boost_requeues",
            "shed_requests",
            "faults_injected",
            "violations",
        ] {
            let v = p
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("points[{i}]: missing numeric {field:?}"))?;
            if v.is_nan() || v < 0.0 {
                return Err(format!("points[{i}]: {field} = {v} is invalid"));
            }
        }
    }
    let cells = doc.get("cells").and_then(Json::as_num).unwrap_or(0.0);
    let clean = doc
        .get("clean_cells")
        .and_then(Json::as_num)
        .unwrap_or(-1.0);
    if clean != cells {
        return Err(format!(
            "{} of {} cells violated the oracle",
            cells - clean,
            cells
        ));
    }
    Ok(clean as usize)
}

fn main() {
    let designs: &[Design] = if smoke() {
        &[Design::V10Full]
    } else {
        &Design::ALL
    };
    let gen = AdversaryGen::new(seed());

    let mut points: Vec<SweepPoint> = Vec::new();
    let mut dirty: Vec<(AdversaryCase, Design)> = Vec::new();
    for profile in ScenarioProfile::ALL {
        for &case in profile.cases() {
            let scenario = gen
                .scenario(case, &gen.default_knobs(case))
                .expect("seeded scenario generation is infallible at default knobs");
            for &design in designs {
                let (point, ()) = serve_scenario(design, &scenario).expect("scenario serves");
                if !point.violations.is_empty() {
                    dirty.push((case, design));
                }
                points.push(point);
            }
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.case.profile().label().to_string(),
                p.case.label().to_string(),
                format!("{:?}", p.design),
                format!("{}", p.tenants),
                format!("{:.4}", p.wall.as_secs_f64()),
                format!("{}", p.overload_entries),
                format!("{}", p.degradations),
                format!("{}", p.starvations),
                format!("{}", p.boost_requeues),
                format!("{}", p.shed_requests),
                format!("{}", p.faults_injected),
                if p.violations.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{} VIOLATIONS", p.violations.len())
                },
            ]
        })
        .collect();
    print_table(
        &format!(
            "Adversarial scenario sweep — master seed {}, {} cases x {} design(s), full oracle",
            seed(),
            AdversaryCase::ALL.len(),
            designs.len()
        ),
        &[
            "Profile", "Case", "Design", "Tenants", "Wall (s)", "Entries", "Degr", "Starv",
            "Requeue", "Shed", "Faults", "Oracle",
        ],
        &rows,
    );

    let rendered = render_json(&points, designs);
    let out_path = std::env::var("V10_BENCH_JSON_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_adversary.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &rendered).expect("write artifact");
    println!("Wrote {out_path}.");

    if dirty.is_empty() {
        validate_artifact(&jsonio::parse(&rendered).expect("rendered artifact parses"))
            .expect("rendered artifact passes its own schema");
        println!(
            "All {} cells served clean under the RuntimeAuditor and the serving invariants.",
            points.len()
        );
        return;
    }

    // A violation escaped the regression suite: shrink it to a minimal,
    // seed-replayable repro before failing, so the fix starts from a
    // checked-in fixture rather than a 9-tenant scenario dump.
    for (case, design) in &dirty {
        eprintln!(
            "adversary_sweep: VIOLATION in {}/{:?}; shrinking...",
            case.label(),
            design
        );
        match shrink_violation(&gen, *case, *design) {
            Ok(Some((fixture, evaluations))) => {
                eprintln!(
                    "minimized in {evaluations} evaluations; \
                     check this fixture in under tests/fixtures/adversary/:"
                );
                eprintln!("{fixture}");
            }
            Ok(None) => eprintln!(
                "the violation did not reproduce under the shrinker \
                 (non-deterministic oracle? fix that first)"
            ),
            Err(e) => eprintln!("shrinking failed: {e}"),
        }
    }
    std::process::exit(1);
}
