//! Adversary hunt: seeded hostile scenarios, a fuzz oracle, and shrinking.
//!
//! One master seed deterministically derives a whole adversarial serving
//! scenario — here `arp-gaming`: a priority-16 VIP that paces its own
//! requests to register as starved at the watchdog's priority cap while
//! gamers pad their traces with idle ops. The scenario is served through
//! the combined overload×fault path with the RuntimeAuditor attached,
//! then a historical-bug predicate is handed to the PropertyHarness,
//! which binary-searches the scenario down to minimal knobs and prints
//! the seed-replayable repro fixture — the exact JSON checked in under
//! `tests/fixtures/adversary/`.
//!
//! ```sh
//! cargo run --release --example adversary_hunt
//! ```

use v10::core::{
    audit_serve_stressed, Admission, AdmissionSchedule, Design, OverloadController, OverloadPolicy,
    PropertyHarness, RunOptions, WorkloadSpec,
};
use v10::npu::NpuConfig;
use v10::sim::{ReproFixture, ScenarioKnobs, V10Result};
use v10::workloads::{AdversaryCase, AdversaryGen, ScenarioProfile};

const MASTER_SEED: u64 = 42;

/// Serves the arp-gaming scenario at the given knobs on one core and
/// returns its overload stats plus any oracle violations.
fn serve(gen: &AdversaryGen, knobs: &ScenarioKnobs) -> V10Result<(u64, u64, u64, Vec<String>)> {
    let scenario = gen.scenario(AdversaryCase::ArpGaming, knobs)?;
    let mut admissions = Vec::new();
    for (a, p) in scenario.arrivals().iter().zip(scenario.priorities()) {
        let spec = WorkloadSpec::new(a.shared_label(), a.source().clone()).with_priority(*p)?;
        admissions.push(Admission::new(spec, a.at_cycles(), a.requests())?);
    }
    let schedule = AdmissionSchedule::new(admissions)?;
    let opts = RunOptions::new(2)?
        .with_seed(7)
        .with_table_capacity(scenario.table_slots())?;
    let (report, violations) = audit_serve_stressed(
        Design::V10Full,
        &schedule,
        &NpuConfig::table5(),
        &opts,
        &scenario.fault_plans()[0],
        OverloadController::armed(OverloadPolicy),
    )?;
    let s = report.overload_stats();
    Ok((s.starvations(), s.boosts(), s.boost_requeues(), violations))
}

fn main() {
    let gen = AdversaryGen::new(MASTER_SEED);

    println!("Profiles and their seeded cases:");
    for profile in ScenarioProfile::ALL {
        let cases: Vec<&str> = profile.cases().iter().map(|c| c.label()).collect();
        println!("  {:<12} {}", profile.label(), cases.join(", "));
    }

    // Serve the full adversarial case under the oracle.
    let initial = gen.default_knobs(AdversaryCase::ArpGaming);
    let (starv, boosts, requeues, violations) = serve(&gen, &initial).unwrap();
    println!(
        "\narp-gaming at default knobs ({} tenants): {} starvation detections, \
         {} boosts, {} capped-boost re-queues, oracle {}",
        initial.tenants,
        starv,
        boosts,
        requeues,
        if violations.is_empty() {
            "clean".to_string()
        } else {
            format!("{violations:?}")
        }
    );

    // The historical predicate: detections fire but every boost hits the
    // priority cap. Before the re-queue fix this was a silent no-op; the
    // harness shrinks the scenario that exhibits it to minimal knobs.
    println!("\nShrinking against the watchdog-cap predicate...");
    let report = PropertyHarness::new()
        .shrink(initial, |knobs| {
            let (starv, boosts, _, _) = serve(&gen, knobs)?;
            if starv > 0 && boosts == 0 {
                Ok(vec![format!(
                    "watchdog-no-silent-drop: {starv} detections, every boost capped"
                )])
            } else {
                Ok(Vec::new())
            }
        })
        .unwrap()
        .expect("the default arp-gaming scenario trips the predicate");

    for step in report.trace() {
        println!(
            "  {:<12} tenants {:>2}  horizon {:>10.0}  fault-prefix {}  -> {}",
            step.dimension,
            step.candidate.tenants,
            step.candidate.horizon_cycles,
            step.candidate.fault_prefix,
            if step.violated { "violates" } else { "passes" }
        );
    }
    println!(
        "\nMinimal repro after {} evaluations: {} tenants, horizon {:.0}, fault prefix {}.",
        report.evaluations(),
        report.minimal().tenants,
        report.minimal().horizon_cycles,
        report.minimal().fault_prefix
    );

    let fixture = ReproFixture::new(
        MASTER_SEED,
        ScenarioProfile::Adversarial.label(),
        AdversaryCase::ArpGaming.label(),
    )
    .with_knobs(report.minimal())
    .with_invariant("watchdog-no-silent-drop");
    println!("\nSeed-replayable fixture:\n{}", fixture.to_json());
}
