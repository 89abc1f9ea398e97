//! The adversarial scenario sweep: every seeded profile served through the
//! combined overload×fault path under the full oracle (RuntimeAuditor +
//! FleetConservation + the named serving invariants), byte-identically
//! across thread pools, with the property harness shrinking any violation
//! to a minimal seed-replayable repro.
//!
//! Checked-in fixtures under `tests/fixtures/adversary/` are historical
//! violations found during development, minimized by the harness; each
//! replays here as an ordinary regression test.

use v10_core::{
    audit_serve_stressed, run_digest, Admission, AdmissionSchedule, Design, FleetConservation,
    OverloadController, OverloadPolicy, PropertyHarness, RunOptions, ShrinkKnobs, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_sim::{parallel_map_with, FaultPlan, ReproFixture, V10Result};
use v10_workloads::{
    AdversaryCase, AdversaryGen, AdversaryScenario, ScenarioKnobs, ScenarioProfile,
};

/// The sweep's master seed: every scenario, digest, and fixture in this
/// suite derives from it.
const MASTER_SEED: u64 = 42;

/// One core's admission schedule from a scenario's round-robin tenant
/// partition, or `None` when the partition leaves the core empty.
fn core_schedule(
    scenario: &AdversaryScenario,
    core: usize,
    cores: usize,
) -> V10Result<Option<AdmissionSchedule>> {
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
        let spec = WorkloadSpec::new(a.label(), a.trace().clone()).with_priority(*p)?;
        admissions.push(Admission::new(spec, a.at_cycles(), a.requests())?);
    }
    if admissions.is_empty() {
        return Ok(None);
    }
    Ok(Some(AdmissionSchedule::new(admissions)?))
}

fn controller_for(design: Design) -> OverloadController {
    if design == Design::Pmt {
        // PMT has no priority mechanism for the ladder; it runs the same
        // scenarios with the controller disarmed.
        OverloadController::disarmed()
    } else {
        OverloadController::armed(OverloadPolicy::default())
    }
}

/// Serves every core of a scenario through the audited combined path and
/// returns `(violations, digest)`. The oracle is the full stack: per-core
/// RuntimeAuditor + named invariants, plus cross-core FleetConservation
/// for armed runs.
fn serve_scenario(
    design: Design,
    scenario: &AdversaryScenario,
) -> V10Result<(Vec<String>, Vec<u64>)> {
    let cores = scenario.fault_plans().len().max(1);
    let opts = RunOptions::new(2)?
        .with_seed(7)
        .with_table_capacity(scenario.table_slots())?;
    let cfg = NpuConfig::table5();
    let mut violations = Vec::new();
    let mut digest = Vec::new();
    let mut reports = Vec::new();
    for core in 0..cores {
        let Some(schedule) = core_schedule(scenario, core, cores)? else {
            continue;
        };
        let plan = scenario
            .fault_plans()
            .get(core)
            .cloned()
            .unwrap_or_else(FaultPlan::none);
        let (report, core_violations) = audit_serve_stressed(
            design,
            &schedule,
            &cfg,
            &opts,
            &plan,
            controller_for(design),
        )?;
        violations.extend(
            core_violations
                .into_iter()
                .map(|v| format!("core {core}: {v}")),
        );
        digest.push(core as u64);
        digest.extend(run_digest(&report));
        reports.push(report);
    }

    if controller_for(design).is_armed() {
        // Cross-core conservation: every tenant the partition offered must
        // be hosted by exactly one core or shed by its controller.
        let hosted: usize = reports.iter().map(|r| r.workloads().len()).sum();
        let offered = scenario.arrivals().len();
        let mut fleet = FleetConservation::new();
        fleet.record_flow(offered, hosted, offered - hosted);
        for (core, report) in reports.iter().enumerate() {
            fleet.record_core(core, report);
        }
        fleet.reconcile();
        violations.extend(fleet.violations().iter().map(|v| format!("fleet: {v}")));
    }
    Ok((violations, digest))
}

/// Every profile, every case, every design: the full oracle must come back
/// clean. This is the tentpole acceptance gate — adversarial tenants may
/// degrade service, but never break an invariant.
#[test]
fn every_profile_serves_clean_under_the_full_oracle() {
    let gen = AdversaryGen::new(MASTER_SEED);
    for profile in ScenarioProfile::ALL {
        for &case in profile.cases() {
            let scenario = gen.scenario(case, &gen.default_knobs(case)).unwrap();
            for design in Design::ALL {
                let (violations, _) = serve_scenario(design, &scenario).unwrap();
                assert!(
                    violations.is_empty(),
                    "{}/{} under {design:?}: {violations:#?}",
                    profile.label(),
                    case.label(),
                );
            }
        }
    }
}

/// The adversarial sweep exercises the control plane, not just survives
/// it: across the full case set the ladder must enter overload, degrade,
/// and the watchdog must detect (and re-queue, post-fix) starvation.
#[test]
fn the_sweep_actually_stresses_the_control_plane() {
    let gen = AdversaryGen::new(MASTER_SEED);
    let mut entries = 0u64;
    let mut degradations = 0u64;
    let mut starvations = 0u64;
    let mut boost_requeues = 0u64;
    let mut faults = 0u64;
    for &case in AdversaryCase::ALL.iter() {
        let scenario = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        let cores = scenario.fault_plans().len().max(1);
        let opts = RunOptions::new(2)
            .unwrap()
            .with_seed(7)
            .with_table_capacity(scenario.table_slots())
            .unwrap();
        for core in 0..cores {
            let Some(schedule) = core_schedule(&scenario, core, cores).unwrap() else {
                continue;
            };
            let plan = scenario.fault_plans()[core].clone();
            let (report, _) = audit_serve_stressed(
                Design::V10Full,
                &schedule,
                &NpuConfig::table5(),
                &opts,
                &plan,
                OverloadController::armed(OverloadPolicy::default()),
            )
            .unwrap();
            let s = report.overload_stats();
            entries += s.overload_entries();
            degradations += s.degradations();
            starvations += s.starvations();
            boost_requeues += s.boost_requeues();
            faults += report.faults_injected();
        }
    }
    assert!(entries >= 3, "ladder never entered overload: {entries}");
    assert!(degradations >= 20, "ladder barely degraded: {degradations}");
    assert!(starvations >= 1, "watchdog never fired: {starvations}");
    assert!(
        boost_requeues >= 1,
        "no capped boost was re-queued: {boost_requeues}"
    );
    assert!(faults >= 10, "fault plans barely injected: {faults}");
}

/// Byte-identity across worker pools: serving the full case set on 1, 2,
/// and 4 threads must produce bit-for-bit identical digests, per case.
#[test]
fn adversary_sweep_is_bit_identical_across_thread_pools() {
    let gen = AdversaryGen::new(MASTER_SEED);
    let digest_of = |case: AdversaryCase| -> Vec<u64> {
        let scenario = gen.scenario(case, &gen.default_knobs(case)).unwrap();
        serve_scenario(Design::V10Full, &scenario).unwrap().1
    };
    let cases = AdversaryCase::ALL;
    let sequential = parallel_map_with(1, &cases, |&c| digest_of(c));
    assert!(sequential.iter().all(|d| !d.is_empty()));

    for threads in [2usize, 4] {
        let parallel = parallel_map_with(threads, &cases, |&c| digest_of(c));
        for ((seq, par), case) in sequential.iter().zip(&parallel).zip(cases) {
            assert_eq!(
                seq,
                par,
                "{} digest diverged on a {threads}-thread pool",
                case.label()
            );
        }
    }
}

/// The historical watchdog-cap predicate: starvation detections with zero
/// boosts — before the re-queue fix, those detections were dropped
/// silently. Post-fix the signature is still observable (that is what
/// makes the repro replayable), the difference being `boost_requeues > 0`
/// instead of nothing.
fn watchdog_capped_silently(knobs: &ShrinkKnobs) -> V10Result<Vec<String>> {
    let gen = AdversaryGen::new(MASTER_SEED);
    let sk = ScenarioKnobs::new(knobs.tenants, knobs.horizon_cycles, knobs.fault_prefix)?;
    let scenario = gen.scenario(AdversaryCase::ArpGaming, &sk)?;
    let opts = RunOptions::new(2)?
        .with_seed(7)
        .with_table_capacity(scenario.table_slots())?;
    let schedule = core_schedule(&scenario, 0, 1)?.expect("at least one tenant");
    let (report, _) = audit_serve_stressed(
        Design::V10Full,
        &schedule,
        &NpuConfig::table5(),
        &opts,
        &scenario.fault_plans()[0],
        OverloadController::armed(OverloadPolicy::default()),
    )?;
    let s = report.overload_stats();
    if s.starvations() > 0 && s.boosts() == 0 {
        Ok(vec![format!(
            "watchdog-no-silent-drop: {} starvation detections, every boost capped",
            s.starvations()
        )])
    } else {
        Ok(Vec::new())
    }
}

/// End-to-end shrink: the arp-gaming case violates the historical
/// watchdog-cap predicate at its default knobs, and the harness minimizes
/// it to the checked-in single-tenant fixture — deterministically.
#[test]
fn watchdog_cap_violation_shrinks_to_the_checked_in_fixture() {
    let gen = AdversaryGen::new(MASTER_SEED);
    let defaults = gen.default_knobs(AdversaryCase::ArpGaming);
    let initial = ShrinkKnobs {
        tenants: defaults.tenants,
        horizon_cycles: defaults.horizon_cycles,
        fault_prefix: defaults.fault_prefix,
    };
    let harness = PropertyHarness::new();
    let report = harness
        .shrink(initial, watchdog_capped_silently)
        .unwrap()
        .expect("the default arp-gaming scenario must trip the predicate");
    // Three tenants is the true minimum under the round-robin mix: the
    // cap-gaming VIP, one padded gamer, and one dense honest tenant that
    // absorbs the rung-1 demotion the VIP would otherwise take. At two
    // tenants the VIP is the hoggiest live tenant, gets demoted off the
    // cap, and the predicate no longer fires — the harness probes 2,
    // sees it pass, and keeps 3.
    assert_eq!(report.minimal().tenants, 3, "VIP + gamer + honest shield");
    assert_eq!(report.minimal().fault_prefix, 0);
    assert!(report.minimal().horizon_cycles < defaults.horizon_cycles);
    assert!(!report.budget_exhausted());

    let again = harness
        .shrink(initial, watchdog_capped_silently)
        .unwrap()
        .unwrap();
    assert_eq!(report, again, "shrinking must be deterministic");

    let fixture = ReproFixture::new(
        MASTER_SEED,
        ScenarioProfile::Adversarial.label(),
        AdversaryCase::ArpGaming.label(),
    )
    .with_knobs(
        report.minimal().tenants,
        report.minimal().horizon_cycles,
        report.minimal().fault_prefix,
    )
    .with_invariant("watchdog-no-silent-drop");
    let checked_in = include_str!("fixtures/adversary/arp-gaming-watchdog-cap.json");
    assert_eq!(
        fixture.to_json(),
        checked_in,
        "the minimized repro drifted from the checked-in fixture; \
         regenerate tests/fixtures/adversary/arp-gaming-watchdog-cap.json"
    );
}

/// Every checked-in fixture replays: the scenario regenerates bit-exactly
/// from the fixture's seed and knobs, still exhibits the condition that
/// motivated it (capped starvation detections), and serves clean under the
/// current oracle — the fix holds.
#[test]
fn checked_in_fixtures_replay_clean() {
    let fixtures = [include_str!(
        "fixtures/adversary/arp-gaming-watchdog-cap.json"
    )];
    for text in fixtures {
        let fixture = ReproFixture::parse(text).unwrap();
        assert_eq!(fixture.to_json(), text, "fixture must round-trip");
        let case = AdversaryCase::from_label(fixture.case()).unwrap();
        assert_eq!(case.profile().label(), fixture.profile());
        let gen = AdversaryGen::new(fixture.master_seed());
        let knobs = ScenarioKnobs::new(
            fixture.tenants(),
            fixture.horizon_cycles(),
            fixture.fault_prefix(),
        )
        .unwrap();
        let scenario = gen.scenario(case, &knobs).unwrap();
        let (violations, _) = serve_scenario(Design::V10Full, &scenario).unwrap();
        assert!(
            violations.is_empty(),
            "{} regressed: {violations:#?}",
            fixture.invariant()
        );

        // The condition that motivated the fixture is still present: the
        // watchdog hits the cap, and the fix turns the former silent drop
        // into a queued retry.
        let opts = RunOptions::new(2)
            .unwrap()
            .with_seed(7)
            .with_table_capacity(scenario.table_slots())
            .unwrap();
        let schedule = core_schedule(&scenario, 0, 1).unwrap().unwrap();
        let (report, _) = audit_serve_stressed(
            Design::V10Full,
            &schedule,
            &NpuConfig::table5(),
            &opts,
            &scenario.fault_plans()[0],
            OverloadController::armed(OverloadPolicy::default()),
        )
        .unwrap();
        let s = report.overload_stats();
        assert!(s.starvations() > 0, "fixture no longer starves anyone");
        assert_eq!(s.boosts(), 0, "fixture no longer pins the cap");
        assert!(s.boost_requeues() > 0, "the re-queue fix regressed");
    }
}
