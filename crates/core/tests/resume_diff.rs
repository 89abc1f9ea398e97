//! Differential property test for resumable core runs.
//!
//! A [`CoreRun`] can stop at a fence and resume once more admissions and
//! scripted faults, all dated at or after that fence, have been handed
//! over. The promise is that the split run is bit-identical to one that
//! was handed everything up front and finished. This test checks it the
//! way `spine_diff.rs` checks the event spine: seeded random admission
//! schedules and fault plans (transient, stall and `CoreRetire`) run
//! through all four designs, with an armed overload controller on the V10
//! designs, once unsplit (every admission pushed before the first step)
//! and split two ways: at 1–4 fences, and by the serving path
//! ([`serve_design_stressed_observed`]), which hands each admission over
//! at its own instant. Every admission and scripted fault dated at or
//! after a fence is pushed only after the run has reached that fence.
//!
//! The fences are aimed at the awkward instants, read off the unsplit
//! run's own event stream: exactly on an arrival, a preemption-timer tick
//! or an event; within `EPS` (10⁻⁶ cycles) of an arrival or an event;
//! inside a PMT context switch, which carries the run past the fence; and
//! inside an idle gap of 10–100 slices that a fresh arrival closes, where
//! an idle V10-Full core replays its timer ticks. Some cases push a
//! `CoreRetire` exactly on the last fence, after the run has reached it;
//! the serving path knows that fault up front, so it retires the core
//! with admissions not yet handed over, which it must turn away as the
//! unsplit run turns its pending ones away.
//!
//! A second test serves sampled sessions whose admissions carry the
//! sampler's recipes, so the core builds each trace when it seats the
//! tenancy, split the same ways, and compares them with the unsplit run
//! of the same admissions on traces built up front.
//!
//! Oracle: `run_digest` and the full recorded event stream equal the
//! unsplit run's. In debug builds (how `cargo test` runs) every step also
//! cross-checks the event spine (`debug_validate_spine`).

use v10_core::{
    run_digest, serve_design_stressed_observed, Admission, AdmissionSchedule, CoreRun, Design,
    FaultEvent, FaultKind, FaultPlan, OverloadController, OverloadPolicy, RunOptions, SimEvent,
    SimObserver, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_sim::{Cycles, SimRng};
use v10_workloads::{MmppProcess, Model};

/// Records the complete event stream.
#[derive(Default)]
struct Recorder {
    events: Vec<SimEvent>,
}

impl SimObserver for Recorder {
    fn on_event(&mut self, event: SimEvent) {
        self.events.push(event);
    }
}

const MODELS: [Model; 4] = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];

/// Arrivals land in `[0, HORIZON)`; scripted faults in `[1e6, HORIZON)`.
const HORIZON: f64 = 1.5e7;

/// Half the engines' simultaneity slack: a fence this close to an event
/// is "within EPS" of it.
const HALF_EPS: f64 = 5e-7;

/// One random case: the admissions, the faults known up front (a Poisson
/// transient stream, compiled at construction), the scripted faults, and
/// the fences to split at.
#[derive(Clone)]
struct Case {
    admissions: Vec<Admission>,
    poisson_seed: Option<u64>,
    scripted: Vec<FaultEvent>,
    fences: Vec<f64>,
    opts: RunOptions,
}

fn random_admissions(rng: &mut SimRng) -> Vec<Admission> {
    let tenants = 2 + rng.index(11);
    (0..tenants)
        .map(|i| {
            let model = MODELS[rng.index(MODELS.len())];
            let trace = model
                .default_profile()
                .synthesize(rng.uniform_u64(1, 1 << 20));
            let spec = WorkloadSpec::new(format!("t{i}"), trace)
                .with_priority(rng.uniform(0.5, 4.0))
                .expect("positive priority");
            let at = if rng.index(6) == 0 {
                0.0
            } else {
                rng.uniform(0.0, HORIZON)
            };
            Admission::new(spec, at, 1 + rng.index(3)).expect("valid random admission")
        })
        .collect()
}

/// The admissions of a sampled flash-crowd stream of 2–12 sessions with
/// random priorities, each carrying its session's recipe.
fn sampled_admissions(rng: &mut SimRng) -> Vec<Admission> {
    let process = MmppProcess::flash_crowd(&MODELS, 1.5e6, 4.0, 4.0e6, rng.next_u64())
        .expect("valid flash crowd")
        .with_requests_per_session(1 + rng.index(3))
        .expect("non-zero quota")
        .with_think_cycles(2.0e5)
        .expect("non-negative think time");
    process
        .sample(2 + rng.index(11))
        .expect("non-zero session count")
        .iter()
        .map(|a| {
            let spec = WorkloadSpec::new(a.shared_label(), a.source().clone())
                .with_priority(rng.uniform(0.5, 4.0))
                .expect("positive priority");
            Admission::new(spec, a.at_cycles(), a.requests()).expect("valid sampled admission")
        })
        .collect()
}

/// `admissions` with every trace built up front.
fn built(admissions: &[Admission]) -> Vec<Admission> {
    admissions
        .iter()
        .map(|a| {
            let spec = WorkloadSpec::new(a.spec().label(), a.spec().trace())
                .with_priority(a.spec().priority())
                .expect("positive priority");
            Admission::new(spec, a.at_cycles(), a.requests()).expect("valid admission")
        })
        .collect()
}

/// A random case with no fences yet.
fn random_case(rng: &mut SimRng) -> Case {
    let admissions = random_admissions(rng);
    let mut scripted = Vec::new();
    for _ in 0..rng.index(3) {
        let at = rng.uniform(1.0e6, HORIZON);
        let kind = if rng.index(2) == 0 {
            FaultKind::TransientOp {
                victim_salt: rng.uniform_u64(0, u64::MAX - 1),
            }
        } else {
            FaultKind::CoreStall {
                stall_cycles: rng.uniform(1.0e4, 2.0e5),
            }
        };
        scripted.push(FaultEvent::new(at, kind).expect("valid scripted fault"));
    }
    let poisson_seed = (rng.index(3) > 0).then(|| rng.uniform_u64(0, u64::MAX - 1));
    let opts = RunOptions::new(2)
        .expect("non-zero request count")
        .with_seed(rng.uniform_u64(1, 1 << 30))
        .with_table_capacity(2 + rng.index(3))
        .expect("non-zero capacity");
    Case {
        admissions,
        poisson_seed,
        scripted,
        fences: Vec::new(),
        opts,
    }
}

/// Adds 1–4 fences to `case`, aimed at the instants of `events` (the
/// unfenced run's event stream) as well as at random ones: exactly on an
/// arrival, a timer tick or an event; within `EPS` of an arrival or an
/// event, either side; inside a context-switch window, with a fresh
/// arrival later in the window (a PMT switch carries the run past such a
/// fence); and inside an idle gap of 10–100 slices after the run's last
/// event, closed by a fresh arrival (an idle V10-Full core replays its
/// timer ticks there). Sometimes also retires the core exactly on the
/// last fence, pushed after the run has reached it; nothing can be pushed
/// after a retirement, so it is always the last fence.
fn add_fences(rng: &mut SimRng, case: &mut Case, events: &[SimEvent]) {
    let slice = NpuConfig::table5().time_slice_cycles() as f64;
    let arrival = |rng: &mut SimRng, case: &Case| {
        case.admissions[rng.index(case.admissions.len())].at_cycles()
    };
    for _ in 0..1 + rng.index(4) {
        let event = (!events.is_empty()).then(|| events[rng.index(events.len())]);
        let fence = match (rng.index(8), event) {
            (1, _) => arrival(rng, case),
            (2, _) => slice * rng.uniform_u64(1, 400) as f64,
            (3, Some(e)) => e.at(),
            (4, Some(e)) => (e.at() + rng.uniform(-HALF_EPS, HALF_EPS)).max(0.0),
            (5, _) => (arrival(rng, case) + rng.uniform(-HALF_EPS, HALF_EPS)).max(0.0),
            (6, _) => {
                let windows: Vec<(f64, f64)> = events
                    .iter()
                    .filter_map(|e| match *e {
                        SimEvent::CtxSwitchStarted {
                            cost_cycles, at, ..
                        } => Some((at, cost_cycles)),
                        _ => None,
                    })
                    .collect();
                if windows.is_empty() {
                    rng.uniform(0.0, HORIZON)
                } else {
                    let (at, cost) = windows[rng.index(windows.len())];
                    let donor = case.admissions[rng.index(case.admissions.len())].clone();
                    let late = Admission::new(donor.spec().clone(), at + cost * 0.5, 1)
                        .expect("valid late admission");
                    case.admissions.push(late);
                    at + cost * 0.25
                }
            }
            (7, _) => {
                let end = events.last().map_or(0.0, |e| e.at());
                let gap = slice * rng.uniform_u64(10, 101) as f64;
                let donor = case.admissions[rng.index(case.admissions.len())].clone();
                let late = Admission::new(donor.spec().clone(), end + gap, 1)
                    .expect("valid late admission");
                case.admissions.push(late);
                end + rng.uniform(0.0, gap)
            }
            _ => rng.uniform(0.0, HORIZON),
        };
        case.fences.push(fence);
    }
    case.fences.sort_by(f64::total_cmp);
    if rng.index(3) == 0 {
        if let Some(&last) = case.fences.last() {
            case.scripted
                .push(FaultEvent::new(last, FaultKind::CoreRetire).expect("valid retire"));
        }
    }
}

/// The plan holding the faults known up front: the Poisson stream, plus
/// `scripted` in order.
fn plan(poisson_seed: Option<u64>, scripted: &[FaultEvent]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for f in scripted {
        plan = plan
            .with_fault(f.at_cycles(), f.kind())
            .expect("valid scripted fault");
    }
    if let Some(seed) = poisson_seed {
        plan = plan
            .with_poisson_transients(seed, 5.0e6, 3.0e7)
            .expect("valid transient stream");
    }
    plan
}

fn controller(design: Design) -> OverloadController {
    if design == Design::Pmt {
        OverloadController::disarmed()
    } else {
        OverloadController::armed(OverloadPolicy)
    }
}

/// Index of the last fence at or before `at`, or `None` before the first.
fn group_of(fences: &[f64], at: f64) -> Option<usize> {
    fences.iter().rposition(|&f| f <= at)
}

/// Runs `case` split at its fences: what is dated before the first fence
/// is handed over up front, the rest right after the run reaches the last
/// fence at or before its date.
fn split_run(design: Design, case: &Case) -> (v10_core::RunReport, Recorder) {
    let cfg = NpuConfig::table5();
    let upfront: Vec<FaultEvent> = case
        .scripted
        .iter()
        .copied()
        .filter(|f| group_of(&case.fences, f.at_cycles()).is_none())
        .collect();
    let mut rec = Recorder::default();
    let mut run = CoreRun::new(
        design,
        &cfg,
        &case.opts,
        &plan(case.poisson_seed, &upfront),
        controller(design),
        &mut rec,
    )
    .expect("valid run");
    // The schedule's stable time order is the order pushes must follow.
    let schedule =
        AdmissionSchedule::new(case.admissions.clone()).expect("non-empty random schedule");
    let in_group = |g: Option<usize>| {
        let admissions: Vec<Admission> = schedule
            .entries()
            .iter()
            .filter(|a| group_of(&case.fences, a.at_cycles()) == g)
            .cloned()
            .collect();
        let faults: Vec<FaultEvent> = case
            .scripted
            .iter()
            .copied()
            .filter(|f| group_of(&case.fences, f.at_cycles()) == g)
            .collect();
        (admissions, faults)
    };
    let (admissions, _) = in_group(None);
    for a in admissions {
        run.push(a).expect("admission before the first fence");
    }
    for (k, &fence) in case.fences.iter().enumerate() {
        run.run_until(Cycles::new(fence)).expect("valid fence");
        let (admissions, faults) = in_group(Some(k));
        for a in admissions {
            run.push(a).expect("admission at or after the fence");
        }
        for f in faults {
            run.push_fault(f).expect("fault at or after the fence");
        }
    }
    let report = run.finish().expect("valid split run");
    (report, rec)
}

/// The unfenced run under `plan`: every admission of `case` pushed, in
/// the schedule's stable time order, before the first step, then
/// finished.
fn push_all_run(design: Design, case: &Case, plan: &FaultPlan) -> (v10_core::RunReport, Recorder) {
    let schedule =
        AdmissionSchedule::new(case.admissions.clone()).expect("non-empty random schedule");
    let mut rec = Recorder::default();
    let mut run = CoreRun::new(
        design,
        &NpuConfig::table5(),
        &case.opts,
        plan,
        controller(design),
        &mut rec,
    )
    .expect("valid run");
    for a in schedule.entries() {
        run.push(a.clone())
            .expect("admission before the first fence");
    }
    let report = run.finish().expect("valid unsplit run");
    (report, rec)
}

/// The unfenced run: `case` handed over whole and finished.
fn unsplit_run(design: Design, case: &Case) -> (v10_core::RunReport, Recorder) {
    push_all_run(design, case, &plan(case.poisson_seed, &case.scripted))
}

/// The serving path: `case`'s schedule served with every fault known up
/// front, each admission handed over at its own instant.
fn served_run(design: Design, case: &Case) -> (v10_core::RunReport, Recorder) {
    let schedule =
        AdmissionSchedule::new(case.admissions.clone()).expect("non-empty random schedule");
    let mut rec = Recorder::default();
    let report = serve_design_stressed_observed(
        design,
        &schedule,
        &NpuConfig::table5(),
        &case.opts,
        &plan(case.poisson_seed, &case.scripted),
        controller(design),
        &mut rec,
    )
    .expect("valid served run");
    (report, rec)
}

/// Asserts that `other`'s report and event stream equal the unsplit
/// run's.
fn assert_same_run(
    what: &str,
    (unsplit, rec): (&v10_core::RunReport, &Recorder),
    (other, other_rec): (&v10_core::RunReport, &Recorder),
) {
    if let Some(i) = (0..rec.events.len().min(other_rec.events.len()))
        .find(|&i| rec.events[i] != other_rec.events[i])
    {
        panic!(
            "{what}: event {i} diverged: unsplit {:?} vs {:?}",
            rec.events[i], other_rec.events[i]
        );
    }
    assert_eq!(
        rec.events.len(),
        other_rec.events.len(),
        "{what}: event count diverged"
    );
    assert_eq!(
        run_digest(unsplit),
        run_digest(other),
        "{what}: report digest diverged"
    );
}

#[test]
fn split_runs_equal_unsplit_runs_bit_for_bit() {
    let (mut retired, mut served_unpushed, mut carried, mut between_ticks) = (0, 0, 0, 0);
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from(0x5E5E ^ (seed << 8));
        let base = random_case(&mut rng);
        for design in Design::ALL {
            let mut case = base.clone();
            let (_, probe) = unsplit_run(design, &case);
            add_fences(&mut rng, &mut case, &probe.events);
            let (unsplit, rec) = unsplit_run(design, &case);
            let (split, split_rec) = split_run(design, &case);
            let fences = &case.fences;
            assert_same_run(
                &format!("seed {seed} {design} split at {fences:?}"),
                (&unsplit, &rec),
                (&split, &split_rec),
            );
            let (served, served_rec) = served_run(design, &case);
            assert_same_run(
                &format!("seed {seed} {design} served"),
                (&unsplit, &rec),
                (&served, &served_rec),
            );
            if let Some(at) = unsplit.core_retired_at() {
                retired += 1;
                // The serving path retired the core before handing over
                // the admissions dated after it.
                if case.admissions.iter().any(|a| a.at_cycles() > at) {
                    served_unpushed += 1;
                }
            }
            // A fence inside a PMT context switch: the switch carried
            // the run past it.
            if design == Design::Pmt
                && rec.events.iter().any(|e| match *e {
                    SimEvent::CtxSwitchStarted {
                        cost_cycles, at, ..
                    } => fences.iter().any(|&f| at < f && f < at + cost_cycles),
                    _ => false,
                })
            {
                carried += 1;
            }
            // A fence between two consecutive timer ticks, as inside the
            // idle stretches V10-Full replays tick by tick.
            if design == Design::V10Full
                && rec.events.windows(2).any(|pair| match *pair {
                    [SimEvent::TimerTick { at: a }, SimEvent::TimerTick { at: b }] => {
                        fences.iter().any(|&f| a < f && f < b)
                    }
                    _ => false,
                })
            {
                between_ticks += 1;
            }
        }
    }
    assert!(retired > 0, "some cases must retire the core on a fence");
    assert!(
        served_unpushed > 0,
        "some served cases must retire the core before their last admission"
    );
    assert!(carried > 0, "some fences must land inside a PMT switch");
    assert!(
        between_ticks > 0,
        "some fences must land between two consecutive V10-Full ticks"
    );
}

/// Recipes change nothing: sampled admissions carrying recipes, split at
/// fences and served at their own instants, equal the unsplit run of the
/// same admissions with their traces built up front, under every design.
#[test]
fn recipe_runs_split_at_fences_equal_built_runs() {
    let mut seated = 0;
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(0x2EC1 ^ (seed << 8));
        let mut base = random_case(&mut rng);
        base.admissions = sampled_admissions(&mut rng);
        for design in Design::ALL {
            let mut case = base.clone();
            let (_, probe) = unsplit_run(design, &case);
            add_fences(&mut rng, &mut case, &probe.events);
            let mut on_built = case.clone();
            on_built.admissions = built(&case.admissions);
            let (unsplit, rec) = unsplit_run(design, &on_built);
            seated += unsplit.workloads().len();
            let (split, split_rec) = split_run(design, &case);
            let fences = &case.fences;
            assert_same_run(
                &format!("seed {seed} {design} recipes split at {fences:?}"),
                (&unsplit, &rec),
                (&split, &split_rec),
            );
            let (served, served_rec) = served_run(design, &case);
            assert_same_run(
                &format!("seed {seed} {design} recipes served"),
                (&unsplit, &rec),
                (&served, &served_rec),
            );
        }
    }
    assert!(seated > 100, "only {seated} tenancies seated from recipes");
}

/// A run that finished its work before the fence parks there: handing it
/// nothing more and finishing reports the same instant as never fencing.
#[test]
fn a_parked_run_finishes_where_an_unfenced_run_does() {
    let cfg = NpuConfig::table5();
    let case = random_case(&mut SimRng::seed_from(7));
    let schedule =
        AdmissionSchedule::new(case.admissions.clone()).expect("non-empty random schedule");
    for design in Design::ALL {
        let (unfenced, _) = push_all_run(design, &case, &FaultPlan::none());
        let mut run = CoreRun::new(
            design,
            &cfg,
            &case.opts,
            &FaultPlan::none(),
            controller(design),
            Recorder::default(),
        )
        .expect("valid run");
        for a in schedule.entries() {
            run.push(a.clone()).expect("admission before the fence");
        }
        let far = unfenced.elapsed_cycles() * 4.0 + 1.0e6;
        run.run_until(Cycles::new(far)).expect("valid fence");
        run.run_until(Cycles::new(far * 2.0)).expect("valid fence");
        let parked = run.finish().expect("valid run");
        assert_eq!(
            parked.elapsed_cycles().to_bits(),
            unfenced.elapsed_cycles().to_bits(),
            "{design}"
        );
        assert_eq!(run_digest(&parked), run_digest(&unfenced), "{design}");
    }
}
