//! Heap-allocation census of the serving hot path.
//!
//! The container has no dhat/heaptrack, so this test is the in-repo
//! equivalent: a counting global allocator wraps `System`, a
//! representative multi-tenant serving run executes, and the test reports
//! (and bounds) how many heap allocations the run performed. The bounds
//! are regression ratchets for the event-spine refactor — per-step
//! allocations in `step()` loops (temporary collects, label clones,
//! per-admission trace clones) multiply by the hundreds of thousands of
//! steps in a serving run, so a ceiling per completed request keeps them
//! from creeping back.
//!
//! Counting calls does not bound memory: a buffer that doubles takes a
//! logarithmic number of allocations however large it grows. So the
//! allocator also keeps the live heap and its high-water mark, and two
//! memory gates bound how much a run's peak heap may grow: a closed-loop
//! run's with its request count, and an open-loop serve's with its
//! session count. A third gate bounds the bytes requested per tenancy
//! when a core is handed one admission per fence, as the fleet plane
//! feeds its cores, and a fourth bounds the heap a sampled arrival
//! stream holds per session: its recipes, not its traces. And the
//! engine's event counts and event order on the census schedules are
//! pinned exactly, so a change that adds, drops or reorders an engine
//! step fails without a wall clock. All of these counts are
//! exact: they repeat run to run and no host load moves them.
//!
//! Run with `--nocapture` to see the census.

// A counting global allocator is unavoidably `unsafe`; this test crate is
// the one sanctioned exception to the workspace-wide `unsafe_code = "deny"`
// (the allocator only forwards to `System` and bumps atomics).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use v10_core::{
    run_design, serve_design, serve_design_stressed, serve_design_stressed_observed, Admission,
    AdmissionSchedule, CoreRun, CounterObserver, Design, FaultPlan, NullObserver,
    OverloadController, OverloadPolicy, RunOptions, RunReport, SimEvent, SimObserver,
    WorkloadReport, WorkloadSpec,
};
use v10_isa::{FuKind, OpDesc, RequestTrace};
use v10_npu::NpuConfig;
use v10_sim::Cycles;
use v10_workloads::{Model, OpenLoopProcess, TimedArrival};

struct CountingAllocator;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run: the counters are process-wide,
/// and the test harness runs tests on parallel threads.
static CENSUS: Mutex<()> = Mutex::new(());

/// Takes [`CENSUS`]. A gate that failed while holding it leaves nothing
/// half-measured behind, so the next test goes on.
fn census_lock() -> MutexGuard<'static, ()> {
    CENSUS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The arrival process mirrored from the sim_throughput bench: open-loop
/// Poisson arrivals over the four light models at near-saturation load.
fn process() -> OpenLoopProcess {
    let models = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];
    OpenLoopProcess::new(&models, 3.5e6, 2023 ^ 0x7)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(3)
        .expect("positive session quota")
        .with_think_cycles(2.5e5)
        .expect("non-negative think time")
}

/// How a census schedule carries its tenants' traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traces {
    /// Built while the schedule is made, before any census.
    Built,
    /// The sampled recipes, built by the core when it seats each tenancy.
    Recipes,
}

/// The census schedule: `tenants` arrivals of [`process`], their traces
/// carried as `traces` says.
fn schedule_with(tenants: usize, traces: Traces) -> AdmissionSchedule {
    let arrivals = process().sample(tenants).expect("non-zero arrival count");
    let spec = |a: &TimedArrival| match traces {
        Traces::Built => WorkloadSpec::new(a.label(), a.trace()),
        Traces::Recipes => WorkloadSpec::new(a.shared_label(), a.source().clone()),
    };
    let admissions: Vec<Admission> = arrivals
        .iter()
        .map(|a| {
            Admission::new(spec(a), a.at_cycles(), a.requests())
                .expect("sampled arrivals are valid admissions")
        })
        .collect();
    AdmissionSchedule::new(admissions).expect("non-empty schedule")
}

/// The census schedule with built traces.
fn schedule(tenants: usize) -> AdmissionSchedule {
    schedule_with(tenants, Traces::Built)
}

/// Allocation census of one serving run under `design`; returns
/// (allocations, bytes, completed requests).
fn census(design: Design, tenants: usize) -> (u64, u64, usize) {
    let _census = census_lock();
    let schedule = schedule(tenants);
    let opts = RunOptions::new(3)
        .expect("positive request count")
        .with_seed(2023);
    let cfg = NpuConfig::table5();
    // Warm-up run outside the census so one-time lazy setup is excluded.
    let _ = serve_design(design, &schedule, &cfg, &opts).expect("valid serving run");
    let (a0, b0) = snapshot();
    let report = serve_design(design, &schedule, &cfg, &opts).expect("valid serving run");
    let (a1, b1) = snapshot();
    (a1 - a0, b1 - b0, completed(&report))
}

#[test]
fn serving_run_allocation_census() {
    for design in Design::ALL {
        let tenants = 48;
        let (allocs, bytes, completed) = census(design, tenants);
        assert!(completed > 0, "{design}: no requests completed");
        let per_request = allocs as f64 / completed as f64;
        println!(
            "{design}: {allocs} allocations / {bytes} bytes over {completed} completed \
             requests ({per_request:.1} allocations per request)"
        );
        // Post-refactor ratchet: the event spine must not allocate per
        // step. Seat-time costs (one latency buffer, the report row's
        // percentile summary; the label is shared with the admission)
        // leave a small per-request budget; the pre-refactor spine sat at
        // ~1000-4000 allocations per request (see OPTIMIZATION_LOG.md).
        // `V10_ALLOC_CENSUS_ONLY=1` prints the census without enforcing the
        // ratchet — used to capture the before/after numbers in
        // OPTIMIZATION_LOG.md.
        if std::env::var("V10_ALLOC_CENSUS_ONLY").is_err() {
            assert!(
                per_request < 60.0,
                "{design}: {per_request:.1} allocations per completed request — the \
                 step loop is allocating again"
            );
        }
    }
}

/// Poisson transient operator faults until the last arrival of
/// `schedule`: the armed census's fault stream.
fn armed_plan(schedule: &AdmissionSchedule) -> FaultPlan {
    let horizon = schedule.entries().last().map_or(0.0, |a| a.at_cycles());
    FaultPlan::none()
        .with_poisson_transients(2023 ^ 0xfa, 4.0e6, horizon)
        .expect("valid transient stream")
}

/// Three requests per session through a 4-slot context table.
fn four_slot_opts() -> RunOptions {
    RunOptions::new(3)
        .expect("positive request count")
        .with_seed(2023)
        .with_table_capacity(4)
        .expect("positive table capacity")
}

fn armed() -> OverloadController {
    OverloadController::armed(OverloadPolicy)
}

fn completed(report: &RunReport) -> usize {
    report
        .workloads()
        .iter()
        .map(|w| w.completed_requests())
        .sum()
}

/// One armed census run: its allocations, bytes requested, completed
/// requests and seated tenancies.
#[derive(Debug, Clone, Copy)]
struct ArmedCensus {
    allocs: u64,
    bytes: u64,
    completed: usize,
    seated: usize,
}

/// The armed serving path: a 4-slot table under an armed overload
/// controller (queue-on-full parking, the degradation ladder, the
/// watchdog) and Poisson transient operator faults, so parking, fault
/// replay and the overload tick all run. Counts one run after a warm-up.
fn armed_census(tenants: usize, traces: Traces) -> ArmedCensus {
    let _census = census_lock();
    let schedule = schedule_with(tenants, traces);
    let plan = armed_plan(&schedule);
    let opts = four_slot_opts();
    let cfg = NpuConfig::table5();
    let serve = || {
        serve_design_stressed(Design::V10Full, &schedule, &cfg, &opts, &plan, armed())
            .expect("valid armed serving run")
    };
    let _ = serve();
    let (a0, b0) = snapshot();
    let report = serve();
    let (a1, b1) = snapshot();
    assert!(report.faults_injected() > 0, "the fault stream never fired");
    ArmedCensus {
        allocs: a1 - a0,
        bytes: b1 - b0,
        completed: completed(&report),
        seated: report.workloads().len(),
    }
}

/// Allocations per completed request the armed step loop stays under.
const ARMED_ALLOCS_PER_REQUEST: f64 = 2.0;

#[test]
fn armed_serving_run_allocation_census() {
    let ArmedCensus {
        allocs,
        bytes,
        completed,
        ..
    } = armed_census(48, Traces::Built);
    assert!(completed > 0, "armed run completed no requests");
    let per_request = allocs as f64 / completed as f64;
    println!(
        "V10-Full armed: {allocs} allocations / {bytes} bytes over {completed} completed \
         requests ({per_request:.1} allocations per request)"
    );
    // Census ratchet: parking moves the admission instead of cloning its
    // label, a transient fault picks its victim without collecting the
    // occupied slots, and the watchdog's sorted vectors keep their
    // buffers across sense ticks, and a tenancy's state lives in its
    // context-table slot's entry, so the armed step loop allocates only
    // per tenancy (its latency buffer and its percentile summary; the
    // label is shared with the admission) plus amortized buffer growth.
    // It reads 1.1 (136 allocations over 120 requests).
    if std::env::var("V10_ALLOC_CENSUS_ONLY").is_err() {
        assert!(
            per_request < ARMED_ALLOCS_PER_REQUEST,
            "V10-Full armed: {per_request:.1} allocations per completed request — the \
             armed step loop is allocating again"
        );
    }
}

/// The armed census served from recipes: the core builds each tenancy's
/// trace when it seats it, into exactly one allocation (the operator
/// slice; the length buffers are reused), so the run allocates exactly one
/// more time per seated tenancy than the same run on built traces, and
/// completes the same requests.
#[test]
fn armed_recipe_serving_builds_each_trace_in_one_allocation() {
    let built = armed_census(48, Traces::Built);
    let recipes = armed_census(48, Traces::Recipes);
    let per_request = recipes.allocs as f64 / recipes.completed as f64;
    println!(
        "V10-Full armed from recipes: {} allocations / {} bytes over {} completed requests \
         ({per_request:.1} allocations per request; {} seatings)",
        recipes.allocs, recipes.bytes, recipes.completed, recipes.seated
    );
    assert_eq!(
        recipes.completed, built.completed,
        "recipes serve the same run"
    );
    assert_eq!(
        recipes.seated, built.seated,
        "recipes seat the same tenancies"
    );
    assert_eq!(
        recipes.allocs,
        built.allocs + recipes.seated as u64,
        "each seating from a recipe allocates once more than from a built trace"
    );
    if std::env::var("V10_ALLOC_CENSUS_ONLY").is_err() {
        assert!(
            per_request < ARMED_ALLOCS_PER_REQUEST,
            "V10-Full armed from recipes: {per_request:.1} allocations per completed request"
        );
    }
}

/// Runs `f` and returns its result with the heap high-water mark it
/// reached above the live heap when it began. Call with `CENSUS` held.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(start, Ordering::Relaxed);
    let out = f();
    (
        out,
        PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(start),
    )
}

/// Heap a closed-loop run may hold beyond what its request count sets:
/// the tenancy state, the engine's buffers and the report's fixed parts.
/// unit: bytes.
const RUN_HEAP_SLACK: usize = 16 * 1024;

/// Peak heap of one closed-loop run of `specs` under `design`, above the
/// live heap when it began, and the bytes its latency storage may reach:
/// three `f64`s per completed request, for the latency vector, the slack
/// a doubling buffer keeps, and the sorted copy the report's percentiles
/// take.
fn closed_loop_peak(design: Design, specs: &[WorkloadSpec], requests: usize) -> (usize, usize) {
    let opts = RunOptions::new(requests)
        .expect("positive request count")
        .with_seed(2023);
    let cfg = NpuConfig::table5();
    let (report, peak) =
        peak_above_start(|| run_design(design, specs, &cfg, &opts).expect("valid closed-loop run"));
    let latency_bytes = report
        .workloads()
        .iter()
        .map(|w| 3 * w.completed_requests() * std::mem::size_of::<f64>())
        .sum();
    (peak, latency_bytes)
}

/// The memory gate: a closed-loop pair's peak heap at 1,024 requests per
/// tenant exceeds its peak at 64 requests by no more than the latency
/// storage plus [`RUN_HEAP_SLACK`], under every design. Per-run memory
/// tracks the live tenancies; nothing grows with the operators executed.
#[test]
fn closed_loop_peak_heap_grows_only_with_latency_storage() {
    let _census = census_lock();
    let specs = closed_loop_pair();
    for design in Design::ALL {
        // Warm-up outside the measurement, so one-time set-up is excluded.
        let _ = closed_loop_peak(design, &specs, 64);
        let (small, _) = closed_loop_peak(design, &specs, 64);
        let (large, latency_bytes) = closed_loop_peak(design, &specs, 1024);
        let growth = large.saturating_sub(small);
        println!(
            "{design}: peak heap {small} B at 64 requests, {large} B at 1024 \
             (growth {growth} B; latency storage {latency_bytes} B)"
        );
        assert!(
            growth <= latency_bytes + RUN_HEAP_SLACK,
            "{design}: peak heap grew {growth} B from 64 to 1024 requests per tenant, \
             more than the {latency_bytes} B of latency storage plus {RUN_HEAP_SLACK} B"
        );
    }
}

/// The MNIST+NCF pair the closed-loop memory gate runs.
fn closed_loop_pair() -> [WorkloadSpec; 2] {
    [Model::Mnist, Model::Ncf]
        .map(|m| WorkloadSpec::new(m.abbrev(), m.default_profile().synthesize(2023)))
}

/// What one observed run's event stream counts: every event, the
/// preemption-timer ticks among them, the requests completed, and an
/// order-sensitive digest of the whole stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventCounts {
    events: u64,
    timer_ticks: u64,
    completed: usize,
    order: u64,
}

/// Counts an event stream and folds each event, in emission order, into
/// an FNV-1a digest of its `Debug` text: the variant's name and every
/// field, ids and cycle stamps alike. `f64`'s `Debug` prints the shortest
/// text that parses back to the same bits, so two streams digest alike
/// only if they carry the same events, with the same ids and the same
/// `at` bits, in the same order.
struct OrderDigest {
    counter: CounterObserver,
    digest: u64,
}

impl SimObserver for OrderDigest {
    fn on_event(&mut self, event: SimEvent) {
        self.counter.on_event(event);
        for byte in format!("{event:?}").bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Serves `schedule` under `design` with an [`OrderDigest`] attached.
fn event_counts(
    design: Design,
    schedule: &AdmissionSchedule,
    opts: &RunOptions,
    plan: &FaultPlan,
    controller: OverloadController,
) -> EventCounts {
    let mut observer = OrderDigest {
        counter: CounterObserver::new(),
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let report = serve_design_stressed_observed(
        design,
        schedule,
        &NpuConfig::table5(),
        opts,
        plan,
        controller,
        &mut observer,
    )
    .expect("valid observed run");
    EventCounts {
        events: observer.counter.total(),
        timer_ticks: observer.counter.timer_tick(),
        completed: completed(&report),
        order: observer.digest,
    }
}

/// The census schedules' event counts: (schedule, design, events, timer
/// ticks, completed requests, event-order digest), one row per line as
/// the test prints them, so a deliberate change can paste its re-pins.
#[rustfmt::skip]
const PINNED_EVENT_COUNTS: [(&str, Design, u64, u64, usize, u64); 9] = [
    ("open loop", Design::Pmt, 9357, 0, 81, 0x89caf6797b5d7f37),
    ("open loop", Design::V10Base, 37939, 0, 129, 0xa01c15e7a7d7a8ce),
    ("open loop", Design::V10Fair, 42173, 0, 132, 0x8be2dbc60a962b06),
    ("open loop", Design::V10Full, 59786, 6281, 129, 0xeca97d8c463c0d5b),
    ("armed", Design::V10Full, 51534, 6016, 120, 0x7ff4311abed47faf),
    ("pair", Design::Pmt, 10425, 0, 236, 0x5c13626a0fd26821),
    ("pair", Design::V10Base, 29672, 0, 298, 0xb16b4218950270a1),
    ("pair", Design::V10Fair, 29672, 0, 298, 0xb16b4218950270a1),
    ("pair", Design::V10Full, 48081, 7210, 235, 0xadcff9acf961f48d),
];

/// The exact events-per-request gate: on the census schedules (the
/// disarmed open loop under every design, the armed run with faults, and
/// the MNIST+NCF pair closed loop at 64 requests under every design) the
/// engine emits exactly the pinned number of events and timer ticks,
/// completes exactly the pinned requests, and emits its events in the
/// pinned order. A change that adds, drops or reorders an engine step
/// moves these pins, whatever the host's clock says.
#[test]
fn engine_event_counts_are_pinned() {
    // Measures no allocations, but would allocate under another gate's
    // measurement without the lock.
    let _census = census_lock();
    let open = schedule(48);
    let open_opts = RunOptions::new(3)
        .expect("positive request count")
        .with_seed(2023);
    let pair = AdmissionSchedule::closed_loop(&closed_loop_pair(), 64).expect("valid pair");
    let pair_opts = RunOptions::new(64)
        .expect("positive request count")
        .with_seed(2023)
        .with_table_capacity(2)
        .expect("positive table capacity");
    let none = FaultPlan::none();
    let mut diverged = Vec::new();
    for (name, design, events, timer_ticks, completed, order) in PINNED_EVENT_COUNTS {
        let got = match name {
            "open loop" => event_counts(
                design,
                &open,
                &open_opts,
                &none,
                OverloadController::disarmed(),
            ),
            "armed" => event_counts(
                design,
                &open,
                &four_slot_opts(),
                &armed_plan(&open),
                armed(),
            ),
            _ => event_counts(
                design,
                &pair,
                &pair_opts,
                &none,
                OverloadController::disarmed(),
            ),
        };
        println!(
            "(\"{name}\", Design::{design:?}, {}, {}, {}, {:#018x}),",
            got.events, got.timer_ticks, got.completed, got.order
        );
        let want = EventCounts {
            events,
            timer_ticks,
            completed,
            order,
        };
        if got != want {
            diverged.push(format!("{name} {design}: {got:?}, pinned {want:?}"));
        }
    }
    assert!(
        diverged.is_empty(),
        "engine event counts moved:\n{}",
        diverged.join("\n")
    );
}

/// A report's bytes for its tenancies: per tenancy, its
/// `WorkloadReport` row plus its label's and its latencies' heap bytes.
fn report_bytes(report: &RunReport) -> usize {
    report
        .workloads()
        .iter()
        .map(|w| {
            std::mem::size_of::<WorkloadReport>()
                + w.label().len()
                + std::mem::size_of_val(w.latencies_cycles())
        })
        .sum()
}

/// Peak heap of one V10-Full serve of `tenants` sessions through a
/// 4-slot table, above the live heap when it began, its report's bytes,
/// and the tenancies it seated. Armed runs take `plan`'s faults; the same
/// plan serves both sizes, so the compiled fault schedule does not grow
/// with the session count.
fn open_loop_peak(tenants: usize, plan: Option<&FaultPlan>) -> (usize, usize, usize) {
    let schedule = schedule(tenants);
    let opts = four_slot_opts();
    let cfg = NpuConfig::table5();
    let (report, peak) = peak_above_start(|| match plan {
        Some(plan) => serve_design_stressed(Design::V10Full, &schedule, &cfg, &opts, plan, armed()),
        None => serve_design(Design::V10Full, &schedule, &cfg, &opts),
    });
    let report = report.expect("valid open-loop serve");
    (peak, report_bytes(&report), report.workloads().len())
}

/// The open-loop memory gate: serving 4N Poisson sessions through a
/// 4-slot table peaks above serving N by no more than the extra
/// tenancies' report bytes plus [`RUN_HEAP_SLACK`], disarmed and armed
/// with faults. A serve's heap is the report it returns plus what the
/// context table holds; no per-tenancy state outlives its tenancy. The
/// serve reserves one report row per scheduled admission, so the
/// disarmed run also holds an unused row for each arrival its full
/// table turns away: about 8 KiB of the slack at these sizes.
#[test]
fn open_loop_peak_heap_grows_only_with_report_storage() {
    const N: usize = 64;
    let _census = census_lock();
    let plan = armed_plan(&schedule(N));
    for (mode, plan) in [("disarmed", None), ("armed", Some(&plan))] {
        // Warm-up outside the measurement, so one-time set-up is excluded.
        let _ = open_loop_peak(N, plan);
        let (small, small_bytes, small_seated) = open_loop_peak(N, plan);
        let (large, large_bytes, large_seated) = open_loop_peak(4 * N, plan);
        let growth = large.saturating_sub(small);
        let allowed = large_bytes.saturating_sub(small_bytes);
        let extra = large_seated.saturating_sub(small_seated).max(1) as f64;
        println!(
            "{mode}: peak heap {small} B at {N} sessions ({small_seated} seated), {large} B \
             at {} ({large_seated} seated): growth {growth} B against report bytes grown \
             {allowed} B, {:.0} B against {:.0} B per extra tenancy",
            4 * N,
            growth as f64 / extra,
            allowed as f64 / extra,
        );
        assert!(
            growth <= allowed + RUN_HEAP_SLACK,
            "{mode}: peak heap grew {growth} B from {N} to {} sessions, more than the \
             {allowed} B the extra tenancies' report rows take plus {RUN_HEAP_SLACK} B",
            4 * N
        );
    }
}

/// Bytes a core handed one admission per fence may request per tenancy:
/// its report row with the growth of the row table (a doubling table's
/// reallocations request at most four rows' worth per row), its latency
/// buffer and the percentile summary's sorted copy, and change.
/// unit: bytes.
const REQUESTED_BYTES_PER_TENANCY: u64 = 1024;

/// The per-fence census: a core handed one admission per
/// [`CoreRun::run_until`], as the fleet plane feeds its cores each epoch,
/// requests a bounded number of bytes per tenancy over 4,096 rounds. A
/// table re-reserved exactly at every fence reallocates at every round
/// and requests bytes quadratic in the rounds.
#[test]
fn one_push_per_fence_requests_bounded_bytes_per_tenancy() {
    const ROUNDS: usize = 4096;
    let _census = census_lock();
    let trace = RequestTrace::new(vec![OpDesc::builder(FuKind::Sa)
        .compute_cycles(1_000)
        .build()])
    .expect("non-empty trace");
    // Each tenant retires long before the next arrives, so every
    // admission is seated and none is turned away.
    let admissions: Vec<Admission> = (0..ROUNDS)
        .map(|k| {
            Admission::new(WorkloadSpec::new("t", trace.clone()), k as f64 * 1.0e4, 1)
                .expect("valid admission")
        })
        .collect();
    let opts = RunOptions::new(1)
        .expect("positive request count")
        .with_table_capacity(4)
        .expect("positive table capacity");
    let mut run = CoreRun::new(
        Design::V10Full,
        &NpuConfig::table5(),
        &opts,
        &FaultPlan::none(),
        OverloadController::disarmed(),
        NullObserver,
    )
    .expect("valid run");
    let (a0, b0) = snapshot();
    for admission in admissions {
        run.run_until(Cycles::new(admission.at_cycles()))
            .expect("fences move forward");
        run.push(admission).expect("admission at the fence");
    }
    let report = run.finish().expect("valid run");
    let (a1, b1) = snapshot();
    assert_eq!(
        report.workloads().len(),
        ROUNDS,
        "every admission is seated"
    );
    let per_tenancy = (b1 - b0) / ROUNDS as u64;
    println!(
        "one push per fence: {} allocations / {} bytes requested over {ROUNDS} tenancies \
         ({per_tenancy} B per tenancy)",
        a1 - a0,
        b1 - b0
    );
    assert!(
        per_tenancy <= REQUESTED_BYTES_PER_TENANCY,
        "{per_tenancy} B requested per tenancy over {ROUNDS} one-push rounds, more than \
         {REQUESTED_BYTES_PER_TENANCY} B: the tenancy table reallocates at every fence"
    );
}

/// Heap a sampled arrival stream may hold per session: its arrival, its
/// shared label and its recipe, about 130 B. A stream that built its
/// sessions' traces would hold about 6 KB each.
/// unit: bytes.
const STREAM_BYTES_PER_SESSION: usize = 256;

/// Peak heap of sampling `sessions` arrivals of [`process`] and holding
/// them, above the live heap when sampling began. Call with `CENSUS` held.
fn stream_peak(sessions: usize) -> usize {
    let (arrivals, peak) =
        peak_above_start(|| process().sample(sessions).expect("non-zero arrival count"));
    assert_eq!(arrivals.len(), sessions);
    peak
}

/// The stream memory gate: sampling 8N sessions peaks above sampling N
/// by at most [`STREAM_BYTES_PER_SESSION`] per extra session. Sampling
/// runs on the calling thread, so the count is exact; trace memory
/// belongs to the tenancies a core seats, not to the stream.
#[test]
fn sampled_streams_hold_recipes_not_traces() {
    const N: usize = 512;
    let _census = census_lock();
    // Warm-up outside the measurement, so one-time set-up is excluded.
    let _ = stream_peak(N);
    let small = stream_peak(N);
    let large = stream_peak(8 * N);
    let per_session = large.saturating_sub(small) / (7 * N);
    println!(
        "sampled stream: peak heap {small} B at {N} sessions, {large} B at {}: \
         {per_session} B per extra session",
        8 * N
    );
    assert!(
        per_session <= STREAM_BYTES_PER_SESSION,
        "a sampled stream holds {per_session} B per extra session, more than \
         {STREAM_BYTES_PER_SESSION} B: sampling builds traces again"
    );
}
