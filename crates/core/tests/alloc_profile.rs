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
//! allocator also keeps the live heap and its high-water mark, and a
//! memory gate bounds how much a closed-loop run's peak heap may grow
//! with its request count. Both counts are exact: they repeat run to run
//! and no host load moves them.
//!
//! Run with `--nocapture` to see the census.

// A counting global allocator is unavoidably `unsafe`; this test crate is
// the one sanctioned exception to the workspace-wide `unsafe_code = "deny"`
// (the allocator only forwards to `System` and bumps atomics).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use v10_core::{
    run_design, serve_design, serve_design_stressed, Admission, AdmissionSchedule, Design,
    FaultPlan, OverloadController, OverloadPolicy, RunOptions, WorkloadSpec,
};
use v10_npu::NpuConfig;
use v10_workloads::{Model, OpenLoopProcess};

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

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The serving schedule mirrored from the sim_throughput bench: open-loop
/// Poisson arrivals over the four light models at near-saturation load.
fn schedule(tenants: usize) -> AdmissionSchedule {
    let models = [Model::Mnist, Model::Dlrm, Model::Ncf, Model::EfficientNet];
    let process = OpenLoopProcess::new(&models, 3.5e6, 2023 ^ 0x7)
        .expect("positive mean inter-arrival time")
        .with_requests_per_session(3)
        .expect("positive session quota")
        .with_think_cycles(2.5e5)
        .expect("non-negative think time");
    let arrivals = process.sample(tenants).expect("non-zero arrival count");
    let admissions: Vec<Admission> = arrivals
        .iter()
        .map(|a| {
            Admission::new(
                WorkloadSpec::new(a.label(), a.trace().clone()),
                a.at_cycles(),
                a.requests(),
            )
            .expect("sampled arrivals are valid admissions")
        })
        .collect();
    AdmissionSchedule::new(admissions).expect("non-empty schedule")
}

/// Allocation census of one serving run under `design`; returns
/// (allocations, bytes, completed requests).
fn census(design: Design, tenants: usize) -> (u64, u64, usize) {
    let _census = CENSUS.lock().expect("no census panicked while measuring");
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
    let completed = report
        .workloads()
        .iter()
        .map(|w| w.completed_requests())
        .sum();
    (a1 - a0, b1 - b0, completed)
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
        // step. Seat-time costs (one latency buffer growth chain, interner
        // misses, report assembly) leave a small per-request budget; the
        // pre-refactor spine sat at ~1000-4000 allocations per request
        // (see OPTIMIZATION_LOG.md). `V10_ALLOC_CENSUS_ONLY=1` prints the
        // census without enforcing the ratchet — used to capture the
        // before/after numbers in OPTIMIZATION_LOG.md.
        if std::env::var("V10_ALLOC_CENSUS_ONLY").is_err() {
            assert!(
                per_request < 60.0,
                "{design}: {per_request:.1} allocations per completed request — the \
                 step loop is allocating again"
            );
        }
    }
}

/// The armed serving path: a 4-slot table under an armed overload
/// controller (queue-on-full parking, the degradation ladder, the
/// watchdog) and Poisson transient operator faults, so parking, fault
/// replay and the overload tick all run. Returns (allocations, bytes,
/// completed requests) of one run after a warm-up.
fn armed_census(tenants: usize) -> (u64, u64, usize) {
    let _census = CENSUS.lock().expect("no census panicked while measuring");
    let schedule = schedule(tenants);
    let horizon = schedule.entries().last().map_or(0.0, |a| a.at_cycles());
    let plan = FaultPlan::none()
        .with_poisson_transients(2023 ^ 0xfa, 4.0e6, horizon)
        .expect("valid transient stream");
    let opts = RunOptions::new(3)
        .expect("positive request count")
        .with_seed(2023)
        .with_table_capacity(4)
        .expect("positive table capacity");
    let cfg = NpuConfig::table5();
    let armed = || OverloadController::armed(OverloadPolicy::default());
    let serve = || {
        serve_design_stressed(Design::V10Full, &schedule, &cfg, &opts, &plan, armed())
            .expect("valid armed serving run")
    };
    let _ = serve();
    let (a0, b0) = snapshot();
    let report = serve();
    let (a1, b1) = snapshot();
    assert!(report.faults_injected() > 0, "the fault stream never fired");
    let completed = report
        .workloads()
        .iter()
        .map(|w| w.completed_requests())
        .sum();
    (a1 - a0, b1 - b0, completed)
}

#[test]
fn armed_serving_run_allocation_census() {
    let (allocs, bytes, completed) = armed_census(48);
    assert!(completed > 0, "armed run completed no requests");
    let per_request = allocs as f64 / completed as f64;
    println!(
        "V10-Full armed: {allocs} allocations / {bytes} bytes over {completed} completed \
         requests ({per_request:.1} allocations per request)"
    );
    // Census ratchet: parking moves the admission instead of cloning its
    // label, a transient fault picks its victim without collecting the
    // occupied slots, and the watchdog's sorted vectors keep their
    // buffers across sense ticks, so the armed step loop allocates only
    // per tenancy (its state and latency buffer) plus amortized buffer
    // growth. It reads 2.9 (345 allocations over 120 requests).
    if std::env::var("V10_ALLOC_CENSUS_ONLY").is_err() {
        assert!(
            per_request < 3.0,
            "V10-Full armed: {per_request:.1} allocations per completed request — the \
             armed step loop is allocating again"
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
    let _census = CENSUS.lock().expect("no census panicked while measuring");
    let specs = [Model::Mnist, Model::Ncf]
        .map(|m| WorkloadSpec::new(m.abbrev(), m.default_profile().synthesize(2023)));
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
