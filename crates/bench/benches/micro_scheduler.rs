//! Micro-benchmarks of the scheduler primitives: the Algorithm 1 pick, the
//! water-filling HBM allocation, SA preemption on the functional array, and
//! a full engine run — the software costs behind the hardware latencies of
//! Table 3. Uses the in-repo [`v10_bench::timing`] harness (median of
//! repeated batches) so the workspace carries no external bench framework.

use std::hint::black_box;

use v10_bench::timing::{bench, fmt_duration};
use v10_core::{
    run_design, ContextTable, Design, Policy, RunOptions, Scheduler, WorkloadId, WorkloadSpec,
};
use v10_isa::{FuKind, OpDesc, RequestTrace};
use v10_npu::NpuConfig;
use v10_sim::{Cycles, Demand, WaterFilling};
use v10_systolic::{Matrix, SaExecutor};

fn bench_pick_next() {
    for &n in &[2usize, 4, 8, 16] {
        let mut table = ContextTable::new(&vec![1.0; n]).expect("positive priorities");
        for (i, id) in table.ids().collect::<Vec<_>>().into_iter().enumerate() {
            table
                .set_current_op(
                    id,
                    i as u64,
                    if i % 2 == 0 { FuKind::Sa } else { FuKind::Vu },
                )
                .expect("live id");
            table.set_ready(id, true).expect("live id");
            table.add_active_cycles(id, (i * 137) as f64);
        }
        let mut sched = Scheduler::new(Policy::Priority);
        let t = bench(|| black_box(sched.pick_next(&table, FuKind::Sa, Cycles::new(1e6))));
        println!("pick_next/priority/{n}: {}", fmt_duration(t));
        let mut sched = Scheduler::new(Policy::RoundRobin);
        let t = bench(|| black_box(sched.pick_next(&table, FuKind::Sa, Cycles::new(1e6))));
        println!("pick_next/round_robin/{n}: {}", fmt_duration(t));
    }
}

fn bench_water_filling() {
    for &n in &[2usize, 8, 32] {
        let demands: Vec<Demand> = (0..n)
            .map(|i| Demand::new(i, 30.0 + (i * 53 % 400) as f64))
            .collect();
        let alloc = WaterFilling::new(471.4);
        let t = bench(|| black_box(alloc.allocate(&demands)));
        println!("water_filling/{n}: {}", fmt_duration(t));
    }
}

fn bench_sa_preemption() {
    let n = 32;
    let a = Matrix::from_fn(64, n, |i, j| ((i + j) % 7) as f32);
    let w = Matrix::from_fn(n, n, |i, j| ((i * 3 + j) % 5) as f32);
    let t = bench(|| {
        let mut sa = SaExecutor::new(n);
        sa.begin(a.clone(), w.clone()).expect("dims ok");
        sa.run_cycles(40);
        let (ctx, cost) = sa.preempt().expect("busy");
        sa.restore(ctx).expect("idle");
        black_box((cost, sa.run_to_completion()))
    });
    println!("sa_preempt_restore_32x32: {}", fmt_duration(t));
}

fn pair_specs() -> [WorkloadSpec; 2] {
    let mk = |sa_len: u64, vu_len: u64| {
        WorkloadSpec::new(
            "w",
            RequestTrace::new(vec![
                OpDesc::builder(FuKind::Sa).compute_cycles(sa_len).build(),
                OpDesc::builder(FuKind::Vu).compute_cycles(vu_len).build(),
            ])
            .expect("non-empty trace"),
        )
    };
    [mk(100_000, 5_000), mk(5_000, 100_000)]
}

fn bench_engine() {
    let specs = pair_specs();
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(5).expect("positive requests");
    let t = bench(|| black_box(run_design(Design::V10Full, &specs, &cfg, &opts)));
    println!("v10_full_pair_run: {}", fmt_duration(t));
    let _ = WorkloadId::new(0);
}

/// The instrumentation guard: the engine with a counting observer attached
/// must stay within 15% of the uninstrumented run (the observer dispatch is
/// monomorphized away when disabled). The budget is per-event materialization
/// cost, a few ns each: with a real observer the engine must load the fields
/// every event carries (op ids, latencies, lifecycle stamps) that the
/// `NullObserver` build dead-code-eliminates along with the emit itself. A
/// breach here means emission got accidentally expensive (an allocation or a
/// syscall on the emit path), not that the counter itself slowed down.
fn bench_observer_overhead() {
    use v10_core::{CounterObserver, NullObserver, Policy, V10Engine};
    let specs = pair_specs();
    let opts = RunOptions::new(5).expect("positive requests");
    let engine = V10Engine::new(NpuConfig::table5(), Policy::Priority, true);
    // Interleave the two measurements and keep each side's fastest sample:
    // the minimum is the standard noise-robust cost estimator for
    // microbenchmarks, and clock-frequency drift between two back-to-back
    // bench() calls is larger than the effect being measured.
    let mut plain = std::time::Duration::MAX;
    let mut counted = std::time::Duration::MAX;
    for _ in 0..9 {
        plain = plain.min(bench(|| {
            black_box(engine.run_observed(&specs, &opts, &mut NullObserver))
        }));
        counted = counted.min(bench(|| {
            let mut obs = CounterObserver::default();
            black_box(engine.run_observed(&specs, &opts, &mut obs))
        }));
    }
    let overhead = counted.as_secs_f64() / plain.as_secs_f64() - 1.0;
    println!(
        "engine/no_observer: {}  engine/counter_observer: {}  overhead: {:+.1}%",
        fmt_duration(plain),
        fmt_duration(counted),
        overhead * 100.0
    );
    if overhead > 0.15 {
        println!("WARNING: counter-observer overhead exceeds the 15% budget");
    }
}

fn main() {
    bench_pick_next();
    bench_water_filling();
    bench_sa_preemption();
    bench_engine();
    bench_observer_overhead();
}
