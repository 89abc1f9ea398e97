//! Fig. 9 — NPU utilization under preemptive multi-tasking (PMT) for the 15
//! characterization pairs: per-workload MXU and VPU utilization stacked.
//! PMT "balances" the bars but cannot exceed the average of the two
//! single-tenant utilizations (O4).

use v10_bench::pairs::fig9_pairs;
use v10_bench::{fmt_pct, print_table, run_options};
use v10_core::{run_design, Design};
use v10_npu::NpuConfig;

fn main() {
    let cfg = NpuConfig::table5();
    let opts = run_options();
    let mut rows = Vec::new();
    for case in fig9_pairs() {
        let r = run_design(Design::Pmt, &case.specs, &cfg, &opts).expect("validated pair case");
        let elapsed = r.elapsed_cycles();
        let w = r.workloads();
        rows.push(vec![
            case.label.clone(),
            fmt_pct(w[0].busy_sa_cycles() / elapsed),
            fmt_pct(w[1].busy_sa_cycles() / elapsed),
            fmt_pct(r.sa_util()),
            fmt_pct(w[0].busy_vu_cycles() / elapsed),
            fmt_pct(w[1].busy_vu_cycles() / elapsed),
            fmt_pct(r.vu_util()),
        ]);
    }
    print_table(
        "Fig. 9 — Utilization under preemptive multi-tasking",
        &[
            "Pair",
            "DNN1 MXU",
            "DNN2 MXU",
            "MXU total",
            "DNN1 VPU",
            "DNN2 VPU",
            "VPU total",
        ],
        &rows,
    );
    println!(
        "For half the combinations both MXU and VPU stay near or below 50% \
         (O4): time-sharing balances utilization without raising it."
    );
}
