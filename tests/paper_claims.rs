//! Cross-crate integration tests asserting the paper's qualitative claims
//! end to end: model zoo → synthesized traces → multi-tenant executors →
//! metrics.

use v10::core::{run_design, run_single_tenant, Design, RunOptions, WorkloadSpec};
use v10::npu::NpuConfig;
use v10::workloads::Model;

fn spec(m: Model, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(m.abbrev(), m.default_profile().synthesize(seed))
}

fn singles(specs: &[WorkloadSpec], cfg: &NpuConfig, requests: usize) -> Vec<f64> {
    specs
        .iter()
        .map(|s| run_single_tenant(s, cfg, requests).unwrap().workloads()[0].avg_latency_cycles())
        .collect()
}

/// §5.2: simultaneous operator execution raises aggregate compute
/// utilization over PMT for a complementary pair (BERT SA-heavy + NCF
/// VU-heavy), and the full design preserves the gain.
#[test]
fn v10_improves_utilization_over_pmt_for_complementary_pair() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(4).unwrap();
    let specs = [spec(Model::Bert, 1), spec(Model::Ncf, 2)];
    let pmt = run_design(Design::Pmt, &specs, &cfg, &opts).unwrap();
    let base = run_design(Design::V10Base, &specs, &cfg, &opts).unwrap();
    let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
    assert!(
        base.aggregate_compute_util() > 1.15 * pmt.aggregate_compute_util(),
        "V10-Base {:.2} vs PMT {:.2}",
        base.aggregate_compute_util(),
        pmt.aggregate_compute_util()
    );
    assert!(full.aggregate_compute_util() > 1.15 * pmt.aggregate_compute_util());
    // O4: PMT cannot overlap SA and VU at all.
    assert_eq!(pmt.overlap().both, 0.0);
    assert!(full.overlap().both > 0.0);
}

/// §5.3: system throughput ordering V10-Full > PMT, a V10-Full pair beats
/// time-sharing (STP > 1), and STP stays within its theoretical bounds
/// (0, #workloads].
#[test]
fn throughput_ordering_and_bounds() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(4).unwrap();
    let specs = [spec(Model::ResNet, 3), spec(Model::RetinaNet, 4)];
    let refs = singles(&specs, &cfg, 4);
    let pmt = run_design(Design::Pmt, &specs, &cfg, &opts)
        .unwrap()
        .system_throughput(&refs);
    let full = run_design(Design::V10Full, &specs, &cfg, &opts)
        .unwrap()
        .system_throughput(&refs);
    assert!(full > pmt, "V10-Full STP {full:.2} <= PMT {pmt:.2}");
    assert!(full > 1.0, "V10-Full pair {full:.3} below time-sharing");
    for stp in [pmt, full] {
        assert!(stp > 0.0 && stp <= 2.05, "STP {stp} out of bounds");
    }
    // Alone on a core, V10-Full runs each workload near-dedicated.
    for (s, r) in specs.iter().zip(&refs) {
        let solo = run_design(Design::V10Full, std::slice::from_ref(s), &cfg, &opts)
            .unwrap()
            .system_throughput(std::slice::from_ref(r));
        assert!(solo > 0.9, "{} alone: STP {solo:.3}", s.label());
    }
}

/// §5.4 / Fig. 12: operator preemption rescues the short-operator workload
/// in the BERT+DLRM starvation scenario.
#[test]
fn preemption_rescues_dlrm_from_bert_starvation() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(4).unwrap();
    let specs = [spec(Model::Bert, 5), spec(Model::Dlrm, 6)];
    let fair = run_design(Design::V10Fair, &specs, &cfg, &opts).unwrap();
    let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
    let dlrm_fair = fair.workloads()[1].avg_latency_cycles();
    let dlrm_full = full.workloads()[1].avg_latency_cycles();
    assert!(
        dlrm_full < 0.75 * dlrm_fair,
        "preemption should cut DLRM's latency: {dlrm_fair:.0} -> {dlrm_full:.0}"
    );
    // BERT is not destroyed in exchange (paper: "without significant
    // impacts on BERT").
    let bert_fair = fair.workloads()[0].avg_latency_cycles();
    let bert_full = full.workloads()[0].avg_latency_cycles();
    assert!(
        bert_full < 1.35 * bert_fair,
        "{bert_fair:.0} -> {bert_full:.0}"
    );
}

/// §5.5: V10's operator preemption is far more frequent than PMT's
/// task-level preemption, at sub-2% context-switch overhead.
#[test]
fn preemption_granularity_and_overhead() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(4).unwrap();
    let specs = [spec(Model::Bert, 7), spec(Model::Dlrm, 8)];
    let pmt = run_design(Design::Pmt, &specs, &cfg, &opts).unwrap();
    let full = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
    let pmt_preempts: u64 = pmt.workloads().iter().map(|w| w.preemptions()).sum();
    let full_preempts: u64 = full.workloads().iter().map(|w| w.preemptions()).sum();
    assert!(
        full_preempts > 3 * pmt_preempts.max(1),
        "V10 {full_preempts} vs PMT {pmt_preempts} preemptions"
    );
    for wl in full.workloads() {
        assert!(
            wl.switch_overhead_fraction() < 0.02,
            "{}: overhead {:.3}",
            wl.label(),
            wl.switch_overhead_fraction()
        );
    }
}

/// §5.6: priorities shift per-workload progress monotonically while V10
/// keeps harvesting idle resources.
#[test]
fn priorities_shift_progress_monotonically() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(4).unwrap();
    let base = [spec(Model::ResNet, 9), spec(Model::RetinaNet, 10)];
    let refs = singles(&base, &cfg, 4);
    let mut prev_hi = 0.0;
    for (hi, lo) in [(50.0, 50.0), (70.0, 30.0), (90.0, 10.0)] {
        let specs = [
            base[0].clone().with_priority(hi).unwrap(),
            base[1].clone().with_priority(lo).unwrap(),
        ];
        let r = run_design(Design::V10Full, &specs, &cfg, &opts).unwrap();
        let hi_prog = r.normalized_progress(0, refs[0]);
        assert!(
            hi_prog + 0.03 >= prev_hi,
            "prioritized progress should not regress: {prev_hi:.2} -> {hi_prog:.2} at {hi}-{lo}"
        );
        prev_hi = hi_prog;
    }
    assert!(
        prev_hi > 0.75,
        "90%-priority workload should run near-dedicated"
    );
}

/// §5.9: doubling the FU pool (and HBM with it) raises the throughput of a
/// four-workload mix.
#[test]
fn scaling_with_more_fus() {
    let opts = RunOptions::new(3).unwrap();
    let specs = [
        spec(Model::ResNet, 11),
        spec(Model::Ncf, 12),
        spec(Model::Dlrm, 13),
        spec(Model::Mnist, 14),
    ];
    let cfg1 = NpuConfig::table5();
    let cfg2 = NpuConfig::builder().fu_count(2).build().unwrap();
    let refs: Vec<f64> = singles(&specs, &cfg1, 3);
    let small = run_design(Design::V10Full, &specs, &cfg1, &opts)
        .unwrap()
        .system_throughput(&refs);
    let big = run_design(Design::V10Full, &specs, &cfg2, &opts)
        .unwrap()
        .system_throughput(&refs);
    assert!(big > 1.2 * small, "2x FUs: STP {small:.2} -> {big:.2}");
}

/// Determinism end to end: zoo → trace → engine → metrics reproduces
/// bit-identical results for the same seed.
#[test]
fn full_pipeline_is_deterministic() {
    let cfg = NpuConfig::table5();
    let opts = RunOptions::new(3).unwrap().with_seed(99);
    let mk = || [spec(Model::EfficientNet, 15), spec(Model::ResNet, 16)];
    let a = run_design(Design::V10Full, &mk(), &cfg, &opts).unwrap();
    let b = run_design(Design::V10Full, &mk(), &cfg, &opts).unwrap();
    assert_eq!(a.elapsed_cycles(), b.elapsed_cycles());
    assert_eq!(a.sa_busy_cycles(), b.sa_busy_cycles());
    assert_eq!(
        a.workloads()[0].latencies_cycles(),
        b.workloads()[0].latencies_cycles()
    );
}
