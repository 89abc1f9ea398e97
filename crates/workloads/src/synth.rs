//! Trace and DAG synthesis from calibrated profiles.
//!
//! [`ModelProfile::synthesize`] turns a profile into a concrete
//! [`RequestTrace`]: per-operator lengths are lognormal-jittered around the
//! Table 1 means and then renormalized so the per-request busy totals (and
//! hence the realized utilizations) match the profile *exactly*; SA and VU
//! operators are interleaved evenly, mimicking the layer-by-layer
//! matmul → activation structure of real models.
//!
//! A sampled serving session carries its synthesis inputs as a
//! `SessionRecipe` (a [`TraceRecipe`]) and is built only when a core
//! seats it; each thread keeps its length buffers across syntheses, so a
//! build allocates only the trace's operator slice.
//!
//! [`ModelProfile::synthesize_dag`] builds the dependency DAG used by the
//! Fig. 6 critical-path study, and [`refit_vmem`] models the compiler
//! re-tiling operators whose working set exceeds a (partitioned) vector
//! memory — the mechanism behind the paper's Fig. 24 vmem-capacity sweep.

use std::cell::Cell;
use std::sync::Arc;

use v10_isa::{FuKind, OpDag, OpDesc, RequestTrace, TraceRecipe};
use v10_sim::convert::u64_from_usize;
use v10_sim::SimRng;

use crate::profile::{ModelProfile, SA_PEAK_FLOPS_PER_CYCLE, VU_PEAK_FLOPS_PER_CYCLE};

/// Floor for a synthesized operator's vector-memory footprint.
const VMEM_FLOOR_BYTES: f64 = 64.0 * 1024.0;
/// Ceiling for a synthesized operator's vector-memory footprint (half the
/// paper's 32 MB vector memory — one workload's partition under two-tenant
/// sharing never forces a refit at the default configuration).
const VMEM_CEIL_BYTES: f64 = 16.0 * 1024.0 * 1024.0;

impl ModelProfile {
    /// Synthesizes the per-request operator trace for this profile.
    ///
    /// Deterministic in `(self, seed)`. The trace satisfies, exactly:
    /// `busy_cycles(kind) == op_count(kind) * mean_len(kind)` for both
    /// kinds, so the realized utilizations equal the profile's.
    #[must_use]
    pub fn synthesize(&self, seed: u64) -> RequestTrace {
        self.synthesize_session(seed, 0)
    }

    /// [`synthesize`](Self::synthesize) with `think_cycles` added to the
    /// first operator's dispatch gap: a serving session's trace with its
    /// think time compiled in, built in one pass.
    pub(crate) fn synthesize_session(&self, seed: u64, think_cycles: u64) -> RequestTrace {
        // A thread that is tearing down its locals builds with fresh buffers.
        let mut lengths = LENGTHS.try_with(Cell::take).unwrap_or_default();
        let trace = self.synthesize_with(&mut lengths, seed, think_cycles);
        // Ignored for the same reason: the buffers are dropped instead.
        let _ = LENGTHS.try_with(|cell| cell.set(lengths));
        trace
    }

    /// [`synthesize_session`](Self::synthesize_session) drawing its
    /// operator lengths into `lengths`.
    fn synthesize_with(
        &self,
        lengths: &mut LengthBuffers,
        seed: u64,
        think_cycles: u64,
    ) -> RequestTrace {
        let LengthBuffers {
            raw,
            sa_lens,
            vu_lens,
        } = lengths;
        let mut rng = SimRng::seed_from(seed ^ 0x5EED_0F7B_4CE5);
        jittered_lengths(
            &mut rng,
            self.sa_op_count(),
            self.sa_len_cycles(),
            self.len_sigma(),
            raw,
            sa_lens,
        );
        jittered_lengths(
            &mut rng,
            self.vu_op_count(),
            self.vu_len_cycles(),
            self.len_sigma(),
            raw,
            vu_lens,
        );
        let batch_ratio = self.batch() as f64 / self.model().default_batch() as f64;
        let vmem_batch_scale = batch_ratio.powf(0.3);

        // Distribute the profile's residual idle time (request minus busy —
        // host dispatch, sync, and other stalls seen in real traces) evenly
        // as pre-dispatch gaps, so a single-tenant replay reproduces the
        // profile's request latency and utilizations (Figs. 3-5).
        let n_total = sa_lens.len() + vu_lens.len();
        let busy: u64 = sa_lens.iter().chain(vu_lens.iter()).sum();
        let gap = self.request_cycles().saturating_sub(busy) / n_total as u64;

        let (sa_rates, vu_rates) = (self.op_rates(FuKind::Sa), self.op_rates(FuKind::Vu));
        // Collected straight into the trace's shared slice: the iterator
        // has an exact length, so the operators are written once, into one
        // allocation.
        let ops: Arc<[OpDesc]> = interleave(sa_lens, vu_lens)
            .enumerate()
            .map(|(k, (kind, cycles))| {
                let rates = match kind {
                    FuKind::Sa => sa_rates,
                    FuKind::Vu => vu_rates,
                };
                let gap = if k == 0 {
                    gap.saturating_add(think_cycles)
                } else {
                    gap
                };
                make_op(kind, cycles, rates, vmem_batch_scale, gap)
            })
            .collect();
        // v10-lint: allow(P1) `calibrated` gives every profile at least one SA and one VU operator, so `ops` is never empty
        RequestTrace::try_from(ops).expect("profiles always have at least one operator")
    }

    /// Synthesizes the operator dependency DAG for the Fig. 6 analysis.
    ///
    /// The DAG is a chain (DNN layers are sequential — §2.2), except that
    /// with probability `branch_prob` an SA operator runs in parallel with
    /// the preceding layer's element-wise post-processing: the run of VU
    /// operators that follows it in program order forms a side branch,
    /// joining at the next operator after the run. This is the limited
    /// tile-level SA/VU pipelining the paper acknowledges ("it is possible
    /// to pipeline some MXU and VPU operations ... the VPU execution time is
    /// still much smaller than that of MXU"), so the critical-path saving
    /// per branch is `min(SA length, VU-run length)` — small, keeping the
    /// ideal speedup marginal.
    #[must_use]
    pub fn synthesize_dag(&self, seed: u64) -> OpDag {
        let trace = self.synthesize(seed);
        let mut rng = SimRng::seed_from(seed ^ 0x0DA6_0F7B_4CE5);
        let ops = trace.ops();
        let n = ops.len();
        let mut dag = OpDag::new();
        // Node `i` is operator `i`: the DAG starts empty and numbers its
        // nodes in insertion order.
        for &op in ops {
            dag.add_node(op);
        }
        let is_sa = |i: usize| ops.get(i).is_some_and(|op| op.kind() == FuKind::Sa);
        let mut edge = |from: usize, to: usize| {
            dag.add_edge(from, to)
                // v10-lint: allow(P1) every edge joins two nodes added above and runs forward (from < to), so it is in range and never a self-loop
                .expect("edges join added nodes, forward");
        };

        let mut i = 0;
        let mut prev_tail: Option<usize> = None;
        while i < n {
            // Candidate branch: SA op at i, a non-empty VU run after it, and
            // a join node following the run.
            if is_sa(i) && rng.unit_f64() < self.branch_prob() {
                let run = ops
                    .iter()
                    .skip(i + 1)
                    .take_while(|op| op.kind() == FuKind::Vu)
                    .count();
                let j = i + 1 + run;
                if run > 0 && j < n {
                    // SA(i) runs parallel to the VU chain (i+1 .. j-1);
                    // both arms feed the join at j.
                    if let Some(p) = prev_tail {
                        edge(p, i);
                        edge(p, i + 1);
                    }
                    for k in i + 1..j - 1 {
                        edge(k, k + 1);
                    }
                    edge(i, j);
                    edge(j - 1, j);
                    prev_tail = Some(j);
                    i = j + 1;
                    continue;
                }
            }
            if let Some(p) = prev_tail {
                edge(p, i);
            }
            prev_tail = Some(i);
            i += 1;
        }
        dag
    }

    /// The HBM bytes and FLOPs per busy cycle of this profile's `kind`
    /// operators, read once per trace.
    fn op_rates(&self, kind: FuKind) -> OpRates {
        match kind {
            FuKind::Sa => OpRates {
                hbm_bytes: self.sa_hbm_bytes_per_cycle(),
                flops: SA_PEAK_FLOPS_PER_CYCLE * self.sa_spatial_efficiency(),
            },
            FuKind::Vu => OpRates {
                hbm_bytes: self.vu_hbm_bytes_per_cycle(),
                flops: VU_PEAK_FLOPS_PER_CYCLE * 0.8,
            },
        }
    }
}

/// Per-busy-cycle rates of one operator kind.
#[derive(Debug, Clone, Copy)]
struct OpRates {
    /// unit: bytes per cycle.
    hbm_bytes: f64,
    /// unit: FLOPs per cycle.
    flops: f64,
}

/// One operator of `kind` and length `cycles`; `vmem_batch_scale` is the
/// batch ratio to the 0.3 (the trace-wide factor of the vmem footprint),
/// computed once per trace.
fn make_op(kind: FuKind, cycles: u64, rates: OpRates, vmem_batch_scale: f64, gap: u64) -> OpDesc {
    let len_us = cycles as f64 / 700.0;
    let vmem = (2.0 * 1024.0 * 1024.0 * (len_us / 100.0).sqrt() * vmem_batch_scale)
        .clamp(VMEM_FLOOR_BYTES, VMEM_CEIL_BYTES);
    OpDesc::builder(kind)
        .compute_cycles(cycles)
        .hbm_bytes((cycles as f64 * rates.hbm_bytes) as u64)
        .vmem_bytes(vmem as u64)
        .flops((cycles as f64 * rates.flops) as u64)
        .instr_count(((cycles / 4).clamp(16, 1 << 20)) as u32)
        .dispatch_gap_cycles(gap)
        .build()
}

/// A sampled session's trace, not yet built: the calibrated profile its
/// model shares with every session of the stream, plus its own trace seed
/// and think gap. Building it is [`ModelProfile::synthesize_session`], a
/// pure function of the three.
#[derive(Debug)]
pub(crate) struct SessionRecipe {
    profile: Arc<ModelProfile>,
    trace_seed: u64,
    /// Folded into the first operator's dispatch gap.
    ///
    /// unit: cycles.
    think_cycles: u64,
}

impl SessionRecipe {
    pub(crate) fn new(profile: Arc<ModelProfile>, trace_seed: u64, think_cycles: u64) -> Self {
        SessionRecipe {
            profile,
            trace_seed,
            think_cycles,
        }
    }
}

impl TraceRecipe for SessionRecipe {
    fn build(&self) -> RequestTrace {
        self.profile
            .synthesize_session(self.trace_seed, self.think_cycles)
    }

    /// Synthesis renormalizes each kind's lengths to sum to exactly its
    /// operator count times its mean length, so the total follows from the
    /// profile alone.
    fn total_compute_cycles(&self) -> u64 {
        let p = &self.profile;
        u64_from_usize(p.sa_op_count()) * p.sa_len_cycles()
            + u64_from_usize(p.vu_op_count()) * p.vu_len_cycles()
    }
}

/// Operator-length scratch that one synthesis fills and the next reuses.
#[derive(Debug, Default)]
struct LengthBuffers {
    /// The current kind's raw lognormal draws.
    raw: Vec<f64>,
    sa_lens: Vec<u64>,
    vu_lens: Vec<u64>,
}

thread_local! {
    /// This thread's length buffers, taken for the length of one synthesis.
    static LENGTHS: Cell<LengthBuffers> = Cell::default();
}

/// Draws `n` lognormal lengths with the given mean into `lens`, using
/// `raw` as scratch, and renormalizes them so they sum to exactly
/// `n * mean_cycles` (keeping every length ≥ 1).
fn jittered_lengths(
    rng: &mut SimRng,
    n: usize,
    mean_cycles: u64,
    sigma: f64,
    raw: &mut Vec<f64>,
    lens: &mut Vec<u64>,
) {
    assert!(n > 0, "need at least one operator");
    raw.clear();
    raw.extend(rng.lognormals(mean_cycles as f64, sigma).take(n));
    let target = n as u64 * mean_cycles;
    let raw_sum: f64 = raw.iter().sum();
    let scale = target as f64 / raw_sum;
    lens.clear();
    lens.extend(raw.iter().map(|&x| ((x * scale).round() as u64).max(1)));
    // Fix rounding drift on the longest operator (the last of equals) so
    // the sum is exact.
    let sum: u64 = lens.iter().sum();
    if let Some(longest) = lens.iter_mut().max_by_key(|l| **l) {
        if sum > target {
            *longest = longest.saturating_sub(sum - target).max(1);
        } else {
            *longest += target - sum;
        }
    }
}

/// Interleaves SA and VU operator lengths evenly (Bresenham merge), so the
/// trace alternates at the cadence of the rarer kind — the layer-by-layer
/// structure where matmuls are followed by their activations.
fn interleave<'a>(
    sa_lens: &'a [u64],
    vu_lens: &'a [u64],
) -> impl Iterator<Item = (FuKind, u64)> + 'a {
    let n_sa = sa_lens.len();
    let total = n_sa + vu_lens.len();
    let mut sa = sa_lens.iter().map(|&c| (FuKind::Sa, c));
    let mut vu = vu_lens.iter().map(|&c| (FuKind::Vu, c));
    let mut emitted_sa = 0usize;
    // SA operators due after step k: ceil((k + 1) * n_sa / total), kept as
    // a running quotient and remainder so that no step divides.
    let (mut due_floor, mut due_rem) = (0usize, 0usize);
    // Walk the merged sequence, emitting whichever kind is "behind" its
    // proportional position (SA once VU runs out). One step per length, so
    // the iterator's length is exact.
    (0..total).map(move |_| {
        // n_sa <= total, so one subtraction keeps the remainder below total.
        due_rem += n_sa;
        if due_rem >= total {
            due_rem -= total;
            due_floor += 1;
        }
        let sa_due = emitted_sa < due_floor + usize::from(due_rem > 0);
        let next = if sa_due { sa.next() } else { None }
            .or_else(|| vu.next())
            .or_else(|| sa.next());
        if matches!(next, Some((FuKind::Sa, _))) {
            emitted_sa += 1;
        }
        // v10-lint: allow(P1) each of the `total` steps takes one of the `total` lengths, so a length is always left
        next.expect("a length is left for every step")
    })
}

/// Models the XLA compiler re-tiling a trace to fit a smaller vector-memory
/// partition (§3.6 / Fig. 24).
///
/// Operators whose footprint exceeds `partition_bytes` are split into
/// `ceil(vmem / partition)` sub-operators; the smaller tiles lose data
/// reuse, inflating total HBM traffic by `sqrt(vmem / partition)` (the
/// classic tiled-matmul reuse model).
///
/// # Panics
///
/// Panics if `partition_bytes` is zero.
#[must_use]
pub fn refit_vmem(trace: &RequestTrace, partition_bytes: u64) -> RequestTrace {
    assert!(
        partition_bytes > 0,
        "vector-memory partition must be non-empty"
    );
    let mut ops = Vec::with_capacity(trace.ops().len());
    for op in trace.ops() {
        if op.vmem_bytes() <= partition_bytes {
            ops.push(*op);
            continue;
        }
        let ratio = op.vmem_bytes() as f64 / partition_bytes as f64;
        let k = ratio.ceil() as u64;
        let inflated_bytes = (op.hbm_bytes() as f64 * ratio.sqrt()) as u64;
        for part in 0..k {
            // Distribute cycles/bytes/flops as evenly as integer division
            // allows, putting remainders on the first sub-op.
            let share = |total: u64| -> u64 {
                let base = total / k;
                if part == 0 {
                    base + total % k
                } else {
                    base
                }
            };
            ops.push(
                OpDesc::builder(op.kind())
                    .compute_cycles(share(op.compute_cycles()).max(1))
                    .hbm_bytes(share(inflated_bytes))
                    .vmem_bytes(partition_bytes)
                    .flops(share(op.flops()))
                    .instr_count((op.instr_count() / k as u32).max(16))
                    // The dispatch gap precedes the operator once, not per tile.
                    .dispatch_gap_cycles(if part == 0 {
                        op.dispatch_gap_cycles()
                    } else {
                        0
                    })
                    .build(),
            );
        }
    }
    // v10-lint: allow(P1) `trace` has at least one operator and each becomes at least one tile
    RequestTrace::new(ops).expect("refit preserves the trace's operators")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use v10_sim::Frequency;

    #[test]
    fn synthesis_is_deterministic() {
        let p = Model::ResNet.default_profile();
        assert_eq!(p.synthesize(7), p.synthesize(7));
        assert_ne!(p.synthesize(7), p.synthesize(8));
    }

    #[test]
    fn busy_cycles_match_profile_exactly() {
        for m in Model::ALL {
            let p = m.default_profile();
            let t = p.synthesize(1);
            assert_eq!(
                t.busy_cycles(FuKind::Sa),
                p.sa_op_count() as u64 * p.sa_len_cycles(),
                "{m}"
            );
            assert_eq!(
                t.busy_cycles(FuKind::Vu),
                p.vu_op_count() as u64 * p.vu_len_cycles(),
                "{m}"
            );
            assert_eq!(t.count(FuKind::Sa), p.sa_op_count(), "{m}");
            assert_eq!(t.count(FuKind::Vu), p.vu_op_count(), "{m}");
        }
    }

    #[test]
    fn table1_means_reproduced() {
        let clk = Frequency::default();
        let cases = [
            (Model::Bert, 877.0, 34.7),
            (Model::Dlrm, 17.0, 4.43),
            (Model::Transformer, 6_650.0, 55.4),
            (Model::ShapeMask, 1_910.0, 20.2),
        ];
        for (m, sa_us, vu_us) in cases {
            let s = m.default_profile().synthesize(3).summarize(clk);
            assert!(
                (s.avg_sa_op_micros - sa_us).abs() / sa_us < 0.02,
                "{m}: mean SA {} vs Table 1 {sa_us}",
                s.avg_sa_op_micros
            );
            assert!(
                (s.avg_vu_op_micros - vu_us).abs() / vu_us < 0.02,
                "{m}: mean VU {} vs Table 1 {vu_us}",
                s.avg_vu_op_micros
            );
        }
    }

    #[test]
    fn interleave_spreads_kinds() {
        let sa = vec![10u64; 3];
        let vu = vec![1u64; 9];
        let merged: Vec<_> = interleave(&sa, &vu).collect();
        assert_eq!(merged.len(), 12);
        // No run of more than ceil(9/3)+1 VU ops between SA ops.
        let mut run = 0;
        for (k, _) in &merged {
            if *k == FuKind::Vu {
                run += 1;
                assert!(run <= 4, "VU run too long");
            } else {
                run = 0;
            }
        }
        assert_eq!(merged.iter().filter(|(k, _)| *k == FuKind::Sa).count(), 3);
    }

    /// The running quotient places every SA operator where the per-step
    /// division `ceil((k + 1) * n_sa / total)` placed it.
    #[test]
    fn interleave_matches_the_proportional_quota() {
        for n_sa in 0..64usize {
            for n_vu in 0..64usize {
                let total = n_sa + n_vu;
                let (mut sa_left, mut vu_left, mut emitted_sa) = (n_sa, n_vu, 0);
                let quota: Vec<FuKind> = (0..total)
                    .map(|k| {
                        let sa_due = emitted_sa < ((k + 1) * n_sa).div_ceil(total);
                        if (sa_due && sa_left > 0) || vu_left == 0 {
                            sa_left -= 1;
                            emitted_sa += 1;
                            FuKind::Sa
                        } else {
                            vu_left -= 1;
                            FuKind::Vu
                        }
                    })
                    .collect();
                let merged: Vec<FuKind> = interleave(&vec![1; n_sa], &vec![2; n_vu])
                    .map(|(kind, _)| kind)
                    .collect();
                assert_eq!(merged, quota, "{n_sa} SA, {n_vu} VU");
            }
        }
    }

    #[test]
    fn interleave_handles_one_sided_inputs() {
        let merged: Vec<_> = interleave(&[5, 5], &[]).collect();
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().all(|(k, _)| *k == FuKind::Sa));
    }

    #[test]
    fn jittered_lengths_sum_exact_and_positive() {
        let mut rng = SimRng::seed_from(9);
        let (mut raw, mut lens) = (Vec::new(), Vec::new());
        for (n, mean, sigma) in [(100usize, 1_000u64, 0.3), (1, 100, 0.5), (17, 3, 0.9)] {
            jittered_lengths(&mut rng, n, mean, sigma, &mut raw, &mut lens);
            assert_eq!(
                lens.len(),
                n,
                "reused buffers hold this call's lengths only"
            );
            assert_eq!(lens.iter().sum::<u64>(), n as u64 * mean);
            assert!(lens.iter().all(|&l| l >= 1));
        }
    }

    /// A session recipe builds exactly the trace a fresh synthesis of its
    /// draws gives, whatever the reused length buffers last held, and
    /// knows that trace's total without building it: every model, 64
    /// seeds, with and without a think gap.
    #[test]
    fn recipes_build_the_session_trace_and_know_its_total() {
        let mut rng = SimRng::seed_from(0x2EC1);
        for m in Model::ALL {
            let profile = Arc::new(m.default_profile());
            for _ in 0..64 {
                let seed = rng.next_u64();
                for think in [0, rng.uniform_u64(1, 1_000_000)] {
                    let recipe = SessionRecipe::new(Arc::clone(&profile), seed, think);
                    let fresh = profile.synthesize_with(&mut LengthBuffers::default(), seed, think);
                    let built = recipe.build();
                    assert!(built == fresh, "{m}, seed {seed:#x}, think {think}");
                    assert_eq!(
                        recipe.total_compute_cycles(),
                        built.total_compute_cycles(),
                        "{m}, seed {seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn dag_speedup_is_marginal() {
        // Fig. 6: ideal operator-parallel speedup is ~6.7% on average and
        // never large.
        let mut speedups = Vec::new();
        for m in Model::ALL {
            let dag = m.default_profile().synthesize_dag(11);
            let s = dag.ideal_speedup().unwrap();
            assert!(
                (1.0..1.5).contains(&s),
                "{m}: ideal speedup {s} out of range"
            );
            speedups.push(s);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(avg < 1.20, "average ideal speedup {avg} should be marginal");
    }

    #[test]
    fn dag_total_matches_trace_total() {
        let p = Model::EfficientNet.default_profile();
        let dag = p.synthesize_dag(5);
        let trace = p.synthesize(5);
        assert_eq!(dag.total_cycles(), trace.total_compute_cycles());
    }

    #[test]
    fn refit_noop_when_partition_large() {
        let p = Model::ResNet.default_profile();
        let t = p.synthesize(2);
        let refit = refit_vmem(&t, 16 << 20);
        assert_eq!(refit, t, "16 MB partition should fit every default op");
    }

    #[test]
    fn refit_splits_and_inflates_hbm() {
        let p = Model::Transformer.default_profile();
        let t = p.synthesize(2);
        let small = refit_vmem(&t, 4 << 20); // 8 MB vmem / 2 workloads
        assert!(small.ops().len() > t.ops().len(), "large ops should split");
        assert!(
            small.total_hbm_bytes() > t.total_hbm_bytes(),
            "lost reuse should inflate HBM traffic"
        );
        // Compute work is preserved.
        assert_eq!(small.total_compute_cycles(), t.total_compute_cycles());
        assert!(small.ops().iter().all(|o| o.vmem_bytes() <= 4 << 20));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn refit_rejects_zero_partition() {
        let t = Model::Mnist.default_profile().synthesize(1);
        let _ = refit_vmem(&t, 0);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use crate::model::Model;

    /// Synthesis never violates the profile's busy-cycle contract, for
    /// any model, any legal batch, a spread of seeds.
    #[test]
    fn busy_contract() {
        for (mi, &m) in Model::ALL.iter().enumerate() {
            for batch_exp in 0..12u32 {
                let batch = (1u32 << batch_exp).min(m.max_batch());
                let p = m.profile(batch).unwrap();
                let t = p.synthesize(mi as u64 * 131 + batch_exp as u64);
                assert_eq!(
                    t.busy_cycles(FuKind::Sa),
                    p.sa_op_count() as u64 * p.sa_len_cycles(),
                    "{m} batch {batch}"
                );
                assert_eq!(
                    t.busy_cycles(FuKind::Vu),
                    p.vu_op_count() as u64 * p.vu_len_cycles(),
                    "{m} batch {batch}"
                );
            }
        }
    }

    /// Refitting preserves compute cycles and never shrinks HBM bytes.
    #[test]
    fn refit_invariants() {
        let p = Model::ShapeMask.default_profile();
        for seed in 0..16u64 {
            let part_mb = 1 + seed % 31;
            let t = p.synthesize(seed * 977);
            let refit = refit_vmem(&t, part_mb << 20);
            assert_eq!(refit.total_compute_cycles(), t.total_compute_cycles());
            assert!(refit.total_hbm_bytes() >= t.total_hbm_bytes());
            assert!(refit.ops().iter().all(|o| o.vmem_bytes() <= part_mb << 20));
        }
    }
}
