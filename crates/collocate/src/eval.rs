//! Ground-truth pair profiling and the Table 2 cross-validation protocol.
//!
//! The ground truth for "is collocating A and B beneficial?" is brute-force
//! simulation: run the pair under V10-Full, compute the system throughput
//! (sum of normalized forward progress), and compare against the paper's
//! ≥ 1.3× threshold. [`PairPerfCache`] memoizes these simulations — they
//! are exactly the "Inter-Cluster Pairwise Collocation Profiling" of
//! Fig. 14's training phase, and also serve as the evaluation oracle.

use std::collections::BTreeMap;

use v10_core::{run_design, run_single_tenant, Design, RunOptions, WorkloadSpec};
use v10_npu::NpuConfig;
use v10_workloads::{Model, ModelProfile};

use crate::schemes::{Scheme, SchemeKind};

/// The default decision threshold: a collocation is beneficial if its
/// system throughput reaches this value.
///
/// The paper uses 1.3× — a point that splits its testbed's pair-STP
/// distribution into "good" and "bad" collocations. On this simulator the
/// whole distribution sits higher (dispatch gaps and max-min HBM sharing
/// make even same-kind pairs mildly beneficial), so the Table 2
/// cross-validation self-calibrates: it uses the *median* ground-truth STP
/// as its threshold (see [`cross_validate_table2`]). This constant is the
/// default for one-off queries (online placement, examples).
pub const BENEFIT_THRESHOLD: f64 = 1.55;

/// Simulates collocating two profiles under V10-Full and returns the system
/// throughput (Σ normalized forward progress; 2.0 = both run as if alone).
#[must_use]
pub fn measure_pair_stp(a: &ModelProfile, b: &ModelProfile, requests: usize, seed: u64) -> f64 {
    let cfg = NpuConfig::table5();
    let spec_a = WorkloadSpec::new(a.model().abbrev(), a.synthesize(seed));
    let spec_b = WorkloadSpec::new(b.model().abbrev(), b.synthesize(seed ^ 0xB));
    let single_a = run_single_tenant(&spec_a, &cfg, requests)
        .expect("validated workload")
        .workloads()[0]
        .avg_latency_cycles();
    let single_b = run_single_tenant(&spec_b, &cfg, requests)
        .expect("validated workload")
        .workloads()[0]
        .avg_latency_cycles();
    let pair = run_design(
        Design::V10Full,
        &[spec_a, spec_b],
        &cfg,
        &RunOptions::new(requests)
            .expect("pair simulations need at least one request")
            .with_seed(seed),
    );
    let pair = pair.expect("validated workloads");
    pair.system_throughput(&[single_a, single_b])
}

/// Memoized pair-collocation simulations, keyed by unordered model pair at
/// default batch sizes.
#[derive(Debug)]
pub struct PairPerfCache {
    requests: usize,
    seed: u64,
    // BTreeMap, not HashMap: iteration order feeds no output today, but a
    // deterministic container keeps any future "dump the cache" path
    // byte-identical across runs (lint rule D1).
    map: BTreeMap<(Model, Model), f64>,
}

impl PairPerfCache {
    /// Creates a cache whose simulations run `requests` requests per
    /// workload with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is zero.
    #[must_use]
    pub fn new(requests: usize, seed: u64) -> Self {
        assert!(requests > 0, "need at least one request per workload");
        PairPerfCache {
            requests,
            seed,
            map: BTreeMap::new(),
        }
    }

    /// The V10-Full system throughput of collocating `a` and `b` at their
    /// default batch sizes (simulated once, then cached).
    pub fn stp(&mut self, a: Model, b: Model) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&v) = self.map.get(&key) {
            return v;
        }
        let v = measure_pair_stp(
            &key.0.default_profile(),
            &key.1.default_profile(),
            self.requests,
            self.seed,
        );
        self.map.insert(key, v);
        v
    }

    /// Number of distinct pairs simulated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been simulated yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One row of the reproduced Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Which scheme the row describes.
    pub scheme: SchemeKind,
    /// The benefit threshold the validation used (median ground-truth STP).
    pub threshold: f64,
    /// Fraction of pairs classified correctly.
    pub accuracy: f64,
    /// True positives / actual positives.
    pub true_positive_rate: f64,
    /// True negatives / actual negatives.
    pub true_negative_rate: f64,
    /// False positives / actual negatives.
    pub false_positive_rate: f64,
    /// False negatives / actual positives.
    pub false_negative_rate: f64,
    /// Worst STP among pairs the scheme predicted beneficial (1.0 when the
    /// scheme never predicted positive).
    pub worst_perf: f64,
}

/// Reproduces Table 2 with leave-2-out cross-validation: for every pair of
/// models, the clustering scheme is trained on the other `models.len() - 2`
/// models and asked to classify the held-out pair; Random and Heuristic need
/// no training. Ground truth comes from `cache` (V10-Full simulation).
///
/// # Panics
///
/// Panics if fewer than four models are given (leave-2-out needs at least
/// two training models).
#[must_use]
pub fn cross_validate_table2(
    models: &[Model],
    cache: &mut PairPerfCache,
    seed: u64,
) -> Vec<Table2Row> {
    assert!(models.len() >= 4, "leave-2-out needs at least 4 models");
    // Self-calibrating threshold: the median ground-truth STP splits the
    // pair population into beneficial / non-beneficial halves, playing the
    // role the fixed 1.3x threshold plays on the paper's testbed.
    let mut all_stps: Vec<f64> = Vec::new();
    for i in 0..models.len() {
        for j in (i + 1)..models.len() {
            all_stps.push(cache.stp(models[i], models[j]));
        }
    }
    all_stps.sort_by(f64::total_cmp);
    let threshold = all_stps[all_stps.len() / 2];

    let mut rows = Vec::new();
    for kind in [
        SchemeKind::Random,
        SchemeKind::Heuristic,
        SchemeKind::Clustering,
    ] {
        let mut tp = 0usize;
        let mut tn = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        let mut worst: Option<f64> = None;
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                let (a, b) = (models[i], models[j]);
                let train: Vec<Model> = models
                    .iter()
                    .copied()
                    .filter(|&m| m != a && m != b)
                    .collect();
                let mut scheme = Scheme::build(kind, &train, cache, seed);
                let predicted = scheme.predicts_beneficial_at(a, b, threshold);
                let actual_stp = cache.stp(a, b);
                let actual = actual_stp >= threshold;
                match (predicted, actual) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    (false, false) => tn += 1,
                }
                if predicted {
                    worst = Some(worst.map_or(actual_stp, |w: f64| w.min(actual_stp)));
                }
            }
        }
        let total = (tp + tn + fp + fn_) as f64;
        let positives = (tp + fn_).max(1) as f64;
        let negatives = (tn + fp).max(1) as f64;
        rows.push(Table2Row {
            scheme: kind,
            threshold,
            accuracy: (tp + tn) as f64 / total,
            true_positive_rate: tp as f64 / positives,
            true_negative_rate: tn as f64 / negatives,
            false_positive_rate: fp as f64 / negatives,
            false_negative_rate: fn_ as f64 / positives,
            // "Worst Perf": the lowest system throughput among pairs the
            // scheme chose to collocate, in STP units where 1.0 is fair
            // time-sharing (the paper's no-benefit point). A scheme that
            // never picks a harmful pair stays at or above 1.0.
            worst_perf: worst.unwrap_or(1.0),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // Simulation-heavy: keep request counts tiny in unit tests; the bench
    // harness uses realistic counts.

    #[test]
    fn complementary_pair_beats_contending_pair() {
        let mut cache = PairPerfCache::new(3, 7);
        // BERT (SA-heavy) + NCF (VU-heavy) is the paper's canonical good
        // pair; BERT + ResNet-RS are both SA-heavy.
        let good = cache.stp(Model::Bert, Model::Ncf);
        let bad = cache.stp(Model::Bert, Model::ResNetRs);
        assert!(
            good > bad,
            "complementary pair ({good:.2}) should beat contending pair ({bad:.2})"
        );
        assert!(good > 1.0);
    }

    #[test]
    fn cache_memoizes_and_is_order_insensitive() {
        let mut cache = PairPerfCache::new(2, 1);
        assert!(cache.is_empty());
        let ab = cache.stp(Model::Dlrm, Model::ResNet);
        let ba = cache.stp(Model::ResNet, Model::Dlrm);
        assert_eq!(ab, ba);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn measure_pair_stp_bounded_by_workload_count() {
        let a = Model::Mnist.default_profile();
        let b = Model::Ncf.default_profile();
        let stp = measure_pair_stp(&a, &b, 2, 3);
        assert!(stp > 0.0 && stp <= 2.2, "STP {stp} out of plausible range");
    }

    /// Regression for lint rule D1: the full Table 2 evaluation, run twice
    /// from scratch, serializes identically — no container with
    /// nondeterministic iteration order feeds the output.
    #[test]
    fn evaluation_output_is_reproducible() {
        let models = [Model::Bert, Model::Ncf, Model::Dlrm, Model::Mnist];
        let run = || {
            let mut cache = PairPerfCache::new(1, 11);
            let rows = cross_validate_table2(&models, &mut cache, 11);
            format!("{rows:?}")
        };
        assert_eq!(
            run(),
            run(),
            "two identical evaluations must serialize identically"
        );
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_request_cache_rejected() {
        let _ = PairPerfCache::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least 4 models")]
    fn tiny_model_set_rejected() {
        let mut cache = PairPerfCache::new(1, 0);
        let _ = cross_validate_table2(&[Model::Bert, Model::Ncf], &mut cache, 0);
    }
}
