//! The three collocation deciders Table 2 compares.
//!
//! * **Random** — collocate unconditionally ("randomly collocates two
//!   workloads"): every pair is predicted beneficial, so its accuracy is
//!   the base rate of beneficial pairs.
//! * **Heuristic** — "the aggregated resource utilization of collocated
//!   workloads should not exceed the total available resource": predict
//!   beneficial iff the pair's summed SA, VU, and HBM utilizations each
//!   fit in one core. Ignores dynamic contention (operator-length
//!   mismatch), hence its misses.
//! * **Clustering** — V10's trained pipeline: predict the profiled STP of
//!   the pair's clusters and compare against the threshold.

use v10_workloads::Model;

use crate::dataset::build_dataset;
use crate::eval::PairPerfCache;
use crate::pipeline::ClusteringPipeline;

/// Identifies one of the three compared schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Collocate unconditionally.
    Random,
    /// Static aggregate-utilization check.
    Heuristic,
    /// V10's clustering-based predictor (§3.4).
    Clustering,
}

impl SchemeKind {
    /// The paper's row label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Random => "Random",
            SchemeKind::Heuristic => "Heuristic",
            SchemeKind::Clustering => "Clustering",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A ready-to-query collocation decider.
#[derive(Debug)]
pub enum Scheme {
    /// Collocate unconditionally.
    Random,
    /// Static aggregate-utilization check.
    Heuristic,
    /// Trained clustering pipeline.
    Clustering(Box<ClusteringPipeline>),
}

impl Scheme {
    /// Builds a scheme of the given kind. Only `Clustering` uses the
    /// training models / cache / seed.
    #[must_use]
    pub fn build(
        kind: SchemeKind,
        training_models: &[Model],
        cache: &mut PairPerfCache,
        seed: u64,
    ) -> Self {
        match kind {
            SchemeKind::Random => Scheme::Random,
            SchemeKind::Heuristic => Scheme::Heuristic,
            SchemeKind::Clustering => {
                let points = build_dataset(training_models, &[8, 32, 64], seed);
                // 3 principal components, 4 clusters: the best-performing
                // configuration in leave-2-out validation on this substrate
                // (EXPERIMENTS.md discusses the gap to the paper's 5-cluster
                // setup, which Fig. 15's visualization still uses).
                Scheme::Clustering(Box::new(ClusteringPipeline::fit(
                    &points, 3, 4, cache, seed,
                )))
            }
        }
    }

    /// The scheme's kind.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        match self {
            Scheme::Random => SchemeKind::Random,
            Scheme::Heuristic => SchemeKind::Heuristic,
            Scheme::Clustering(_) => SchemeKind::Clustering,
        }
    }

    /// Predicts against an explicit STP threshold (used by the Table 2
    /// cross-validation, which self-calibrates its threshold to the median
    /// ground-truth STP). Random and Heuristic are threshold-free rules.
    #[must_use]
    pub fn predicts_beneficial_at(&mut self, a: Model, b: Model, threshold: f64) -> bool {
        match self {
            Scheme::Random => true,
            Scheme::Heuristic => {
                let pa = a.default_profile();
                let pb = b.default_profile();
                pa.sa_util() + pb.sa_util() <= 1.0
                    && pa.vu_util() + pb.vu_util() <= 1.0
                    && pa.hbm_util() + pb.hbm_util() <= 1.0
            }
            Scheme::Clustering(p) => p.predict_pair_performance(a, b) >= threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::BENEFIT_THRESHOLD;

    #[test]
    fn random_always_collocates() {
        let mut s = Scheme::Random;
        assert_eq!(s.kind(), SchemeKind::Random);
        for a in Model::ALL {
            for b in Model::ALL {
                assert!(s.predicts_beneficial_at(a, b, BENEFIT_THRESHOLD));
            }
        }
    }

    #[test]
    fn heuristic_rejects_overcommitted_pairs() {
        let mut s = Scheme::Heuristic;
        // Two SA-intensive models over-commit the SA.
        assert!(!s.predicts_beneficial_at(Model::Bert, Model::ResNetRs, BENEFIT_THRESHOLD));
        // A complementary pair fits.
        assert!(s.predicts_beneficial_at(Model::Bert, Model::Dlrm, BENEFIT_THRESHOLD));
    }

    #[test]
    fn heuristic_is_symmetric() {
        let mut s = Scheme::Heuristic;
        for a in Model::ALL {
            for b in Model::ALL {
                assert_eq!(
                    s.predicts_beneficial_at(a, b, BENEFIT_THRESHOLD),
                    s.predicts_beneficial_at(b, a, BENEFIT_THRESHOLD)
                );
            }
        }
    }

    #[test]
    fn clustering_scheme_trains_and_decides() {
        let mut cache = PairPerfCache::new(2, 5);
        let train = [
            Model::Bert,
            Model::Ncf,
            Model::Dlrm,
            Model::ResNet,
            Model::Mnist,
            Model::RetinaNet,
        ];
        let mut s = Scheme::build(SchemeKind::Clustering, &train, &mut cache, 5);
        assert_eq!(s.kind(), SchemeKind::Clustering);
        // Must produce *some* decision for unseen pairs without panicking.
        let _ = s.predicts_beneficial_at(Model::Transformer, Model::ShapeMask, BENEFIT_THRESHOLD);
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(SchemeKind::Random.to_string(), "Random");
        assert_eq!(SchemeKind::Heuristic.to_string(), "Heuristic");
        assert_eq!(SchemeKind::Clustering.to_string(), "Clustering");
    }
}
