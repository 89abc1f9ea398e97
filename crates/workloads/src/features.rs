//! Collocation feature extraction (§3.4 of the paper).
//!
//! "We leverage compiler techniques or offline profiling to extract workload
//! features related to resource contentions, including SA/VU utilizations,
//! HBM bandwidth consumption, and operator length statistics (e.g., mean,
//! min, max)." The clustering pipeline in `v10-collocate` consumes these
//! vectors; heavy-tailed quantities are log-transformed so PCA is not
//! dominated by the µs→ms dynamic range of operator lengths.

use v10_sim::Frequency;

use crate::profile::ModelProfile;

/// A workload's resource-contention feature vector.
///
/// # Example
///
/// ```
/// use v10_workloads::Model;
///
/// let f = Model::Bert.default_profile().feature_vector(42);
/// assert_eq!(f.as_slice().len(), 10);
/// // Feature 0 is the SA utilization: BERT is SA-intensive.
/// assert!(f.as_slice()[0] > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; 10],
}

impl FeatureVector {
    /// The raw feature values, in this order: SA, VU and HBM utilization;
    /// the log of the mean SA and VU operator lengths (µs); the log of the
    /// SA and VU operator-length spreads (max over min); the SA share of
    /// operators; the log of the request length (µs); FLOPS utilization.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

impl ModelProfile {
    /// Extracts the §3.4 feature vector, profiling a synthesized trace for
    /// the operator-length spread statistics.
    #[must_use]
    pub fn feature_vector(&self, seed: u64) -> FeatureVector {
        let clock = Frequency::default();
        let summary = self.synthesize(seed).summarize(clock);
        let spread = |min: f64, max: f64| {
            if min <= 0.0 {
                0.0
            } else {
                (max / min).ln()
            }
        };
        let total_ops = (self.sa_op_count() + self.vu_op_count()) as f64;
        FeatureVector {
            values: [
                self.sa_util(),
                self.vu_util(),
                self.hbm_util(),
                summary.avg_sa_op_micros.max(1e-6).ln(),
                summary.avg_vu_op_micros.max(1e-6).ln(),
                spread(summary.min_sa_op_micros, summary.max_sa_op_micros),
                spread(summary.min_vu_op_micros, summary.max_vu_op_micros),
                self.sa_op_count() as f64 / total_ops,
                clock.micros_from_cycles(self.request_cycles()).ln(),
                self.flops_util(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::model::Model;

    #[test]
    fn vector_has_ten_finite_dimensions() {
        let f = Model::ResNet.default_profile().feature_vector(1);
        assert_eq!(f.as_slice().len(), 10);
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_in_seed() {
        let p = Model::Dlrm.default_profile();
        assert_eq!(p.feature_vector(3), p.feature_vector(3));
    }

    #[test]
    fn similar_models_are_closer_in_utilization_subspace() {
        // In the utilization dimensions (the paper's Fig. 15 axes), ResNet
        // and ResNet-RS (both SA-intensive CNNs) are closer to each other
        // than ResNet is to DLRM (VU-intensive). The full-space distances
        // are only meaningful after standardization, which the clustering
        // pipeline in v10-collocate performs.
        let util = |m: Model| {
            let f = m.default_profile().feature_vector(1);
            [f.as_slice()[0], f.as_slice()[1], f.as_slice()[2]]
        };
        let d = |a: [f64; 3], b: [f64; 3]| -> f64 {
            a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let rsnt = util(Model::ResNet);
        assert!(d(rsnt, util(Model::ResNetRs)) < d(rsnt, util(Model::Dlrm)));
    }

    #[test]
    fn utilization_features_match_profile() {
        let p = Model::Ncf.default_profile();
        let f = p.feature_vector(9);
        assert!((f.as_slice()[0] - p.sa_util()).abs() < 1e-12);
        assert!((f.as_slice()[1] - p.vu_util()).abs() < 1e-12);
        assert!((f.as_slice()[2] - p.hbm_util()).abs() < 1e-12);
    }
}
