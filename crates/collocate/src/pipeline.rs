//! The trained clustering predictor (Fig. 14).
//!
//! **Offline training**: extract features for every training workload,
//! standardize, project with PCA, cluster with K-Means, then profile the
//! average collocation performance between every pair of clusters on the
//! simulator (using each model's default-batch representative).
//!
//! **Online inference**: map each workload of a candidate pair to its
//! nearest cluster and predict the pair's performance as the profiled
//! performance of that cluster pair; collocate if it clears the threshold.

use v10_workloads::Model;

use crate::dataset::WorkloadPoint;
use crate::eval::PairPerfCache;
use crate::kmeans::KMeans;
use crate::pca::Pca;
use crate::standardize::Standardizer;

/// A fitted clustering-based collocation predictor.
#[derive(Debug)]
pub struct ClusteringPipeline {
    standardizer: Standardizer,
    pca: Pca,
    kmeans: KMeans,
    /// `cluster_perf[i][j]`: profiled mean STP of collocating a cluster-i
    /// workload with a cluster-j workload (symmetric).
    cluster_perf: Vec<Vec<f64>>,
    feature_seed: u64,
    /// `model_clusters[i]`: the cluster of `Model::ALL[i]` at its default
    /// batch, classified once by [`fit`](Self::fit).
    model_clusters: [usize; Model::ALL.len()],
}

impl ClusteringPipeline {
    /// Trains the pipeline on `points` (standardize → PCA(`pca_k`) →
    /// K-Means(`clusters`)), then profiles inter-cluster collocation
    /// performance through `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, or `pca_k`/`clusters` are out of range
    /// for the dataset.
    #[must_use]
    pub fn fit(
        points: &[WorkloadPoint],
        pca_k: usize,
        clusters: usize,
        cache: &mut PairPerfCache,
        seed: u64,
    ) -> Self {
        assert!(!points.is_empty(), "cannot train on an empty dataset");
        let raw: Vec<Vec<f64>> = points.iter().map(|p| p.features.clone()).collect();
        let standardizer = Standardizer::fit(&raw);
        let standardized = standardizer.transform_all(&raw);
        let pca = Pca::fit(&standardized, pca_k.min(standardizer.dim()));
        let projected = pca.transform_all(&standardized);
        let kmeans = KMeans::fit(&projected, clusters.min(points.len()), seed);

        // Default-batch representative per model, with its cluster.
        let representatives: Vec<(Model, usize)> = points
            .iter()
            .zip(kmeans.assignments())
            .filter(|(p, _)| p.is_default_batch())
            .map(|(p, &c)| (p.model, c))
            .collect();

        // Profile cluster-pair performance as the mean STP over model pairs
        // drawn from the two clusters (Fig. 14's "Inter-Cluster Pairwise
        // Collocation Profiling").
        let k = kmeans.k();
        let mut sums = vec![vec![0.0f64; k]; k];
        let mut counts = vec![vec![0usize; k]; k];
        let mut global_sum = 0.0;
        let mut global_count = 0usize;
        for (i, &(ma, ca)) in representatives.iter().enumerate() {
            for &(mb, cb) in representatives.iter().skip(i + 1) {
                let stp = cache.stp(ma, mb);
                sums[ca][cb] += stp;
                counts[ca][cb] += 1;
                if ca != cb {
                    sums[cb][ca] += stp;
                    counts[cb][ca] += 1;
                }
                global_sum += stp;
                global_count += 1;
            }
        }
        let global_mean = if global_count == 0 {
            1.0
        } else {
            global_sum / global_count as f64
        };
        let cluster_perf: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                (0..k)
                    .map(|j| {
                        if counts[i][j] == 0 {
                            global_mean
                        } else {
                            sums[i][j] / counts[i][j] as f64
                        }
                    })
                    .collect()
            })
            .collect();

        let mut pipeline = ClusteringPipeline {
            standardizer,
            pca,
            kmeans,
            cluster_perf,
            feature_seed: seed,
            model_clusters: [0; Model::ALL.len()],
        };
        pipeline.model_clusters = Model::ALL.map(|model| pipeline.classify_model(model));
        pipeline
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.kmeans.k()
    }

    /// Maps a raw feature vector to its cluster — Fig. 14's "Cluster
    /// Prediction" (works for workloads unseen in training).
    #[must_use]
    pub fn cluster_of_features(&self, features: &[f64]) -> usize {
        let z = self.standardizer.transform(features);
        self.kmeans.predict(&self.pca.transform(&z))
    }

    /// Maps a model (at its default batch) to its cluster: a lookup into
    /// the table [`fit`](Self::fit) classified.
    #[must_use]
    pub fn cluster_of_model(&self, model: Model) -> usize {
        Model::ALL
            .iter()
            .zip(self.model_clusters)
            .find_map(|(&m, cluster)| (m == model).then_some(cluster))
            .unwrap_or_else(|| self.classify_model(model))
    }

    /// Classifies `model` from its default-batch feature vector (one trace
    /// synthesis).
    fn classify_model(&self, model: Model) -> usize {
        let features = model.default_profile().feature_vector(self.feature_seed);
        self.cluster_of_features(features.as_slice())
    }

    /// Predicts the system throughput of collocating two models — the
    /// profiled performance of their clusters.
    #[must_use]
    pub fn predict_pair_performance(&self, a: Model, b: Model) -> f64 {
        let ca = self.cluster_of_model(a);
        let cb = self.cluster_of_model(b);
        self.cluster_perf[ca][cb]
    }

    /// The profiled cluster-pair performance table (symmetric, STP units).
    #[must_use]
    pub fn cluster_perf_table(&self) -> &[Vec<f64>] {
        &self.cluster_perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_dataset;

    fn tiny_pipeline() -> ClusteringPipeline {
        // Keep it simulation-cheap: 6 models, default batches only, 2
        // requests per profiling run.
        let models = [
            Model::Bert,
            Model::Ncf,
            Model::Dlrm,
            Model::ResNet,
            Model::Mnist,
            Model::RetinaNet,
        ];
        let points = build_dataset(&models, &[], 3);
        let mut cache = PairPerfCache::new(2, 3);
        ClusteringPipeline::fit(&points, 3, 3, &mut cache, 3)
    }

    #[test]
    fn clusters_and_predictions_in_range() {
        let p = tiny_pipeline();
        assert_eq!(p.clusters(), 3);
        for m in [Model::Bert, Model::Dlrm, Model::Mnist] {
            assert!(p.cluster_of_model(m) < 3);
        }
        let stp = p.predict_pair_performance(Model::Bert, Model::Ncf);
        assert!(stp > 0.5 && stp < 2.5, "predicted STP {stp}");
    }

    #[test]
    fn prediction_is_symmetric() {
        let p = tiny_pipeline();
        assert_eq!(
            p.predict_pair_performance(Model::Bert, Model::Dlrm),
            p.predict_pair_performance(Model::Dlrm, Model::Bert)
        );
    }

    #[test]
    fn perf_table_is_symmetric_and_positive() {
        let p = tiny_pipeline();
        let t = p.cluster_perf_table();
        for (i, row) in t.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!((v - t[j][i]).abs() < 1e-12);
                assert!(v > 0.0);
            }
        }
    }

    #[test]
    fn sa_and_vu_intensive_models_separate() {
        // The clustering should not lump BERT (SA-heavy, huge ops) with
        // DLRM (VU-heavy, tiny ops).
        let p = tiny_pipeline();
        assert_ne!(
            p.cluster_of_model(Model::Bert),
            p.cluster_of_model(Model::Dlrm),
            "BERT and DLRM in one cluster"
        );
    }

    #[test]
    fn model_table_matches_a_fresh_classification() {
        let p = tiny_pipeline();
        for m in Model::ALL {
            assert_eq!(p.cluster_of_model(m), p.classify_model(m), "{m}");
        }
    }

    #[test]
    fn unseen_workload_gets_a_cluster() {
        // Transformer is not in the tiny training set.
        let p = tiny_pipeline();
        assert!(p.cluster_of_model(Model::Transformer) < p.clusters());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_rejected() {
        let mut cache = PairPerfCache::new(1, 0);
        let _ = ClusteringPipeline::fit(&[], 2, 2, &mut cache, 0);
    }
}
