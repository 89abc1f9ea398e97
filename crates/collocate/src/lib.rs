//! # v10-collocate — clustering-based workload collocation (§3.4)
//!
//! "Randomly collocating two arbitrary workloads may negatively impact
//! resource utilization if they have conflicting resource demands." V10
//! therefore clusters workloads by their resource-usage features and
//! predicts a pair's collocation performance from the *profiled*
//! performance of their clusters — accurate like brute-force profiling,
//! cheap like a heuristic.
//!
//! The pipeline (Fig. 14), built from scratch (no ML library):
//!
//! * [`standardize`] — z-score feature standardization.
//! * [`pca`] — principal component analysis via a Jacobi eigensolver on the
//!   feature covariance matrix.
//! * [`kmeans`] — K-Means with k-means++ seeding.
//! * [`dataset`] — workload points (model × batch feature vectors).
//! * [`pipeline`] — the trained predictor: standardize → PCA → K-Means →
//!   inter-cluster collocation-performance table.
//! * [`schemes`] — the three compared deciders of Table 2: `Random`,
//!   `Heuristic` (aggregate utilization must fit), and `Clustering`.
//! * [`eval`] — ground-truth pair profiling on the simulator, the ≥ 1.3×
//!   decision threshold, and the leave-2-out cross-validation protocol.
//! * [`placer`] — the cluster database as an *online* placement advisor
//!   ([`OnlinePlacer`]): it scores collocating an arriving tenant with
//!   each core's residents.
//! * [`fleet`] — the one multi-core serving plane ([`FleetPlane`]):
//!   topology-aware admission, from a two-core cluster to a ≥1000-core
//!   fleet, decomposed into per-shard workers with per-(class, HBM-group)
//!   candidate tables, exchanging departures deterministically at epoch
//!   boundaries — byte-identical reports at any shard or thread count.
//! * [`recovery`] — the fleet's fixed re-admission ladder and its serve
//!   report ([`ClusterServeReport`]).
//!
//! # Example
//!
//! ```no_run
//! use v10_collocate::{build_default_dataset, ClusteringPipeline, PairPerfCache};
//! use v10_workloads::Model;
//!
//! let points = build_default_dataset(42);
//! let mut cache = PairPerfCache::new(8, 42);
//! let pipeline = ClusteringPipeline::fit(&points, 3, 5, &mut cache, 42);
//! let predicted = pipeline.predict_pair_performance(Model::Bert, Model::Ncf);
//! println!("predicted STP for BERT+NCF: {predicted:.2}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod eval;
pub mod fleet;
pub mod kmeans;
pub mod pca;
pub mod pipeline;
pub mod placer;
pub mod recovery;
pub mod schemes;
pub mod standardize;

pub use dataset::{build_dataset, build_default_dataset, WorkloadPoint};
pub use eval::{
    cross_validate_table2, measure_pair_stp, PairPerfCache, Table2Row, BENEFIT_THRESHOLD,
};
pub use fleet::{FleetOutcome, FleetPlane};
pub use kmeans::KMeans;
pub use pca::Pca;
pub use pipeline::ClusteringPipeline;
pub use placer::{AdmissionDecision, OnlinePlacer, Placement, TopoScore, TopologyWeights};
pub use recovery::{ClusterServeReport, RequeueRecord, ShedRecord};
pub use schemes::{Scheme, SchemeKind};
pub use standardize::Standardizer;
