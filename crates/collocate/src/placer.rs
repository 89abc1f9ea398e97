//! Online placement: the Fig. 14 cluster database as a serving-time
//! admission advisor.
//!
//! A serving cluster sees tenants one at a time: when a tenant arrives, the
//! [`OnlinePlacer`] maps its §3.4 feature vector to a K-Means cluster and
//! scores collocating it with each core's current residents using the
//! profiled cluster-pair STP table. Cores whose predicted STP clears the
//! benefit threshold are candidates; the best one wins. If no occupied core
//! qualifies, the tenant gets an empty core; with no free slot anywhere it
//! is rejected.
//!
//! [`FleetPlane`](crate::fleet::FleetPlane) wraps the advisor around a
//! [`ClusterState`]: it caches each core's [`OnlinePlacer::topo_score`],
//! takes the argmax per arrival, and hands each placed arrival to its
//! core's resumable engine run.

use std::sync::Arc;

use v10_npu::ClusterState;
use v10_sim::convert::usize_to_f64;
use v10_sim::{V10Error, V10Result};
use v10_workloads::Model;

use crate::eval::BENEFIT_THRESHOLD;
use crate::pipeline::ClusteringPipeline;

/// The advisor's verdict for one arriving tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Admit the tenant onto this core.
    Core(usize),
    /// No core can take the tenant: every occupied core's predicted STP is
    /// below the threshold and no empty slot remains.
    Reject,
}

/// A serving-time placement advisor over a fitted [`ClusteringPipeline`].
///
/// Placement prefers *beneficial collocation* over spreading out — the
/// whole point of V10 is that complementary tenants sharing a core beat two
/// half-idle cores — so an occupied core whose predicted STP clears the
/// threshold wins over an empty one.
#[derive(Debug, Clone, Copy)]
pub struct OnlinePlacer<'a> {
    pipeline: &'a ClusteringPipeline,
    threshold: f64,
}

impl<'a> OnlinePlacer<'a> {
    /// An advisor over `pipeline` using the default
    /// [`BENEFIT_THRESHOLD`].
    #[must_use]
    pub fn new(pipeline: &'a ClusteringPipeline) -> Self {
        OnlinePlacer {
            pipeline,
            threshold: BENEFIT_THRESHOLD,
        }
    }

    /// Overrides the collocation-benefit threshold (predicted STP at or
    /// above which sharing a core is considered worthwhile).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `threshold` is not finite
    /// and positive.
    pub fn with_threshold(mut self, threshold: f64) -> V10Result<Self> {
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(V10Error::invalid(
                "OnlinePlacer::with_threshold",
                format!("benefit threshold must be finite and positive, got {threshold}"),
            ));
        }
        self.threshold = threshold;
        Ok(self)
    }

    /// The collocation-benefit threshold in use.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The underlying fitted pipeline.
    #[must_use]
    pub fn pipeline(&self) -> &'a ClusteringPipeline {
        self.pipeline
    }

    /// Maps a model (at its default batch) to its behavior class — the
    /// K-Means cluster id used as the [`ClusterState`] resident tag.
    #[must_use]
    pub fn class_of_model(&self, model: Model) -> usize {
        self.pipeline.cluster_of_model(model)
    }

    /// Scores one candidate core for an arrival of behavior class `class`
    /// whose weights are resident in HBM group `home_group`, or `None`
    /// when the core is not admissible (no free slot, or a resident
    /// pairing below the benefit threshold).
    ///
    /// The score is a two-tier key (see [`TopoScore`]): collocating with
    /// beneficial residents always outranks opening an empty core, and
    /// within a tier the value is the conservative cluster-compatibility
    /// STP minus the topology penalties — `hop_penalty` per interconnect
    /// hop between the core and the tenant's weight-resident HBM group,
    /// and `spread_penalty` per already-resident tenant of the *same*
    /// class (antagonist spreading: same-class tenants stress the same
    /// functional units, so piling them on one core is the worst-case
    /// contention pattern).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `class`, `core`,
    /// `home_group`, or any resident tag is out of range.
    pub fn topo_score(
        &self,
        class: usize,
        core: usize,
        cluster_state: &ClusterState,
        home_group: usize,
        weights: &TopologyWeights,
    ) -> V10Result<Option<TopoScore>> {
        let k = self.pipeline.clusters();
        if class >= k {
            return Err(V10Error::invalid(
                "OnlinePlacer::topo_score",
                format!("class {class} out of range for a {k}-cluster pipeline"),
            ));
        }
        if cluster_state.free_slots(core)? == 0 {
            return Ok(None);
        }
        let hops = cluster_state.topology().hop_cost(core, home_group)?;
        let residents = cluster_state.residents(core)?;
        let same_class = residents.iter().filter(|&&r| r == class).count();
        let penalty = weights.hop_penalty * f64::from(hops)
            + weights.spread_penalty * usize_to_f64(same_class);
        if residents.is_empty() {
            return Ok(Some(TopoScore {
                collocated: false,
                value: -penalty,
            }));
        }
        let perf = self.pipeline.cluster_perf_table();
        let mut predicted = f64::INFINITY;
        for &r in residents {
            if r >= k {
                return Err(V10Error::invalid(
                    "OnlinePlacer::topo_score",
                    format!(
                        "resident class {r} on core {core} out of range \
                         for a {k}-cluster pipeline"
                    ),
                ));
            }
            predicted = predicted.min(perf[class][r]);
        }
        if predicted < self.threshold {
            return Ok(None);
        }
        Ok(Some(TopoScore {
            collocated: true,
            value: predicted - penalty,
        }))
    }

    /// Topology-aware placement as one flat argmax over
    /// [`topo_score`](Self::topo_score): the admissible core with the
    /// highest [`TopoScore`] wins, ties broken by the lowest core index. It
    /// is the reference (single-scan) ranking the sharded fleet plane
    /// decomposes across per-shard admission workers; both must pick
    /// identical cores on identical state, which debug builds check on
    /// every fleet placement. At [`TopologyWeights::zero`] on home group 0
    /// every penalty is `+0.0`, so an empty core scores `-0.0`, a
    /// collocated core exactly its predicted STP, and this is the
    /// topology-blind ranking.
    ///
    /// # Errors
    ///
    /// As [`topo_score`](Self::topo_score).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn best_core(
        &self,
        class: usize,
        cluster_state: &ClusterState,
        home_group: usize,
        weights: &TopologyWeights,
    ) -> V10Result<Placement> {
        let mut best: Option<(TopoScore, usize)> = None;
        for core in 0..cluster_state.cores() {
            if let Some(score) = self.topo_score(class, core, cluster_state, home_group, weights)? {
                if best.is_none_or(|(b, _)| score.beats(&b)) {
                    best = Some((score, core));
                }
            }
        }
        Ok(best.map_or(Placement::Reject, |(_, core)| Placement::Core(core)))
    }
}

/// Weights of the topology terms in [`OnlinePlacer::topo_score`]:
/// `hop_penalty` is STP-units lost per interconnect hop between a core
/// and the tenant's weight-resident HBM group, `spread_penalty` is
/// STP-units lost per same-class resident already on the core. Zero
/// weights reduce topology-aware placement to the topology-blind rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyWeights {
    hop_penalty: f64,
    spread_penalty: f64,
}

impl TopologyWeights {
    /// Weights of `hop_penalty` per hop and `spread_penalty` per
    /// same-class resident.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless both weights are
    /// finite and non-negative.
    pub fn new(hop_penalty: f64, spread_penalty: f64) -> V10Result<Self> {
        for (name, w) in [
            ("hop_penalty", hop_penalty),
            ("spread_penalty", spread_penalty),
        ] {
            if !(w.is_finite() && w >= 0.0) {
                return Err(V10Error::invalid(
                    "TopologyWeights::new",
                    format!("{name} must be finite and non-negative, got {w}"),
                ));
            }
        }
        Ok(TopologyWeights {
            hop_penalty,
            spread_penalty,
        })
    }

    /// Zero weights: topology-aware scoring collapses to the historical
    /// topology-blind ranking.
    #[must_use]
    pub fn zero() -> Self {
        TopologyWeights {
            hop_penalty: 0.0,
            spread_penalty: 0.0,
        }
    }

    /// STP-units lost per interconnect hop.
    #[must_use]
    pub fn hop_penalty(&self) -> f64 {
        self.hop_penalty
    }

    /// STP-units lost per same-class resident.
    #[must_use]
    pub fn spread_penalty(&self) -> f64 {
        self.spread_penalty
    }
}

/// A candidate score from [`OnlinePlacer::topo_score`], ordered as a
/// two-level key: collocating with beneficial residents always outranks
/// opening an empty core (the paper's collocation-first philosophy), and
/// within a tier a larger penalized STP value wins. Kept as a composite
/// key — never collapsed into one float — so tier jumps can't be eroded
/// by penalty arithmetic or rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoScore {
    collocated: bool,
    value: f64,
}

impl TopoScore {
    /// The within-tier value: conservative pair STP (or zero for an
    /// empty core) minus the topology penalties.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Total order: tier first, then `f64::total_cmp` on the value.
    #[must_use]
    pub fn cmp_key(&self, other: &TopoScore) -> std::cmp::Ordering {
        self.collocated
            .cmp(&other.collocated)
            .then(self.value.total_cmp(&other.value))
    }

    /// Strictly better than `other` — equal scores do *not* beat, so a
    /// scan that keeps the incumbent on ties picks the lowest core index.
    #[must_use]
    pub fn beats(&self, other: &TopoScore) -> bool {
        self.cmp_key(other) == std::cmp::Ordering::Greater
    }
}

/// One admission decision of a fleet serve, in offer order
/// ([`FleetOutcome::decisions`](crate::fleet::FleetOutcome::decisions)).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionDecision {
    /// The tenant's label, shared with its arrival.
    pub label: Arc<str>,
    /// The arriving model.
    pub model: Model,
    /// Arrival time in cycles.
    pub at_cycles: f64,
    /// Where the tenant landed, or [`Placement::Reject`].
    pub placement: Placement,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_dataset;
    use crate::eval::PairPerfCache;
    use v10_npu::FleetTopology;

    fn pipeline() -> ClusteringPipeline {
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

    /// The topology-blind ranking of an arrival of behavior class `class`.
    fn rank(placer: &OnlinePlacer, class: usize, state: &ClusterState) -> V10Result<Placement> {
        placer.best_core(class, state, 0, &TopologyWeights::zero())
    }

    #[test]
    fn empty_cluster_places_on_first_core() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p);
        let state = ClusterState::new(3, 8).unwrap();
        assert_eq!(
            rank(&placer, placer.class_of_model(Model::Bert), &state).unwrap(),
            Placement::Core(0)
        );
    }

    #[test]
    fn beneficial_pairing_beats_empty_core() {
        let p = pipeline();
        // Find two models the pipeline predicts as beneficial together.
        let models = [Model::Bert, Model::Ncf, Model::Dlrm, Model::ResNet];
        let pair = models
            .iter()
            .flat_map(|&a| models.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a != b && p.predict_pair_performance(a, b) >= BENEFIT_THRESHOLD);
        let Some((a, b)) = pair else {
            // The tiny training set may predict nothing as beneficial; the
            // empty-core fallback is then the only reachable branch.
            return;
        };
        let placer = OnlinePlacer::new(&p);
        let mut state = ClusterState::new(2, 8).unwrap();
        state.admit(0, placer.class_of_model(a)).unwrap();
        assert_eq!(
            rank(&placer, placer.class_of_model(b), &state).unwrap(),
            Placement::Core(0),
            "{a}+{b} predicted beneficial, should collocate"
        );
    }

    #[test]
    fn non_beneficial_pairing_takes_empty_core_then_rejects() {
        let p = pipeline();
        // A sky-high threshold makes every collocation non-beneficial.
        let placer = OnlinePlacer::new(&p).with_threshold(1.0e9).unwrap();
        let mut state = ClusterState::new(2, 8).unwrap();
        state.admit(0, placer.class_of_model(Model::Bert)).unwrap();
        assert_eq!(
            rank(&placer, placer.class_of_model(Model::Dlrm), &state).unwrap(),
            Placement::Core(1),
            "advisor refuses collocation, tenant goes to the empty core"
        );
        state.admit(1, placer.class_of_model(Model::Dlrm)).unwrap();
        assert_eq!(
            rank(&placer, placer.class_of_model(Model::Ncf), &state).unwrap(),
            Placement::Reject,
            "no beneficial pairing and no empty core left"
        );
    }

    #[test]
    fn full_cluster_rejects() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p).with_threshold(0.01).unwrap();
        let mut state = ClusterState::new(1, 1).unwrap();
        state.admit(0, 0).unwrap();
        assert_eq!(
            rank(&placer, placer.class_of_model(Model::Bert), &state).unwrap(),
            Placement::Reject
        );
    }

    #[test]
    fn out_of_range_classes_rejected() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p);
        let state = ClusterState::new(1, 8).unwrap();
        let err = rank(&placer, p.clusters(), &state).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // A resident tag from some other pipeline is caught too.
        let mut state = ClusterState::new(1, 8).unwrap();
        state.admit(0, p.clusters() + 5).unwrap();
        let err = rank(&placer, 0, &state).unwrap_err();
        assert!(err.to_string().contains("resident class"), "{err}");
    }

    #[test]
    fn bad_threshold_rejected() {
        let p = pipeline();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = OnlinePlacer::new(&p).with_threshold(bad).unwrap_err();
            assert!(err.to_string().contains("finite and positive"), "{err}");
        }
    }

    #[test]
    fn bad_topology_weights_rejected() {
        for (h, s) in [
            (-1.0, 0.0),
            (0.0, -0.5),
            (f64::NAN, 0.0),
            (0.0, f64::INFINITY),
        ] {
            let err = TopologyWeights::new(h, s).unwrap_err();
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
        }
        let w = TopologyWeights::new(0.25, 0.1).unwrap();
        assert_eq!(w.hop_penalty(), 0.25);
        assert_eq!(w.spread_penalty(), 0.1);
        assert_eq!(
            TopologyWeights::zero(),
            TopologyWeights::new(0.0, 0.0).unwrap()
        );
    }

    #[test]
    fn topo_score_ordering_is_tiered() {
        // Collocation at any penalized value beats an empty core at any.
        let occupied = TopoScore {
            collocated: true,
            value: -3.0,
        };
        let empty = TopoScore {
            collocated: false,
            value: 0.0,
        };
        assert!(occupied.beats(&empty));
        assert!(!empty.beats(&occupied));
        // Equal scores beat nothing, so an incumbent-keeping scan takes the
        // lowest core index on ties.
        assert!(!occupied.beats(&occupied));
        let better = TopoScore {
            collocated: true,
            value: -2.0,
        };
        assert!(better.beats(&occupied));
    }

    #[test]
    fn near_hbm_group_beats_far_at_equal_cluster_fit() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p).with_threshold(0.01).unwrap();
        // 4×1 mesh, two HBM column bands: {0, 1} and {2, 3}.
        let topo = FleetTopology::mesh(4, 1, 2, 64.0).unwrap();
        let weights = TopologyWeights::new(0.05, 0.0).unwrap();
        // Equal fit among empty cores: the zero-hop band wins over index.
        let mut state = ClusterState::with_topology(topo, 2).unwrap();
        assert_eq!(
            placer.best_core(0, &state, 1, &weights).unwrap(),
            Placement::Core(2),
            "empty core nearest to home group 1 wins over lower-index core 0"
        );
        assert_eq!(
            placer.best_core(0, &state, 0, &weights).unwrap(),
            Placement::Core(0)
        );
        // Equal fit among occupied cores: same resident class on cores 0 and
        // 3 gives identical predicted STP; only hop distance differs.
        state.admit(0, 1).unwrap();
        state.admit(3, 1).unwrap();
        assert_eq!(
            placer.best_core(0, &state, 1, &weights).unwrap(),
            Placement::Core(3),
            "equal cluster fit, nearer HBM group wins"
        );
        assert_eq!(
            placer.best_core(0, &state, 0, &weights).unwrap(),
            Placement::Core(0)
        );
    }

    #[test]
    fn spread_penalty_steers_away_from_same_class_pileups() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p).with_threshold(0.01).unwrap();
        let mut state = ClusterState::new(2, 4).unwrap();
        // Core 0 already hosts two class-1 tenants, core 1 hosts one; the
        // min-pair STP for a class-1 arrival is identical on both, so only
        // the antagonist-spreading term separates them.
        state.admit(0, 1).unwrap();
        state.admit(0, 1).unwrap();
        state.admit(1, 1).unwrap();
        let spread = TopologyWeights::new(0.0, 0.01).unwrap();
        assert_eq!(
            placer.best_core(1, &state, 0, &spread).unwrap(),
            Placement::Core(1),
            "lighter same-class load wins at equal predicted STP"
        );
        // Without the weight the tie falls back to the lowest core index.
        assert_eq!(
            placer
                .best_core(1, &state, 0, &TopologyWeights::zero())
                .unwrap(),
            Placement::Core(0)
        );
    }

    #[test]
    fn topo_score_rejects_out_of_range_arguments() {
        let p = pipeline();
        let placer = OnlinePlacer::new(&p);
        let state = ClusterState::new(2, 2).unwrap();
        let w = TopologyWeights::zero();
        let err = placer
            .topo_score(p.clusters(), 0, &state, 0, &w)
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = placer.topo_score(0, 9, &state, 0, &w).unwrap_err();
        assert!(err.to_string().contains("core"), "{err}");
        let err = placer.topo_score(0, 0, &state, 7, &w).unwrap_err();
        assert!(err.to_string().contains("group"), "{err}");
        let mut state = ClusterState::new(1, 2).unwrap();
        state.admit(0, p.clusters() + 1).unwrap();
        let err = placer.best_core(0, &state, 0, &w).unwrap_err();
        assert!(err.to_string().contains("resident class"), "{err}");
    }
}
