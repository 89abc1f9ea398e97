//! The 11 evaluation models (Table 4 of the paper).

use std::fmt;

use crate::profile::{BatchError, ModelProfile};

/// One of the paper's 11 MLPerf / TPU-reference inference models (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Model {
    /// BERT — natural language processing.
    Bert,
    /// DLRM — recommendation.
    Dlrm,
    /// EfficientNet — image classification.
    EfficientNet,
    /// Mask-RCNN — object detection & segmentation.
    MaskRcnn,
    /// MNIST — image classification.
    Mnist,
    /// NCF — recommendation.
    Ncf,
    /// ResNet — image classification.
    ResNet,
    /// ResNet-RS — image classification.
    ResNetRs,
    /// RetinaNet — object detection.
    RetinaNet,
    /// ShapeMask — object detection & segmentation.
    ShapeMask,
    /// Transformer — natural language processing.
    Transformer,
}

impl Model {
    /// All 11 models in the paper's Table 4 order.
    pub const ALL: [Model; 11] = [
        Model::Bert,
        Model::Dlrm,
        Model::EfficientNet,
        Model::MaskRcnn,
        Model::Mnist,
        Model::Ncf,
        Model::ResNet,
        Model::ResNetRs,
        Model::RetinaNet,
        Model::ShapeMask,
        Model::Transformer,
    ];

    /// Full model name as in Table 4.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Bert => "BERT",
            Model::Dlrm => "DLRM",
            Model::EfficientNet => "EfficientNet",
            Model::MaskRcnn => "Mask-RCNN",
            Model::Mnist => "MNIST",
            Model::Ncf => "NCF",
            Model::ResNet => "ResNet",
            Model::ResNetRs => "ResNet-RS",
            Model::RetinaNet => "RetinaNet",
            Model::ShapeMask => "ShapeMask",
            Model::Transformer => "Transformer",
        }
    }

    /// Abbreviation used in the paper's figures (Table 4).
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            Model::Bert => "BERT",
            Model::Dlrm => "DLRM",
            Model::EfficientNet => "ENet",
            Model::MaskRcnn => "MRCN",
            Model::Mnist => "MNST",
            Model::Ncf => "NCF",
            Model::ResNet => "RsNt",
            Model::ResNetRs => "RNRS",
            Model::RetinaNet => "RtNt",
            Model::ShapeMask => "SMask",
            Model::Transformer => "TFMR",
        }
    }

    /// The paper's default evaluation batch size: 32 for every model except
    /// ShapeMask (8) and Mask-RCNN (16) — see Tables 1 and 4.
    #[must_use]
    pub fn default_batch(self) -> u32 {
        match self {
            Model::ShapeMask => 8,
            Model::MaskRcnn => 16,
            _ => 32,
        }
    }

    /// Largest batch size that fits in device memory. Fig. 3 notes that
    /// "some workloads with large batch sizes fail due to insufficient
    /// memory"; these caps are estimated from where each model's bars stop.
    #[must_use]
    pub fn max_batch(self) -> u32 {
        match self {
            Model::Bert => 512,         // est. from Fig. 3
            Model::Dlrm => 2048,        // est. from Fig. 3
            Model::EfficientNet => 256, // est. from Fig. 3
            Model::MaskRcnn => 64,      // est. from Fig. 3
            Model::Mnist => 2048,       // est. from Fig. 3
            Model::Ncf => 2048,         // est. from Fig. 3
            Model::ResNet => 1024,      // est. from Fig. 3
            Model::ResNetRs => 256,     // est. from Fig. 3
            Model::RetinaNet => 256,    // est. from Fig. 3
            Model::ShapeMask => 32,     // est. from Fig. 3
            Model::Transformer => 64,   // est. from Fig. 3
        }
    }

    /// The batch-size sweep the paper uses in Figs. 3–8, truncated at this
    /// model's memory limit.
    #[must_use]
    pub fn batch_sweep(self) -> Vec<u32> {
        [1u32, 8, 32, 64, 128, 256, 512, 1024, 2048]
            .into_iter()
            .filter(|&b| b <= self.max_batch())
            .collect()
    }

    /// The calibrated profile at the paper's default batch size.
    ///
    /// The default batch is always within the memory limit, so this cannot
    /// fail.
    #[must_use]
    pub fn default_profile(self) -> ModelProfile {
        self.profile(self.default_batch())
            // v10-lint: allow(P1) every default batch (8, 16 or 32) is non-zero and within its model's memory limit (at least 32)
            .expect("default batch is always within the memory limit")
    }

    /// The calibrated profile at an arbitrary batch size.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] if `batch` is zero or exceeds the model's
    /// memory limit ([`Model::max_batch`]).
    pub fn profile(self, batch: u32) -> Result<ModelProfile, BatchError> {
        ModelProfile::calibrated(self, batch)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_eleven_models() {
        assert_eq!(Model::ALL.len(), 11);
        // No duplicates.
        let mut names: Vec<&str> = Model::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn default_batches_match_table1() {
        for m in Model::ALL {
            let expected = match m {
                Model::ShapeMask => 8,
                Model::MaskRcnn => 16,
                _ => 32,
            };
            assert_eq!(m.default_batch(), expected, "{m}");
        }
    }

    #[test]
    fn default_batch_never_exceeds_max() {
        for m in Model::ALL {
            assert!(m.default_batch() <= m.max_batch(), "{m}");
        }
    }

    #[test]
    fn batch_sweep_is_capped_and_nonempty() {
        for m in Model::ALL {
            let sweep = m.batch_sweep();
            assert!(!sweep.is_empty());
            assert!(sweep.iter().all(|&b| b <= m.max_batch()));
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(Model::ShapeMask.batch_sweep(), vec![1, 8, 32]);
    }

    #[test]
    fn abbrevs_match_paper() {
        assert_eq!(Model::ResNetRs.abbrev(), "RNRS");
        assert_eq!(Model::ShapeMask.abbrev(), "SMask");
        assert_eq!(Model::Transformer.to_string(), "TFMR");
    }

    #[test]
    fn default_profile_succeeds_for_all() {
        for m in Model::ALL {
            let p = m.default_profile();
            assert_eq!(p.model(), m);
            assert_eq!(p.batch(), m.default_batch());
        }
    }
}
