//! # v10-workloads — the calibrated ML model zoo
//!
//! The V10 paper evaluates on operator traces captured from 11 MLPerf /
//! TPU-reference models running on real Google Cloud TPUs (Table 4). We do
//! not have access to those traces, so this crate synthesizes statistically
//! equivalent ones: for each model and batch size it produces a
//! [`RequestTrace`](v10_isa::RequestTrace) whose
//!
//! * mean SA / VU operator lengths match **Table 1** of the paper,
//! * SA ("MXU") and VU ("VPU") temporal utilizations match **Figs. 4–5**,
//! * HBM bandwidth utilization matches **Fig. 7**,
//! * FLOPS utilization and roofline position match **Figs. 3 and 8**,
//! * and whose dependency DAG reproduces the marginal ideal speedup of
//!   **Fig. 6**.
//!
//! Values that the paper only publishes as bar charts are visually estimated
//! and marked `est. from Fig. N` in [`zoo`]. The simulator consumes only
//! these marginals, so matching them reproduces the scheduling conditions
//! the paper's evaluation starts from (see DESIGN.md §1).
//!
//! # Example
//!
//! ```
//! use v10_workloads::{Model, PAIRS_EVAL};
//!
//! // ResNet at the paper's default batch size (32).
//! let profile = Model::ResNet.default_profile();
//! let trace = profile.synthesize(42);
//! let summary = trace.summarize(v10_sim::Frequency::default());
//! // Table 1: ResNet's mean SA operator is 154 us.
//! assert!((summary.avg_sa_op_micros - 154.0).abs() / 154.0 < 0.05);
//! assert_eq!(PAIRS_EVAL.len(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arrivals;
pub mod features;
pub mod model;
pub mod pairs;
pub mod profile;
pub mod synth;
pub mod zoo;

pub use adversary::{AdversaryCase, AdversaryGen, AdversaryScenario, ScenarioProfile};
pub use arrivals::{MmppProcess, MmppState, OpenLoopProcess, TimedArrival};
pub use features::FeatureVector;
pub use model::Model;
pub use pairs::{PAIRS_EVAL, PAIRS_FIG9};
pub use profile::{BatchError, ModelProfile};
pub use synth::refit_vmem;
