//! # v10-npu — the NPU-core performance model
//!
//! Component models composed by the multi-tenant executors in `v10-core`:
//!
//! * [`config`] — the simulated NPU configuration ([`NpuConfig`]), defaulting
//!   to the paper's Table 5 (128×128 SA, 8×128×2 VU, 700 MHz, 32 MB vector
//!   memory, 330 GB/s HBM, 32768-cycle scheduler time slice), with a builder
//!   for the three values the evaluation sweeps (FU count for Fig. 25, vmem
//!   capacity for Fig. 24, time slice for Fig. 23).
//! * [`fu`] — the functional-unit pool ([`FuPool`], [`FuId`]): `n` systolic
//!   arrays plus `n` vector units per core.
//! * [`hbm`] — the shared-HBM bandwidth arbiter ([`HbmArbiter`]): max-min
//!   fair allocation over the active operators' demands, plus moved-bytes
//!   accounting for the bandwidth-utilization figures.
//! * [`dma`] — the instruction-prefetch DMA model ([`InstructionDma`]) that
//!   drives the context table's Ready bit (§3.2).
//! * [`cluster`] — multi-core occupancy bookkeeping ([`ClusterState`]):
//!   which behavior class occupies which context-table slot on which core,
//!   the hardware-side state behind online admission control.
//! * [`topology`] — fleet interconnect geometry ([`FleetTopology`]):
//!   mesh wiring, per-link bandwidth, HBM-affinity groups, and the
//!   precomputed core × group hop-cost table consumed by topology-aware
//!   placement. [`FleetTopology::flat`] is the zero-hop compatibility view
//!   every pre-topology call site gets implicitly.
//!
//! # Example
//!
//! ```
//! use v10_npu::NpuConfig;
//!
//! let cfg = NpuConfig::table5();
//! assert_eq!(cfg.sa_dim(), 128);
//! assert_eq!(cfg.sa_switch_cycles(), 384); // 3N, §3.3
//! assert_eq!(cfg.time_slice_cycles(), 32_768);
//! // Fig. 25 scales FUs; HBM bandwidth scales with them "as a common
//! // practice" (§5.9).
//! let big = NpuConfig::builder().fu_count(4).build().expect("valid configuration");
//! assert!((big.hbm_bytes_per_cycle() - 4.0 * cfg.hbm_bytes_per_cycle()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod dma;
pub mod fu;
pub mod hbm;
pub mod topology;

pub use cluster::ClusterState;
pub use config::{NpuConfig, NpuConfigBuilder};
pub use dma::InstructionDma;
pub use fu::{FuId, FuPool};
pub use hbm::HbmArbiter;
pub use topology::{FleetTopology, Interconnect};
pub use v10_sim::{V10Error, V10Result};
