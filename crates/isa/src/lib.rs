//! # v10-isa — NPU instruction set, tensor operators, and traces
//!
//! Models the software-visible interface of the NPU described in §2.1 of the
//! V10 paper:
//!
//! * [`inst`] — the NPU instruction set (`push`/`pushw`/`pop` for the
//!   systolic array, `ld`/`st` for the vector memory, element-wise SIMD ALU
//!   ops), with a binary encoder/decoder used by the functional models in
//!   `v10-systolic`.
//! * [`op`] — tensor-operator descriptors ([`OpDesc`]): the unit the V10
//!   operator scheduler dispatches. Each operator targets one functional-unit
//!   kind ([`FuKind::Sa`] or [`FuKind::Vu`]) and carries its compute length,
//!   HBM traffic, vector-memory footprint, and FLOP count.
//! * [`trace`] — per-inference-request operator streams ([`RequestTrace`]):
//!   the paper's simulator "replays instruction traces captured on real
//!   TPUs"; ours replays synthetic traces with the same schema.
//! * [`dag`] — operator dependency graphs ([`OpDag`]) for the Fig. 6
//!   critical-path analysis (ideal operator-level-parallelism speedup).
//!
//! # Example
//!
//! ```
//! use v10_isa::{FuKind, OpDesc, RequestTrace};
//!
//! let matmul = OpDesc::builder(FuKind::Sa)
//!     .compute_cycles(107_800) // ~154 us at 700 MHz: ResNet's mean SA op
//!     .hbm_bytes(4 << 20)
//!     .flops(2 * 128 * 128 * 1024)
//!     .build();
//! let relu = OpDesc::builder(FuKind::Vu).compute_cycles(8_960).build();
//! let trace = RequestTrace::new(vec![matmul, relu]).expect("non-empty trace");
//! assert_eq!(trace.ops().len(), 2);
//! assert_eq!(trace.count(FuKind::Sa), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod inst;
pub mod op;
pub mod trace;

pub use dag::{DagError, OpDag};
pub use inst::{DecodeError, Inst, Reg, VAluOp, VmemAddr};
pub use op::{FuKind, OpDesc, OpDescBuilder};
pub use trace::{RequestTrace, TraceSummary};
pub use v10_sim::{V10Error, V10Result};
