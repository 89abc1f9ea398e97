//! # v10-systolic — functional models of the NPU's compute units
//!
//! The V10 performance simulator accounts preemption with two analytic
//! constants (§3.3 of the paper): a context switch on an N×N systolic array
//! costs `3N` cycles (384 for 128×128) and `6N²` bytes of on-chip context
//! (96 KB at N=128, 25 % less than the naive drain-everything approach).
//! This crate *derives* those constants from first principles by
//! implementing the hardware functionally:
//!
//! * [`matrix`] — a minimal dense matrix type with a reference matmul.
//! * [`fifo`] — the bounded in/out FIFOs between the vector unit and the
//!   systolic array (Fig. 2).
//! * [`vmem`] — the software-managed vector memory, with the per-workload
//!   partitioning scheme of §3.6.
//! * [`array`](mod@array) — a weight-stationary systolic array with the
//!   checkpoint/replay preemption protocol of Fig. 13; matmul results are
//!   bit-identical with and without preemption at arbitrary cycles.
//! * [`vector_unit`] — a SIMD vector unit executing `v10-isa` programs,
//!   with PC + register-file save/restore preemption.
//!
//! # Example
//!
//! ```
//! use v10_systolic::{Matrix, SaExecutor};
//!
//! let n = 8;
//! let a = Matrix::from_fn(16, n, |i, j| (i + j) as f32);
//! let w = Matrix::identity(n);
//! let mut exec = SaExecutor::new(n);
//! exec.begin(a.clone(), w).unwrap();
//! let out = exec.run_to_completion();
//! assert_eq!(out, a); // A × I = A
//! // The analytic context-switch bound the performance model uses:
//! assert_eq!(v10_systolic::context_switch_bound_cycles(128), 384);
//! assert_eq!(v10_systolic::checkpoint_context_bytes(128), 96 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod compile;
pub mod fifo;
pub mod matrix;
pub mod vector_unit;
pub mod vmem;

pub use array::{SaContext, SaError, SaExecutor};
pub use compile::{compile_matmul, CoreError, FunctionalCore};
pub use fifo::Fifo;
pub use matrix::Matrix;
pub use vector_unit::{VectorUnit, VuContext, VuError};
pub use vmem::{PartitionedVmem, VectorMemory, VmemError};

/// Upper bound, in cycles, of one context switch on an N×N systolic array
/// under the Fig. 13 checkpoint/replay protocol: ≤ 2N−1 cycles to drain the
/// in-flight wavefront (overlapped with input checkpointing) plus N cycles
/// to swap weights (the preempted operator's weights stream out while the
/// next operator's stream in). The paper quotes 384 cycles for N = 128.
#[must_use]
pub const fn context_switch_bound_cycles(n: u64) -> u64 {
    3 * n
}

/// Bytes of on-chip context per preempted SA operator: `N×2N` two-byte
/// bfloat16 inputs (the checkpointed in-flight window) plus `N×N` two-byte
/// weights — `6N²` total, 96 KB at N = 128 (§3.3).
#[must_use]
pub const fn checkpoint_context_bytes(n: u64) -> u64 {
    2 * n * (2 * n) + 2 * n * n
}

/// Bytes the naive drain-everything approach would save: `2×N×N` two-byte
/// inputs and weights plus `N×N` four-byte float32 partial sums — 128 KB at
/// N = 128. The checkpoint/replay protocol saves 25 % of this (§3.3).
#[must_use]
pub const fn naive_context_bytes(n: u64) -> u64 {
    2 * n * n * 2 + n * n * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_at_n128() {
        assert_eq!(context_switch_bound_cycles(128), 384);
        assert_eq!(checkpoint_context_bytes(128), 96 * 1024);
        assert_eq!(naive_context_bytes(128), 128 * 1024);
    }

    #[test]
    fn checkpoint_saves_25_percent() {
        for n in [3u64, 8, 64, 128, 256] {
            let saving = 1.0 - checkpoint_context_bytes(n) as f64 / naive_context_bytes(n) as f64;
            assert!((saving - 0.25).abs() < 1e-12, "n={n}: saving {saving}");
        }
    }
}
