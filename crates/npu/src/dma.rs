//! Instruction-prefetch DMA model.
//!
//! §3.2: "For each operator, the scheduler uses DMA to load the instructions
//! from the off-chip HBM into the on-chip instruction memory. The Ready bit
//! indicates whether the DMA is completed and the operator can start
//! execution." The scheduler prefetches the *next* operator's instructions
//! while the current one runs, so the fetch is almost always hidden; it only
//! surfaces as latency when an operator is much shorter than its successor's
//! instruction stream.
//!
//! Instruction fetches are small (KBs) next to tensor traffic (MBs), so they
//! ride a reserved slice of the HBM bandwidth instead of competing in the
//! arbiter — a simplification documented in DESIGN.md.

use v10_isa::OpDesc;
use v10_sim::{V10Error, V10Result};

/// Fraction of peak HBM bandwidth reserved for instruction prefetch.
const PREFETCH_BANDWIDTH_SHARE: f64 = 0.05;

/// Instruction-prefetch latency model.
///
/// # Example
///
/// ```
/// use v10_isa::{FuKind, OpDesc};
/// use v10_npu::InstructionDma;
///
/// let dma = InstructionDma::new(471.4).expect("valid peak"); // Table 5 HBM, bytes/cycle
/// let op = OpDesc::builder(FuKind::Sa).compute_cycles(70_000).build();
/// // Fetch latency is tiny relative to operator lengths.
/// assert!(dma.fetch_cycles(&op) < 1_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionDma {
    bytes_per_cycle: f64,
}

impl InstructionDma {
    /// Creates the model over a link of `peak_bytes_per_cycle` total HBM
    /// bandwidth.
    ///
    /// unit: `peak_bytes_per_cycle` is in bytes per NPU clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the peak is not finite and
    /// positive.
    pub fn new(peak_bytes_per_cycle: f64) -> V10Result<Self> {
        if !(peak_bytes_per_cycle.is_finite() && peak_bytes_per_cycle > 0.0) {
            return Err(V10Error::invalid(
                "InstructionDma::new",
                format!("bandwidth must be positive, got {peak_bytes_per_cycle}"),
            ));
        }
        Ok(InstructionDma {
            bytes_per_cycle: peak_bytes_per_cycle * PREFETCH_BANDWIDTH_SHARE,
        })
    }

    /// Cycles to DMA `op`'s instruction stream into instruction memory.
    #[must_use]
    #[inline]
    pub fn fetch_cycles(&self, op: &OpDesc) -> f64 {
        v10_sim::convert::u64_to_f64(op.instr_bytes()) / self.bytes_per_cycle
    }

    /// When `op` becomes Ready, given that its prefetch started at
    /// `fetch_start` (the predecessor's issue time) and its predecessor
    /// finishes at `predecessor_done`: the fetch hides behind the
    /// predecessor whenever possible.
    ///
    /// unit: `fetch_start` and `predecessor_done` are simulated-clock
    /// instants in cycles; the result is an instant in cycles.
    #[must_use]
    #[inline]
    pub fn ready_at(&self, op: &OpDesc, fetch_start: f64, predecessor_done: f64) -> f64 {
        debug_assert!(
            fetch_start.is_finite() && predecessor_done.is_finite(),
            "ready_at expects finite cycle instants, got {fetch_start} / {predecessor_done}"
        );
        predecessor_done.max(fetch_start + self.fetch_cycles(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_isa::FuKind;

    fn op(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(cycles).build()
    }

    #[test]
    fn fetch_scales_with_instruction_bytes() {
        let dma = InstructionDma::new(100.0).unwrap();
        let small = OpDesc::builder(FuKind::Sa).instr_count(100).build();
        let large = OpDesc::builder(FuKind::Sa).instr_count(10_000).build();
        assert!(dma.fetch_cycles(&large) > dma.fetch_cycles(&small));
        // 100 instructions × 4 B at 5 B/cycle (5% of 100) = 80 cycles.
        assert!((dma.fetch_cycles(&small) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn ready_hides_behind_long_predecessor() {
        let dma = InstructionDma::new(471.4).unwrap();
        let o = op(70_000);
        // Fetch starts at 0, predecessor runs until 50_000: fully hidden.
        assert_eq!(dma.ready_at(&o, 0.0, 50_000.0), 50_000.0);
    }

    #[test]
    fn ready_surfaces_after_short_predecessor() {
        let dma = InstructionDma::new(471.4).unwrap();
        let o = OpDesc::builder(FuKind::Sa).instr_count(1 << 20).build();
        let fetch = dma.fetch_cycles(&o);
        // Predecessor finished immediately: the fetch is exposed.
        assert_eq!(dma.ready_at(&o, 10.0, 0.0), 10.0 + fetch);
    }

    #[test]
    fn non_positive_bandwidth_rejected() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = InstructionDma::new(bad).unwrap_err();
            assert!(
                err.to_string().contains("bandwidth must be positive"),
                "{err}"
            );
        }
    }
}
