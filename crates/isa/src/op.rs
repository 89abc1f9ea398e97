//! Tensor-operator descriptors — the scheduling unit of V10.
//!
//! The paper's operator scheduler (§3.2) dispatches whole tensor operators
//! to functional units: matrix multiplications and convolutions run on the
//! systolic array (SA), everything element-wise / reduction-ish runs on the
//! vector unit (VU). An [`OpDesc`] carries the performance-model attributes
//! of one operator.

use std::fmt;

use crate::inst::INST_BYTES;

/// The kind of functional unit an operator occupies.
///
/// The paper's NPU core (Fig. 2) contains one systolic array (the MXU in
/// TPU terms) and one vector unit (the VPU); V10's scalability study
/// (Fig. 25) extends this to multiple FUs of each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuKind {
    /// Systolic array — matrix multiplication / convolution operators.
    Sa,
    /// Vector unit — element-wise, shuffle, reshape, reduction operators.
    Vu,
}

impl FuKind {
    /// Both kinds, in a fixed order (useful for iteration).
    pub const ALL: [FuKind; 2] = [FuKind::Sa, FuKind::Vu];

    /// The other kind.
    #[must_use]
    pub fn other(self) -> FuKind {
        match self {
            FuKind::Sa => FuKind::Vu,
            FuKind::Vu => FuKind::Sa,
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuKind::Sa => write!(f, "SA"),
            FuKind::Vu => write!(f, "VU"),
        }
    }
}

/// Performance-model description of one tensor operator.
///
/// Construct with [`OpDesc::builder`]. All sizes are in bytes, lengths in
/// cycles of the 700 MHz NPU clock.
///
/// # Example
///
/// ```
/// use v10_isa::{FuKind, OpDesc};
///
/// let op = OpDesc::builder(FuKind::Vu)
///     .compute_cycles(2_856)   // ~4.08 us: RetinaNet's mean VU op (Table 1)
///     .hbm_bytes(1 << 20)
///     .vmem_bytes(256 << 10)
///     .build();
/// assert_eq!(op.kind(), FuKind::Vu);
/// assert!(op.hbm_demand_bytes_per_cycle() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpDesc {
    kind: FuKind,
    compute_cycles: u64,
    hbm_bytes: u64,
    vmem_bytes: u64,
    flops: u64,
    instr_count: u32,
    dispatch_gap_cycles: u64,
}

impl OpDesc {
    /// Starts building an operator of the given kind.
    #[inline]
    #[must_use]
    pub fn builder(kind: FuKind) -> OpDescBuilder {
        OpDescBuilder {
            kind,
            compute_cycles: 1,
            hbm_bytes: 0,
            vmem_bytes: 0,
            flops: 0,
            instr_count: 16,
            dispatch_gap_cycles: 0,
        }
    }

    /// Which functional-unit kind this operator occupies.
    #[must_use]
    pub fn kind(self) -> FuKind {
        self.kind
    }

    /// Busy cycles on the functional unit when running at full rate.
    #[must_use]
    pub fn compute_cycles(self) -> u64 {
        self.compute_cycles
    }

    /// Off-chip HBM traffic generated while the operator runs.
    #[must_use]
    pub fn hbm_bytes(self) -> u64 {
        self.hbm_bytes
    }

    /// On-chip vector-memory footprint (inputs + outputs + scratch).
    #[must_use]
    pub fn vmem_bytes(self) -> u64 {
        self.vmem_bytes
    }

    /// Floating-point operations performed.
    #[must_use]
    pub fn flops(self) -> u64 {
        self.flops
    }

    /// Number of instructions in the operator's compiled stream — determines
    /// the instruction-DMA cost of making the operator Ready (§3.2).
    #[must_use]
    pub fn instr_count(self) -> u32 {
        self.instr_count
    }

    /// Bytes of instruction memory this operator's stream occupies.
    #[must_use]
    pub fn instr_bytes(self) -> u64 {
        self.instr_count as u64 * INST_BYTES
    }

    /// Idle cycles between the predecessor's completion and this operator
    /// being dispatchable — host dispatch, synchronization, and other
    /// single-workload stalls that real TPU traces exhibit (the residual
    /// idleness of O1 beyond MXU/VPU serialization). The FU is free for
    /// collocated workloads during the gap.
    #[must_use]
    pub fn dispatch_gap_cycles(self) -> u64 {
        self.dispatch_gap_cycles
    }

    /// HBM bandwidth the operator needs to run at full rate, in bytes/cycle.
    ///
    /// If the water-filling arbiter grants less, the operator slows down
    /// proportionally (it is memory-bound during contention).
    #[must_use]
    pub fn hbm_demand_bytes_per_cycle(self) -> f64 {
        self.hbm_bytes as f64 / self.compute_cycles as f64
    }

    /// Operation intensity in FLOPs/byte — x-axis of the paper's roofline
    /// plot (Fig. 8). `None` when the operator moves no HBM bytes.
    #[must_use]
    pub fn operation_intensity(self) -> Option<f64> {
        (self.hbm_bytes > 0).then(|| self.flops as f64 / self.hbm_bytes as f64)
    }
}

/// Builder for [`OpDesc`] (C-BUILDER).
#[derive(Debug, Clone, Copy)]
pub struct OpDescBuilder {
    kind: FuKind,
    compute_cycles: u64,
    hbm_bytes: u64,
    vmem_bytes: u64,
    flops: u64,
    instr_count: u32,
    dispatch_gap_cycles: u64,
}

impl OpDescBuilder {
    /// Sets the full-rate busy time in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero — zero-length operators would make
    /// progress-rate math degenerate.
    #[inline]
    #[must_use]
    pub fn compute_cycles(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "operator compute length must be positive");
        self.compute_cycles = cycles;
        self
    }

    /// Sets the HBM traffic in bytes.
    #[inline]
    #[must_use]
    pub fn hbm_bytes(mut self, bytes: u64) -> Self {
        self.hbm_bytes = bytes;
        self
    }

    /// Sets the vector-memory footprint in bytes.
    #[inline]
    #[must_use]
    pub fn vmem_bytes(mut self, bytes: u64) -> Self {
        self.vmem_bytes = bytes;
        self
    }

    /// Sets the FLOP count.
    #[inline]
    #[must_use]
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Sets the compiled instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero — every operator ends in at least `halt`.
    #[inline]
    #[must_use]
    pub fn instr_count(mut self, count: u32) -> Self {
        assert!(count > 0, "operator must contain at least one instruction");
        self.instr_count = count;
        self
    }

    /// Sets the pre-dispatch idle gap in cycles.
    #[inline]
    #[must_use]
    pub fn dispatch_gap_cycles(mut self, cycles: u64) -> Self {
        self.dispatch_gap_cycles = cycles;
        self
    }

    /// Finalizes the descriptor.
    #[inline]
    #[must_use]
    pub fn build(self) -> OpDesc {
        OpDesc {
            kind: self.kind,
            compute_cycles: self.compute_cycles,
            hbm_bytes: self.hbm_bytes,
            vmem_bytes: self.vmem_bytes,
            flops: self.flops,
            instr_count: self.instr_count,
            dispatch_gap_cycles: self.dispatch_gap_cycles,
        }
    }
}

impl fmt::Display for OpDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} op: {} cycles, {} HBM bytes, {} flops",
            self.kind, self.compute_cycles, self.hbm_bytes, self.flops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let op = OpDesc::builder(FuKind::Sa).build();
        assert_eq!(op.kind(), FuKind::Sa);
        assert_eq!(op.compute_cycles(), 1);
        assert_eq!(op.hbm_bytes(), 0);
        assert_eq!(op.operation_intensity(), None);
        assert!(op.instr_bytes() > 0);
        assert_eq!(op.dispatch_gap_cycles(), 0);
    }

    #[test]
    fn dispatch_gap_settable() {
        let op = OpDesc::builder(FuKind::Vu).dispatch_gap_cycles(42).build();
        assert_eq!(op.dispatch_gap_cycles(), 42);
    }

    #[test]
    fn builder_sets_all_fields() {
        let op = OpDesc::builder(FuKind::Vu)
            .compute_cycles(100)
            .hbm_bytes(500)
            .vmem_bytes(64)
            .flops(1_000)
            .instr_count(3)
            .build();
        assert_eq!(op.compute_cycles(), 100);
        assert_eq!(op.hbm_bytes(), 500);
        assert_eq!(op.vmem_bytes(), 64);
        assert_eq!(op.flops(), 1_000);
        assert_eq!(op.instr_count(), 3);
        assert_eq!(op.instr_bytes(), 12);
    }

    #[test]
    fn hbm_demand_is_bytes_over_cycles() {
        let op = OpDesc::builder(FuKind::Sa)
            .compute_cycles(200)
            .hbm_bytes(1_000)
            .build();
        assert!((op.hbm_demand_bytes_per_cycle() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn operation_intensity_matches_roofline_definition() {
        let op = OpDesc::builder(FuKind::Sa)
            .compute_cycles(10)
            .hbm_bytes(100)
            .flops(4_200)
            .build();
        assert_eq!(op.operation_intensity(), Some(42.0));
    }

    #[test]
    fn fu_kind_other_flips() {
        assert_eq!(FuKind::Sa.other(), FuKind::Vu);
        assert_eq!(FuKind::Vu.other(), FuKind::Sa);
        assert_eq!(FuKind::ALL.len(), 2);
    }

    #[test]
    fn display_mentions_kind() {
        let op = OpDesc::builder(FuKind::Sa).compute_cycles(7).build();
        assert!(op.to_string().starts_with("SA op"));
        assert_eq!(FuKind::Vu.to_string(), "VU");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        let _ = OpDesc::builder(FuKind::Sa).compute_cycles(0);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_instructions_rejected() {
        let _ = OpDesc::builder(FuKind::Sa).instr_count(0);
    }
}
