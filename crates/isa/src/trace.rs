//! Per-request operator traces.
//!
//! One inference request of a DNN workload compiles to a sequence of tensor
//! operators that execute **sequentially within the workload** (§3.2 of the
//! paper: "the operators within one workload execute sequentially, each row
//! only need to track the most recent operator"). A [`RequestTrace`] is that
//! sequence; the multi-tenant executors replay it repeatedly to measure
//! steady-state behaviour (§5.1).

use std::sync::Arc;

use v10_sim::{Frequency, V10Error, V10Result};

use crate::op::{FuKind, OpDesc};

/// The operator stream of one inference request.
///
/// The operator sequence is stored behind an [`Arc`], so cloning a trace —
/// which the serving executors do once per admitted tenancy — is a
/// reference-count bump rather than a deep copy of the operator vector.
/// Traces are immutable after construction, so the sharing is invisible.
///
/// # Example
///
/// ```
/// use v10_isa::{FuKind, OpDesc, RequestTrace};
///
/// let ops = vec![
///     OpDesc::builder(FuKind::Sa).compute_cycles(700).build(),
///     OpDesc::builder(FuKind::Vu).compute_cycles(70).build(),
/// ];
/// let trace = RequestTrace::new(ops).expect("non-empty trace");
/// assert_eq!(trace.total_compute_cycles(), 770);
/// assert_eq!(trace.busy_cycles(FuKind::Sa), 700);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    ops: Arc<[OpDesc]>,
}

impl RequestTrace {
    /// Wraps an operator sequence.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `ops` is empty — a request
    /// with no operators cannot make progress and would deadlock the
    /// executors.
    pub fn new(ops: Vec<OpDesc>) -> V10Result<Self> {
        RequestTrace::try_from(Arc::<[OpDesc]>::from(ops))
    }

    /// The operators, in program order.
    #[must_use]
    pub fn ops(&self) -> &[OpDesc] {
        &self.ops
    }

    /// Number of operators of the given kind.
    #[must_use]
    pub fn count(&self, kind: FuKind) -> usize {
        self.ops.iter().filter(|o| o.kind() == kind).count()
    }

    /// Sum of compute cycles across all operators (sequential single-tenant
    /// lower bound on the request latency, ignoring DMA).
    #[must_use]
    pub fn total_compute_cycles(&self) -> u64 {
        self.ops.iter().map(|o| o.compute_cycles()).sum()
    }

    /// Sum of compute cycles for operators of one kind — the busy time that
    /// kind's FU accrues over one request.
    #[must_use]
    pub fn busy_cycles(&self, kind: FuKind) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind() == kind)
            .map(|o| o.compute_cycles())
            .sum()
    }

    /// Total HBM traffic over one request.
    #[must_use]
    pub fn total_hbm_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.hbm_bytes()).sum()
    }

    /// Total FLOPs over one request.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.ops.iter().map(|o| o.flops()).sum()
    }

    /// Summary statistics in the units Table 1 of the paper reports.
    #[must_use]
    pub fn summarize(&self, clock: Frequency) -> TraceSummary {
        let mean_us = |kind: FuKind| {
            let n = self.count(kind);
            if n == 0 {
                0.0
            } else {
                clock.micros_from_cycles(self.busy_cycles(kind)) / n as f64
            }
        };
        let lens_us = |kind: FuKind| -> Vec<f64> {
            self.ops
                .iter()
                .filter(|o| o.kind() == kind)
                .map(|o| clock.micros_from_cycles(o.compute_cycles()))
                .collect()
        };
        let minmax = |v: &[f64]| {
            (
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(0.0f64, f64::max),
            )
        };
        let sa = lens_us(FuKind::Sa);
        let vu = lens_us(FuKind::Vu);
        let (sa_min, sa_max) = if sa.is_empty() {
            (0.0, 0.0)
        } else {
            minmax(&sa)
        };
        let (vu_min, vu_max) = if vu.is_empty() {
            (0.0, 0.0)
        } else {
            minmax(&vu)
        };
        TraceSummary {
            sa_op_count: self.count(FuKind::Sa),
            vu_op_count: self.count(FuKind::Vu),
            avg_sa_op_micros: mean_us(FuKind::Sa),
            avg_vu_op_micros: mean_us(FuKind::Vu),
            min_sa_op_micros: sa_min,
            max_sa_op_micros: sa_max,
            min_vu_op_micros: vu_min,
            max_vu_op_micros: vu_max,
            total_hbm_bytes: self.total_hbm_bytes(),
            total_flops: self.total_flops(),
        }
    }
}

impl TryFrom<Arc<[OpDesc]>> for RequestTrace {
    type Error = V10Error;

    /// Wraps an operator sequence that is already shared, without copying
    /// it: a synthesizer that collects its operators straight into an
    /// `Arc<[OpDesc]>` allocates the trace once.
    ///
    /// # Errors
    ///
    /// As [`RequestTrace::new`]: `ops` must not be empty.
    fn try_from(ops: Arc<[OpDesc]>) -> V10Result<Self> {
        if ops.is_empty() {
            return Err(V10Error::invalid(
                "RequestTrace::new",
                "a request trace must contain at least one operator",
            ));
        }
        Ok(RequestTrace { ops })
    }
}

/// Per-request operator statistics (the schema behind Table 1 and the
/// collocation feature vector of §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceSummary {
    /// Number of systolic-array operators.
    pub sa_op_count: usize,
    /// Number of vector-unit operators.
    pub vu_op_count: usize,
    /// Mean SA operator length in microseconds.
    pub avg_sa_op_micros: f64,
    /// Mean VU operator length in microseconds.
    pub avg_vu_op_micros: f64,
    /// Shortest SA operator in microseconds (0 when none).
    pub min_sa_op_micros: f64,
    /// Longest SA operator in microseconds (0 when none).
    pub max_sa_op_micros: f64,
    /// Shortest VU operator in microseconds (0 when none).
    pub min_vu_op_micros: f64,
    /// Longest VU operator in microseconds (0 when none).
    pub max_vu_op_micros: f64,
    /// HBM bytes moved per request.
    pub total_hbm_bytes: u64,
    /// FLOPs per request.
    pub total_flops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(cycles).build()
    }
    fn vu(cycles: u64) -> OpDesc {
        OpDesc::builder(FuKind::Vu).compute_cycles(cycles).build()
    }

    #[test]
    fn counts_and_busy_cycles() {
        let t = RequestTrace::new(vec![sa(100), vu(10), sa(200), vu(30)]).unwrap();
        assert_eq!(t.count(FuKind::Sa), 2);
        assert_eq!(t.count(FuKind::Vu), 2);
        assert_eq!(t.busy_cycles(FuKind::Sa), 300);
        assert_eq!(t.busy_cycles(FuKind::Vu), 40);
        assert_eq!(t.total_compute_cycles(), 340);
    }

    #[test]
    fn hbm_and_flops_aggregate() {
        let a = OpDesc::builder(FuKind::Sa)
            .compute_cycles(10)
            .hbm_bytes(100)
            .flops(1_000)
            .build();
        let b = OpDesc::builder(FuKind::Vu)
            .compute_cycles(10)
            .hbm_bytes(50)
            .flops(200)
            .build();
        let t = RequestTrace::new(vec![a, b]).unwrap();
        assert_eq!(t.total_hbm_bytes(), 150);
        assert_eq!(t.total_flops(), 1_200);
    }

    #[test]
    fn summary_means_in_micros() {
        let clk = Frequency::mhz(700);
        // 700 cycles = 1 us at 700 MHz.
        let t = RequestTrace::new(vec![sa(700), sa(2_100), vu(1_400)]).unwrap();
        let s = t.summarize(clk);
        assert_eq!(s.sa_op_count, 2);
        assert_eq!(s.vu_op_count, 1);
        assert!((s.avg_sa_op_micros - 2.0).abs() < 1e-9);
        assert!((s.avg_vu_op_micros - 2.0).abs() < 1e-9);
        assert!((s.min_sa_op_micros - 1.0).abs() < 1e-9);
        assert!((s.max_sa_op_micros - 3.0).abs() < 1e-9);
    }

    #[test]
    fn summary_of_one_sided_trace_has_zero_other_side() {
        let clk = Frequency::mhz(700);
        let t = RequestTrace::new(vec![sa(700)]).unwrap();
        let s = t.summarize(clk);
        assert_eq!(s.vu_op_count, 0);
        assert_eq!(s.avg_vu_op_micros, 0.0);
        assert_eq!(s.min_vu_op_micros, 0.0);
        assert_eq!(s.max_vu_op_micros, 0.0);
    }

    #[test]
    fn empty_trace_rejected() {
        let err = RequestTrace::new(vec![]).unwrap_err();
        assert!(err.to_string().contains("at least one operator"), "{err}");
    }
}
