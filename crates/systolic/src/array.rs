//! A weight-stationary systolic array with Fig. 13's checkpoint/replay
//! preemption protocol.
//!
//! The functional model executes matmul operators `C = A × W` (`A`: M×N
//! inputs streamed row-per-cycle, `W`: N×N weights held in the PEs) with the
//! real array's timing skeleton: `N` cycles to load weights, one input row
//! pushed per cycle, and each row's outputs exiting the array `2N−1` cycles
//! after its push (the diagonal wavefront latency).
//!
//! **Preemption** follows §3.3: instead of draining partial sums out of the
//! PEs (the naive approach), the array keeps running until every in-flight
//! input's outputs have popped — no cycles are wasted, the pops are valid
//! results — while inputs that have not completed are *checkpointed* (in
//! this model: their row indices; in hardware: the 2N-row input window saved
//! to vector memory as it streams past). The weight swap then overlaps the
//! next operator's weight load. Restoration replays the checkpointed inputs.
//! The measured switch cost is therefore bounded by `2N−1` drain cycles plus
//! `N` weight-swap cycles — the `3N` budget
//! ([`crate::context_switch_bound_cycles`]) the performance simulator
//! charges, 384 cycles for the paper's 128×128 array.

use std::collections::VecDeque;
use std::fmt;

use crate::matrix::Matrix;
use v10_sim::convert::u64_from_usize;

/// Error type for systolic-array operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaError {
    /// An operator is already executing.
    Busy,
    /// No operator is executing.
    Idle,
    /// Operand shapes do not fit the array.
    DimMismatch {
        /// Array dimension N.
        n: usize,
        /// Input matrix columns.
        input_cols: usize,
        /// Weight matrix rows.
        weight_rows: usize,
        /// Weight matrix columns.
        weight_cols: usize,
    },
}

impl fmt::Display for SaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaError::Busy => write!(f, "systolic array is busy"),
            SaError::Idle => write!(f, "systolic array has no operator to act on"),
            SaError::DimMismatch { n, input_cols, weight_rows, weight_cols } => write!(
                f,
                "operands do not fit {n}x{n} array: input cols {input_cols}, weights {weight_rows}x{weight_cols}"
            ),
        }
    }
}

impl std::error::Error for SaError {}

/// The saved context of a preempted SA operator.
///
/// Holds everything needed to resume: operands, the output rows already
/// produced, and the replay cursor. The *hardware* cost of this context is
/// the analytic [`crate::checkpoint_context_bytes`] (`6N²` bytes): the
/// weights plus at most a 2N-row window of checkpointed inputs — rows
/// further ahead still live in vector memory and need no saving.
#[derive(Debug, Clone, PartialEq)]
pub struct SaContext {
    input: Matrix,
    weights: Matrix,
    outputs: Matrix,
    next_push: usize,
    popped: usize,
    /// Saved in-flight wavefront (naive drain only): `(remaining_cycles,
    /// row_index, partial_result)`. Empty for checkpoint/replay contexts —
    /// that is the point of the protocol.
    inflight: Vec<(u64, usize, Vec<f32>)>,
}

impl SaContext {
    /// Rows already fully computed before the preemption.
    #[must_use]
    pub fn completed_rows(&self) -> usize {
        self.popped
    }

    /// Rows still to execute after restoration.
    #[must_use]
    pub fn remaining_rows(&self) -> usize {
        self.input.rows() - self.popped
    }

    /// True if this context carries drained partial sums (produced by
    /// [`SaExecutor::preempt_naive`]) rather than a checkpoint/replay
    /// context.
    #[must_use]
    pub fn is_naive(&self) -> bool {
        !self.inflight.is_empty()
    }
}

#[derive(Debug)]
struct Running {
    input: Matrix,
    weights: Matrix,
    outputs: Matrix,
    next_push: usize,
    popped: usize,
    /// (ready_cycle, row_index, result_row) for in-flight rows.
    inflight: VecDeque<(u64, usize, Vec<f32>)>,
}

/// A preemptible weight-stationary N×N systolic array.
///
/// # Example
///
/// ```
/// use v10_systolic::{Matrix, SaExecutor};
///
/// let mut sa = SaExecutor::new(4);
/// let a = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f32);
/// let w = Matrix::from_fn(4, 4, |i, j| if i == j { 2.0 } else { 0.0 });
/// sa.begin(a.clone(), w.clone()).unwrap();
/// sa.run_cycles(3);
/// // Preempt mid-operator, then restore and finish: result is exact.
/// let (ctx, cost) = sa.preempt().unwrap();
/// assert!(cost <= 3 * 4); // the 3N context-switch budget
/// sa.restore(ctx).unwrap();
/// let c = sa.run_to_completion();
/// assert_eq!(c, a.matmul(&w));
/// ```
#[derive(Debug)]
pub struct SaExecutor {
    n: usize,
    cycle: u64,
    running: Option<Running>,
}

impl SaExecutor {
    /// Creates an N×N array.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "array dimension must be positive");
        SaExecutor {
            n,
            cycle: 0,
            running: None,
        }
    }

    /// The array dimension N.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current cycle count (monotonic across operators).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Starts the operator `input × weights`, charging the `N`-cycle weight
    /// load.
    ///
    /// # Errors
    ///
    /// [`SaError::Busy`] if an operator is executing; [`SaError::DimMismatch`]
    /// if `input` is not M×N or `weights` is not N×N.
    pub fn begin(&mut self, input: Matrix, weights: Matrix) -> Result<(), SaError> {
        if self.running.is_some() {
            return Err(SaError::Busy);
        }
        self.check_dims(&input, &weights)?;
        self.cycle += u64_from_usize(self.n); // weight load: one row per cycle
        let rows = input.rows();
        self.running = Some(Running {
            outputs: Matrix::zeros(rows, self.n),
            input,
            weights,
            next_push: 0,
            popped: 0,
            inflight: VecDeque::new(),
        });
        Ok(())
    }

    fn check_dims(&self, input: &Matrix, weights: &Matrix) -> Result<(), SaError> {
        if input.cols() != self.n || weights.rows() != self.n || weights.cols() != self.n {
            return Err(SaError::DimMismatch {
                n: self.n,
                input_cols: input.cols(),
                weight_rows: weights.rows(),
                weight_cols: weights.cols(),
            });
        }
        Ok(())
    }

    /// Advances the array by `cycles` (no-op while idle).
    /// unit: `cycles` is a cycle count.
    pub fn run_cycles(&mut self, cycles: u64) {
        for _ in 0..cycles {
            if self.running.is_none() {
                return;
            }
            self.tick(true);
        }
    }

    /// One cycle: pop at most one ready output row, push at most one input
    /// row (if `allow_push`).
    fn tick(&mut self, allow_push: bool) {
        let n = self.n;
        let cycle = self.cycle;
        let Some(r) = self.running.as_mut() else {
            return;
        };
        if let Some(&(ready, row, _)) = r.inflight.front() {
            if ready <= cycle {
                let (_, _, out) = r.inflight.pop_front().expect("front exists");
                r.outputs.set_row(row, &out);
                r.popped += 1;
            }
        }
        if allow_push && r.next_push < r.input.rows() {
            let row = r.input.row(r.next_push).to_vec();
            // The PE grid multiplies the streaming row against the resident
            // weights; the result wavefront exits 2N-1 cycles later.
            let mut out = vec![0.0f32; n];
            for (k, &a) in row.iter().enumerate() {
                if a != 0.0 {
                    for (j, o) in out.iter_mut().enumerate() {
                        *o += a * r.weights[(k, j)];
                    }
                }
            }
            r.inflight
                .push_back((cycle + 2 * u64_from_usize(n) - 1, r.next_push, out));
            r.next_push += 1;
        }
        self.cycle += 1;
    }

    /// True if every row of the current operator has been pushed and popped.
    fn op_done(&self) -> bool {
        self.running
            .as_ref()
            .map(|r| r.popped == r.input.rows())
            .unwrap_or(false)
    }

    /// Runs the current operator to completion and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the array is idle (no operator begun, or the last one
    /// already completed).
    #[must_use]
    pub fn run_to_completion(&mut self) -> Matrix {
        assert!(self.running.is_some(), "run_to_completion on an idle array");
        while !self.op_done() {
            self.tick(true);
        }
        let r = self.running.take().expect("busy");
        r.outputs
    }

    /// Preempts the current operator per the Fig. 13 protocol and returns
    /// its context plus the measured context-switch cost in cycles (drain +
    /// weight swap).
    ///
    /// The drain continues popping *valid* outputs — completed rows are part
    /// of the context, not wasted work — so the cost is bounded by
    /// `2N−1 + N < 3N` ([`crate::context_switch_bound_cycles`]).
    ///
    /// # Errors
    ///
    /// [`SaError::Idle`] if no operator is executing.
    pub fn preempt(&mut self) -> Result<(SaContext, u64), SaError> {
        if self.running.is_none() {
            return Err(SaError::Idle);
        }
        let start = self.cycle;
        // Step 2-3 of Fig. 13: stop injecting new inputs (they are already
        // checkpointed in vector memory), keep draining in-flight outputs.
        while self
            .running
            .as_ref()
            .map(|r| !r.inflight.is_empty())
            .expect("busy")
        {
            self.tick(false);
        }
        // Step 4-5: stream the preempted operator's weights out while the
        // next operator's weights stream in — N cycles, charged here.
        self.cycle += u64_from_usize(self.n);
        let r = self.running.take().expect("busy");
        let ctx = SaContext {
            next_push: r.popped,
            popped: r.popped,
            input: r.input,
            weights: r.weights,
            outputs: r.outputs,
            inflight: Vec::new(),
        };
        Ok((ctx, self.cycle - start))
    }

    /// Preempts via the naive drain-everything approach the paper rejects
    /// (§3.3): execution pauses immediately and the array's full
    /// intermediate state — inputs, weights, *and 4-byte partial sums* —
    /// streams out to vector memory. No drain wait, but the state movement
    /// costs `2N` cycles on top of the `N`-cycle weight swap, the context
    /// is 33% larger ([`crate::naive_context_bytes`]), and the PE registers
    /// need direct read/write paths ("significant hardware changes").
    /// Restoration streams the partial sums back (`2N` more cycles inside
    /// [`SaExecutor::restore`]).
    ///
    /// Functionally equivalent to [`SaExecutor::preempt`] — the ablation
    /// benchmark compares their costs.
    ///
    /// # Errors
    ///
    /// [`SaError::Idle`] if no operator is executing.
    pub fn preempt_naive(&mut self) -> Result<(SaContext, u64), SaError> {
        if self.running.is_none() {
            return Err(SaError::Idle);
        }
        let start = self.cycle;
        // Stream out partial sums (2N) and swap weights (N).
        self.cycle += 3 * u64_from_usize(self.n);
        let r = self.running.take().expect("busy");
        let cycle = start; // state frozen at the preemption instant
        let ctx = SaContext {
            next_push: r.next_push,
            popped: r.popped,
            inflight: r
                .inflight
                .into_iter()
                .map(|(ready, row, out)| (ready.saturating_sub(cycle), row, out))
                .collect(),
            input: r.input,
            weights: r.weights,
            outputs: r.outputs,
        };
        Ok((ctx, self.cycle - start))
    }

    /// Restores a preempted operator, charging the `N`-cycle weight reload
    /// (overlapped with the outgoing operator's weight save in hardware;
    /// the overlap is why [`SaExecutor::preempt`] already charged it).
    /// Checkpointed inputs are replayed by normal execution.
    ///
    /// # Errors
    ///
    /// [`SaError::Busy`] if an operator is executing.
    pub fn restore(&mut self, ctx: SaContext) -> Result<(), SaError> {
        if self.running.is_some() {
            return Err(SaError::Busy);
        }
        // A naive context must stream its partial sums back into the PEs:
        // 2N extra cycles before execution can continue.
        if ctx.is_naive() {
            self.cycle += 2 * u64_from_usize(self.n);
        }
        let base = self.cycle;
        self.running = Some(Running {
            next_push: ctx.next_push,
            popped: ctx.popped,
            input: ctx.input,
            weights: ctx.weights,
            outputs: ctx.outputs,
            inflight: ctx
                .inflight
                .into_iter()
                .map(|(remaining, row, out)| (base + remaining, row, out))
                .collect(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0)
    }
    fn w(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f32 - 2.0)
    }

    #[test]
    fn uninterrupted_matmul_matches_reference() {
        for (m, n) in [(1, 3), (5, 3), (16, 8), (3, 8)] {
            let (input, weights) = (a(m, n), w(n));
            let mut sa = SaExecutor::new(n);
            sa.begin(input.clone(), weights.clone()).unwrap();
            let out = sa.run_to_completion();
            assert_eq!(out, input.matmul(&weights), "{m}x{n}");
            assert!(sa.running.is_none());
        }
    }

    #[test]
    fn timing_skeleton_matches_wavefront_model() {
        // N weight-load cycles, pushes at cycles N..N+M-1, the last row's
        // outputs exit 2N-1 cycles after its push: total 3N + M - 1.
        let (m, n) = (10usize, 4usize);
        let mut sa = SaExecutor::new(n);
        sa.begin(a(m, n), w(n)).unwrap();
        let _ = sa.run_to_completion();
        let expected = 3 * n as u64 + m as u64 - 1;
        assert_eq!(sa.cycle(), expected);
    }

    #[test]
    fn preempt_cost_bounded_by_3n() {
        let n = 8;
        for preempt_at in [0u64, 1, 5, 9, 13, 20] {
            let mut sa = SaExecutor::new(n);
            sa.begin(a(16, n), w(n)).unwrap();
            sa.run_cycles(preempt_at);
            let (_, cost) = sa.preempt().unwrap();
            assert!(
                cost <= 3 * n as u64,
                "preempt at {preempt_at}: cost {cost} exceeds 3N = {}",
                3 * n
            );
            assert!(cost >= n as u64, "weight swap alone costs N");
        }
    }

    #[test]
    fn preempt_restore_preserves_result() {
        let n = 8;
        let (input, weights) = (a(20, n), w(n));
        let reference = input.matmul(&weights);
        for preempt_at in [0u64, 3, 7, 15, 27, 40] {
            let mut sa = SaExecutor::new(n);
            sa.begin(input.clone(), weights.clone()).unwrap();
            sa.run_cycles(preempt_at);
            let (ctx, _) = sa.preempt().unwrap();
            // Another operator uses the array in between.
            let other = Matrix::identity(n);
            sa.begin(other.clone(), other.clone()).unwrap();
            let _ = sa.run_to_completion();
            // Restore and finish the preempted operator.
            sa.restore(ctx).unwrap();
            let out = sa.run_to_completion();
            assert_eq!(out, reference, "preempt at {preempt_at}");
        }
    }

    #[test]
    fn double_preemption_still_exact() {
        let n = 4;
        let (input, weights) = (a(12, n), w(n));
        let mut sa = SaExecutor::new(n);
        sa.begin(input.clone(), weights.clone()).unwrap();
        sa.run_cycles(5);
        let (ctx, _) = sa.preempt().unwrap();
        sa.restore(ctx).unwrap();
        sa.run_cycles(4);
        let (ctx, _) = sa.preempt().unwrap();
        sa.restore(ctx).unwrap();
        assert_eq!(sa.run_to_completion(), input.matmul(&weights));
    }

    #[test]
    fn context_reports_progress() {
        let n = 4;
        let mut sa = SaExecutor::new(n);
        sa.begin(a(10, n), w(n)).unwrap();
        sa.run_cycles(30); // most rows done
        let (ctx, _) = sa.preempt().unwrap();
        assert_eq!(ctx.completed_rows() + ctx.remaining_rows(), 10);
        assert!(ctx.completed_rows() > 0);
    }

    #[test]
    fn preempt_idle_is_error() {
        let mut sa = SaExecutor::new(4);
        assert_eq!(sa.preempt().unwrap_err(), SaError::Idle);
    }

    #[test]
    fn begin_while_busy_is_error() {
        let n = 4;
        let mut sa = SaExecutor::new(n);
        sa.begin(a(4, n), w(n)).unwrap();
        assert_eq!(sa.begin(a(4, n), w(n)).unwrap_err(), SaError::Busy);
    }

    #[test]
    fn restore_while_busy_is_error() {
        let n = 4;
        let mut sa = SaExecutor::new(n);
        sa.begin(a(4, n), w(n)).unwrap();
        let (ctx, _) = sa.preempt().unwrap();
        sa.begin(a(4, n), w(n)).unwrap();
        assert_eq!(sa.restore(ctx).unwrap_err(), SaError::Busy);
    }

    #[test]
    fn dim_mismatch_reported() {
        let mut sa = SaExecutor::new(4);
        let err = sa.begin(a(4, 3), w(4)).unwrap_err();
        assert!(matches!(
            err,
            SaError::DimMismatch {
                n: 4,
                input_cols: 3,
                ..
            }
        ));
        assert!(err.to_string().contains("4x4"));
    }

    #[test]
    fn run_cycles_on_idle_array_is_noop() {
        let mut sa = SaExecutor::new(4);
        sa.run_cycles(100);
        assert_eq!(sa.cycle(), 0);
    }
}

#[cfg(test)]
mod naive_tests {
    use super::*;

    fn operands(m: usize, n: usize) -> (Matrix, Matrix) {
        (
            Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f32 - 5.0),
            Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f32 - 2.0),
        )
    }

    #[test]
    fn naive_preempt_restore_is_exact() {
        let n = 6;
        let (input, weights) = operands(14, n);
        let reference = input.matmul(&weights);
        for preempt_at in [0u64, 2, 7, 13, 25] {
            let mut sa = SaExecutor::new(n);
            sa.begin(input.clone(), weights.clone()).unwrap();
            sa.run_cycles(preempt_at);
            let (ctx, cost) = sa.preempt_naive().unwrap();
            assert_eq!(cost, 3 * n as u64, "naive preempt is a fixed 3N");
            sa.restore(ctx).unwrap();
            assert_eq!(sa.run_to_completion(), reference, "preempt at {preempt_at}");
        }
    }

    #[test]
    fn naive_context_carries_partial_sums_mid_wavefront() {
        let n = 4;
        let (input, weights) = operands(8, n);
        let mut sa = SaExecutor::new(n);
        sa.begin(input, weights).unwrap();
        sa.run_cycles(3); // rows pushed, none popped yet
        let (ctx, _) = sa.preempt_naive().unwrap();
        assert!(
            ctx.is_naive(),
            "mid-wavefront naive context holds partial sums"
        );
        assert!(ctx.completed_rows() < 8);
    }

    #[test]
    fn checkpoint_context_is_never_naive() {
        let n = 4;
        let (input, weights) = operands(8, n);
        let mut sa = SaExecutor::new(n);
        sa.begin(input, weights).unwrap();
        sa.run_cycles(5);
        let (ctx, _) = sa.preempt().unwrap();
        assert!(!ctx.is_naive());
    }

    #[test]
    fn naive_restore_charges_reload() {
        let n = 8;
        let (input, weights) = operands(16, n);
        let mut sa = SaExecutor::new(n);
        sa.begin(input, weights).unwrap();
        sa.run_cycles(10);
        let (ctx, _) = sa.preempt_naive().unwrap();
        let was_naive = ctx.is_naive();
        let before = sa.cycle();
        sa.restore(ctx).unwrap();
        if was_naive {
            assert_eq!(sa.cycle() - before, 2 * n as u64);
        }
    }

    #[test]
    fn mixing_protocols_across_preemptions_is_exact() {
        let n = 5;
        let (input, weights) = operands(12, n);
        let reference = input.matmul(&weights);
        let mut sa = SaExecutor::new(n);
        sa.begin(input, weights).unwrap();
        sa.run_cycles(4);
        let (ctx, _) = sa.preempt_naive().unwrap();
        sa.restore(ctx).unwrap();
        sa.run_cycles(6);
        let (ctx, _) = sa.preempt().unwrap();
        sa.restore(ctx).unwrap();
        assert_eq!(sa.run_to_completion(), reference);
    }

    #[test]
    fn naive_preempt_idle_is_error() {
        let mut sa = SaExecutor::new(4);
        assert_eq!(sa.preempt_naive().unwrap_err(), SaError::Idle);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;

    /// Matmul is exact under an arbitrary schedule of preemptions.
    #[test]
    fn preemption_schedule_never_corrupts() {
        for case in 0usize..64 {
            let m = 1 + (case * 7) % 23;
            let n = 1 + (case * 5) % 9;
            let seed = case * 37;
            let preempts: Vec<u64> = (0..case % 5)
                .map(|k| ((case * 13 + k * 29 + 7) % 40) as u64)
                .collect();
            let input =
                Matrix::from_fn(m, n, |i, j| (((i * 31 + j * 17 + seed) % 13) as f32) - 6.0);
            let weights =
                Matrix::from_fn(n, n, |i, j| (((i * 5 + j * 11 + seed) % 7) as f32) - 3.0);
            let reference = input.matmul(&weights);

            let mut sa = SaExecutor::new(n);
            sa.begin(input, weights).unwrap();
            for p in preempts {
                sa.run_cycles(p);
                if sa.running.is_some() {
                    let (ctx, cost) = sa.preempt().unwrap();
                    assert!(cost <= 3 * n as u64, "case {case}");
                    sa.restore(ctx).unwrap();
                }
            }
            if sa.running.is_some() {
                let out = sa.run_to_completion();
                assert_eq!(out, reference, "case {case}");
            }
        }
    }
}
