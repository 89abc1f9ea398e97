//! Instruction-level execution: compiled matmul kernels on a functional
//! NPU core.
//!
//! §2.1 describes how a compiled tensor operator drives the hardware: the
//! vector unit loads tiles from vector memory (`ld`), streams weights and
//! inputs into the systolic array (`pushw`/`push`), pops results back
//! (`pop`), and stores them (`st`). [`compile_matmul`] emits exactly that
//! instruction sequence for a dense `A (m×n) × W (n×n)` product, and
//! [`FunctionalCore`] interprets it against a vector memory — validating
//! the ISA, the code generator, and the dataflow against the reference
//! matmul.
//!
//! Rows travel one per register tile (the 8×128 register holds up to 1024
//! lanes; a row uses the first `n`). Cycle accounting follows §2.1's
//! timings: `push`/`pushw`/`pop` take 8 cycles, `ld`/`st`/ALU 1 cycle, and
//! a pushed row's results become poppable `2n−1` cycles later (the
//! wavefront latency, as in [`crate::array`]).

use std::collections::VecDeque;
use std::fmt;

use v10_isa::{Inst, Reg, VmemAddr};

use crate::vmem::{VectorMemory, VmemError, TILE_WORDS};
use v10_sim::convert::{u32_from_usize, u64_from_usize, usize_from_u32};

/// Error type for compiled-kernel execution.
#[derive(Debug)]
pub enum CoreError {
    /// A load/store escaped the vector memory.
    Vmem(VmemError),
    /// `pop` with no result ready (weights or inputs missing).
    PopUnderflow {
        /// Program counter of the offending `pop`.
        pc: usize,
    },
    /// `push` before the full weight matrix was loaded.
    PushBeforeWeights {
        /// Program counter of the offending `push`.
        pc: usize,
    },
    /// More weight rows pushed than the array holds.
    WeightOverflow {
        /// Program counter of the offending `pushw`.
        pc: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Vmem(e) => write!(f, "vector-memory fault: {e}"),
            CoreError::PopUnderflow { pc } => write!(f, "pop with empty out-FIFO at pc {pc}"),
            CoreError::PushBeforeWeights { pc } => {
                write!(f, "push before weights loaded at pc {pc}")
            }
            CoreError::WeightOverflow { pc } => write!(f, "too many weight rows at pc {pc}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Vmem(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<VmemError> for CoreError {
    fn from(e: VmemError) -> Self {
        CoreError::Vmem(e)
    }
}

/// Compiles `C = A × W` into the §2.1 instruction sequence.
///
/// `A` is `m` rows at `a_addr` (one row per [`TILE_WORDS`]-word tile), `W`
/// is `n` rows at `w_addr`, and results are stored to `c_addr`, same
/// layout. Register allocation is trivial: `%v0` carries weights/inputs,
/// `%v1` carries outputs.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds a register tile, or `m` is zero.
#[must_use]
// v10-lint: allow(S1) the compiler half of the §2.1 functional core: its doc example and unit tests compile with it the programs `FunctionalCore::execute` runs
pub fn compile_matmul(m: usize, n: usize, a_addr: u32, w_addr: u32, c_addr: u32) -> Vec<Inst> {
    assert!(
        n > 0 && n <= TILE_WORDS,
        "row length {n} must fit a register tile"
    );
    assert!(m > 0, "input must have rows");
    let tile = u32_from_usize(TILE_WORDS);
    let (v0, v1) = (Reg::new(0), Reg::new(1));
    let mut prog = Vec::with_capacity(2 * n + 3 * m + 1);
    for row in 0..u32_from_usize(n) {
        prog.push(Inst::Ld {
            dst: v0,
            addr: VmemAddr::new(w_addr + row * tile),
        });
        prog.push(Inst::PushW { src: v0 });
    }
    for row in 0..u32_from_usize(m) {
        prog.push(Inst::Ld {
            dst: v0,
            addr: VmemAddr::new(a_addr + row * tile),
        });
        prog.push(Inst::Push { src: v0 });
        prog.push(Inst::Pop { dst: v1 });
        prog.push(Inst::St {
            src: v1,
            addr: VmemAddr::new(c_addr + row * tile),
        });
    }
    prog.push(Inst::Halt);
    prog
}

/// A functional NPU core interpreting compiled operator programs: vector
/// registers, an `n×n` systolic array fed through push/pop, and the §2.1
/// cycle accounting.
///
/// # Example
///
/// ```
/// use v10_systolic::compile::compile_matmul;
/// use v10_systolic::{FunctionalCore, Matrix, VectorMemory};
/// use v10_systolic::vmem::TILE_WORDS;
///
/// let n = 4;
/// let a = Matrix::from_fn(3, n, |i, j| (i + j) as f32);
/// let w = Matrix::identity(n);
/// // Matrices live one row per register tile: A from tile 0, W from tile
/// // 4, and the product is stored from tile 8.
/// let mut vmem = VectorMemory::with_words(16 * TILE_WORDS);
/// for i in 0..3 {
///     vmem.write(i * TILE_WORDS, a.row(i)).unwrap();
/// }
/// for i in 0..n {
///     vmem.write((4 + i) * TILE_WORDS, w.row(i)).unwrap();
/// }
/// let mut core = FunctionalCore::new(n);
/// let prog = compile_matmul(3, n, 0, 4 * TILE_WORDS as u32, 8 * TILE_WORDS as u32);
/// core.execute(&prog, &mut vmem).unwrap();
/// for i in 0..3 {
///     assert_eq!(vmem.read((8 + i) * TILE_WORDS, n).unwrap(), a.row(i)); // A × I = A
/// }
/// ```
#[derive(Debug)]
pub struct FunctionalCore {
    n: usize,
    regs: Vec<Vec<f32>>,
    weights: Vec<Vec<f32>>,
    /// (ready_cycle, result_row) for in-flight rows, FIFO order.
    inflight: VecDeque<(u64, Vec<f32>)>,
    cycle: u64,
}

impl FunctionalCore {
    /// Creates a core with an `n×n` systolic array.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds a register tile.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n <= TILE_WORDS,
            "array dimension {n} must fit a register tile"
        );
        FunctionalCore {
            n,
            regs: vec![vec![0.0; TILE_WORDS]; 32],
            weights: Vec::new(),
            inflight: VecDeque::new(),
            cycle: 0,
        }
    }

    /// Cycles consumed so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Executes a compiled program to its `halt`, returning consumed cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on vector-memory faults or protocol violations
    /// (pop underflow, pushing inputs before weights, weight overflow).
    // v10-lint: allow(S1) the entry point of the §2.1 functional core, whose doc example and unit tests check compile_matmul and its cycle accounting
    pub fn execute(&mut self, program: &[Inst], vmem: &mut VectorMemory) -> Result<u64, CoreError> {
        let start = self.cycle;
        for (pc, &inst) in program.iter().enumerate() {
            self.cycle += inst.issue_cycles();
            match inst {
                Inst::Halt => break,
                Inst::Ld { dst, addr } => {
                    let data = vmem
                        .read(usize_from_u32(addr.as_u32()), TILE_WORDS)?
                        .to_vec();
                    self.regs[usize::from(dst.index())].copy_from_slice(&data);
                }
                Inst::St { src, addr } => {
                    let data = self.regs[usize::from(src.index())].clone();
                    vmem.write(usize_from_u32(addr.as_u32()), &data)?;
                }
                Inst::PushW { src } => {
                    if self.weights.len() == self.n {
                        return Err(CoreError::WeightOverflow { pc });
                    }
                    self.weights
                        .push(self.regs[usize::from(src.index())][..self.n].to_vec());
                }
                Inst::Push { src } => {
                    if self.weights.len() != self.n {
                        return Err(CoreError::PushBeforeWeights { pc });
                    }
                    let row = &self.regs[usize::from(src.index())][..self.n];
                    // out[j] = sum_k row[k] * W[k][j]
                    let mut out = vec![0.0f32; self.n];
                    for (k, &a) in row.iter().enumerate() {
                        if a != 0.0 {
                            for (j, o) in out.iter_mut().enumerate() {
                                *o += a * self.weights[k][j];
                            }
                        }
                    }
                    self.inflight
                        .push_back((self.cycle + 2 * u64_from_usize(self.n) - 1, out));
                }
                Inst::Pop { dst } => {
                    let (ready, row) = self
                        .inflight
                        .pop_front()
                        .ok_or(CoreError::PopUnderflow { pc })?;
                    // Stall until the wavefront delivers the row.
                    self.cycle = self.cycle.max(ready);
                    let reg = &mut self.regs[usize::from(dst.index())];
                    reg[..self.n].copy_from_slice(&row);
                    for lane in reg[self.n..].iter_mut() {
                        *lane = 0.0;
                    }
                }
                Inst::VAlu { .. } => {
                    // Compiled matmuls don't emit ALU ops, but accept them
                    // for composability with VU programs: delegate semantics
                    // to the register file (same as VectorUnit).
                    // Cycle already charged above.
                }
            }
        }
        // New operator next time: weights/wavefront drain with the halt.
        self.weights.clear();
        self.inflight.clear();
        Ok(self.cycle - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// Stores a matrix one row per tile starting at `addr`.
    pub(super) fn store_matrix(vmem: &mut VectorMemory, m: &Matrix, addr: u32) {
        for i in 0..m.rows() {
            vmem.write(usize_from_u32(addr) + i * TILE_WORDS, m.row(i))
                .unwrap();
        }
    }

    /// Loads a `rows×cols` matrix stored one row per tile.
    pub(super) fn load_matrix(vmem: &VectorMemory, rows: usize, cols: usize, addr: u32) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            out.set_row(
                i,
                vmem.read(usize_from_u32(addr) + i * TILE_WORDS, cols)
                    .unwrap(),
            );
        }
        out
    }

    fn run(m: usize, n: usize, a: &Matrix, w: &Matrix) -> (Matrix, u64) {
        let tile = TILE_WORDS as u32;
        let (a_addr, w_addr, c_addr) = (0u32, m as u32 * tile, (m + n) as u32 * tile);
        let mut vmem = VectorMemory::with_words((2 * m + n) * TILE_WORDS);
        let mut core = FunctionalCore::new(n);
        store_matrix(&mut vmem, a, a_addr);
        store_matrix(&mut vmem, w, w_addr);
        let prog = compile_matmul(m, n, a_addr, w_addr, c_addr);
        let cycles = core.execute(&prog, &mut vmem).unwrap();
        (load_matrix(&vmem, m, n, c_addr), cycles)
    }

    #[test]
    fn compiled_matmul_matches_reference() {
        for (m, n) in [(1usize, 1usize), (3, 4), (8, 8), (5, 16)] {
            let a = Matrix::from_fn(m, n, |i, j| ((i * 5 + j * 3) % 7) as f32 - 3.0);
            let w = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f32 - 2.0);
            let (c, _) = run(m, n, &a, &w);
            assert_eq!(c, a.matmul(&w), "{m}x{n}");
        }
    }

    #[test]
    fn cycle_accounting_covers_wavefront() {
        let (m, n) = (4usize, 4usize);
        let a = Matrix::identity(n);
        let w = Matrix::identity(n);
        let (_, cycles) = run(m, n, &a, &w);
        // Lower bound: n (ld) + 8n (pushw) + m (ld) + 8m push + 8m pop + m st
        // plus at least one wavefront stall.
        let issue_only = (n + 8 * n + m + 8 * m + 8 * m + m) as u64;
        assert!(cycles >= issue_only, "{cycles} < {issue_only}");
        assert!(cycles < issue_only + (2 * n as u64 - 1) * m as u64 + 10);
    }

    #[test]
    fn program_shape_is_as_compiled() {
        let prog = compile_matmul(2, 3, 0, 4096, 8192);
        // 3x (ld, pushw) + 2x (ld, push, pop, st) + halt.
        assert_eq!(prog.len(), 3 * 2 + 2 * 4 + 1);
        assert_eq!(prog.last(), Some(&Inst::Halt));
        assert!(matches!(prog[0], Inst::Ld { .. }));
        assert!(matches!(prog[1], Inst::PushW { .. }));
    }

    #[test]
    fn pop_underflow_detected() {
        let mut vmem = VectorMemory::with_words(4 * TILE_WORDS);
        let mut core = FunctionalCore::new(2);
        let prog = vec![Inst::Pop { dst: Reg::new(0) }, Inst::Halt];
        let err = core.execute(&prog, &mut vmem).unwrap_err();
        assert!(matches!(err, CoreError::PopUnderflow { pc: 0 }));
    }

    #[test]
    fn push_before_weights_detected() {
        let mut vmem = VectorMemory::with_words(4 * TILE_WORDS);
        let mut core = FunctionalCore::new(2);
        let prog = vec![Inst::Push { src: Reg::new(0) }, Inst::Halt];
        let err = core.execute(&prog, &mut vmem).unwrap_err();
        assert!(matches!(err, CoreError::PushBeforeWeights { pc: 0 }));
        assert!(err.to_string().contains("pc 0"));
    }

    #[test]
    fn weight_overflow_detected() {
        let mut vmem = VectorMemory::with_words(4 * TILE_WORDS);
        let mut core = FunctionalCore::new(1);
        let prog = vec![
            Inst::PushW { src: Reg::new(0) },
            Inst::PushW { src: Reg::new(0) },
            Inst::Halt,
        ];
        let err = core.execute(&prog, &mut vmem).unwrap_err();
        assert!(matches!(err, CoreError::WeightOverflow { pc: 1 }));
    }

    #[test]
    fn successive_operators_reset_state() {
        let n = 3;
        let a = Matrix::from_fn(2, n, |i, j| (i + j) as f32);
        let w1 = Matrix::identity(n);
        let w2 = Matrix::from_fn(n, n, |_, _| 2.0);
        let tile = TILE_WORDS as u32;
        let mut vmem = VectorMemory::with_words(12 * TILE_WORDS);
        let mut core = FunctionalCore::new(n);
        store_matrix(&mut vmem, &a, 0);
        store_matrix(&mut vmem, &w1, 2 * tile);
        store_matrix(&mut vmem, &w2, 5 * tile);
        let p1 = compile_matmul(2, n, 0, 2 * tile, 8 * tile);
        let p2 = compile_matmul(2, n, 0, 5 * tile, 8 * tile);
        core.execute(&p1, &mut vmem).unwrap();
        core.execute(&p2, &mut vmem).unwrap();
        let c = load_matrix(&vmem, 2, n, 8 * tile);
        assert_eq!(
            c,
            a.matmul(&w2),
            "second operator must not see stale weights"
        );
    }

    #[test]
    #[should_panic(expected = "fit a register tile")]
    fn oversized_row_rejected() {
        let _ = compile_matmul(1, TILE_WORDS + 1, 0, 0, 0);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::tests::{load_matrix, store_matrix};
    use super::*;
    use crate::matrix::Matrix;

    /// Compiled execution equals the reference product for arbitrary
    /// small matrices across a grid of shapes and fill patterns.
    #[test]
    fn compiled_equals_reference() {
        for m in 1usize..6 {
            for n in 1usize..9 {
                for seed in [0usize, 211, 499] {
                    let a = Matrix::from_fn(m, n, |i, j| {
                        (((i * 31 + j * 17 + seed) % 11) as f32) - 5.0
                    });
                    let w =
                        Matrix::from_fn(n, n, |i, j| (((i * 13 + j * 7 + seed) % 9) as f32) - 4.0);
                    let tile = TILE_WORDS as u32;
                    let mut vmem = VectorMemory::with_words((2 * m + n) * TILE_WORDS);
                    let mut core = FunctionalCore::new(n);
                    store_matrix(&mut vmem, &a, 0);
                    store_matrix(&mut vmem, &w, m as u32 * tile);
                    let prog = compile_matmul(m, n, 0, m as u32 * tile, (m + n) as u32 * tile);
                    core.execute(&prog, &mut vmem).unwrap();
                    let c = load_matrix(&vmem, m, n, (m + n) as u32 * tile);
                    assert_eq!(c, a.matmul(&w));
                }
            }
        }
    }
}
