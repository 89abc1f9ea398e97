//! A functional SIMD vector unit with PC + register-file preemption.
//!
//! The VU (Fig. 2) has 32 architectural vector registers of 8×128 32-bit
//! lanes, loads/stores them against the vector memory, and executes
//! element-wise ALU operations. "Since the VU contains no intermediate
//! states, to preempt a VU operator, we pause its execution and save the PC
//! and register values into the on-chip vector memory. Later, to resume the
//! operator, we restore the register values and continue execution from the
//! saved PC" (§3.3). [`VectorUnit::preempt`] / [`VectorUnit::restore`]
//! implement exactly that, and the tests prove results are invariant under
//! arbitrary preemption points.

use std::fmt;

use v10_isa::{Inst, VAluOp};

use crate::vmem::{VectorMemory, VmemError, TILE_WORDS};
use v10_sim::convert::usize_from_u32;

/// Number of architectural vector registers.
pub const NUM_REGS: usize = 32;

/// Cycles charged for a VU context save or restore: the register file
/// streams one register per cycle through the vector-memory port.
///
/// unit: cycles.
pub const VU_SWITCH_CYCLES: u64 = NUM_REGS as u64; // v10-lint: allow(D3) const context: u64_from_usize is not const fn; NUM_REGS = 32 is exact

/// Error type for vector-unit execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VuError {
    /// The program contains a systolic-array instruction (`push`/`pushw`/
    /// `pop`); those belong to SA operators, not VU operators.
    SaInstruction(Inst),
    /// A load/store escaped the vector memory.
    Vmem(VmemError),
    /// `step`/`run` was called with no program loaded.
    NoProgram,
}

impl fmt::Display for VuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VuError::SaInstruction(i) => {
                write!(
                    f,
                    "systolic-array instruction `{i}` in a vector-unit program"
                )
            }
            VuError::Vmem(e) => write!(f, "vector-memory fault: {e}"),
            VuError::NoProgram => write!(f, "no program loaded"),
        }
    }
}

impl std::error::Error for VuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VuError::Vmem(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<VmemError> for VuError {
    fn from(e: VmemError) -> Self {
        VuError::Vmem(e)
    }
}

/// The saved context of a preempted VU operator: PC and register file.
#[derive(Debug, Clone, PartialEq)]
pub struct VuContext {
    pc: usize,
    regs: Vec<Vec<f32>>,
}

impl VuContext {
    /// The program counter at which execution will resume.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }
}

/// A functional vector unit.
///
/// # Example
///
/// ```
/// use v10_isa::{Inst, Reg, VAluOp, VmemAddr};
/// use v10_systolic::{VectorMemory, VectorUnit};
///
/// let mut vmem = VectorMemory::with_words(4096);
/// vmem.write(0, &[1.5; 1024])?;
/// let mut vu = VectorUnit::new();
/// vu.load_program(vec![
///     Inst::Ld { dst: Reg::new(0), addr: VmemAddr::new(0) },
///     Inst::VAlu { op: VAluOp::Add, dst: Reg::new(1), src1: Reg::new(0), src2: Reg::new(0) },
///     Inst::St { src: Reg::new(1), addr: VmemAddr::new(1024) },
///     Inst::Halt,
/// ]);
/// vu.run(&mut vmem)?;
/// assert_eq!(vmem.read(1024, 1)?, &[3.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VectorUnit {
    regs: Vec<Vec<f32>>,
    program: Vec<Inst>,
    pc: usize,
    cycle: u64,
    halted: bool,
}

impl VectorUnit {
    /// Creates a vector unit with zeroed registers and no program.
    #[must_use]
    pub fn new() -> Self {
        VectorUnit {
            regs: vec![vec![0.0; TILE_WORDS]; NUM_REGS],
            program: Vec::new(),
            pc: 0,
            cycle: 0,
            halted: true,
        }
    }

    /// Loads a program and resets the PC. Registers are preserved (operators
    /// of the same workload may pass data through them).
    // v10-lint: allow(S1) the entry point of the §3.3 functional VU model, whose doc example and unit tests prove results invariant under preemption
    pub fn load_program(&mut self, program: Vec<Inst>) {
        self.program = program;
        self.pc = 0;
        self.halted = self.program.is_empty();
    }

    /// Total cycles executed (monotonic across programs).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read access to register `r` (for tests and result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    #[must_use]
    pub fn reg(&self, r: usize) -> &[f32] {
        assert!(r < NUM_REGS, "register {r} out of range");
        &self.regs[r]
    }

    /// Executes one instruction against `vmem`.
    ///
    /// Returns `true` if the program has halted.
    ///
    /// # Errors
    ///
    /// [`VuError::NoProgram`] with nothing loaded; [`VuError::SaInstruction`]
    /// for `push`/`pushw`/`pop`; [`VuError::Vmem`] for out-of-bounds `ld`/`st`.
    pub fn step(&mut self, vmem: &mut VectorMemory) -> Result<bool, VuError> {
        if self.program.is_empty() {
            return Err(VuError::NoProgram);
        }
        if self.halted {
            return Ok(true);
        }
        // Running past the final instruction without a halt is treated as an
        // implicit halt (compilers always emit one, but be defensive).
        let Some(&inst) = self.program.get(self.pc) else {
            self.halted = true;
            return Ok(true);
        };
        self.cycle += inst.issue_cycles();
        match inst {
            Inst::Halt => {
                self.halted = true;
                self.pc += 1;
                return Ok(true);
            }
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
            Inst::VAlu {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = self.regs[usize::from(src1.index())].clone();
                let b = self.regs[usize::from(src2.index())].clone();
                let out = &mut self.regs[usize::from(dst.index())];
                for i in 0..TILE_WORDS {
                    out[i] = match op {
                        VAluOp::Add => a[i] + b[i],
                        VAluOp::Sub => a[i] - b[i],
                        VAluOp::Mul => a[i] * b[i],
                        VAluOp::Max => a[i].max(b[i]),
                        VAluOp::Relu => a[i].max(0.0),
                        VAluOp::Mov => a[i],
                    };
                }
            }
            sa @ (Inst::Push { .. } | Inst::PushW { .. } | Inst::Pop { .. }) => {
                return Err(VuError::SaInstruction(sa));
            }
        }
        self.pc += 1;
        Ok(false)
    }

    /// Runs until the program halts; returns the cycles consumed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VuError`] from [`VectorUnit::step`].
    pub fn run(&mut self, vmem: &mut VectorMemory) -> Result<u64, VuError> {
        let start = self.cycle;
        while !self.step(vmem)? {}
        Ok(self.cycle - start)
    }

    /// Preempts the running operator: saves PC and registers, charging
    /// [`VU_SWITCH_CYCLES`].
    #[must_use]
    pub fn preempt(&mut self) -> VuContext {
        self.cycle += VU_SWITCH_CYCLES;
        let ctx = VuContext {
            pc: self.pc,
            regs: self.regs.clone(),
        };
        self.halted = true;
        ctx
    }

    /// Restores a preempted operator's PC and registers, charging
    /// [`VU_SWITCH_CYCLES`]. The caller must have re-loaded the same program
    /// (the instruction stream lives in instruction memory, not the context).
    pub fn restore(&mut self, ctx: VuContext) {
        self.cycle += VU_SWITCH_CYCLES;
        self.pc = ctx.pc;
        self.regs = ctx.regs;
        self.halted = self.pc >= self.program.len();
    }
}

impl Default for VectorUnit {
    fn default() -> Self {
        VectorUnit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_isa::{Reg, VmemAddr};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }
    fn tile(v: f32) -> Vec<f32> {
        vec![v; TILE_WORDS]
    }

    /// A program computing relu(a * b + a) over two input tiles.
    fn fused_program() -> Vec<Inst> {
        vec![
            Inst::Ld {
                dst: r(0),
                addr: VmemAddr::new(0),
            },
            Inst::Ld {
                dst: r(1),
                addr: VmemAddr::new(TILE_WORDS as u32),
            },
            Inst::VAlu {
                op: VAluOp::Mul,
                dst: r(2),
                src1: r(0),
                src2: r(1),
            },
            Inst::VAlu {
                op: VAluOp::Add,
                dst: r(2),
                src1: r(2),
                src2: r(0),
            },
            Inst::VAlu {
                op: VAluOp::Relu,
                dst: r(3),
                src1: r(2),
                src2: r(2),
            },
            Inst::St {
                src: r(3),
                addr: VmemAddr::new(2 * TILE_WORDS as u32),
            },
            Inst::Halt,
        ]
    }

    fn fresh_vmem() -> VectorMemory {
        let mut vmem = VectorMemory::with_words(4 * TILE_WORDS);
        vmem.write(0, &tile(-2.0)).unwrap();
        vmem.write(TILE_WORDS, &tile(3.0)).unwrap();
        vmem
    }

    #[test]
    fn fused_program_computes_expected_result() {
        let mut vmem = fresh_vmem();
        let mut vu = VectorUnit::new();
        vu.load_program(fused_program());
        let cycles = vu.run(&mut vmem).unwrap();
        // relu(-2*3 + -2) = relu(-8) = 0
        assert_eq!(
            vmem.read(2 * TILE_WORDS, TILE_WORDS).unwrap(),
            &tile(0.0)[..]
        );
        assert_eq!(cycles, 6); // 2 ld + 3 alu + 1 st; halt is free
        assert!(vu.halted);
    }

    #[test]
    fn alu_semantics() {
        let mut vmem = VectorMemory::with_words(2 * TILE_WORDS);
        vmem.write(0, &tile(5.0)).unwrap();
        let mut vu = VectorUnit::new();
        vu.load_program(vec![
            Inst::Ld {
                dst: r(0),
                addr: VmemAddr::new(0),
            },
            Inst::VAlu {
                op: VAluOp::Sub,
                dst: r(1),
                src1: r(0),
                src2: r(0),
            },
            Inst::VAlu {
                op: VAluOp::Max,
                dst: r(2),
                src1: r(0),
                src2: r(1),
            },
            Inst::VAlu {
                op: VAluOp::Mov,
                dst: r(3),
                src1: r(2),
                src2: r(0),
            },
            Inst::Halt,
        ]);
        vu.run(&mut vmem).unwrap();
        assert_eq!(vu.reg(1), &tile(0.0)[..]);
        assert_eq!(vu.reg(2), &tile(5.0)[..]);
        assert_eq!(vu.reg(3), &tile(5.0)[..]);
    }

    #[test]
    fn preempt_restore_is_transparent() {
        // Run uninterrupted as the reference.
        let mut vmem_ref = fresh_vmem();
        let mut vu_ref = VectorUnit::new();
        vu_ref.load_program(fused_program());
        vu_ref.run(&mut vmem_ref).unwrap();

        for preempt_at in 0..6 {
            let mut vmem = fresh_vmem();
            let mut vu = VectorUnit::new();
            vu.load_program(fused_program());
            for _ in 0..preempt_at {
                assert!(!vu.step(&mut vmem).unwrap());
            }
            let ctx = vu.preempt();
            // Another workload's operator trashes the registers.
            vu.load_program(vec![
                Inst::VAlu {
                    op: VAluOp::Sub,
                    dst: r(2),
                    src1: r(2),
                    src2: r(2),
                },
                Inst::Halt,
            ]);
            vu.run(&mut vmem).unwrap();
            // Resume the preempted operator.
            vu.load_program(fused_program());
            vu.restore(ctx);
            vu.run(&mut vmem).unwrap();
            assert_eq!(
                vmem.read(2 * TILE_WORDS, TILE_WORDS).unwrap(),
                vmem_ref.read(2 * TILE_WORDS, TILE_WORDS).unwrap(),
                "preempt at {preempt_at}"
            );
        }
    }

    #[test]
    fn context_switch_costs_are_charged() {
        let mut vu = VectorUnit::new();
        vu.load_program(fused_program());
        let before = vu.cycle();
        let ctx = vu.preempt();
        vu.restore(ctx);
        assert_eq!(vu.cycle() - before, 2 * VU_SWITCH_CYCLES);
    }

    #[test]
    fn preempting_before_the_first_step_saves_pc_zero() {
        let mut vu = VectorUnit::new();
        vu.load_program(fused_program());
        assert_eq!(vu.preempt().pc(), 0);
    }

    #[test]
    fn sa_instruction_rejected() {
        let mut vmem = VectorMemory::with_words(TILE_WORDS);
        let mut vu = VectorUnit::new();
        vu.load_program(vec![Inst::Push { src: r(0) }, Inst::Halt]);
        let err = vu.run(&mut vmem).unwrap_err();
        assert!(matches!(err, VuError::SaInstruction(Inst::Push { .. })));
        assert!(err.to_string().contains("push"));
    }

    #[test]
    fn vmem_fault_propagates_with_source() {
        let mut vmem = VectorMemory::with_words(16); // far too small
        let mut vu = VectorUnit::new();
        vu.load_program(vec![
            Inst::Ld {
                dst: r(0),
                addr: VmemAddr::new(0),
            },
            Inst::Halt,
        ]);
        let err = vu.run(&mut vmem).unwrap_err();
        assert!(matches!(err, VuError::Vmem(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn no_program_is_error() {
        let mut vmem = VectorMemory::with_words(TILE_WORDS);
        let mut vu = VectorUnit::new();
        assert_eq!(vu.step(&mut vmem).unwrap_err(), VuError::NoProgram);
    }

    #[test]
    fn missing_halt_is_implicit_halt() {
        let mut vmem = VectorMemory::with_words(2 * TILE_WORDS);
        let mut vu = VectorUnit::new();
        vu.load_program(vec![Inst::VAlu {
            op: VAluOp::Add,
            dst: r(0),
            src1: r(0),
            src2: r(0),
        }]);
        assert!(!vu.step(&mut vmem).unwrap());
        assert!(vu.step(&mut vmem).unwrap());
        assert!(vu.halted);
    }
}
