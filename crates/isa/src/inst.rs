//! The NPU instruction set (§2.1 of the paper).
//!
//! A compiled DNN operator is a stream of these instructions:
//!
//! * `push %src` / `pushw %src` — send eight 128-wide vectors (inputs or
//!   weights) from vector register `%src` to the systolic array, 8 cycles;
//! * `pop %dst` — read eight 128-wide result vectors from the systolic
//!   array into `%dst`, 8 cycles;
//! * `ld %dst, [vmem]` / `st %src, [vmem]` — move a register to/from the
//!   software-managed vector memory;
//! * element-wise SIMD ALU instructions executed by the vector unit.
//!
//! Instructions encode to fixed 32-bit words ([`Inst::encode`] /
//! [`Inst::decode`]). Layout (bit 31 is the MSB):
//!
//! ```text
//! [31:27] opcode | [26:22] dst | [21:17] src1 | [16:0] immediate/vmem addr
//! ```

use std::fmt;

/// Number of architectural vector registers (Fig. 2: "32 × 32b Vec Reg
/// File" per lane — 32 registers, each an 8×128 tile of 32-bit lanes).
pub const NUM_REGS: u8 = 32;

/// Maximum encodable vector-memory word address (17 immediate bits).
pub const MAX_VMEM_ADDR: u32 = (1 << 17) - 1;

/// A vector register index in `[0, NUM_REGS)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(index < NUM_REGS, "register index {index} out of range");
        Reg(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%v{}", self.0)
    }
}

/// A vector-memory word address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmemAddr(u32);

impl VmemAddr {
    /// Creates a vector-memory address.
    ///
    /// # Panics
    ///
    /// Panics if `addr > MAX_VMEM_ADDR` (not encodable in 17 bits).
    #[must_use]
    pub fn new(addr: u32) -> Self {
        assert!(
            addr <= MAX_VMEM_ADDR,
            "vmem address {addr:#x} exceeds 17 bits"
        );
        VmemAddr(addr)
    }

    /// The raw word address.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VmemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[vmem+{:#x}]", self.0)
    }
}

/// Element-wise SIMD operations executed by the vector unit's ALUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VAluOp {
    /// Lane-wise addition.
    Add,
    /// Lane-wise subtraction.
    Sub,
    /// Lane-wise multiplication.
    Mul,
    /// Lane-wise maximum.
    Max,
    /// Rectified linear unit: `max(x, 0)` (src2 ignored).
    Relu,
    /// Register move (src2 ignored).
    Mov,
}

impl VAluOp {
    const ALL: [VAluOp; 6] = [
        VAluOp::Add,
        VAluOp::Sub,
        VAluOp::Mul,
        VAluOp::Max,
        VAluOp::Relu,
        VAluOp::Mov,
    ];

    fn code(self) -> u32 {
        self as u32
    }

    fn from_code(c: u32) -> Option<VAluOp> {
        Self::ALL.get(c as usize).copied()
    }

    /// Lowercase mnemonic suffix, e.g. `"add"`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            VAluOp::Add => "add",
            VAluOp::Sub => "sub",
            VAluOp::Mul => "mul",
            VAluOp::Max => "max",
            VAluOp::Relu => "relu",
            VAluOp::Mov => "mov",
        }
    }
}

/// One NPU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `push %src` — stream eight 128-wide input vectors into the systolic
    /// array (8 cycles).
    Push {
        /// Source vector register.
        src: Reg,
    },
    /// `pushw %src` — stream eight 128-wide weight vectors into the systolic
    /// array (8 cycles).
    PushW {
        /// Source vector register.
        src: Reg,
    },
    /// `pop %dst` — read eight 128-wide result vectors from the systolic
    /// array (8 cycles).
    Pop {
        /// Destination vector register.
        dst: Reg,
    },
    /// `ld %dst, [vmem]` — load a register tile from vector memory.
    Ld {
        /// Destination vector register.
        dst: Reg,
        /// Source address in vector memory.
        addr: VmemAddr,
    },
    /// `st %src, [vmem]` — store a register tile to vector memory.
    St {
        /// Source vector register.
        src: Reg,
        /// Destination address in vector memory.
        addr: VmemAddr,
    },
    /// `v<op> %dst, %src1, %src2` — element-wise SIMD operation on the
    /// vector unit.
    VAlu {
        /// The lane-wise operation.
        op: VAluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        src1: Reg,
        /// Second source register (ignored by unary ops).
        src2: Reg,
    },
    /// `halt` — end of the operator's instruction stream.
    Halt,
}

/// Size of one encoded instruction in bytes.
pub const INST_BYTES: u64 = 4;

const OP_PUSH: u32 = 0;
const OP_PUSHW: u32 = 1;
const OP_POP: u32 = 2;
const OP_LD: u32 = 3;
const OP_ST: u32 = 4;
const OP_VALU: u32 = 5;
const OP_HALT: u32 = 6;

/// Error returned when decoding an invalid instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode field does not name an instruction.
    BadOpcode(u32),
    /// The VALU sub-opcode field does not name an operation.
    BadVAluOp(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "invalid opcode {op:#x}"),
            DecodeError::BadVAluOp(op) => write!(f, "invalid vector ALU sub-opcode {op:#x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Inst {
    /// Encodes the instruction into a 32-bit word.
    #[must_use]
    // v10-lint: allow(S1) the §2.1 binary instruction format, pinned by the encode/decode round-trip and error tests
    pub fn encode(self) -> u32 {
        let word = |opcode: u32, dst: u32, src1: u32, imm: u32| {
            (opcode << 27) | (dst << 22) | (src1 << 17) | (imm & 0x1_FFFF)
        };
        match self {
            Inst::Push { src } => word(OP_PUSH, 0, src.index() as u32, 0),
            Inst::PushW { src } => word(OP_PUSHW, 0, src.index() as u32, 0),
            Inst::Pop { dst } => word(OP_POP, dst.index() as u32, 0, 0),
            Inst::Ld { dst, addr } => word(OP_LD, dst.index() as u32, 0, addr.as_u32()),
            Inst::St { src, addr } => word(OP_ST, 0, src.index() as u32, addr.as_u32()),
            Inst::VAlu {
                op,
                dst,
                src1,
                src2,
            } => word(
                OP_VALU,
                dst.index() as u32,
                src1.index() as u32,
                (src2.index() as u32) << 3 | op.code(),
            ),
            Inst::Halt => word(OP_HALT, 0, 0, 0),
        }
    }

    /// Decodes a 32-bit word back into an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the opcode or VALU sub-opcode field is
    /// invalid. Register fields are 5 bits and therefore always in range.
    // v10-lint: allow(S1) the §2.1 binary instruction format, pinned by the encode/decode round-trip and error tests
    pub fn decode(word: u32) -> Result<Inst, DecodeError> {
        let opcode = word >> 27;
        let dst = Reg::new(((word >> 22) & 0x1F) as u8);
        let src1 = Reg::new(((word >> 17) & 0x1F) as u8);
        let imm = word & 0x1_FFFF;
        match opcode {
            OP_PUSH => Ok(Inst::Push { src: src1 }),
            OP_PUSHW => Ok(Inst::PushW { src: src1 }),
            OP_POP => Ok(Inst::Pop { dst }),
            OP_LD => Ok(Inst::Ld {
                dst,
                addr: VmemAddr::new(imm),
            }),
            OP_ST => Ok(Inst::St {
                src: src1,
                addr: VmemAddr::new(imm),
            }),
            OP_VALU => {
                let op = VAluOp::from_code(imm & 0x7).ok_or(DecodeError::BadVAluOp(imm & 0x7))?;
                let src2 = Reg::new(((imm >> 3) & 0x1F) as u8);
                Ok(Inst::VAlu {
                    op,
                    dst,
                    src1,
                    src2,
                })
            }
            OP_HALT => Ok(Inst::Halt),
            other => Err(DecodeError::BadOpcode(other)),
        }
    }

    /// Issue latency in cycles (§2.1: push/pushw/pop move eight 128-wide
    /// vectors in 8 cycles; ld/st/ALU are single-issue per cycle).
    #[must_use]
    pub fn issue_cycles(self) -> u64 {
        match self {
            Inst::Push { .. } | Inst::PushW { .. } | Inst::Pop { .. } => 8,
            Inst::Ld { .. } | Inst::St { .. } | Inst::VAlu { .. } => 1,
            Inst::Halt => 0,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Push { src } => write!(f, "push {src}"),
            Inst::PushW { src } => write!(f, "pushw {src}"),
            Inst::Pop { dst } => write!(f, "pop {dst}"),
            Inst::Ld { dst, addr } => write!(f, "ld {dst}, {addr}"),
            Inst::St { src, addr } => write!(f, "st {src}, {addr}"),
            Inst::VAlu {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "v{} {dst}, {src1}, {src2}", op.mnemonic())
            }
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn roundtrip_each_variant() {
        let insts = [
            Inst::Push { src: r(3) },
            Inst::PushW { src: r(31) },
            Inst::Pop { dst: r(0) },
            Inst::Ld {
                dst: r(7),
                addr: VmemAddr::new(0x1_0000),
            },
            Inst::St {
                src: r(9),
                addr: VmemAddr::new(42),
            },
            Inst::VAlu {
                op: VAluOp::Relu,
                dst: r(1),
                src1: r(2),
                src2: r(3),
            },
            Inst::Halt,
        ];
        for inst in insts {
            assert_eq!(Inst::decode(inst.encode()), Ok(inst), "{inst}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let word = 31u32 << 27;
        assert_eq!(Inst::decode(word), Err(DecodeError::BadOpcode(31)));
    }

    #[test]
    fn decode_rejects_bad_valu_subop() {
        let word = (OP_VALU << 27) | 0x7; // sub-op 7 is unassigned
        assert_eq!(Inst::decode(word), Err(DecodeError::BadVAluOp(7)));
    }

    #[test]
    fn issue_cycles_match_paper() {
        assert_eq!(Inst::Push { src: r(0) }.issue_cycles(), 8);
        assert_eq!(Inst::Pop { dst: r(0) }.issue_cycles(), 8);
        assert_eq!(
            Inst::Ld {
                dst: r(0),
                addr: VmemAddr::new(0)
            }
            .issue_cycles(),
            1
        );
        assert_eq!(Inst::Halt.issue_cycles(), 0);
    }

    #[test]
    fn display_is_assembly_like() {
        let i = Inst::VAlu {
            op: VAluOp::Add,
            dst: r(1),
            src1: r(2),
            src2: r(3),
        };
        assert_eq!(i.to_string(), "vadd %v1, %v2, %v3");
        assert_eq!(
            Inst::Ld {
                dst: r(7),
                addr: VmemAddr::new(16)
            }
            .to_string(),
            "ld %v7, [vmem+0x10]"
        );
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let prog = vec![
            Inst::Ld {
                dst: r(0),
                addr: VmemAddr::new(0),
            },
            Inst::PushW { src: r(0) },
            Inst::Push { src: r(1) },
            Inst::Pop { dst: r(2) },
            Inst::St {
                src: r(2),
                addr: VmemAddr::new(64),
            },
            Inst::Halt,
        ];
        let image: Vec<u32> = prog.iter().map(|i| i.encode()).collect();
        let back: Vec<Inst> = image.iter().map(|&w| Inst::decode(w).unwrap()).collect();
        assert_eq!(back, prog);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_index_validated() {
        let _ = Reg::new(32);
    }

    #[test]
    #[should_panic(expected = "17 bits")]
    fn vmem_addr_validated() {
        let _ = VmemAddr::new(1 << 17);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;

    /// encode/decode is a bijection on valid instructions — checked
    /// exhaustively over every register and a spread of vmem addresses.
    #[test]
    fn encode_decode_roundtrip_exhaustive() {
        let addrs = [
            0u32,
            1,
            7,
            MAX_VMEM_ADDR / 3,
            MAX_VMEM_ADDR / 2,
            MAX_VMEM_ADDR,
        ];
        let mut insts = vec![Inst::Halt];
        for r in 0..NUM_REGS {
            let reg = Reg::new(r);
            let r2 = Reg::new((r + 1) % NUM_REGS);
            let r3 = Reg::new((r + 5) % NUM_REGS);
            insts.push(Inst::Push { src: reg });
            insts.push(Inst::PushW { src: reg });
            insts.push(Inst::Pop { dst: reg });
            for &a in &addrs {
                insts.push(Inst::Ld {
                    dst: reg,
                    addr: VmemAddr::new(a),
                });
                insts.push(Inst::St {
                    src: reg,
                    addr: VmemAddr::new(a),
                });
            }
            for op in [
                VAluOp::Add,
                VAluOp::Sub,
                VAluOp::Mul,
                VAluOp::Max,
                VAluOp::Relu,
                VAluOp::Mov,
            ] {
                insts.push(Inst::VAlu {
                    op,
                    dst: reg,
                    src1: r2,
                    src2: r3,
                });
            }
        }
        for inst in insts {
            assert_eq!(Inst::decode(inst.encode()), Ok(inst));
        }
    }
}
