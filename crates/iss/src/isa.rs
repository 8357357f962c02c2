//! The instruction set: a MIPS-flavoured 32-register RISC with transaction
//! channel extensions.
//!
//! Instructions are kept in structured (pre-decoded) form for simulation
//! speed. Branch and call targets are absolute instruction indices — an
//! idealization of a real encoding's PC-relative immediates that changes
//! nothing about timing behaviour.

/// A register number, `r0`..`r31`. `r0` is hardwired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return-value register.
    pub const RV: Reg = Reg(2);
    /// First scratch register reserved for spills/addressing.
    pub const T0: Reg = Reg(8);
    /// Second scratch register.
    pub const T1: Reg = Reg(9);
    /// Third scratch register.
    pub const T2: Reg = Reg(10);
    /// Stack pointer.
    pub const SP: Reg = Reg(29);
    /// Link register written by [`Inst::Jal`].
    pub const RA: Reg = Reg(31);
}

/// Three-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Signed multiplication (low 32 bits).
    Mul,
    /// Signed division (traps on zero divisor).
    Div,
    /// Signed remainder (traps on zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (count masked mod 32).
    Sll,
    /// Arithmetic shift right.
    Sra,
    /// Set if less than (signed).
    Slt,
    /// Set if less or equal (signed).
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `rd = rs1 <op> rs2`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `rd = rs1 <op> imm`
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate operand.
        imm: i32,
    },
    /// `rd = mem[rs1 + offset]` (word access, byte offset)
    Lw {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// `mem[rs1 + offset] = rs`
    Sw {
        /// Value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Indexed word load: `rd = mem[base + (index << 2)]`.
    Lwx {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Element index register.
        index: Reg,
    },
    /// Indexed word store: `mem[base + (index << 2)] = rs`.
    Swx {
        /// Value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Element index register.
        index: Reg,
    },
    /// Conditional branch comparing two registers.
    Branch {
        /// Condition.
        cond: BrCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Absolute target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute target instruction index.
        target: usize,
    },
    /// Call: `ra = pc + 1; pc = target`.
    Jal {
        /// Absolute target instruction index.
        target: usize,
    },
    /// Indirect jump (function return).
    Jr {
        /// Register holding the target instruction index.
        rs: Reg,
    },
    /// Receive one word from a transaction channel into `rd`.
    CRecv {
        /// Destination.
        rd: Reg,
        /// Channel id.
        chan: u32,
    },
    /// Send `rs` to a transaction channel.
    CSend {
        /// Value register.
        rs: Reg,
        /// Channel id.
        chan: u32,
    },
    /// Emit `rs` to the observable output stream.
    Out {
        /// Value register.
        rs: Reg,
    },
    /// Stop the core.
    Halt,
}

impl Inst {
    /// Whether this instruction reads or writes data memory.
    pub fn is_memory(&self) -> bool {
        matches!(self, Inst::Lw { .. } | Inst::Sw { .. } | Inst::Lwx { .. } | Inst::Swx { .. })
    }
}

/// Applies an ALU op with 32-bit wrapping semantics.
///
/// Returns `None` for division/remainder by zero.
pub fn alu_eval(op: AluOp, a: i32, b: i32) -> Option<i32> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        AluOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b as u32),
        AluOp::Sra => a.wrapping_shr(b as u32),
        AluOp::Slt => i32::from(a < b),
        AluOp::Sle => i32::from(a <= b),
        AluOp::Seq => i32::from(a == b),
        AluOp::Sne => i32::from(a != b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(alu_eval(AluOp::Add, i32::MAX, 1), Some(i32::MIN));
        assert_eq!(alu_eval(AluOp::Div, -7, 2), Some(-3));
        assert_eq!(alu_eval(AluOp::Rem, -7, 2), Some(-1));
        assert_eq!(alu_eval(AluOp::Div, 1, 0), None);
        assert_eq!(alu_eval(AluOp::Sra, -8, 1), Some(-4));
        assert_eq!(alu_eval(AluOp::Sll, 1, 33), Some(2));
        assert_eq!(alu_eval(AluOp::Slt, 1, 2), Some(1));
        assert_eq!(alu_eval(AluOp::Sne, 3, 3), Some(0));
    }

    #[test]
    fn classification() {
        assert!(Inst::Lw { rd: Reg(1), base: Reg(2), offset: 0 }.is_memory());
        assert!(!Inst::Halt.is_memory());
    }
}
