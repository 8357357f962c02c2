//! Code generation: CDFG IR → ISA, with linear-scan register allocation.
//!
//! The board and ISS models must execute *compiled-looking* code — the
//! paper's estimator assumes roughly one target instruction per IR
//! operation, which only holds if the back-end keeps values in registers.
//! This back-end does:
//!
//! - linear-scan register allocation over whole-function live intervals
//!   (non-SSA: an interval spans a register's first to last occurrence,
//!   which safely covers loop-carried values);
//! - a callee-saved ABI (a function saves every allocatable register it
//!   uses, plus `ra`), so calls do not disturb caller values;
//! - arguments in `r4..r7` and `r24..r27` (up to 8), return value in `r2`;
//! - indexed loads/stores (`lwx`/`swx`) for array accesses so a CDFG
//!   load/store expands to at most base-materialization plus one memory
//!   instruction.
//!
//! The emitted [`Program`] carries per-instruction metadata (owning
//! function and basic block) for profiling.

use std::error::Error;
use std::fmt;

use tlm_cdfg::ir::{
    ArrayScope, MemoryLayout, Module, OpKind, Terminator, UnOp, STACK_BASE, WORD_BYTES,
};
use tlm_cdfg::{ArrayId, BlockId, FuncId, VReg};
use tlm_minic::ast::BinOp;

use crate::isa::{AluOp, BrCond, Inst, Reg};

/// Registers the allocator may assign to IR virtual registers.
const ALLOCATABLE: [Reg; 13] = [
    Reg(12),
    Reg(13),
    Reg(14),
    Reg(15),
    Reg(16),
    Reg(17),
    Reg(18),
    Reg(19),
    Reg(20),
    Reg(21),
    Reg(22),
    Reg(23),
    Reg(28),
];

/// Argument registers: `r4..r7` then `r24..r27`.
const ARG_REGS: [Reg; 8] = [Reg(4), Reg(5), Reg(6), Reg(7), Reg(24), Reg(25), Reg(26), Reg(27)];

/// A compiled program image.
#[derive(Debug, Clone)]
pub struct Program {
    /// The instruction stream.
    pub insts: Vec<Inst>,
    /// Owning (function, block) of each instruction.
    pub meta: Vec<(FuncId, BlockId)>,
    /// Initial data memory contents (byte address, value).
    pub globals_image: Vec<(u32, i32)>,
    /// The shared memory layout.
    pub layout: MemoryLayout,
    /// Index of the first startup-stub instruction.
    pub entry_pc: usize,
    /// Entry pc of each function.
    pub func_entry: Vec<usize>,
}

/// A code-generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Description of the unsupported construct.
    pub message: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "code generation failed: {}", self.message)
    }
}

impl Error for CodegenError {}

/// Compiles `module`, with a startup stub that calls `entry` with the given
/// constant arguments and halts.
///
/// # Errors
///
/// Returns [`CodegenError`] for unsupported shapes (more than 8 parameters).
pub fn build_program(
    module: &Module,
    entry: FuncId,
    entry_args: &[i64],
) -> Result<Program, CodegenError> {
    let layout = MemoryLayout::of(module);
    let mut insts: Vec<Inst> = Vec::new();
    let mut meta: Vec<(FuncId, BlockId)> = Vec::new();
    let mut call_fixups: Vec<(usize, FuncId)> = Vec::new();

    // Startup stub.
    let entry_func = module.function(entry);
    if entry_args.len() != entry_func.params.len() {
        return Err(CodegenError {
            message: format!(
                "entry `{}` expects {} args, got {}",
                entry_func.name,
                entry_func.params.len(),
                entry_args.len()
            ),
        });
    }
    let stub_meta = (entry, BlockId(0));
    insts.push(Inst::AluI { op: AluOp::Add, rd: Reg::SP, rs1: Reg::ZERO, imm: STACK_BASE as i32 });
    meta.push(stub_meta);
    for (i, &arg) in entry_args.iter().enumerate() {
        let Some(&reg) = ARG_REGS.get(i) else {
            return Err(CodegenError { message: "entry takes more than 8 args".into() });
        };
        insts.push(Inst::AluI { op: AluOp::Add, rd: reg, rs1: Reg::ZERO, imm: arg as i32 });
        meta.push(stub_meta);
    }
    call_fixups.push((insts.len(), entry));
    insts.push(Inst::Jal { target: usize::MAX });
    meta.push(stub_meta);
    insts.push(Inst::Halt);
    meta.push(stub_meta);

    // Functions.
    let mut func_entry = vec![0usize; module.functions.len()];
    for (fid, _) in module.functions_iter() {
        func_entry[fid.0 as usize] = insts.len();
        FuncEmitter::new(module, &layout, fid, &mut insts, &mut meta, &mut call_fixups).emit()?;
    }
    for (at, fid) in call_fixups {
        let Inst::Jal { target } = &mut insts[at] else {
            unreachable!("call fixup points at a jal");
        };
        *target = func_entry[fid.0 as usize];
    }

    // Global data image.
    let mut globals_image = Vec::new();
    for (i, array) in module.arrays.iter().enumerate() {
        if array.scope == ArrayScope::Global {
            let base = layout.array_base[i];
            for (j, &v) in array.init.iter().enumerate() {
                globals_image.push((base + (j as u32) * WORD_BYTES, v as i32));
            }
        }
    }

    Ok(Program { insts, meta, globals_image, layout, entry_pc: 0, func_entry })
}

/// Where a virtual register lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    /// Byte offset from `sp`.
    Spill(i32),
}

struct FuncEmitter<'a> {
    module: &'a Module,
    layout: &'a MemoryLayout,
    fid: FuncId,
    insts: &'a mut Vec<Inst>,
    meta: &'a mut Vec<(FuncId, BlockId)>,
    call_fixups: &'a mut Vec<(usize, FuncId)>,
    /// Per-vreg location.
    locs: Vec<Loc>,
    /// Registers actually used by the allocation (to save/restore).
    used_regs: Vec<Reg>,
    frame_bytes: i32,
    locals_off: i32,
    /// (instruction index, block) pairs to patch with block starts.
    block_fixups: Vec<(usize, BlockId)>,
    /// Instructions that must be patched to the epilogue.
    epilogue_fixups: Vec<usize>,
    current_block: BlockId,
}

impl<'a> FuncEmitter<'a> {
    fn new(
        module: &'a Module,
        layout: &'a MemoryLayout,
        fid: FuncId,
        insts: &'a mut Vec<Inst>,
        meta: &'a mut Vec<(FuncId, BlockId)>,
        call_fixups: &'a mut Vec<(usize, FuncId)>,
    ) -> Self {
        FuncEmitter {
            module,
            layout,
            fid,
            insts,
            meta,
            call_fixups,
            locs: Vec::new(),
            used_regs: Vec::new(),
            frame_bytes: 0,
            locals_off: 0,
            block_fixups: Vec::new(),
            epilogue_fixups: Vec::new(),
            current_block: BlockId(0),
        }
    }

    fn emit(mut self) -> Result<(), CodegenError> {
        let func = self.module.function(self.fid);
        if func.params.len() > ARG_REGS.len() {
            return Err(CodegenError {
                message: format!(
                    "function `{}` has {} parameters; the ABI supports {}",
                    func.name,
                    func.params.len(),
                    ARG_REGS.len()
                ),
            });
        }

        let (locs, used_regs, n_spills) = allocate_registers(self.module, self.fid);
        self.locs = locs;
        self.used_regs = used_regs;

        // Frame: [ra][saved regs][spills][local arrays], sp-relative.
        let saved_bytes = 4 * (1 + self.used_regs.len() as i32);
        let spill_base = saved_bytes;
        let locals_off = spill_base + 4 * n_spills as i32;
        let locals_bytes = (self.layout.frame_words[self.fid.0 as usize] * WORD_BYTES) as i32;
        self.locals_off = locals_off;
        self.frame_bytes = (locals_off + locals_bytes + 7) & !7;
        // Rebase spill offsets now that the spill area start is known.
        for loc in &mut self.locs {
            if let Loc::Spill(slot) = loc {
                *slot = spill_base + *slot * 4;
            }
        }

        // Prologue.
        self.current_block = BlockId(0);
        self.push(Inst::AluI { op: AluOp::Add, rd: Reg::SP, rs1: Reg::ZERO, imm: 0 });
        // Replace the placeholder with the real frame adjust (kept simple:
        // emit directly).
        let last = self.insts.len() - 1;
        self.insts[last] =
            Inst::AluI { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: -self.frame_bytes };
        self.push(Inst::Sw { rs: Reg::RA, base: Reg::SP, offset: 0 });
        let used = self.used_regs.clone();
        for (i, reg) in used.iter().enumerate() {
            self.push(Inst::Sw { rs: *reg, base: Reg::SP, offset: 4 * (1 + i as i32) });
        }
        // Move parameters to their homes.
        for (i, &param) in func.params.iter().enumerate() {
            let arg_reg = ARG_REGS[i];
            match self.locs[param.0 as usize] {
                Loc::Reg(r) => {
                    self.push(Inst::Alu { op: AluOp::Add, rd: r, rs1: arg_reg, rs2: Reg::ZERO });
                }
                Loc::Spill(off) => {
                    self.push(Inst::Sw { rs: arg_reg, base: Reg::SP, offset: off });
                }
            }
        }
        // Initialize local arrays (zero-fill, then explicit initializers).
        for &aid in &func.local_arrays {
            self.init_local_array(aid);
        }
        // The entry block is emitted immediately after the prologue, so
        // control simply falls through into it.

        // Blocks.
        let mut block_start = vec![0usize; func.blocks.len()];
        for (bid, block) in func.blocks_iter() {
            block_start[bid.0 as usize] = self.insts.len();
            self.current_block = bid;
            for op in &block.ops {
                self.emit_op(op)?;
            }
            // Fall-through-aware terminators: like a compiler's block
            // layout, a branch whose target is the next block is inverted
            // or dropped. This keeps loop-closing conditionals mostly
            // not-taken, which static predictors handle well.
            let next = BlockId(bid.0 + 1);
            match &block.term {
                Terminator::Jump(b) => {
                    if *b != next {
                        self.emit_jump_to(*b);
                    }
                }
                Terminator::Branch { cond, then_bb, else_bb } => {
                    let c = self.use_reg(*cond, Reg::T0);
                    if *then_bb == next {
                        // Fall through into the then-block; branch away on 0.
                        let at = self.insts.len();
                        self.block_fixups.push((at, *else_bb));
                        self.push(Inst::Branch {
                            cond: BrCond::Eq,
                            rs1: c,
                            rs2: Reg::ZERO,
                            target: usize::MAX,
                        });
                    } else {
                        let at = self.insts.len();
                        self.block_fixups.push((at, *then_bb));
                        self.push(Inst::Branch {
                            cond: BrCond::Ne,
                            rs1: c,
                            rs2: Reg::ZERO,
                            target: usize::MAX,
                        });
                        if *else_bb != next {
                            self.emit_jump_to(*else_bb);
                        }
                    }
                }
                Terminator::Return(value) => {
                    if let Some(v) = value {
                        let r = self.use_reg(*v, Reg::T0);
                        self.push(Inst::Alu {
                            op: AluOp::Add,
                            rd: Reg::RV,
                            rs1: r,
                            rs2: Reg::ZERO,
                        });
                    }
                    self.epilogue_fixups.push(self.insts.len());
                    self.push(Inst::Jump { target: usize::MAX });
                }
            }
        }

        // Epilogue.
        let epilogue = self.insts.len();
        self.push(Inst::Lw { rd: Reg::RA, base: Reg::SP, offset: 0 });
        let used = self.used_regs.clone();
        for (i, reg) in used.iter().enumerate() {
            self.push(Inst::Lw { rd: *reg, base: Reg::SP, offset: 4 * (1 + i as i32) });
        }
        self.push(Inst::AluI { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: self.frame_bytes });
        self.push(Inst::Jr { rs: Reg::RA });

        // Patch intra-function targets.
        for (at, bid) in std::mem::take(&mut self.block_fixups) {
            match &mut self.insts[at] {
                Inst::Branch { target, .. } | Inst::Jump { target } => {
                    *target = block_start[bid.0 as usize];
                }
                other => unreachable!("block fixup on {other:?}"),
            }
        }
        for at in std::mem::take(&mut self.epilogue_fixups) {
            let Inst::Jump { target } = &mut self.insts[at] else {
                unreachable!("epilogue fixup on a jump");
            };
            *target = epilogue;
        }
        Ok(())
    }

    fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
        self.meta.push((self.fid, self.current_block));
    }

    fn emit_jump_to(&mut self, target: BlockId) {
        let at = self.insts.len();
        self.block_fixups.push((at, target));
        self.push(Inst::Jump { target: usize::MAX });
    }

    fn init_local_array(&mut self, aid: ArrayId) {
        let array = self.module.array(aid);
        let base_off = self.locals_off + self.layout.array_base[aid.0 as usize] as i32;
        if array.len > array.init.len() {
            // Zero-fill loop: t0 = cursor, t1 = end.
            self.push(Inst::AluI { op: AluOp::Add, rd: Reg::T0, rs1: Reg::SP, imm: base_off });
            self.push(Inst::AluI {
                op: AluOp::Add,
                rd: Reg::T1,
                rs1: Reg::T0,
                imm: (array.len as i32) * 4,
            });
            let loop_top = self.insts.len();
            self.push(Inst::Sw { rs: Reg::ZERO, base: Reg::T0, offset: 0 });
            self.push(Inst::AluI { op: AluOp::Add, rd: Reg::T0, rs1: Reg::T0, imm: 4 });
            self.push(Inst::Branch {
                cond: BrCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: loop_top,
            });
        }
        for (j, &v) in array.init.iter().enumerate() {
            self.push(Inst::AluI { op: AluOp::Add, rd: Reg::T2, rs1: Reg::ZERO, imm: v as i32 });
            self.push(Inst::Sw { rs: Reg::T2, base: Reg::SP, offset: base_off + (j as i32) * 4 });
        }
    }

    /// Materializes a vreg value in a register (loading spills into
    /// `scratch`).
    fn use_reg(&mut self, v: VReg, scratch: Reg) -> Reg {
        match self.locs[v.0 as usize] {
            Loc::Reg(r) => r,
            Loc::Spill(off) => {
                self.push(Inst::Lw { rd: scratch, base: Reg::SP, offset: off });
                scratch
            }
        }
    }

    /// The register a result should be computed into; spilled results go
    /// through `scratch` and [`FuncEmitter::finish_def`] stores them.
    fn def_reg(&mut self, v: VReg, scratch: Reg) -> Reg {
        match self.locs[v.0 as usize] {
            Loc::Reg(r) => r,
            Loc::Spill(_) => scratch,
        }
    }

    fn finish_def(&mut self, v: VReg, computed_in: Reg) {
        if let Loc::Spill(off) = self.locs[v.0 as usize] {
            self.push(Inst::Sw { rs: computed_in, base: Reg::SP, offset: off });
        }
    }

    /// Materializes the base address of an array into `scratch` (global:
    /// absolute; local: sp-relative).
    fn array_base(&mut self, aid: ArrayId, scratch: Reg) -> Reg {
        let array = self.module.array(aid);
        match array.scope {
            ArrayScope::Global => {
                let base = self.layout.array_base[aid.0 as usize] as i32;
                self.push(Inst::AluI { op: AluOp::Add, rd: scratch, rs1: Reg::ZERO, imm: base });
            }
            ArrayScope::Local(_) => {
                let off = self.locals_off + self.layout.array_base[aid.0 as usize] as i32;
                self.push(Inst::AluI { op: AluOp::Add, rd: scratch, rs1: Reg::SP, imm: off });
            }
        }
        scratch
    }

    fn emit_op(&mut self, op: &tlm_cdfg::ir::Op) -> Result<(), CodegenError> {
        match &op.kind {
            OpKind::Const(v) => {
                let dest = op.result.expect("const has result");
                let rd = self.def_reg(dest, Reg::T2);
                self.push(Inst::AluI { op: AluOp::Add, rd, rs1: Reg::ZERO, imm: *v as i32 });
                self.finish_def(dest, rd);
            }
            OpKind::Copy => {
                let src = self.use_reg(op.args[0], Reg::T0);
                let dest = op.result.expect("copy has result");
                let rd = self.def_reg(dest, Reg::T2);
                self.push(Inst::Alu { op: AluOp::Add, rd, rs1: src, rs2: Reg::ZERO });
                self.finish_def(dest, rd);
            }
            OpKind::Un(un) => {
                let a = self.use_reg(op.args[0], Reg::T0);
                let dest = op.result.expect("unary has result");
                let rd = self.def_reg(dest, Reg::T2);
                match un {
                    UnOp::Neg => {
                        self.push(Inst::Alu { op: AluOp::Sub, rd, rs1: Reg::ZERO, rs2: a });
                    }
                    UnOp::Not => {
                        self.push(Inst::Alu { op: AluOp::Seq, rd, rs1: a, rs2: Reg::ZERO });
                    }
                    UnOp::BitNot => {
                        self.push(Inst::AluI { op: AluOp::Xor, rd, rs1: a, imm: -1 });
                    }
                }
                self.finish_def(dest, rd);
            }
            OpKind::Bin(bin) => {
                let a = self.use_reg(op.args[0], Reg::T0);
                let b = self.use_reg(op.args[1], Reg::T1);
                let dest = op.result.expect("binary has result");
                let rd = self.def_reg(dest, Reg::T2);
                let (alu, swap) = map_binop(*bin);
                let (rs1, rs2) = if swap { (b, a) } else { (a, b) };
                self.push(Inst::Alu { op: alu, rd, rs1, rs2 });
                self.finish_def(dest, rd);
            }
            OpKind::Load { array } => {
                let index = self.use_reg(op.args[0], Reg::T0);
                let base = self.array_base(*array, Reg::T1);
                let dest = op.result.expect("load has result");
                let rd = self.def_reg(dest, Reg::T2);
                self.push(Inst::Lwx { rd, base, index });
                self.finish_def(dest, rd);
            }
            OpKind::Store { array } => {
                let index = self.use_reg(op.args[0], Reg::T0);
                let value = self.use_reg(op.args[1], Reg::T2);
                let base = self.array_base(*array, Reg::T1);
                self.push(Inst::Swx { rs: value, base, index });
            }
            OpKind::Call { func } => {
                let callee = self.module.function(*func);
                if callee.params.len() > ARG_REGS.len() {
                    return Err(CodegenError {
                        message: format!(
                            "call to `{}` with {} args exceeds the ABI limit",
                            callee.name,
                            callee.params.len()
                        ),
                    });
                }
                for (i, &arg) in op.args.iter().enumerate() {
                    let src = self.use_reg(arg, Reg::T0);
                    self.push(Inst::Alu {
                        op: AluOp::Add,
                        rd: ARG_REGS[i],
                        rs1: src,
                        rs2: Reg::ZERO,
                    });
                }
                self.call_fixups.push((self.insts.len(), *func));
                self.push(Inst::Jal { target: usize::MAX });
                if let Some(dest) = op.result {
                    let rd = self.def_reg(dest, Reg::T2);
                    self.push(Inst::Alu { op: AluOp::Add, rd, rs1: Reg::RV, rs2: Reg::ZERO });
                    self.finish_def(dest, rd);
                }
            }
            OpKind::ChanRecv { chan } => {
                let dest = op.result.expect("recv has result");
                let rd = self.def_reg(dest, Reg::T2);
                self.push(Inst::CRecv { rd, chan: chan.0 });
                self.finish_def(dest, rd);
            }
            OpKind::ChanSend { chan } => {
                let value = self.use_reg(op.args[0], Reg::T0);
                self.push(Inst::CSend { rs: value, chan: chan.0 });
            }
            OpKind::Output => {
                let value = self.use_reg(op.args[0], Reg::T0);
                self.push(Inst::Out { rs: value });
            }
        }
        Ok(())
    }
}

/// Maps an IR binary op to an ALU op, possibly swapping operands.
fn map_binop(bin: BinOp) -> (AluOp, bool) {
    match bin {
        BinOp::Add => (AluOp::Add, false),
        BinOp::Sub => (AluOp::Sub, false),
        BinOp::Mul => (AluOp::Mul, false),
        BinOp::Div => (AluOp::Div, false),
        BinOp::Rem => (AluOp::Rem, false),
        BinOp::Shl => (AluOp::Sll, false),
        BinOp::Shr => (AluOp::Sra, false),
        BinOp::Lt => (AluOp::Slt, false),
        BinOp::Le => (AluOp::Sle, false),
        BinOp::Gt => (AluOp::Slt, true),
        BinOp::Ge => (AluOp::Sle, true),
        BinOp::Eq => (AluOp::Seq, false),
        BinOp::Ne => (AluOp::Sne, false),
        BinOp::BitAnd => (AluOp::And, false),
        BinOp::BitOr => (AluOp::Or, false),
        BinOp::BitXor => (AluOp::Xor, false),
        BinOp::LogAnd | BinOp::LogOr => {
            unreachable!("short-circuit ops are lowered to control flow")
        }
    }
}

/// Linear-scan register allocation for one function.
///
/// Intervals are derived from real per-block liveness (backward dataflow),
/// not from occurrence positions alone: with loops and branchy layouts a
/// value can be live in a block that sits *after* its last textual use
/// (e.g. an `if` inside a loop whose arms are laid out after the loop's
/// step block), and occurrence-based intervals would let the allocator
/// clobber it.
///
/// Returns the per-vreg locations (spill offsets are *slot indices*, to be
/// rebased by the caller), the list of allocatable registers actually used
/// and the number of spill slots.
fn allocate_registers(module: &Module, fid: FuncId) -> (Vec<Loc>, Vec<Reg>, usize) {
    let func = module.function(fid);
    let n = func.num_vregs as usize;
    let n_blocks = func.blocks.len();

    // Per-block upward-exposed uses and definitions (in op order), plus the
    // layout position range of each block.
    let mut uses: Vec<Vec<bool>> = vec![vec![false; n]; n_blocks];
    let mut defs: Vec<Vec<bool>> = vec![vec![false; n]; n_blocks];
    let mut block_lo = vec![0usize; n_blocks];
    let mut block_hi = vec![0usize; n_blocks];
    let mut occurrence_lo = vec![usize::MAX; n];
    let mut occurrence_hi = vec![0usize; n];
    let mut pos = 0usize;
    fn mark_use(
        v: VReg,
        p: usize,
        uses_b: &mut [bool],
        defs_b: &[bool],
        lo: &mut [usize],
        hi: &mut [usize],
    ) {
        let i = v.0 as usize;
        if !defs_b[i] {
            uses_b[i] = true;
        }
        lo[i] = lo[i].min(p);
        hi[i] = hi[i].max(p);
    }
    for (b, block) in func.blocks.iter().enumerate() {
        block_lo[b] = pos + 1;
        for op in &block.ops {
            pos += 1;
            for &a in &op.args {
                mark_use(a, pos, &mut uses[b], &defs[b], &mut occurrence_lo, &mut occurrence_hi);
            }
            if let Some(r) = op.result {
                let i = r.0 as usize;
                defs[b][i] = true;
                occurrence_lo[i] = occurrence_lo[i].min(pos);
                occurrence_hi[i] = occurrence_hi[i].max(pos);
            }
        }
        pos += 1;
        match &block.term {
            Terminator::Branch { cond, .. } => {
                mark_use(
                    *cond,
                    pos,
                    &mut uses[b],
                    &defs[b],
                    &mut occurrence_lo,
                    &mut occurrence_hi,
                );
            }
            Terminator::Return(Some(v)) => {
                mark_use(*v, pos, &mut uses[b], &defs[b], &mut occurrence_lo, &mut occurrence_hi);
            }
            _ => {}
        }
        block_hi[b] = pos;
    }
    // Parameters are defined on entry.
    for &p in &func.params {
        occurrence_lo[p.0 as usize] = 0;
    }

    // Backward liveness to a fixpoint.
    let succs: Vec<Vec<usize>> = func
        .blocks
        .iter()
        .map(|b| b.term.successors().iter().map(|s| s.0 as usize).collect())
        .collect();
    let mut live_in: Vec<Vec<bool>> = vec![vec![false; n]; n_blocks];
    let mut live_out: Vec<Vec<bool>> = vec![vec![false; n]; n_blocks];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n_blocks).rev() {
            for v in 0..n {
                let out = succs[b].iter().any(|&s| live_in[s][v]);
                if out != live_out[b][v] {
                    live_out[b][v] = out;
                    changed = true;
                }
                let inn = uses[b][v] || (out && !defs[b][v]);
                if inn != live_in[b][v] {
                    live_in[b][v] = inn;
                    changed = true;
                }
            }
        }
    }

    // Intervals: every occurrence plus the full span of every block the
    // value is live into or out of.
    let mut start = occurrence_lo;
    let mut end = occurrence_hi;
    for b in 0..n_blocks {
        for v in 0..n {
            if live_in[b][v] {
                start[v] = start[v].min(block_lo[b]);
                end[v] = end[v].max(block_lo[b]);
            }
            if live_out[b][v] {
                start[v] = start[v].min(block_hi[b]);
                end[v] = end[v].max(block_hi[b]);
            }
        }
    }

    let mut order: Vec<usize> = (0..n).filter(|&i| start[i] != usize::MAX).collect();
    order.sort_by_key(|&i| start[i]);

    let mut locs = vec![Loc::Spill(0); n];
    let mut free: Vec<Reg> = ALLOCATABLE.iter().rev().copied().collect();
    let mut active: Vec<usize> = Vec::new(); // vreg indices, sorted by end
    let mut used: Vec<Reg> = Vec::new();
    let mut n_spills = 0usize;
    let spill_slot = |locs: &mut Vec<Loc>, i: usize, n_spills: &mut usize| {
        locs[i] = Loc::Spill(*n_spills as i32);
        *n_spills += 1;
    };

    for &i in &order {
        // Expire finished intervals.
        let mut j = 0;
        while j < active.len() {
            let a = active[j];
            if end[a] < start[i] {
                if let Loc::Reg(r) = locs[a] {
                    free.push(r);
                }
                active.remove(j);
            } else {
                j += 1;
            }
        }
        if let Some(reg) = free.pop() {
            locs[i] = Loc::Reg(reg);
            if !used.contains(&reg) {
                used.push(reg);
            }
            active.push(i);
            active.sort_by_key(|&a| end[a]);
        } else {
            // Spill the interval that ends last.
            let &last = active.last().expect("active non-empty when no regs free");
            if end[last] > end[i] {
                let Loc::Reg(r) = locs[last] else { unreachable!("active holds regs") };
                locs[i] = Loc::Reg(r);
                spill_slot(&mut locs, last, &mut n_spills);
                active.pop();
                active.push(i);
                active.sort_by_key(|&a| end[a]);
            } else {
                spill_slot(&mut locs, i, &mut n_spills);
            }
        }
    }
    used.sort_by_key(|r| r.0);
    (locs, used, n_spills)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, CpuExec};
    use std::sync::Arc;

    fn compile(src: &str, entry: &str, args: &[i64]) -> Program {
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let id = module.function_id(entry).expect("entry exists");
        build_program(&module, id, args).expect("compiles")
    }

    fn run(src: &str, entry: &str, args: &[i64]) -> (Vec<i64>, Option<i32>) {
        let program = compile(src, entry, args);
        let mut cpu = Cpu::new(Arc::new(program));
        assert_eq!(cpu.run(u64::MAX), CpuExec::Done);
        (cpu.outputs().to_vec(), cpu.return_value())
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        let src = "int f(int a, int b) { return (a * b + 7) % (a + 1) - (b >> 1); }";
        let (_, rv) = run(src, "f", &[13, 9]);
        assert_eq!(rv, Some((13 * 9 + 7) % 14 - 4));
    }

    #[test]
    fn loops_and_arrays_work() {
        let src = "void main() {
            int fib[12];
            fib[0] = 0; fib[1] = 1;
            for (int i = 2; i < 12; i++) { fib[i] = fib[i-1] + fib[i-2]; }
            out(fib[11]);
        }";
        let (outs, _) = run(src, "main", &[]);
        assert_eq!(outs, vec![89]);
    }

    #[test]
    fn calls_and_recursion() {
        let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
                   void main() { out(fact(7)); }";
        let (outs, _) = run(src, "main", &[]);
        assert_eq!(outs, vec![5040]);
    }

    #[test]
    fn globals_and_initializers() {
        let src = "int bias = 100;
                   int tab[4] = {1, 2, 3, 4};
                   void main() { bias += tab[3]; out(bias); }";
        let (outs, _) = run(src, "main", &[]);
        assert_eq!(outs, vec![104]);
    }

    #[test]
    fn local_array_zero_fill_and_init() {
        let src = "int f() { int t[6] = {5}; int s = 0;
                     for (int i = 0; i < 6; i++) { s += t[i]; }
                     return s; }
                   void main() { out(f()); }";
        let (outs, _) = run(src, "main", &[]);
        assert_eq!(outs, vec![5], "elements beyond the initializer are zero");
    }

    #[test]
    fn register_pressure_forces_spills_and_still_computes() {
        // 20+ simultaneously-live values exceed the 13 allocatable regs.
        let mut body = String::new();
        for i in 0..20 {
            body.push_str(&format!("int x{i} = a + {i};\n"));
        }
        body.push_str("int s = 0;\n");
        for i in 0..20 {
            body.push_str(&format!("s += x{i} * x{i};\n"));
        }
        let src = format!("int f(int a) {{ {body} return s; }}");
        let (_, rv) = run(&src, "f", &[3]);
        let expect: i32 = (0..20).map(|i| (3 + i) * (3 + i)).sum();
        assert_eq!(rv, Some(expect));
    }

    #[test]
    fn instruction_expansion_is_bounded() {
        // Compiled code should stay within ~2.5 instructions per IR op for
        // typical kernels; that bound is what makes the estimator's
        // fetch-count model workable.
        let src = "int t[64];
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s += t[i] * (i + 1); }
                return s;
            }";
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let ops: usize = module.functions[0].op_count();
        let id = module.function_id("f").expect("f");
        let program = build_program(&module, id, &[64]).expect("compiles");
        let insts = program.insts.len();
        assert!(
            insts <= ops * 5 / 2 + 24,
            "{insts} instructions for {ops} ops is too much expansion"
        );
    }

    #[test]
    fn eight_arg_calls_are_supported_nine_rejected() {
        let ok = "int add8(int a, int b, int c, int d, int e, int f, int g, int h) {
                      return a + b + c + d + e + f + g + h;
                  }
                  void main() { out(add8(1, 2, 3, 4, 5, 6, 7, 8)); }";
        let (outs, _) = run(ok, "main", &[]);
        assert_eq!(outs, vec![36]);

        let too_many = "int f(int a, int b, int c, int d, int e, int g, int h, int i, int j) {
                            return a + j;
                        }";
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(too_many).expect("parses")).expect("lowers");
        let id = module.function_id("f").expect("f");
        assert!(build_program(&module, id, &[0; 9]).is_err());
    }
}
