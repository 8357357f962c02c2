//! A resumable CDFG interpreter.
//!
//! This is the functional execution engine of both the functional and the
//! timed TLM. A [`Machine`] runs one application process; when the process
//! reaches a channel operation the machine suspends and returns control to
//! the caller ([`Exec::RecvPending`] / [`Exec::SendPending`]), which makes it
//! trivially embeddable as a `tlm-desim` process: the process object *is*
//! the machine state, no coroutines required.
//!
//! Execution hooks observe block entries, branches and memory accesses, so
//! profilers and reference models can gather statistics without touching
//! the interpreter core. The timed TLM needs no hook: given each block's
//! annotated cycles ([`Machine::set_block_cycles`]), the machine adds them
//! up itself at every block entry, the `wait()` counter the paper's §4.3
//! compiles into the generated code, and [`Machine::take_cycles`] hands
//! the total over.
//!
//! The machine does not walk the IR. [`Machine::from_arc`] decodes every
//! function once into one flat array of small `Copy` instructions: each
//! block's operations followed by its terminator, register operands as
//! inline indices, memory accesses with their array's bounds and addresses
//! resolved, jump targets as instruction indices. A peephole then fuses a
//! `Const` with the `Mul` it feeds, and a loop header's compare against a
//! constant with its branch, into one instruction each. The hot loop runs
//! a frame's straight-line code and its jumps and branches without leaving
//! the loop; it hands control back only for calls, returns, channel
//! operations, traps and running out of fuel.

use std::fmt;
use std::sync::Arc;

use tlm_minic::ast::{eval_binop, wrap_i32, BinOp, UnOp};

use crate::ir::{
    ArrayId, ArrayScope, BlockId, ChanId, FuncId, MemoryLayout, Module, OpKind, Terminator, VReg,
    GLOBALS_BASE, STACK_BASE, WORD_BYTES,
};

/// Maximum call depth before the machine traps.
const MAX_FRAMES: usize = 4096;

/// Observer of machine execution.
///
/// All methods have empty defaults; implement only what you need.
pub trait ExecHook {
    /// Called every time control enters a basic block.
    fn on_block(&mut self, _func: FuncId, _block: BlockId) {}
    /// Called on every data-memory access with the absolute byte address.
    fn on_mem(&mut self, _addr: u32, _is_store: bool) {}
    /// Called when a conditional branch resolves.
    fn on_branch(&mut self, _func: FuncId, _block: BlockId, _taken: bool) {}
}

/// An [`ExecHook`] that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl ExecHook for NoopHook {}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exec {
    /// The entry function returned; the machine is finished.
    Done,
    /// The machine is blocked on `ch_recv` of this channel. Deliver a value
    /// with [`Machine::complete_recv`], then call `run` again.
    RecvPending(ChanId),
    /// The machine wants to send the value on this channel. Consume it,
    /// call [`Machine::complete_send`], then `run` again.
    SendPending(ChanId, i64),
    /// A runtime error; the machine is dead.
    Trap(Trap),
    /// The fuel budget of [`Machine::run_fuel`] ran out mid-execution;
    /// calling `run` again continues.
    OutOfFuel,
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Array access out of bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Call depth exceeded the interpreter's limit (4096 frames).
    StackOverflow,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::OutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` of length {len}")
            }
            Trap::StackOverflow => write!(f, "call stack overflow"),
        }
    }
}

/// Execution counters, useful for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Operations executed.
    pub ops: u64,
    /// Basic blocks entered.
    pub blocks: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Conditional branches that were taken.
    pub branches_taken: u64,
    /// Data memory accesses.
    pub mem_accesses: u64,
    /// Function calls made.
    pub calls: u64,
}

/// One array access site, resolved at decode time.
#[derive(Debug, Clone, Copy)]
struct Mem {
    /// The array, named only by an out-of-bounds trap.
    array: u32,
    /// Element count.
    len: u32,
    /// Word index of element 0 in the globals image or in the frame's
    /// locals.
    word: u32,
    /// Byte address of element 0: absolute for a global array, relative to
    /// the frame base for a local one.
    addr: u32,
}

impl Mem {
    /// The element offset of `index`, or `None` when it is out of bounds.
    #[inline(always)]
    fn offset(self, index: i64) -> Option<u32> {
        (0..i64::from(self.len)).contains(&index).then_some(index as u32)
    }
}

/// The operands of a fused instruction: `Const k = value` and the operation
/// it feeds, `dst = a <op> k`. See [`fuse`].
#[derive(Debug, Clone, Copy)]
struct Imm {
    k: u32,
    value: i32,
    dst: u32,
    a: u32,
}

/// One decoded instruction. Register operands index the frame's `vregs`.
#[derive(Debug, Clone, Copy)]
enum Inst {
    /// `dst = value`, already wrapped to C `int`.
    Const {
        dst: u32,
        value: i32,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    /// `Add`, `Mul` and `Lt` are nineteen in twenty of the binary
    /// operations the MP3 decoder executes, so they skip `Bin`'s second
    /// dispatch on the operator.
    Add {
        dst: u32,
        a: u32,
        b: u32,
    },
    Mul {
        dst: u32,
        a: u32,
        b: u32,
    },
    Lt {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Every other binary operator, through [`eval_binop`].
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    LoadGlobal {
        dst: u32,
        index: u32,
        mem: Mem,
    },
    LoadLocal {
        dst: u32,
        index: u32,
        mem: Mem,
    },
    StoreGlobal {
        index: u32,
        src: u32,
        mem: Mem,
    },
    StoreLocal {
        index: u32,
        src: u32,
        mem: Mem,
    },
    Output {
        src: u32,
    },
    /// The argument registers are `call_args[args..args + argc]`.
    Call {
        callee: u32,
        dst: Option<u32>,
        args: u32,
        argc: u32,
    },
    Recv {
        chan: ChanId,
        dst: Option<u32>,
    },
    Send {
        chan: ChanId,
        src: u32,
    },
    /// Enter `block`, whose first instruction is `pc`.
    Jump {
        pc: u32,
        block: u32,
        /// A copy of `block`'s annotated cycles, low word first: two
        /// words keep `Inst` at 4-byte alignment and its 28-byte stride.
        cycles: [u32; 2],
    },
    /// Leave block `from` for `then_bb` or `else_bb` on `cond != 0`.
    Branch {
        cond: u32,
        from: u32,
        then_pc: u32,
        then_bb: u32,
        else_pc: u32,
        else_bb: u32,
    },
    Return {
        value: Option<u32>,
    },
    /// `Const k; Mul dst = a * k`, fused.
    MulImm(Imm),
    /// A loop header, `Const k; Lt dst = a < k; Branch dst`, fused. The
    /// targets are read from the split `Branch` two slots on.
    LtBranch(Imm),
}

// A fused terminator keeps its targets in its shadow slot, so fusion does
// not grow the instruction array's stride.
const _: () = assert!(std::mem::size_of::<Inst>() == 28);

/// The decode-time peephole: overwrites the first slot of every fusible
/// sequence with its fused form and leaves the later components in the
/// following slots, split. Jumps land on block starts and so on the fused
/// slot; a resume (after a call, a channel operation or running out of
/// fuel) lands on a later component and runs it split. A fused form also
/// writes the `Const`'s register, so no liveness analysis is needed.
fn fuse(insts: &mut [Inst]) {
    // A block ends in a terminator, so a `Const` followed by an operation
    // always has a third slot.
    for i in 0..insts.len().saturating_sub(2) {
        let Inst::Const { dst: k, value } = insts[i] else { continue };
        insts[i] = match (insts[i + 1], insts[i + 2]) {
            // `Mul` commutes, so the constant may be either operand.
            (Inst::Mul { dst, a, b }, _) if b == k || a == k => {
                Inst::MulImm(Imm { k, value, dst, a: if b == k { a } else { b } })
            }
            (Inst::Lt { dst, a, b }, Inst::Branch { cond, .. }) if b == k && cond == dst => {
                Inst::LtBranch(Imm { k, value, dst, a })
            }
            _ => continue,
        };
    }
}

/// One function, decoded. Block `b` occupies `insts[start(b)..]` up to and
/// including its terminator; block 0 starts at 0.
#[derive(Debug)]
struct FuncCode {
    insts: Vec<Inst>,
    /// Annotated cycles of each block, added up on every entry; all zero
    /// unless [`Machine::set_block_cycles`] filled them. A `Jump` carries
    /// its target's entry inline.
    cycles: Vec<u64>,
    /// Argument register lists of the calls, see [`Inst::Call`].
    call_args: Vec<u32>,
    params: Vec<u32>,
    num_vregs: usize,
    /// The initial image of one activation's local arrays.
    locals: Vec<i64>,
}

impl FuncCode {
    /// Decodes one function of a module that passes
    /// [`Module::validate`].
    fn decode(module: &Module, layout: &MemoryLayout, fid: FuncId) -> FuncCode {
        let func = module.function(fid);
        let index = |n: usize| u32::try_from(n).expect("function fits 32-bit instruction indices");
        let mut starts = Vec::with_capacity(func.blocks.len());
        let mut next = 0usize;
        for block in &func.blocks {
            starts.push(index(next));
            next += block.ops.len() + 1;
        }
        let mem = |array: ArrayId| {
            let data = module.array(array);
            let addr = layout.array_base[array.0 as usize];
            let word = match data.scope {
                ArrayScope::Global => (addr - GLOBALS_BASE) / WORD_BYTES,
                ArrayScope::Local(_) => addr / WORD_BYTES,
            };
            let len = u32::try_from(data.len).expect("array fits the address space");
            (data.scope == ArrayScope::Global, Mem { array: array.0, len, word, addr })
        };
        let mut insts = Vec::with_capacity(next);
        let mut call_args = Vec::new();
        for (bid, block) in func.blocks_iter() {
            for op in &block.ops {
                let arg = |i: usize| op.args[i].0;
                let dst = || op.result.expect("value-producing op has a result").0;
                insts.push(match op.kind {
                    OpKind::Const(v) => Inst::Const { dst: dst(), value: wrap_i32(v) as i32 },
                    OpKind::Copy => Inst::Copy { dst: dst(), src: arg(0) },
                    OpKind::Un(op) => Inst::Un { op, dst: dst(), a: arg(0) },
                    OpKind::Bin(op) => {
                        let (dst, a, b) = (dst(), arg(0), arg(1));
                        match op {
                            BinOp::Add => Inst::Add { dst, a, b },
                            BinOp::Mul => Inst::Mul { dst, a, b },
                            BinOp::Lt => Inst::Lt { dst, a, b },
                            _ => Inst::Bin { op, dst, a, b },
                        }
                    }
                    OpKind::Load { array } => match mem(array) {
                        (true, mem) => Inst::LoadGlobal { dst: dst(), index: arg(0), mem },
                        (false, mem) => Inst::LoadLocal { dst: dst(), index: arg(0), mem },
                    },
                    OpKind::Store { array } => match mem(array) {
                        (true, mem) => Inst::StoreGlobal { index: arg(0), src: arg(1), mem },
                        (false, mem) => Inst::StoreLocal { index: arg(0), src: arg(1), mem },
                    },
                    OpKind::Output => Inst::Output { src: arg(0) },
                    OpKind::Call { func: callee } => {
                        let (args, argc) = (index(call_args.len()), index(op.args.len()));
                        call_args.extend(op.args.iter().map(|r| r.0));
                        Inst::Call { callee: callee.0, dst: op.result.map(|r| r.0), args, argc }
                    }
                    OpKind::ChanRecv { chan } => Inst::Recv { chan, dst: op.result.map(|r| r.0) },
                    OpKind::ChanSend { chan } => Inst::Send { chan, src: arg(0) },
                });
            }
            insts.push(match block.term {
                Terminator::Jump(target) => {
                    Inst::Jump { pc: starts[target.0 as usize], block: target.0, cycles: [0; 2] }
                }
                Terminator::Branch { cond, then_bb, else_bb } => Inst::Branch {
                    cond: cond.0,
                    from: bid.0,
                    then_pc: starts[then_bb.0 as usize],
                    then_bb: then_bb.0,
                    else_pc: starts[else_bb.0 as usize],
                    else_bb: else_bb.0,
                },
                Terminator::Return(value) => Inst::Return { value: value.map(|r| r.0) },
            });
        }
        fuse(&mut insts);
        let mut locals = vec![0i64; layout.frame_words[fid.0 as usize] as usize];
        for &aid in &func.local_arrays {
            let base = (layout.array_base[aid.0 as usize] / WORD_BYTES) as usize;
            for (j, &v) in module.array(aid).init.iter().enumerate() {
                locals[base + j] = wrap_i32(v);
            }
        }
        FuncCode {
            insts,
            cycles: vec![0; func.blocks.len()],
            call_args,
            params: func.params.iter().map(|&VReg(r)| r).collect(),
            num_vregs: func.num_vregs as usize,
            locals,
        }
    }
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    /// Index of the next instruction in the function's [`FuncCode`].
    pc: u32,
    vregs: Vec<i64>,
    /// Storage for this activation's local arrays, laid out per
    /// [`MemoryLayout`].
    locals: Vec<i64>,
    /// Absolute byte address of this frame's local-array area.
    frame_base: u32,
    /// Where to store the callee's return value in *this* frame.
    pending_result: Option<u32>,
}

/// The machine's counters: the public ones, and the annotated cycles of
/// the blocks entered since the last [`Machine::take_cycles`].
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    stats: ExecStats,
    cycles: u64,
}

/// Why [`run_frame`] handed control back to the machine.
enum Stop {
    OutOfFuel,
    DivByZero,
    OutOfBounds { array: u32, index: i64 },
    Call { callee: u32, dst: Option<u32>, args: u32, argc: u32 },
    Return(Option<i64>),
    Recv(ChanId),
    Send(ChanId, i64),
}

/// [`eval_binop`] of an operator that cannot trap. With `op` a constant
/// the operator match folds away.
#[inline(always)]
fn total(op: BinOp, l: i64, r: i64) -> i64 {
    eval_binop(op, l, r).expect("only division and remainder trap")
}

/// Resolves the conditional branch `branch` on `taken`, adding the cycles
/// of the block it enters to `acc`; returns that block's pc. The entry
/// counts in `stats.blocks` when [`run_frame`] returns: every branch enters
/// one block.
#[inline(always)]
fn branch(
    cycles: &[u64],
    func: FuncId,
    branch: Inst,
    taken: bool,
    st: &mut ExecStats,
    acc: &mut u64,
    hook: &mut impl ExecHook,
) -> usize {
    let Inst::Branch { from, then_pc, then_bb, else_pc, else_bb, .. } = branch else {
        unreachable!("a fused branch's shadow slot holds its split form");
    };
    let (target, block) = if taken { (then_pc, then_bb) } else { (else_pc, else_bb) };
    st.branches += 1;
    st.branches_taken += u64::from(taken);
    *acc += cycles[block as usize];
    hook.on_branch(func, BlockId(from), taken);
    hook.on_block(func, BlockId(block));
    target as usize
}

/// Runs the top frame from its `pc` until it calls, returns, touches a
/// channel, traps or runs out of fuel; `frame.pc` is then the instruction
/// that stopped it. Every executed operation costs one unit of fuel and
/// counts in `stats.ops`; terminators are free but, like operations, only
/// run while fuel is left. Every block the frame enters adds its cycles
/// to `counters.cycles`. A stopping instruction has not executed yet.
/// A fused form runs whole only when the fuel its split form would use is
/// left, one unit per operation plus one if it ends in a terminator;
/// otherwise it runs its `Const` alone and leaves the rest to the split
/// slots that follow it.
fn run_frame(
    code: &FuncCode,
    frame: &mut Frame,
    globals: &mut [i64],
    outputs: &mut Vec<i64>,
    counters: &mut Counters,
    hook: &mut impl ExecHook,
    fuel: &mut u64,
) -> Stop {
    let func = frame.func;
    let frame_base = frame.frame_base;
    let regs = &mut frame.vregs[..];
    let locals = &mut frame.locals[..];
    let insts = &code.insts[..];
    let mut pc = frame.pc as usize;
    let mut left = *fuel;
    // The statistics are counted in a copy; the cycles go straight to
    // `counters`, which keeps one more value out of the loop's registers.
    let mut st = counters.stats;
    let acc = &mut counters.cycles;
    let stop = loop {
        if left == 0 {
            break Stop::OutOfFuel;
        }
        match insts[pc] {
            Inst::Const { dst, value } => regs[dst as usize] = i64::from(value),
            Inst::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            Inst::Un { op, dst, a } => {
                let a = regs[a as usize];
                regs[dst as usize] = match op {
                    UnOp::Neg => wrap_i32(a.wrapping_neg()),
                    UnOp::Not => i64::from(a == 0),
                    UnOp::BitNot => wrap_i32(!a),
                };
            }
            Inst::Add { dst, a, b } => {
                regs[dst as usize] = total(BinOp::Add, regs[a as usize], regs[b as usize]);
            }
            Inst::Mul { dst, a, b } => {
                regs[dst as usize] = total(BinOp::Mul, regs[a as usize], regs[b as usize]);
            }
            Inst::Lt { dst, a, b } => {
                regs[dst as usize] = total(BinOp::Lt, regs[a as usize], regs[b as usize]);
            }
            Inst::Bin { op, dst, a, b } => {
                match eval_binop(op, regs[a as usize], regs[b as usize]) {
                    Some(v) => regs[dst as usize] = v,
                    None => break Stop::DivByZero,
                }
            }
            Inst::LoadGlobal { dst, index, mem } => {
                let index = regs[index as usize];
                let Some(off) = mem.offset(index) else {
                    break Stop::OutOfBounds { array: mem.array, index };
                };
                regs[dst as usize] = globals[(mem.word + off) as usize];
                st.mem_accesses += 1;
                hook.on_mem(mem.addr + off * WORD_BYTES, false);
            }
            Inst::LoadLocal { dst, index, mem } => {
                let index = regs[index as usize];
                let Some(off) = mem.offset(index) else {
                    break Stop::OutOfBounds { array: mem.array, index };
                };
                regs[dst as usize] = locals[(mem.word + off) as usize];
                st.mem_accesses += 1;
                hook.on_mem(frame_base + mem.addr + off * WORD_BYTES, false);
            }
            Inst::StoreGlobal { index, src, mem } => {
                let index = regs[index as usize];
                let Some(off) = mem.offset(index) else {
                    break Stop::OutOfBounds { array: mem.array, index };
                };
                globals[(mem.word + off) as usize] = regs[src as usize];
                st.mem_accesses += 1;
                hook.on_mem(mem.addr + off * WORD_BYTES, true);
            }
            Inst::StoreLocal { index, src, mem } => {
                let index = regs[index as usize];
                let Some(off) = mem.offset(index) else {
                    break Stop::OutOfBounds { array: mem.array, index };
                };
                locals[(mem.word + off) as usize] = regs[src as usize];
                st.mem_accesses += 1;
                hook.on_mem(frame_base + mem.addr + off * WORD_BYTES, true);
            }
            Inst::Output { src } => outputs.push(regs[src as usize]),
            Inst::Call { callee, dst, args, argc } => break Stop::Call { callee, dst, args, argc },
            Inst::Recv { chan, .. } => break Stop::Recv(chan),
            Inst::Send { chan, src } => break Stop::Send(chan, regs[src as usize]),
            Inst::Jump { pc: target, block, cycles } => {
                pc = target as usize;
                st.blocks += 1;
                *acc += u64::from(cycles[0]) | u64::from(cycles[1]) << 32;
                hook.on_block(func, BlockId(block));
                continue;
            }
            inst @ Inst::Branch { cond, .. } => {
                pc = branch(&code.cycles, func, inst, regs[cond as usize] != 0, &mut st, acc, hook);
                continue;
            }
            Inst::Return { value } => break Stop::Return(value.map(|r| regs[r as usize])),
            Inst::MulImm(f) if left >= 2 => {
                regs[f.k as usize] = i64::from(f.value);
                regs[f.dst as usize] = total(BinOp::Mul, regs[f.a as usize], i64::from(f.value));
                left -= 2;
                pc += 2;
                continue;
            }
            Inst::LtBranch(f) if left >= 3 => {
                regs[f.k as usize] = i64::from(f.value);
                let lt = total(BinOp::Lt, regs[f.a as usize], i64::from(f.value));
                regs[f.dst as usize] = lt;
                left -= 2;
                pc = branch(&code.cycles, func, insts[pc + 2], lt != 0, &mut st, acc, hook);
                continue;
            }
            // Too little fuel for the whole form: its `Const` alone.
            Inst::MulImm(f) | Inst::LtBranch(f) => {
                regs[f.k as usize] = i64::from(f.value);
            }
        }
        left -= 1;
        pc += 1;
    };
    st.ops += *fuel - left;
    // Every branch entered a block; `branch` leaves that count to here.
    st.blocks += st.branches - counters.stats.branches;
    counters.stats = st;
    *fuel = left;
    frame.pc = pc as u32;
    stop
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    AwaitRecv(ChanId),
    AwaitSend(ChanId),
    Finished,
    Trapped,
}

/// A resumable interpreter over one [`Module`].
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct Machine {
    module: Arc<Module>,
    /// Per-function decoded code, indexed by [`FuncId`].
    code: Vec<FuncCode>,
    globals: Vec<i64>,
    frames: Vec<Frame>,
    state: State,
    outputs: Vec<i64>,
    counters: Counters,
    return_value: Option<i64>,
    /// True until the entry block's `on_block` hook has fired.
    entry_pending: bool,
}

impl Machine {
    /// Creates a machine poised at the entry of `entry` with `args` bound to
    /// its parameters. The module is snapshotted (cheaply cloned) so the
    /// machine is self-contained; use [`Machine::from_arc`] to share one
    /// module between many machines.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the entry function's parameter count.
    pub fn new(module: &Module, entry: FuncId, args: &[i64]) -> Machine {
        Machine::from_arc(Arc::new(module.clone()), entry, args)
    }

    /// Creates a machine sharing an existing module, decoding its
    /// functions for execution. The module must pass [`Module::validate`],
    /// as lowering guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the entry function's parameter count.
    pub fn from_arc(module: Arc<Module>, entry: FuncId, args: &[i64]) -> Machine {
        let layout = MemoryLayout::of(&module);
        let globals_words = ((layout.globals_end - GLOBALS_BASE) / WORD_BYTES) as usize;
        let mut globals = vec![0i64; globals_words];
        for (i, a) in module.arrays.iter().enumerate() {
            if a.scope == ArrayScope::Global {
                let base = ((layout.array_base[i] - GLOBALS_BASE) / WORD_BYTES) as usize;
                for (j, &v) in a.init.iter().enumerate() {
                    globals[base + j] = wrap_i32(v);
                }
            }
        }
        let code = module
            .functions_iter()
            .map(|(fid, _)| FuncCode::decode(&module, &layout, fid))
            .collect();
        let mut machine = Machine {
            module,
            code,
            globals,
            frames: Vec::new(),
            state: State::Running,
            outputs: Vec::new(),
            counters: Counters::default(),
            return_value: None,
            entry_pending: true,
        };
        machine.push_frame(entry, args);
        machine
    }

    /// The observable output stream produced so far by `out()`.
    pub fn outputs(&self) -> &[i64] {
        &self.outputs
    }

    /// Execution counters so far.
    pub fn stats(&self) -> &ExecStats {
        &self.counters.stats
    }

    /// Sets the annotated cycles of every block: from now on, each entry
    /// into block `b` of function `f` adds `cycles(f, b)` to the total
    /// [`Machine::take_cycles`] hands over. A fresh machine counts zero
    /// cycles per block.
    pub fn set_block_cycles(&mut self, cycles: impl Fn(FuncId, BlockId) -> u64) {
        for (f, code) in self.code.iter_mut().enumerate() {
            for (b, c) in code.cycles.iter_mut().enumerate() {
                *c = cycles(FuncId(f as u32), BlockId(b as u32));
            }
            for inst in &mut code.insts {
                if let Inst::Jump { block, cycles, .. } = inst {
                    let c = code.cycles[*block as usize];
                    *cycles = [c as u32, (c >> 32) as u32];
                }
            }
        }
    }

    /// The annotated cycles of the blocks entered since the last call,
    /// which resets the total to zero.
    pub fn take_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.counters.cycles)
    }

    /// The entry function's return value once [`Exec::Done`] was reached.
    pub fn return_value(&self) -> Option<i64> {
        self.return_value
    }

    /// The module this machine executes.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The instruction the top frame is suspended at.
    fn suspended_at(&self) -> Inst {
        let frame = self.frames.last().expect("awaiting machine has a frame");
        self.code[frame.func.0 as usize].insts[frame.pc as usize]
    }

    /// Delivers the value a pending `ch_recv` was waiting for.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not in the [`Exec::RecvPending`] state.
    pub fn complete_recv(&mut self, value: i64) {
        let State::AwaitRecv(_) = self.state else {
            panic!("complete_recv called but machine is not awaiting a receive");
        };
        let Inst::Recv { dst, .. } = self.suspended_at() else {
            unreachable!("a pending receive is suspended at a receive");
        };
        let frame = self.frames.last_mut().expect("awaiting machine has a frame");
        if let Some(dst) = dst {
            frame.vregs[dst as usize] = wrap_i32(value);
        }
        frame.pc += 1;
        self.counters.stats.ops += 1;
        self.state = State::Running;
    }

    /// Acknowledges that the value of a pending `ch_send` was consumed.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not in the [`Exec::SendPending`] state.
    pub fn complete_send(&mut self) {
        let State::AwaitSend(_) = self.state else {
            panic!("complete_send called but machine is not awaiting a send");
        };
        let frame = self.frames.last_mut().expect("awaiting machine has a frame");
        frame.pc += 1;
        self.counters.stats.ops += 1;
        self.state = State::Running;
    }

    /// Runs until completion, suspension or trap.
    pub fn run(&mut self, hook: &mut impl ExecHook) -> Exec {
        self.run_fuel(hook, u64::MAX)
    }

    /// Runs, executing at most `fuel` operations.
    pub fn run_fuel(&mut self, hook: &mut impl ExecHook, mut fuel: u64) -> Exec {
        match self.state {
            State::Running => {}
            State::AwaitRecv(ch) => return Exec::RecvPending(ch),
            State::AwaitSend(ch) => {
                // Re-deliver the pending value.
                let Inst::Send { src, .. } = self.suspended_at() else {
                    unreachable!("a pending send is suspended at a send");
                };
                let frame = self.frames.last().expect("awaiting machine has a frame");
                return Exec::SendPending(ch, frame.vregs[src as usize]);
            }
            State::Finished => return Exec::Done,
            State::Trapped => panic!("running a trapped machine"),
        }
        if self.entry_pending {
            self.entry_pending = false;
            let frame = self.frames.last().expect("machine has an entry frame");
            self.counters.stats.blocks += 1;
            self.counters.cycles += self.code[frame.func.0 as usize].cycles[0];
            hook.on_block(frame.func, BlockId(0));
        }
        loop {
            let frame = self.frames.last_mut().expect("a running machine has a frame");
            let code = &self.code[frame.func.0 as usize];
            let stop = run_frame(
                code,
                frame,
                &mut self.globals,
                &mut self.outputs,
                &mut self.counters,
                hook,
                &mut fuel,
            );
            match stop {
                Stop::OutOfFuel => return Exec::OutOfFuel,
                Stop::DivByZero => return self.trap(Trap::DivByZero),
                Stop::OutOfBounds { array, index } => {
                    let data = &self.module.arrays[array as usize];
                    let trap = Trap::OutOfBounds { array: data.name.clone(), index, len: data.len };
                    return self.trap(trap);
                }
                Stop::Recv(chan) => {
                    self.state = State::AwaitRecv(chan);
                    return Exec::RecvPending(chan);
                }
                Stop::Send(chan, value) => {
                    self.state = State::AwaitSend(chan);
                    return Exec::SendPending(chan, value);
                }
                Stop::Call { callee, dst, args, argc } => {
                    let regs = &code.call_args[args as usize..(args + argc) as usize];
                    let args: Vec<i64> = regs.iter().map(|&r| frame.vregs[r as usize]).collect();
                    frame.pending_result = dst;
                    if self.frames.len() >= MAX_FRAMES {
                        return self.trap(Trap::StackOverflow);
                    }
                    fuel -= 1;
                    self.counters.stats.ops += 1;
                    self.counters.stats.calls += 1;
                    self.push_frame(FuncId(callee), &args);
                    self.counters.stats.blocks += 1;
                    self.counters.cycles += self.code[callee as usize].cycles[0];
                    hook.on_block(FuncId(callee), BlockId(0));
                }
                Stop::Return(ret) => {
                    self.frames.pop();
                    let Some(caller) = self.frames.last_mut() else {
                        self.return_value = ret;
                        self.state = State::Finished;
                        return Exec::Done;
                    };
                    if let Some(dst) = caller.pending_result.take() {
                        caller.vregs[dst as usize] =
                            ret.expect("callee signature guarantees a value");
                    }
                    caller.pc += 1;
                }
            }
        }
    }

    fn trap(&mut self, trap: Trap) -> Exec {
        self.state = State::Trapped;
        Exec::Trap(trap)
    }

    fn push_frame(&mut self, func: FuncId, args: &[i64]) {
        let code = &self.code[func.0 as usize];
        assert_eq!(
            args.len(),
            code.params.len(),
            "call to `{}` with wrong argument count",
            self.module.function(func).name
        );
        let mut vregs = vec![0i64; code.num_vregs];
        for (&reg, &value) in code.params.iter().zip(args) {
            vregs[reg as usize] = wrap_i32(value);
        }
        let locals = code.locals.clone();
        // Stack grows down from STACK_BASE; each nested frame sits below its
        // caller. Only used for hook addresses, not for storage.
        let parent_base = self.frames.last().map_or(STACK_BASE, |f| f.frame_base);
        let frame_base = parent_base - (locals.len() as u32) * WORD_BYTES;
        self.frames.push(Frame { func, pc: 0, vregs, locals, frame_base, pending_result: None });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    fn machine(src: &str, entry: &str, args: &[i64]) -> Machine {
        let module = lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let id = module.function_id(entry).expect("entry exists");
        Machine::new(&module, id, args)
    }

    fn run_main(src: &str) -> Vec<i64> {
        let mut m = machine(src, "main", &[]);
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
        m.outputs().to_vec()
    }

    #[test]
    fn arithmetic_and_calls() {
        let outs = run_main(
            "int sq(int x) { return x * x; }
             void main() { out(sq(3) + sq(4)); }",
        );
        assert_eq!(outs, vec![25]);
    }

    #[test]
    fn loops_and_arrays() {
        let outs = run_main(
            "void main() {
                int fib[10];
                fib[0] = 0; fib[1] = 1;
                for (int i = 2; i < 10; i++) { fib[i] = fib[i-1] + fib[i-2]; }
                out(fib[9]);
             }",
        );
        assert_eq!(outs, vec![34]);
    }

    #[test]
    fn globals_persist_across_calls() {
        let outs = run_main(
            "int counter = 0;
             void tick() { counter += 1; }
             void main() { tick(); tick(); tick(); out(counter); }",
        );
        assert_eq!(outs, vec![3]);
    }

    #[test]
    fn global_array_initializers() {
        let outs = run_main(
            "int t[5] = {10, 20, 30};
             void main() { out(t[0] + t[2] + t[4]); }",
        );
        assert_eq!(outs, vec![40], "missing initializers are zero");
    }

    #[test]
    fn local_array_initializers_per_activation() {
        let outs = run_main(
            "int f() { int t[2] = {5, 6}; t[0] += 1; return t[0]; }
             void main() { out(f()); out(f()); }",
        );
        assert_eq!(outs, vec![6, 6], "fresh initializer each call");
    }

    #[test]
    fn do_while_runs_at_least_once() {
        let outs = run_main(
            "void main() {
                int n = 0;
                do { n++; } while (0);
                int m = 10;
                do { m--; } while (m > 3);
                out(n); out(m);
             }",
        );
        assert_eq!(outs, vec![1, 3]);
    }

    #[test]
    fn ternary_evaluates_only_chosen_arm() {
        let outs = run_main(
            "int g = 0;
             int bump() { g += 1; return 99; }
             void main() {
                int a = 1 ? 7 : bump();
                int b = 0 ? bump() : 8;
                out(a + b);
                out(g);
             }",
        );
        assert_eq!(outs, vec![15, 0], "bump never ran");
    }

    #[test]
    fn switch_dispatch_fallthrough_and_default() {
        let outs = run_main(
            "int classify(int x) {
                int r = 0;
                switch (x) {
                    case 1:
                    case 2: r = 10; break;
                    case 3: r = 20;        // falls through
                    case 4: r = r + 1; break;
                    default: r = -1;
                }
                return r;
            }
            void main() {
                out(classify(1)); out(classify(2)); out(classify(3));
                out(classify(4)); out(classify(99));
            }",
        );
        assert_eq!(outs, vec![10, 10, 21, 1, -1]);
    }

    #[test]
    fn switch_without_default_skips() {
        let outs = run_main(
            "void main() {
                int hits = 0;
                for (int i = 0; i < 6; i++) {
                    switch (i) { case 2: hits += 1; break; case 4: hits += 10; }
                }
                out(hits);
            }",
        );
        assert_eq!(outs, vec![11]);
    }

    #[test]
    fn continue_inside_switch_targets_the_loop() {
        let outs = run_main(
            "void main() {
                int s = 0;
                for (int i = 0; i < 6; i++) {
                    switch (i & 1) { case 1: continue; default: break; }
                    s += i;
                }
                out(s);
            }",
        );
        assert_eq!(outs, vec![6], "sum of the even values 0, 2, 4");
    }

    #[test]
    fn recursion() {
        let outs = run_main(
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             void main() { out(fact(6)); }",
        );
        assert_eq!(outs, vec![720]);
    }

    #[test]
    fn short_circuit_evaluation_skips_rhs() {
        let outs = run_main(
            "int g = 0;
             int bump() { g += 1; return 1; }
             void main() {
                if (0 && bump()) { out(99); }
                if (1 || bump()) { out(g); }
             }",
        );
        assert_eq!(outs, vec![0], "bump never ran");
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = machine("int main(int d) { return 1 / d; }", "main", &[0]);
        assert_eq!(m.run(&mut NoopHook), Exec::Trap(Trap::DivByZero));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = machine("int t[4]; int main(int i) { return t[i]; }", "main", &[7]);
        let Exec::Trap(Trap::OutOfBounds { index, len, .. }) = m.run(&mut NoopHook) else {
            panic!("expected OOB trap");
        };
        assert_eq!((index, len), (7, 4));
    }

    #[test]
    fn infinite_recursion_overflows_cleanly() {
        let mut m = machine("int f(int n) { return f(n); } ", "f", &[1]);
        assert_eq!(m.run(&mut NoopHook), Exec::Trap(Trap::StackOverflow));
    }

    #[test]
    fn fuel_limits_execution() {
        let mut m = machine("void main() { int i = 0; while (1) { i += 1; } }", "main", &[]);
        assert_eq!(m.run_fuel(&mut NoopHook, 10_000), Exec::OutOfFuel);
        // Resumable: more fuel continues the loop.
        assert_eq!(m.run_fuel(&mut NoopHook, 10_000), Exec::OutOfFuel);
        assert!(m.stats().ops >= 20_000);
    }

    #[test]
    fn terminators_run_only_while_fuel_is_left() {
        let src = "int main(int a) { int b = a * 3; if (b > 4) { b += 1; } return b; }";
        let mut whole = machine(src, "main", &[2]);
        assert_eq!(whole.run(&mut NoopHook), Exec::Done);
        let total = *whole.stats();

        // Exactly enough fuel for every operation stops before the `then`
        // arm's jump to the (empty) join block; the jump and the return
        // cost nothing once fuel is given again.
        let mut m = machine(src, "main", &[2]);
        assert_eq!(m.run_fuel(&mut NoopHook, total.ops), Exec::OutOfFuel);
        assert_eq!(*m.stats(), ExecStats { blocks: total.blocks - 1, ..total });
        assert_eq!(m.run_fuel(&mut NoopHook, 1), Exec::Done);
        assert_eq!((*m.stats(), m.return_value()), (total, Some(7)));
    }

    #[test]
    fn channel_suspension_round_trip() {
        let mut m = machine(
            "void main() {
                int a = ch_recv(0);
                int b = ch_recv(0);
                ch_send(1, a + b);
             }",
            "main",
            &[],
        );
        assert_eq!(m.run(&mut NoopHook), Exec::RecvPending(ChanId(0)));
        m.complete_recv(30);
        assert_eq!(m.run(&mut NoopHook), Exec::RecvPending(ChanId(0)));
        m.complete_recv(12);
        assert_eq!(m.run(&mut NoopHook), Exec::SendPending(ChanId(1), 42));
        m.complete_send();
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
    }

    #[test]
    fn send_pending_is_idempotent_until_completed() {
        let mut m = machine("void main() { ch_send(2, 7); }", "main", &[]);
        assert_eq!(m.run(&mut NoopHook), Exec::SendPending(ChanId(2), 7));
        assert_eq!(m.run(&mut NoopHook), Exec::SendPending(ChanId(2), 7));
        m.complete_send();
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
    }

    #[test]
    fn return_value_of_entry() {
        let mut m = machine("int main(int a) { return a * 2; }", "main", &[21]);
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
        assert_eq!(m.return_value(), Some(42));
    }

    #[test]
    fn hooks_observe_execution() {
        #[derive(Default)]
        struct Counting {
            blocks: usize,
            mems: usize,
            branches: usize,
        }
        impl ExecHook for Counting {
            fn on_block(&mut self, _f: FuncId, _b: BlockId) {
                self.blocks += 1;
            }
            fn on_mem(&mut self, _a: u32, _s: bool) {
                self.mems += 1;
            }
            fn on_branch(&mut self, _f: FuncId, _b: BlockId, _t: bool) {
                self.branches += 1;
            }
        }
        let mut hook = Counting::default();
        let mut m = machine(
            "int t[4];
             void main() { for (int i = 0; i < 4; i++) { t[i] = i; } }",
            "main",
            &[],
        );
        assert_eq!(m.run(&mut hook), Exec::Done);
        assert_eq!(hook.mems, 4);
        assert_eq!(hook.branches, 5, "4 taken + 1 exit");
        assert!(hook.blocks >= 11);
        assert_eq!(u64::try_from(hook.blocks).expect("fits"), m.stats().blocks);
    }

    #[test]
    fn stats_track_branch_taken_ratio() {
        let mut m = machine("void main() { for (int i = 0; i < 10; i++) { } }", "main", &[]);
        m.run(&mut NoopHook);
        assert_eq!(m.stats().branches, 11);
        assert_eq!(m.stats().branches_taken, 10);
    }

    #[test]
    fn loop_header_and_constant_multiply_decode_to_fused_slots() {
        let m = machine(
            "int t[64];
             int main(int j) {
                int s = 0;
                for (int i = 0; i < 8; i++) s += t[i * 8 + j];
                return s;
             }",
            "main",
            &[1],
        );
        let insts = &m.code[0].insts;
        let fused = |is: fn(&Inst) -> bool| {
            let at: Vec<usize> = (0..insts.len()).filter(|&i| is(&insts[i])).collect();
            assert_eq!(at.len(), 1, "{insts:#?}");
            at[0]
        };
        // Each fused slot is followed by its components, split.
        let h = fused(|i| matches!(i, Inst::LtBranch(_)));
        let Inst::LtBranch(f) = insts[h] else { unreachable!() };
        assert_eq!(f.value, 8);
        assert!(matches!(insts[h + 1], Inst::Lt { dst, a, b } if (dst, a, b) == (f.dst, f.a, f.k)));
        assert!(matches!(insts[h + 2], Inst::Branch { cond, .. } if cond == f.dst));
        let x = fused(|i| matches!(i, Inst::MulImm(_)));
        let Inst::MulImm(f) = insts[x] else { unreachable!() };
        assert_eq!(f.value, 8);
        assert!(
            matches!(insts[x + 1], Inst::Mul { dst, a, b } if (dst, a, b) == (f.dst, f.a, f.k))
        );
        // The latch `i++` stays split: fusing it did not pay.
        let latch = insts.len() - 4;
        assert!(matches!(
            insts[latch..],
            [Inst::Const { value: 1, .. }, Inst::Add { .. }, Inst::Jump { pc, .. }, Inst::Return { .. }]
                if pc as usize == h
        ));
    }

    /// Records every hook callback in order.
    #[derive(Debug, Default, PartialEq)]
    struct Events(Vec<(u8, u32, u32)>);

    impl ExecHook for Events {
        fn on_block(&mut self, f: FuncId, b: BlockId) {
            self.0.push((0, f.0, b.0));
        }
        fn on_mem(&mut self, addr: u32, is_store: bool) {
            self.0.push((1, addr, u32::from(is_store)));
        }
        fn on_branch(&mut self, f: FuncId, b: BlockId, taken: bool) {
            self.0.push((2, f.0, b.0 << 1 | u32::from(taken)));
        }
    }

    #[test]
    fn fused_forms_stop_where_their_split_forms_do() {
        let src = "int t[64];
             int dot(int j) {
                int s = 0;
                for (int i = 0; i < 8; i++) s += t[i * 8 + j];
                return s;
             }
             void main() {
                for (int j = 0; j < 8; j++) { t[j * 9] = j + 3; out(dot(j)); }
             }";
        for fuel in 1..=8 {
            let mut fused = machine(src, "main", &[]);
            let mut split = machine(src, "main", &[]);
            let mut unfused = 0;
            for code in &mut split.code {
                for inst in &mut code.insts {
                    if let Inst::MulImm(f) | Inst::LtBranch(f) = *inst {
                        *inst = Inst::Const { dst: f.k, value: f.value };
                        unfused += 1;
                    }
                }
            }
            assert_eq!(unfused, 4, "2 loop headers, `i * 8` and `j * 9`");
            let (mut fused_events, mut split_events) = (Events::default(), Events::default());
            loop {
                let exec = fused.run_fuel(&mut fused_events, fuel);
                assert_eq!(exec, split.run_fuel(&mut split_events, fuel), "fuel {fuel}");
                assert_eq!(fused.stats(), split.stats(), "fuel {fuel}");
                assert_eq!(fused_events, split_events, "fuel {fuel}");
                if exec == Exec::Done {
                    break;
                }
            }
            assert_eq!(fused.outputs(), split.outputs());
        }
    }

    #[test]
    fn block_cycles_add_up_exactly_under_every_fuel_slice() {
        let src = "int t[64];
             int dot(int j) {
                int s = 0;
                for (int i = 0; i < 8; i++) s += t[i * 8 + j];
                return s;
             }
             void main() {
                for (int j = 0; j < 8; j++) { t[j * 9] = j + 3; out(dot(j)); }
             }";
        // Distinct per block, so a block counted under another's id shows.
        let cycles = |f: FuncId, b: BlockId| u64::from(f.0) * 1000 + u64::from(b.0) * 7 + 1;
        // Each `run_fuel` call's total is the cycles of the blocks whose
        // `on_block` fired in that call; returns the run's grand total.
        let sliced = |fuel: u64| {
            let mut m = machine(src, "main", &[]);
            m.set_block_cycles(cycles);
            let mut total = 0;
            loop {
                let mut events = Events::default();
                let exec = m.run_fuel(&mut events, fuel);
                let entered: u64 = events
                    .0
                    .iter()
                    .filter(|&&(kind, ..)| kind == 0)
                    .map(|&(_, f, b)| cycles(FuncId(f), BlockId(b)))
                    .sum();
                assert_eq!(m.take_cycles(), entered, "fuel {fuel}");
                assert_eq!(m.take_cycles(), 0, "taking resets the total");
                total += entered;
                if exec == Exec::Done {
                    return total;
                }
            }
        };
        let whole = sliced(u64::MAX);
        assert!(whole > 0);
        for fuel in 1..=8 {
            assert_eq!(sliced(fuel), whole, "fuel {fuel}");
        }
        // A machine given no cycles counts none.
        let mut m = machine(src, "main", &[]);
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
        assert_eq!(m.take_cycles(), 0);
    }
}
