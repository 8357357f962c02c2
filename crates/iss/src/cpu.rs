//! The functional (untimed) processor core.
//!
//! Executes a compiled [`Program`] instruction by instruction. Like the
//! CDFG interpreter, the core is resumable: channel instructions suspend it
//! and [`Cpu::complete_recv`]/[`Cpu::complete_send`] resume it, so it can be
//! embedded in any co-simulation. Timing layers ([`crate::timing`],
//! [`crate::microarch`]) drive it through [`Cpu::step_info`] and observe
//! each retired instruction.

use std::fmt;
use std::sync::Arc;

use tlm_cdfg::ir::STACK_BASE;

use crate::codegen::Program;
use crate::isa::{alu_eval, BrCond, Inst, Reg};

/// Why a [`Cpu::run`] call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuExec {
    /// `halt` retired.
    Done,
    /// Blocked on `crecv` of this channel.
    RecvPending(u32),
    /// Blocked on `csend`: channel and the value to deliver.
    SendPending(u32, i32),
    /// A runtime error; the core is dead.
    Trap(CpuTrap),
    /// The fuel budget ran out; calling `run` again continues.
    OutOfFuel,
}

/// Runtime errors of the core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuTrap {
    /// Division or remainder by zero.
    DivByZero {
        /// Faulting pc.
        pc: usize,
    },
    /// Data access outside the memory image or misaligned.
    BadAddress {
        /// Faulting pc.
        pc: usize,
        /// Offending byte address.
        addr: i64,
    },
    /// Jump outside the instruction stream.
    BadPc {
        /// Offending target.
        target: usize,
    },
}

impl fmt::Display for CpuTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuTrap::DivByZero { pc } => write!(f, "division by zero at pc {pc}"),
            CpuTrap::BadAddress { pc, addr } => {
                write!(f, "bad data address {addr:#x} at pc {pc}")
            }
            CpuTrap::BadPc { target } => write!(f, "jump to invalid pc {target}"),
        }
    }
}

/// What one retired instruction did — the timing layers' food.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Pc of the retired instruction.
    pub pc: usize,
    /// Pc of the next instruction.
    pub next_pc: usize,
    /// The instruction itself.
    pub inst: Inst,
    /// Data access performed: `(byte address, is_store)`.
    pub mem: Option<(u32, bool)>,
    /// For conditional branches: was it taken?
    pub taken: Option<bool>,
}

/// One stepping outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// An instruction retired.
    Retired(StepInfo),
    /// The core blocked or stopped; see the inner value.
    Stopped(CpuExec),
}

/// Execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Data memory accesses.
    pub mem_accesses: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Conditional branches taken.
    pub branches_taken: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    AwaitRecv(u32),
    AwaitSend(u32),
    Finished,
    Trapped,
}

/// The functional core.
#[derive(Debug, Clone)]
pub struct Cpu {
    program: Arc<Program>,
    regs: [i32; 32],
    pc: usize,
    memory: Vec<i32>,
    state: State,
    outputs: Vec<i64>,
    stats: CpuStats,
    return_value: Option<i32>,
}

impl Cpu {
    /// Creates a core with the program loaded and memory initialized.
    pub fn new(program: Arc<Program>) -> Cpu {
        let mut memory = vec![0i32; (STACK_BASE / 4) as usize];
        for &(addr, value) in &program.globals_image {
            memory[(addr / 4) as usize] = value;
        }
        let pc = program.entry_pc;
        Cpu {
            program,
            regs: [0; 32],
            pc,
            memory,
            state: State::Running,
            outputs: Vec::new(),
            stats: CpuStats::default(),
            return_value: None,
        }
    }

    /// Observable outputs produced by `out` so far.
    pub fn outputs(&self) -> &[i64] {
        &self.outputs
    }

    /// Execution counters.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Value left in the return-value register at `halt`.
    pub fn return_value(&self) -> Option<i32> {
        self.return_value
    }

    /// The loaded program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Reads a register (diagnostics).
    pub fn reg(&self, r: Reg) -> i32 {
        self.regs[r.0 as usize]
    }

    /// Delivers the value a pending `crecv` waits for.
    ///
    /// # Panics
    ///
    /// Panics if the core is not awaiting a receive.
    pub fn complete_recv(&mut self, value: i32) {
        let State::AwaitRecv(_) = self.state else {
            panic!("complete_recv called but core is not awaiting a receive");
        };
        let Inst::CRecv { rd, .. } = self.program.insts[self.pc] else {
            unreachable!("awaiting state points at a crecv");
        };
        self.write_reg(rd, value);
        self.pc += 1;
        self.stats.instructions += 1;
        self.state = State::Running;
    }

    /// Acknowledges that a pending `csend` value was consumed.
    ///
    /// # Panics
    ///
    /// Panics if the core is not awaiting a send.
    pub fn complete_send(&mut self) {
        let State::AwaitSend(_) = self.state else {
            panic!("complete_send called but core is not awaiting a send");
        };
        self.pc += 1;
        self.stats.instructions += 1;
        self.state = State::Running;
    }

    /// Runs until halt, suspension, trap or fuel exhaustion.
    pub fn run(&mut self, mut fuel: u64) -> CpuExec {
        loop {
            if fuel == 0 {
                return CpuExec::OutOfFuel;
            }
            fuel -= 1;
            match self.step_info() {
                Step::Retired(_) => {}
                Step::Stopped(exec) => return exec,
            }
        }
    }

    fn write_reg(&mut self, rd: Reg, value: i32) {
        if rd != Reg::ZERO {
            self.regs[rd.0 as usize] = value;
        }
    }

    fn mem_index(&self, pc: usize, addr: i64) -> Result<usize, CpuTrap> {
        if addr < 0 || addr % 4 != 0 || addr >= i64::from(STACK_BASE) {
            return Err(CpuTrap::BadAddress { pc, addr });
        }
        Ok((addr / 4) as usize)
    }

    /// Executes one instruction, reporting what it did.
    pub fn step_info(&mut self) -> Step {
        match self.state {
            State::Running => {}
            State::AwaitRecv(ch) => return Step::Stopped(CpuExec::RecvPending(ch)),
            State::AwaitSend(ch) => {
                let Inst::CSend { rs, .. } = self.program.insts[self.pc] else {
                    unreachable!("awaiting state points at a csend");
                };
                return Step::Stopped(CpuExec::SendPending(ch, self.regs[rs.0 as usize]));
            }
            State::Finished => return Step::Stopped(CpuExec::Done),
            State::Trapped => panic!("stepping a trapped core"),
        }
        let pc = self.pc;
        let Some(&inst) = self.program.insts.get(pc) else {
            self.state = State::Trapped;
            return Step::Stopped(CpuExec::Trap(CpuTrap::BadPc { target: pc }));
        };
        let mut mem = None;
        let mut taken = None;
        let mut next_pc = pc + 1;

        macro_rules! trap {
            ($t:expr) => {{
                self.state = State::Trapped;
                return Step::Stopped(CpuExec::Trap($t));
            }};
        }

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1.0 as usize];
                let b = self.regs[rs2.0 as usize];
                match alu_eval(op, a, b) {
                    Some(v) => self.write_reg(rd, v),
                    None => trap!(CpuTrap::DivByZero { pc }),
                }
            }
            Inst::AluI { op, rd, rs1, imm } => {
                let a = self.regs[rs1.0 as usize];
                match alu_eval(op, a, imm) {
                    Some(v) => self.write_reg(rd, v),
                    None => trap!(CpuTrap::DivByZero { pc }),
                }
            }
            Inst::Lw { rd, base, offset } => {
                let addr = i64::from(self.regs[base.0 as usize]) + i64::from(offset);
                match self.mem_index(pc, addr) {
                    Ok(i) => {
                        let v = self.memory[i];
                        self.write_reg(rd, v);
                        mem = Some((addr as u32, false));
                    }
                    Err(t) => trap!(t),
                }
            }
            Inst::Sw { rs, base, offset } => {
                let addr = i64::from(self.regs[base.0 as usize]) + i64::from(offset);
                match self.mem_index(pc, addr) {
                    Ok(i) => {
                        self.memory[i] = self.regs[rs.0 as usize];
                        mem = Some((addr as u32, true));
                    }
                    Err(t) => trap!(t),
                }
            }
            Inst::Lwx { rd, base, index } => {
                let addr = i64::from(self.regs[base.0 as usize])
                    + (i64::from(self.regs[index.0 as usize]) << 2);
                match self.mem_index(pc, addr) {
                    Ok(i) => {
                        let v = self.memory[i];
                        self.write_reg(rd, v);
                        mem = Some((addr as u32, false));
                    }
                    Err(t) => trap!(t),
                }
            }
            Inst::Swx { rs, base, index } => {
                let addr = i64::from(self.regs[base.0 as usize])
                    + (i64::from(self.regs[index.0 as usize]) << 2);
                match self.mem_index(pc, addr) {
                    Ok(i) => {
                        self.memory[i] = self.regs[rs.0 as usize];
                        mem = Some((addr as u32, true));
                    }
                    Err(t) => trap!(t),
                }
            }
            Inst::Branch { cond, rs1, rs2, target } => {
                let a = self.regs[rs1.0 as usize];
                let b = self.regs[rs2.0 as usize];
                let t = match cond {
                    BrCond::Eq => a == b,
                    BrCond::Ne => a != b,
                };
                taken = Some(t);
                self.stats.branches += 1;
                self.stats.branches_taken += u64::from(t);
                if t {
                    next_pc = target;
                }
            }
            Inst::Jump { target } => next_pc = target,
            Inst::Jal { target } => {
                self.write_reg(Reg::RA, (pc + 1) as i32);
                next_pc = target;
            }
            Inst::Jr { rs } => {
                let t = self.regs[rs.0 as usize];
                if t < 0 || t as usize >= self.program.insts.len() {
                    trap!(CpuTrap::BadPc { target: t.max(0) as usize });
                }
                next_pc = t as usize;
            }
            Inst::CRecv { chan, .. } => {
                self.state = State::AwaitRecv(chan);
                return Step::Stopped(CpuExec::RecvPending(chan));
            }
            Inst::CSend { rs, chan } => {
                self.state = State::AwaitSend(chan);
                return Step::Stopped(CpuExec::SendPending(chan, self.regs[rs.0 as usize]));
            }
            Inst::Out { rs } => {
                self.outputs.push(i64::from(self.regs[rs.0 as usize]));
            }
            Inst::Halt => {
                self.state = State::Finished;
                self.return_value = Some(self.regs[Reg::RV.0 as usize]);
                return Step::Stopped(CpuExec::Done);
            }
        }
        if mem.is_some() {
            self.stats.mem_accesses += 1;
        }
        self.pc = next_pc;
        self.stats.instructions += 1;
        Step::Retired(StepInfo { pc, next_pc, inst, mem, taken })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build_program;

    fn cpu_for(src: &str, entry: &str, args: &[i64]) -> Cpu {
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let id = module.function_id(entry).expect("entry exists");
        Cpu::new(Arc::new(build_program(&module, id, args).expect("compiles")))
    }

    #[test]
    fn channel_round_trip() {
        let mut cpu = cpu_for(
            "void main() { int a = ch_recv(0); int b = ch_recv(0); ch_send(1, a * b); }",
            "main",
            &[],
        );
        assert_eq!(cpu.run(u64::MAX), CpuExec::RecvPending(0));
        cpu.complete_recv(6);
        assert_eq!(cpu.run(u64::MAX), CpuExec::RecvPending(0));
        cpu.complete_recv(7);
        assert_eq!(cpu.run(u64::MAX), CpuExec::SendPending(1, 42));
        cpu.complete_send();
        assert_eq!(cpu.run(u64::MAX), CpuExec::Done);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut cpu = cpu_for("int main(int d) { return 10 / d; }", "main", &[0]);
        assert!(matches!(cpu.run(u64::MAX), CpuExec::Trap(CpuTrap::DivByZero { .. })));
    }

    #[test]
    fn out_of_bounds_index_traps() {
        // A very out-of-range index escapes the memory image entirely.
        let mut cpu = cpu_for("int t[4]; int main(int i) { return t[i]; }", "main", &[0x1000_0000]);
        assert!(matches!(cpu.run(u64::MAX), CpuExec::Trap(CpuTrap::BadAddress { .. })));
    }

    #[test]
    fn fuel_is_respected_and_resumable() {
        let mut cpu = cpu_for("void main() { while (1) { } }", "main", &[]);
        assert_eq!(cpu.run(1000), CpuExec::OutOfFuel);
        assert_eq!(cpu.run(1000), CpuExec::OutOfFuel);
        assert!(cpu.stats().instructions >= 2000);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut cpu = cpu_for("int main() { return 0; }", "main", &[]);
        cpu.run(u64::MAX);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn stats_count_branches() {
        let mut cpu = cpu_for("void main() { for (int i = 0; i < 5; i++) { } }", "main", &[]);
        assert_eq!(cpu.run(u64::MAX), CpuExec::Done);
        assert!(cpu.stats().branches >= 6);
        assert!(cpu.stats().branches_taken < cpu.stats().branches);
    }

    #[test]
    fn matches_cdfg_interpreter_on_kernels() {
        use tlm_cdfg::interp::{Exec, Machine, NoopHook};
        let kernels = [
            "void main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i * i; } out(s); }",
            "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }
             void main() { out(gcd(84, 126)); }",
            "int t[16];
             void main() {
                for (int i = 0; i < 16; i++) { t[i] = (i * 37 + 11) % 64; }
                int best = -1;
                for (int i = 0; i < 16; i++) { if (t[i] > best) { best = t[i]; } }
                out(best);
             }",
        ];
        for src in kernels {
            let module =
                tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
            let id = module.function_id("main").expect("main");
            let mut machine = Machine::new(&module, id, &[]);
            assert_eq!(machine.run(&mut NoopHook), Exec::Done);

            let mut cpu = Cpu::new(Arc::new(build_program(&module, id, &[]).expect("compiles")));
            assert_eq!(cpu.run(u64::MAX), CpuExec::Done);
            assert_eq!(cpu.outputs(), machine.outputs(), "engines disagree on {src}");
        }
    }
}
