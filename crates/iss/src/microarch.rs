//! Cycle-accurate in-order timing model — the "board measurement" stand-in.
//!
//! Models a single-issue in-order 5-stage core with blocking caches, a real
//! branch predictor and full forwarding, using the standard scoreboard
//! formulation: each retired instruction advances the cycle counter by its
//! issue slot plus any stall it incurs (i-cache miss, operand-not-ready,
//! structural hazard on the multiplier/divider, d-cache miss, branch
//! misprediction). For an in-order pipeline this is cycle-equivalent to
//! simulating the stages explicitly, and it is what the estimator's output
//! is judged against in Tables 2 and 3.
//!
//! Direct jumps, calls and returns are charged one issue cycle and no
//! refill (an idealized instruction buffer); conditional branches pay
//! `branch_penalty` on a misprediction.

use std::sync::Arc;

use crate::branch::{Predictor, PredictorKind, PredictorStats};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::codegen::Program;
use crate::cpu::{Cpu, CpuExec, Step, StepInfo};
use crate::isa::{AluOp, Inst, Reg};

/// Configuration of the cycle-accurate model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroArchConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Branch prediction scheme.
    pub predictor: PredictorKind,
    /// External memory latency in cycles (cache miss penalty).
    pub miss_penalty: u32,
    /// Refill cycles after a mispredicted conditional branch.
    pub branch_penalty: u32,
    /// Multiplier latency.
    pub mul_latency: u64,
    /// Divider latency.
    pub div_latency: u64,
    /// Cycles from load issue until a consumer may issue (hit).
    pub load_latency: u64,
    /// Instructions issued per cycle (in order); 1 models a scalar core,
    /// 2+ a superscalar front end. Taken control transfers always end the
    /// issue group.
    pub issue_width: u32,
}

impl MicroArchConfig {
    /// A MicroBlaze-like board configuration with the given cache sizes.
    pub fn microblaze_like(icache_bytes: u32, dcache_bytes: u32) -> MicroArchConfig {
        MicroArchConfig {
            icache: CacheConfig::direct_mapped(icache_bytes),
            dcache: CacheConfig::direct_mapped(dcache_bytes),
            predictor: PredictorKind::StaticBtfn,
            miss_penalty: 24,
            branch_penalty: 2,
            mul_latency: 3,
            div_latency: 32,
            load_latency: 2,
            issue_width: 1,
        }
    }
}

/// The cycle-accurate core.
#[derive(Debug, Clone)]
pub struct MicroArch {
    cpu: Cpu,
    config: MicroArchConfig,
    icache: Cache,
    dcache: Cache,
    predictor: Predictor,
    /// Current cycle (issue time of the most recent instruction).
    cycle: u64,
    /// Issue slots already used in the current cycle.
    slots_used: u32,
    /// Earliest cycle at which a consumer of each register may issue.
    reg_ready: [u64; 32],
    mul_free: u64,
    div_free: u64,
}

impl MicroArch {
    /// Builds the timed core around a fresh functional core.
    pub fn new(program: Arc<Program>, config: MicroArchConfig) -> MicroArch {
        MicroArch {
            cpu: Cpu::new(program),
            config,
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            predictor: Predictor::new(config.predictor),
            cycle: 0,
            slots_used: 0,
            reg_ready: [0; 32],
            mul_free: 0,
            div_free: 0,
        }
    }

    /// Cycles elapsed so far (the current partially-filled issue group
    /// counts as one cycle).
    pub fn cycles(&self) -> u64 {
        self.cycle + u64::from(self.slots_used > 0)
    }

    /// The functional core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// I-cache counters (for characterization).
    pub fn icache_stats(&self) -> &CacheStats {
        self.icache.stats()
    }

    /// D-cache counters (for characterization).
    pub fn dcache_stats(&self) -> &CacheStats {
        self.dcache.stats()
    }

    /// Predictor counters (for characterization).
    pub fn predictor_stats(&self) -> &PredictorStats {
        self.predictor.stats()
    }

    /// Delivers a pending receive; the transfer itself costs one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the core is not awaiting a receive.
    pub fn complete_recv(&mut self, value: i32) {
        self.cycle += 1;
        self.cpu.complete_recv(value);
    }

    /// Completes a pending send; the transfer itself costs one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the core is not awaiting a send.
    pub fn complete_send(&mut self) {
        self.cycle += 1;
        self.cpu.complete_send();
    }

    /// Runs until halt, suspension, trap or fuel exhaustion.
    pub fn run(&mut self, mut fuel: u64) -> CpuExec {
        loop {
            if fuel == 0 {
                return CpuExec::OutOfFuel;
            }
            fuel -= 1;
            match self.cpu.step_info() {
                Step::Retired(info) => self.account(&info),
                Step::Stopped(exec) => return exec,
            }
        }
    }

    fn account(&mut self, info: &StepInfo) {
        // Claim an issue slot; a full group starts the next cycle.
        if self.slots_used >= self.config.issue_width.max(1) {
            self.cycle += 1;
            self.slots_used = 0;
        }

        // Instruction fetch through the i-cache (blocking).
        let fetch_addr = (info.pc as u32) * 4;
        if !self.icache.access(fetch_addr) {
            self.cycle += u64::from(self.config.miss_penalty);
            self.slots_used = 0;
        }

        // Operand stalls (full forwarding: reg_ready holds the earliest
        // issue cycle of a consumer). An in-order core cannot issue a
        // younger instruction past a stalled one, so a stall starts a new
        // issue group.
        let (srcs, dst) = inst_regs(&info.inst);
        for src in srcs.into_iter().flatten() {
            let ready = self.reg_ready[src.0 as usize];
            if ready > self.cycle {
                self.cycle = ready;
                self.slots_used = 0;
            }
        }

        // Structural hazards on long-latency units.
        let exec_latency: u64 = match info.inst {
            Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
                AluOp::Mul => {
                    if self.mul_free > self.cycle {
                        self.cycle = self.mul_free;
                        self.slots_used = 0;
                    }
                    self.mul_free = self.cycle + self.config.mul_latency;
                    self.config.mul_latency
                }
                AluOp::Div | AluOp::Rem => {
                    if self.div_free > self.cycle {
                        self.cycle = self.div_free;
                        self.slots_used = 0;
                    }
                    self.div_free = self.cycle + self.config.div_latency;
                    self.config.div_latency
                }
                _ => 1,
            },
            _ => 1,
        };

        // Data access through the d-cache (blocking).
        let mut result_latency = exec_latency;
        if let Some((addr, _is_store)) = info.mem {
            if !self.dcache.access(addr) {
                self.cycle += u64::from(self.config.miss_penalty);
                self.slots_used = 0;
            }
            result_latency = self.config.load_latency;
        }

        // Branch resolution.
        if let Some(taken) = info.taken {
            let correct = self.predictor.predict_and_update(info.pc, info.next_pc, taken);
            if !correct {
                self.cycle += u64::from(self.config.branch_penalty);
                self.slots_used = 0;
            } else if taken {
                // A correctly-predicted taken branch still ends the group
                // (the fetch redirects).
                self.slots_used = self.config.issue_width;
            }
        }
        self.slots_used += 1;

        // Publish the result time.
        if let Some(rd) = dst {
            if rd != Reg::ZERO {
                self.reg_ready[rd.0 as usize] = self.cycle + result_latency;
            }
        }
    }
}

/// Source and destination registers of an instruction.
fn inst_regs(inst: &Inst) -> ([Option<Reg>; 3], Option<Reg>) {
    match *inst {
        Inst::Alu { rd, rs1, rs2, .. } => ([Some(rs1), Some(rs2), None], Some(rd)),
        Inst::AluI { rd, rs1, .. } => ([Some(rs1), None, None], Some(rd)),
        Inst::Lw { rd, base, .. } => ([Some(base), None, None], Some(rd)),
        Inst::Sw { rs, base, .. } => ([Some(rs), Some(base), None], None),
        Inst::Lwx { rd, base, index } => ([Some(base), Some(index), None], Some(rd)),
        Inst::Swx { rs, base, index } => ([Some(rs), Some(base), Some(index)], None),
        Inst::Branch { rs1, rs2, .. } => ([Some(rs1), Some(rs2), None], None),
        Inst::Jump { .. } => ([None; 3], None),
        Inst::Jal { .. } => ([None; 3], Some(Reg::RA)),
        Inst::Jr { rs } => ([Some(rs), None, None], None),
        Inst::CRecv { rd, .. } => ([None; 3], Some(rd)),
        Inst::CSend { rs, .. } => ([Some(rs), None, None], None),
        Inst::Out { rs } => ([Some(rs), None, None], None),
        Inst::Halt => ([None; 3], None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build_program;

    fn board_for(src: &str, icache: u32, dcache: u32) -> MicroArch {
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let id = module.function_id("main").expect("main");
        let program = Arc::new(build_program(&module, id, &[]).expect("compiles"));
        MicroArch::new(program, MicroArchConfig::microblaze_like(icache, dcache))
    }

    const WORK: &str = "int t[512];
        void main() {
            for (int i = 0; i < 512; i++) { t[i] = i * 7 + 3; }
            int s = 0;
            for (int i = 0; i < 512; i++) { s += t[i] >> 1; }
            out(s);
        }";

    #[test]
    fn cycles_at_least_instructions() {
        let mut board = board_for(WORK, 8 << 10, 4 << 10);
        assert_eq!(board.run(u64::MAX), CpuExec::Done);
        assert!(board.cycles() >= board.cpu().stats().instructions);
    }

    #[test]
    fn cache_size_sweep_is_monotone() {
        let mut cycles = Vec::new();
        for (ic, dc) in [(0, 0), (2 << 10, 2 << 10), (8 << 10, 4 << 10), (32 << 10, 16 << 10)] {
            let mut board = board_for(WORK, ic, dc);
            board.run(u64::MAX);
            cycles.push(board.cycles());
        }
        for pair in cycles.windows(2) {
            assert!(pair[0] >= pair[1], "more cache never hurts here: {cycles:?}");
        }
        assert!(cycles[0] > cycles[3] * 2, "cacheless should be dramatically slower: {cycles:?}");
    }

    #[test]
    fn dependent_multiplies_pay_latency() {
        let chain = "void main() {
            int a = 3;
            for (int i = 0; i < 1000; i++) { a = a * a + 1; }
            out(a);
        }";
        let loop_only = "void main() {
            int a = 3;
            for (int i = 0; i < 1000; i++) { a = a + 1; }
            out(a);
        }";
        let mut with_mul = board_for(chain, 32 << 10, 16 << 10);
        with_mul.run(u64::MAX);
        let mut without = board_for(loop_only, 32 << 10, 16 << 10);
        without.run(u64::MAX);
        // 1000 multiplies at ~3 cycles each must show up.
        assert!(with_mul.cycles() > without.cycles() + 1500);
    }

    #[test]
    fn predictor_stats_are_collected() {
        let mut board = board_for(WORK, 8 << 10, 4 << 10);
        board.run(u64::MAX);
        let stats = board.predictor_stats();
        assert!(stats.branches >= 1024);
        // Loop-closing backward branches are predicted well by BTFN.
        assert!(stats.miss_rate() < 0.2, "rate {}", stats.miss_rate());
    }

    #[test]
    fn cache_stats_reflect_locality() {
        let mut board = board_for(WORK, 8 << 10, 4 << 10);
        board.run(u64::MAX);
        assert!(board.icache_stats().hit_rate() > 0.95, "tiny loop body");
        assert!(board.dcache_stats().hit_rate() > 0.5, "sequential sweep");
    }

    #[test]
    fn functional_behaviour_is_untouched() {
        let mut board = board_for(WORK, 2 << 10, 2 << 10);
        board.run(u64::MAX);
        let expect: i64 = (0..512).map(|i| (i * 7 + 3) >> 1).sum();
        assert_eq!(board.cpu().outputs(), [expect]);
    }

    #[test]
    fn dual_issue_speeds_up_independent_work_only() {
        let ilp = "void main() {
            int a = 0; int b = 0; int c = 0; int d = 0;
            for (int i = 0; i < 500; i++) {
                a += i; b ^= i; c += 2; d ^= 3;
            }
            out(a + b + c + d);
        }";
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(ilp).expect("parses")).expect("lowers");
        let id = module.function_id("main").expect("main");
        let program = Arc::new(build_program(&module, id, &[]).expect("compiles"));
        let run = |width: u32| {
            let mut config = MicroArchConfig::microblaze_like(32 << 10, 16 << 10);
            config.issue_width = width;
            let mut board = MicroArch::new(program.clone(), config);
            assert_eq!(board.run(u64::MAX), CpuExec::Done);
            board.cycles()
        };
        let scalar = run(1);
        let dual = run(2);
        assert!(
            dual * 4 <= scalar * 3,
            "dual-issue should save >25% on ILP code: {dual} vs {scalar}"
        );
        assert!(dual * 2 >= scalar, "cannot beat the 2x issue bound");

        // A fully serial dependence chain gains almost nothing from issue
        // width (no loop: loop control itself would be parallel work).
        let mut serial = String::from("void main() { int a = 1;\n");
        for _ in 0..200 {
            serial.push_str("a = a * 3 + 1;\n");
        }
        serial.push_str("out(a); }");
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(&serial).expect("parses")).expect("lowers");
        let id = module.function_id("main").expect("main");
        let program = Arc::new(build_program(&module, id, &[]).expect("compiles"));
        let run = |width: u32| {
            let mut config = MicroArchConfig::microblaze_like(32 << 10, 16 << 10);
            config.issue_width = width;
            let mut board = MicroArch::new(program.clone(), config);
            board.run(u64::MAX);
            board.cycles()
        };
        let scalar = run(1);
        let dual = run(2);
        assert!(dual * 10 >= scalar * 9, "serial chain gains <10%: {dual} vs {scalar}");
    }
}
