//! The coarse "vendor ISS" timing model of Table 2.
//!
//! The paper found that the MicroBlaze vendor ISS, although instruction-
//! accurate, "did not model memory access accurately enough" — its cycle
//! estimates were *worse* than the generated TLM's. This layer reproduces
//! that baseline honestly: per-instruction base costs are right, but the
//! memory system is modelled by a fixed assumed hit-rate curve and a wrong
//! (optimistic) memory latency instead of simulating caches.

use crate::cpu::{Cpu, CpuExec, Step, StepInfo};
use crate::isa::{AluOp, Inst};

/// Configuration of the coarse timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssTimingConfig {
    /// The latency the vendor model *assumes* for external memory
    /// (optimistically wrong; the board's real latency is higher).
    pub assumed_mem_latency: u32,
    /// Configured i-cache size (bytes; 0 = none).
    pub icache_bytes: u32,
    /// Configured d-cache size (bytes; 0 = none).
    pub dcache_bytes: u32,
    /// Cycles charged for a taken control transfer.
    pub taken_branch_cost: u32,
}

impl IssTimingConfig {
    /// The vendor-style defaults for a given cache configuration.
    pub fn for_caches(icache_bytes: u32, dcache_bytes: u32) -> IssTimingConfig {
        IssTimingConfig { assumed_mem_latency: 8, icache_bytes, dcache_bytes, taken_branch_cost: 2 }
    }

    /// The fixed hit rate the vendor model assumes for a cache of `size`
    /// bytes — a generic curve applied regardless of the application, which
    /// is exactly why this model loses to characterized TLM estimates.
    pub fn assumed_hit_rate(size: u32) -> f64 {
        if size == 0 {
            0.0
        } else {
            let kib = f64::from(size) / 1024.0;
            (0.93 + 0.012 * kib.log2()).clamp(0.0, 0.995)
        }
    }
}

/// The coarse instruction-set simulator: functional core + approximate
/// per-instruction timing.
#[derive(Debug, Clone)]
pub struct IssSim {
    cpu: Cpu,
    config: IssTimingConfig,
    cycles: f64,
}

impl IssSim {
    /// Wraps a functional core with the coarse timing model.
    pub fn new(cpu: Cpu, config: IssTimingConfig) -> IssSim {
        IssSim { cpu, config, cycles: 0.0 }
    }

    /// Estimated cycles so far (rounded).
    pub fn cycles(&self) -> u64 {
        self.cycles.round() as u64
    }

    /// The wrapped core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Runs until halt, suspension, trap or fuel exhaustion, accumulating
    /// the coarse cycle estimate.
    pub fn run(&mut self, mut fuel: u64) -> CpuExec {
        let ihit = IssTimingConfig::assumed_hit_rate(self.config.icache_bytes);
        let dhit = IssTimingConfig::assumed_hit_rate(self.config.dcache_bytes);
        let mem_lat = f64::from(self.config.assumed_mem_latency);
        let fetch_cost = (1.0 - ihit) * mem_lat;
        let data_cost = (1.0 - dhit) * mem_lat;
        loop {
            if fuel == 0 {
                return CpuExec::OutOfFuel;
            }
            fuel -= 1;
            match self.cpu.step_info() {
                Step::Retired(info) => {
                    self.cycles += f64::from(base_cost(&info, self.config.taken_branch_cost));
                    self.cycles += fetch_cost;
                    if info.mem.is_some() {
                        self.cycles += data_cost;
                    }
                }
                Step::Stopped(exec) => return exec,
            }
        }
    }

    /// Delivers a pending receive (counts one transfer cycle).
    ///
    /// # Panics
    ///
    /// Panics if the core is not awaiting a receive.
    pub fn complete_recv(&mut self, value: i32) {
        self.cycles += 1.0;
        self.cpu.complete_recv(value);
    }

    /// Completes a pending send (counts one transfer cycle).
    ///
    /// # Panics
    ///
    /// Panics if the core is not awaiting a send.
    pub fn complete_send(&mut self) {
        self.cycles += 1.0;
        self.cpu.complete_send();
    }
}

/// Base per-instruction cost, matching the PE's documented latencies.
fn base_cost(info: &StepInfo, taken_branch_cost: u32) -> u32 {
    match info.inst {
        Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 32,
            _ => 1,
        },
        Inst::Branch { .. } if info.taken == Some(true) => taken_branch_cost,
        Inst::Jump { .. } | Inst::Jal { .. } | Inst::Jr { .. } => 1,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build_program;
    use std::sync::Arc;

    fn sim_for(src: &str, icache: u32, dcache: u32) -> IssSim {
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let id = module.function_id("main").expect("main");
        let cpu = Cpu::new(Arc::new(build_program(&module, id, &[]).expect("compiles")));
        IssSim::new(cpu, IssTimingConfig::for_caches(icache, dcache))
    }

    const LOOP: &str = "int t[256];
        void main() {
            for (int i = 0; i < 256; i++) { t[i] = i * 3; }
            int s = 0;
            for (int i = 0; i < 256; i++) { s += t[i]; }
            out(s);
        }";

    #[test]
    fn functional_result_is_unchanged() {
        let mut sim = sim_for(LOOP, 8 << 10, 4 << 10);
        assert_eq!(sim.run(u64::MAX), CpuExec::Done);
        let expect: i64 = (0..256).map(|i| i * 3).sum();
        assert_eq!(sim.cpu().outputs(), [expect]);
    }

    #[test]
    fn cycles_exceed_instruction_count() {
        let mut sim = sim_for(LOOP, 8 << 10, 4 << 10);
        sim.run(u64::MAX);
        assert!(sim.cycles() >= sim.cpu().stats().instructions);
    }

    #[test]
    fn cacheless_config_is_much_slower() {
        let mut cached = sim_for(LOOP, 8 << 10, 4 << 10);
        cached.run(u64::MAX);
        let mut bare = sim_for(LOOP, 0, 0);
        bare.run(u64::MAX);
        assert!(
            bare.cycles() > cached.cycles() * 3,
            "bare {} vs cached {}",
            bare.cycles(),
            cached.cycles()
        );
    }

    #[test]
    fn assumed_curve_is_monotone_and_bounded() {
        assert_eq!(IssTimingConfig::assumed_hit_rate(0), 0.0);
        let mut last = 0.0;
        for kb in [1u32, 2, 8, 32, 128] {
            let r = IssTimingConfig::assumed_hit_rate(kb << 10);
            assert!(r >= last && r <= 0.995);
            last = r;
        }
    }
}
