//! Full-platform cycle-accurate co-simulation: the board model.
//!
//! Structure mirrors the timed TLM (`tlm-platform`): every process runs on
//! the `tlm-desim` kernel and synchronizes at transaction boundaries. The
//! difference is fidelity — between boundaries each process executes on a
//! cycle-accurate engine ([`crate::engine`]), so the cycles applied to PE
//! clocks are *measured*, not estimated. Bus transfers reserve the shared
//! [`BusClock`], which serializes contending bursts back to back.
//!
//! [`run_board`] is the ground truth of Tables 2/3; [`run_iss`] swaps in
//! the coarse vendor-ISS timing and, like the paper, refuses designs with
//! custom hardware ("fast cycle accurate C models were unavailable for
//! custom HW components").

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use tlm_cdfg::ChanId;
use tlm_desim::{Ctx, Fifo, Kernel, Process, Resume, RunReport, SimTime};
use tlm_platform::clock::{BusClock, PeClock, SharedBus, SharedPe};
use tlm_platform::desc::Platform;

use crate::engine::{
    is_custom_hw, CoarseIssEngine, Engine, EngineCounters, EngineError, EngineExec, HwEngine,
    MicroArchEngine,
};

/// Board/ISS run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardConfig {
    /// Simulated-time limit; `None` runs to completion.
    pub time_limit: Option<SimTime>,
    /// Engine steps per kernel resumption.
    pub fuel_slice: u64,
}

impl Default for BoardConfig {
    fn default() -> Self {
        BoardConfig { time_limit: None, fuel_slice: 4_000_000 }
    }
}

/// Per-process result of a board run.
#[derive(Debug, Clone, Default)]
pub struct BoardProcessReport {
    /// Observable outputs.
    pub outputs: Vec<i64>,
    /// Measured compute cycles applied for this process.
    pub cycles: u64,
    /// Measured counters.
    pub counters: EngineCounters,
    /// Whether the process completed.
    pub finished: bool,
    /// Trap message, if any.
    pub trap: Option<String>,
}

/// Result of a board or ISS run.
#[derive(Debug, Clone)]
pub struct BoardReport {
    /// Final simulated time.
    pub end_time: SimTime,
    /// Kernel statistics.
    pub sim: RunReport,
    /// Outputs per process.
    pub outputs: BTreeMap<String, Vec<i64>>,
    /// Per-process details.
    pub processes: BTreeMap<String, BoardProcessReport>,
    /// Per-PE `(name, measured busy cycles)`.
    pub pe_cycles: Vec<(String, u64)>,
    /// Per-PE aggregated counters (summed over its processes).
    pub pe_counters: Vec<(String, EngineCounters)>,
    /// Wall-clock cost of the simulation.
    pub wall: Duration,
}

impl BoardReport {
    /// Total measured cycles across all PEs — the headline number compared
    /// against the TLM estimate in Tables 2/3.
    pub fn total_cycles(&self) -> u64 {
        self.pe_cycles.iter().map(|&(_, c)| c).sum()
    }

    /// Whether every process finished.
    pub fn all_finished(&self) -> bool {
        self.processes.values().all(|p| p.finished)
    }
}

/// Which engine family a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    CycleAccurate,
    CoarseIss,
}

/// Runs the cycle-accurate board model.
///
/// # Errors
///
/// Propagates engine construction failures (code generation, scheduling).
pub fn run_board(platform: &Platform, config: &BoardConfig) -> Result<BoardReport, EngineError> {
    run_with(platform, config, EngineKind::CycleAccurate)
}

/// Runs the coarse vendor-style ISS model.
///
/// # Errors
///
/// Fails with [`EngineError::Unsupported`] if the platform contains custom
/// hardware (no ISS models exist for it, as in the paper), and propagates
/// engine construction failures.
pub fn run_iss(platform: &Platform, config: &BoardConfig) -> Result<BoardReport, EngineError> {
    run_with(platform, config, EngineKind::CoarseIss)
}

fn run_with(
    platform: &Platform,
    config: &BoardConfig,
    kind: EngineKind,
) -> Result<BoardReport, EngineError> {
    let mut kernel = Kernel::new();
    let pe_clocks: Vec<SharedPe> = platform
        .pes
        .iter()
        .map(|pe| PeClock::new(SimTime::from_ps(pe.pum.clock_period_ps), pe.rtos))
        .collect();
    let bus_clocks: Vec<SharedBus> = platform
        .buses
        .iter()
        .map(|bus| BusClock::new(bus.period, bus.sync_overhead, bus.cycles_per_word))
        .collect();

    let mut fifos: HashMap<ChanId, Fifo<i64>> = HashMap::new();
    for (&chan, binding) in &platform.channels {
        fifos.insert(chan, Fifo::new(&mut kernel, format!("{chan}"), Some(binding.capacity)));
    }

    let mut outcomes = Vec::new();
    for (index, proc) in platform.processes.iter().enumerate() {
        let pum = &platform.pes[proc.pe.0].pum;
        let engine: Box<dyn Engine> = match (kind, is_custom_hw(pum)) {
            (EngineKind::CycleAccurate, false) => {
                Box::new(MicroArchEngine::build(&proc.module, proc.entry, &proc.args, pum)?)
            }
            (EngineKind::CycleAccurate, true) => {
                Box::new(HwEngine::build(&proc.module, proc.entry, &proc.args, pum)?)
            }
            (EngineKind::CoarseIss, false) => {
                Box::new(CoarseIssEngine::build(&proc.module, proc.entry, &proc.args, pum)?)
            }
            (EngineKind::CoarseIss, true) => {
                return Err(EngineError::Unsupported {
                    message: format!(
                        "no ISS model exists for custom HW PE `{}` (design `{}`)",
                        platform.pes[proc.pe.0].name, platform.name
                    ),
                })
            }
        };
        let outcome = Rc::new(RefCell::new(BoardProcessReport::default()));
        outcomes.push(outcome.clone());
        let chans: HashMap<u32, BoardChan> = platform
            .channels
            .iter()
            .map(|(&chan, binding)| {
                (
                    chan.0,
                    BoardChan {
                        fifo: fifos[&chan].clone(),
                        bus: binding.bus.map(|b| bus_clocks[b.0].clone()),
                    },
                )
            })
            .collect();
        kernel.spawn(
            proc.name.clone(),
            BoardProcess {
                index,
                engine,
                applied: 0,
                pe: pe_clocks[proc.pe.0].clone(),
                chans,
                fuel_slice: config.fuel_slice.max(1),
                phase: Phase::Run,
                outcome,
            },
        );
    }

    let wall_start = Instant::now();
    let sim = match config.time_limit {
        Some(limit) => kernel.run_until(limit),
        None => kernel.run(),
    };
    let wall = wall_start.elapsed();

    let mut outputs = BTreeMap::new();
    let mut processes = BTreeMap::new();
    let mut pe_counter_acc: Vec<EngineCounters> =
        vec![EngineCounters::default(); platform.pes.len()];
    for (proc, outcome) in platform.processes.iter().zip(&outcomes) {
        let report = outcome.borrow().clone();
        let acc = &mut pe_counter_acc[proc.pe.0];
        let c = report.counters;
        acc.instructions += c.instructions;
        acc.ifetches += c.ifetches;
        acc.imisses += c.imisses;
        acc.daccesses += c.daccesses;
        acc.dmisses += c.dmisses;
        acc.branches += c.branches;
        acc.mispredicts += c.mispredicts;
        outputs.insert(proc.name.clone(), report.outputs.clone());
        processes.insert(proc.name.clone(), report);
    }
    let pe_cycles = platform
        .pes
        .iter()
        .zip(&pe_clocks)
        .map(|(pe, clock)| (pe.name.clone(), clock.borrow().busy_cycles()))
        .collect();
    let pe_counters =
        platform.pes.iter().zip(pe_counter_acc).map(|(pe, acc)| (pe.name.clone(), acc)).collect();

    Ok(BoardReport {
        end_time: kernel.time(),
        sim,
        outputs,
        processes,
        pe_cycles,
        pe_counters,
        wall,
    })
}

struct BoardChan {
    fifo: Fifo<i64>,
    bus: Option<SharedBus>,
}

#[derive(Debug, Clone, Copy)]
enum After {
    Recv(u32),
    Send(u32, i64),
    Finish,
}

enum Phase {
    Run,
    Wait { until: SimTime, after: After },
    BlockedRecv(u32),
    BlockedSend(u32, i64),
    Done,
}

struct BoardProcess {
    index: usize,
    engine: Box<dyn Engine>,
    /// Engine cycles already applied to the PE clock.
    applied: u64,
    pe: SharedPe,
    chans: HashMap<u32, BoardChan>,
    fuel_slice: u64,
    phase: Phase,
    outcome: Rc<RefCell<BoardProcessReport>>,
}

impl BoardProcess {
    /// Applies measured elapsed cycles to the PE and any transfer cost to
    /// the bus; returns when the transaction may proceed.
    fn boundary(&mut self, now: SimTime, transfer: Option<u32>) -> SimTime {
        let elapsed = self.engine.cycles() - self.applied;
        let mut at = now;
        if elapsed > 0 {
            at = self.pe.borrow_mut().reserve(at, self.index, elapsed);
            self.applied = self.engine.cycles();
            self.outcome.borrow_mut().cycles += elapsed;
        }
        if let Some(chan) = transfer {
            let handle = &self.chans[&chan];
            at = match &handle.bus {
                Some(bus) => bus.borrow_mut().reserve(at, 1),
                None => self.pe.borrow_mut().reserve(at, self.index, Platform::LOCAL_SYNC_CYCLES),
            };
        }
        at
    }

    fn finish(&mut self, trap: Option<String>) {
        let mut outcome = self.outcome.borrow_mut();
        outcome.outputs = self.engine.outputs();
        outcome.counters = self.engine.counters();
        outcome.finished = trap.is_none();
        outcome.trap = trap;
        self.phase = Phase::Done;
    }
}

impl Process for BoardProcess {
    fn resume(&mut self, ctx: &mut Ctx<'_>) -> Resume {
        loop {
            match self.phase {
                Phase::Done => return Resume::Finish,
                Phase::Wait { until, after } => {
                    let now = ctx.time();
                    if now < until {
                        return Resume::WaitTime(until - now);
                    }
                    self.phase = match after {
                        After::Recv(ch) => Phase::BlockedRecv(ch),
                        After::Send(ch, v) => Phase::BlockedSend(ch, v),
                        After::Finish => {
                            self.finish(None);
                            continue;
                        }
                    };
                }
                Phase::BlockedRecv(ch) => {
                    let fifo = self.chans[&ch].fifo.clone();
                    match fifo.try_recv(ctx) {
                        Some(v) => {
                            self.engine.complete_recv(v);
                            self.phase = Phase::Run;
                        }
                        None => return Resume::WaitEvent(fifo.readable_event()),
                    }
                }
                Phase::BlockedSend(ch, v) => {
                    let fifo = self.chans[&ch].fifo.clone();
                    match fifo.try_send(ctx, v) {
                        Ok(()) => {
                            self.engine.complete_send();
                            self.phase = Phase::Run;
                        }
                        Err(_) => return Resume::WaitEvent(fifo.writable_event()),
                    }
                }
                Phase::Run => {
                    let exec = self.engine.run(self.fuel_slice);
                    let now = ctx.time();
                    match exec {
                        EngineExec::Done => {
                            let until = self.boundary(now, None);
                            if until > now {
                                self.phase = Phase::Wait { until, after: After::Finish };
                            } else {
                                self.finish(None);
                            }
                        }
                        EngineExec::RecvPending(ch) => {
                            let until = self.boundary(now, None);
                            self.phase = if until > now {
                                Phase::Wait { until, after: After::Recv(ch) }
                            } else {
                                Phase::BlockedRecv(ch)
                            };
                        }
                        EngineExec::SendPending(ch, v) => {
                            let until = self.boundary(now, Some(ch));
                            self.phase = if until > now {
                                Phase::Wait { until, after: After::Send(ch, v) }
                            } else {
                                Phase::BlockedSend(ch, v)
                            };
                        }
                        EngineExec::Trap(t) => self.finish(Some(t)),
                        EngineExec::OutOfFuel => return Resume::WaitTime(SimTime::ZERO),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlm_core::library;
    use tlm_platform::desc::PlatformBuilder;
    use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig, TlmReport};

    fn timed_tlm(p: &Platform) -> TlmReport {
        run_annotated(p, Some(&annotate_platform(p).expect("annotates")), &TlmConfig::default())
    }

    fn module(src: &str) -> tlm_cdfg::ir::Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    fn two_pe_platform() -> Platform {
        let producer = module(
            "void main() {
                for (int i = 0; i < 24; i++) { ch_send(0, i * 5 - 7); }
             }",
        );
        let filter = module(
            "void main() {
                for (int i = 0; i < 24; i++) {
                    int v = ch_recv(0);
                    int acc = 0;
                    for (int k = 0; k < 8; k++) { acc += (v + k) * (v - k); }
                    ch_send(1, acc >> 3);
                }
             }",
        );
        let sink = module(
            "void main() {
                int s = 0;
                for (int i = 0; i < 24; i++) { s += ch_recv(1); }
                out(s);
             }",
        );
        let mut b = PlatformBuilder::new("two-pe");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        let hw = b.add_pe("hw", library::custom_hw("filter_hw", 2, 2));
        b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
        b.add_process("filter", &filter, "main", &[], hw).expect("ok");
        b.add_process("sink", &sink, "main", &[], cpu).expect("ok");
        b.build().expect("builds")
    }

    #[test]
    fn board_and_tlm_agree_functionally() {
        let p = two_pe_platform();
        let board = run_board(&p, &BoardConfig::default()).expect("board runs");
        let tlm = timed_tlm(&p);
        assert!(board.all_finished());
        assert_eq!(board.outputs["sink"], tlm.outputs["sink"]);
    }

    #[test]
    fn tlm_estimate_is_within_a_factor_of_the_board() {
        // The headline accuracy claim, coarse version: the cycle estimate
        // tracks the measurement within a small factor even before
        // characterization (Tables 2/3 tighten this with measured rates).
        let p = two_pe_platform();
        let board = run_board(&p, &BoardConfig::default()).expect("board runs");
        let tlm = timed_tlm(&p);
        let measured = board.total_cycles() as f64;
        let estimated: f64 = tlm.pe_busy.iter().map(|&(_, c)| c).sum::<u64>() as f64;
        assert!(measured > 0.0 && estimated > 0.0);
        let ratio = estimated / measured;
        assert!(
            (0.4..2.5).contains(&ratio),
            "estimate {estimated} vs measured {measured} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn board_is_deterministic() {
        let p = two_pe_platform();
        let a = run_board(&p, &BoardConfig::default()).expect("runs");
        let b = run_board(&p, &BoardConfig::default()).expect("runs");
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.pe_cycles, b.pe_cycles);
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn iss_refuses_custom_hardware() {
        let p = two_pe_platform();
        let err = run_iss(&p, &BoardConfig::default()).expect_err("HW present");
        assert!(matches!(err, EngineError::Unsupported { .. }));
    }

    #[test]
    fn iss_runs_software_only_designs() {
        let producer = module("void main() { for (int i = 0; i < 8; i++) { ch_send(0, i); } }");
        let sink = module(
            "void main() { int s = 0; for (int i = 0; i < 8; i++) { s += ch_recv(0); } out(s); }",
        );
        let mut b = PlatformBuilder::new("sw-only");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
        b.add_process("sink", &sink, "main", &[], cpu).expect("ok");
        let p = b.build().expect("builds");
        let iss = run_iss(&p, &BoardConfig::default()).expect("runs");
        let board = run_board(&p, &BoardConfig::default()).expect("runs");
        assert_eq!(iss.outputs["sink"], vec![28]);
        assert_eq!(iss.outputs, board.outputs);
        // Both produce nonzero but different cycle counts (different
        // timing fidelity).
        assert!(iss.total_cycles() > 0);
        assert!(board.total_cycles() > 0);
        assert_ne!(iss.total_cycles(), board.total_cycles());
    }

    #[test]
    fn measured_counters_are_aggregated_per_pe() {
        let p = two_pe_platform();
        let board = run_board(&p, &BoardConfig::default()).expect("runs");
        let cpu =
            board.pe_counters.iter().find(|(n, _)| n == "cpu").map(|(_, c)| *c).expect("cpu PE");
        assert!(cpu.ifetches > 0);
        assert!(cpu.branches > 0);
        let hw = board.pe_counters.iter().find(|(n, _)| n == "hw").map(|(_, c)| *c).expect("hw PE");
        assert_eq!(hw.ifetches, 0, "hardwired control fetches nothing");
    }

    #[test]
    fn time_limit_is_honoured() {
        let spin = module("void main() { while (1) { ch_send(0, 1); } }");
        let sink = module("void main() { while (1) { int v = ch_recv(0); out(v); } }");
        let mut b = PlatformBuilder::new("spin");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        let hw = b.add_pe("hw", library::custom_hw("hw", 1, 1));
        b.add_process("spin", &spin, "main", &[], cpu).expect("ok");
        b.add_process("sink", &sink, "main", &[], hw).expect("ok");
        let p = b.build().expect("builds");
        let r = run_board(
            &p,
            &BoardConfig { time_limit: Some(SimTime::from_us(50)), ..Default::default() },
        )
        .expect("runs");
        assert_eq!(r.sim.stop, tlm_desim::StopReason::TimeLimit);
    }
}
