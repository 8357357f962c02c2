//! Interpreter fidelity: pinned fingerprints of everything the CDFG
//! interpreter lets an observer see.
//!
//! A fingerprint folds, in order, every [`ExecHook`] callback (`on_block`
//! ids, `on_mem` byte address and store flag, `on_branch` ids and outcome)
//! followed by the final [`ExecStats`] and the output stream. The values
//! below were recorded with the original IR-walking interpreter; the
//! pre-decoded interpreter must reproduce them exactly, so they are the
//! differential reference for any change to `tlm_cdfg::interp`. They also
//! guard its fused forms (`Const; Mul` and a loop header's
//! `Const; Lt; Branch`, each one dispatch): the kernels run under every
//! fuel slice from 1 to 8, so a budget runs out at every offset of a 2- and
//! 3-slot form and the split form behind it must finish the sequence with
//! the same callbacks and counters.
//!
//! Multi-process designs are run process by process under a small
//! round-robin driver with unbounded channels. Each process is a
//! deterministic function of the values it receives (Kahn semantics), so
//! its fingerprint does not depend on the interleaving the driver picks.
//! The four MP3 designs share their process sources and differ only in the
//! PE mapping, which the interpreter never sees, so their fingerprints
//! agree; the same holds for the two image designs.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use tlm_apps::designs::{mp3_design, Mp3Design, Mp3Params};
use tlm_apps::imagepipe::{image_design, ImageParams};
use tlm_apps::kernels;
use tlm_cdfg::interp::{Exec, ExecHook, ExecStats, Machine, Trap};
use tlm_cdfg::ir::Module;
use tlm_cdfg::{BlockId, ChanId, FuncId};
use tlm_core::annotate::annotate_uncached;
use tlm_pipeline::{Pipeline, PreparedDesign};
use tlm_platform::desc::Platform;
use tlm_platform::tlm::{run_annotated, TlmConfig};

/// Folds 64-bit words into a running hash (splitmix64 finalizer per word).
#[derive(Debug, Clone, Copy)]
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0x9e37_79b9_7f4a_7c15)
    }

    fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn stats(&mut self, s: &ExecStats) {
        for w in [s.ops, s.blocks, s.branches, s.branches_taken, s.mem_accesses, s.calls] {
            self.word(w);
        }
    }

    fn outputs(&mut self, outs: &[i64]) {
        self.word(outs.len() as u64);
        for &v in outs {
            self.word(v as u64);
        }
    }
}

/// Records every callback, plus the blocks entered (for the timed-TLM
/// cross-check).
struct Recorder {
    fold: Fold,
    blocks: HashMap<(FuncId, BlockId), u64>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { fold: Fold::new(), blocks: HashMap::new() }
    }
}

impl ExecHook for Recorder {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        self.fold.word(1);
        self.fold.word(u64::from(func.0) << 32 | u64::from(block.0));
        *self.blocks.entry((func, block)).or_insert(0) += 1;
    }

    fn on_mem(&mut self, addr: u32, is_store: bool) {
        self.fold.word(2);
        self.fold.word(u64::from(addr) << 1 | u64::from(is_store));
    }

    fn on_branch(&mut self, func: FuncId, block: BlockId, taken: bool) {
        self.fold.word(3);
        self.fold.word(u64::from(func.0) << 33 | u64::from(block.0) << 1 | u64::from(taken));
    }
}

/// The fingerprint of a finished (or trapped) machine run by `hook`.
fn seal(mut hook: Recorder, machine: &Machine) -> u64 {
    hook.fold.stats(machine.stats());
    hook.fold.outputs(machine.outputs());
    hook.fold.0
}

/// Runs a single-process module to completion, `fuel` operations per
/// `run_fuel` call (`None` = one `run` call).
fn fingerprint_module(module: &Module, fuel: Option<u64>) -> u64 {
    let main = module.function_id("main").expect("main");
    let mut machine = Machine::new(module, main, &[]);
    let mut hook = Recorder::new();
    let exec = match fuel {
        None => machine.run(&mut hook),
        Some(fuel) => loop {
            match machine.run_fuel(&mut hook, fuel) {
                Exec::OutOfFuel => {}
                other => break other,
            }
        },
    };
    assert_eq!(exec, Exec::Done);
    seal(hook, &machine)
}

struct ProcessRun {
    machine: Machine,
    hook: Recorder,
    done: bool,
}

/// Runs every process of `platform` under a round-robin driver with
/// unbounded channels, returning each process's recorder and machine.
fn run_platform(platform: &Platform) -> Vec<ProcessRun> {
    let mut procs: Vec<ProcessRun> = platform
        .processes
        .iter()
        .map(|p| ProcessRun {
            machine: Machine::from_arc(Arc::clone(&p.module), p.entry, &p.args),
            hook: Recorder::new(),
            done: false,
        })
        .collect();
    let mut chans: HashMap<ChanId, VecDeque<i64>> = HashMap::new();
    loop {
        let mut progressed = false;
        for p in procs.iter_mut().filter(|p| !p.done) {
            loop {
                match p.machine.run(&mut p.hook) {
                    Exec::Done => {
                        p.done = true;
                        progressed = true;
                        break;
                    }
                    Exec::SendPending(chan, value) => {
                        chans.entry(chan).or_default().push_back(value);
                        p.machine.complete_send();
                        progressed = true;
                    }
                    Exec::RecvPending(chan) => {
                        match chans.get_mut(&chan).and_then(VecDeque::pop_front) {
                            Some(v) => {
                                p.machine.complete_recv(v);
                                progressed = true;
                            }
                            None => break,
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        if procs.iter().all(|p| p.done) {
            return procs;
        }
        assert!(progressed, "design deadlocked under the round-robin driver");
    }
}

fn fingerprint_platform(procs: Vec<ProcessRun>) -> u64 {
    let mut fold = Fold::new();
    for p in procs {
        fold.word(seal(p.hook, &p.machine));
    }
    fold.0
}

/// The timed TLM sees the same executions as `run_platform`:
/// per-process counters and outputs agree, and the cycles each process
/// applied are the annotated delays of exactly the blocks its interpreter
/// entered, read from an uncached annotation.
fn assert_timed_tlm_sees_the_same_runs(
    pipeline: &Pipeline,
    prepared: &PreparedDesign,
    procs: &[ProcessRun],
    label: &str,
) {
    let platform = &prepared.platform;
    let annotated = pipeline.annotate_design(prepared).expect("annotates");
    let report = run_annotated(platform, Some(&annotated), &TlmConfig::default());
    for (spec, p) in platform.processes.iter().zip(procs) {
        let timed =
            annotate_uncached(&spec.module, &platform.pes[spec.pe.0].pum).expect("annotates");
        let tlm = &report.processes[&spec.name];
        assert_eq!(tlm.stats, *p.machine.stats(), "{label} {}", spec.name);
        assert_eq!(tlm.outputs, p.machine.outputs(), "{label} {}", spec.name);
        let expected: u64 =
            p.hook.blocks.iter().map(|(&(f, b), &n)| n * timed.delay(f, b).cycles).sum();
        assert_eq!(tlm.computed_cycles, expected, "{label} {}", spec.name);
    }
}

const MP3_CACHES: (u32, u32) = (8 << 10, 4 << 10);

/// One frame of the evaluation bitstream keeps the debug-build test quick.
fn mp3_params() -> Mp3Params {
    Mp3Params { frames: 1, ..Mp3Params::evaluation() }
}

/// Compares fingerprints against their pins, listing every mismatch.
fn check_pins(got: &[(String, u64)], pins: &[u64]) {
    assert_eq!(got.len(), pins.len(), "one pin per case");
    let wrong: Vec<String> = got
        .iter()
        .zip(pins)
        .filter(|((_, g), p)| g != *p)
        .map(|((label, g), p)| format!("{label}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "fingerprints moved:\n{}", wrong.join("\n"));
}

#[test]
fn mp3_designs_match_pinned_fingerprints() {
    let pipeline = Pipeline::new();
    let mut got = Vec::new();
    for design in Mp3Design::ALL {
        let prepared = mp3_design(&pipeline, design, mp3_params(), MP3_CACHES.0, MP3_CACHES.1)
            .expect("builds");
        let procs = run_platform(&prepared.platform);
        assert_timed_tlm_sees_the_same_runs(&pipeline, &prepared, &procs, &design.to_string());
        got.push((design.to_string(), fingerprint_platform(procs)));
    }
    check_pins(&got, &[PIN_MP3; 4]);
}

#[test]
fn image_designs_match_pinned_fingerprints() {
    let pipeline = Pipeline::new();
    let mut got = Vec::new();
    for accelerated in [false, true] {
        let prepared = image_design(&pipeline, accelerated, ImageParams::small(), 8 << 10, 4 << 10)
            .expect("builds");
        let label = if accelerated { "image:hw" } else { "image:sw" };
        let procs = run_platform(&prepared.platform);
        assert_timed_tlm_sees_the_same_runs(&pipeline, &prepared, &procs, label);
        got.push((label.to_string(), fingerprint_platform(procs)));
    }
    check_pins(&got, &[PIN_IMAGE_SW, PIN_IMAGE_HW]);
}

#[test]
fn kernels_match_pinned_fingerprints_under_any_fuel_slicing() {
    let mut got = Vec::new();
    for kernel in kernels::suite() {
        let artifact = Pipeline::global().frontend(&kernel.source).expect("compiles");
        let module = artifact.module();
        let whole = fingerprint_module(module, None);
        for fuel in (1..=8).chain([64]) {
            let sliced = fingerprint_module(module, Some(fuel));
            assert_eq!(sliced, whole, "{} at fuel {fuel}", kernel.name);
        }
        got.push((kernel.name.to_string(), whole));
    }
    check_pins(&got, &[PIN_FIR64, PIN_MATMUL16, PIN_QUICKSORT128, PIN_CRC32, PIN_DCT8X8]);
}

/// Runs `main(3)` of an unoptimized module, `fuel` operations at a time,
/// until it traps.
fn trap_of(src: &str, fuel: u64) -> (Trap, ExecStats) {
    let module = tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
    let main = module.function_id("main").expect("main");
    let mut machine = Machine::new(&module, main, &[3]);
    loop {
        match machine.run_fuel(&mut Recorder::new(), fuel) {
            Exec::OutOfFuel => {}
            Exec::Trap(trap) => return (trap, *machine.stats()),
            other => panic!("expected a trap, got {other:?}"),
        }
    }
}

/// The loop body reads `t[i]` between a load and a store of the same
/// block, so the trap lands mid-block.
const OOB_SRC: &str = "
    int t[4] = {3, 1, 4, 1};
    int main(int n) {
        int s = 0;
        for (int i = 0; i < n * 3; i++) {
            int a = t[0] + i;
            int b = t[i];
            t[1] = a + b;
            s += b;
        }
        return s;
    }";

/// The loop body divides between a store and another store.
const DIV_SRC: &str = "
    int t[2];
    int main(int k) {
        int s = 0;
        while (1) {
            t[0] = s;
            s += 100 / k;
            t[1] = s;
            k--;
        }
        return s;
    }";

#[test]
fn traps_leave_pinned_counters() {
    let cases = [
        (OOB_SRC, Trap::OutOfBounds { array: "t".into(), index: 4, len: 4 }, PIN_OOB),
        (DIV_SRC, Trap::DivByZero, PIN_DIV),
    ];
    for (src, expected, pin) in cases {
        let (trap, stats) = trap_of(src, u64::MAX);
        assert_eq!(trap, expected);
        assert_eq!((stats.ops, stats.mem_accesses), pin, "{trap}: {stats:?}");
        for fuel in [1, 5] {
            assert_eq!(trap_of(src, fuel), (trap.clone(), stats), "{trap} at fuel {fuel}");
        }
    }
}

// Recorded with the IR-walking interpreter the pre-decoded one replaced.
const PIN_MP3: u64 = 0x237c_c5d2_8bed_8231;
const PIN_IMAGE_SW: u64 = 0xcafe_9a9c_2297_481e;
const PIN_IMAGE_HW: u64 = 0xcafe_9a9c_2297_481e;
const PIN_FIR64: u64 = 0x1318_b832_1090_b4e2;
const PIN_MATMUL16: u64 = 0x2519_f47b_eadf_38f0;
const PIN_QUICKSORT128: u64 = 0x9ae0_4901_e6ca_df77;
const PIN_CRC32: u64 = 0xa351_2934_acbb_604a;
const PIN_DCT8X8: u64 = 0xfc76_cb67_682f_3e1d;
/// `(ops, mem_accesses)` left behind by each trap.
const PIN_OOB: (u64, u64) = (71, 13);
const PIN_DIV: (u64, u64) = (36, 7);
