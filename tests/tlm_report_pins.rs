//! Pins every field of the TLM's [`TlmReport`] except the host-dependent
//! `wall`, `threads`, `interp` and `stall`.
//!
//! Each pin is a 64-bit FNV-1a fingerprint, folded over one platform's runs
//! in one mode (functional or timed) across a matrix of configurations:
//! transaction granularity, interpreter fuel slice and wakeup order seed.
//! The fingerprint covers the end time, the kernel's run report (resumes,
//! deltas, events, stop reason), every process's outputs, computed cycles,
//! interpreter counters, completion and trap message, the PE busy cycles
//! and the bus transfers. Any change to how the TLM interprets, times or
//! orders its processes moves a pin; a change that only makes it faster
//! moves none.
//!
//! The platforms are the four MP3 designs (one training frame), both image
//! designs, the five kernels, a runaway model stopped by a time limit, a
//! model whose producer traps, and two channels with more than one process
//! on one side: two senders feeding one receiver, and one sender feeding
//! two receivers. On those two the value a receiver gets depends on the
//! simulated order of the transfers, so they are run under eight order
//! seeds. Two more platforms saturate the interpreter's lookahead: a
//! producer sends well over twice the 1024 steps a process may log ahead
//! of the kernel to a consumer that computes heavily per value, once on a
//! channel of its own and once on a channel another sender shares.
//!
//! On a mismatch the test prints the whole table as computed, in the
//! syntax of [`PINS`].

use tlm_apps::imagepipe::{build_image_platform, ImageParams};
use tlm_apps::{build_mp3_platform, kernels, Mp3Design, Mp3Params};
use tlm_desim::{SimTime, StopReason};
use tlm_pipeline::Pipeline;
use tlm_platform::desc::{Platform, PlatformBuilder};
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig, TlmReport};

const CACHES: (u32, u32) = (8 << 10, 4 << 10);
const GRANULARITIES: [u32; 3] = [1, 8, 64];
const FUEL_SLICES: [u64; 4] = [1, 7, 64, 16_000_000];
const ORDER_SEEDS: [Option<u64>; 5] = [None, Some(1), Some(2), Some(3), Some(4)];

/// `(platform, mode, fingerprint)`, recorded on the sequential TLM engine;
/// the `flood:*` pins were recorded later, on the first run-ahead engine
/// (fork-join phases), and the sequential engine computes the same four.
const PINS: &[(&str, &str, u64)] = &[
    ("crc32", "functional", 0x6ab5077c00cff023),
    ("crc32", "timed", 0x80b642c0399ef309),
    ("dct8x8", "functional", 0x12f799284e16ee85),
    ("dct8x8", "timed", 0xdaec7db2a96a7bf2),
    ("fan-in", "functional", 0x21e5b90feb51ae2f),
    ("fan-in", "timed", 0x05ff4063e2f5207f),
    ("fan-out", "functional", 0x764cc191ae441ebb),
    ("fan-out", "timed", 0x8bbd9e533b7969e3),
    ("flood:direct", "functional", 0x13008e7e48f824f2),
    ("flood:direct", "timed", 0xb31cb16f82148568),
    ("flood:fan-in", "functional", 0x0869285bfd0da3c4),
    ("flood:fan-in", "timed", 0x56ea5d3f98f8ee2f),
    ("fir64", "functional", 0xc486c869b4b5ab57),
    ("fir64", "timed", 0x7a98eab6bbc73565),
    ("image:hw", "functional", 0xd0987364cf4709ec),
    ("image:hw", "timed", 0x062235c73c820363),
    ("image:sw", "functional", 0x3a7f082609b08604),
    ("image:sw", "timed", 0x2e12e724a4bc9d53),
    ("matmul16", "functional", 0x1e3944decf9912e7),
    ("matmul16", "timed", 0xe150e0105b64a2a9),
    ("mp3:SW", "functional", 0xa4ae54e256e609c8),
    ("mp3:SW", "timed", 0x367e2fb7f04698ec),
    ("mp3:SW+1", "functional", 0x52e3f39c7811f93a),
    ("mp3:SW+1", "timed", 0x8b20a28e38f3d32e),
    ("mp3:SW+2", "functional", 0xa147ce8e289f4b26),
    ("mp3:SW+2", "timed", 0xadc95e6c4e767fd5),
    ("mp3:SW+4", "functional", 0x0bf0d76e5a95b498),
    ("mp3:SW+4", "timed", 0xeaac9c87797da6af),
    ("quicksort128", "functional", 0x44383cf471bdb363),
    ("quicksort128", "timed", 0x70dba3fd95da5895),
    ("runaway", "timed", 0xe4edcea6942221fa),
    ("trapping", "functional", 0x5226afe7b108e425),
    ("trapping", "timed", 0xf3e72f978ab55b73),
];

/// FNV-1a over a canonical encoding of a report.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64s(&mut self, vs: &[i64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Folds every field of `r` but the host-dependent `wall`, `threads`,
/// `interp` and `stall` into `h`.
fn fold_report(h: &mut Fnv, r: &TlmReport) {
    h.u64(r.end_time.ps());
    h.u64(r.sim.end_time.ps());
    h.u64(r.sim.resumes);
    h.u64(r.sim.deltas);
    h.u64(r.sim.events_fired);
    match &r.sim.stop {
        StopReason::Completed => h.u64(0),
        StopReason::Starved(names) => {
            h.u64(1);
            h.u64(names.len() as u64);
            names.iter().for_each(|n| h.str(n));
        }
        StopReason::TimeLimit => h.u64(2),
    }
    h.u64(r.outputs.len() as u64);
    for (name, outputs) in &r.outputs {
        h.str(name);
        h.i64s(outputs);
    }
    h.u64(r.processes.len() as u64);
    for (name, p) in &r.processes {
        h.str(name);
        h.i64s(&p.outputs);
        h.u64(p.computed_cycles);
        let s = &p.stats;
        for v in [s.ops, s.blocks, s.branches, s.branches_taken, s.mem_accesses, s.calls] {
            h.u64(v);
        }
        h.u64(u64::from(p.finished));
        match &p.trap {
            None => h.u64(0),
            Some(trap) => {
                h.u64(1);
                h.str(trap);
            }
        }
    }
    for (pe, busy) in &r.pe_busy {
        h.str(pe);
        h.u64(*busy);
    }
    for (bus, transfers) in &r.bus_transfers {
        h.str(bus);
        h.u64(*transfers);
    }
}

fn module(src: &str) -> tlm_cdfg::ir::Module {
    tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
}

fn image_platforms() -> Vec<(String, Platform)> {
    [false, true]
        .into_iter()
        .map(|hw| {
            let platform =
                build_image_platform(hw, ImageParams::small(), CACHES.0, CACHES.1).expect("builds");
            (format!("image:{}", if hw { "hw" } else { "sw" }), platform)
        })
        .collect()
}

/// Each kernel as a one-process platform on the pipelined CPU.
fn kernel_platforms() -> Vec<(String, Platform)> {
    kernels::suite()
        .into_iter()
        .map(|kernel| {
            let artifact = Pipeline::global().frontend(&kernel.source).expect("compiles");
            let mut b = PlatformBuilder::new(kernel.name);
            let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(CACHES.0, CACHES.1));
            b.add_process(kernel.name, artifact.module(), "main", &[], cpu).expect("maps");
            (kernel.name.to_string(), b.build().expect("builds"))
        })
        .collect()
}

/// A sender that never stops, feeding a sink that never stops.
fn runaway_platform() -> Platform {
    let spinner = module("void main() { while (1) { ch_send(0, 1); } }");
    let sink = module("void main() { while (1) { int v = ch_recv(0); out(v); } }");
    let mut b = PlatformBuilder::new("spin");
    let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(8 << 10, 4 << 10));
    let hw = b.add_pe("hw", tlm_core::library::custom_hw("hw", 1, 1));
    b.add_process("spinner", &spinner, "main", &[], cpu).expect("ok");
    b.add_process("sink", &sink, "main", &[], hw).expect("ok");
    b.build().expect("builds")
}

/// A producer that traps before it sends, starving its reader.
fn trapping_platform() -> Platform {
    let bad = module("void main() { int t[2]; out(t[5]); ch_send(0, 1); }");
    let reader = module("void main() { out(ch_recv(0)); }");
    let mut b = PlatformBuilder::new("trap");
    let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(0, 0));
    b.add_process("bad", &bad, "main", &[], cpu).expect("ok");
    b.add_process("reader", &reader, "main", &[], cpu).expect("ok");
    b.build().expect("builds")
}

/// A sender that computes `work` rounds between its `n` sends of
/// `base + i` on channel 0.
fn sender(base: i64, n: u32, work: u32) -> tlm_cdfg::ir::Module {
    module(&format!(
        "void main() {{
            int x = 1;
            for (int i = 0; i < {n}; i++) {{
                for (int j = 0; j < {work} + i % 3; j++) {{ x = (x * 5 + j) & 1023; }}
                ch_send(0, {base} + i);
            }}
         }}"
    ))
}

/// A receiver that emits each of its `n` values from channel 0, computing
/// `work` rounds between receives.
fn receiver(n: u32, work: u32) -> tlm_cdfg::ir::Module {
    module(&format!(
        "void main() {{
            int x = 1;
            for (int i = 0; i < {n}; i++) {{
                out(ch_recv(0));
                for (int j = 0; j < {work} + i % 5; j++) {{ x = (x * 3 + j) & 1023; }}
            }}
            out(x);
         }}"
    ))
}

/// Two senders, on the CPU and on a HW PE, feeding one receiver on one
/// channel: which sender's value arrives next is decided by simulated time.
fn fan_in_platform() -> Platform {
    let mut b = PlatformBuilder::new("fan-in");
    let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(8 << 10, 4 << 10));
    let hw = b.add_pe("hw", tlm_core::library::custom_hw("hw", 2, 1));
    b.add_process("left", &sender(100, 24, 7), "main", &[], cpu).expect("ok");
    b.add_process("right", &sender(200, 24, 19), "main", &[], hw).expect("ok");
    b.add_process("join", &receiver(48, 2), "main", &[], cpu).expect("ok");
    b.bind_channel(tlm_cdfg::ChanId(0), None, 4);
    b.build().expect("builds")
}

/// One sender feeding two receivers on one channel: which receiver takes
/// the next value is decided by simulated time.
fn fan_out_platform() -> Platform {
    let mut b = PlatformBuilder::new("fan-out");
    let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(8 << 10, 4 << 10));
    let hw = b.add_pe("hw", tlm_core::library::custom_hw("hw", 2, 1));
    b.add_process("source", &sender(0, 48, 3), "main", &[], cpu).expect("ok");
    b.add_process("fast", &receiver(24, 5), "main", &[], hw).expect("ok");
    b.add_process("slow", &receiver(24, 23), "main", &[], cpu).expect("ok");
    b.bind_channel(tlm_cdfg::ChanId(0), None, 4);
    b.build().expect("builds")
}

/// Values the flooding producer sends: well over twice the 1024 steps a
/// process may log ahead of the kernel, so its log fills again and again.
const FLOOD: u32 = 3000;

/// A producer that sends [`FLOOD`] values with little work between them to
/// a consumer that computes heavily per value. On its own channel
/// (`fan_in` false) the values go straight from producer to consumer, and
/// the consumer keeps emptying the queue and waiting for the next send; on
/// a channel a second, slower sender shares, the kernel delivers each one.
fn flood_platform(fan_in: bool) -> Platform {
    let mut b = PlatformBuilder::new("flood");
    let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(8 << 10, 4 << 10));
    let hw = b.add_pe("hw", tlm_core::library::custom_hw("hw", 2, 1));
    b.add_process("producer", &sender(0, FLOOD, 1), "main", &[], cpu).expect("ok");
    let extra = if fan_in { 8 } else { 0 };
    if fan_in {
        b.add_process("trickle", &sender(10_000, extra, 50), "main", &[], hw).expect("ok");
    }
    b.add_process("consumer", &receiver(FLOOD + extra, 12), "main", &[], hw).expect("ok");
    b.bind_channel(tlm_cdfg::ChanId(0), None, 4);
    b.build().expect("builds")
}

/// Every (granularity, fuel slice, order seed) combination.
fn full_matrix() -> Vec<TlmConfig> {
    let mut configs = Vec::new();
    for granularity in GRANULARITIES {
        for fuel_slice in FUEL_SLICES {
            for order_seed in ORDER_SEEDS {
                configs.push(TlmConfig { granularity, fuel_slice, order_seed, time_limit: None });
            }
        }
    }
    configs
}

/// The fingerprint of `platform`'s runs over `configs`, functional and
/// timed (`None` where that mode is not run).
fn fingerprints(platform: &Platform, configs: &[TlmConfig], functional: bool) -> [Option<u64>; 2] {
    let annotated = annotate_platform(platform).expect("annotates");
    let mut modes = [None, None];
    for (mode, slot) in modes.iter_mut().enumerate() {
        let timed = mode == 1;
        if !timed && !functional {
            continue;
        }
        let mut h = Fnv::new();
        for config in configs {
            let report = run_annotated(platform, timed.then_some(&annotated), config);
            fold_report(&mut h, &report);
        }
        *slot = Some(h.0);
    }
    modes
}

/// Compares computed pins with [`PINS`], printing the full table on a
/// mismatch.
fn check(computed: &[(String, [Option<u64>; 2])]) {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (name, modes) in computed {
        for (mode, pin) in ["functional", "timed"].into_iter().zip(modes) {
            let Some(pin) = *pin else { continue };
            table.push_str(&format!("    (\"{name}\", \"{mode}\", {pin:#018x}),\n"));
            let pinned = PINS.iter().find(|(n, m, _)| n == name && *m == mode).map(|p| p.2);
            if pinned != Some(pin) {
                mismatches.push(format!("{name} {mode}: pinned {pinned:x?}, computed {pin:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}\ncomputed pins:\n{table}", mismatches.join("\n"));
}

/// Every granularity × fuel slice in the default order, then each order
/// seed at the default granularity and slice: the full matrix costs too
/// much on MP3 in an unoptimized build.
fn mp3_matrix() -> Vec<TlmConfig> {
    let mut configs: Vec<TlmConfig> =
        full_matrix().into_iter().filter(|c| c.order_seed.is_none()).collect();
    configs.extend(
        ORDER_SEEDS
            .into_iter()
            .flatten()
            .map(|s| TlmConfig { order_seed: Some(s), ..TlmConfig::default() }),
    );
    configs
}

fn check_mp3(design: Mp3Design) {
    let params = Mp3Params { frames: 1, ..Mp3Params::training() };
    let platform = build_mp3_platform(design, params, CACHES.0, CACHES.1).expect("builds");
    check(&[(format!("mp3:{design}"), fingerprints(&platform, &mp3_matrix(), true))]);
}

#[test]
fn mp3_sw_is_pinned() {
    check_mp3(Mp3Design::Sw);
}

#[test]
fn mp3_sw_plus_1_is_pinned() {
    check_mp3(Mp3Design::SwPlus1);
}

#[test]
fn mp3_sw_plus_2_is_pinned() {
    check_mp3(Mp3Design::SwPlus2);
}

#[test]
fn mp3_sw_plus_4_is_pinned() {
    check_mp3(Mp3Design::SwPlus4);
}

#[test]
fn image_designs_and_kernels_are_pinned() {
    let configs = full_matrix();
    let computed: Vec<_> = image_platforms()
        .into_iter()
        .chain(kernel_platforms())
        .map(|(name, p)| {
            let pins = fingerprints(&p, &configs, true);
            (name, pins)
        })
        .collect();
    check(&computed);
}

#[test]
fn runaway_and_trapping_models_are_pinned() {
    let limited: Vec<TlmConfig> = full_matrix()
        .into_iter()
        .map(|c| TlmConfig { time_limit: Some(SimTime::from_us(100)), ..c })
        .collect();
    // A functional run never advances time, so a runaway model is only
    // ever stopped by a limit in the timed mode.
    let runaway = fingerprints(&runaway_platform(), &limited, false);
    let trapping = fingerprints(&trapping_platform(), &full_matrix(), true);
    check(&[("runaway".into(), runaway), ("trapping".into(), trapping)]);
}

#[test]
fn shared_channels_are_pinned_under_eight_order_seeds() {
    let configs: Vec<TlmConfig> =
        (1..=8).map(|seed| TlmConfig { order_seed: Some(seed), ..TlmConfig::default() }).collect();
    let computed = [("fan-in", fan_in_platform()), ("fan-out", fan_out_platform())]
        .map(|(name, p)| (name.to_string(), fingerprints(&p, &configs, true)));
    check(&computed);
}

#[test]
fn lookahead_saturating_channels_are_pinned() {
    let mut configs = Vec::new();
    for fuel_slice in [1, TlmConfig::default().fuel_slice] {
        for order_seed in ORDER_SEEDS {
            configs.push(TlmConfig { fuel_slice, order_seed, ..TlmConfig::default() });
        }
    }
    let computed = [("flood:direct", false), ("flood:fan-in", true)].map(|(name, fan_in)| {
        (name.to_string(), fingerprints(&flood_platform(fan_in), &configs, true))
    });
    check(&computed);
}
