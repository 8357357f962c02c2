//! The TLM's interpreter helper threads live only inside `run_annotated`.
//!
//! A run of more than one process spawns its helpers (named `tlm-interp`)
//! when it starts, at most `available_parallelism() − 1` of them, and
//! joins them before it returns, whatever stopped the run:
//! completion, starvation after a trap, or a time limit. The thread list
//! of this process (`/proc/self/task`) is the witness; this file holds a
//! single test so no other test's runs share it.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use tlm_apps::{build_mp3_platform, Mp3Design, Mp3Params};
use tlm_desim::{SimTime, StopReason};
use tlm_platform::desc::{Platform, PlatformBuilder};
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig, TlmReport};

/// Live threads of this process named `tlm-interp`.
fn helpers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "tlm-interp")
        .count()
}

fn module(src: &str) -> tlm_cdfg::ir::Module {
    tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
}

fn two_process_platform(first: &str, second: &str) -> Platform {
    let mut b = PlatformBuilder::new("pair");
    let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(8 << 10, 4 << 10));
    let hw = b.add_pe("hw", tlm_core::library::custom_hw("hw", 1, 1));
    b.add_process("first", &module(first), "main", &[], cpu).expect("ok");
    b.add_process("second", &module(second), "main", &[], hw).expect("ok");
    b.build().expect("builds")
}

/// Runs `platform` timed while a watcher counts the helpers alive, and
/// returns the report with the largest count seen.
fn run_watched(platform: &Platform, config: &TlmConfig) -> (TlmReport, usize) {
    let annotated = annotate_platform(platform).expect("annotates");
    let running = AtomicBool::new(true);
    thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut seen = 0;
            while running.load(Ordering::Acquire) {
                seen = seen.max(helpers());
                thread::sleep(Duration::from_micros(100));
            }
            seen
        });
        let report = run_annotated(platform, Some(&annotated), config);
        running.store(false, Ordering::Release);
        (report, watcher.join().expect("watcher runs"))
    })
}

#[test]
fn helpers_are_bounded_and_joined_on_every_stop_reason() {
    let cpus = thread::available_parallelism().map_or(1, usize::from);
    let mp3 = build_mp3_platform(
        Mp3Design::SwPlus4,
        Mp3Params { frames: 1, ..Mp3Params::training() },
        8 << 10,
        4 << 10,
    )
    .expect("builds");
    let trapping = two_process_platform(
        "void main() { int t[2]; out(t[5]); ch_send(0, 1); }",
        "void main() { out(ch_recv(0)); }",
    );
    let runaway = two_process_platform(
        "void main() { while (1) { ch_send(0, 1); } }",
        "void main() { while (1) { int v = ch_recv(0); out(v); } }",
    );
    let limited = TlmConfig { time_limit: Some(SimTime::from_us(100)), ..TlmConfig::default() };

    let cases = [
        ("completed", &mp3, TlmConfig::default(), StopReason::Completed),
        ("starved", &trapping, TlmConfig::default(), StopReason::Starved(vec!["second".into()])),
        ("time limit", &runaway, limited, StopReason::TimeLimit),
    ];
    for (what, platform, config, stop) in cases {
        let (report, seen) = run_watched(platform, &config);
        assert_eq!(report.sim.stop, stop, "{what}");
        let most = cpus.min(platform.processes.len()) - 1;
        assert!(seen <= most, "{what}: {seen} helpers, at most {most} expected");
        assert_eq!(helpers(), 0, "{what}: a helper outlived the run");
    }
    // A run of six processes uses every CPU it may (seen in one of a few
    // runs: a short run can end between two looks).
    let seen = (0..5).map(|_| run_watched(&mp3, &TlmConfig::default()).1).max();
    assert_eq!(seen, Some(cpus.min(mp3.processes.len()) - 1), "MP3 SW+4 on {cpus} CPUs");
}
