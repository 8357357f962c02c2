//! Retargetability beyond the paper's two PE types: the dual-issue
//! superscalar PUM (multiple pipelines, §4.1) estimated against the
//! dual-issue cycle-accurate core, with the same characterize-then-evaluate
//! protocol. The estimator code is untouched — only the PUM data changed.

use tlm_bench::{apply_characterization, characterize_cpu_with, end_time_cycles, error_pct};
use tlm_core::library;
use tlm_core::pum::MemoryPath;
use tlm_pcam::{run_board, BoardConfig};
use tlm_platform::desc::{Platform, PlatformBuilder};
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig};

fn worker_source(seed: i32, items: u32) -> String {
    format!(
        "int acc[64];
         void main() {{
            int state = {seed};
            for (int n = 0; n < {items}; n++) {{
                // Independent accumulations: work with ILP for the
                // superscalar front end.
                for (int i = 0; i < 64; i++) {{
                    state = state * 1103515245 + 12345;
                    int v = (state >> 16) & 1023;
                    acc[i & 63] += v * ((i & 7) + 1);
                }}
            }}
            int s = 0;
            for (int i = 0; i < 64; i++) {{ s ^= acc[i]; }}
            ch_send(0, s);
         }}"
    )
}

const SINK: &str = "void main() { out(ch_recv(0)); }";

fn build(seed: i32, items: u32, icache: u32, dcache: u32) -> Platform {
    let pipeline = tlm_pipeline::Pipeline::global();
    let worker = pipeline.frontend_with(&worker_source(seed, items), false).expect("compiles");
    let sink = pipeline.frontend_with(SINK, false).expect("compiles");
    let mut pum = library::superscalar2();
    set_cache_sizes(&mut pum, icache, dcache);
    let mut b = PlatformBuilder::new("superscalar-kernels");
    let cpu = b.add_pe("cpu", pum);
    b.add_process_arc("worker", std::sync::Arc::clone(worker.module()), "main", &[], cpu)
        .expect("ok");
    b.add_process_arc("sink", std::sync::Arc::clone(sink.module()), "main", &[], cpu).expect("ok");
    b.build().expect("builds")
}

fn set_cache_sizes(pum: &mut tlm_core::Pum, icache: u32, dcache: u32) {
    if let MemoryPath::Cached(c) = &mut pum.memory.ifetch {
        c.size = icache;
    }
    if let MemoryPath::Cached(c) = &mut pum.memory.data {
        c.size = dcache;
    }
    pum.validate().expect("sizes are characterized");
}

#[test]
fn superscalar_estimate_tracks_dual_issue_board() {
    let training_seed = 0x5eed_0001;
    let eval_seed = 0x0bad_f00d;
    let chr = characterize_cpu_with(
        |ic, dc| build(training_seed, 6, ic, dc),
        &[2 << 10, 8 << 10, 16 << 10],
    );

    let mut platform = build(eval_seed, 10, 16 << 10, 16 << 10);
    apply_characterization(&mut platform, &chr);
    let board = run_board(&platform, &BoardConfig::default()).expect("board runs");
    let annotated = annotate_platform(&platform).expect("annotates");
    let tlm = run_annotated(&platform, Some(&annotated), &TlmConfig::default());
    assert_eq!(board.outputs["sink"], tlm.outputs["sink"], "functional equivalence");

    let est = end_time_cycles(tlm.end_time);
    let meas = end_time_cycles(board.end_time);
    let err = error_pct(est, meas);
    // Dual-issue grouping is harder to predict than scalar issue; the paper
    // band (single digits) widens, but the estimate must stay in the same
    // ballpark without any estimator changes.
    eprintln!("superscalar estimate: {est} vs board {meas} ({err:+.2}%)");
    assert!(err.abs() < 30.0, "superscalar estimate off by {err:.2}% ({est} vs {meas})");
}

#[test]
fn superscalar_board_beats_scalar_board_on_ilp_code() {
    let platform = build(0x1111, 8, 16 << 10, 16 << 10);
    let dual = run_board(&platform, &BoardConfig::default()).expect("runs");

    // Same program on the scalar MicroBlaze-like PE.
    let mut scalar_platform = build(0x1111, 8, 16 << 10, 16 << 10);
    scalar_platform.pes[0].pum = library::microblaze_like(16 << 10, 16 << 10);
    let scalar = run_board(&scalar_platform, &BoardConfig::default()).expect("runs");
    assert_eq!(dual.outputs, scalar.outputs);
    assert!(
        dual.end_time < scalar.end_time,
        "dual {} vs scalar {}",
        dual.end_time,
        scalar.end_time
    );
}
