//! End-to-end tests of the MP3 process network across the four designs:
//! functional TLM, timed TLM and the cycle-accurate board must all decode
//! identically; runs are deterministic; total applied compute cycles are
//! invariant under `sc_wait` granularity.

use tlm_apps::{build_mp3_platform, mp3_design, Mp3Design, Mp3Params};
use tlm_desim::StopReason;
use tlm_pcam::{run_board, run_iss, BoardConfig};
use tlm_pipeline::{Pipeline, PreparedDesign};
use tlm_platform::tlm::{TlmConfig, TlmReport};

fn small() -> Mp3Params {
    Mp3Params { seed: 0x0bad_cafe, frames: 1 }
}

fn prepare(design: Mp3Design, params: Mp3Params, ic: u32, dc: u32) -> PreparedDesign {
    mp3_design(Pipeline::global(), design, params, ic, dc).expect("builds")
}

fn run_functional(design: &PreparedDesign) -> TlmReport {
    Pipeline::global().run_functional(design, &TlmConfig::default())
}

fn run_timed(design: &PreparedDesign, config: &TlmConfig) -> TlmReport {
    Pipeline::global().run_timed(design, config).expect("timed runs")
}

#[test]
fn all_designs_decode_identically_on_all_models() {
    let mut reference: Option<Vec<i64>> = None;
    for design in Mp3Design::ALL {
        let prepared = prepare(design, small(), 8 << 10, 4 << 10);
        let func = run_functional(&prepared);
        let timed = run_timed(&prepared, &TlmConfig::default());
        let board = run_board(&prepared.platform, &BoardConfig::default()).expect("board runs");
        assert_eq!(func.sim.stop, StopReason::Completed, "{design}");
        assert_eq!(func.outputs["sink"], timed.outputs["sink"], "{design}");
        assert_eq!(func.outputs["sink"], board.outputs["sink"], "{design}");
        // The mapping must never change what is computed.
        match &reference {
            Some(r) => assert_eq!(r, &func.outputs["sink"], "{design}"),
            None => reference = Some(func.outputs["sink"].clone()),
        }
    }
}

#[test]
fn decode_time_improves_monotonically_with_hw() {
    let mut last = u64::MAX;
    for design in Mp3Design::ALL {
        let timed = run_timed(&prepare(design, small(), 8 << 10, 4 << 10), &TlmConfig::default());
        let cycles = timed.end_time.ps();
        assert!(cycles < last, "{design} did not improve: {cycles} !< {last}");
        last = cycles;
    }
}

#[test]
fn board_runs_are_bit_deterministic() {
    let platform =
        build_mp3_platform(Mp3Design::SwPlus2, small(), 2 << 10, 2 << 10).expect("builds");
    let a = run_board(&platform, &BoardConfig::default()).expect("runs");
    let b = run_board(&platform, &BoardConfig::default()).expect("runs");
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.pe_cycles, b.pe_cycles);
    assert_eq!(a.outputs, b.outputs);
}

#[test]
fn granularity_conserves_computed_cycles() {
    let prepared = prepare(Mp3Design::SwPlus1, small(), 8 << 10, 4 << 10);
    let mut totals = Vec::new();
    for granularity in [1u32, 4, 32] {
        let report = run_timed(&prepared, &TlmConfig { granularity, ..TlmConfig::default() });
        assert!(report.all_finished());
        let total: u64 = report.processes.values().map(|p| p.computed_cycles).sum();
        totals.push(total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "accumulated-delay conservation violated: {totals:?}"
    );
}

#[test]
fn iss_handles_sw_but_not_hw_designs() {
    let sw = build_mp3_platform(Mp3Design::Sw, small(), 8 << 10, 4 << 10).expect("builds");
    let report = run_iss(&sw, &BoardConfig::default()).expect("ISS runs SW");
    assert!(report.all_finished());
    let hw = build_mp3_platform(Mp3Design::SwPlus1, small(), 8 << 10, 4 << 10).expect("builds");
    assert!(run_iss(&hw, &BoardConfig::default()).is_err(), "no ISS for custom HW");
}

#[test]
fn different_seeds_decode_different_audio() {
    let ra = run_functional(&prepare(Mp3Design::Sw, Mp3Params { seed: 1, frames: 1 }, 0, 0));
    let rb = run_functional(&prepare(Mp3Design::Sw, Mp3Params { seed: 2, frames: 1 }, 0, 0));
    assert_ne!(ra.outputs["sink"], rb.outputs["sink"]);
}

#[test]
fn bus_traffic_appears_only_in_hw_designs() {
    let sw_report =
        run_timed(&prepare(Mp3Design::Sw, small(), 8 << 10, 4 << 10), &TlmConfig::default());
    assert!(sw_report.bus_transfers.is_empty(), "SW design has no bus");

    let hw = prepare(Mp3Design::SwPlus4, small(), 8 << 10, 4 << 10);
    let hw_report = run_timed(&hw, &TlmConfig::default());
    let transfers: u64 = hw_report.bus_transfers.iter().map(|&(_, t)| t).sum();
    // 6 channels × 1152 words per granule-pair × 2 granules... at minimum
    // every spectral/subband/pcm word crossed the bus once.
    assert!(transfers >= 6 * 1152, "got {transfers}");
}
