//! Regenerates **Table 2** — accuracy of ISS and timed TLM against the
//! board (cycle-accurate) model for the software-only design, across the
//! five cache configurations.
//!
//! ```text
//! cargo run -p tlm-bench --release --bin table2
//! ```
//!
//! Statistical PUM parameters are characterized on the training input and
//! evaluated on a different input. The reproduced claim is the *shape*:
//! the timed TLM's average error is clearly smaller than the vendor-style
//! ISS's, whose fixed memory assumptions misestimate badly at the extreme
//! cache configurations.
//!
//! The five sweep points are independent simulations and run concurrently;
//! all five timed TLMs drive the process-wide [`Pipeline`], so they share
//! one parse/lower per source and one Algorithm 1 schedule per basic block,
//! and only the PUM-dependent annotate stage re-runs per cache size.

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::{Mp3Design, Mp3Params};
use tlm_bench::{
    characterize_cpu, characterized_design, end_time_cycles, error_pct, fmt_m, TextTable,
};
use tlm_core::parallel::par_map;
use tlm_pcam::{run_board, run_iss, BoardConfig};
use tlm_pipeline::Pipeline;
use tlm_platform::tlm::TlmConfig;

fn main() {
    let training = Mp3Params::training();
    let eval = Mp3Params::evaluation();
    eprintln!("characterizing CPU on training input (seed {:#x})...", training.seed);
    let chr = characterize_cpu(Mp3Design::Sw, training);
    eprintln!(
        "  mispredict rate {:.4}, fetch expansion {:.3}, data expansion {:.3}",
        chr.mispredict_rate, chr.fetch_expansion, chr.data_expansion
    );

    let sweep = CACHE_SWEEP;
    let points = par_map(&sweep, |&(label, ic, dc)| {
        let design = characterized_design(Mp3Design::Sw, eval, ic, dc, &chr);
        let board = run_board(&design.platform, &BoardConfig::default()).expect("board runs");
        let iss = run_iss(&design.platform, &BoardConfig::default()).expect("ISS runs");
        let tlm = Pipeline::global().run_timed(&design, &TlmConfig::default()).expect("TLM runs");
        assert_eq!(board.outputs, tlm.outputs, "functional equivalence");
        assert_eq!(board.outputs, iss.outputs, "functional equivalence");
        (
            label,
            end_time_cycles(board.end_time),
            end_time_cycles(iss.end_time),
            end_time_cycles(tlm.end_time),
        )
    });

    let mut table = TextTable::new();
    table.row(vec![
        "I/D cache".into(),
        "Board".into(),
        "ISS".into(),
        "ISS err".into(),
        "TLM".into(),
        "TLM err".into(),
    ]);
    let mut iss_abs = Vec::new();
    let mut tlm_abs = Vec::new();
    for (label, b, i, t) in &points {
        let iss_err = error_pct(*i, *b);
        let tlm_err = error_pct(*t, *b);
        iss_abs.push(iss_err.abs());
        tlm_abs.push(tlm_err.abs());
        table.row(vec![
            (*label).to_string(),
            fmt_m(*b),
            fmt_m(*i),
            format!("{iss_err:+.2}%"),
            fmt_m(*t),
            format!("{tlm_err:+.2}%"),
        ]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    table.row(vec![
        "Average".into(),
        "".into(),
        "".into(),
        format!("{:.2}%", avg(&iss_abs)),
        "".into(),
        format!("{:.2}%", avg(&tlm_abs)),
    ]);

    println!(
        "Table 2 — SW-only accuracy vs board model ({} frames, eval seed {:#x})",
        eval.frames, eval.seed
    );
    println!("{}", table.render());
    assert!(
        avg(&tlm_abs) < avg(&iss_abs),
        "reproduced claim: TLM average error beats the vendor ISS"
    );
    println!("shape check passed: TLM average |error| < ISS average |error|");
}
