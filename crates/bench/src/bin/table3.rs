//! Regenerates **Table 3** — accuracy of the timed TLM against the board
//! model for the designs with custom hardware (SW+1, SW+2, SW+4), across
//! the five cache configurations.
//!
//! ```text
//! cargo run -p tlm-bench --release --bin table3
//! ```
//!
//! The reproduced claims: decode time falls monotonically as kernels move
//! to hardware, and the TLM estimate stays within a single-digit percentage
//! of the cycle-accurate measurement for every design and cache size.
//!
//! The 15 (design × cache) sweep points are independent and run
//! concurrently; their timed TLMs drive the process-wide [`Pipeline`], so
//! the designs share parse/lower artifacts for their common sources and
//! Algorithm 1 schedules across all cache sizes.

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::{Mp3Design, Mp3Params};
use tlm_bench::{
    characterize_cpu, characterized_design, end_time_cycles, error_pct, fmt_m, TextTable,
};
use tlm_core::parallel::par_map;
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::Pipeline;
use tlm_platform::tlm::TlmConfig;

fn main() {
    let training = Mp3Params::training();
    let eval = Mp3Params::evaluation();
    let designs = [Mp3Design::SwPlus1, Mp3Design::SwPlus2, Mp3Design::SwPlus4];

    let chrs: Vec<_> = designs
        .iter()
        .map(|&d| {
            eprintln!("characterizing CPU for {d}...");
            characterize_cpu(d, training)
        })
        .collect();

    // One flat work list over designs × cache configurations, so every
    // simulation fans out at once instead of five at a time.
    let work: Vec<(usize, usize)> =
        (0..CACHE_SWEEP.len()).flat_map(|c| (0..designs.len()).map(move |d| (c, d))).collect();
    let cells = par_map(&work, |&(c, d)| {
        let (_, ic, dc) = CACHE_SWEEP[c];
        let design = characterized_design(designs[d], eval, ic, dc, &chrs[d]);
        let board = run_board(&design.platform, &BoardConfig::default()).expect("board runs");
        let tlm = Pipeline::global().run_timed(&design, &TlmConfig::default()).expect("TLM runs");
        assert_eq!(board.outputs, tlm.outputs, "functional equivalence");
        (end_time_cycles(board.end_time), end_time_cycles(tlm.end_time))
    });

    let mut table = TextTable::new();
    let mut header = vec!["I/D cache".to_string()];
    for d in designs {
        header.push(format!("{d} board"));
        header.push(format!("{d} TLM"));
        header.push("err".into());
    }
    table.row(header);

    let mut averages = vec![Vec::new(); designs.len()];
    for (c, (label, _, _)) in CACHE_SWEEP.iter().enumerate() {
        let mut row = vec![(*label).to_string()];
        for (d, avg) in averages.iter_mut().enumerate() {
            let (b, t) = cells[c * designs.len() + d];
            let err = error_pct(t, b);
            avg.push(err.abs());
            row.push(fmt_m(b));
            row.push(fmt_m(t));
            row.push(format!("{err:+.2}%"));
        }
        table.row(row);
    }
    let mut avg_row = vec!["Average".to_string()];
    for avg in &averages {
        let mean = avg.iter().sum::<f64>() / avg.len() as f64;
        avg_row.push("".into());
        avg_row.push("".into());
        avg_row.push(format!("{mean:.2}%"));
    }
    table.row(avg_row);

    println!(
        "Table 3 — HW-design accuracy vs board model ({} frames, eval seed {:#x})",
        eval.frames, eval.seed
    );
    println!("{}", table.render());
    for (design, avg) in designs.iter().zip(&averages) {
        let mean = avg.iter().sum::<f64>() / avg.len() as f64;
        assert!(mean < 10.0, "{design} average error {mean:.2}% exceeds the paper band");
    }
    println!("shape check passed: every design's average |error| < 10%");
}
