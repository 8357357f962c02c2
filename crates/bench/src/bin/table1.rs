//! Regenerates **Table 1** — scalability: annotation time and simulation
//! time of functional TLM, timed TLM, ISS and PCAM for the four designs.
//!
//! ```text
//! cargo run -p tlm-bench --release --bin table1
//! ```
//!
//! Absolute wall-clock values differ from the paper's 2008 host and its
//! native-compiled SystemC TLMs (ours are interpreted); the *shape* is the
//! reproduced claim: annotation stays in seconds and grows with the number
//! of custom HW units, timed TLM simulation costs about the same as
//! functional TLM, and ISS/PCAM are orders of magnitude slower.
//!
//! A single run of a TLM varies widely on a shared host, so each TLM cell
//! is the median of [`TLM_RUNS`] runs, functional and timed interleaved
//! after one functional run that sets the expected outputs, and the
//! `timed/func` column is the ratio of the two medians. `threads` is the
//! most interpreter threads any of those runs used (the calling thread plus
//! its helpers, bounded by the host's available parallelism).

use std::time::Duration;

use tlm_apps::{mp3_design, Mp3Design, Mp3Params};
use tlm_bench::TextTable;
use tlm_pcam::{run_board, run_iss, BoardConfig};
use tlm_pipeline::Pipeline;
use tlm_platform::tlm::{run_annotated, TlmConfig};

/// Runs per TLM cell.
const TLM_RUNS: usize = 5;

fn median(mut runs: Vec<Duration>) -> Duration {
    runs.sort();
    runs[runs.len() / 2]
}

fn fmt(d: Duration) -> String {
    if d.as_secs_f64() < 0.1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.3}s", d.as_secs_f64())
    }
}

fn main() {
    let params = Mp3Params::evaluation();
    let config = TlmConfig::default();
    let mut table = TextTable::new();
    table.row(vec![
        "Design".into(),
        "Anno.".into(),
        "TLM func".into(),
        "TLM timed".into(),
        "timed/func".into(),
        "threads".into(),
        "ISS".into(),
        "PCAM".into(),
    ]);

    for design in Mp3Design::ALL {
        // A fresh pipeline per design keeps the annotation column a true
        // cold-start measurement; the process-wide instance would reuse
        // artifacts across the four designs' shared sources.
        let pipeline = Pipeline::new();
        let prepared =
            mp3_design(&pipeline, design, params, 8 << 10, 4 << 10).expect("platform builds");
        let platform = &prepared.platform;

        let annotated = pipeline.annotate_design(&prepared).expect("annotation succeeds");
        // One functional run first: the outputs every other run must match.
        let func = run_annotated(platform, None, &config);
        let mut walls = [Vec::new(), Vec::new()];
        let mut threads = func.threads;
        for round in 0..TLM_RUNS {
            // Alternate which kind runs first, so neither always follows
            // the other.
            for timed in [round % 2 == 1, round % 2 == 0] {
                let report = run_annotated(platform, timed.then_some(&annotated), &config);
                assert_eq!(report.outputs, func.outputs, "timing must not change behaviour");
                walls[usize::from(timed)].push(report.wall);
                threads = threads.max(report.threads);
            }
        }
        let [func_wall, timed_wall] = walls.map(median);

        let iss_cell = match run_iss(platform, &BoardConfig::default()) {
            Ok(report) => {
                assert_eq!(report.outputs, func.outputs);
                fmt(report.wall)
            }
            // Like the paper: no ISS models exist for custom HW.
            Err(_) => "n/a".to_string(),
        };
        let board = run_board(platform, &BoardConfig::default()).expect("board runs");
        assert_eq!(board.outputs, func.outputs);

        table.row(vec![
            design.to_string(),
            fmt(annotated.annotation_time),
            fmt(func_wall),
            fmt(timed_wall),
            format!("{:.2}", timed_wall.as_secs_f64() / func_wall.as_secs_f64()),
            threads.to_string(),
            iss_cell,
            fmt(board.wall),
        ]);
    }

    println!(
        "Table 1 — annotation and simulation time ({} frames; TLM cells: median of {TLM_RUNS} runs)",
        params.frames
    );
    println!("{}", table.render());
    println!(
        "Note: this reproduction's TLMs are interpreted, not native-compiled,\n\
         so TLM-vs-ISS/PCAM ratios are smaller than the paper's; the ordering\n\
         and the annotation-time trend are the reproduced result."
    );
}
