//! Design-space exploration — the use case motivating the paper: because
//! timed TLMs are generated automatically and simulate fast, a designer can
//! sweep platforms × cache configurations and pick the cheapest design that
//! meets a performance constraint, in minutes instead of weeks.
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::{mp3_design, Mp3Design, Mp3Params};
use tlm_desim::SimTime;
use tlm_pipeline::Pipeline;
use tlm_platform::tlm::TlmConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Mp3Params { seed: 0x00c0_ffee, frames: 2 };
    // Performance constraint: decode the workload in under 0.25 s of
    // simulated time (arbitrary but illustrative).
    let deadline = SimTime::from_us(250_000);

    // Rough cost weights: bigger caches and more HW cost area.
    let area = |design: Mp3Design, ic: u32, dc: u32| -> u32 {
        design.hw_count() as u32 * 40 + (ic + dc) / 1024
    };

    // One pipeline for the whole sweep: the cache sizes change only the
    // PUM's statistical models, so every Algorithm 1 schedule is solved
    // once per datapath and reused at the other four sizes.
    let pipeline = Pipeline::new();
    println!("design      caches    decode-time   area  meets-deadline");
    let mut best: Option<(Mp3Design, &str, u32)> = None;
    let started = std::time::Instant::now();
    for design in Mp3Design::ALL {
        for (label, ic, dc) in CACHE_SWEEP {
            let prepared = mp3_design(&pipeline, design, params, ic, dc)?;
            let report = pipeline.run_timed(&prepared, &TlmConfig::default())?;
            assert!(report.all_finished());
            let meets = report.end_time <= deadline;
            let cost = area(design, ic, dc);
            println!(
                "{design:<10} {label:>8}  {:>12}  {cost:>5}  {}",
                report.end_time.to_string(),
                if meets { "yes" } else { "no" },
            );
            if meets && best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((design, label, cost));
            }
        }
    }
    println!(
        "\nexplored {} design points in {:?} (all via generated timed TLMs)",
        Mp3Design::ALL.len() * CACHE_SWEEP.len(),
        started.elapsed()
    );
    match best {
        Some((design, caches, cost)) => {
            println!("cheapest design meeting the deadline: {design} with {caches} (area {cost})");
        }
        None => println!("no design point meets the deadline"),
    }
    Ok(())
}
