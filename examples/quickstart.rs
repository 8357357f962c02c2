//! Quickstart: estimate a C process on a PE model and run the timed TLM.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors the paper's Fig. 2: parse C → CDFG → per-basic-block
//! delay estimation against a Processing Unit Model → annotated ("timed")
//! code → executable timed TLM.

use std::sync::Arc;

use tlm_core::{emit, library};
use tlm_pipeline::Pipeline;
use tlm_platform::desc::PlatformBuilder;
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig};

const PRODUCER: &str = r#"
// A tiny DSP-ish producer: generate samples, lowpass them, ship them out.
int hist[4];
void main() {
    int state = 12345;
    for (int i = 0; i < 64; i++) {
        state = state * 1103515245 + 12345;
        int sample = ((state >> 16) & 255) - 128;
        hist[3] = hist[2]; hist[2] = hist[1]; hist[1] = hist[0];
        hist[0] = sample;
        int smooth = (hist[0] + 2 * hist[1] + 2 * hist[2] + hist[3]) >> 2;
        ch_send(0, smooth);
    }
}
"#;

const CONSUMER: &str = r#"
void main() {
    int energy = 0;
    for (int i = 0; i < 64; i++) {
        int v = ch_recv(0);
        if (v < 0) { v = -v; }
        energy += v;
    }
    out(energy);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Front end: C source → CDFG, through the shared artifact pipeline.
    //    Parse and lower run once per distinct source; repeated demands
    //    (sweeps, servers, other examples in this process) hit the store.
    let pipeline = Pipeline::global();
    let producer = pipeline.frontend_with(PRODUCER, false)?;
    let consumer = pipeline.frontend_with(CONSUMER, false)?;

    // 2. Pick a PE model and annotate every basic block with its estimated
    //    delay (Algorithms 1 and 2 of the paper).
    let pum = library::microblaze_like(8 * 1024, 4 * 1024);
    let timed = pipeline.annotated(&producer, &pum)?;
    println!(
        "annotated {} basic blocks for `{}` in {:?}\n",
        timed.total_annotated_blocks(),
        pum.name,
        timed.report().elapsed
    );

    // 3. The paper's artifact: C code with wait() calls per basic block.
    println!("--- timed C (excerpt) ---");
    for line in emit::emit_timed_c(&timed).lines().take(24) {
        println!("{line}");
    }
    println!("--- end excerpt ---\n");

    // 4. Assemble and run the timed TLM: producer on the CPU, consumer on a
    //    small custom-HW PE, channel 0 on the (implicit) system bus.
    let mut builder = PlatformBuilder::new("quickstart");
    let cpu = builder.add_pe("cpu", pum);
    let hw = builder.add_pe("hw", library::custom_hw("accumulator", 1, 1));
    builder.add_process_arc("producer", Arc::clone(producer.module()), "main", &[], cpu)?;
    builder.add_process_arc("consumer", Arc::clone(consumer.module()), "main", &[], hw)?;
    let platform = builder.build()?;

    let annotated = annotate_platform(&platform)?;
    let report = run_annotated(&platform, Some(&annotated), &TlmConfig::default());
    println!("consumer output: {:?}", report.outputs["consumer"]);
    println!("simulated end time: {}", report.end_time);
    for (pe, cycles) in &report.pe_busy {
        println!("  {pe}: {cycles} busy cycles");
    }
    Ok(())
}
