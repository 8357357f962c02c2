//! The RTOS timing extension (the paper's future work, §6): several
//! processes sharing one processor under an executive, with context-switch
//! overhead charged whenever the PE's occupant changes.
//!
//! ```text
//! cargo run --release --example rtos_model
//! ```

use std::sync::Arc;

use tlm_core::library;
use tlm_pipeline::Pipeline;
use tlm_platform::desc::PlatformBuilder;
use tlm_platform::rtos::RtosModel;
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig};

const PING: &str = r#"
void main() {
    for (int i = 0; i < 200; i++) {
        int v = i * 3 + 1;
        ch_send(0, v);
        int echoed = ch_recv(1);
        if (echoed != v + 1) { out(-1); }
    }
    out(200);
}
"#;

const PONG: &str = r#"
void main() {
    for (int i = 0; i < 200; i++) {
        int v = ch_recv(0);
        ch_send(1, v + 1);
    }
}
"#;

fn run(
    rtos: Option<RtosModel>,
) -> Result<tlm_platform::tlm::TlmReport, Box<dyn std::error::Error>> {
    let ping = Pipeline::global().frontend_with(PING, false)?;
    let pong = Pipeline::global().frontend_with(PONG, false)?;
    let mut builder = PlatformBuilder::new("rtos-demo");
    let cpu = builder.add_pe("cpu", library::microblaze_like(8 * 1024, 4 * 1024));
    if let Some(model) = rtos {
        builder.set_rtos(cpu, model)?;
    }
    builder.add_process_arc("ping", Arc::clone(ping.module()), "main", &[], cpu)?;
    builder.add_process_arc("pong", Arc::clone(pong.module()), "main", &[], cpu)?;
    let platform = builder.build()?;
    let annotated = annotate_platform(&platform)?;
    Ok(run_annotated(&platform, Some(&annotated), &TlmConfig::default()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two chatty processes on one CPU: every transaction forces a context
    // switch, so the RTOS overhead is maximally visible.
    let bare = run(None)?;
    let light = run(Some(RtosModel { context_switch_cycles: 120 }))?;
    let heavy = run(Some(RtosModel { context_switch_cycles: 1200 }))?;

    assert_eq!(bare.outputs["ping"], vec![200], "protocol completed");
    assert_eq!(bare.outputs, light.outputs, "RTOS model changes time, not behaviour");

    println!("ping-pong, 200 round trips on one shared CPU:");
    for (label, report) in
        [("no RTOS model", &bare), ("120-cycle switches", &light), ("1200-cycle switches", &heavy)]
    {
        println!(
            "  {label:<20} end time {:>12}  cpu busy {:>9} cycles",
            report.end_time.to_string(),
            report.pe_cycles("cpu").expect("cpu exists"),
        );
    }
    assert!(light.end_time > bare.end_time);
    assert!(heavy.end_time > light.end_time);
    println!("\ncontext-switch overhead is visible in the estimate, as expected");
    Ok(())
}
