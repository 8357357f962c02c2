//! A second application on the same tool chain: a JPEG-style image
//! compressor (camera → DCT+quant → zigzag/RLE → store), evaluated with
//! and without a custom DCT accelerator, on both the timed TLM and the
//! cycle-accurate board model.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use tlm_apps::imagepipe::{build_image_platform, image_design, ImageParams};
use tlm_bench::{apply_characterization, characterize_cpu_with};
use tlm_desim::SimTime;
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::Pipeline;
use tlm_platform::tlm::TlmConfig;

fn cycles(end: SimTime) -> u64 {
    end.cycles(SimTime::from_ns(10))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ImageParams { seed: 0x00ab_cdef, blocks: 32 };
    println!("compressing {} blocks of 8x8 sensor data\n", params.blocks);

    // Characterize the CPU's statistical PUM parameters on a *training*
    // image (different seed), as the flow prescribes.
    let training = ImageParams { seed: 0x7e57_0001, blocks: 16 };
    let chr = characterize_cpu_with(
        |ic, dc| build_image_platform(false, training, ic, dc).expect("platform builds"),
        &[2 << 10, 4 << 10, 8 << 10, 16 << 10],
    );
    println!(
        "characterized on training image: mispredict {:.3}, fetch expansion {:.3}\n",
        chr.mispredict_rate, chr.fetch_expansion
    );

    let pipeline = Pipeline::global();
    for accelerated in [false, true] {
        let mut design = image_design(pipeline, accelerated, params, 8 << 10, 4 << 10)?;
        apply_characterization(&mut design.platform, &chr);
        let tlm = pipeline.run_timed(&design, &TlmConfig::default())?;
        let board = run_board(&design.platform, &BoardConfig::default())?;
        assert_eq!(tlm.outputs["store"], board.outputs["store"], "models agree");

        let est = cycles(tlm.end_time);
        let meas = cycles(board.end_time);
        let err = (est as f64 - meas as f64) / meas as f64 * 100.0;
        let outs = &tlm.outputs["store"];
        println!("{}:", if accelerated { "with DCT accelerator" } else { "software only" });
        println!("  compressed words {} (checksum {:#x})", outs[0], outs[1]);
        println!("  TLM estimate  {est:>9} cycles");
        println!("  board measure {meas:>9} cycles  (estimate off by {err:+.2}%)");
    }
    println!("\nsame source, same estimator, different platform — retargeting is data");
    Ok(())
}
