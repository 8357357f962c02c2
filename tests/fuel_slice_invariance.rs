//! The timed TLM's results do not depend on how finely its interpreter is
//! sliced.
//!
//! A process runs [`TlmConfig::fuel_slice`] operations per kernel
//! resumption and yields a delta cycle in between. Simulated time advances
//! only at transaction boundaries, and each process's interpreter adds up
//! its blocks' annotated cycles across slices, so a slice can end anywhere
//! — mid-block, just before a terminator, inside a fused loop header, at a
//! call's entry — without moving a single cycle: per-process computed
//! cycles, PE busy cycles, bus transfers and outputs match the unsliced
//! run exactly.
//!
//! The end time is checked on the one-process kernels only. On a
//! multi-process design, the extra delta cycle of a slice can change which
//! of two processes reaching a boundary at the same simulated time reserves
//! their shared PE first, so the end time may legally move, exactly as
//! under a wakeup permutation (`wakeup_permutation.rs`); image:hw and SW+4
//! end a few tens of nanoseconds apart when sliced.

use tlm_apps::imagepipe::{build_image_platform, ImageParams};
use tlm_apps::{build_mp3_platform, kernels, Mp3Design, Mp3Params};
use tlm_pipeline::Pipeline;
use tlm_platform::desc::{Platform, PlatformBuilder};
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig, TlmReport};

const CACHES: (u32, u32) = (8 << 10, 4 << 10);

/// Each kernel as a one-process platform on the pipelined CPU.
fn kernel_platforms() -> Vec<(String, Platform)> {
    kernels::suite()
        .into_iter()
        .map(|kernel| {
            let artifact = Pipeline::global().frontend(&kernel.source).expect("compiles");
            let mut b = PlatformBuilder::new(kernel.name);
            let cpu = b.add_pe("cpu", tlm_core::library::microblaze_like(CACHES.0, CACHES.1));
            b.add_process(kernel.name, artifact.module(), "main", &[], cpu).expect("maps");
            (kernel.name.to_string(), b.build().expect("builds"))
        })
        .collect()
}

fn image_platforms() -> Vec<(String, Platform)> {
    [false, true]
        .into_iter()
        .map(|hw| {
            let platform =
                build_image_platform(hw, ImageParams::small(), CACHES.0, CACHES.1).expect("builds");
            (format!("image:{}", if hw { "hw" } else { "sw" }), platform)
        })
        .collect()
}

/// Runs every platform timed at the default slice and at each of
/// `slices`, and checks that the estimate does not move.
fn assert_slice_invariant(platforms: &[(String, Platform)], slices: &[u64]) {
    for (name, platform) in platforms {
        let single = platform.processes.len() == 1;
        let annotated = annotate_platform(platform).expect("annotates");
        let run = |fuel_slice| {
            let config = TlmConfig { fuel_slice, ..TlmConfig::default() };
            run_annotated(platform, Some(&annotated), &config)
        };
        let whole = run(TlmConfig::default().fuel_slice);
        assert!(whole.all_finished(), "{name}");
        let cycles = |r: &TlmReport| -> Vec<u64> {
            r.processes.values().map(|p| p.computed_cycles).collect()
        };
        assert!(cycles(&whole).iter().any(|&c| c > 0), "{name}: no cycles applied");
        for &slice in slices {
            let sliced = run(slice);
            let what = format!("{name} at fuel slice {slice}");
            assert!(sliced.all_finished(), "{what}");
            assert_eq!(cycles(&sliced), cycles(&whole), "{what}: computed cycles");
            if single {
                assert_eq!(sliced.end_time, whole.end_time, "{what}: end time");
            }
            assert_eq!(sliced.pe_busy, whole.pe_busy, "{what}: PE busy cycles");
            assert_eq!(sliced.bus_transfers, whole.bus_transfers, "{what}: bus transfers");
            assert_eq!(sliced.outputs, whole.outputs, "{what}: outputs");
        }
    }
}

#[test]
fn kernels_and_image_designs_are_invariant_under_every_small_slice() {
    let slices: Vec<u64> = (1..=8).chain([64]).collect();
    assert_slice_invariant(&kernel_platforms(), &slices);
    assert_slice_invariant(&image_platforms(), &slices);
}

#[test]
fn mp3_designs_are_invariant_under_odd_slices() {
    let platforms: Vec<(String, Platform)> = [Mp3Design::Sw, Mp3Design::SwPlus4]
        .into_iter()
        .map(|design| {
            let params = Mp3Params { frames: 1, ..Mp3Params::training() };
            let platform = build_mp3_platform(design, params, CACHES.0, CACHES.1).expect("builds");
            (design.to_string(), platform)
        })
        .collect();
    assert_slice_invariant(&platforms, &[7, 97, 1009]);
}
