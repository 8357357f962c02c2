//! Order invariance of the estimates under seeded wakeup permutation.
//!
//! The desim kernel's seeded permutation ([`TlmConfig::order_seed`])
//! replaces every same-timestamp wakeup batch with a seeded shuffle —
//! each seed is one legal event ordering the SystemC standard would
//! also have allowed. The contract fuzzed here, as a fixed regression:
//!
//! - **Replay determinism**: the same seed reproduces the entire
//!   [`TlmReport`] bit-identically — end time, per-PE busy cycles, bus
//!   transfers, outputs, per-process annotated cycles.
//! - **Order invariance of the estimates**: across *distinct* seeds,
//!   for every app design, on its native PUMs and under every
//!   scheduling policy, functional outputs and per-process annotated
//!   cycle totals never depend on the wakeup order.
//!   (Arbitration-dependent quantities — who waited for a contended
//!   PE — may legally differ; the paper's cycle estimates must not.)

use tlm_apps::imagepipe::{build_image_platform, ImageParams};
use tlm_apps::{build_mp3_platform, Mp3Design, Mp3Params};
use tlm_core::pum::SchedulingPolicy;
use tlm_platform::desc::Platform;
use tlm_platform::tlm::{annotate_platform, run_annotated, TlmConfig, TlmReport};

const POLICIES: [SchedulingPolicy; 4] = [
    SchedulingPolicy::InOrder,
    SchedulingPolicy::Asap,
    SchedulingPolicy::Alap,
    SchedulingPolicy::List,
];

/// The permutation-seed budget: 32 distinct seeds, rotated across the
/// 20 (design, PUM) cells so each cell replays 8 distinct orderings
/// and every seed in 1..=32 is exercised by some cell. Each seed is an
/// independent trial, so coverage adds up across cells while the debug
/// -profile runtime stays bounded.
const SEEDS: u64 = 32;
const SEEDS_PER_CELL: u64 = 8;

/// The four app designs the accuracy tables run on.
fn app_platforms(ic: u32, dc: u32) -> Vec<(&'static str, Platform)> {
    vec![
        (
            "mp3:sw",
            build_mp3_platform(Mp3Design::Sw, Mp3Params::training(), ic, dc).expect("builds"),
        ),
        (
            "mp3:sw+4",
            build_mp3_platform(Mp3Design::SwPlus4, Mp3Params::training(), ic, dc).expect("builds"),
        ),
        ("image:sw", build_image_platform(false, ImageParams::small(), ic, dc).expect("builds")),
        ("image:hw", build_image_platform(true, ImageParams::small(), ic, dc).expect("builds")),
    ]
}

/// Re-maps every PE onto a custom-HW datapath running `policy` (the
/// pipelined CPU model only supports its native in-order policy, so the
/// policy axis sweeps on the custom-HW PUM, as in ablation A1).
fn with_policy(mut platform: Platform, policy: SchedulingPolicy) -> Platform {
    for pe in &mut platform.pes {
        let mut pum = tlm_core::library::custom_hw("perm", 2, 2);
        pum.execution.policy = policy;
        pe.pum = pum;
    }
    platform
}

fn assert_estimates_invariant(reference: &TlmReport, run: &TlmReport, what: &str) {
    assert_eq!(run.outputs, reference.outputs, "{what}: outputs depend on wakeup order");
    for (name, pr) in &reference.processes {
        let r = run.processes.get(name).unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            r.computed_cycles, pr.computed_cycles,
            "{what}: annotated cycles of {name} depend on wakeup order"
        );
        assert_eq!(r.finished, pr.finished, "{what}: completion of {name} depends on order");
    }
}

#[test]
fn same_order_seed_replays_the_entire_report_bit_identically() {
    for (name, platform) in &app_platforms(8 << 10, 4 << 10) {
        let annotated = annotate_platform(platform).expect("annotates");
        for seed in [3u64, 0xfeed_beef] {
            let config = TlmConfig { order_seed: Some(seed), ..TlmConfig::default() };
            let a = run_annotated(platform, Some(&annotated), &config);
            let b = run_annotated(platform, Some(&annotated), &config);
            let what = format!("{name} seed {seed}");
            assert_eq!(a.end_time, b.end_time, "{what}: end time not replayed");
            assert_eq!(a.pe_busy, b.pe_busy, "{what}: PE busy cycles not replayed");
            assert_eq!(a.bus_transfers, b.bus_transfers, "{what}: bus transfers not replayed");
            assert_eq!(a.outputs, b.outputs, "{what}: outputs not replayed");
            for (proc, pr) in &a.processes {
                assert_eq!(
                    b.processes[proc].computed_cycles, pr.computed_cycles,
                    "{what}: cycles of {proc} not replayed"
                );
            }
        }
    }
}

#[test]
fn estimates_are_order_invariant_for_every_design_and_policy() {
    let mut cell = 0u64;
    for (name, base) in app_platforms(8 << 10, 4 << 10) {
        // The designs' native PUMs (the pipelined CPU with its 8k/4k
        // caches), then the custom-HW datapath under every policy.
        for policy in std::iter::once(None).chain(POLICIES.map(Some)) {
            let (platform, pum) = match policy {
                None => (base.clone(), "native".to_string()),
                Some(policy) => (with_policy(base.clone(), policy), format!("{policy:?}")),
            };
            // Annotate once per (design, PUM): the annotation is
            // order-independent by construction, only the TLM run sees
            // the permuted wakeups.
            let annotated = annotate_platform(&platform).expect("annotates");
            let reference = run_annotated(&platform, Some(&annotated), &TlmConfig::default());
            assert!(reference.all_finished(), "{name}/{pum}: reference run did not finish");
            for k in 0..SEEDS_PER_CELL {
                let seed = 1 + (cell + k * (SEEDS / SEEDS_PER_CELL)) % SEEDS;
                let config = TlmConfig { order_seed: Some(seed), ..TlmConfig::default() };
                let run = run_annotated(&platform, Some(&annotated), &config);
                assert_estimates_invariant(&reference, &run, &format!("{name}/{pum} seed {seed}"));
            }
            cell += 1;
        }
    }
}
