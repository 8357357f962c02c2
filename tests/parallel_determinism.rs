//! Determinism of the memoized, batched estimation engine.
//!
//! The contract: for every process of every design, under its native PUM
//! and under every scheduling policy, the production engine (schedule
//! cache + dedup batches) produces **bit-identical** block delays to two
//! oracles — the per-block path on the production kernel
//! ([`annotate_uncached`]) and the retained pre-rewrite kernel
//! ([`annotate_reference`]), which shares nothing with the production
//! path. The standalone platform annotation ([`annotate_platform`]) and
//! the pipeline's ([`Pipeline::annotate_design`]) are checked against the
//! same oracle. A sweep over statistical configurations runs Algorithm 1
//! **at most once** per (datapath, block) pair — verified by the cache's
//! hit/miss counters, not by timing.

use std::sync::Arc;

use tlm_apps::imagepipe::{build_image_platform, ImageParams};
use tlm_apps::{build_mp3_platform, mp3_design, Mp3Design, Mp3Params};
use tlm_cdfg::ir::Module;
use tlm_core::annotate::{
    annotate_in_domain, annotate_reference, annotate_uncached, PreparedModule, TimedModule,
};
use tlm_core::cache::ScheduleDomain;
use tlm_core::pum::SchedulingPolicy;
use tlm_core::{Pum, ScheduleCache};
use tlm_pipeline::Pipeline;
use tlm_platform::desc::Platform;
use tlm_platform::tlm::annotate_platform;

const POLICIES: [SchedulingPolicy; 4] = [
    SchedulingPolicy::InOrder,
    SchedulingPolicy::Asap,
    SchedulingPolicy::Alap,
    SchedulingPolicy::List,
];

/// Every (module, PUM) estimation job of the MP3 and image-pipeline
/// designs at one cache configuration.
fn jobs(ic: u32, dc: u32) -> Vec<(Arc<Module>, Pum)> {
    let platforms: Vec<Platform> = vec![
        build_mp3_platform(Mp3Design::Sw, Mp3Params::training(), ic, dc).expect("builds"),
        build_mp3_platform(Mp3Design::SwPlus4, Mp3Params::training(), ic, dc).expect("builds"),
        build_image_platform(false, ImageParams::small(), ic, dc).expect("builds"),
        build_image_platform(true, ImageParams::small(), ic, dc).expect("builds"),
    ];
    platforms
        .iter()
        .flat_map(|p| {
            p.processes
                .iter()
                .map(|proc| (proc.module.clone(), p.pes[proc.pe.0].pum.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn assert_bit_identical(reference: &TimedModule, candidate: &TimedModule, what: &str) {
    for (fid, func) in reference.module().functions_iter() {
        for (bid, _) in func.blocks_iter() {
            let r = reference.delay(fid, bid);
            let c = candidate.delay(fid, bid);
            // PartialEq on BlockDelay compares the f64 components exactly —
            // "bit-identical", not "approximately equal".
            assert_eq!(r, c, "{what}: engines disagree at {fid}/{bid}");
        }
    }
}

/// Estimates `module` on `pum` through `cache` with the batched engine.
fn annotate_cached(module: &Arc<Module>, pum: &Pum, cache: &ScheduleCache) -> TimedModule {
    let prepared = PreparedModule::new(Arc::clone(module));
    annotate_in_domain(&prepared, pum, &cache.domain(&ScheduleDomain::of(pum))).expect("annotates")
}

/// Estimates `module` on `pum` through `cache` and checks the delays
/// against both oracles.
fn assert_matches_oracles(module: &Arc<Module>, pum: &Pum, cache: &ScheduleCache, what: &str) {
    let candidate = annotate_cached(module, pum, cache);
    let uncached = annotate_uncached(module, pum).expect("annotates");
    assert_bit_identical(&uncached, &candidate, &format!("{what} vs per-block"));
    let reference = annotate_reference(module, pum).expect("annotates");
    assert_bit_identical(&reference, &candidate, &format!("{what} vs reference kernel"));
}

#[test]
fn cached_parallel_engine_matches_reference_for_native_pums() {
    // Every process of every design, estimated on the PUM it is mapped to.
    let cache = ScheduleCache::new();
    for (module, pum) in jobs(8 << 10, 4 << 10) {
        assert_matches_oracles(&module, &pum, &cache, &format!("pum={}", pum.name));
    }
}

#[test]
fn standalone_platform_annotation_matches_pipeline_and_reference() {
    // `annotate_platform` runs through a cache owned by the call; the
    // pipeline through its `schedules` stage. Both must agree with the
    // reference kernel on every process of the four MP3 designs.
    let pipeline = Pipeline::new();
    for design in Mp3Design::ALL {
        let prepared =
            mp3_design(&pipeline, design, Mp3Params::training(), 8 << 10, 4 << 10).expect("builds");
        let platform = &prepared.platform;
        let standalone = annotate_platform(platform).expect("annotates");
        let piped = pipeline.annotate_design(&prepared).expect("annotates");
        assert_eq!(standalone.timed.len(), platform.processes.len(), "{design}");
        for (i, proc) in platform.processes.iter().enumerate() {
            let what = format!("{design} {}", proc.name);
            let reference =
                annotate_reference(&proc.module, &platform.pes[proc.pe.0].pum).expect("annotates");
            assert_bit_identical(&reference, &standalone.timed[i], &format!("{what} standalone"));
            assert_bit_identical(&reference, &piped.timed[i], &format!("{what} pipeline"));
        }
    }
}

#[test]
fn cached_parallel_engine_matches_reference_for_every_policy() {
    // The policy sweep runs on the custom-HW datapath (as in ablation A1 —
    // the pipelined CPU model only supports its native in-order policy).
    for &policy in &POLICIES {
        let cache = ScheduleCache::new();
        let mut pum = tlm_core::library::custom_hw("det", 2, 2);
        pum.execution.policy = policy;
        for (module, _) in jobs(8 << 10, 4 << 10) {
            assert_matches_oracles(&module, &pum, &cache, &format!("{policy:?}"));
        }
    }
}

#[test]
fn sweep_runs_algorithm1_at_most_once_per_datapath_block_pair() {
    // A cache-size sweep only changes the statistical models, so after the
    // first sweep point every schedule must come from the cache: misses
    // never grow past the first point's count, and that count equals the
    // number of distinct (datapath, block) pairs (= resident entries).
    let cache = ScheduleCache::new();
    let sweep = [(2u32 << 10, 2u32 << 10), (8 << 10, 4 << 10), (32 << 10, 16 << 10)];

    let mut first_point_misses = None;
    for (ic, dc) in sweep {
        for (module, pum) in jobs(ic, dc) {
            annotate_cached(&module, &pum, &cache);
        }
        let stats = cache.stats();
        match first_point_misses {
            None => {
                assert!(stats.misses > 0, "first sweep point must schedule something");
                first_point_misses = Some(stats.misses);
            }
            Some(first) => assert_eq!(
                stats.misses, first,
                "a later sweep point re-ran Algorithm 1: \
                 the schedule domain must not depend on cache sizes"
            ),
        }
    }

    // Every miss created exactly one entry: misses == distinct
    // (datapath, block) pairs, i.e. Algorithm 1 ran at most once per pair.
    let stats = cache.stats();
    assert_eq!(
        stats.misses, stats.entries as u64,
        "duplicate Algorithm 1 runs for the same (datapath, block) pair"
    );
    assert!(stats.hits > 0, "later sweep points were served from the cache");
}

#[test]
fn distinct_datapaths_do_not_share_schedules() {
    // The same module estimated under two different policies must occupy
    // distinct cache entries (correctness guard against over-sharing).
    let cache = ScheduleCache::new();
    let jobs = jobs(8 << 10, 4 << 10);
    let module = &jobs[0].0;
    let base = tlm_core::library::custom_hw("guard", 2, 2);
    let mut asap = base.clone();
    asap.execution.policy = SchedulingPolicy::Asap;
    let mut alap = base;
    alap.execution.policy = SchedulingPolicy::Alap;

    annotate_cached(module, &asap, &cache);
    let after_first = cache.stats();
    annotate_cached(module, &alap, &cache);
    let after_second = cache.stats();
    assert_eq!(
        after_second.misses,
        after_first.misses * 2,
        "a different policy is a different schedule domain"
    );
}
