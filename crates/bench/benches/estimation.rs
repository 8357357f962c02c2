//! Benches of the estimation engine itself: Algorithm 1 per block,
//! full-module annotation (the "Anno." column of Table 1), the memoized
//! and parallel engine variants, and per-policy scheduling cost (ablation
//! A1's runtime counterpart). All inputs use fixed seeds, so runs are
//! reproducible.
//!
//! Runs under `cargo bench -p tlm-bench` (harness-less bench target); pass
//! `-- --bench-json=PATH` to save the measurements as JSON.

use std::hint::black_box;
use std::sync::Arc;

use tlm_apps::{kernels, mp3};
use tlm_bench::perf::{bench_json_path, write_bench_json, Bench};
use tlm_cdfg::dfg::block_dfg;
use tlm_cdfg::ir::Module;
use tlm_core::annotate::{annotate, annotate_arc_with, annotate_uncached};
use tlm_core::library;
use tlm_core::pum::SchedulingPolicy;
use tlm_core::schedule::schedule_block;
use tlm_core::ScheduleCache;
use tlm_json::{ObjectBuilder, Value};
use tlm_pipeline::Pipeline;

fn lower(src: &str) -> Arc<Module> {
    Arc::clone(Pipeline::global().frontend_with(src, false).expect("compiles").module())
}

fn bench_annotation(bench: &mut Bench) {
    let cpu = library::microblaze_like(8 << 10, 4 << 10);
    let hw = library::custom_hw("hw", 2, 2);
    let filter = lower(&mp3::filter_source(0, 1));
    let imdct = lower(&mp3::imdct_source(0, 1));
    for (name, module) in [("filtercore", &filter), ("imdct", &imdct)] {
        bench.run(&format!("cpu/{name}"), || {
            annotate(black_box(module), &cpu).expect("annotates");
        });
        bench.run(&format!("hw/{name}"), || {
            annotate(black_box(module), &hw).expect("annotates");
        });
    }
}

fn bench_engine_variants(bench: &mut Bench) {
    let cpu = library::microblaze_like(8 << 10, 4 << 10);
    let filter = lower(&mp3::filter_source(0, 1));
    bench.run("engine/per_block_uncached", || {
        annotate_uncached(black_box(&filter), &cpu).expect("annotates");
    });
    bench.run("engine/batched_uncached", || {
        annotate_arc_with(Arc::clone(&filter), &cpu, None, true).expect("annotates");
    });
    let cache = ScheduleCache::new();
    annotate_arc_with(Arc::clone(&filter), &cpu, Some(&cache), true).expect("warms cache");
    bench.run("engine/warm_cache", || {
        annotate_arc_with(Arc::clone(&filter), &cpu, Some(&cache), true).expect("annotates");
    });
}

fn bench_schedule_policies(bench: &mut Bench) {
    let module = lower(&kernels::matmul(16));
    let func = &module.functions[0];
    let (bid, block) = func.blocks_iter().max_by_key(|(_, b)| b.ops.len()).expect("has blocks");
    let dfg = block_dfg(block);
    for policy in [
        SchedulingPolicy::InOrder,
        SchedulingPolicy::Asap,
        SchedulingPolicy::Alap,
        SchedulingPolicy::List,
    ] {
        let mut pum = library::custom_hw("hw", 2, 2);
        pum.execution.policy = policy;
        bench.run(&format!("policy/{policy:?}"), || {
            schedule_block(black_box(&pum), block, &dfg, tlm_cdfg::FuncId(0), bid)
                .expect("schedules");
        });
    }
}

fn bench_frontend(bench: &mut Bench) {
    let src = mp3::filter_source(0, 1);
    // A fresh pipeline per iteration: this case measures the cold
    // parse+lower cost, not the (near-free) memoized path.
    bench.run("frontend/parse_and_lower_filtercore", || {
        Pipeline::new().frontend_with(black_box(&src), false).expect("compiles");
    });
}

fn main() {
    let mut bench = Bench::new("estimation");
    bench_annotation(&mut bench);
    bench_engine_variants(&mut bench);
    bench_schedule_policies(&mut bench);
    bench_frontend(&mut bench);
    if let Some(path) = bench_json_path() {
        let json = ObjectBuilder::new()
            .field("bench", Value::String(bench.name().into()))
            .field("cases", bench.to_value())
            .build();
        write_bench_json(&path, &json);
    }
}
