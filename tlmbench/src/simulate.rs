//! `simulate`: timed TLM simulation, the paper's simulation column.
//!
//! Each op builds one MP3 design (rotating SW, SW+1, SW+2, SW+4) with a
//! seeded bitstream, demands its annotation (a warm hit) and runs the
//! timed TLM through `tlm_platform::tlm::run_annotated`. `cdfg`
//! interpretation, `desim` and `platform` do the work; `core` and `serve`
//! are idle.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use tlm_apps::designs::mp3_design;
use tlm_apps::{Mp3Design, Mp3Params};
use tlm_pipeline::{Pipeline, PipelineError};
use tlm_platform::tlm::{run_annotated, TlmConfig, TlmReport};

use crate::common::{
    end_to_end, mp3_sources, peak_rss_mib, repeat_setup, warm_sources, Clock, Config, Layers,
    Outcome, Rng, Tracer,
};

/// Cache sizes every design is built with (the paper's base point).
const CACHES: (u32, u32) = (8 << 10, 4 << 10);
/// Frames decoded per op.
const FRAMES: u32 = 3;
/// Distinct bitstreams the ops rotate through.
const BITSTREAMS: usize = 2;
/// Ops per second the traced run sizes its fixed op count by.
const NOMINAL_OPS_PER_S: f64 = 6.0;

struct State {
    pipeline: Pipeline,
    bitstreams: [i32; BITSTREAMS],
}

/// What one op's outputs are checked by, after the timed region.
struct OpRecord {
    design: Mp3Design,
    bitstream: i32,
    finished: bool,
    outputs: u64,
}

/// The (design, bitstream) of op `i`: the design rotates fastest.
fn op_input(state: &State, i: u64) -> (Mp3Design, i32) {
    let designs = Mp3Design::ALL.len() as u64;
    (
        Mp3Design::ALL[(i % designs) as usize],
        state.bitstreams[((i / designs) % BITSTREAMS as u64) as usize],
    )
}

fn outputs_hash(report: &TlmReport) -> u64 {
    let mut h = DefaultHasher::new();
    report.outputs.hash(&mut h);
    h.finish()
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<State, PipelineError> {
    let pipeline = Pipeline::new();
    let mut rng = Rng::for_item(seed, 0x5170, 0);
    let bitstreams = [(); BITSTREAMS].map(|()| (rng.next() >> 33) as i32);
    warm_sources(&pipeline, tr, &mp3_sources())?;
    let state = State { pipeline, bitstreams };
    // Annotate every design once (the ops then hit), and simulate one
    // op's worth to settle the allocator.
    for i in 0..Mp3Design::ALL.len() as u64 {
        let (design, bitstream) = op_input(&state, i);
        let params = Mp3Params { seed: bitstream, frames: FRAMES };
        let prepared = mp3_design(&state.pipeline, design, params, CACHES.0, CACHES.1)?;
        state.pipeline.annotate_design(&prepared)?;
    }
    op(&state, 0, tr)?;
    Ok(state)
}

/// One op: build, annotate (hit) and simulate op `i`'s design.
fn op(state: &State, i: u64, tr: &mut Tracer) -> Result<(OpRecord, TlmReport), PipelineError> {
    let (design, bitstream) = op_input(state, i);
    tr.open("bench.op");
    let result = (|| {
        let params = Mp3Params { seed: bitstream, frames: FRAMES };
        let prepared = tr.time("pipeline.design", || {
            mp3_design(&state.pipeline, design, params, CACHES.0, CACHES.1)
        })?;
        let annotated = tr.time("pipeline.lookup", || state.pipeline.annotate_design(&prepared))?;
        let report = tr.time("platform.run", || {
            run_annotated(&prepared.platform, Some(&annotated), &TlmConfig::default())
        });
        Ok((
            OpRecord {
                design,
                bitstream,
                finished: report.all_finished(),
                outputs: outputs_hash(&report),
            },
            report,
        ))
    })();
    tr.close();
    result
}

/// Every op finished, and its outputs equal the functional (untimed) TLM
/// of the same design and bitstream.
fn check(state: &State, records: &[OpRecord], out: &mut Outcome) {
    let mut functional: BTreeMap<(usize, i32), u64> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if !r.finished {
            out.fail(format!("op {i}: {} did not finish every process", r.design));
            continue;
        }
        let index = Mp3Design::ALL.iter().position(|&d| d == r.design).expect("known design");
        let expected = *functional.entry((index, r.bitstream)).or_insert_with(|| {
            let params = Mp3Params { seed: r.bitstream, frames: FRAMES };
            mp3_design(&state.pipeline, r.design, params, CACHES.0, CACHES.1)
                .map(|prepared| {
                    outputs_hash(&state.pipeline.run_functional(&prepared, &TlmConfig::default()))
                })
                .unwrap_or(0)
        });
        if r.outputs != expected {
            out.fail(format!("op {i}: {} outputs differ from the functional TLM", r.design));
        }
    }
}

/// The end-to-end run.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.started, false);
    let (state, setups) =
        repeat_setup(cfg.started, || setup(cfg.seed, &mut tr).expect("simulate set-up"), drop);

    let mut records = Vec::new();
    let clock = Clock::run(cfg.seconds, |i| match op(&state, i, &mut tr) {
        Ok((record, _)) => records.push(record),
        Err(e) => out.fail(format!("op {i}: {e}")),
    });
    let rss = peak_rss_mib();
    out.attempted = clock.ops();
    check(&state, &records, &mut out);
    end_to_end(&mut out, &setups, &clock, rss);
    out
}

/// The traced run: a traced set-up, then the same fixed number of ops
/// untraced and traced.
pub fn run_traced(cfg: &Config, layers: &mut Layers) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.started, true);
    let state = setup(cfg.seed, &mut tr).expect("simulate set-up");
    layers.setup(tr.spans());
    tr.clear();

    let n =
        ((cfg.seconds * NOMINAL_OPS_PER_S / 2.0).round() as u64).max(Mp3Design::ALL.len() as u64);
    let mut records = Vec::new();
    let mut off = Tracer::new(cfg.started, false);
    let t0 = Instant::now();
    for i in 0..n {
        match op(&state, i, &mut off) {
            Ok((record, _)) => records.push(record),
            Err(e) => out.fail(format!("untraced op {i}: {e}")),
        }
    }
    let untraced = t0.elapsed();

    let before = state.pipeline.stats();
    let (mut interp_ops, mut events, mut resumes, mut deltas) = (0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..n {
        match op(&state, i, &mut tr) {
            Ok((record, report)) => {
                records.push(record);
                interp_ops += report.processes.values().map(|p| p.stats.ops).sum::<u64>();
                events += report.sim.events_fired;
                resumes += report.sim.resumes;
                deltas += report.sim.deltas;
            }
            Err(e) => out.fail(format!("traced op {i}: {e}")),
        }
    }
    let traced = t0.elapsed();
    let after = state.pipeline.stats();
    out.attempted = 2 * n;
    check(&state, &records, &mut out);

    layers.ops(tr.spans(), n);
    layers.spans = vec![tr.spans().to_vec()];
    layers.overhead(untraced, traced);
    layers.pipeline_deltas(&before, &after);
    layers.set("cdfg.interp_ops", interp_ops as f64);
    layers.set("desim.events_fired", events as f64);
    layers.set("desim.resumes", resumes as f64);
    layers.set("desim.deltas", deltas as f64);
    let run_ns = layers.get("platform.run_ms") * 1e6 * n as f64;
    layers.set("platform.ns_per_interp_op", run_ns / interp_ops.max(1) as f64);
    out
}
