//! `explore`: in-process design-space exploration.
//!
//! Each op draws a CPU PUM variant no earlier op used (one FU mode renamed
//! and re-delayed, so its schedule domain is new) and estimates every
//! process of the four MP3 designs over the five cache-sweep points
//! through `Pipeline::annotated` and `Pipeline::process_report`. Sources
//! are warm, so Algorithms 1 and 2 (`core`) and the `pipeline` stores do
//! the work; nothing is simulated and nothing crosses a socket.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use tlm_apps::designs::{mp3_design, CACHE_SWEEP};
use tlm_apps::{Mp3Design, Mp3Params};
use tlm_core::annotate::annotate_uncached;
use tlm_core::batch::batch_stats;
use tlm_core::schedule::scratch_stats;
use tlm_core::Pum;
use tlm_pipeline::{EstimateReport, Pipeline, PipelineError, PipelineStats, PreparedDesign};

use crate::common::{
    count_stage_misses, demand, end_to_end, mp3_sources, peak_rss_mib, repeat_setup, warm_sources,
    Clock, Config, Layers, Outcome, Rng, Tracer,
};

/// Resident key bytes the pipeline's stage stores may hold: 4 MiB each,
/// about 16 ops' worth of the 30 annotated and 30 report entries an op
/// inserts. Unbounded, the stores (and peak memory) would grow with run
/// speed.
const BUDGET: u64 = 48 << 20;
/// Resident key bytes of the Algorithm 1 schedule cache: about 140 ops'
/// worth of the 30 schedules an op solves in its fresh domain.
const SCHEDULE_BUDGET: u64 = 512 << 10;
/// Cache sizes the designs are built with; each sweep point re-derives
/// every PUM from these.
const BASE_CACHES: (u32, u32) = (8 << 10, 4 << 10);
/// Ops run during set-up to fill the stores and the allocator.
const WARMUP_OPS: u64 = 64;
/// Every `SAMPLE_EVERY`-th timed op is kept for the output check…
const SAMPLE_EVERY: u64 = 128;
/// …up to this many.
const MAX_SAMPLES: usize = 3;
/// Ops per second the traced run sizes its fixed op count by.
const NOMINAL_OPS_PER_S: f64 = 120.0;

/// Op-index streams, so warm-up, timed and traced ops never share a PUM.
const WARMUP_STREAM: u64 = 0;
const TIMED_STREAM: u64 = 1;
const TRACED_STREAM: u64 = 2;
const UNTRACED_STREAM: u64 = 3;

struct State {
    pipeline: Pipeline,
    designs: Vec<PreparedDesign>,
    base_cpu: Pum,
}

/// The CPU PUM of op `i`: one FU mode renamed (mode names are part of the
/// schedule domain) and given a fresh delay.
fn cpu_variant(base: &Pum, seed: u64, stream: u64, i: u64) -> Pum {
    let mut rng = Rng::for_item(seed, 0x00e7_0000 + stream, i);
    let mut pum = base.clone();
    let units = pum.datapath.units.len() as u64;
    let unit = &mut pum.datapath.units[rng.below(units) as usize];
    let modes = unit.modes.len() as u64;
    let mode = &mut unit.modes[rng.below(modes) as usize];
    mode.name = format!("{}-s{stream}v{i}", mode.name);
    mode.delay = 1 + rng.below(12) as u32;
    pum
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<State, PipelineError> {
    let pipeline = Pipeline::with_budget(BUDGET);
    pipeline.schedule_cache().set_budget(SCHEDULE_BUDGET);
    warm_sources(&pipeline, tr, &mp3_sources())?;
    let (ic, dc) = BASE_CACHES;
    let designs = Mp3Design::ALL
        .iter()
        .map(|&d| {
            tr.time("pipeline.design", || mp3_design(&pipeline, d, Mp3Params::evaluation(), ic, dc))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let base_cpu = designs[0].platform.pes[0].pum.clone();
    let state = State { pipeline, designs, base_cpu };
    for i in 0..WARMUP_OPS {
        op(&state, seed, WARMUP_STREAM, i, tr, false)?;
    }
    Ok(state)
}

/// One op: every (design, sweep point, process) estimate under op `i`'s
/// CPU variant. Returns the reports in that order when `keep` is set.
fn op(
    state: &State,
    seed: u64,
    stream: u64,
    i: u64,
    tr: &mut Tracer,
    keep: bool,
) -> Result<Vec<Arc<EstimateReport>>, PipelineError> {
    tr.open("bench.op");
    let variant = cpu_variant(&state.base_cpu, seed, stream, i);
    let mut kept = Vec::new();
    let result = (|| {
        for design in &state.designs {
            let platform = &design.platform;
            for &(_, ic, dc) in &CACHE_SWEEP {
                let pums: Vec<Pum> = platform
                    .pes
                    .iter()
                    .map(|pe| {
                        let pum = if pe.name == "cpu" { &variant } else { &pe.pum };
                        pum.with_cache_sizes(ic, dc)
                    })
                    .collect();
                for (proc, artifact) in platform.processes.iter().zip(design.artifacts()) {
                    let pum = &pums[proc.pe.0];
                    demand(tr, "core.annotate", "pipeline.lookup", || {
                        state.pipeline.annotated(artifact, pum)
                    })?;
                    let report = demand(tr, "pipeline.report", "pipeline.lookup", || {
                        state.pipeline.process_report(artifact, pum)
                    })?;
                    if keep {
                        kept.push(report);
                    }
                }
            }
        }
        Ok(())
    })();
    tr.close();
    result.map(|()| kept)
}

/// Compares a kept op's reports with the uncached reference annotation
/// (`annotate_uncached`), memoized per (module, PUM) within the check.
fn check(
    state: &State,
    seed: u64,
    stream: u64,
    i: u64,
    reports: &[Arc<EstimateReport>],
    memo: &mut HashMap<(Vec<u8>, String), EstimateReport>,
) -> Result<(), String> {
    let variant = cpu_variant(&state.base_cpu, seed, stream, i);
    let mut k = 0;
    for design in &state.designs {
        let platform = &design.platform;
        for &(label, ic, dc) in &CACHE_SWEEP {
            for (proc, artifact) in platform.processes.iter().zip(design.artifacts()) {
                let pe = &platform.pes[proc.pe.0];
                let pum =
                    if pe.name == "cpu" { &variant } else { &pe.pum }.with_cache_sizes(ic, dc);
                let key = (artifact.key().to_vec(), pum.estimate_domain());
                if !memo.contains_key(&key) {
                    let timed = annotate_uncached(artifact.module(), &pum)
                        .map_err(|e| format!("op {i}: reference annotation failed: {e}"))?;
                    memo.insert(key.clone(), EstimateReport::of(&timed));
                }
                if *reports[k] != memo[&key] {
                    return Err(format!(
                        "op {i}: {} {label} {}: pipeline report differs from annotate_uncached",
                        platform.name, proc.name
                    ));
                }
                k += 1;
            }
        }
    }
    Ok(())
}

/// The end-to-end run.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.started, false);
    let (state, setups) =
        repeat_setup(cfg.started, || setup(cfg.seed, &mut tr).expect("explore set-up"), drop);

    let mut samples = Vec::new();
    let clock = Clock::run(cfg.seconds, |i| {
        let keep = i % SAMPLE_EVERY == 0 && samples.len() < MAX_SAMPLES;
        match op(&state, cfg.seed, TIMED_STREAM, i, &mut tr, keep) {
            Ok(reports) if keep => samples.push((i, reports)),
            Ok(_) => {}
            Err(e) => out.fail(format!("op {i}: {e}")),
        }
    });
    let rss = peak_rss_mib();
    out.attempted = clock.ops();

    let mut memo = HashMap::new();
    for (i, reports) in &samples {
        if let Err(e) = check(&state, cfg.seed, TIMED_STREAM, *i, reports, &mut memo) {
            out.fail(e);
        }
    }
    out.notes.push(format!("checked {} sampled ops against annotate_uncached", samples.len()));
    end_to_end(&mut out, &setups, &clock, rss);
    out
}

fn counters(pipeline: &Pipeline) -> (PipelineStats, u64, u64, u64) {
    let batch = batch_stats();
    (pipeline.stats(), batch.unique_solves, batch.dedup_hits, scratch_stats().allocs)
}

/// The traced run: a traced set-up, then the same fixed number of ops
/// untraced and traced.
pub fn run_traced(cfg: &Config, layers: &mut Layers) -> Outcome {
    count_stage_misses();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.started, true);
    let state = setup(cfg.seed, &mut tr).expect("explore set-up");
    layers.setup(tr.spans());
    tr.clear();

    let n = ((cfg.seconds * NOMINAL_OPS_PER_S / 2.0).round() as u64).max(2);
    let mut off = Tracer::new(cfg.started, false);
    let t0 = Instant::now();
    for i in 0..n {
        if let Err(e) = op(&state, cfg.seed, UNTRACED_STREAM, i, &mut off, false) {
            out.fail(format!("untraced op {i}: {e}"));
        }
    }
    let untraced = t0.elapsed();

    let (p0, solves0, dedup0, allocs0) = counters(&state.pipeline);
    let t0 = Instant::now();
    let mut first = Vec::new();
    for i in 0..n {
        match op(&state, cfg.seed, TRACED_STREAM, i, &mut tr, i == 0) {
            Ok(reports) if i == 0 => first = reports,
            Ok(_) => {}
            Err(e) => out.fail(format!("traced op {i}: {e}")),
        }
    }
    let traced = t0.elapsed();
    let (p1, solves1, dedup1, allocs1) = counters(&state.pipeline);
    out.attempted = 2 * n;

    if let Err(e) = check(&state, cfg.seed, TRACED_STREAM, 0, &first, &mut HashMap::new()) {
        out.fail(e);
    }

    layers.ops(tr.spans(), n);
    layers.spans = vec![tr.spans().to_vec()];
    layers.overhead(untraced, traced);
    layers.set("core.unique_solves", (solves1 - solves0) as f64);
    layers.set("core.dedup_hits", (dedup1 - dedup0) as f64);
    layers.set("core.scratch_allocs", (allocs1 - allocs0) as f64);
    layers.pipeline_deltas(&p0, &p1);
    out
}
