//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tlmbench/Cargo.toml -- \
//!     --workload explore|simulate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` one run reports the end-to-end metrics of a workload:
//! set-up time, throughput, median and 90th-percentile op latency, peak
//! memory, and the estimate error against the cycle-accurate board. With
//! `--trace 1` it times every layer call from here and reports per-layer
//! self times and the counters the crates export; the spans are written as
//! a Chrome trace under `tlmbench/out/`. Outputs are checked after the
//! timed region; any mismatch makes the run fail. The last stdout line is
//! the result object. See `tlmbench/README.md` for what each metric should
//! move.

mod common;
mod explore;
mod serve;
mod simulate;

use std::process::ExitCode;
use std::time::Instant;

use common::{chrome_trace, estimate_error_pct, Config, Layers, Outcome};

/// The end-to-end metrics every `--trace 0` run reports, in order.
const END_TO_END: [&str; 6] =
    ["setup_s", "throughput_per_s", "p50_ms", "p90_ms", "peak_rss_mib", "error_pct"];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// workload that does not touch a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 42] = [
    ("minic.parse_ms", "ms"),
    ("cdfg.lower_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.annotate_ms", "ms"),
    ("core.unique_solves", "count"),
    ("core.dedup_hits", "count"),
    ("core.scratch_allocs", "count"),
    ("pipeline.schedules.misses", "count"),
    ("pipeline.lookup_ms", "ms"),
    ("pipeline.report_ms", "ms"),
    ("pipeline.design_ms", "ms"),
    ("pipeline.annotated.hits", "count"),
    ("pipeline.annotated.misses", "count"),
    ("pipeline.report.hits", "count"),
    ("pipeline.report.misses", "count"),
    ("pipeline.rows.misses", "count"),
    ("pipeline.resident_bytes", "bytes"),
    ("pipeline.evictions", "count"),
    ("pipeline.hit_us", "us"),
    ("platform.run_ms", "ms"),
    ("platform.ns_per_interp_op", "ns"),
    ("cdfg.interp_ops", "count"),
    ("desim.events_fired", "count"),
    ("desim.resumes", "count"),
    ("desim.deltas", "count"),
    ("serve.rtt_ms.totals", "ms"),
    ("serve.rtt_ms.blocks", "ms"),
    ("serve.rtt_ms.edit", "ms"),
    ("serve.handle_ms.totals", "ms"),
    ("serve.handle_ms.blocks", "ms"),
    ("serve.handle_ms.edit", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.response_kib", "KiB"),
    ("serve.rejected", "count"),
    ("json.encode_ms", "ms"),
    ("session.edit_ms", "ms"),
    ("session.dirty_blocks", "count"),
    ("bench.glue_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["explore", "simulate", "serve"];

const USAGE: &str =
    "usage: tlmbench --workload explore|simulate|serve --seed N --seconds S --trace 0|1";

fn parse_args(started: Instant) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config { seed: 1, seconds: 10.0, trace: false, started };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value == "1",
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let (workload, cfg) = match parse_args(started) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut layers = Layers::default();
    let mut out: Outcome = match (workload.as_str(), cfg.trace) {
        ("explore", false) => explore::run(&cfg),
        ("explore", true) => explore::run_traced(&cfg, &mut layers),
        ("simulate", false) => simulate::run(&cfg),
        ("simulate", true) => simulate::run_traced(&cfg, &mut layers),
        ("serve", false) => serve::run(&cfg),
        _ => serve::run_traced(&cfg, &mut layers),
    };

    if cfg.trace {
        for name in layers.names() {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "undeclared per-layer metric {name}");
        }
        out.metrics.clear();
        for (name, unit) in PER_LAYER {
            out.metric(name, layers.get(name), unit);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{workload}-{}.json", cfg.seed);
        let threads: Vec<&[common::Span]> = layers.spans.iter().map(Vec::as_slice).collect();
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace(&threads, 20_000)))
        {
            Ok(()) => out.notes.push(format!("chrome trace: {path}")),
            Err(e) => out.notes.push(format!("chrome trace not written: {e}")),
        }
    } else {
        match estimate_error_pct() {
            Ok(error) => out.metric("error_pct", error, "%"),
            Err(e) => {
                out.fail(e);
                out.metric("error_pct", 100.0, "%");
            }
        }
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "end-to-end metrics out of order");
    }

    println!("workload {workload}, seed {}, {} s, trace {}", cfg.seed, cfg.seconds, cfg.trace);
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  fail_ratio {} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", out.result_line());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
