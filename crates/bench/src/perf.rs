//! Benchmark timing and the `BENCH_estimation.json` emitter.
//!
//! [`time`] measures one call; [`bench_json_path`] and [`write_bench_json`]
//! implement the `--bench-json` flag the experiment binaries share,
//! emitting a machine-readable performance record (`BENCH_estimation.json`
//! by default) next to the human-readable tables.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tlm_json::{ObjectBuilder, Value};
use tlm_pipeline::PipelineStats;

/// Renders a pipeline snapshot as a JSON object keyed by stage name, one
/// `{hits, misses, entries, bytes}` record per stage — the shape shared by
/// every `--bench-json` record that drives the artifact pipeline.
pub fn pipeline_stats_json(stats: &PipelineStats) -> Value {
    let mut b = ObjectBuilder::new();
    for (name, s) in stats.stages() {
        b = b.field(
            name,
            ObjectBuilder::new()
                .field("hits", Value::Number(s.hits as f64))
                .field("misses", Value::Number(s.misses as f64))
                .field("entries", Value::Number(s.entries as f64))
                .field("bytes", Value::Number(s.bytes as f64))
                .build(),
        );
    }
    b.build()
}

/// Times one call of `f`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Parses the shared `--bench-json` flag from the process arguments:
/// `--bench-json` alone selects `BENCH_estimation.json`, `--bench-json=P`
/// or `--bench-json P` selects `P`. Unrelated arguments are ignored.
pub fn bench_json_path() -> Option<PathBuf> {
    bench_json_path_in(std::env::args().skip(1))
}

fn bench_json_path_in(args: impl IntoIterator<Item = String>) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--bench-json" {
            let path = args.next().unwrap_or_default();
            return Some(if path.is_empty() || path.starts_with('-') {
                PathBuf::from("BENCH_estimation.json")
            } else {
                PathBuf::from(path)
            });
        }
        if let Some(path) = arg.strip_prefix("--bench-json=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Writes a JSON performance record and tells the user where it went.
///
/// # Panics
///
/// Panics if the file cannot be written (benchmarks want loud failures).
pub fn write_bench_json(path: &Path, value: &Value) {
    let mut text = value.to_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("bench JSON is writable");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<PathBuf> {
        bench_json_path_in(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn flag_forms() {
        assert_eq!(parse(&[]), None);
        assert_eq!(parse(&["--bench"]), None);
        assert_eq!(parse(&["--bench-json"]), Some(PathBuf::from("BENCH_estimation.json")));
        assert_eq!(parse(&["--bench-json", "out.json"]), Some(PathBuf::from("out.json")));
        assert_eq!(parse(&["--bench-json=x.json"]), Some(PathBuf::from("x.json")));
        assert_eq!(
            parse(&["--bench-json", "--bench"]),
            Some(PathBuf::from("BENCH_estimation.json")),
            "a following flag is not a path"
        );
    }
}
