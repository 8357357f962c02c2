//! The `--bench-json` flag and the record writer behind `BENCH_serve.json`.
//!
//! [`bench_json_path`] parses the flag and [`write_bench_json`] writes the
//! machine-readable record `loadgen` emits next to its gate report.

use std::path::{Path, PathBuf};

use tlm_json::Value;

/// Parses the `--bench-json` flag from the process arguments:
/// `--bench-json` alone selects `BENCH_serve.json`, `--bench-json=P` or
/// `--bench-json P` selects `P`. Unrelated arguments are ignored.
pub fn bench_json_path() -> Option<PathBuf> {
    bench_json_path_in(std::env::args().skip(1))
}

fn bench_json_path_in(args: impl IntoIterator<Item = String>) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--bench-json" {
            let path = args.next().unwrap_or_default();
            return Some(if path.is_empty() || path.starts_with('-') {
                PathBuf::from("BENCH_serve.json")
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
        assert_eq!(parse(&["--bench-json"]), Some(PathBuf::from("BENCH_serve.json")));
        assert_eq!(parse(&["--bench-json", "out.json"]), Some(PathBuf::from("out.json")));
        assert_eq!(parse(&["--bench-json=x.json"]), Some(PathBuf::from("x.json")));
        assert_eq!(
            parse(&["--bench-json", "--bench"]),
            Some(PathBuf::from("BENCH_serve.json")),
            "a following flag is not a path"
        );
    }
}
