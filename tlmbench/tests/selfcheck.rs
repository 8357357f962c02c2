//! The benchmark's self-check, at tiny size: every metric `BENCHMARK.json`
//! declares is printed with its unit, no op fails, and the per-layer
//! counts of a traced run repeat exactly for the same seed.

use std::process::Command;

use tlm_json::Value;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let root = tlm_json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
    root.get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Runs one workload for a second and parses its result line.
fn run(workload: &str, trace: bool) -> Value {
    let trace = if trace { "1" } else { "0" };
    let out = Command::new(env!("CARGO_BIN_EXE_tlmbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1", "--trace", trace])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    tlm_json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

/// The result is correct and reports exactly the declared metrics, in
/// order, each with its unit.
fn check(workload: &str, result: &Value, declared: &[(String, String)]) {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}: fail_ratio 0");
    assert!(result.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1));
    let metrics = result.get("metrics").and_then(Value::as_object).expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected, "{workload}: metric names");
    for ((name, metric), (_, unit)) in metrics.iter().zip(declared) {
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
        assert!(metric.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite), "{name}");
    }
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .expect(name)
}

fn selfcheck(workload: &str) {
    check(workload, &run(workload, false), &declared("end_to_end"));
    let layers = declared("per_layer");
    let (first, second) = (run(workload, true), run(workload, true));
    check(workload, &first, &layers);
    check(workload, &second, &layers);
    for (name, unit) in &layers {
        if unit == "count" || unit == "bytes" {
            assert_eq!(value(&first, name), value(&second, name), "{workload}: {name} must repeat");
        }
    }
}

#[test]
fn explore() {
    selfcheck("explore");
}

#[test]
fn simulate() {
    selfcheck("simulate");
}

#[test]
fn serve() {
    selfcheck("serve");
}
