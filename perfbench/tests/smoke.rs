//! Self-test: a short run of every workload, untraced and traced, must
//! print every metric `BENCHMARK.json` names with its unit, fail no
//! check, and leave no journal behind. `repro-cold`, which the benchmark
//! runs on request but `BENCHMARK.json` does not list, is run too.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).expect("a list")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("a string")
}

/// Runs one workload for a second and returns its result line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ucore-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn every_workload_prints_every_metric_and_fails_no_check() {
    let manifest = manifest();
    let listed = list(&manifest, "workloads").iter().map(|w| text(w, "name"));
    for name in listed.chain(["repro-cold"]) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) > Some(0),
                "{name}"
            );
            let metrics = result.get("metrics").expect("metrics");
            for metric in list(&manifest, key) {
                let got = metrics.get(text(metric, "name")).unwrap_or_else(|| {
                    panic!("{name} --trace {trace}: no {}", text(metric, "name"))
                });
                assert_eq!(text(got, "unit"), text(metric, "unit"), "{name}");
                let value = got.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {got:?}");
            }
            if trace == "1" {
                let error_rate = metrics.get("error_rate").and_then(|m| m.get("value"));
                assert_eq!(error_rate.and_then(Value::as_f64), Some(0.0), "{name}");
            }
        }
    }
    let journals = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    assert!(
        !journals.exists(),
        "journal directory {} was left behind",
        journals.display()
    );
}
