//! Integration tests of the bench-trajectory CLI: `--bench-snapshot`
//! recording and the `--bench-check` comparator — schema stability,
//! determinism modulo timing, exit codes, and tolerance-breach
//! diagnostics, all through the real `repro` binary.

use std::process::Command;
use ucore_bench::snapshot::{BenchSnapshot, SCHEMA_VERSION};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        // Keep measurement cheap: these tests check plumbing, not speed.
        .env("UCORE_BENCH_BUDGET_MS", "10")
        .output()
        .expect("repro binary runs")
}

/// A scratch directory under the system temp dir, created fresh.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ucore-bench-cli-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("scratch dir creates");
    path
}

fn read_snapshot(path: &std::path::Path) -> BenchSnapshot {
    BenchSnapshot::from_slice(&std::fs::read(path).expect("snapshot file exists"))
        .expect("snapshot parses")
}

/// The ids every kernels snapshot must carry, in bench order.
const KERNEL_IDS: [&str; 7] = [
    "kernels/mmm/naive/64",
    "kernels/mmm/blocked/64",
    "kernels/mmm/naive/128",
    "kernels/mmm/blocked/128",
    "kernels/fft/256",
    "kernels/fft/4096",
    "kernels/black_scholes/serial",
];

const SWEEP_IDS: [&str; 9] = [
    "sweep/sequential",
    "sweep/cached",
    "optimize/exhaustive",
    "optimize/pruned",
    "portfolio/allocate",
    "portfolio/exhaustive",
    "journal/fingerprint",
    "journal/encode",
    "journal/decode",
];

#[test]
fn snapshot_writes_both_topics_with_stable_schema() {
    let dir = scratch_dir("snapshot-all");
    let out = repro(&["--bench-snapshot", "all", "--bench-dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "snapshot reports on stderr only");

    let kernels = read_snapshot(&dir.join("BENCH_kernels.json"));
    assert_eq!(kernels.schema_version, SCHEMA_VERSION);
    assert_eq!(kernels.topic, "kernels");
    assert_eq!(kernels.time_unit, "ns");
    let ids: Vec<&str> = kernels.entries.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids, KERNEL_IDS, "ids and order are part of the schema");
    for e in &kernels.entries {
        assert!(e.median_ns > 0.0, "{} must have a positive median", e.id);
        assert!(e.iters >= 1 && e.samples >= 3, "{} calibrated", e.id);
    }

    let sweep = read_snapshot(&dir.join("BENCH_sweep.json"));
    assert_eq!(sweep.topic, "sweep");
    let ids: Vec<&str> = sweep.entries.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids, SWEEP_IDS);
}

#[test]
fn snapshot_json_is_deterministic_modulo_timing_fields() {
    // Two independent captures must agree on everything except the
    // measured numbers: key order, ids, entry order, units, version.
    let dir = scratch_dir("determinism");
    let first = repro(&["--bench-snapshot", "kernels", "--bench-dir", dir.to_str().unwrap()]);
    assert!(first.status.success());
    let a = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
    let second = repro(&["--bench-snapshot", "kernels", "--bench-dir", dir.to_str().unwrap()]);
    assert!(second.status.success());
    let b = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();

    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| {
                let l = l.trim_start();
                !(l.starts_with("\"median_ns\"")
                    || l.starts_with("\"iters\"")
                    || l.starts_with("\"samples\""))
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&a), strip(&b), "only timing fields may differ");
    // And the key order within the file is the declared order.
    let pos =
        |s: &str, key: &str| s.find(key).unwrap_or_else(|| panic!("{key} missing"));
    assert!(pos(&a, "schema_version") < pos(&a, "\"topic\""));
    assert!(pos(&a, "\"topic\"") < pos(&a, "time_unit"));
    assert!(pos(&a, "time_unit") < pos(&a, "\"entries\""));
}

#[test]
fn check_passes_against_a_generous_baseline() {
    // A baseline with huge medians can never be breached: exit 0 and a
    // pass line on stdout.
    let dir = scratch_dir("check-pass");
    let out = repro(&["--bench-snapshot", "kernels", "--bench-dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let path = dir.join("BENCH_kernels.json");
    let mut snap = read_snapshot(&path);
    for e in &mut snap.entries {
        e.median_ns *= 1e6;
    }
    std::fs::write(&path, snap.to_json().unwrap()).unwrap();

    let out = repro(&["--bench-check", "kernels", "--bench-dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("bench-check kernels: ok"), "{stdout}");
}

#[test]
fn check_fails_with_exit_2_on_injected_regression() {
    // Doctoring the baseline to absurdly small medians simulates a
    // regression in every benchmark; the comparator must exit 2 and
    // name each breach with its ratio and tolerance.
    let dir = scratch_dir("check-fail");
    let out = repro(&["--bench-snapshot", "kernels", "--bench-dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let path = dir.join("BENCH_kernels.json");
    let mut snap = read_snapshot(&path);
    for e in &mut snap.entries {
        e.median_ns = 0.001;
    }
    std::fs::write(&path, snap.to_json().unwrap()).unwrap();

    let out = repro(&["--bench-check", "kernels", "--bench-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "tolerance breach is a policy failure");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bench regression: kernels/mmm/naive/64"), "{err}");
    assert!(err.contains("> x2.00"), "default tolerance is 2.0: {err}");
    assert!(err.contains("bench-check failed: 7 benchmark(s)"), "{err}");
}

#[test]
fn check_compares_recorded_files_without_measuring() {
    // --bench-against + --bench-current make the comparator pure file
    // vs file, so exit codes can be pinned without timing noise.
    let dir = scratch_dir("file-vs-file");
    let mk = |name: &str, ns: f64| -> std::path::PathBuf {
        let snap = BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            topic: "kernels".to_string(),
            time_unit: "ns".to_string(),
            entries: vec![ucore_bench::snapshot::BenchEntry {
                id: "kernels/mmm/naive/64".to_string(),
                median_ns: ns,
                iters: 1,
                samples: 3,
            }],
        };
        let path = dir.join(name);
        std::fs::write(&path, snap.to_json().unwrap()).unwrap();
        path
    };
    let base = mk("base.json", 100.0);
    let slower = mk("slower.json", 190.0);
    let breach = mk("breach.json", 500.0);

    // 1.9x slower passes at the default 2.0 tolerance...
    let out = repro(&[
        "--bench-check", "kernels",
        "--bench-against", base.to_str().unwrap(),
        "--bench-current", slower.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // ...but fails once the tolerance is tightened below the ratio.
    let out = repro(&[
        "--bench-check", "kernels",
        "--bench-against", base.to_str().unwrap(),
        "--bench-current", slower.to_str().unwrap(),
        "--bench-tolerance", "1.5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("x1.90 > x1.50"), "{err}");

    // A 5x slowdown breaches the default tolerance.
    let out = repro(&[
        "--bench-check", "kernels",
        "--bench-against", base.to_str().unwrap(),
        "--bench-current", breach.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("500 ns vs baseline 100 ns"), "{err}");
}

#[test]
fn check_refuses_mismatched_schema_versions() {
    let dir = scratch_dir("schema-mismatch");
    let mk = |name: &str, version: u32| -> std::path::PathBuf {
        let snap = BenchSnapshot {
            schema_version: version,
            topic: "kernels".to_string(),
            time_unit: "ns".to_string(),
            entries: vec![],
        };
        let path = dir.join(name);
        std::fs::write(&path, snap.to_json().unwrap()).unwrap();
        path
    };
    let base = mk("base.json", SCHEMA_VERSION);
    let future = mk("future.json", SCHEMA_VERSION + 1);
    let out = repro(&[
        "--bench-check", "kernels",
        "--bench-against", base.to_str().unwrap(),
        "--bench-current", future.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "meaningless comparison is an error, not a breach");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("schema mismatch"), "{err}");
}

#[test]
fn usage_errors_are_clean() {
    // Unknown topic.
    let out = repro(&["--bench-snapshot", "nonsense"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("kernels|sweep|all"), "{err}");

    // Baseline/current overrides without a single-topic check.
    let out = repro(&["--bench-against", "x.json", "--bench-snapshot", "kernels"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--bench-against"), "{err}");
    let out = repro(&["--bench-check", "all", "--bench-current", "x.json"]);
    assert_eq!(out.status.code(), Some(1));

    // Tolerance below 1.0 makes no sense (faster-is-fine by design).
    let out = repro(&["--bench-check", "kernels", "--bench-tolerance", "0.5"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--bench-tolerance"), "{err}");

    // Typo'd bench flag gets a did-you-mean hint.
    let out = repro(&["--bench-snapshots", "kernels"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean --bench-snapshot?"), "{err}");

    // Missing baseline file is an IO error (1), not a breach (2).
    let dir = scratch_dir("missing-baseline");
    let out = repro(&["--bench-check", "sweep", "--bench-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}
