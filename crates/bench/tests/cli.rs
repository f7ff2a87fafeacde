//! Integration tests of the `repro` binary itself — argument handling,
//! exit codes, and the shape of its output.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn table_five_prints_the_grid() {
    let out = repro(&["--table", "5"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Table 5"));
    assert!(text.contains("ASIC"));
    assert!(text.contains("FFT-16384"));
}

#[test]
fn figures_and_scenarios_render() {
    for args in [
        ["--figure", "5"],
        ["--figure", "6"],
        ["--figure", "10"],
        ["--scenario", "2"],
    ] {
        let out = repro(&args);
        assert!(out.status.success(), "{args:?}");
        assert!(!out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn json_export_parses() {
    let out = repro(&["--json", "figure-8"]);
    assert!(out.status.success());
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(parsed["id"], "figure-8");
    assert!(parsed["panels"].as_array().unwrap().len() == 2);
}

#[test]
fn json_export_is_deterministic_and_well_formed() {
    // Two independent processes — separate caches, separate sweeps —
    // must print byte-identical JSON for every exported figure, with
    // the id/panels/series/points schema the downstream tooling diffs.
    for which in [
        "figure-6", "figure-7", "figure-8", "figure-9", "figure-10", "figure-11",
    ] {
        let first = repro(&["--json", which]);
        let second = repro(&["--json", which]);
        assert!(first.status.success(), "{which}");
        assert_eq!(first.stdout, second.stdout, "{which} json must be deterministic");

        let parsed: serde_json::Value = serde_json::from_slice(&first.stdout).unwrap();
        assert_eq!(parsed["id"], which);
        assert!(parsed["title"].is_string(), "{which} has a title");
        let panels = parsed["panels"].as_array().unwrap();
        assert!(!panels.is_empty(), "{which} has panels");
        for panel in panels {
            assert!(panel["f"].is_number(), "{which} panel carries its f");
            let series = panel["series"].as_array().unwrap();
            assert!(!series.is_empty(), "{which} panel has series");
            for s in series {
                assert!(s["label"].is_string());
                for point in s["points"].as_array().unwrap() {
                    assert!(point["node"].is_string(), "{which} point names its node");
                    assert!(point["speedup"].is_number());
                    assert!(point["limiter"].is_string());
                }
            }
        }
    }
}

#[test]
fn stats_flag_reports_counters_on_stderr_only() {
    let plain = repro(&["--figure", "6"]);
    let with_stats = repro(&["--stats", "--figure", "6"]);
    assert!(with_stats.status.success());
    // stdout is untouched: tools diffing repro output may not care
    // whether --stats was on.
    assert_eq!(plain.stdout, with_stats.stdout);

    let err = String::from_utf8(with_stats.stderr).unwrap();
    assert!(err.contains("repro --stats"), "stats header: {err}");
    assert!(err.contains("sweep phase 0:"), "per-sweep phase lines: {err}");
    assert!(err.contains("evaluations run:"), "evaluation count: {err}");
    assert!(err.contains("hit rate"), "cache summary: {err}");
    assert!(err.contains("total wall time"), "wall clock: {err}");
}

#[test]
fn stats_flag_composes_in_any_position() {
    let out = repro(&["--json", "figure-7", "--stats"]);
    assert!(out.status.success());
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(parsed["id"], "figure-7");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("repro --stats"), "{err}");
}

#[test]
fn csv_export_has_headers_and_rows() {
    let out = repro(&["--csv", "figure-10"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "figure,f,design,node,speedup,energy,limiter"
    );
    assert!(lines.count() > 50, "expected a row per (f, design, node)");
}

#[test]
fn experiments_export_includes_comparisons() {
    let out = repro(&["--experiments"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("### Table 5: paper vs derived"));
    assert!(text.contains("Crossovers"));
}

fn repro_with_fault(args: &[&str], spec: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("UCORE_FAULT_INJECT", spec)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_flag_suggests_the_nearest_known_one() {
    let out = repro(&["--figrue", "6"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag \"--figrue\""), "{err}");
    assert!(err.contains("did you mean --figure?"), "{err}");
    assert!(err.contains("usage"), "{err}");

    let out = repro(&["--stat"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean --stats?"), "{err}");
}

#[test]
fn max_failures_value_is_validated() {
    let out = repro(&["--max-failures", "lots", "--figure", "6"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--max-failures"), "{err}");
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn injected_fault_breaches_the_default_threshold() {
    // A forced panic at point 3 is contained: the figure still renders,
    // but the run exits nonzero with a structured diagnostic because the
    // default --max-failures is 0.
    let out = repro_with_fault(&["--figure", "6"], "panic@3");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2), "threshold breach uses exit code 2");
    assert!(!out.stdout.is_empty(), "figure renders despite the fault");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("sweep failures exceeded --max-failures"), "{err}");
    assert!(err.contains("points_failed: 1"), "{err}");
    assert!(err.contains("max_failures: 0"), "{err}");
    assert!(err.contains("failure at point 3"), "{err}");
    assert!(err.contains("injected panic at point 3"), "{err}");
}

#[test]
fn injected_fault_is_tolerated_with_max_failures_one() {
    let out = repro_with_fault(&["--max-failures", "1", "--figure", "6"], "panic@3");
    assert!(out.status.success(), "one failure is within --max-failures 1");
    assert!(!out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(!err.contains("exceeded"), "{err}");
}

#[test]
fn stats_report_outcome_counters() {
    let out = repro_with_fault(&["--stats", "--max-failures", "9", "--figure", "6"], "panic@3");
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("1 failed"), "per-phase failed count: {err}");
    assert!(err.contains("points:"), "global outcome totals: {err}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    for args in [
        vec!["--table", "9"],
        vec!["--figure", "1"],
        vec!["--scenario", "7"],
        vec!["--json", "figure-2"],
        vec!["--nonsense"],
        vec!["--table"],
        vec!["--timeout-ms", "0"],
        vec!["--timeout-ms", "soon"],
        vec!["--retries", "-1"],
        vec!["--journal"],
        vec!["--out"],
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        // Every failure explains itself: the usage line or a specific
        // out-of-range message.
        assert!(
            err.contains("usage") || err.contains("not one of"),
            "{args:?}: {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Durability: journals, resume, watchdog, retries, atomic artifacts
// ---------------------------------------------------------------------

/// A scratch path under the system temp dir, removed before use.
fn scratch(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ucore-cli-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn resume_without_journal_is_a_clean_usage_error() {
    let out = repro(&["--resume", "--json", "figure-6"]);
    assert_eq!(out.status.code(), Some(1), "usage error, not a crash");
    assert!(out.stdout.is_empty(), "nothing rendered");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--resume requires --journal"), "{err}");
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn resume_from_a_missing_journal_is_a_clean_error() {
    let path = scratch("missing.jsonl");
    let out = repro(&["--journal", path.to_str().unwrap(), "--resume", "--figure", "6"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("does not exist"), "{err}");
}

/// The end-to-end kill-and-resume contract: a run aborted by `kill@i`
/// leaves a journal; resuming it (without the fault) replays the
/// completed points and produces stdout byte-identical to a run that
/// was never interrupted.
#[test]
fn killed_run_resumes_to_byte_identical_output() {
    let baseline = repro(&["--json", "figure-6"]);
    assert!(baseline.status.success());

    let journal = scratch("kill.jsonl");
    let journal = journal.to_str().unwrap();
    let dead = repro_with_fault(&["--journal", journal, "--json", "figure-6"], "kill@40");
    assert!(!dead.status.success(), "kill@40 aborts the process");
    assert!(dead.stdout.is_empty(), "the aborted run rendered nothing");
    let journaled = std::fs::read_to_string(journal).unwrap();
    let records = journaled.lines().count();
    assert!(records > 0, "completed points were journaled before the abort");
    assert!(records < 120, "the run died before finishing");

    // Resume must reproduce the baseline exactly and re-evaluate only
    // the missing points.
    let resumed = repro(&["--journal", journal, "--resume", "--stats", "--json", "figure-6"]);
    assert!(resumed.status.success());
    assert_eq!(
        resumed.stdout, baseline.stdout,
        "resumed output must be byte-identical"
    );
    let err = String::from_utf8(resumed.stderr).unwrap();
    assert!(err.contains(&format!("resume: replayed {records} journaled")), "{err}");
    assert!(
        err.contains(&format!("durability: {records} journal hits")),
        "only missing points re-evaluate: {err}"
    );
    let _ = std::fs::remove_file(journal);
}

#[test]
fn out_flag_writes_the_exact_stdout_bytes_atomically() {
    let baseline = repro(&["--json", "figure-7"]);
    assert!(baseline.status.success());

    let artifact = scratch("fig7.json");
    let out = repro(&["--json", "figure-7", "--out", artifact.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "--out redirects stdout to the file");
    assert_eq!(
        std::fs::read(&artifact).unwrap(),
        baseline.stdout,
        "artifact bytes match stdout bytes exactly"
    );
    // And overwriting is atomic-replace, not append.
    let again = repro(&["--json", "figure-7", "--out", artifact.to_str().unwrap()]);
    assert!(again.status.success());
    assert_eq!(std::fs::read(&artifact).unwrap(), baseline.stdout);
    let _ = std::fs::remove_file(&artifact);
}

#[test]
fn stalled_point_is_released_by_the_watchdog_within_budget() {
    let start = std::time::Instant::now();
    let out = repro_with_fault(
        &["--timeout-ms", "200", "--max-failures", "1", "--stats", "--figure", "6"],
        "stall@3",
    );
    let elapsed = start.elapsed();
    assert!(out.status.success(), "one timeout within --max-failures 1");
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "the stall must not hang the run ({elapsed:?})"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("1 failed"), "the stalled point failed: {err}");
}

#[test]
fn stalled_point_breaches_default_tolerance_with_timeout_diagnostic() {
    let out = repro_with_fault(
        &["--timeout-ms", "150", "--figure", "6"],
        "stall@3",
    );
    assert_eq!(out.status.code(), Some(2), "a timed-out point is a failure");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("watchdog timeout: point 3 exceeded its 150 ms deadline"),
        "{err}"
    );
}

#[test]
fn transient_fault_is_recovered_by_retries() {
    // Without retries the transient fault breaches the default
    // tolerance...
    let out = repro_with_fault(&["--figure", "6"], "panic@3x1");
    assert_eq!(out.status.code(), Some(2));
    // ...with --retries 2 the second attempt succeeds and the run is
    // clean, its output identical to an unfaulted run.
    let baseline = repro(&["--json", "figure-6"]);
    let recovered = repro_with_fault(
        &["--retries", "2", "--stats", "--json", "figure-6"],
        "panic@3x1",
    );
    assert!(recovered.status.success(), "retry recovered the point");
    // The recovered figure data is identical; the health block honestly
    // reports the one retry it took, so normalize that field before
    // comparing.
    let recovered_json = String::from_utf8(recovered.stdout).unwrap();
    let baseline_json = String::from_utf8(baseline.stdout).unwrap();
    assert!(recovered_json.contains("\"retries\": 1"), "{recovered_json}");
    assert_eq!(
        recovered_json.replace("\"retries\": 1", "\"retries\": 0"),
        baseline_json,
        "recovered output is identical up to the retry count"
    );
    let err = String::from_utf8(recovered.stderr).unwrap();
    assert!(err.contains("1 retries"), "retry accounting in --stats: {err}");
}

#[test]
fn stats_surface_dropped_failures_beyond_the_log_cap() {
    // 70 injected panics overflow the 64-entry failure log; the
    // overflow must be visible, not silent.
    let spec: Vec<String> = (0..70).map(|i| format!("panic@{i}")).collect();
    let out = repro_with_fault(
        &["--max-failures", "100", "--stats", "--figure", "6"],
        &spec.join(","),
    );
    assert!(out.status.success(), "70 failures within --max-failures 100");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("70 failed"), "{err}");
    assert!(err.contains("failure log: 64 retained (cap 64), 6 dropped"), "{err}");
}

#[test]
fn unparsable_fault_plan_warns_once_per_sweep_even_when_journaling() {
    // The plan is resolved once per sweep; journal appends reuse it
    // rather than re-reading the environment for every point.
    let journal = scratch("bogus-plan.jsonl");
    let out = repro_with_fault(
        &["--journal", journal.to_str().unwrap(), "--json", "figure-6"],
        "bogus",
    );
    let _ = std::fs::remove_file(&journal);
    assert!(out.status.success(), "an ignored plan never fails the run");
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        err.matches("UCORE_FAULT_INJECT ignored").count(),
        1,
        "one sweep, one warning: {err}"
    );
}
