//! Integration tests of the `repro` observability surface: `--metrics`,
//! `--trace`, `--profile`, and the snapshot-backed `--stats`.
//!
//! The contract (DESIGN.md §14): observability never perturbs stdout —
//! figure bytes are identical with and without every obs flag — and
//! everything the run *reports* about itself comes from one coherent
//! registry snapshot taken after the sweeps finished. Wall-clock metrics (`is_timing_metric` names) are excluded
//! from golden comparisons; everything else in the Prometheus
//! exposition is data-derived and byte-stable.

use std::process::Command;
use ucore_obs::SpanKind;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn repro_with_fault(args: &[&str], spec: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("UCORE_FAULT_INJECT", spec)
        .output()
        .expect("repro binary runs")
}

/// A scratch path under the system temp dir, removed before use.
fn scratch(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ucore-obs-cli-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Drops every metric family with a timing-convention name (`_ns`,
/// `_us`, `_ms`, `_seconds` suffixes) from a Prometheus exposition,
/// leaving only the data-derived — and therefore byte-stable —
/// families.
fn strip_timing_families(exposition: &str) -> String {
    let mut out = String::new();
    let mut in_timing_family = false;
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().unwrap_or("");
            in_timing_family = ucore_obs::is_timing_metric(family);
        }
        if !in_timing_family {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------
// stdout is never perturbed
// ---------------------------------------------------------------------

#[test]
fn obs_flags_do_not_perturb_figure_output() {
    let plain = repro(&["--json", "figure-6"]);
    let metrics_path = scratch("perturb-m.txt");
    let trace_path = scratch("perturb-t.bin");
    let observed = repro(&[
        "--json", "figure-6",
        "--metrics", metrics_path.to_str().unwrap(),
        "--trace", trace_path.to_str().unwrap(),
        "--profile",
    ]);
    assert!(plain.status.success() && observed.status.success());
    assert_eq!(
        plain.stdout, observed.stdout,
        "figure-6 stdout must be byte-identical with obs armed"
    );
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&trace_path);
}

// ---------------------------------------------------------------------
// --metrics: golden Prometheus exposition
// ---------------------------------------------------------------------

/// The timing-filtered exposition of a `--json figure-6` run. Figure 6
/// sweeps one batch of 120 all-distinct points, so every counter here
/// is fixed by the model, not the machine. Regenerate with
/// `cargo test -p ucore-bench --test obs_cli -- --ignored --nocapture`
/// after intentional pipeline changes.
const FIGURE6_METRICS_GOLDEN: &str = "\
# TYPE ucore_cache_entries gauge
ucore_cache_entries 120
# TYPE ucore_cache_hits counter
ucore_cache_hits 0
# TYPE ucore_cache_lookups counter
ucore_cache_lookups 120
# TYPE ucore_cache_misses counter
ucore_cache_misses 120
# TYPE ucore_failures_dropped counter
ucore_failures_dropped 0
# TYPE ucore_failures_retained counter
ucore_failures_retained 0
# TYPE ucore_journal_appends counter
ucore_journal_appends 0
# TYPE ucore_journal_hits counter
ucore_journal_hits 0
# TYPE ucore_journal_stale counter
ucore_journal_stale 0
# TYPE ucore_journal_syncs counter
ucore_journal_syncs 0
# TYPE ucore_journal_write_errors counter
ucore_journal_write_errors 0
# TYPE ucore_points_failed counter
ucore_points_failed 0
# TYPE ucore_points_infeasible counter
ucore_points_infeasible 0
# TYPE ucore_points_ok counter
ucore_points_ok 120
# TYPE ucore_points_retries counter
ucore_points_retries 0
# TYPE ucore_points_speedup histogram
ucore_points_speedup_bucket{le=\"1\"} 0
ucore_points_speedup_bucket{le=\"2\"} 0
ucore_points_speedup_bucket{le=\"5\"} 5
ucore_points_speedup_bucket{le=\"10\"} 40
ucore_points_speedup_bucket{le=\"20\"} 56
ucore_points_speedup_bucket{le=\"50\"} 96
ucore_points_speedup_bucket{le=\"100\"} 120
ucore_points_speedup_bucket{le=\"500\"} 120
ucore_points_speedup_bucket{le=\"+Inf\"} 120
ucore_points_speedup_count 120
# TYPE ucore_points_submitted counter
ucore_points_submitted 120
# TYPE ucore_sweep_batches counter
ucore_sweep_batches 1
";

/// The value of one unlabeled sample line in a Prometheus exposition.
fn sample(exposition: &str, family: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let (name, value) = line.split_once(' ')?;
        if name == family { value.parse().ok() } else { None }
    })
}

#[test]
fn metrics_exposition_matches_golden() {
    let path = scratch("golden-m.txt");
    let out = repro(&["--json", "figure-6", "--metrics", path.to_str().unwrap()]);
    assert!(out.status.success());
    let exposition = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    // The unfiltered file carries the timing histogram too.
    assert!(
        exposition.contains("ucore_sweep_point_us_count 120"),
        "timing histogram present in the raw exposition:\n{exposition}"
    );
    assert_eq!(strip_timing_families(&exposition), FIGURE6_METRICS_GOLDEN);

    // Journaled, every fsync counts: one per full `SYNC_BATCH` of the
    // 120 appends, plus the sweep-final one when records are left over.
    // A clean journal is never fsync'd again (guard and writer drop).
    let journal = scratch("golden-j.jsonl");
    let journaled = |resume: bool| {
        let mut args = vec!["--journal", journal.to_str().unwrap()];
        if resume {
            args.push("--resume");
        }
        args.extend(["--json", "figure-6", "--metrics", path.to_str().unwrap()]);
        let out = repro(&args);
        assert!(out.status.success());
        let exposition = std::fs::read_to_string(&path).expect("metrics file written");
        let _ = std::fs::remove_file(&path);
        (out.stdout, exposition)
    };
    let (first, exposition) = journaled(false);
    assert_eq!(sample(&exposition, "ucore_journal_appends"), Some(120), "{exposition}");
    let syncs = 120usize.div_ceil(ucore_project::journal::SYNC_BATCH) as u64;
    assert_eq!(sample(&exposition, "ucore_journal_syncs"), Some(syncs), "{exposition}");

    // Resuming the complete journal appends nothing, so it fsyncs nothing.
    let (resumed, exposition) = journaled(true);
    let _ = std::fs::remove_file(&journal);
    assert_eq!(sample(&exposition, "ucore_journal_appends"), Some(0), "{exposition}");
    assert_eq!(sample(&exposition, "ucore_journal_syncs"), Some(0), "{exposition}");
    assert_eq!(resumed, first, "a resumed run's stdout is byte-identical");
}

/// Prints the golden above from the current build. Run with
/// `-- --ignored --nocapture` and paste after intentional changes.
#[test]
#[ignore = "regeneration helper, not a check"]
fn dump_goldens() {
    let path = scratch("dump-m.txt");
    let out = repro(&["--json", "figure-6", "--metrics", path.to_str().unwrap()]);
    assert!(out.status.success());
    let exposition = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    println!("FIGURE6_METRICS_GOLDEN:\n{}", strip_timing_families(&exposition));
}

// ---------------------------------------------------------------------
// --trace: golden schema of the binary span stream
// ---------------------------------------------------------------------

#[test]
fn trace_file_decodes_with_the_expected_schema() {
    let path = scratch("schema-t.bin");
    let out = repro(&["--json", "figure-6", "--trace", path.to_str().unwrap()]);
    assert!(out.status.success());
    let bytes = std::fs::read(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);

    let trace = ucore_obs::Trace::decode(&bytes).expect("trace decodes");
    // The name table is sorted bytewise at freeze, so its contents and
    // order are part of the format contract.
    assert_eq!(
        trace.names,
        vec![
            "engine.node_point".to_string(),
            "engine.optimize".to_string(),
            "project.sweep".to_string(),
        ]
    );
    assert_eq!(trace.dropped, 0, "figure 6 fits the default ring");
    // 1 sweep + 120 node points + 120 optimizer calls, enter + exit each.
    assert_eq!(trace.events.len(), 2 * (1 + 120 + 120));
    let enters = trace.events.iter().filter(|e| e.kind == SpanKind::Enter).count();
    let exits = trace.events.iter().filter(|e| e.kind == SpanKind::Exit).count();
    assert_eq!(enters, exits);
    // The sweep records every span on its caller's thread.
    let thread = trace.events[0].thread;
    assert!(
        trace.events.iter().all(|e| e.thread == thread),
        "every span of the sweep is recorded on one thread"
    );
    // On one thread the freeze order is the record order: ticks are
    // strictly increasing and the first/last events bracket the sweep.
    for pair in trace.events.windows(2) {
        assert!(pair[0].tick < pair[1].tick, "ticks strictly increase on one thread");
    }
    assert_eq!(trace.name(trace.events[0].name), "project.sweep");
    assert_eq!(trace.events[0].kind, SpanKind::Enter);
    let last = trace.events.last().unwrap();
    assert_eq!(trace.name(last.name), "project.sweep");
    assert_eq!(last.kind, SpanKind::Exit);
}

// ---------------------------------------------------------------------
// --profile
// ---------------------------------------------------------------------

#[test]
fn profile_prints_a_phase_table_on_stderr_only() {
    let plain = repro(&["--json", "figure-6"]);
    let profiled = repro(&["--json", "figure-6", "--profile"]);
    assert!(profiled.status.success());
    assert_eq!(plain.stdout, profiled.stdout, "profile never touches stdout");
    let err = String::from_utf8(profiled.stderr).unwrap();
    assert!(err.contains("--- repro --profile ---"), "{err}");
    assert!(err.contains("phase"), "table header: {err}");
    assert!(err.contains("project.sweep"), "{err}");
    assert!(err.contains("engine.node_point"), "{err}");
    assert!(err.contains("engine.optimize"), "{err}");
    assert!(err.contains("folded stacks"), "{err}");
    assert!(
        err.contains("project.sweep;engine.node_point;engine.optimize"),
        "nested folded stack: {err}"
    );
}

// ---------------------------------------------------------------------
// --stats reads one coherent snapshot (regression for the old
// counter-by-counter reads)
// ---------------------------------------------------------------------

#[test]
fn stats_lines_are_mutually_consistent_from_one_snapshot() {
    let out = repro_with_fault(
        &["--stats", "--max-failures", "9", "--figure", "6"],
        "panic@3",
    );
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    // All three stats lines below render the same snapshot, so their
    // numbers must agree exactly — the old implementation re-read live
    // atomics per line and could not promise that.
    assert!(err.contains("points: 119 ok, 0 infeasible, 1 failed"), "{err}");
    assert!(err.contains("evaluations run: 119"), "{err}");
    assert!(err.contains("cache: 0 hits, 119 misses, 119 entries"), "{err}");
    assert!(err.contains("failure log: 1 retained"), "{err}");
}

#[test]
fn failure_policing_reads_the_same_snapshot_as_stats() {
    let out = repro_with_fault(&["--stats", "--figure", "6"], "panic@3");
    assert_eq!(out.status.code(), Some(2), "threshold breach uses exit code 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("points: 119 ok, 0 infeasible, 1 failed"), "{err}");
    assert!(err.contains("points_failed: 1"), "{err}");
}

// ---------------------------------------------------------------------
// flag surface
// ---------------------------------------------------------------------

#[test]
fn obs_flags_validate_and_suggest() {
    for (flag, want) in [
        ("--metrisc", "did you mean --metrics?"),
        ("--profiel", "did you mean --profile?"),
        ("--trase", "did you mean --trace?"),
    ] {
        let out = repro(&[flag, "6"]);
        assert!(!out.status.success(), "{flag}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(want), "{flag}: {err}");
    }
    for flag in ["--metrics", "--trace"] {
        let out = repro(&["--json", "figure-6", flag]);
        assert!(!out.status.success(), "{flag}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("{flag} needs a value")), "{flag}: {err}");
    }
    let out = repro(&["--help"]);
    let text = String::from_utf8(out.stdout).unwrap();
    for flag in ["--metrics PATH", "--trace PATH", "--profile"] {
        assert!(text.contains(flag), "usage mentions {flag}: {text}");
    }
}
