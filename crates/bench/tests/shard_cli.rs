//! Integration tests of the `repro` binary's sharded execution mode:
//! `--shards N` orchestration, `--shard i/n` workers, crash/stall
//! tolerance, argument validation, and signal-flushed journals.
//!
//! The load-bearing contract: at every shard count — including runs
//! where a worker is killed or stalled mid-sweep and its lease is
//! reassigned — the rendered stdout is byte-identical to the
//! single-process run.

use std::process::Command;
use std::time::{Duration, Instant};

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

/// A scratch path under the system temp dir, removed (with any shard
/// siblings) before use.
fn scratch(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ucore-shard-cli-{}-{tag}",
        std::process::id()
    ));
    cleanup(&path);
    path
}

/// Remove a merged journal and every shard sibling it may have grown.
fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for i in 0..16 {
        let _ = std::fs::remove_file(format!("{}.shard{i}", path.display()));
        let _ = std::fs::remove_file(format!("{}.shard{i}.log", path.display()));
    }
}

/// `--shards N` output is byte-identical to the single-process run at
/// every supported shard count, including the degenerate N = 1 — also
/// when each first-attempt worker is killed at point 17 and its lease
/// goes to a respawn without the one-shot fault.
#[test]
fn sharded_output_is_byte_identical_at_all_shard_counts() {
    let baseline = repro(&["--json", "figure-6"]);
    assert!(baseline.status.success());

    let runs = ["1", "2", "4", "8"].into_iter().flat_map(|n| [(n, ""), (n, "kill@17")]);
    for (shards, fault) in runs {
        let journal = scratch(&format!("ident-{shards}.jsonl"));
        let out = repro_with_fault(&[
            "--shards", shards,
            "--journal", journal.to_str().unwrap(),
            "--json", "figure-6",
        ], fault);
        assert!(out.status.success(), "--shards {shards} {fault}");
        assert_eq!(
            out.stdout, baseline.stdout,
            "--shards {shards} {fault} must render the exact single-process bytes"
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("shards: merged"), "merge summary (--shards {shards}): {err}");
        assert_eq!(err.contains("reassigning its lease"), !fault.is_empty(), "{fault}: {err}");
        cleanup(&journal);
    }
}

/// A worker killed mid-sweep gets its lease reassigned; the reassigned
/// worker (spawned without the one-shot fault environment) finishes the
/// lease and the merged output is still byte-identical.
#[test]
fn killed_worker_lease_is_reassigned_and_output_unchanged() {
    let baseline = repro(&["--json", "figure-6"]);
    assert!(baseline.status.success());

    let journal = scratch("kill.jsonl");
    let out = repro_with_fault(
        &[
            "--shards", "4",
            "--journal", journal.to_str().unwrap(),
            "--stats",
            "--json", "figure-6",
        ],
        "kill@50",
    );
    assert!(out.status.success(), "the fleet survives a worker kill");
    assert_eq!(out.stdout, baseline.stdout, "output unchanged after reassignment");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("reassigning its lease"), "{err}");
    assert!(err.contains("sharding:"), "shard stats block: {err}");
    assert!(err.contains("shard merge:"), "merge stats line: {err}");
    assert!(err.contains("crashed"), "{err}");
    cleanup(&journal);
}

/// A worker that stops journaling is detected by the heartbeat monitor,
/// killed, and its lease reassigned — the run still completes with
/// byte-identical output.
#[test]
fn stalled_worker_is_killed_and_lease_reassigned() {
    let baseline = repro(&["--json", "figure-6"]);
    assert!(baseline.status.success());

    let journal = scratch("stall.jsonl");
    let out = repro_with_fault(
        &[
            "--shards", "4",
            "--shard-stall-ms", "1500",
            "--journal", journal.to_str().unwrap(),
            "--json", "figure-6",
        ],
        "stall@50",
    );
    assert!(out.status.success(), "the fleet survives a stalled worker");
    assert_eq!(out.stdout, baseline.stdout);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("made no journal progress"), "{err}");
    assert!(err.contains("reassigning its lease"), "{err}");
    cleanup(&journal);
}

/// Worker mode (`--shard i/n`) journals exactly its lease of the grid —
/// the balanced contiguous split of the full journal's record count.
#[test]
fn worker_mode_journals_exactly_its_lease() {
    // Size the lease from a full single-process journal rather than a
    // hard-coded grid size.
    let full = scratch("full.jsonl");
    let out = repro(&["--journal", full.to_str().unwrap(), "--json", "figure-6"]);
    assert!(out.status.success());
    let total = std::fs::read_to_string(&full).unwrap().lines().count();
    assert!(total > 0);
    cleanup(&full);

    let journal = scratch("worker.jsonl");
    let out = repro(&[
        "--shard", "1/4",
        "--journal", journal.to_str().unwrap(),
        "--json", "figure-6",
    ]);
    assert!(out.status.success(), "worker mode is an ordinary run");
    let records = std::fs::read_to_string(&journal).unwrap().lines().count();
    let (base, rem) = (total / 4, total % 4);
    assert_eq!(
        records,
        base + usize::from(1 < rem),
        "shard 1/4 journals its balanced lease of {total} points"
    );
    cleanup(&journal);
}

#[test]
fn shard_flags_are_validated() {
    for (args, needle) in [
        (vec!["--shards", "4", "--json", "figure-6"], "--shards requires --journal"),
        (vec!["--shards", "0", "--journal", "/tmp/x", "--json", "figure-6"], "--shards"),
        (
            vec!["--shards", "2", "--shard", "0/2", "--journal", "/tmp/x", "--json", "figure-6"],
            "mutually exclusive",
        ),
        (
            vec!["--shards", "2", "--journal", "/tmp/x", "--resume", "--json", "figure-6"],
            "--resume",
        ),
        (vec!["--shard", "4/4", "--journal", "/tmp/x", "--json", "figure-6"], "--shard"),
        (vec!["--shard", "1of4", "--journal", "/tmp/x", "--json", "figure-6"], "--shard"),
        (vec!["--shard", "0/2", "--json", "figure-6"], "--shard requires --journal"),
        (
            vec!["--shards", "2", "--journal", "/tmp/x", "--bench-snapshot", "kernels"],
            "rendering command",
        ),
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} is a usage error");
        assert!(out.stdout.is_empty(), "{args:?} renders nothing");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage"), "{args:?}: {err}");
    }
}

/// SIGTERM flushes the journal before exiting 143, and the flushed
/// journal resumes to byte-identical output — the contract the
/// orchestrator's stall-kill path (and any operator Ctrl-C) relies on.
#[cfg(unix)]
#[test]
fn sigterm_flushes_the_journal_and_the_run_resumes() {
    let baseline = repro(&["--json", "figure-6"]);
    assert!(baseline.status.success());

    let journal = scratch("sigterm.jsonl");
    // stall@100 parks the run after ~100 journaled points so the TERM
    // lands mid-run deterministically.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--journal", journal.to_str().unwrap(), "--json", "figure-6"])
        .env("UCORE_FAULT_INJECT", "stall@100")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("repro binary spawns");

    // Wait for the journal to reach its pre-stall plateau: a nonzero
    // size that holds still across two polls.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let len = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        if len > 0 && len == last {
            break;
        }
        last = len;
        assert!(Instant::now() < deadline, "journal never plateaued");
    }

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let status = child.wait().expect("child reaped");
    assert_eq!(status.code(), Some(143), "SIGTERM exits 128 + 15");

    let records = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert!(records > 0, "the handler flushed completed points");

    let resumed = repro(&[
        "--journal", journal.to_str().unwrap(),
        "--resume",
        "--json", "figure-6",
    ]);
    assert!(resumed.status.success());
    assert_eq!(resumed.stdout, baseline.stdout, "resume is byte-identical");
    let err = String::from_utf8(resumed.stderr).unwrap();
    assert!(err.contains("resume: replayed"), "{err}");
    cleanup(&journal);
}
