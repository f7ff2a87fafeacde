//! Integration tests of the shard protocol's core invariants.
//!
//! The contract under test (see DESIGN.md "Sharded execution"):
//!
//! * A worker with an active `ShardSpec` lease evaluates and journals
//!   **only** its lease; everything else is skipped without touching
//!   the journal or the outcome counters.
//! * Shard journals merged in shard order are byte-identical to the
//!   journal of a single sequential run over the same grid — the merge
//!   is index-sorted and deterministic for any interleaving.
//! * Overlapping shard journals (a reassigned lease executed by two
//!   workers) dedupe deterministically: matching fingerprints keep the
//!   later record, mismatched fingerprints reject the later write.
//! * Missing shard journals and torn tails are tolerated and counted,
//!   never errors.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use ucore_calibrate::WorkloadColumn;
use ucore_core::EvalCache;
use ucore_project::durability::{DurabilityConfig, RunContext};
use ucore_project::journal::{read_records, replay, JournalRecord, JournalWriter, ReplayLookup};
use ucore_project::shard::{lease_ranges, merge_journals, shard_journal_path, ShardSpec};
use ucore_project::sweep::{
    figure_points, sweep_in, Outcome, SweepConfig, SweepPoint, SweepResult, SweepStats,
};
use ucore_project::{DesignId, ProjectionEngine, Scenario};

/// Sweeps `points` under a context opened from `config`; the journal is
/// fsync'd when the sweep ends.
fn sweep_under(
    e: &ProjectionEngine,
    points: Vec<SweepPoint>,
    config: DurabilityConfig,
) -> (Vec<SweepResult>, SweepStats) {
    let (ctx, _) = RunContext::open(config).unwrap();
    sweep_in(e, points, &SweepConfig::default(), &ctx)
}

fn engine() -> ProjectionEngine {
    ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
        .unwrap()
}

fn grid(engine: &ProjectionEngine) -> Vec<SweepPoint> {
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    figure_points(engine, &designs, WorkloadColumn::Fft1024, &[0.5, 0.999]).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ucore-shard-it-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    path
}

fn synthetic_record(index: usize, fingerprint: u64, outcome: Outcome) -> JournalRecord {
    JournalRecord { sweep_seq: 0, index, fingerprint, retries: 0, outcome }
}

fn write_journal(path: &Path, records: &[JournalRecord]) {
    let mut w = JournalWriter::create(path).unwrap();
    for r in records {
        w.append(r).unwrap();
    }
}

/// A worker's lease restricts evaluation AND journaling: the shard
/// journal holds exactly the lease's indices, in-lease outcomes match
/// an unsharded run bit-for-bit, and everything else is counted as
/// skipped (not infeasible).
#[test]
fn worker_lease_sweeps_and_journals_only_the_lease() {
    let e = engine();
    let points = grid(&e);
    let total = points.len();
    let spec = ShardSpec::new(1, 4).unwrap();
    let lease = spec.lease(total);
    assert!(!lease.is_empty(), "the test grid must give shard 1/4 a real lease");

    // Unsharded reference run (an inert context).
    let (reference, _) = sweep_under(&e, points.clone(), DurabilityConfig::default());

    let path = temp_path("lease");
    let (sharded, stats) = sweep_under(
        &e,
        points,
        DurabilityConfig { journal: Some(path.clone()), shard: Some(spec), ..Default::default() },
    );

    assert_eq!(stats.points, total);
    assert_eq!(stats.points_skipped, total - lease.len());
    assert_eq!(
        stats.points_ok + stats.points_infeasible + stats.points_failed,
        lease.len(),
        "only the lease is evaluated"
    );
    for (r, s) in reference.iter().zip(&sharded) {
        if lease.contains(&r.index) {
            assert_eq!(r.outcome, s.outcome, "in-lease index {}", r.index);
        }
    }

    let (records, report) = read_records(&path).unwrap();
    assert!(!report.torn_tail);
    assert_eq!(records.len(), lease.len(), "one record per leased point");
    for rec in &records {
        assert!(lease.contains(&rec.index), "index {} outside the lease", rec.index);
    }
    let _ = fs::remove_file(&path);
}

/// Four in-process "workers" (one shard context each, with its own
/// journal) cover the grid; merging their journals
/// yields a file byte-identical to the journal of one unsharded
/// sequential run — the merge invariant behind figure byte-identity.
#[test]
fn merged_shard_journals_equal_the_single_run_journal_bytes() {
    let e = engine();
    let points = grid(&e);

    let single = temp_path("single");
    let config = DurabilityConfig { journal: Some(single.clone()), ..Default::default() };
    let _ = sweep_under(&e, points.clone(), config);
    let single_bytes = fs::read(&single).unwrap();

    let merged = temp_path("merged");
    let shard_paths: Vec<PathBuf> =
        (0..4).map(|i| shard_journal_path(&merged, i)).collect();
    for (i, path) in shard_paths.iter().enumerate() {
        let _ = fs::remove_file(path);
        let config = DurabilityConfig {
            journal: Some(path.clone()),
            shard: Some(ShardSpec::new(i, 4).unwrap()),
            ..Default::default()
        };
        let _ = sweep_under(&e, points.clone(), config);
    }
    let report = merge_journals(&shard_paths, &merged).unwrap();
    assert_eq!(report.records, points.len());
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.missing, 0);
    assert_eq!(
        report.per_shard_records,
        lease_ranges(points.len(), 4)
            .iter()
            .map(|r| r.end - r.start)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        fs::read(&merged).unwrap(),
        single_bytes,
        "merged shard journals must be byte-identical to the single-run journal"
    );
    for path in &shard_paths {
        let _ = fs::remove_file(path);
    }
    let _ = fs::remove_file(&single);
    let _ = fs::remove_file(&merged);
}

/// Satellite: a reassigned lease executed by two workers produces
/// overlapping journals; the merge dedupes them deterministically
/// (same fingerprint ⇒ one slot, later record wins, repeated merges
/// byte-identical).
#[test]
fn overlapping_shard_journals_dedupe_deterministically() {
    let a_path = temp_path("overlap-a");
    let b_path = temp_path("overlap-b");
    let fp = |i: usize| 0x1000 + i as u64;
    let a: Vec<JournalRecord> =
        (0..10).map(|i| synthetic_record(i, fp(i), Outcome::Infeasible)).collect();
    // Worker B re-executed indices 5..10 (same fingerprints, same
    // deterministic outcomes) and continued through 15.
    let b: Vec<JournalRecord> =
        (5..15).map(|i| synthetic_record(i, fp(i), Outcome::Infeasible)).collect();
    write_journal(&a_path, &a);
    write_journal(&b_path, &b);

    let merged = temp_path("overlap-merged");
    let shards = vec![a_path.clone(), b_path.clone()];
    let report = merge_journals(&shards, &merged).unwrap();
    assert_eq!(report.records, 15, "each slot exactly once");
    assert_eq!(report.duplicates, 5, "the 5 re-executed slots deduped");
    assert_eq!(report.rejected, 0);
    let (records, _) = read_records(&merged).unwrap();
    let indices: Vec<usize> = records.iter().map(|r| r.index).collect();
    assert_eq!(indices, (0..15).collect::<Vec<_>>(), "index-sorted output");

    // Merging again produces the identical bytes.
    let first = fs::read(&merged).unwrap();
    merge_journals(&shards, &merged).unwrap();
    assert_eq!(fs::read(&merged).unwrap(), first, "merge is deterministic");

    for p in [a_path, b_path, merged] {
        let _ = fs::remove_file(&p);
    }
}

/// Satellite: a later write whose fingerprint disagrees with the slot's
/// first record is rejected — the first record survives and replaying
/// the merged journal returns it.
#[test]
fn mismatched_fingerprint_rejects_the_later_write() {
    let a_path = temp_path("mismatch-a");
    let b_path = temp_path("mismatch-b");
    write_journal(&a_path, &[synthetic_record(3, 0xAAAA, Outcome::Infeasible)]);
    write_journal(
        &b_path,
        &[synthetic_record(
            3,
            0xBBBB,
            Outcome::Failed { panic_msg: "suspect re-execution".into() },
        )],
    );

    let merged = temp_path("mismatch-merged");
    let report = merge_journals(&[a_path.clone(), b_path.clone()], &merged).unwrap();
    assert_eq!(report.records, 1);
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.rejected, 1, "the conflicting write is rejected");

    let (map, _) = replay(&merged).unwrap();
    let ReplayLookup::Hit(rec) = map.lookup(0, 3, 0xAAAA) else {
        panic!("the first record must hold the slot");
    };
    assert_eq!(rec.outcome, Outcome::Infeasible, "first write kept");
    assert_eq!(map.lookup(0, 3, 0xBBBB), ReplayLookup::Stale);

    for p in [a_path, b_path, merged] {
        let _ = fs::remove_file(&p);
    }
}

/// Missing shard journals (an abandoned lease that never appended) and
/// torn tails (a worker killed mid-append) are tolerated and counted.
#[test]
fn merge_tolerates_missing_journals_and_torn_tails() {
    let a_path = temp_path("tolerate-a");
    let missing = temp_path("tolerate-missing");
    let torn = temp_path("tolerate-torn");
    write_journal(&a_path, &[synthetic_record(0, 1, Outcome::Infeasible)]);
    write_journal(
        &torn,
        &[
            synthetic_record(1, 2, Outcome::Infeasible),
            synthetic_record(2, 3, Outcome::Infeasible),
        ],
    );
    // Tear the torn journal's final record mid-line.
    let bytes = fs::read(&torn).unwrap();
    fs::write(&torn, &bytes[..bytes.len() - 7]).unwrap();

    let merged = temp_path("tolerate-merged");
    let report =
        merge_journals(&[a_path.clone(), missing.clone(), torn.clone()], &merged).unwrap();
    assert_eq!(report.missing, 1);
    assert_eq!(report.torn_tails, 1);
    assert_eq!(report.records, 2, "intact records from a + torn survive");
    assert_eq!(report.per_shard_records, vec![1, 0, 1]);

    for p in [a_path, torn, merged] {
        let _ = fs::remove_file(&p);
    }
}

/// The sibling-path convention the orchestrator and workers agree on.
#[test]
fn shard_journal_paths_are_merged_journal_siblings() {
    let merged = PathBuf::from("/tmp/run.jsonl");
    assert_eq!(
        shard_journal_path(&merged, 3),
        PathBuf::from("/tmp/run.jsonl.shard3")
    );
}
