//! Integration tests of the durable-run contract.
//!
//! The contract under test (see DESIGN.md "Durability & recovery"):
//!
//! * A run interrupted at *any* point and resumed from its journal
//!   produces **byte-identical** figure JSON to an uninterrupted run,
//!   re-evaluating only the missing points.
//! * A journal whose final record is torn (the signature of a crash
//!   mid-append) resumes with a warning, never an error.
//! * A stalled point is released as `Failed{timeout}` within its
//!   `--timeout-ms` budget instead of hanging the sweep.
//! * Retries with backoff are deterministic, and replayed points
//!   restore their journaled retry accounting.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use ucore_calibrate::WorkloadColumn;
use ucore_core::EvalCache;
use ucore_project::durability::{self, DurabilityConfig, RunContext};
use ucore_project::faultinject::{Fault, FaultPlan};
use ucore_project::sweep::{
    figure_points, sweep, sweep_in, SweepConfig, SweepPoint, SweepResult, SweepStats,
};
use ucore_project::{figures, DesignId, ProjectionEngine, Scenario};

/// Tests that fill the process slot `durability::activate` fills, that
/// read the process-wide phase log or registry deltas, or that add
/// journal hits to that log, must not overlap. Tests that sweep under
/// their own [`RunContext`] and touch none of that run concurrently.
static SERIALIZE: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIALIZE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn engine() -> ProjectionEngine {
    ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
        .unwrap()
}

fn grid(engine: &ProjectionEngine) -> Vec<SweepPoint> {
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    figure_points(engine, &designs, WorkloadColumn::Fft1024, &[0.5, 0.999]).unwrap()
}

fn open(config: DurabilityConfig) -> RunContext {
    RunContext::open(config).unwrap().0
}

/// A default-configured sweep under `ctx`.
fn run(
    e: &ProjectionEngine,
    points: Vec<SweepPoint>,
    ctx: &RunContext,
) -> (Vec<SweepResult>, SweepStats) {
    sweep_in(e, points, &SweepConfig::default(), ctx)
}

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ucore-durability-it-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    path
}

/// Journals a complete figure-6 run and returns (figure JSON, journal
/// bytes). The caller truncates the bytes to simulate crashes.
fn journaled_figure6(path: &Path) -> (String, Vec<u8>) {
    let (guard, _) = durability::activate(DurabilityConfig {
        journal: Some(path.to_path_buf()),
        ..Default::default()
    })
    .unwrap();
    let fig = figures::figure6().unwrap();
    drop(guard); // fsync + deactivate
    let json = serde_json::to_string_pretty(&fig).unwrap();
    let bytes = fs::read(path).unwrap();
    (json, bytes)
}

/// Runs figure 6 resuming from `path` and returns (figure JSON,
/// journal hits, retries) read from the sweep phase log.
fn resumed_figure6(path: &Path) -> (String, u64, u64) {
    let (guard, _) = durability::activate(DurabilityConfig {
        journal: Some(path.to_path_buf()),
        resume: true,
        ..Default::default()
    })
    .unwrap();
    let _ = ucore_project::sweep::drain_phase_log();
    let fig = figures::figure6().unwrap();
    drop(guard);
    let phases = ucore_project::sweep::drain_phase_log();
    let hits: u64 = phases.iter().map(|s| s.journal_hits).sum();
    let retries: u64 = phases.iter().map(|s| s.retries).sum();
    (serde_json::to_string_pretty(&fig).unwrap(), hits, retries)
}

/// The crash/resume equivalence matrix: interrupt a journaled figure-6
/// run after k completed points (what a `kill@k` crash leaves behind),
/// resume, and require byte-identical JSON with exactly k points
/// answered from the journal.
#[test]
fn truncated_journal_resume_is_byte_identical() {
    let _lock = serialized();
    let baseline = serde_json::to_string_pretty(&figures::figure6().unwrap()).unwrap();

    let path = temp_journal("equivalence");
    let (journaled, bytes) = journaled_figure6(&path);
    assert_eq!(journaled, baseline, "journaling must not perturb output");
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let total = lines.len();
    assert!(total >= 100, "figure 6 sweeps >= 100 points, got {total}");

    for crash_after in [0, 1, 7, 40, total - 1, total] {
        fs::write(&path, lines[..crash_after].concat()).unwrap();
        let (json, hits, _) = resumed_figure6(&path);
        assert_eq!(json, baseline, "resume after {crash_after} records");
        assert_eq!(
            hits, crash_after as u64,
            "exactly the journaled points replay ({crash_after} records)"
        );
    }
    let _ = fs::remove_file(&path);
}

/// A resumed journal is *extended*: after resuming a half-complete run,
/// the journal holds every point, and a second resume replays all of
/// them (zero re-evaluations).
#[test]
fn resume_completes_the_journal_for_the_next_resume() {
    let _lock = serialized();
    let path = temp_journal("extend");
    let (_, bytes) = journaled_figure6(&path);
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let total = lines.len();
    fs::write(&path, lines[..total / 2].concat()).unwrap();

    let (first, first_hits, _) = resumed_figure6(&path);
    assert_eq!(first_hits, (total / 2) as u64);
    let (second, second_hits, _) = resumed_figure6(&path);
    assert_eq!(first, second);
    assert_eq!(second_hits, total as u64, "second resume is fully replayed");
    let _ = fs::remove_file(&path);
}

/// A journal written by an earlier build (`repro --journal J --figure
/// 6`, committed under `tests/fixtures/`) stays readable forever:
/// decoding and re-encoding its records gives back the file's exact
/// bytes, and resuming from it answers every point from the journal
/// with byte-identical figure-6 output.
#[test]
fn committed_figure6_journal_re_encodes_and_resumes_exactly() {
    let _lock = serialized();
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figure6_journal.jsonl");
    let bytes = fs::read(&fixture).unwrap();
    let (records, report) = ucore_project::journal::read_records(&fixture).unwrap();
    assert_eq!((records.len(), report.torn_tail), (120, false));
    let re_encoded: String = records.iter().map(ucore_project::journal::encode_record).collect();
    assert!(re_encoded.as_bytes() == bytes.as_slice(), "re-encoded records differ from the file");

    let baseline = serde_json::to_string_pretty(&figures::figure6().unwrap()).unwrap();
    // A resume completes its journal in place: work on a copy.
    let path = temp_journal("fixture");
    fs::write(&path, &bytes).unwrap();
    let (json, hits, _) = resumed_figure6(&path);
    assert_eq!(hits, 120, "every committed record replays");
    assert_eq!(json, baseline);
    assert_eq!(fs::read(&path).unwrap(), bytes, "a complete journal gains no records");
    let _ = fs::remove_file(&path);
}

/// A torn final record — the bytes a crash mid-append leaves — is
/// skipped (that point re-evaluates); the resumed output is still
/// byte-identical.
#[test]
fn torn_tail_journal_resumes_cleanly() {
    let _lock = serialized();
    let baseline = serde_json::to_string_pretty(&figures::figure6().unwrap()).unwrap();
    let path = temp_journal("torn");
    let (_, bytes) = journaled_figure6(&path);
    // Tear the last record: keep everything but its final 7 bytes
    // (checksummed payload and the terminating newline).
    fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let (_, report) = ucore_project::journal::replay(&path).unwrap();
    assert!(report.torn_tail, "the tear must be detected");

    let (json, hits, _) = resumed_figure6(&path);
    assert_eq!(json, baseline);
    let full_records = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(hits, (full_records - 1) as u64, "torn record re-evaluates");
    let _ = fs::remove_file(&path);
}

/// A journal recorded for a *different* grid must not poison a run: its
/// records are stale (fingerprint mismatch) and every point
/// re-evaluates.
#[test]
fn stale_journal_records_are_ignored_not_replayed() {
    let _lock = serialized();
    let e = engine();
    let points = grid(&e);
    let path = temp_journal("stale");

    // Journal a figure-8 run, then "resume" figure 6's grid from it.
    {
        let (guard, _) = durability::activate(DurabilityConfig {
            journal: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        figures::figure8().unwrap();
        drop(guard);
    }
    let stale_before = durability::durability_totals().journal_stale;
    let (guard, _) = durability::activate(DurabilityConfig {
        journal: Some(path.clone()),
        resume: true,
        ..Default::default()
    })
    .unwrap();
    let (results, stats) = sweep(&e, points.clone(), &SweepConfig::default());
    drop(guard);
    assert_eq!(stats.journal_hits, 0, "foreign journal must not answer points");
    assert!(
        durability::durability_totals().journal_stale > stale_before,
        "mismatching fingerprints are counted as stale"
    );
    let (reference, _) = sweep(&e, points, &SweepConfig::default());
    for (a, b) in results.iter().zip(&reference) {
        assert_eq!(a.outcome, b.outcome, "index {}", a.index);
    }
    let _ = fs::remove_file(&path);
}

/// A journal written while the fingerprint was FNV-1a 64 of the point's
/// `Debug` text keeps the `u1` framing, so it resumes without error:
/// every record is stale, every point re-evaluates, and the outcomes
/// are the uninterrupted run's.
#[test]
fn debug_text_fingerprint_journals_resume_as_stale() {
    let _lock = serialized();
    let e = engine();
    let points = grid(&e);
    let path = temp_journal("debug-fingerprint");
    {
        let (guard, _) = durability::activate(DurabilityConfig {
            journal: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        sweep(&e, points.clone(), &SweepConfig::default());
        drop(guard);
    }
    let (records, _) = ucore_project::journal::read_records(&path).unwrap();
    assert_eq!(records.len(), points.len());
    let debug_fnv = |p: &SweepPoint| {
        format!("{p:?}").bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let mut old = ucore_project::journal::JournalWriter::create(&path).unwrap();
    for mut record in records {
        record.fingerprint = debug_fnv(&points[record.index]);
        old.append(&record).unwrap();
    }
    drop(old);

    let stale_before = durability::durability_totals().journal_stale;
    let (guard, _) = durability::activate(DurabilityConfig {
        journal: Some(path.clone()),
        resume: true,
        ..Default::default()
    })
    .unwrap();
    let (results, stats) = sweep(&e, points.clone(), &SweepConfig::default());
    drop(guard);
    assert_eq!(stats.journal_hits, 0, "no old fingerprint matches");
    assert_eq!(
        durability::durability_totals().journal_stale - stale_before,
        points.len() as u64,
        "every old record is counted stale"
    );
    let (reference, _) = sweep(&e, points, &SweepConfig::default());
    for (a, b) in results.iter().zip(&reference) {
        assert_eq!(a.outcome, b.outcome, "index {}", a.index);
    }
    let _ = fs::remove_file(&path);
}

/// `stall@i` under a `--timeout-ms` budget: the stalled point is released
/// as `Failed{timeout}` within (approximately) the budget, and every
/// other point is untouched.
#[test]
fn stalled_point_fails_with_timeout_within_budget() {
    let e = engine();
    let points = grid(&e);
    let k = 5;
    let budget = Duration::from_millis(120);
    let (reference, _) = run(&e, points.clone(), &RunContext::default());

    let ctx = open(DurabilityConfig {
        timeout: Some(budget),
        faults: FaultPlan::new().with(k, Fault::Stall),
        ..Default::default()
    });
    let started = std::time::Instant::now();
    let (results, stats) = run(&e, points, &ctx);
    let elapsed = started.elapsed();

    assert_eq!(stats.points_failed, 1);
    assert_eq!(
        results[k].outcome.failure_message(),
        Some(format!("watchdog timeout: point {k} exceeded its 120 ms deadline").as_str()),
    );
    assert!(
        elapsed < budget + Duration::from_secs(5),
        "the stall must not hang the sweep (took {elapsed:?})"
    );
    for (r, i) in reference.iter().zip(&results) {
        if i.index != k {
            assert_eq!(r.outcome, i.outcome, "index {}", r.index);
        }
    }
}

/// A transient fault (`panic@kx1`) recovers under `--retries`: the
/// point succeeds on its second attempt, with identical outcomes and
/// exact retry accounting.
#[test]
fn transient_fault_recovers_via_retry_deterministically() {
    let e = engine();
    let points = grid(&e);
    let k = 3;
    let (reference, _) = run(&e, points.clone(), &RunContext::default());

    let ctx = open(DurabilityConfig {
        retries: 2,
        faults: FaultPlan::new().with_transient(k, Fault::Panic, 1),
        ..Default::default()
    });
    let (results, stats) = run(&e, points, &ctx);

    assert_eq!(stats.points_failed, 0, "retry recovered");
    assert_eq!(stats.retries, 1, "exactly one retry");
    for (r, i) in reference.iter().zip(&results) {
        assert_eq!(r.outcome, i.outcome, "index {}", r.index);
    }
}

/// A persistent fault exhausts its retry budget and stays `Failed`,
/// consuming exactly `retries` attempts.
#[test]
fn persistent_fault_exhausts_the_retry_budget() {
    let e = engine();
    let points = grid(&e);
    let k = 3;
    let ctx = open(DurabilityConfig {
        retries: 2,
        faults: FaultPlan::new().with(k, Fault::Panic),
        ..Default::default()
    });
    let (results, stats) = run(&e, points, &ctx);

    assert_eq!(stats.points_failed, 1);
    assert_eq!(stats.retries, 2, "both retries were consumed");
    assert_eq!(
        results[k].outcome.failure_message(),
        Some(format!("injected panic at point {k}").as_str())
    );
}

/// Replayed points restore their journaled retry counts, so the health
/// accounting of a resumed run matches the uninterrupted run exactly.
#[test]
fn resume_restores_retry_accounting_from_the_journal() {
    // Serialized only because its replay hits land in the phase log
    // that `resumed_figure6` sums.
    let _lock = serialized();
    let e = engine();
    let points = grid(&e);
    let k = 3;
    let path = temp_journal("retry-replay");

    // Original run: transient fault at k, one retry consumed, journaled.
    let ctx = open(DurabilityConfig {
        journal: Some(path.clone()),
        retries: 2,
        faults: FaultPlan::new().with_transient(k, Fault::Panic, 1),
        ..Default::default()
    });
    let (original, original_stats) = run(&e, points.clone(), &ctx);
    drop(ctx);
    assert_eq!(original_stats.retries, 1);

    // Resume: everything replays — including the retry count — with no
    // fault plan and no re-evaluation.
    let ctx = open(DurabilityConfig {
        journal: Some(path.clone()),
        resume: true,
        retries: 2,
        ..Default::default()
    });
    let (resumed, resumed_stats) = run(&e, points, &ctx);

    assert_eq!(resumed_stats.journal_hits as usize, resumed.len());
    assert_eq!(
        resumed_stats.retries, original_stats.retries,
        "journaled retry accounting is restored"
    );
    for (a, b) in original.iter().zip(&resumed) {
        assert_eq!(a.outcome, b.outcome, "index {}", a.index);
    }
    let _ = fs::remove_file(&path);
}

/// Backoff delays are pure functions of (index, attempt): identical
/// across calls, growing exponentially, jittered within [raw/2, raw).
#[test]
fn backoff_schedule_is_reproducible() {
    for index in [0usize, 3, 99] {
        for attempt in 0..6u32 {
            assert_eq!(
                durability::backoff_delay(index, attempt),
                durability::backoff_delay(index, attempt),
            );
        }
    }
}

mod journal_roundtrip {
    //! Property tests: the journal codec preserves every `Outcome`
    //! variant — including `Failed{panic_msg}` with arbitrary hostile
    //! strings and `Feasible` points with arbitrary f64 bit patterns —
    //! exactly, through encode → append → replay.

    use proptest::prelude::*;
    use std::fs;
    use ucore_core::Limiter;
    use ucore_devices::TechNode;
    use ucore_project::journal::{
        self, JournalRecord, JournalWriter, ReplayLookup,
    };
    use ucore_project::sweep::Outcome;
    use ucore_project::NodePoint;

    /// Arbitrary (often hostile) text: separators, escapes, quotes,
    /// multi-byte unicode, and plain ASCII.
    fn panic_text() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                '\t', '\n', '\r', '\\', '"', ' ', 'a', 'Z', '0', '@', '判', '€', '🚀',
                '\u{0}', '\u{7f}',
            ]),
            24,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    fn any_f64_bits() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX).prop_map(f64::from_bits)
    }

    fn any_node() -> impl Strategy<Value = TechNode> {
        prop::sample::select(TechNode::ALL.to_vec())
    }

    fn any_limiter() -> impl Strategy<Value = Limiter> {
        prop::sample::select(vec![Limiter::Area, Limiter::Power, Limiter::Bandwidth])
    }

    fn bits_equal(a: &Outcome, b: &Outcome) -> bool {
        match (a, b) {
            (Outcome::Feasible(x), Outcome::Feasible(y)) => {
                x.node == y.node
                    && x.limiter == y.limiter
                    && x.speedup.to_bits() == y.speedup.to_bits()
                    && x.r.to_bits() == y.r.to_bits()
                    && x.n.to_bits() == y.n.to_bits()
                    && x.energy.to_bits() == y.energy.to_bits()
            }
            (Outcome::Infeasible, Outcome::Infeasible) => true,
            (Outcome::Failed { panic_msg: x }, Outcome::Failed { panic_msg: y }) => {
                x == y
            }
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Failed outcomes with arbitrary panic strings survive the
        /// file round trip byte-for-byte.
        #[test]
        fn failed_outcomes_round_trip(
            msg in panic_text(),
            seq in 0u64..8,
            index in 0usize..512,
            retries in 0u32..5,
        ) {
            let rec = JournalRecord {
                sweep_seq: seq,
                index,
                fingerprint: 0x1234_5678_9abc_def0,
                retries,
                outcome: Outcome::Failed { panic_msg: msg.clone() },
            };
            let line = journal::encode_record(&rec);
            let back = journal::decode_record(line.trim_end_matches('\n'), 1)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&back.outcome.failure_message(), &Some(msg.as_str()));
            prop_assert_eq!(back.retries, retries);
            prop_assert_eq!(back.sweep_seq, seq);
            prop_assert_eq!(back.index, index);
        }

        /// Feasible outcomes with arbitrary f64 *bit patterns* (NaNs,
        /// infinities, subnormals, -0.0) and every node/limiter survive
        /// an actual write-to-disk → replay cycle exactly.
        #[test]
        fn all_outcome_variants_survive_the_file_round_trip(
            speedup in any_f64_bits(),
            r in any_f64_bits(),
            n in any_f64_bits(),
            energy in any_f64_bits(),
            node in any_node(),
            limiter in any_limiter(),
            msg in panic_text(),
        ) {
            let outcomes = [
                Outcome::Feasible(NodePoint { node, speedup, limiter, r, n, energy }),
                Outcome::Infeasible,
                Outcome::Failed { panic_msg: msg },
            ];
            let path = std::env::temp_dir().join(format!(
                "ucore-journal-prop-{}-{:x}.jsonl",
                std::process::id(),
                speedup.to_bits() ^ r.to_bits(),
            ));
            {
                let mut w = JournalWriter::create(&path)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                for (i, outcome) in outcomes.iter().enumerate() {
                    w.append(&JournalRecord {
                        sweep_seq: 0,
                        index: i,
                        fingerprint: 0xabcd ^ i as u64,
                        retries: i as u32,
                        outcome: outcome.clone(),
                    })
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
            }
            let (map, report) = journal::replay(&path)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let _ = fs::remove_file(&path);
            prop_assert_eq!(report.records, outcomes.len());
            prop_assert!(!report.torn_tail);
            for (i, outcome) in outcomes.iter().enumerate() {
                let hit = map.lookup(0, i, 0xabcd ^ i as u64);
                let ReplayLookup::Hit(rec) = hit else {
                    return Err(TestCaseError::fail(format!("missing record {i}")));
                };
                prop_assert!(
                    bits_equal(&rec.outcome, outcome),
                    "outcome {i} mutated: {:?} != {:?}", rec.outcome, outcome
                );
                prop_assert_eq!(rec.retries, i as u32);
            }
        }
    }
}

/// `enospc@i` / `eio@i` disk faults fire at the
/// *journal append*, not the evaluation. The documented degradation
/// path must hold: the run continues, every result is bit-identical to
/// a clean run, `journal.write_errors` increments, and appends stop at
/// the failed index (journaling disabled for the rest of the run).
#[test]
fn disk_fault_degrades_journaling_but_not_results() {
    let _guard = serialized();
    let e = engine();
    let points = grid(&e);
    let (clean, _) = run(&e, points.clone(), &RunContext::default());

    for (kind, tag) in [(Fault::DiskEnospc, "enospc"), (Fault::DiskEio, "eio")] {
        let path = temp_journal(&format!("disk-{tag}"));
        let before = ucore_obs::registry().snapshot().counter("journal.write_errors");
        let ctx = open(DurabilityConfig {
            journal: Some(path.clone()),
            faults: FaultPlan::new().with(2, kind),
            ..Default::default()
        });
        let (faulted, stats) = run(&e, points.clone(), &ctx);
        drop(ctx);
        assert_eq!(stats.points_failed, 0, "{tag}: disk faults never fail points");
        for (a, b) in clean.iter().zip(&faulted) {
            assert_eq!(a.outcome, b.outcome, "{tag}: index {}", a.index);
        }
        let after = ucore_obs::registry().snapshot().counter("journal.write_errors");
        assert_eq!(after - before, 1, "{tag}: exactly one write error counted");
        // Points 0 and 1 reached the journal; the failed append at
        // index 2 disabled journaling for the rest of the run.
        let (records, _) = ucore_project::read_records(&path).unwrap();
        assert_eq!(records.len(), 2, "{tag}: appends stop at the failed index");
        assert!(
            records.iter().all(|r| r.index < 2),
            "{tag}: only pre-fault indices journaled"
        );
        let _ = fs::remove_file(&path);
    }
}

/// A disk-degraded journal still resumes: the surviving prefix replays
/// and only the missing tail re-evaluates, byte-identically.
#[test]
fn disk_degraded_journal_remains_resumable() {
    let _guard = serialized();
    let path = temp_journal("disk-resume");
    {
        let (dguard, _) = durability::activate(DurabilityConfig {
            journal: Some(path.clone()),
            faults: FaultPlan::new().with(5, Fault::DiskEnospc),
            ..Default::default()
        })
        .unwrap();
        let _ = figures::figure6().unwrap();
        drop(dguard);
    }
    let (resumed_json, hits, _) = resumed_figure6(&path);
    let clean = serde_json::to_string_pretty(&figures::figure6().unwrap()).unwrap();
    assert_eq!(resumed_json, clean, "resume after disk degradation is inert");
    assert_eq!(hits, 5, "exactly the pre-fault prefix replays");
    let _ = fs::remove_file(&path);
}
