//! Sharded multi-process sweep orchestration with worker-crash
//! tolerance.
//!
//! A design-space sweep is embarrassingly parallel across submission
//! indices, so it shards by contiguous index-range *leases*: worker
//! `i` of `n` owns [`ShardSpec::lease`] of every sweep in the run,
//! evaluates exactly those points through the ordinary durability
//! pipeline, and journals them into its own shard journal. The
//! orchestrator ([`orchestrate`]) spawns the workers as separate
//! processes (`repro --shard i/n --journal PATH.shard<i>`), watches
//! each journal's growth as a heartbeat, and treats a dead or silent
//! worker as a *lease failure*: the lease is reassigned to a fresh
//! worker process — which resumes the dead worker's journal, so
//! nothing already settled is re-evaluated — with bounded retries and
//! the same deterministic exponential backoff the per-point retry
//! policy uses ([`crate::durability::backoff_delay`]). A lease whose
//! retries are exhausted is abandoned with a warning; its missing
//! points fall through to the caller's replay pass and are evaluated
//! in-process, so the run degrades gracefully down to a single
//! surviving process instead of failing.
//!
//! Completed shard journals merge deterministically
//! ([`merge_journals`]): records key into a `BTreeMap` by
//! `(sweep_seq, index)` — index-sorted by construction — and a slot
//! written twice (a reassigned lease executed by two workers)
//! deduplicates by fingerprint. Matching fingerprints keep the later
//! record, mirroring [`crate::journal::replay`]'s last-wins rule;
//! a mismatched fingerprint *rejects* the later write and keeps the
//! first, because two honest executions of the same grid point can
//! never disagree on the point's identity. Replaying the merged
//! journal therefore reproduces the single-process run's figure bytes
//! exactly — the property the shard CLI tests pin at shard counts
//! 1, 2, 4 and 8, under injected whole-worker kills and stalls.

// An output-producing path: no wall clock, no hash-ordered containers.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use crate::durability;
use crate::journal::{self, JournalError, JournalRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------

/// Which contiguous slice of every sweep a worker process owns: shard
/// `index` of `count`, parsed from the CLI as `"i/n"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

/// A rejected shard specification (`--shard I/N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpecError {
    given: String,
    reason: &'static str,
}

impl fmt::Display for ShardSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard spec {:?}: {}", self.given, self.reason)
    }
}

impl std::error::Error for ShardSpecError {}

impl ShardSpec {
    /// Shard `index` of `count`.
    ///
    /// # Errors
    ///
    /// Rejects a zero `count` and an `index` outside `0..count`.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardSpecError> {
        let bad = |reason| ShardSpecError { given: format!("{index}/{count}"), reason };
        if count == 0 {
            return Err(bad("shard count must be at least 1"));
        }
        if index >= count {
            return Err(bad("shard index must be smaller than the shard count"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI form `"I/N"` (shard I of N, zero-based).
    ///
    /// # Errors
    ///
    /// Rejects malformed fragments and out-of-range indices.
    pub fn parse(s: &str) -> Result<Self, ShardSpecError> {
        let bad = |reason| ShardSpecError { given: s.to_string(), reason };
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| bad("expected the form I/N (shard I of N)"))?;
        let index = index
            .trim()
            .parse()
            .map_err(|_| bad("shard index is not a non-negative integer"))?;
        let count = count
            .trim()
            .parse()
            .map_err(|_| bad("shard count is not a positive integer"))?;
        ShardSpec::new(index, count)
    }

    /// This shard's zero-based index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// How many shards partition the sweep.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous submission-index lease this shard owns out of a
    /// sweep of `total` points. Leases partition `0..total`, stay
    /// contiguous and ascending in shard order, and are balanced:
    /// sizes differ by at most one, with the remainder going to the
    /// lowest-indexed shards. Pure integer arithmetic — every process
    /// computes the identical partition from `(index, count, total)`
    /// alone, with no coordination.
    pub fn lease(&self, total: usize) -> Range<usize> {
        let base = total / self.count;
        let rem = total % self.count;
        let start = self.index * base + self.index.min(rem);
        let len = base + usize::from(self.index < rem);
        start..start + len
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Every shard's lease over a sweep of `total` points, in shard order.
/// The returned ranges partition `0..total`.
pub fn lease_ranges(total: usize, count: usize) -> Vec<Range<usize>> {
    (0..count)
        .filter_map(|index| ShardSpec::new(index, count).ok())
        .map(|spec| spec.lease(total))
        .collect()
}

// ---------------------------------------------------------------------
// Shard-journal merge
// ---------------------------------------------------------------------

/// What [`merge_journals`] found and decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Distinct `(sweep_seq, index)` slots written to the merged
    /// journal.
    pub records: usize,
    /// Slots journaled more than once with *matching* fingerprints — a
    /// reassigned lease executed by two workers. The later record wins,
    /// mirroring replay's last-wins rule; either way the bytes agree.
    pub duplicates: usize,
    /// Later writes rejected because their fingerprint disagreed with
    /// the record already holding the slot. The first write is kept:
    /// honest re-executions of one grid point cannot disagree on its
    /// identity, so the later record is the suspect one.
    pub rejected: usize,
    /// Shard journals ending in a torn (partially appended) record —
    /// the signature of a worker killed mid-append. The tail is
    /// skipped, exactly as in replay.
    pub torn_tails: usize,
    /// Shard journals missing entirely (a lease abandoned before its
    /// worker ever appended); those points fall to the caller's replay
    /// pass.
    pub missing: usize,
    /// Intact records contributed per shard journal, in shard order.
    pub per_shard_records: Vec<usize>,
}

/// Merges shard journals (in shard order) into one merged journal at
/// `merged`, written atomically via [`journal::atomic_write`].
///
/// Records are keyed by `(sweep_seq, index)` into a `BTreeMap`, so the
/// merged file is index-sorted regardless of worker completion order —
/// byte-identical for any interleaving of the same records. Duplicate
/// slots deduplicate by fingerprint (see [`MergeReport`] for the
/// policy); missing journals and torn tails are tolerated and counted,
/// never errors.
///
/// # Errors
///
/// [`JournalError::Io`] on read/write failure and
/// [`JournalError::Corrupt`] when a shard journal has an invalid
/// *interior* record (which no crash can produce).
pub fn merge_journals(shards: &[PathBuf], merged: &Path) -> Result<MergeReport, JournalError> {
    let mut slots: BTreeMap<(u64, usize), JournalRecord> = BTreeMap::new();
    let mut report = MergeReport::default();
    for path in shards {
        if !path.exists() {
            report.missing += 1;
            report.per_shard_records.push(0);
            continue;
        }
        let (records, file_report) = journal::read_records(path)?;
        if file_report.torn_tail {
            report.torn_tails += 1;
        }
        report.per_shard_records.push(records.len());
        for record in records {
            let key = (record.sweep_seq, record.index);
            match slots.get(&key) {
                Some(existing) if existing.fingerprint != record.fingerprint => {
                    report.rejected += 1;
                }
                Some(_) => {
                    report.duplicates += 1;
                    slots.insert(key, record);
                }
                None => {
                    slots.insert(key, record);
                }
            }
        }
    }
    report.records = slots.len();
    let mut bytes = String::new();
    for record in slots.values() {
        journal::encode_record_into(record, &mut bytes);
    }
    journal::atomic_write(merged, bytes.as_bytes())?;
    let m = crate::obs::metrics();
    m.shard_merge_records.add(report.records as u64);
    m.shard_merge_duplicates.add(report.duplicates as u64);
    m.shard_merge_rejected.add(report.rejected as u64);
    Ok(report)
}

// ---------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------

/// How often the orchestrator polls worker exits and journal growth.
/// Scheduling only: results come exclusively from the journals.
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Default heartbeat budget: a live worker whose journal has not grown
/// for this long is declared stalled, killed, and its lease reassigned
/// (`--shard-stall-ms`).
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Default reassignment budget per lease (`--shard-retries`).
pub const DEFAULT_LEASE_RETRIES: u32 = 3;

/// How the orchestrator runs a sharded sweep.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Worker process count (= shard count).
    pub shards: usize,
    /// The merged journal target; shard journals and worker logs are
    /// its siblings ([`shard_journal_path`], [`shard_log_path`]).
    pub merged_journal: PathBuf,
    /// The worker executable (normally [`std::env::current_exe`]).
    pub program: PathBuf,
    /// Arguments appended after the generated
    /// `--shard i/n --journal PATH [--resume]` prefix: the render
    /// command plus any forwarded per-point policy flags.
    pub worker_args: Vec<String>,
    /// No journal growth for this long while the process lives ⇒
    /// stalled: the worker is killed and its lease reassigned.
    pub stall_timeout: Duration,
    /// Reassignments per lease before it is abandoned.
    pub lease_retries: u32,
    /// Exit-status / heartbeat polling period.
    pub poll_interval: Duration,
}

impl OrchestratorConfig {
    /// A configuration with the default stall/retry/poll policy.
    pub fn new(
        shards: usize,
        merged_journal: PathBuf,
        program: PathBuf,
        worker_args: Vec<String>,
    ) -> Self {
        OrchestratorConfig {
            shards,
            merged_journal,
            program,
            worker_args,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            lease_retries: DEFAULT_LEASE_RETRIES,
            poll_interval: POLL_INTERVAL,
        }
    }
}

/// One shard's fate across every attempt at its lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Worker processes spawned for this lease (1 = clean first run).
    pub attempts: u32,
    /// Attempts that exited nonzero or unpollable.
    pub crashes: u32,
    /// Attempts killed by the heartbeat stall detector.
    pub stalls: u32,
    /// Whether some attempt finally exited cleanly (`false` = the
    /// lease was abandoned after exhausting its retries).
    pub completed: bool,
    /// Intact records this shard's journal contributed to the merge.
    pub records: usize,
}

/// The orchestrator's full account of a sharded run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Worker processes spawned in total (first runs + reassignments).
    pub workers_spawned: u64,
    /// Workers that exited cleanly.
    pub workers_ok: u64,
    /// Workers that crashed (nonzero exit, signal death, poll failure).
    pub workers_crashed: u64,
    /// Workers killed for heartbeat silence.
    pub workers_stalled: u64,
    /// Leases handed to a replacement worker.
    pub leases_reassigned: u64,
    /// Leases abandoned after exhausting their retries.
    pub leases_abandoned: u64,
    /// What the final journal merge found.
    pub merge: MergeReport,
}

/// Errors that abort orchestration outright. Worker failures never do —
/// they consume lease retries and degrade to in-process evaluation.
#[derive(Debug)]
pub enum ShardError {
    /// Zero shards requested.
    NoShards,
    /// A worker process could not even be spawned (a broken `program`
    /// path — crashes *after* spawn are handled by reassignment).
    Spawn {
        /// The shard whose worker failed to launch.
        shard: usize,
        /// The underlying spawn failure.
        source: io::Error,
    },
    /// Merging the shard journals failed.
    Journal(JournalError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "--shards needs at least one shard"),
            ShardError::Spawn { shard, source } => {
                write!(f, "cannot spawn worker for shard {shard}: {source}")
            }
            ShardError::Journal(e) => write!(f, "shard journal merge failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Spawn { source, .. } => Some(source),
            ShardError::Journal(e) => Some(e),
            ShardError::NoShards => None,
        }
    }
}

/// The shard journal worker `shard` writes: `<merged>.shard<i>`, a
/// sibling of the merged journal.
pub fn shard_journal_path(merged: &Path, shard: usize) -> PathBuf {
    let mut name = merged.as_os_str().to_os_string();
    name.push(format!(".shard{shard}"));
    PathBuf::from(name)
}

/// Where worker `shard`'s stderr is captured: `<merged>.shard<i>.log`
/// (overwritten per attempt, kept after the run for diagnosis).
pub fn shard_log_path(merged: &Path, shard: usize) -> PathBuf {
    let mut name = merged.as_os_str().to_os_string();
    name.push(format!(".shard{shard}.log"));
    PathBuf::from(name)
}

/// The single scheduling clock behind spawn backoff and stall
/// detection: it decides only *when* workers run or die, never what
/// the merged journal or the figure bytes contain.
#[expect(
    clippy::disallowed_methods,
    reason = "orchestration scheduling clock; worker spawn/kill timing never reaches journal \
              records or output bytes"
)]
fn sched_now() -> Instant {
    Instant::now()
}

/// One pending lease execution (`attempt` 0 is the first run).
#[derive(Debug, Clone, Copy)]
struct Task {
    shard: usize,
    attempt: u32,
}

/// A live worker process under watch.
struct Running {
    task: Task,
    child: Child,
    journal: PathBuf,
    journal_len: u64,
    last_progress: Instant,
}

/// Launches `task`'s worker, journaling to its shard journal.
///
/// # Errors
///
/// [`ShardError::Spawn`] when the worker process cannot be started.
fn spawn_worker(cfg: &OrchestratorConfig, task: Task, now: Instant) -> Result<Running, ShardError> {
    let journal = shard_journal_path(&cfg.merged_journal, task.shard);
    let mut cmd = Command::new(&cfg.program);
    cmd.arg("--shard")
        .arg(format!("{}/{}", task.shard, cfg.shards))
        .arg("--journal")
        .arg(&journal);
    if task.attempt > 0 && journal.exists() {
        // The replacement replays everything the dead worker already
        // settled and evaluates only the rest of its lease.
        cmd.arg("--resume");
    }
    cmd.args(&cfg.worker_args);
    cmd.stdin(Stdio::null());
    // A worker's stdout is a partial figure (only its lease is
    // evaluated); the authoritative bytes come from the caller's
    // replay of the merged journal.
    cmd.stdout(Stdio::null());
    match File::create(shard_log_path(&cfg.merged_journal, task.shard)) {
        Ok(log) => {
            cmd.stderr(Stdio::from(log));
        }
        Err(_) => {
            cmd.stderr(Stdio::null());
        }
    }
    if task.attempt > 0 {
        // An injected worker fault (`kill@i`, `stall@i`) models a
        // one-shot environmental failure; a replacement inheriting the
        // env plan would re-crash on the same point and drive the lease
        // straight to abandonment.
        cmd.env_remove("UCORE_FAULT_INJECT");
    }
    let child = cmd
        .spawn()
        .map_err(|source| ShardError::Spawn { shard: task.shard, source })?;
    let journal_len = fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    Ok(Running { task, child, journal, journal_len, last_progress: now })
}

/// A failed lease attempt: reassign with deterministic backoff while
/// retries remain; abandon once they are exhausted (the caller's
/// replay pass evaluates the leftovers in-process).
fn requeue(
    cfg: &OrchestratorConfig,
    report: &mut ShardRunReport,
    pending: &mut Vec<(Task, Instant)>,
    task: Task,
    why: &str,
) {
    let m = crate::obs::metrics();
    if task.attempt < cfg.lease_retries {
        let delay = durability::backoff_delay(task.shard, task.attempt);
        eprintln!(
            "warning: shard {}/{} worker {why}; reassigning its lease after {} ms \
             (attempt {} of {})",
            task.shard,
            cfg.shards,
            delay.as_millis(),
            task.attempt + 2,
            cfg.lease_retries + 1,
        );
        report.leases_reassigned += 1;
        m.shard_leases_reassigned.inc();
        pending.push((Task { shard: task.shard, attempt: task.attempt + 1 }, sched_now() + delay));
    } else {
        eprintln!(
            "warning: shard {}/{} worker {why}; lease retries exhausted after {} attempt(s) — \
             its unfinished points will be evaluated in-process from the merged journal",
            task.shard,
            cfg.shards,
            task.attempt + 1,
        );
        report.leases_abandoned += 1;
        m.shard_leases_abandoned.inc();
    }
}

/// A human description of how a worker exited. Exit codes 130/143 are
/// the signal-flush path (`repro`'s SIGINT/SIGTERM handlers fsync the
/// journal before exiting), so the journal tail is known-durable.
fn describe_exit(status: ExitStatus) -> String {
    match status.code() {
        Some(code @ (130 | 143)) => {
            format!("was interrupted (exit code {code}, journal flushed)")
        }
        Some(code) => format!("exited with code {code}"),
        None => String::from("was killed by a signal"),
    }
}

/// Runs the full sharded sweep: spawn one worker per lease, watch
/// exits and journal-growth heartbeats, reassign failed leases with
/// bounded backoff, and merge the shard journals into
/// `cfg.merged_journal`.
///
/// Worker deaths never abort the run; they consume that lease's
/// retries. The run completes as long as the orchestrator process
/// itself survives — in the worst case every lease is abandoned and
/// the caller's replay pass evaluates the whole grid in-process,
/// which is exactly the single-process run.
///
/// # Errors
///
/// [`ShardError::NoShards`] for a zero shard count,
/// [`ShardError::Spawn`] when a worker cannot even be launched, and
/// [`ShardError::Journal`] when the final merge fails.
pub fn orchestrate(cfg: &OrchestratorConfig) -> Result<ShardRunReport, ShardError> {
    if cfg.shards == 0 {
        return Err(ShardError::NoShards);
    }
    let m = crate::obs::metrics();
    let mut report = ShardRunReport {
        shards: (0..cfg.shards)
            .map(|shard| ShardOutcome {
                shard,
                attempts: 0,
                crashes: 0,
                stalls: 0,
                completed: false,
                records: 0,
            })
            .collect(),
        ..ShardRunReport::default()
    };
    let mut pending: Vec<(Task, Instant)> = (0..cfg.shards)
        .map(|shard| (Task { shard, attempt: 0 }, sched_now()))
        .collect();
    let mut running: Vec<Running> = Vec::new();

    while !pending.is_empty() || !running.is_empty() {
        // Launch every lease whose backoff has elapsed.
        let now = sched_now();
        let mut deferred = Vec::new();
        for (task, ready_at) in pending.drain(..) {
            if ready_at > now {
                deferred.push((task, ready_at));
                continue;
            }
            let worker = spawn_worker(cfg, task, now)?;
            report.workers_spawned += 1;
            m.shard_workers_spawned.inc();
            if let Some(outcome) = report.shards.get_mut(task.shard) {
                outcome.attempts += 1;
            }
            running.push(worker);
        }
        pending = deferred;

        // Poll the fleet: exits first, then journal heartbeats.
        let mut alive = Vec::with_capacity(running.len());
        for mut worker in running {
            match worker.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    report.workers_ok += 1;
                    m.shard_workers_ok.inc();
                    if let Some(outcome) = report.shards.get_mut(worker.task.shard) {
                        outcome.completed = true;
                    }
                }
                Ok(Some(status)) => {
                    report.workers_crashed += 1;
                    m.shard_workers_crashed.inc();
                    if let Some(outcome) = report.shards.get_mut(worker.task.shard) {
                        outcome.crashes += 1;
                    }
                    requeue(cfg, &mut report, &mut pending, worker.task, &describe_exit(status));
                }
                Ok(None) => {
                    let len = fs::metadata(&worker.journal).map(|m| m.len()).unwrap_or(0);
                    let polled = sched_now();
                    if len != worker.journal_len {
                        worker.journal_len = len;
                        worker.last_progress = polled;
                        alive.push(worker);
                    } else if polled.duration_since(worker.last_progress) >= cfg.stall_timeout {
                        // Heartbeat silence past the budget: kill the
                        // worker *before* its own unwatched-stall cap
                        // can journal a divergent timeout outcome, then
                        // reassign the lease.
                        let _ = worker.child.kill();
                        let _ = worker.child.wait();
                        report.workers_stalled += 1;
                        m.shard_workers_stalled.inc();
                        if let Some(outcome) = report.shards.get_mut(worker.task.shard) {
                            outcome.stalls += 1;
                        }
                        let why = format!(
                            "made no journal progress for {} ms (killed)",
                            cfg.stall_timeout.as_millis()
                        );
                        requeue(cfg, &mut report, &mut pending, worker.task, &why);
                    } else {
                        alive.push(worker);
                    }
                }
                Err(e) => {
                    let _ = worker.child.kill();
                    let _ = worker.child.wait();
                    report.workers_crashed += 1;
                    m.shard_workers_crashed.inc();
                    if let Some(outcome) = report.shards.get_mut(worker.task.shard) {
                        outcome.crashes += 1;
                    }
                    let why = format!("could not be polled: {e}");
                    requeue(cfg, &mut report, &mut pending, worker.task, &why);
                }
            }
        }
        running = alive;
        if !pending.is_empty() || !running.is_empty() {
            std::thread::sleep(cfg.poll_interval);
        }
    }

    let shard_journals: Vec<PathBuf> = (0..cfg.shards)
        .map(|shard| shard_journal_path(&cfg.merged_journal, shard))
        .collect();
    let merge =
        merge_journals(&shard_journals, &cfg.merged_journal).map_err(ShardError::Journal)?;
    for (outcome, &records) in report.shards.iter_mut().zip(&merge.per_shard_records) {
        outcome.records = records;
    }
    report.merge = merge;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_partition_every_grid() {
        for total in [0usize, 1, 5, 47, 191, 192, 193] {
            for count in [1usize, 2, 3, 4, 8, 13] {
                let ranges = lease_ranges(total, count);
                assert_eq!(ranges.len(), count);
                // Contiguous, ascending, covering 0..total exactly.
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "total {total} count {count}");
                    cursor = r.end;
                }
                assert_eq!(cursor, total, "total {total} count {count}");
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                let min = sizes.iter().min().copied().unwrap_or(0);
                let max = sizes.iter().max().copied().unwrap_or(0);
                assert!(max - min <= 1, "total {total} count {count}: {sizes:?}");
            }
        }
    }

    #[test]
    fn lease_matches_lease_ranges() {
        for (index, range) in lease_ranges(192, 8).into_iter().enumerate() {
            assert_eq!(ShardSpec::new(index, 8).unwrap().lease(192), range);
        }
    }

    #[test]
    fn merged_journal_bytes_are_pinned() {
        use crate::journal::{JournalRecord, JournalWriter};
        use crate::results::NodePoint;
        use crate::sweep::Outcome;
        use ucore_core::Limiter;
        use ucore_devices::TechNode;

        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let shards = [
            dir.join(format!("ucore-merge-pin-{tag}.a")),
            dir.join(format!("ucore-merge-pin-{tag}.b")),
        ];
        let merged = dir.join(format!("ucore-merge-pin-{tag}.merged"));
        let record = |sweep_seq, index, outcome| JournalRecord {
            sweep_seq,
            index,
            fingerprint: 0x0123_4567_89ab_cdef ^ index as u64,
            retries: index as u32 % 3,
            outcome,
        };
        let feasible = Outcome::Feasible(NodePoint {
            node: TechNode::N32,
            speedup: 17.5,
            limiter: Limiter::Area,
            r: 2.0,
            n: 64.0,
            energy: 0.125,
        });
        // Out of order across two shards: the merge sorts by slot.
        let inputs = [
            vec![record(1, 0, Outcome::Failed { panic_msg: "boom\tx".into() })],
            vec![record(0, 5, Outcome::Infeasible), record(0, 2, feasible)],
        ];
        for (path, records) in shards.iter().zip(&inputs) {
            let mut w = JournalWriter::create(path).unwrap();
            for r in records {
                w.append(r).unwrap();
            }
        }
        let report = merge_journals(&shards, &merged).unwrap();
        assert_eq!(report.records, 3);
        let bytes = std::fs::read_to_string(&merged).unwrap();
        for p in shards.iter().chain([&merged]) {
            let _ = std::fs::remove_file(p);
        }
        assert_eq!(
            bytes,
            "u1\td33d0b15\t0\t2\t0123456789abcded\t2\tok\tn32\tarea\t\
             4031800000000000\t4000000000000000\t4050000000000000\t3fc0000000000000\n\
             u1\tbb3500b1\t0\t5\t0123456789abcdea\t2\tinfeasible\n\
             u1\tc7ad1a94\t1\t0\t0123456789abcdef\t0\tfailed\tboom\\tx\n"
        );
    }

    #[test]
    fn spec_parses_and_rejects() {
        let spec = ShardSpec::parse("2/4").unwrap();
        assert_eq!((spec.index(), spec.count()), (2, 4));
        assert_eq!(spec.to_string(), "2/4");
        for bad in ["", "3", "4/4", "5/4", "x/4", "1/y", "1/0", "-1/4"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn sibling_paths_derive_from_the_merged_journal() {
        let merged = Path::new("/tmp/run.jsonl");
        assert_eq!(
            shard_journal_path(merged, 3),
            PathBuf::from("/tmp/run.jsonl.shard3")
        );
        assert_eq!(
            shard_log_path(merged, 0),
            PathBuf::from("/tmp/run.jsonl.shard0.log")
        );
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let cfg = OrchestratorConfig::new(
            0,
            PathBuf::from("/tmp/never.jsonl"),
            PathBuf::from("/bin/true"),
            Vec::new(),
        );
        assert!(matches!(orchestrate(&cfg), Err(ShardError::NoShards)));
    }

    #[test]
    fn exit_descriptions_distinguish_signal_flush_codes() {
        // Unix lets us fabricate ExitStatus values only via real
        // processes; the formatting contract is pinned through code()
        // pattern equivalents instead.
        assert!(describe_exit_text(Some(143)).contains("journal flushed"));
        assert!(describe_exit_text(Some(130)).contains("journal flushed"));
        assert!(describe_exit_text(Some(2)).contains("exited with code 2"));
        assert!(describe_exit_text(None).contains("killed by a signal"));
    }

    /// Mirror of [`describe_exit`]'s match over a bare exit code, so
    /// the wording contract is testable without spawning processes.
    fn describe_exit_text(code: Option<i32>) -> String {
        match code {
            Some(code @ (130 | 143)) => {
                format!("was interrupted (exit code {code}, journal flushed)")
            }
            Some(code) => format!("exited with code {code}"),
            None => String::from("was killed by a signal"),
        }
    }

    proptest::proptest! {
        /// No string panics the `--shard I/N` parser, and whatever it
        /// accepts names a shard inside its count. Bytes below 128 pick
        /// a token of the syntax; the rest are arbitrary chars.
        #[test]
        fn parse_is_total_on_arbitrary_strings(
            bytes in proptest::collection::vec(0u8..=255, 24),
            len in 0usize..=24,
        ) {
            const TOKENS: [&str; 7] = ["/", "0", "7", " ", "-", "+", "99999999999999999999"];
            let text: String = bytes[..len]
                .iter()
                .map(|&b| match b {
                    0..=127 => TOKENS[usize::from(b) % TOKENS.len()].to_string(),
                    _ => char::from(b).to_string(),
                })
                .collect();
            if let Ok(spec) = ShardSpec::parse(&text) {
                proptest::prop_assert!(spec.index() < spec.count(), "{text:?}");
            }
        }
    }
}
