//! The durable-run orchestrator: journaling, resume, watchdog
//! deadlines, and retry policy for sweeps.
//!
//! [`activate`] installs a process-wide [`DurabilityConfig`] (mirroring
//! the [`faultinject`](crate::faultinject) guard pattern) that every
//! subsequent [`sweep`](crate::sweep::sweep) consults:
//!
//! * **Journal** — each completed point is appended to the configured
//!   [`journal`] file, so a killed run can be resumed.
//! * **Resume** — the journal of a previous (interrupted) run is
//!   replayed up front; points whose `(sweep, index, fingerprint)`
//!   matches a journaled record are *not* re-evaluated, and the figure
//!   output is byte-identical to an uninterrupted run because replayed
//!   outcomes carry their exact bit patterns and retry counts.
//! * **Watchdog** — a per-point deadline. The evaluation path calls
//!   [`watchdog_checkpoint`] cooperatively; a point past its budget is
//!   converted to a contained `Failed` outcome with a deterministic
//!   timeout message instead of hanging the figure.
//! * **Retry** — failed points are retried up to a bounded number of
//!   attempts with exponential backoff and *deterministic* jitter
//!   ([`backoff_delay`], keyed on submission index and attempt, no
//!   RNG), so retry behavior is identical on every run.
//!
//! All of this is off by default: with no active configuration a sweep
//! behaves exactly as before this module existed.

use crate::faultinject::{Fault, FaultPlan};
use crate::journal::{
    self, JournalError, JournalRecord, JournalWriter, ReplayLookup, ReplayMap, ReplayReport,
};
use crate::shard::ShardSpec;
use std::cell::Cell;
use std::fmt;
use std::path::PathBuf;
#[cfg(unix)]
use std::sync::atomic::AtomicI32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How a run should be made durable. The default is fully inert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Journal file to stream completed points to (`--journal PATH`).
    pub journal: Option<PathBuf>,
    /// Replay the journal before running, re-evaluating only missing
    /// points (`--resume`; requires `journal`).
    pub resume: bool,
    /// Per-point watchdog deadline (`--timeout-ms`).
    pub timeout: Option<Duration>,
    /// Retry attempts for failed points (`--retries N`; 0 = no
    /// retries).
    pub retries: u32,
    /// Restrict every sweep to this shard's index-range lease
    /// (`--shard I/N`). Out-of-lease points are skipped without
    /// evaluation or journaling and reported in
    /// `SweepStats::points_skipped`.
    pub shard: Option<ShardSpec>,
}

/// Errors raised while activating a durability configuration.
#[derive(Debug)]
pub enum DurabilityError {
    /// `resume` was requested without a journal path.
    ResumeWithoutJournal,
    /// `resume` was requested but the journal file does not exist.
    JournalMissing(PathBuf),
    /// The journal could not be opened, read, or replayed.
    Journal(JournalError),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::ResumeWithoutJournal => {
                write!(f, "--resume requires --journal PATH (there is no journal to replay)")
            }
            DurabilityError::JournalMissing(path) => {
                write!(f, "cannot resume: journal {} does not exist", path.display())
            }
            DurabilityError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for DurabilityError {
    fn from(e: JournalError) -> Self {
        DurabilityError::Journal(e)
    }
}

/// The live durability state sweeps consult.
#[derive(Debug)]
pub(crate) struct DurabilityContext {
    writer: Option<Mutex<JournalWriter>>,
    /// Set after the first journal write failure: journaling degrades
    /// to a one-time warning, never a run abort (the run's *results*
    /// are unaffected; only resumability is lost).
    journal_broken: AtomicBool,
    replay: ReplayMap,
    timeout: Option<Duration>,
    retries: u32,
    shard: Option<ShardSpec>,
    sweep_seq: AtomicU64,
}

impl DurabilityContext {
    /// Claims the next sweep sequence number. Sweeps run in a
    /// deterministic order for a given command line, so sequence
    /// numbers line up between an interrupted run and its resume.
    pub(crate) fn next_sweep_seq(&self) -> u64 {
        self.sweep_seq.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    pub(crate) fn retries(&self) -> u32 {
        self.retries
    }

    /// The shard lease restricting every sweep, if this process is a
    /// shard worker.
    pub(crate) fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    pub(crate) fn lookup(
        &self,
        sweep_seq: u64,
        index: usize,
        fingerprint: u64,
    ) -> ReplayLookup<'_> {
        self.replay.lookup(sweep_seq, index, fingerprint)
    }

    /// Whether appends currently reach the journal.
    pub(crate) fn journaling(&self) -> bool {
        self.writer.is_some() && !self.journal_broken.load(Ordering::Relaxed)
    }

    /// Appends one completed point. Write failures disable journaling
    /// for the rest of the run with a single stderr warning. A planned
    /// `enospc@i` / `eio@i` disk fault in the sweep's `plan` for this
    /// record's submission index fails the append with a synthesized
    /// I/O error, exercising exactly this degradation path.
    pub(crate) fn append(&self, record: &JournalRecord, plan: Option<&FaultPlan>) {
        if self.journal_broken.load(Ordering::Relaxed) {
            return;
        }
        let Some(writer) = &self.writer else { return };
        let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let injected = plan
            .and_then(|plan| plan.fault_at(record.index))
            .and_then(Fault::disk_error);
        let outcome = match injected {
            Some(e) => Err(JournalError::Io(e)),
            // ucore-lint: allow(lock-discipline): the writer mutex exists to serialize exactly this append+fsync; contenders queue behind the disk write by design (§11)
            None => writer.append(record),
        };
        if let Err(e) = outcome {
            self.journal_broken.store(true, Ordering::Relaxed);
            crate::obs::metrics().journal_write_errors.inc();
            eprintln!(
                "warning: run journal {} disabled after write failure: {e}",
                writer.path().display()
            );
        } else {
            crate::obs::metrics().journal_appends.inc();
        }
    }

    /// Fsyncs the journal (end of a sweep, or right before a deliberate
    /// crash in the fault-injection harness).
    pub(crate) fn sync(&self) {
        if let Some(writer) = &self.writer {
            let _ = writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sync();
        }
    }
}

static ACTIVE: RwLock<Option<Arc<DurabilityContext>>> = RwLock::new(None);

/// Deactivates durability when dropped, fsyncing the journal first.
#[derive(Debug)]
pub struct DurabilityGuard {
    _private: (),
}

impl Drop for DurabilityGuard {
    fn drop(&mut self) {
        let ctx = ACTIVE
            .write()
            .map(|mut slot| slot.take())
            .unwrap_or_else(|e| e.into_inner().take());
        if let Some(ctx) = ctx {
            ctx.sync();
        }
        publish_journal_fd(None);
    }
}

/// The active journal's raw file descriptor, published for
/// async-signal-safe access. `-1` means no journal is active.
#[cfg(unix)]
static ACTIVE_JOURNAL_FD: AtomicI32 = AtomicI32::new(-1);

/// Publishes (or clears, on `None`) the active journal's descriptor.
#[cfg(unix)]
fn publish_journal_fd(writer: Option<&JournalWriter>) {
    ACTIVE_JOURNAL_FD.store(writer.map_or(-1, JournalWriter::raw_fd), Ordering::SeqCst);
}

#[cfg(not(unix))]
fn publish_journal_fd(_writer: Option<&JournalWriter>) {}

/// The active journal's raw file descriptor, or `-1` when no journal
/// is active. Safe to call from a signal handler (one atomic load):
/// `repro`'s SIGTERM/SIGINT handlers `fsync(2)` this descriptor so an
/// interrupted worker's journal tail is durable and the run is always
/// resumable.
#[cfg(unix)]
pub fn active_journal_fd() -> i32 {
    ACTIVE_JOURNAL_FD.load(Ordering::SeqCst)
}

/// Installs a durability configuration for every sweep in the process
/// until the returned guard is dropped. When `config.resume` is set the
/// journal is replayed first and the [`ReplayReport`] describes what
/// was restored (including whether a torn final record was skipped).
///
/// # Errors
///
/// [`DurabilityError::ResumeWithoutJournal`] when `resume` is set with
/// no journal path, [`DurabilityError::JournalMissing`] when the
/// journal to resume from does not exist, and
/// [`DurabilityError::Journal`] for I/O or corruption while replaying
/// or opening the journal.
pub fn activate(
    config: DurabilityConfig,
) -> Result<(DurabilityGuard, ReplayReport), DurabilityError> {
    let (replay, report) = if config.resume {
        let path = config
            .journal
            .as_deref()
            .ok_or(DurabilityError::ResumeWithoutJournal)?;
        if !path.exists() {
            return Err(DurabilityError::JournalMissing(path.to_path_buf()));
        }
        journal::replay(path)?
    } else {
        (ReplayMap::empty(), ReplayReport::default())
    };
    let writer = match &config.journal {
        Some(path) if config.resume => Some(JournalWriter::append_to(path)?),
        Some(path) => Some(JournalWriter::create(path)?),
        None => None,
    };
    publish_journal_fd(writer.as_ref());
    let ctx = DurabilityContext {
        writer: writer.map(Mutex::new),
        journal_broken: AtomicBool::new(false),
        replay,
        timeout: config.timeout,
        retries: config.retries,
        shard: config.shard,
        sweep_seq: AtomicU64::new(0),
    };
    match ACTIVE.write() {
        Ok(mut slot) => *slot = Some(Arc::new(ctx)),
        Err(e) => *e.into_inner() = Some(Arc::new(ctx)),
    }
    Ok((DurabilityGuard { _private: () }, report))
}

/// The active durability context, if any.
pub(crate) fn current() -> Option<Arc<DurabilityContext>> {
    ACTIVE
        .read()
        .ok()
        .and_then(|slot| slot.as_ref().map(Arc::clone))
}

// ---------------------------------------------------------------------
// Process-wide durability counters
// ---------------------------------------------------------------------

/// Process-wide durability counters (surfaced by `repro --stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityTotals {
    /// Points answered from the replayed journal instead of
    /// re-evaluation.
    pub journal_hits: u64,
    /// Journaled records ignored because their fingerprint did not
    /// match the live point (a journal from a different grid).
    pub journal_stale: u64,
    /// Retry attempts consumed by *this* process (replayed retry
    /// counts are restored into sweep health but not re-counted here).
    pub retries: u64,
}

/// A snapshot of the process-wide durability counters, read from the
/// [`ucore_obs`] registry (`journal.hits` / `journal.stale` /
/// `points.retries`).
pub fn durability_totals() -> DurabilityTotals {
    let m = crate::obs::metrics();
    DurabilityTotals {
        journal_hits: m.journal_hits.get(),
        journal_stale: m.journal_stale.get(),
        retries: m.retries.get(),
    }
}

pub(crate) fn note_journal_hits(n: u64) {
    crate::obs::metrics().journal_hits.add(n);
}

pub(crate) fn note_journal_stale(n: u64) {
    crate::obs::metrics().journal_stale.add(n);
}

pub(crate) fn note_retries(n: u64) {
    crate::obs::metrics().retries.add(n);
}

// ---------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------

/// First-retry base delay, milliseconds.
pub const BACKOFF_BASE_MS: u64 = 2;
/// Ceiling on the exponential raw delay, milliseconds.
pub const BACKOFF_CAP_MS: u64 = 64;

/// The delay before retry number `attempt` (0-based) of the point at
/// submission index `index`: exponential in the attempt
/// (`BACKOFF_BASE_MS << attempt`, capped at [`BACKOFF_CAP_MS`]) with
/// jitter in the upper half of the window. The jitter is *derived*, not
/// random — an FNV-1a hash of `(index, attempt)` — so the exact same
/// point retries after the exact same delay on any run.
pub fn backoff_delay(index: usize, attempt: u32) -> Duration {
    let raw = BACKOFF_BASE_MS
        .checked_shl(attempt.min(16))
        .unwrap_or(u64::MAX)
        .min(BACKOFF_CAP_MS);
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&(index as u64).to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    let jitter = journal::fnv1a64(&key) % (raw / 2).max(1);
    Duration::from_millis(raw / 2 + jitter)
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

thread_local! {
    /// The deadline armed for the evaluation currently running on this
    /// thread, if any: (start instant, budget).
    static WATCHDOG: Cell<Option<(Instant, Duration)>> = const { Cell::new(None) };
}

/// Arms the per-point watchdog for the evaluation about to run on this
/// thread.
pub(crate) fn arm_watchdog(budget: Duration) {
    WATCHDOG.with(|w| w.set(Some((Instant::now(), budget))));
}

/// Disarms the watchdog after an evaluation settles.
pub(crate) fn disarm_watchdog() {
    WATCHDOG.with(|w| w.set(None));
}

/// The armed deadline on this thread, if any.
pub(crate) fn watchdog_state() -> Option<(Instant, Duration)> {
    WATCHDOG.with(Cell::get)
}

/// The deterministic diagnostic a timed-out point fails with.
pub(crate) fn timeout_message(index: usize, budget: Duration) -> String {
    format!(
        "watchdog timeout: point {index} exceeded its {} ms deadline",
        budget.as_millis()
    )
}

/// Cooperative watchdog checkpoint.
///
/// Long-running evaluation code calls this at loop boundaries; when the
/// current thread's armed deadline has expired it panics with a
/// deterministic message, which the sweep's containment boundary
/// catches and converts to `Failed{timeout}`. Outside an armed
/// evaluation (the common case — sequential engine paths, tests) it is
/// a no-op costing one thread-local read.
///
/// The checkpoint also honors a *request* deadline (see
/// [`arm_request_deadline`]): a serving worker past its per-request
/// budget trips here with a distinct message, so every remaining point
/// of an over-budget request fails fast instead of wedging the worker.
pub fn watchdog_checkpoint() {
    if let Some((start, budget)) = watchdog_state() {
        if start.elapsed() >= budget {
            // ucore-lint: allow(panic-reachability): the watchdog's panic IS the containment signal; the sweep boundary catches it and converts it to Failed{timeout}
            panic!(
                "watchdog deadline exceeded ({} ms budget) at cooperative checkpoint",
                budget.as_millis()
            );
        }
    }
    if let Some((start, budget)) = request_deadline_state() {
        if start.elapsed() >= budget {
            // ucore-lint: allow(panic-reachability): the request-deadline panic is the same containment signal as the watchdog's; the sweep boundary converts it to a Failed outcome
            panic!(
                "request deadline exceeded ({} ms budget) at cooperative checkpoint",
                budget.as_millis()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Per-request deadlines (serving)
// ---------------------------------------------------------------------

thread_local! {
    /// The deadline armed for the *request* currently being served on
    /// this thread, if any: (start instant, budget). Kept separate from
    /// [`WATCHDOG`] because the sweep disarms the per-point watchdog
    /// after every evaluation, while a request deadline must outlive
    /// every point of the request.
    static REQUEST_DEADLINE: Cell<Option<(Instant, Duration)>> =
        const { Cell::new(None) };
}

/// Disarms the request deadline (restoring any enclosing one) on drop.
#[derive(Debug)]
pub struct RequestDeadlineGuard {
    previous: Option<(Instant, Duration)>,
}

impl Drop for RequestDeadlineGuard {
    fn drop(&mut self) {
        REQUEST_DEADLINE.with(|d| d.set(self.previous.take()));
    }
}

/// Arms a per-request deadline on the current thread.
///
/// While the returned guard lives, [`watchdog_checkpoint`] panics with
/// a deterministic `request deadline exceeded` message once `budget`
/// has elapsed — inside a sweep that panic is contained per point, so
/// an over-budget request degrades to fast `Failed` outcomes instead of
/// hanging. The deadline is thread-local, and a sweep runs on its
/// caller's thread, so one armed deadline covers the whole request.
#[must_use]
pub fn arm_request_deadline(budget: Duration) -> RequestDeadlineGuard {
    let previous =
        REQUEST_DEADLINE.with(|d| d.replace(Some((Instant::now(), budget))));
    RequestDeadlineGuard { previous }
}

/// The armed request deadline on this thread, if any.
fn request_deadline_state() -> Option<(Instant, Duration)> {
    REQUEST_DEADLINE.with(Cell::get)
}

/// Whether the current thread's armed request deadline has expired.
/// `false` when no deadline is armed.
pub fn request_deadline_expired() -> bool {
    request_deadline_state().is_some_and(|(start, budget)| start.elapsed() >= budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_windowed() {
        for attempt in 0..8u32 {
            let raw = (BACKOFF_BASE_MS << attempt.min(16)).min(BACKOFF_CAP_MS);
            for index in [0usize, 3, 17, 4096] {
                let d = backoff_delay(index, attempt);
                assert_eq!(d, backoff_delay(index, attempt), "reproducible");
                let ms = d.as_millis() as u64;
                assert!(ms >= raw / 2 && ms < raw.max(2), "attempt {attempt} index {index}: {ms}ms not in [{}, {raw})", raw / 2);
            }
        }
        // Jitter actually varies across indices.
        let distinct: std::collections::HashSet<_> =
            (0..64usize).map(|i| backoff_delay(i, 5)).collect();
        assert!(distinct.len() > 1, "jitter must separate indices");
    }

    #[test]
    fn backoff_never_overflows_at_extreme_attempts() {
        let d = backoff_delay(usize::MAX, u32::MAX);
        assert!(d.as_millis() as u64 <= BACKOFF_CAP_MS);
    }

    #[test]
    fn watchdog_is_inert_when_unarmed() {
        disarm_watchdog();
        watchdog_checkpoint(); // must not panic
        assert!(watchdog_state().is_none());
    }

    #[test]
    fn watchdog_trips_after_the_budget() {
        arm_watchdog(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let caught = std::panic::catch_unwind(watchdog_checkpoint);
        disarm_watchdog();
        let err = caught.expect_err("expired deadline must trip");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("watchdog deadline exceeded"), "{msg}");
    }

    #[test]
    fn request_deadline_trips_the_checkpoint_with_a_distinct_message() {
        let guard = arm_request_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(request_deadline_expired());
        let caught = std::panic::catch_unwind(watchdog_checkpoint);
        drop(guard);
        let err = caught.expect_err("expired request deadline must trip");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("request deadline exceeded"), "{msg}");
        // Disarmed after the guard drops: the checkpoint is inert again.
        assert!(!request_deadline_expired());
        watchdog_checkpoint();
    }

    #[test]
    fn request_deadline_guard_restores_the_enclosing_deadline() {
        let outer = arm_request_deadline(Duration::from_secs(3600));
        {
            let _inner = arm_request_deadline(Duration::from_millis(1));
            std::thread::sleep(Duration::from_millis(5));
            assert!(request_deadline_expired());
        }
        // Back on the (far-future) outer deadline.
        assert!(!request_deadline_expired());
        drop(outer);
    }

    #[test]
    fn resume_without_journal_is_a_typed_error() {
        let err = activate(DurabilityConfig { resume: true, ..Default::default() })
            .expect_err("resume without journal must fail");
        assert!(matches!(err, DurabilityError::ResumeWithoutJournal));
        assert!(err.to_string().contains("--resume requires --journal"), "{err}");
    }

    #[test]
    fn resume_from_a_missing_journal_is_a_typed_error() {
        let path = std::env::temp_dir().join(format!(
            "ucore-durability-missing-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let err = activate(DurabilityConfig {
            journal: Some(path.clone()),
            resume: true,
            ..Default::default()
        })
        .expect_err("missing journal must fail");
        assert!(matches!(err, DurabilityError::JournalMissing(_)));
        assert!(err.to_string().contains("does not exist"), "{err}");
    }
}
