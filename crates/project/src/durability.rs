//! The run configuration a sweep reads: journaling, resume, the
//! injected-stall timeout, retry policy, the shard lease and the fault
//! plan, held as plain values in one [`RunContext`].
//!
//! [`RunContext::open`] builds a context from a [`DurabilityConfig`];
//! [`sweep_in`](crate::sweep::sweep_in) takes it as an argument and
//! reads nothing else. [`activate`] instead installs the context in the
//! process slot that [`sweep`](crate::sweep::sweep) (and so every
//! figure) consults, and publishes its journal descriptor for the
//! [`signals`] handler.
//!
//! * **Journal** — each completed point is appended to the configured
//!   [`journal`] file, so a killed run can be resumed.
//! * **Resume** — the journal of a previous (interrupted) run is
//!   replayed up front; points whose `(sweep, index, fingerprint)`
//!   matches a journaled record are *not* re-evaluated, and the figure
//!   output is byte-identical to an uninterrupted run because replayed
//!   outcomes carry their exact bit patterns and retry counts.
//! * **Timeout** — `--timeout-ms` releases an injected stall
//!   (`stall@i`) as a contained `Failed` outcome with a deterministic
//!   timeout message instead of hanging the figure.
//! * **Retry** — failed points are retried up to a bounded number of
//!   attempts with exponential backoff and *deterministic* jitter
//!   ([`backoff_delay`], keyed on submission index and attempt, no
//!   RNG), so retry behavior is identical on every run.
//! * **Faults** — the [`FaultPlan`] to inject. The library never reads
//!   `UCORE_FAULT_INJECT`; the binaries parse it once at startup.
//!
//! A served request's deadline is separate: [`arm_request_deadline`]
//! arms it on the worker thread, and [`sweep`](crate::sweep::sweep)
//! reads it once per sweep; [`sweep_in`](crate::sweep::sweep_in) has no
//! deadline.
//!
//! All of this is off by default: `RunContext::default()` journals,
//! retries and injects nothing.

use crate::faultinject::{Fault, FaultPlan};
use crate::journal::{self, JournalError, JournalRecord, JournalWriter, ReplayMap, ReplayReport};
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
    /// How long an injected stall may hang before it is released as a
    /// `Failed` timeout (`--timeout-ms`).
    pub timeout: Option<Duration>,
    /// Retry attempts for failed points (`--retries N`; 0 = no
    /// retries).
    pub retries: u32,
    /// Restrict every sweep to this shard's index-range lease
    /// (`--shard I/N`). Out-of-lease points are skipped without
    /// evaluation or journaling and reported in
    /// `SweepStats::points_skipped`.
    pub shard: Option<ShardSpec>,
    /// Faults to inject, keyed by submission index. The binaries parse
    /// `UCORE_FAULT_INJECT` into it; empty by default.
    pub faults: FaultPlan,
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

/// Everything a sweep reads about its run: the journal writer, the
/// replayed journal, the retry and timeout policy, the shard lease, the
/// fault plan and the sweep counter. The default is inert.
#[derive(Debug, Default)]
pub struct RunContext {
    writer: Option<Mutex<JournalWriter>>,
    /// Set after the first journal write failure: journaling degrades
    /// to a one-time warning, never a run abort (the run's *results*
    /// are unaffected; only resumability is lost).
    journal_broken: AtomicBool,
    pub(crate) replay: ReplayMap,
    pub(crate) timeout: Option<Duration>,
    pub(crate) retries: u32,
    pub(crate) shard: Option<ShardSpec>,
    pub(crate) faults: FaultPlan,
    sweep_seq: AtomicU64,
}

impl RunContext {
    /// Opens the journal `config` names (replaying it first when
    /// `config.resume` is set) and returns the context with a
    /// [`ReplayReport`] of what was restored, including whether a torn
    /// final record was skipped.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::ResumeWithoutJournal`] when `resume` is set
    /// with no journal path, [`DurabilityError::JournalMissing`] when
    /// the journal to resume from does not exist, and
    /// [`DurabilityError::Journal`] for I/O or corruption while
    /// replaying or opening the journal.
    pub fn open(config: DurabilityConfig) -> Result<(Self, ReplayReport), DurabilityError> {
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
        let ctx = RunContext {
            writer: writer.map(Mutex::new),
            journal_broken: AtomicBool::new(false),
            replay,
            timeout: config.timeout,
            retries: config.retries,
            shard: config.shard,
            faults: config.faults,
            sweep_seq: AtomicU64::new(0),
        };
        Ok((ctx, report))
    }

    /// Claims the next sweep sequence number. Sweeps run in a
    /// deterministic order for a given command line, so sequence
    /// numbers line up between an interrupted run and its resume.
    pub(crate) fn next_sweep_seq(&self) -> u64 {
        self.sweep_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether this run keeps a journal, so points need fingerprints.
    pub(crate) fn has_journal(&self) -> bool {
        self.writer.is_some()
    }

    /// Whether appends currently reach the journal.
    pub(crate) fn journaling(&self) -> bool {
        self.writer.is_some() && !self.journal_broken.load(Ordering::Relaxed)
    }

    /// Appends one completed point. Write failures disable journaling
    /// for the rest of the run with a single stderr warning. A planned
    /// `enospc@i` / `eio@i` disk fault for this record's submission
    /// index fails the append with a synthesized I/O error, exercising
    /// exactly this degradation path.
    pub(crate) fn append(&self, record: &JournalRecord) {
        if self.journal_broken.load(Ordering::Relaxed) {
            return;
        }
        let Some(writer) = &self.writer else { return };
        let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let injected = self.faults.fault_at(record.index).and_then(Fault::disk_error);
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

/// The process slot [`activate`] fills and [`sweep`](crate::sweep::sweep)
/// reads.
static ACTIVE: RwLock<Option<Arc<RunContext>>> = RwLock::new(None);

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
/// [`signals`]' handler. `-1` means no journal is active.
#[cfg(unix)]
static ACTIVE_JOURNAL_FD: AtomicI32 = AtomicI32::new(-1);

/// Publishes (or clears, on `None`) the active journal's descriptor.
#[cfg(unix)]
fn publish_journal_fd(ctx: Option<&RunContext>) {
    let fd = ctx.and_then(|c| c.writer.as_ref()).map_or(-1, |w| {
        w.lock().unwrap_or_else(PoisonError::into_inner).raw_fd()
    });
    ACTIVE_JOURNAL_FD.store(fd, Ordering::SeqCst);
}

#[cfg(not(unix))]
fn publish_journal_fd(_ctx: Option<&RunContext>) {}

/// SIGINT/SIGTERM handling for the binaries: `fsync(2)` the active
/// journal and `_exit(2)` with the conventional `128 + signum` code
/// (130 for SIGINT, 143 for SIGTERM), distinct from 1 (error) and 2
/// (policy breach), so callers can tell "interrupted but resumable"
/// apart from "failed". Everything in the handler is async-signal-safe:
/// atomic operations, `fsync(2)` and `_exit(2)`; no allocation, no
/// locks, no Rust I/O. Off unix, [`install`](signals::install) does
/// nothing.
#[cfg_attr(
    unix,
    expect(
        unsafe_code,
        reason = "the signal(2), fsync(2) and _exit(2) calls have no safe wrapper in std"
    )
)]
pub mod signals {
    #[cfg(unix)]
    use super::ACTIVE_JOURNAL_FD;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[cfg(unix)]
    const SIGINT: i32 = 2;
    #[cfg(unix)]
    const SIGTERM: i32 = 15;

    static TWO_STAGE: AtomicBool = AtomicBool::new(false);
    static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn fsync(fd: i32) -> i32;
        fn _exit(code: i32) -> !;
    }

    /// Installs the SIGINT/SIGTERM handlers. With `two_stage`, the first
    /// signal only sets the flag [`requested`] reads, so the caller can
    /// drain gracefully; a second signal flushes and exits at once.
    /// Without it, every signal flushes and exits.
    pub fn install(two_stage: bool) {
        TWO_STAGE.store(two_stage, Ordering::SeqCst);
        #[cfg(unix)]
        for sig in [SIGINT, SIGTERM] {
            // SAFETY: signal(2) installing a handler that only performs
            // async-signal-safe operations (see on_signal).
            unsafe { signal(sig, on_signal) };
        }
    }

    /// Whether a two-stage handler has seen its first signal.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    extern "C" fn on_signal(signum: i32) {
        if TWO_STAGE.load(Ordering::SeqCst) && !REQUESTED.swap(true, Ordering::SeqCst) {
            return;
        }
        let fd = ACTIVE_JOURNAL_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: fsync(2) is async-signal-safe; a stale or closed
            // descriptor returns EBADF, which is ignored.
            unsafe { fsync(fd) };
        }
        // SAFETY: _exit(2) is async-signal-safe and never returns.
        unsafe { _exit(128 + signum) }
    }
}

/// Opens `config` ([`RunContext::open`]) and installs it for every
/// [`sweep`](crate::sweep::sweep) in the process until the returned
/// guard is dropped.
///
/// # Errors
///
/// As [`RunContext::open`].
pub fn activate(
    config: DurabilityConfig,
) -> Result<(DurabilityGuard, ReplayReport), DurabilityError> {
    let (ctx, report) = RunContext::open(config)?;
    publish_journal_fd(Some(&ctx));
    match ACTIVE.write() {
        Ok(mut slot) => *slot = Some(Arc::new(ctx)),
        Err(e) => *e.into_inner() = Some(Arc::new(ctx)),
    }
    Ok((DurabilityGuard { _private: () }, report))
}

/// The active run context, if any.
pub(crate) fn current() -> Option<Arc<RunContext>> {
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

/// The deterministic diagnostic an injected stall is released with
/// once its `--timeout-ms` budget runs out.
pub(crate) fn timeout_message(index: usize, budget: Duration) -> String {
    format!(
        "watchdog timeout: point {index} exceeded its {} ms deadline",
        budget.as_millis()
    )
}

// ---------------------------------------------------------------------
// Per-request deadlines (serving)
// ---------------------------------------------------------------------

/// A time budget that started at a fixed instant. Every point a sweep
/// reaches past it fails fast.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub(crate) fn after(budget: Duration) -> Self {
        Deadline { start: Instant::now(), budget }
    }

    /// Whether the budget has run out.
    pub(crate) fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// The diagnostic a point evaluated past this deadline fails with.
    pub(crate) fn exceeded_message(&self) -> String {
        format!(
            "request deadline exceeded ({} ms budget) at cooperative checkpoint",
            self.budget.as_millis()
        )
    }
}

thread_local! {
    /// The deadline armed for the *request* currently being served on
    /// this thread, if any.
    static REQUEST_DEADLINE: Cell<Option<Deadline>> = const { Cell::new(None) };
}

/// Disarms the request deadline (restoring any enclosing one) on drop.
#[derive(Debug)]
pub struct RequestDeadlineGuard {
    previous: Option<Deadline>,
}

impl Drop for RequestDeadlineGuard {
    fn drop(&mut self) {
        REQUEST_DEADLINE.with(|d| d.set(self.previous.take()));
    }
}

/// Arms a per-request deadline on the current thread.
///
/// While the returned guard lives, every [`sweep`](crate::sweep::sweep)
/// on this thread reads the deadline once and fails each point it
/// reaches after `budget` has elapsed with a deterministic
/// `request deadline exceeded` message, so an over-budget request
/// degrades to fast `Failed` outcomes instead of hanging. A sweep runs
/// on its caller's thread, so one armed deadline covers the whole
/// request.
#[must_use]
pub fn arm_request_deadline(budget: Duration) -> RequestDeadlineGuard {
    let previous = REQUEST_DEADLINE.with(|d| d.replace(Some(Deadline::after(budget))));
    RequestDeadlineGuard { previous }
}

/// The armed request deadline on this thread, if any.
pub(crate) fn request_deadline() -> Option<Deadline> {
    REQUEST_DEADLINE.with(Cell::get)
}

/// Whether the current thread's armed request deadline has expired.
/// `false` when no deadline is armed.
pub fn request_deadline_expired() -> bool {
    request_deadline().is_some_and(|d| d.expired())
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
        let err = RunContext::open(DurabilityConfig { resume: true, ..Default::default() })
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
        let err = RunContext::open(DurabilityConfig {
            journal: Some(path.clone()),
            resume: true,
            ..Default::default()
        })
        .expect_err("missing journal must fail");
        assert!(matches!(err, DurabilityError::JournalMissing(_)));
        assert!(err.to_string().contains("does not exist"), "{err}");
    }
}
