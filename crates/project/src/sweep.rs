//! The design-space sweep engine.
//!
//! A projection figure is a batch of independent design-point
//! evaluations: every `(design, node, f)` cell of every panel runs the
//! same pure `r` sweep under its own budgets. Each point is a
//! closed-form evaluation of a few microseconds, so a sweep resolves its
//! points in submission order on the caller's thread; process-level
//! parallelism is `repro --shards N` ([`crate::shard`]).
//!
//! # Determinism
//!
//! Evaluating a point reads only the point itself and the engine's
//! immutable scenario/Table 5 state. The shared
//! [`EvalCache`](ucore_core::EvalCache) memoizes `Result`s of a pure
//! function keyed on every input, so a cache hit returns exactly what
//! the evaluation would have computed.
//!
//! # Fault containment
//!
//! Every point evaluates inside [`contain`](crate::contain()): a panic —
//! a model bug on a pathological corner of the design space, or a fault
//! injected by the run's [`FaultPlan`](crate::faultinject::FaultPlan) —
//! degrades that one
//! point to [`Outcome::Failed`] instead of aborting the sweep. The
//! containment guarantees are:
//!
//! * a fault at point *k* produces exactly one `Failed` outcome, at
//!   index *k*;
//! * every other outcome is bit-identical to an uninjected run;
//! * the shared memoization cache is never polluted by a failed point
//!   (a contained panic happens *before* the cache insert; an injected
//!   cache error bypasses the cache entirely).
//!
//! Failed points are counted in [`SweepStats`], surfaced in figure
//! exports, and policed by `repro --max-failures` (default 0: any
//! failure fails the run).
//!
//! # Observability
//!
//! Every sweep returns [`SweepStats`] alongside its results: points
//! evaluated, outcome counts (ok / infeasible / failed), threads used
//! (always 1), cache hit/miss deltas, and the wall time of the
//! evaluation phase.
//! The `repro --stats` flag surfaces the global totals after rendering.
//!
//! # Run configuration
//!
//! [`sweep_in`] takes its whole run configuration as arguments: a
//! [`SweepConfig`] for this call and a [`RunContext`] for the run
//! (journal, retries, shard lease, fault plan). [`sweep`] is the
//! adapter the figures use: it reads the process slot that
//! [`durability::activate`] fills and the thread's request deadline.

// An output-producing path: no wall clock, no hash-ordered containers.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use crate::contain::contain;
use crate::durability::{self, Deadline, RunContext};
use crate::engine::{DesignId, ProjectionEngine};
use crate::faultinject::Fault;
use crate::journal::{self, JournalRecord, ReplayLookup};
use crate::obs;
use crate::results::NodePoint;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use ucore_calibrate::WorkloadColumn;
use ucore_core::{Budgets, ParallelFraction};
use ucore_itrs::NodeParams;

/// One unit of sweep work: a fully specified design-point evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The chip design under evaluation.
    pub design: DesignId,
    /// The workload column supplying the U-core calibration.
    pub column: WorkloadColumn,
    /// The roadmap node supplying the physical budgets.
    pub node: NodeParams,
    /// The model budgets (already converted to BCE units, and already
    /// widened if the point is bandwidth-exempt).
    pub budgets: Budgets,
    /// The workload's parallel fraction.
    pub f: ParallelFraction,
}

/// How one design-point evaluation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A feasible optimum was found.
    Feasible(NodePoint),
    /// No feasible design exists at this cell (an *expected*, typed
    /// outcome under tight budgets — the sequential engine omits such
    /// nodes from its series).
    Infeasible,
    /// The evaluation failed: it panicked, or a fault was injected. The
    /// failure is contained to this point; the rest of the sweep is
    /// unaffected.
    Failed {
        /// The panic payload or injected-fault diagnostic.
        panic_msg: String,
    },
}

impl Outcome {
    /// The evaluated node point, when feasible.
    pub fn node_point(&self) -> Option<NodePoint> {
        match self {
            Outcome::Feasible(p) => Some(*p),
            _ => None,
        }
    }

    /// Whether this point failed (panicked or was fault-injected).
    pub fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }

    /// Whether this point was infeasible under its budgets.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, Outcome::Infeasible)
    }

    /// The failure diagnostic, when failed.
    pub fn failure_message(&self) -> Option<&str> {
        match self {
            Outcome::Failed { panic_msg } => Some(panic_msg),
            _ => None,
        }
    }
}

/// The outcome of one [`SweepPoint`], tagged with its submission index.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Position of the point in the submitted batch.
    pub index: usize,
    /// The point that was evaluated.
    pub point: SweepPoint,
    /// How the evaluation ended.
    pub outcome: Outcome,
}

/// How a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Whether evaluations go through the engine's memoization cache.
    /// Disable for benchmarking the uncached path; results are identical
    /// either way.
    pub use_cache: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { use_cache: true }
    }
}

/// Counters from one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Points in the batch (evaluated or answered from cache).
    pub points: usize,
    /// Points that produced a feasible optimum.
    pub points_ok: usize,
    /// Points with no feasible design under their budgets.
    pub points_infeasible: usize,
    /// Points whose evaluation failed (contained panic or injected
    /// fault).
    pub points_failed: usize,
    /// Points outside this process's shard lease, skipped without
    /// evaluation or journaling. Always 0 unless a `--shard I/N` lease
    /// is active; skipped points are excluded from
    /// `points_infeasible`.
    pub points_skipped: usize,
    /// Threads the sweep ran on: always 1, the caller's.
    pub threads: usize,
    /// Cache hits during this sweep.
    pub cache_hits: u64,
    /// Cache misses (optimizer runs) during this sweep. Zero when the
    /// sweep ran with the cache disabled.
    pub cache_misses: u64,
    /// Points answered by replaying a run journal (`--resume`) instead
    /// of re-evaluating.
    pub journal_hits: u64,
    /// Retry attempts consumed by this sweep's points. Replayed points
    /// contribute the retry count recorded in the journal, so a
    /// resumed run's health accounting matches the uninterrupted run
    /// exactly.
    pub retries: u64,
    /// Wall time of the evaluation phase.
    pub wall: Duration,
}

/// Process-wide outcome totals across every sweep so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeTotals {
    /// Feasible points.
    pub ok: u64,
    /// Infeasible points.
    pub infeasible: u64,
    /// Failed (contained) points.
    pub failed: u64,
}

/// The process-wide outcome totals (the `repro --stats` /
/// `--max-failures` counters) — a typed view of the `points.ok` /
/// `points.infeasible` / `points.failed` registry counters (see the
/// private `crate::obs` module for the metric-name contract).
pub fn outcome_totals() -> OutcomeTotals {
    let m = obs::metrics();
    OutcomeTotals {
        ok: m.ok.get(),
        infeasible: m.infeasible.get(),
        failed: m.failed.get(),
    }
}

/// A retained failure diagnostic (the first
/// [`MAX_RETAINED_FAILURES`] per process are kept for reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureDiagnostic {
    /// Submission index of the failed point within its sweep.
    pub index: usize,
    /// The contained panic payload or injected-fault message.
    pub panic_msg: String,
}

/// Retention cap for per-process failure diagnostics: enough to
/// diagnose, bounded so a pathological sweep cannot balloon memory.
pub const MAX_RETAINED_FAILURES: usize = 64;

static FAILURE_LOG: Mutex<Vec<FailureDiagnostic>> = Mutex::new(Vec::new());

fn record_failures<'a>(results: impl Iterator<Item = (usize, &'a Outcome)>) {
    let m = obs::metrics();
    let mut log = FAILURE_LOG
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for (index, outcome) in results {
        if let Outcome::Failed { panic_msg } = outcome {
            if log.len() >= MAX_RETAINED_FAILURES {
                // Keep counting what the bounded log cannot hold, so a
                // flood of failures is visible (`--stats`), not silent.
                m.failures_dropped.inc();
            } else {
                log.push(FailureDiagnostic { index, panic_msg: panic_msg.clone() });
                m.failures_retained.inc();
            }
        }
    }
}

/// Failure diagnostics discarded because the bounded log
/// ([`MAX_RETAINED_FAILURES`]) was already full (the
/// `failures.dropped` registry counter).
pub fn failures_dropped() -> u64 {
    obs::metrics().failures_dropped.get()
}

/// A snapshot of the retained per-process failure diagnostics.
pub fn failure_diagnostics() -> Vec<FailureDiagnostic> {
    FAILURE_LOG
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// [`sweep_in`] under the process's active run context
/// ([`durability::activate`]), or an inert one, and the calling thread's
/// request deadline.
pub fn sweep(
    engine: &ProjectionEngine,
    points: Vec<SweepPoint>,
    config: &SweepConfig,
) -> (Vec<SweepResult>, SweepStats) {
    let ctx = durability::current().unwrap_or_default();
    run_sweep(engine, points, config, &ctx, durability::request_deadline())
}

/// Evaluates a batch of points, in order, on the calling thread, under
/// the run context `ctx`.
///
/// Results come back in submission order with their indices, so callers
/// can reassemble figures deterministically.
///
/// Evaluation is fault-contained: a panicking point (or one poisoned by
/// the context's fault plan) yields [`Outcome::Failed`] for that index
/// while every other point completes normally.
pub fn sweep_in(
    engine: &ProjectionEngine,
    points: Vec<SweepPoint>,
    config: &SweepConfig,
    ctx: &RunContext,
) -> (Vec<SweepResult>, SweepStats) {
    run_sweep(engine, points, config, ctx, None)
}

/// The body of [`sweep_in`] and [`sweep`]: every point reached after
/// `deadline` expires fails with its message instead of being
/// evaluated.
fn run_sweep(
    engine: &ProjectionEngine,
    points: Vec<SweepPoint>,
    config: &SweepConfig,
    ctx: &RunContext,
    deadline: Option<Deadline>,
) -> (Vec<SweepResult>, SweepStats) {
    // Sweeps execute in a deterministic order for a given command, so
    // the sequence number lines a resumed run's sweeps up with the
    // journaled ones.
    let sweep_seq = ctx.next_sweep_seq();
    let _span = ucore_obs::span!("project.sweep", sweep_seq, points.len());
    let run = SweepRun {
        engine,
        config,
        ctx,
        deadline,
        sweep_seq,
        // A shard worker owns only its lease of the batch; everything
        // else is skipped before evaluation, journaling, or fault
        // injection.
        lease: ctx.shard.map(|spec| spec.lease(points.len())),
    };
    let cache_before = engine.cache().stats();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock feeds only the SweepStats elapsed field, which is observability \
                  metadata excluded from output bytes"
    )]
    let start = Instant::now();

    let resolutions: Vec<PointResolution> = points
        .iter()
        .enumerate()
        .map(|(i, p)| run.resolve_point(p, i))
        .collect();
    // One batch-final fsync bounds journal loss to the in-flight tail.
    ctx.sync();

    let wall = start.elapsed();
    let cache_after = engine.cache().stats();
    let points_ok = resolutions
        .iter()
        .filter(|r| r.outcome.node_point().is_some())
        .count();
    let points_skipped = resolutions.iter().filter(|r| r.skipped).count();
    let points_infeasible = resolutions
        .iter()
        .filter(|r| r.outcome.is_infeasible() && !r.skipped)
        .count();
    let points_failed = resolutions.iter().filter(|r| r.outcome.is_failed()).count();
    let journal_hits = resolutions.iter().filter(|r| r.replayed).count() as u64;
    let retries: u64 = resolutions.iter().map(|r| u64::from(r.retries)).sum();
    let m = obs::metrics();
    m.sweep_batches.inc();
    m.submitted.add(points.len() as u64);
    m.ok.add(points_ok as u64);
    m.infeasible.add(points_infeasible as u64);
    m.failed.add(points_failed as u64);
    if points_skipped > 0 {
        m.shard_points_skipped.add(points_skipped as u64);
    }
    // Feasible speedups are model outputs, so this histogram is part of
    // the deterministic snapshot (bucket counts are order-independent).
    for speedup in resolutions
        .iter()
        .filter_map(|r| r.outcome.node_point().map(|p| p.speedup))
    {
        m.speedup.observe(speedup);
    }
    m.journal_hits.add(journal_hits);
    if points_failed > 0 {
        record_failures(
            resolutions.iter().enumerate().map(|(i, r)| (i, &r.outcome)),
        );
    }
    let stats = SweepStats {
        points: points.len(),
        points_ok,
        points_infeasible,
        points_failed,
        points_skipped,
        threads: 1,
        cache_hits: cache_after.hits - cache_before.hits,
        cache_misses: cache_after.misses - cache_before.misses,
        journal_hits,
        retries,
        wall,
    };
    record_phase(stats);
    let results = points
        .into_iter()
        .zip(resolutions)
        .enumerate()
        .map(|(index, (point, resolution))| SweepResult {
            index,
            point,
            outcome: resolution.outcome,
        })
        .collect();
    (results, stats)
}

/// Retention cap for the phase log: far above the 14 sweeps of
/// `repro --all`, bounded so a long-running server that never drains
/// the log cannot grow with every request.
const MAX_RETAINED_PHASES: usize = 256;

/// The completed sweeps of the process, in completion order (the first
/// [`MAX_RETAINED_PHASES`] since the last drain) — the "wall time per
/// phase" log behind `repro --stats`.
static PHASE_LOG: Mutex<Vec<SweepStats>> = Mutex::new(Vec::new());

fn record_phase(stats: SweepStats) {
    let mut log = PHASE_LOG.lock().unwrap_or_else(PoisonError::into_inner);
    if log.len() < MAX_RETAINED_PHASES {
        log.push(stats);
    }
}

/// Drains and returns the per-sweep phase log accumulated so far.
pub fn drain_phase_log() -> Vec<SweepStats> {
    std::mem::take(
        &mut *PHASE_LOG.lock().unwrap_or_else(PoisonError::into_inner),
    )
}

/// How one point was resolved: the outcome, plus the durability
/// accounting the sweep folds into its stats.
#[derive(Debug)]
struct PointResolution {
    outcome: Outcome,
    /// Retry attempts consumed (journaled value when replayed).
    retries: u32,
    /// Whether the outcome came from the replayed journal.
    replayed: bool,
    /// Whether the point was outside this worker's shard lease and
    /// skipped without evaluation (its `Infeasible` outcome is a
    /// placeholder, not a model result).
    skipped: bool,
}

/// The inputs every point of one sweep shares.
struct SweepRun<'a> {
    engine: &'a ProjectionEngine,
    config: &'a SweepConfig,
    ctx: &'a RunContext,
    deadline: Option<Deadline>,
    sweep_seq: u64,
    lease: Option<Range<usize>>,
}

impl SweepRun<'_> {
    /// Resolves one point through the full durability pipeline:
    ///
    /// 1. **Replay** — with a resumed journal, a matching
    ///    `(sweep, index, fingerprint)` record answers the point without
    ///    re-evaluation (a journal hit). A record whose fingerprint does
    ///    not match the live point (stale journal) is ignored.
    /// 2. **Kill fault** — `kill@i` aborts the process here, after an
    ///    fsync, modelling a `kill -9` between two completed points.
    /// 3. **Evaluate + retry** — the contained evaluation runs; a
    ///    `Failed` outcome is retried up to the configured budget with
    ///    deterministic backoff ([`durability::backoff_delay`]).
    /// 4. **Journal** — the settled outcome (and its retry count) is
    ///    appended to the run journal.
    ///
    /// With a shard lease, an out-of-lease point short-circuits *before*
    /// any of the above: it is not evaluated, not journaled, and no
    /// injected fault fires for it — only the worker that owns a point
    /// can crash on it.
    fn resolve_point(&self, point: &SweepPoint, index: usize) -> PointResolution {
        if self.lease.as_ref().is_some_and(|l| !l.contains(&index)) {
            return PointResolution {
                outcome: Outcome::Infeasible,
                retries: 0,
                replayed: false,
                skipped: true,
            };
        }
        let ctx = self.ctx;
        let _span = ucore_obs::span!("engine.node_point", self.sweep_seq, index);
        let fingerprint = ctx.has_journal().then(|| journal::point_fingerprint(point));
        if let Some(fp) = fingerprint {
            match ctx.replay.lookup(self.sweep_seq, index, fp) {
                ReplayLookup::Hit(rec) => {
                    return PointResolution {
                        outcome: rec.outcome.clone(),
                        retries: rec.retries,
                        replayed: true,
                        skipped: false,
                    }
                }
                ReplayLookup::Stale => obs::metrics().journal_stale.inc(),
                ReplayLookup::Miss => {}
            }
        }
        if ctx.faults.fault_at(index) == Some(Fault::Kill) {
            // A deterministic crash for the durability suite: flush every
            // completed point, then die without unwinding — exactly what
            // a kill -9 between two points leaves behind.
            ctx.sync();
            std::process::abort();
        }
        let mut attempt: u32 = 0;
        // Wall time routed through the sanctioned obs clock: it feeds
        // only the `sweep.point_us` timing histogram, never output bytes.
        let eval_started_ns = ucore_obs::clock::wall_ns();
        let outcome = loop {
            let outcome = self.evaluate_contained(point, index, attempt);
            if !outcome.is_failed() || attempt >= ctx.retries {
                break outcome;
            }
            std::thread::sleep(durability::backoff_delay(index, attempt));
            attempt += 1;
        };
        let elapsed_us = ucore_obs::clock::wall_ns().saturating_sub(eval_started_ns) / 1_000;
        obs::metrics().point_us.observe(elapsed_us as f64);
        if attempt > 0 {
            obs::metrics().retries.add(u64::from(attempt));
        }
        if let Some(fp) = fingerprint {
            if ctx.journaling() {
                ctx.append(&JournalRecord {
                    sweep_seq: self.sweep_seq,
                    index,
                    fingerprint: fp,
                    retries: attempt,
                    outcome: outcome.clone(),
                });
            }
        }
        PointResolution { outcome, retries: attempt, replayed: false, skipped: false }
    }

    /// Evaluates one point inside a panic boundary, applying any
    /// injected fault first. Injected parameter faults route the
    /// poisoned scalar through the model's ingress validation, so the
    /// typed rejection — never a raw NaN — becomes the contained
    /// failure. The injected cache-layer error returns before any cache
    /// access, so the shared memo table cannot be polluted by it.
    ///
    /// An injected stall is released as a deterministic
    /// `Failed{timeout}` once the context's `--timeout-ms` budget
    /// expires. A point reached after the sweep's request deadline
    /// fails with the deadline's message instead of being evaluated.
    fn evaluate_contained(&self, point: &SweepPoint, index: usize, attempt: u32) -> Outcome {
        let fault = self.ctx.faults.fault_for_attempt(index, attempt);
        match fault {
            Some(Fault::NanParam) => return injected_param_fault(index, f64::NAN),
            Some(Fault::InfParam) => return injected_param_fault(index, f64::INFINITY),
            Some(Fault::CacheError) => {
                return Outcome::Failed {
                    panic_msg: format!(
                        "injected cache-layer error at point {index}: memo lookup failed"
                    ),
                }
            }
            Some(Fault::Stall) => return stalled_point(index, self.ctx.timeout),
            // `resolve_point` aborts on a kill before evaluating; disk
            // faults fire at the journal append, not the evaluation.
            Some(Fault::Kill | Fault::DiskEnospc | Fault::DiskEio) => {}
            Some(Fault::Panic) | None => {}
        }
        let caught = contain(|| {
            #[expect(
                clippy::panic,
                reason = "deliberate fault injection exercising the containment boundary that catches it"
            )]
            if matches!(fault, Some(Fault::Panic)) {
                panic!("injected panic at point {index}");
            }
            match self.deadline {
                Some(deadline) if deadline.expired() => Err(deadline.exceeded_message()),
                _ => Ok(evaluate(self.engine, point, self.config.use_cache)),
            }
        });
        match caught {
            Ok(Ok(Some(node_point))) => Outcome::Feasible(node_point),
            Ok(Ok(None)) => Outcome::Infeasible,
            Ok(Err(panic_msg)) | Err(panic_msg) => Outcome::Failed { panic_msg },
        }
    }
}

/// Cap on an injected stall when no `--timeout-ms` budget is
/// configured: the stall still terminates (with a distinct diagnostic)
/// instead of hanging a run forever.
const UNWATCHED_STALL_CAP: Duration = Duration::from_secs(30);

/// An injected stall: the point hangs — sleeping in short slices, like
/// stuck evaluation code polling a dead resource — until the
/// `--timeout-ms` budget expires and releases it as a deterministic
/// `Failed{timeout}`.
fn stalled_point(index: usize, timeout: Option<Duration>) -> Outcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "the injected stall's clock decides only *when* the deterministic timeout \
                  message is released, never its bytes"
    )]
    let started = Instant::now();
    loop {
        match timeout {
            Some(budget) if started.elapsed() >= budget => {
                return Outcome::Failed {
                    panic_msg: durability::timeout_message(index, budget),
                }
            }
            None if started.elapsed() >= UNWATCHED_STALL_CAP => {
                return Outcome::Failed {
                    panic_msg: format!(
                        "injected stall at point {index} ran {} s with no watchdog \
                         deadline configured; releasing",
                        UNWATCHED_STALL_CAP.as_secs()
                    ),
                }
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A poisoned scalar pushed through ingress validation: the typed
/// `ModelError` it earns is the point's failure diagnostic.
fn injected_param_fault(index: usize, bad: f64) -> Outcome {
    let rejection = match ParallelFraction::new(bad) {
        Err(e) => e.to_string(),
        Ok(_) => String::from("ingress validation unexpectedly accepted it"),
    };
    Outcome::Failed {
        panic_msg: format!("injected {bad} parameter at point {index}: {rejection}"),
    }
}

fn evaluate(
    engine: &ProjectionEngine,
    point: &SweepPoint,
    use_cache: bool,
) -> Option<NodePoint> {
    // Portfolio designs have no single-U-core chip spec: they sweep the
    // Multi-Amdahl allocator instead of the cached optimizer.
    if let DesignId::Portfolio(design) = point.design {
        return engine.portfolio_point(design, &point.node, &point.budgets, point.f);
    }
    let spec = engine.chip_spec(point.design, point.column)?;
    engine.node_point(&spec, &point.node, &point.budgets, point.f, use_cache)
}

/// Builds the sweep batch for one figure: every `(f, design, node)`
/// combination in nesting order (`f` outermost, node innermost), with
/// budgets resolved per node and the bandwidth exemption applied.
///
/// # Errors
///
/// Propagates calibration errors from budget derivation and invalid
/// parallel fractions, exactly as the sequential figure builder does.
pub fn figure_points(
    engine: &ProjectionEngine,
    designs: &[DesignId],
    column: WorkloadColumn,
    f_values: &[f64],
) -> Result<Vec<SweepPoint>, crate::engine::ProjectionError> {
    let nodes = engine.scenario().roadmap().nodes().to_vec();
    let mut points = Vec::with_capacity(f_values.len() * designs.len() * nodes.len());
    for &fv in f_values {
        let f = ParallelFraction::new(fv).map_err(|e| {
            crate::engine::ProjectionError::Infeasible { reason: e.to_string() }
        })?;
        for &design in designs {
            let exempt = ProjectionEngine::bandwidth_exempt(design, column);
            for node in &nodes {
                let budgets = engine.budgets(node, column, exempt)?;
                points.push(SweepPoint { design, column, node: *node, budgets, f });
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use std::sync::Arc;
    use ucore_core::EvalCache;

    fn engine() -> ProjectionEngine {
        // A private cache per test engine keeps stats assertions exact.
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
            .unwrap()
    }

    fn batch(e: &ProjectionEngine) -> Vec<SweepPoint> {
        let designs = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        figure_points(e, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99]).unwrap()
    }

    #[test]
    fn cached_equals_uncached() {
        let e = engine();
        let points = batch(&e);
        let uncached = SweepConfig { use_cache: false };
        let (plain, _) = sweep(&e, points.clone(), &uncached);
        let (cached_cold, cold) = sweep(&e, points.clone(), &SweepConfig::default());
        let (cached_warm, warm) = sweep(&e, points, &SweepConfig::default());
        for (a, b) in plain.iter().zip(&cached_cold) {
            assert_eq!(a.outcome, b.outcome, "cold index {}", a.index);
        }
        for (a, b) in plain.iter().zip(&cached_warm) {
            assert_eq!(a.outcome, b.outcome, "warm index {}", a.index);
        }
        assert!(cold.cache_misses > 0);
        assert_eq!(warm.cache_misses, 0, "second pass is fully memoized");
        assert_eq!(warm.cache_hits as usize, warm.points);
    }

    #[test]
    fn results_are_in_submission_order() {
        let e = engine();
        let points = batch(&e);
        let n = points.len();
        let (results, stats) = sweep(&e, points, &SweepConfig::default());
        assert_eq!(results.len(), n);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert_eq!(stats.points, n);
        assert_eq!(stats.points_ok + stats.points_infeasible + stats.points_failed, n);
        assert_eq!(stats.points_failed, 0, "healthy sweeps have no failures");
        assert_eq!(stats.threads, 1, "sweeps run on the caller's thread");
    }

    #[test]
    fn figure_points_cover_the_grid_in_nesting_order() {
        let e = engine();
        let designs = DesignId::for_column(e.table5(), WorkloadColumn::Fft1024);
        let nodes = e.scenario().roadmap().nodes().len();
        let points =
            figure_points(&e, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9]).unwrap();
        assert_eq!(points.len(), 2 * designs.len() * nodes);
        // f outermost, then design, then node.
        assert_eq!(points[0].f.get(), 0.5);
        assert_eq!(points[nodes].design, designs[1]);
        assert_eq!(points[designs.len() * nodes].f.get(), 0.9);
    }

    #[test]
    fn infeasible_cells_come_back_as_infeasible() {
        // The 10 W scenario starves power-hungry symmetric designs at
        // early nodes.
        let e = ProjectionEngine::with_cache(
            Scenario::s5_low_power(),
            Arc::new(EvalCache::new()),
        )
        .unwrap();
        let points =
            figure_points(&e, &[DesignId::SymCmp], WorkloadColumn::Fft1024, &[0.999])
                .unwrap();
        let (results, stats) = sweep(&e, points, &SweepConfig::default());
        assert!(stats.points_infeasible > 0, "10 W starves early nodes");
        assert_eq!(stats.points_failed, 0, "infeasible is not failed");
        // The sequential engine omits infeasible nodes; the sweep marks
        // them Infeasible. Both views must agree.
        let sequential = e
            .project(
                DesignId::SymCmp,
                WorkloadColumn::Fft1024,
                ParallelFraction::new(0.999).unwrap(),
            )
            .unwrap();
        let feasible: Vec<_> =
            results.iter().filter_map(|r| r.outcome.node_point()).collect();
        assert_eq!(feasible, sequential);
    }

    const EXCEEDED: &str = "request deadline exceeded (0 ms budget) at cooperative checkpoint";

    #[test]
    fn an_armed_request_deadline_fails_every_point() {
        let e = engine();
        let guard = durability::arm_request_deadline(Duration::ZERO);
        let (results, stats) = sweep(&e, batch(&e), &SweepConfig::default());
        drop(guard);
        assert_eq!(stats.points_failed, results.len());
        assert!(results.iter().all(|r| r.outcome.failure_message() == Some(EXCEEDED)));
        let (_, stats) = sweep(&e, batch(&e), &SweepConfig::default());
        assert_eq!(stats.points_failed, 0, "the deadline is disarmed with its guard");
    }

    #[test]
    fn an_injected_panic_fires_before_the_deadline_check() {
        let e = engine();
        let (ctx, _) = RunContext::open(durability::DurabilityConfig {
            faults: crate::faultinject::FaultPlan::new().with(2, Fault::Panic),
            ..Default::default()
        })
        .unwrap();
        let expired = Some(Deadline::after(Duration::ZERO));
        let (results, _) = run_sweep(&e, batch(&e), &SweepConfig::default(), &ctx, expired);
        for r in &results {
            let expected = if r.index == 2 { "injected panic at point 2" } else { EXCEEDED };
            assert_eq!(r.outcome.failure_message(), Some(expected), "index {}", r.index);
        }
    }

    #[test]
    fn phase_log_is_bounded_without_a_drain() {
        for _ in 0..MAX_RETAINED_PHASES + 10 {
            record_phase(SweepStats::default());
        }
        assert!(drain_phase_log().len() <= MAX_RETAINED_PHASES);
    }
}
