//! Crossover tests: the observability layer under injected faults.
//!
//! Two subsystems with their own accounting must agree. The figure
//! pipeline reports per-run health (`FigureData::health`, `SweepStats`)
//! from data it threads through the sweep; the metrics registry counts
//! the same events through process-global counters. These tests inject
//! faults and assert the two ledgers move in lockstep — and that a
//! point's panic cannot corrupt the span ring buffer (the exit event is
//! emitted by the guard's `Drop` during unwinding).
//!
//! Registry counters are cumulative for the process, so every assertion
//! is on *deltas* between two snapshots.

use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use ucore_calibrate::WorkloadColumn;
use ucore_core::EvalCache;
use ucore_obs::MetricsSnapshot;
use ucore_project::durability::{self, DurabilityConfig, DurabilityGuard};
use ucore_project::faultinject::{Fault, FaultPlan};
use ucore_project::sweep::{figure_points, sweep, SweepConfig, SweepPoint};
use ucore_project::{DesignId, ProjectionEngine, Scenario};

/// The registry deltas under test (and the process slot the figure
/// path reads) are process-global; tests must not overlap.
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

/// Installs `faults` in the process slot until the guard drops.
fn activate(faults: FaultPlan) -> DurabilityGuard {
    durability::activate(DurabilityConfig { faults, ..Default::default() }).unwrap().0
}

/// Counter movement between two registry snapshots.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

#[test]
fn panic_fault_registry_deltas_match_figure_health() {
    let _lock = serialized();
    let before = ucore_obs::registry().snapshot();
    let guard = activate(FaultPlan::new().with(3, Fault::Panic));
    let fig = ucore_project::figures::figure6().unwrap();
    drop(guard);
    let after = ucore_obs::registry().snapshot();

    assert_eq!(
        delta(&before, &after, "points.ok") as usize,
        fig.health.points_ok
    );
    assert_eq!(
        delta(&before, &after, "points.infeasible") as usize,
        fig.health.points_infeasible
    );
    assert_eq!(
        delta(&before, &after, "points.failed") as usize,
        fig.health.points_failed
    );
    // This run did not resume a journal, so the registry's retry count
    // (this-process retries) equals the figure's (which would also
    // include replayed retries on a resumed run).
    assert_eq!(delta(&before, &after, "points.retries"), fig.health.retries);
    assert_eq!(
        delta(&before, &after, "points.submitted"),
        delta(&before, &after, "points.ok")
            + delta(&before, &after, "points.infeasible")
            + delta(&before, &after, "points.failed"),
        "outcome identity holds under an injected panic"
    );
    assert_eq!(
        delta(&before, &after, "failures.retained") as usize,
        fig.failures.len(),
        "each contained failure lands one retained diagnostic"
    );
}

#[test]
fn stall_fault_under_watchdog_moves_both_ledgers_identically() {
    let _lock = serialized();
    let e = engine();
    let points = grid(&e);
    let k = 5;
    let n = points.len();

    let before = ucore_obs::registry().snapshot();
    let (dur_guard, _) = durability::activate(DurabilityConfig {
        timeout: Some(Duration::from_millis(120)),
        faults: FaultPlan::new().with(k, Fault::Stall),
        ..Default::default()
    })
    .unwrap();
    let (_, stats) = sweep(&e, points, &SweepConfig::default());
    drop(dur_guard);
    let after = ucore_obs::registry().snapshot();

    assert_eq!(stats.points_failed, 1, "the stalled point times out");
    assert_eq!(delta(&before, &after, "points.submitted") as usize, n);
    assert_eq!(delta(&before, &after, "points.ok") as usize, stats.points_ok);
    assert_eq!(
        delta(&before, &after, "points.infeasible") as usize,
        stats.points_infeasible
    );
    assert_eq!(
        delta(&before, &after, "points.failed") as usize,
        stats.points_failed
    );
    assert_eq!(delta(&before, &after, "points.retries"), stats.retries);
    assert_eq!(delta(&before, &after, "sweep.batches"), 1);
}

#[test]
fn span_buffer_survives_worker_panics_uncorrupted() {
    let _lock = serialized();
    let e = engine();
    let points = grid(&e);
    let n = points.len();
    let k = 7;

    let trace_guard = ucore_obs::trace::start(ucore_obs::trace::DEFAULT_CAPACITY);
    let fault_guard = activate(FaultPlan::new().with(k, Fault::Panic));
    let (_, stats) = sweep(&e, points, &SweepConfig { use_cache: false });
    drop(fault_guard);
    let trace = ucore_obs::trace::snapshot().expect("tracing is armed");
    drop(trace_guard);

    assert_eq!(stats.points_failed, 1);
    assert_eq!(trace.dropped, 0, "this grid fits the default ring");
    // Every enter has a matching exit per name — including the panicked
    // point, whose exit is emitted while its evaluation unwinds.
    let mut balance = std::collections::BTreeMap::new();
    let mut node_point_enters = 0u64;
    let mut panicked_point_seen = false;
    for event in &trace.events {
        let name = trace.name(event.name);
        let slot = balance.entry(name).or_insert(0i64);
        match event.kind {
            ucore_obs::SpanKind::Enter => *slot += 1,
            ucore_obs::SpanKind::Exit => *slot -= 1,
        }
        if name == "engine.node_point" {
            if event.kind == ucore_obs::SpanKind::Enter {
                node_point_enters += 1;
            }
            if event.index == k as u64 {
                panicked_point_seen = true;
            }
        }
    }
    assert!(
        balance.values().all(|&v| v == 0),
        "unbalanced enter/exit counts: {balance:?}"
    );
    // The panicked point never reaches `resolve_point`'s evaluation of
    // the remaining points: all n points still open their span.
    assert_eq!(node_point_enters, n as u64);
    assert!(panicked_point_seen, "the faulted index traced its span");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The outcome identity `ok + infeasible + failed == submitted`
    /// holds for registry deltas under any mix of injected faults.
    #[test]
    fn outcome_identity_holds_under_random_faults(
        fault_indices in prop::collection::vec(0usize..40, 3),
    ) {
        let _lock = serialized();
        let e = engine();
        let points = grid(&e);
        let n = points.len();
        let mut plan = FaultPlan::new();
        let mut faulted = std::collections::BTreeSet::new();
        for (j, &i) in fault_indices.iter().enumerate() {
            if i < n && faulted.insert(i) {
                let fault = match j % 3 {
                    0 => Fault::Panic,
                    1 => Fault::NanParam,
                    _ => Fault::CacheError,
                };
                plan = plan.with(i, fault);
            }
        }

        let before = ucore_obs::registry().snapshot();
        let guard = activate(plan);
        let (_, stats) = sweep(&e, points, &SweepConfig { use_cache: false });
        drop(guard);
        let after = ucore_obs::registry().snapshot();

        let d = |name: &str| delta(&before, &after, name);
        prop_assert_eq!(d("points.submitted") as usize, n);
        prop_assert_eq!(
            d("points.ok") + d("points.infeasible") + d("points.failed"),
            d("points.submitted")
        );
        prop_assert_eq!(d("points.failed") as usize, faulted.len());
        prop_assert_eq!(d("points.failed") as usize, stats.points_failed);
    }
}
