//! Integration tests of the fault-containment guarantees.
//!
//! The contract under test (see DESIGN.md "Failure model & fault
//! containment"): an injected fault at submission index *k* degrades
//! exactly the one outcome at *k* to `Failed`, every other outcome is
//! bit-identical to an uninjected run, and the
//! memoized evaluation cache is never touched — let alone corrupted —
//! by a faulted point.

use std::sync::Arc;
use ucore_calibrate::WorkloadColumn;
use ucore_core::EvalCache;
use ucore_project::durability::{DurabilityConfig, RunContext};
use ucore_project::faultinject::{Fault, FaultPlan};
use ucore_project::sweep::{
    figure_points, sweep_in, SweepConfig, SweepPoint, SweepResult, SweepStats,
};
use ucore_project::{DesignId, ProjectionEngine, Scenario};

const UNCACHED: SweepConfig = SweepConfig { use_cache: false };

/// A run context injecting `faults` and nothing else. Each test sweeps
/// under its own context, so tests run concurrently.
fn with_faults(faults: FaultPlan) -> RunContext {
    RunContext::open(DurabilityConfig { faults, ..Default::default() }).unwrap().0
}

fn run(
    e: &ProjectionEngine,
    points: Vec<SweepPoint>,
    config: &SweepConfig,
    faults: FaultPlan,
) -> (Vec<SweepResult>, SweepStats) {
    sweep_in(e, points, config, &with_faults(faults))
}

fn engine() -> ProjectionEngine {
    ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
        .unwrap()
}

fn grid(engine: &ProjectionEngine) -> Vec<SweepPoint> {
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    figure_points(engine, &designs, WorkloadColumn::Fft1024, &[0.5, 0.999]).unwrap()
}

#[test]
fn injected_panic_is_contained_to_its_index() {
    let e = engine();
    let points = grid(&e);
    let k = 7;
    assert!(points.len() > k);

    let (reference, _) = run(&e, points.clone(), &UNCACHED, FaultPlan::new());
    let (injected, stats) = run(&e, points, &UNCACHED, FaultPlan::new().with(k, Fault::Panic));

    assert_eq!(injected.len(), reference.len());
    assert_eq!(stats.points_failed, 1, "exactly one failure");
    for (r, i) in reference.iter().zip(&injected) {
        assert_eq!(r.index, i.index);
        if i.index == k {
            assert_eq!(
                i.outcome.failure_message(),
                Some(format!("injected panic at point {k}").as_str()),
            );
        } else {
            // Bit-identical to the uninjected run.
            assert_eq!(r.outcome, i.outcome, "index {}", r.index);
        }
    }
}

#[test]
fn every_fault_kind_degrades_to_a_typed_failure() {
    let e = engine();
    let points = grid(&e);
    let plan = FaultPlan::new()
        .with(1, Fault::NanParam)
        .with(2, Fault::InfParam)
        .with(3, Fault::CacheError);
    let (results, stats) = run(&e, points, &UNCACHED, plan);

    assert_eq!(stats.points_failed, 3);
    let msg = |i: usize| results[i].outcome.failure_message().unwrap().to_string();
    // The poisoned scalar is rejected by ingress validation: the typed
    // ModelError message surfaces, never a raw NaN result.
    assert!(msg(1).contains("injected NaN parameter at point 1"), "{}", msg(1));
    assert!(msg(1).contains("outside [0, 1]"), "{}", msg(1));
    assert!(msg(2).contains("injected inf parameter at point 2"), "{}", msg(2));
    assert!(msg(3).contains("cache-layer error at point 3"), "{}", msg(3));
    assert!(results[0].outcome.failure_message().is_none());
}

#[test]
fn faulted_points_never_touch_the_memoized_cache() {
    let e = engine();
    let points = grid(&e);
    let n = points.len();

    // Injected run, cache enabled: the two faulted points must bypass
    // the cache entirely.
    let plan = FaultPlan::new().with(5, Fault::Panic).with(6, Fault::CacheError);
    let (_, injected_stats) = run(&e, points.clone(), &SweepConfig::default(), plan);
    assert_eq!(injected_stats.points_failed, 2);
    assert_eq!(
        injected_stats.cache_misses as usize,
        n - 2,
        "faulted points must not be evaluated or inserted"
    );
    assert_eq!(e.cache().stats().entries, n - 2);

    // Healthy re-run on the same cache: the surviving points all hit,
    // only the two previously-faulted points miss.
    let (healthy, healthy_stats) =
        run(&e, points.clone(), &SweepConfig::default(), FaultPlan::new());
    assert_eq!(healthy_stats.points_failed, 0);
    assert_eq!(healthy_stats.cache_hits as usize, n - 2);
    assert_eq!(healthy_stats.cache_misses as usize, 2);

    // And the memoized outcomes are bit-identical to a fresh, uncached
    // engine: nothing the faults did leaked into the cache.
    let fresh = engine();
    let (reference, _) = run(&fresh, points, &UNCACHED, FaultPlan::new());
    for (h, r) in healthy.iter().zip(&reference) {
        assert_eq!(h.outcome, r.outcome, "index {}", h.index);
    }
}

#[test]
fn faults_beyond_the_grid_are_inert() {
    let e = engine();
    let points = grid(&e);
    let plan = FaultPlan::new().with(1_000_000, Fault::Panic);
    let (results, stats) = run(&e, points, &UNCACHED, plan);
    assert_eq!(stats.points_failed, 0);
    assert!(results.iter().all(|r| r.outcome.failure_message().is_none()));
}

/// Two contexts sweep one engine from two threads at once; each sees
/// only its own fault plan.
#[test]
fn concurrent_contexts_inject_independently() {
    let e = engine();
    let points = grid(&e);
    let k = 4;
    let (reference, _) = run(&e, points.clone(), &UNCACHED, FaultPlan::new());
    // Both sweeps start together, so they overlap.
    let start = std::sync::Barrier::new(2);
    let sweep_after_start = |faults: FaultPlan| {
        start.wait();
        run(&e, points.clone(), &UNCACHED, faults)
    };
    let (faulted, inert) = std::thread::scope(|s| {
        let faulted = s.spawn(|| sweep_after_start(FaultPlan::new().with(k, Fault::Panic)));
        let inert = s.spawn(|| sweep_after_start(FaultPlan::new()));
        (faulted.join().unwrap(), inert.join().unwrap())
    });
    assert_eq!(faulted.1.points_failed, 1);
    assert_eq!(
        faulted.0[k].outcome.failure_message(),
        Some(format!("injected panic at point {k}").as_str()),
    );
    assert_eq!(inert.1.points_failed, 0, "the inert context saw the other's fault");
    assert_eq!(inert.0, reference);
}

/// The figure path reads the process slot `durability::activate` fills;
/// this is the only test in this file that touches it.
#[test]
fn figure_assembly_reports_failures_without_losing_the_figure() {
    // Index 3 of figure 6's sweep: f = 0.5 panel, first design, node 3.
    let (guard, _) = ucore_project::durability::activate(DurabilityConfig {
        faults: FaultPlan::new().with(3, Fault::Panic),
        ..Default::default()
    })
    .unwrap();
    let fig = ucore_project::figures::figure6().unwrap();
    drop(guard);

    assert_eq!(fig.health.points_failed, 1);
    assert_eq!(fig.failures.len(), 1);
    assert_eq!(fig.failures[0].index, 3);
    assert_eq!(fig.failures[0].f, 0.5);
    assert!(fig.failures[0].message.contains("injected panic at point 3"));
    // The figure itself still carries all four panels.
    assert_eq!(fig.panels.len(), 4);

    // An uninjected rebuild is healthy and differs only at the failed
    // node.
    let clean = ucore_project::figures::figure6().unwrap();
    assert_eq!(clean.health.points_failed, 0);
    assert!(clean.failures.is_empty());
    assert_eq!(clean.panels[1..], fig.panels[1..], "other panels untouched");
}
