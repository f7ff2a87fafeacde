//! Failure-injection tests: corrupt inputs at every layer and verify
//! errors surface as typed errors (never panics, never silent NaNs in
//! results).

use ucore::model::{
    Budgets, ChipSpec, ModelError, Optimizer, ParallelFraction, Speedup, UCore,
};
use ucore::simdev::{SimLab, SimLabError};
use ucore::workloads::{Workload, WorkloadError};
use ucore_devices::DeviceId;

#[test]
fn model_layer_rejects_poisoned_scalars() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
        assert!(UCore::new(bad, 1.0).is_err(), "mu = {bad}");
        assert!(UCore::new(1.0, bad).is_err(), "phi = {bad}");
        assert!(Budgets::new(bad, 1.0, 1.0).is_err(), "area = {bad}");
        assert!(Speedup::new(bad).is_err(), "speedup = {bad}");
    }
    for bad in [f64::NAN, -0.1, 1.1] {
        assert!(ParallelFraction::new(bad).is_err(), "f = {bad}");
    }
}

#[test]
fn optimizer_failure_is_typed_not_panicking() {
    // A power budget below one BCE can never host even the smallest
    // sequential core.
    let spec = ChipSpec::symmetric();
    let budgets = Budgets::new(10.0, 0.25, 10.0).unwrap();
    let err = Optimizer::paper_default()
        .optimize(&spec, &budgets, ParallelFraction::new(0.9).unwrap())
        .unwrap_err();
    assert!(matches!(err, ModelError::Infeasible { .. }));
    let msg = err.to_string();
    assert!(msg.contains("no feasible design"), "{msg}");
}

#[test]
fn workload_layer_rejects_malformed_sizes() {
    assert!(matches!(
        Workload::fft(1000),
        Err(WorkloadError::NotPowerOfTwo { size: 1000 })
    ));
    assert!(matches!(
        Workload::mmm(0),
        Err(WorkloadError::ZeroSize { .. })
    ));
}

#[test]
fn kernel_buffer_mismatches_are_errors() {
    use ucore::workloads::fft::{Complex, Direction, Fft};
    let fft = Fft::new(16).unwrap();
    let mut wrong = vec![Complex::ZERO; 8];
    assert!(matches!(
        fft.transform(&mut wrong, Direction::Forward),
        Err(WorkloadError::LengthMismatch { expected: 16, actual: 8 })
    ));

    use ucore::workloads::mmm::{naive, Matrix};
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(4, 2);
    assert!(naive::multiply(&a, &b).is_err());
}

#[test]
fn lab_gaps_do_not_cascade_into_the_pipeline() {
    // A missing measurement is an error at the lab...
    let lab = SimLab::paper();
    let err = lab
        .measure(DeviceId::R5870, Workload::black_scholes())
        .unwrap_err();
    assert!(matches!(err, SimLabError::NoData { .. }));

    // ... but calibration skips the gap instead of failing, exactly as
    // the published table has dashes.
    let table = ucore::calibrate::Table5::derive().unwrap();
    assert!(table
        .ucore(DeviceId::R5870, ucore::calibrate::WorkloadColumn::Bs)
        .is_none());

    // ... and the projection layer reports the unusable design.
    let engine =
        ucore::project::ProjectionEngine::new(ucore::project::Scenario::baseline())
            .unwrap();
    let err = engine
        .project(
            ucore::project::DesignId::Het(DeviceId::R5870),
            ucore::calibrate::WorkloadColumn::Bs,
            ParallelFraction::new(0.9).unwrap(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("calibration"));
}

#[test]
fn infeasible_nodes_are_omitted_not_fabricated() {
    // Under a 1 W budget nothing can run; the projection must come back
    // empty rather than invent points.
    use ucore::project::{DesignId, ProjectionEngine, Scenario};
    use ucore_itrs::Roadmap;
    let scenario =
        Scenario::baseline().with_roadmap(Roadmap::itrs_2009().with_power_budget_w(1.0));
    let engine = ProjectionEngine::new(scenario).unwrap();
    let points = engine
        .project(
            DesignId::SymCmp,
            ucore::calibrate::WorkloadColumn::Fft1024,
            ParallelFraction::new(0.9).unwrap(),
        )
        .unwrap();
    assert!(
        points.len() < 5,
        "a 1 W symmetric CMP should be infeasible at early nodes"
    );
    for p in points {
        assert!(p.speedup.is_finite());
    }
}

#[test]
fn sweep_contains_injected_panics_behind_the_facade() {
    // The whole fault-containment stack is reachable through the `ucore`
    // facade: inject a panic at one design point, and the sweep still
    // returns a full result set with exactly that point degraded.
    use std::sync::Arc;
    use ucore::model::EvalCache;
    use ucore::project::durability::{activate, DurabilityConfig};
    use ucore::project::faultinject::{Fault, FaultPlan};
    use ucore::project::sweep::{figure_points, sweep, SweepConfig};
    use ucore::project::{DesignId, ProjectionEngine, Scenario};

    let engine =
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
            .unwrap();
    let column = ucore::calibrate::WorkloadColumn::Fft1024;
    let designs = DesignId::for_column(engine.table5(), column);
    let points = figure_points(&engine, &designs, column, &[0.9]).unwrap();
    let n = points.len();

    let faults = FaultPlan::new().with(2, Fault::Panic);
    let (guard, _) = activate(DurabilityConfig { faults, ..Default::default() }).unwrap();
    let (results, stats) = sweep(&engine, points, &SweepConfig { use_cache: false });
    drop(guard);

    assert_eq!(results.len(), n, "a contained fault never truncates the sweep");
    assert_eq!(stats.points_failed, 1);
    assert_eq!(stats.points_ok + stats.points_infeasible, n - 1);
    for r in &results {
        if r.index == 2 {
            let msg = r.outcome.failure_message().unwrap();
            assert!(msg.contains("injected panic at point 2"), "{msg}");
        } else {
            assert!(r.outcome.failure_message().is_none(), "index {}", r.index);
        }
    }
}

#[test]
fn ucore_error_composes_every_subsystem_behind_one_question_mark() {
    use ucore::project::faultinject::FaultPlan;
    use ucore::UcoreError;
    use ucore_devices::Catalog;
    use ucore_itrs::Roadmap;

    // Each subsystem's typed error converts into the workspace taxonomy
    // via `?`, keeping its subsystem prefix in the display.
    let cases: Vec<(UcoreError, &str)> = vec![
        (UCore::new(f64::NAN, 1.0).unwrap_err().into(), "model:"),
        (
            Catalog::from_specs(Vec::new())
                .unwrap()
                .try_device(DeviceId::R5870)
                .map(|_| ())
                .unwrap_err()
                .into(),
            "device:",
        ),
        (Roadmap::from_nodes(vec![]).unwrap_err().into(), "roadmap:"),
        (Workload::fft(7).unwrap_err().into(), "workload:"),
        (
            SimLab::paper()
                .measure(DeviceId::R5870, Workload::black_scholes())
                .unwrap_err()
                .into(),
            "simlab:",
        ),
        (FaultPlan::parse("bogus@@").unwrap_err().into(), "fault spec:"),
    ];
    for (err, prefix) in cases {
        let msg = err.to_string();
        assert!(msg.starts_with(prefix), "{msg:?} should start with {prefix:?}");
        assert!(std::error::Error::source(&err).is_some(), "{msg} chains its source");
    }
}

#[test]
fn display_of_every_error_is_informative() {
    let errors: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(UCore::new(-1.0, 1.0).unwrap_err()),
        Box::new(Workload::fft(7).unwrap_err()),
        Box::new(
            SimLab::paper()
                .measure(DeviceId::R5870, Workload::black_scholes())
                .unwrap_err(),
        ),
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(!msg.contains("Error {"), "debug leak: {msg}");
    }
}
