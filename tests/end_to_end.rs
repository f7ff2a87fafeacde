//! End-to-end pipeline tests across every crate, through the `ucore`
//! facade: real kernels → simulated lab → calibration → projection →
//! export.

use std::time::Duration;
use ucore::calibrate::{BceCalibration, Table5, WorkloadColumn};
use ucore::model::ParallelFraction;
use ucore::project::{figures, DesignId, ProjectionEngine, Scenario};
use ucore::simdev::SimLab;
use ucore::workloads::{measure_throughput, Workload};
use ucore_devices::{DeviceId, TechNode};

#[test]
fn real_kernels_run_and_report_throughput() {
    // The executable substrate actually executes: every kernel family
    // produces positive throughput on this machine.
    for workload in [
        Workload::mmm(48).expect("valid"),
        Workload::fft(512).expect("valid"),
        Workload::black_scholes(),
    ] {
        let sample = measure_throughput(workload, Duration::from_millis(25))
            .expect("kernels run");
        assert!(sample.value > 0.0, "{workload}");
        assert!(sample.iterations > 0, "{workload}");
    }
}

#[test]
fn lab_to_calibration_to_projection_pipeline() {
    // Lab measurements...
    let lab = SimLab::paper();
    let i7 = lab
        .measure(DeviceId::CoreI7_960, Workload::fft(1024).expect("valid"))
        .expect("published cell");
    assert!(i7.perf > 0.0);

    // ... feed calibration ...
    let table5 = Table5::derive().expect("calibration succeeds");
    assert_eq!(table5.rows().len(), 20);

    // ... which feeds the BCE anchoring ...
    let bce = BceCalibration::derive(Workload::fft(1024).expect("valid"))
        .expect("i7 baseline exists");
    assert!(bce.watts() > 5.0 && bce.watts() < 20.0);

    // ... which drives a full projection.
    let engine = ProjectionEngine::new(Scenario::baseline()).expect("engine builds");
    let f = ParallelFraction::new(0.99).expect("valid");
    let points = engine
        .project(DesignId::Het(DeviceId::Asic), WorkloadColumn::Fft1024, f)
        .expect("published cell");
    assert_eq!(points.len(), 5);
    assert!(points.iter().all(|p| p.speedup > 1.0));
}

#[test]
fn figures_serialize_to_json_and_back() {
    let fig = figures::figure8().expect("projection succeeds");
    let json = serde_json::to_string(&fig).expect("serializable");
    // Rewriting the parsed tree gives back the exact bytes; shortest
    // round-trip floats make that a lossless round trip.
    let back: serde_json::Value = serde_json::from_str(&json).expect("parses");
    assert_eq!(serde_json::to_string(&back).expect("serializable"), json);
    assert!(json.contains("ASIC"));
}

#[test]
fn every_figure_generates() {
    assert_eq!(figures::figure6().expect("fig6").panels.len(), 4);
    assert_eq!(figures::figure7().expect("fig7").panels.len(), 4);
    assert_eq!(figures::figure8().expect("fig8").panels.len(), 2);
    assert_eq!(figures::figure9().expect("fig9").panels.len(), 4);
    assert_eq!(figures::figure10().expect("fig10").panels.len(), 3);
}

#[test]
fn facade_reexports_line_up() {
    // The same types are reachable through the facade and the leaf
    // crates.
    let via_facade = ucore::model::UCore::new(2.0, 0.5).expect("valid");
    let direct = ucore_core::UCore::new(2.0, 0.5).expect("valid");
    assert_eq!(via_facade, direct);
    assert_eq!(
        ucore::devices::TechNode::N40.feature_nm(),
        ucore_devices::TechNode::N40.feature_nm()
    );
}

#[test]
fn dark_silicon_story_holds_end_to_end() {
    // The whole point of the paper in one test: by 11 nm the area budget
    // has grown ~16x but the usable power only ~4x, so a conventional
    // CMP strands silicon while an efficient U-core keeps using it.
    let engine = ProjectionEngine::new(Scenario::baseline()).expect("engine builds");
    let f = ParallelFraction::new(0.99).expect("valid");
    let cmp = engine
        .project(DesignId::AsymCmp, WorkloadColumn::Mmm, f)
        .expect("feasible");
    let at11 = cmp.iter().find(|p| p.node == TechNode::N11).expect("feasible");
    // The CMP cannot use even a quarter of the 298-BCE area budget.
    assert!(at11.n < 75.0, "CMP used {} BCE", at11.n);

    let fpga = engine
        .project(DesignId::Het(DeviceId::V6Lx760), WorkloadColumn::Mmm, f)
        .expect("feasible");
    let fpga11 = fpga.iter().find(|p| p.node == TechNode::N11).expect("feasible");
    // The low-power FPGA fabric uses far more of the die.
    assert!(fpga11.n > at11.n * 2.0, "FPGA used {} BCE", fpga11.n);
}
