//! Validation of the model's foundations and extensions through the
//! facade: Hill-Marty regression anchors, mixed-fabric chips,
//! calibration sensitivity, and the fine-grained yearly projections.

use ucore::calibrate::{mu_ranking, table5_with_conventions, Table5, WorkloadColumn};
use ucore::model::hillmarty::{optimize as hm_optimize, HillMartyMachine};
use ucore::model::{ChipSpec, ParallelFraction};
use ucore::project::{DesignId, ProjectionEngine, Scenario};
use ucore_devices::DeviceId;

fn f(v: f64) -> ParallelFraction {
    ParallelFraction::new(v).expect("valid fraction")
}

#[test]
fn hill_marty_foundations_hold() {
    // The base model this paper extends, reproduced: n = 256, f = 0.975.
    let sym = hm_optimize(HillMartyMachine::Symmetric, f(0.975), 256.0).unwrap();
    let asym = hm_optimize(HillMartyMachine::Asymmetric, f(0.975), 256.0).unwrap();
    let dynamic = hm_optimize(HillMartyMachine::Dynamic, f(0.975), 256.0).unwrap();
    assert!((sym.speedup - 51.2).abs() < 0.5);
    assert!((asym.speedup - 125.0).abs() < 1.5);
    assert!((dynamic.speedup - 186.5).abs() < 2.0);
}

#[test]
fn profiles_matter_for_mixed_fabric_chips() {
    // Routing each phase of a two-kernel workload to its own fabric: a
    // chip with an MMM ASIC and an FFT GPU fabric beats a single-fabric
    // compromise.
    use ucore::model::{MixedChip, UCorePartition};
    let table5 = Table5::derive().unwrap();
    let mmm_asic = table5.ucore(DeviceId::Asic, WorkloadColumn::Mmm).unwrap();
    let fft_gpu = table5
        .ucore(DeviceId::Gtx480, WorkloadColumn::Fft1024)
        .unwrap();
    let mixed = MixedChip::new(
        75.0,
        2.0,
        vec![
            UCorePartition { ucore: mmm_asic, area_share: 0.5, work_share: 0.5 },
            UCorePartition { ucore: fft_gpu, area_share: 0.5, work_share: 0.5 },
        ],
    )
    .unwrap()
    .with_optimal_shares();
    // The single-fabric alternative runs both kernels on the GPU fabric.
    let gpu_only = ChipSpec::heterogeneous(fft_gpu);
    let fv = f(0.99);
    let mixed_speedup = mixed.speedup(fv).unwrap().get();
    let gpu_speedup = gpu_only.speedup(fv, 75.0, 2.0).unwrap().get();
    assert!(
        mixed_speedup > gpu_speedup,
        "mixed {mixed_speedup} should beat single-fabric {gpu_speedup}"
    );
}

#[test]
fn calibration_conventions_do_not_flip_conclusions() {
    let strict = table5_with_conventions(0.79, 2.06, 1.75).unwrap();
    for column in WorkloadColumn::ALL {
        let ranking = mu_ranking(&strict, column);
        assert_eq!(ranking[0], DeviceId::Asic, "{column}");
    }
}

#[test]
fn yearly_projection_fills_the_node_gaps() {
    let engine = ProjectionEngine::new(Scenario::baseline()).unwrap();
    let years = engine
        .project_yearly(
            DesignId::Het(DeviceId::Gtx480),
            WorkloadColumn::Fft1024,
            f(0.99),
        )
        .unwrap();
    assert_eq!(years.len(), 12);
    assert_eq!(years.first().unwrap().year, 2011);
    assert_eq!(years.last().unwrap().year, 2022);
    // Intermediate years move smoothly: no jump exceeds the biggest
    // node-to-node step.
    let max_step = years
        .windows(2)
        .map(|p| (p[1].speedup - p[0].speedup).abs())
        .fold(0.0, f64::max);
    let total = years.last().unwrap().speedup - years.first().unwrap().speedup;
    assert!(max_step < total * 0.6, "step {max_step} of total {total}");
}
