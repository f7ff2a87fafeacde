//! Property-based tests over the projection engine.

use proptest::prelude::*;
use ucore_calibrate::WorkloadColumn;
use ucore_core::ParallelFraction;
use ucore_devices::DeviceId;
use ucore_project::{DesignId, ProjectionEngine, Scenario};

fn engine() -> ProjectionEngine {
    ProjectionEngine::new(Scenario::baseline()).expect("shipped data calibrates")
}

fn any_column() -> impl Strategy<Value = WorkloadColumn> {
    prop::sample::select(vec![
        WorkloadColumn::Mmm,
        WorkloadColumn::Bs,
        WorkloadColumn::Fft1024,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn projections_are_finite_feasible_and_within_budget(
        fv in 0.01f64..=0.999,
        column in any_column(),
    ) {
        let e = engine();
        let f = ParallelFraction::new(fv).unwrap();
        for design in DesignId::for_column(e.table5(), column) {
            let points = e.project(design, column, f).unwrap();
            for p in &points {
                prop_assert!(p.speedup.is_finite() && p.speedup >= 1.0 - 1e-9);
                prop_assert!(p.r >= 1.0 && p.r <= 16.0);
                prop_assert!(p.n >= p.r);
                prop_assert!(p.energy.is_finite() && p.energy > 0.0);
            }
        }
    }

    #[test]
    fn speedup_monotone_in_f_pointwise(
        lo in 0.05f64..0.5,
        column in any_column(),
    ) {
        let e = engine();
        let hi = lo + 0.45;
        for design in DesignId::for_column(e.table5(), column) {
            let s_lo = e.project(design, column, ParallelFraction::new(lo).unwrap()).unwrap();
            let s_hi = e.project(design, column, ParallelFraction::new(hi).unwrap()).unwrap();
            for (a, b) in s_lo.iter().zip(&s_hi) {
                prop_assert!(b.speedup + 1e-9 >= a.speedup,
                    "{design} {column} {:?}: f {lo}->{hi} dropped {} -> {}",
                    a.node, a.speedup, b.speedup);
            }
        }
    }

    #[test]
    fn more_generous_scenarios_never_hurt(
        fv in 0.5f64..=0.999,
    ) {
        let f = ParallelFraction::new(fv).unwrap();
        let base = engine();
        let rich = ProjectionEngine::new(Scenario::s4_high_power()).unwrap();
        for design in [DesignId::AsymCmp, DesignId::Het(DeviceId::Gtx480)] {
            let b = base.project(design, WorkloadColumn::Fft1024, f).unwrap();
            let r = rich.project(design, WorkloadColumn::Fft1024, f).unwrap();
            for (pb, pr) in b.iter().zip(&r) {
                prop_assert!(pr.speedup + 1e-9 >= pb.speedup, "{design} {:?}", pb.node);
            }
        }
    }
}
