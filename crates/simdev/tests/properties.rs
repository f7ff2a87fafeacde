//! Property-based tests over the simulated lab.

use proptest::prelude::*;
use ucore_devices::DeviceId;
use ucore_simdev::power::PowerModel;
use ucore_simdev::probe::CurrentProbe;
use ucore_simdev::{data, Roofline};

fn any_device() -> impl Strategy<Value = DeviceId> {
    prop::sample::select(DeviceId::ALL.to_vec())
}

proptest! {
    #[test]
    fn roofline_attainable_never_exceeds_either_ceiling(
        compute in 0.1f64..1e4,
        bandwidth in 0.1f64..1e3,
        intensity in 0.001f64..1e3,
    ) {
        let r = Roofline::new(compute, bandwidth);
        let (attained, _) = r.attainable(intensity);
        prop_assert!(attained <= compute + 1e-9);
        prop_assert!(attained <= bandwidth * intensity + 1e-9);
        prop_assert!(attained >= 0.0);
    }

    #[test]
    fn roofline_verdict_is_consistent_with_ridge(
        compute in 0.1f64..1e4,
        bandwidth in 0.1f64..1e3,
        intensity in 0.001f64..1e3,
    ) {
        use ucore_simdev::RooflineVerdict;
        let r = Roofline::new(compute, bandwidth);
        let (_, verdict) = r.attainable(intensity);
        if intensity >= r.ridge_intensity() {
            prop_assert_eq!(verdict, RooflineVerdict::ComputeBound);
        } else {
            prop_assert_eq!(verdict, RooflineVerdict::BandwidthBound);
        }
    }

    #[test]
    fn power_breakdown_components_are_non_negative_and_sum(
        device in any_device(),
        core_watts in 0.0f64..500.0,
        traffic in 0.0f64..500.0,
    ) {
        let b = PowerModel::for_device(device).breakdown(core_watts, traffic);
        for part in [b.core_dynamic, b.core_leakage, b.uncore_static, b.uncore_dynamic, b.unknown] {
            prop_assert!(part >= 0.0);
        }
        let sum = b.core_dynamic + b.core_leakage + b.uncore_static
            + b.uncore_dynamic + b.unknown;
        prop_assert!((b.total() - sum).abs() < 1e-9);
        prop_assert!((b.core_total() - core_watts).abs() < 1e-9);
    }

    #[test]
    fn uncore_subtraction_recovers_core_power_within_residue(
        device in any_device(),
        core_watts in 1.0f64..300.0,
        traffic in 0.0f64..300.0,
    ) {
        let m = PowerModel::for_device(device);
        let total = m.breakdown(core_watts, traffic).total();
        let recovered = m.subtract_uncore(total, traffic);
        prop_assert!((recovered - core_watts).abs() / core_watts < 0.10);
    }

    #[test]
    fn probe_steady_state_is_within_the_noise_band(
        watts in 0.1f64..500.0,
        noise in 0.0f64..0.10,
        seed in 0u64..1000,
    ) {
        let mut probe = CurrentProbe::new(watts, noise, seed);
        let reading = probe.steady_state(200);
        prop_assert!(reading >= watts * (1.0 - noise) - 1e-9);
        prop_assert!(reading <= watts * (1.0 + noise) + 1e-9);
    }

    #[test]
    fn fft_data_monotone_metadata(
        log2 in 4u32..=20,
    ) {
        // Every published FFT observable is positive, and area is
        // consistent with perf / perf_per_mm2.
        for device in [DeviceId::CoreI7_960, DeviceId::Gtx285, DeviceId::Gtx480,
                       DeviceId::V6Lx760, DeviceId::Asic] {
            let d = data::fft_data(device, 1usize << log2).unwrap();
            prop_assert!(d.perf > 0.0);
            prop_assert!(d.perf_per_mm2 > 0.0);
            prop_assert!(d.perf_per_joule > 0.0);
            let area = d.area_mm2();
            prop_assert!((d.perf / area - d.perf_per_mm2).abs() / d.perf_per_mm2 < 1e-9);
        }
    }
}
