//! The power-breakdown model (Figure 3) and the uncore-subtraction
//! methodology (§4.2).
//!
//! The paper reports total device power split into core dynamic, core
//! leakage, uncore static, uncore dynamic, and an "unknown" remainder;
//! the compute-only power used for calibration is obtained by running
//! microbenchmarks that exercise only the memory system and subtracting
//! their draw. The lab reproduces both steps with a parameterized model:
//!
//! * **core power** (dynamic + leakage) comes from the calibrated
//!   `perf / (perf/J)` observables in [`crate::data`];
//! * **leakage** is a device-class-dependent fraction of core power;
//! * **uncore static** is a per-device constant (idle memory
//!   controllers, PLLs, I/O);
//! * **uncore dynamic** is proportional to the off-chip traffic;
//! * **unknown** is a small measurement residue.

use serde::Serialize;
use ucore_devices::DeviceId;

/// One device's power, split the way Figure 3 plots it (watts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerBreakdown {
    /// Switching power of the compute cores.
    pub core_dynamic: f64,
    /// Leakage of the compute cores.
    pub core_leakage: f64,
    /// Constant power of non-compute blocks (memory controllers, I/O).
    pub uncore_static: f64,
    /// Traffic-dependent power of the memory system.
    pub uncore_dynamic: f64,
    /// Measurement residue the paper labels "Unknown".
    pub unknown: f64,
}

impl PowerBreakdown {
    /// Total measured wall power.
    pub fn total(&self) -> f64 {
        self.core_dynamic + self.core_leakage + self.uncore_static + self.uncore_dynamic
            + self.unknown
    }

    /// The compute-only power the calibration wants: core dynamic plus
    /// core leakage.
    pub fn core_total(&self) -> f64 {
        self.core_dynamic + self.core_leakage
    }
}

/// The parameterized breakdown model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerModel {
    leakage_fraction: f64,
    uncore_static_w: f64,
    uncore_w_per_gb_s: f64,
    unknown_fraction: f64,
}

impl PowerModel {
    /// The lab's model for a given device, with class-appropriate
    /// constants: GPUs carry heavy uncore (GDDR interfaces), the CPU a
    /// moderate one, the FPGA a light one, and the synthesized ASIC
    /// almost none.
    pub fn for_device(device: DeviceId) -> Self {
        match device {
            DeviceId::CoreI7_960 => PowerModel {
                leakage_fraction: 0.20,
                uncore_static_w: 25.0,
                uncore_w_per_gb_s: 0.30,
                unknown_fraction: 0.05,
            },
            DeviceId::Gtx285 | DeviceId::Gtx480 | DeviceId::R5870 => PowerModel {
                leakage_fraction: 0.15,
                uncore_static_w: 40.0,
                uncore_w_per_gb_s: 0.25,
                unknown_fraction: 0.06,
            },
            DeviceId::V6Lx760 => PowerModel {
                leakage_fraction: 0.35, // programmable fabrics leak hard
                uncore_static_w: 12.0,
                uncore_w_per_gb_s: 0.20,
                unknown_fraction: 0.04,
            },
            DeviceId::Asic => PowerModel {
                leakage_fraction: 0.08,
                uncore_static_w: 1.0,
                uncore_w_per_gb_s: 0.10,
                unknown_fraction: 0.02,
            },
        }
    }

    /// Splits a measured core power and traffic level into the Figure 3
    /// components.
    pub fn breakdown(&self, core_watts: f64, traffic_gb_s: f64) -> PowerBreakdown {
        let core_watts = core_watts.max(0.0);
        let traffic = traffic_gb_s.max(0.0);
        let core_leakage = core_watts * self.leakage_fraction;
        let core_dynamic = core_watts - core_leakage;
        let uncore_dynamic = traffic * self.uncore_w_per_gb_s;
        let known = core_watts + self.uncore_static_w + uncore_dynamic;
        PowerBreakdown {
            core_dynamic,
            core_leakage,
            uncore_static: self.uncore_static_w,
            uncore_dynamic,
            unknown: known * self.unknown_fraction,
        }
    }

    /// The §4.2 methodology: what a memory-only microbenchmark would
    /// measure (no core compute), at a given traffic level.
    pub fn microbenchmark_watts(&self, traffic_gb_s: f64) -> f64 {
        let uncore_dynamic = traffic_gb_s.max(0.0) * self.uncore_w_per_gb_s;
        let known = self.uncore_static_w + uncore_dynamic;
        known * (1.0 + self.unknown_fraction)
    }

    /// Recovers compute-only power the way the paper does: measure the
    /// full application, measure the microbenchmark at the same traffic,
    /// subtract.
    pub fn subtract_uncore(&self, app_total_watts: f64, traffic_gb_s: f64) -> f64 {
        (app_total_watts - self.microbenchmark_watts(traffic_gb_s)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_to_total() {
        let m = PowerModel::for_device(DeviceId::Gtx285);
        let b = m.breakdown(66.8, 20.0);
        let parts = b.core_dynamic + b.core_leakage + b.uncore_static + b.uncore_dynamic
            + b.unknown;
        assert!((b.total() - parts).abs() < 1e-12);
        assert!((b.core_total() - 66.8).abs() < 1e-9);
    }

    #[test]
    fn uncore_subtraction_recovers_core_power() {
        // The round trip at the heart of §4.2: total measured power minus
        // the microbenchmark's power returns core power up to the unknown
        // residue attributable to the cores.
        for device in DeviceId::ALL {
            let m = PowerModel::for_device(device);
            let core = 50.0;
            let traffic = 30.0;
            let b = m.breakdown(core, traffic);
            let recovered = m.subtract_uncore(b.total(), traffic);
            // The residue scales with core power; tolerate it.
            assert!(
                (recovered - core).abs() / core < 0.10,
                "{device:?}: {recovered} vs {core}"
            );
        }
    }

    #[test]
    fn gpu_uncore_exceeds_asic_uncore() {
        let gpu = PowerModel::for_device(DeviceId::Gtx480).breakdown(60.0, 50.0);
        let asic = PowerModel::for_device(DeviceId::Asic).breakdown(60.0, 50.0);
        assert!(gpu.uncore_static > asic.uncore_static);
        assert!(gpu.total() > asic.total());
    }

    #[test]
    fn fpga_leaks_more_than_asic() {
        let fpga = PowerModel::for_device(DeviceId::V6Lx760).breakdown(50.0, 10.0);
        let asic = PowerModel::for_device(DeviceId::Asic).breakdown(50.0, 10.0);
        assert!(fpga.core_leakage > asic.core_leakage);
    }

    #[test]
    fn traffic_raises_uncore_dynamic_only() {
        let m = PowerModel::for_device(DeviceId::Gtx285);
        let quiet = m.breakdown(60.0, 0.0);
        let busy = m.breakdown(60.0, 100.0);
        assert_eq!(quiet.core_dynamic, busy.core_dynamic);
        assert_eq!(quiet.uncore_static, busy.uncore_static);
        assert!(busy.uncore_dynamic > quiet.uncore_dynamic);
    }

    #[test]
    fn negative_inputs_clamp() {
        let m = PowerModel::for_device(DeviceId::Asic);
        let b = m.breakdown(-5.0, -10.0);
        assert_eq!(b.core_total(), 0.0);
        assert_eq!(b.uncore_dynamic, 0.0);
        assert_eq!(m.subtract_uncore(0.0, 10.0), 0.0);
    }
}
