//! Anchoring the abstract BCE in absolute units, per workload.
//!
//! The projection engine needs three absolute numbers for each workload:
//! what one BCE's throughput *is* (to express speedups in real units),
//! what one BCE's active power is in watts (to convert the 100 W budget
//! into the model's `P`), and what one BCE's compulsory bandwidth is in
//! GB/s (to convert 180 GB/s into the model's `B`). All three follow
//! from the i7 measurement and the Atom-derived `r = 2`.

use crate::params::{CALIBRATION_ALPHA, CALIBRATION_R};
use crate::CalibrationError;
use serde::Serialize;
use ucore_devices::DeviceId;
use ucore_simdev::SimLab;
use ucore_workloads::Workload;

/// Number of cores on the baseline Core i7-960.
const I7_CORES: f64 = 4.0;

/// The absolute BCE parameters for one workload.
///
/// ```
/// use ucore_calibrate::BceCalibration;
/// use ucore_workloads::Workload;
///
/// let bce = BceCalibration::derive(Workload::mmm(128)?)?;
/// // One BCE of MMM performance is ~17 GFLOP/s and ~11.5 W.
/// assert!((bce.perf() - 16.97).abs() < 0.1);
/// assert!((bce.watts() - 11.5).abs() < 0.2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BceCalibration {
    workload: Workload,
    perf: f64,
    watts: f64,
    compulsory_gb_s: f64,
}

impl BceCalibration {
    /// Derives the BCE parameters for a workload from the lab's i7
    /// measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::MissingMeasurement`] if the lab has no
    /// i7 measurement for the workload.
    pub fn derive(workload: Workload) -> Result<Self, CalibrationError> {
        let i7 = SimLab::paper()
            .measure(DeviceId::CoreI7_960, workload)
            .map_err(|_| CalibrationError::MissingMeasurement {
                cell: format!("{workload} on Core i7"),
            })?;
        // One i7 core = sqrt(r) BCE of performance at r^(alpha/2) BCE of
        // power.
        let perf = i7.perf / (I7_CORES * CALIBRATION_R.sqrt());
        let core_watts_per_core = i7.core_watts / I7_CORES;
        let watts = core_watts_per_core / CALIBRATION_R.powf(CALIBRATION_ALPHA / 2.0);
        let compulsory_gb_s = workload.compulsory_bandwidth_gb_s(perf);
        Ok(BceCalibration { workload, perf, watts, compulsory_gb_s })
    }

    /// The workload this calibration is for.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// One BCE's throughput in the workload's unit.
    pub fn perf(&self) -> f64 {
        self.perf
    }

    /// One BCE's active power in watts.
    pub fn watts(&self) -> f64 {
        self.watts
    }

    /// One BCE's compulsory off-chip bandwidth in GB/s.
    pub fn compulsory_gb_s(&self) -> f64 {
        self.compulsory_gb_s
    }

    /// Converts a watt budget into the model's `P` (BCE power units).
    ///
    /// `power_scale` is the node's relative power per transistor
    /// (Table 6): at smaller nodes a BCE burns proportionally fewer
    /// watts, so the same 100 W budget buys more BCEs.
    pub fn power_budget_units(&self, watts: f64, power_scale: f64) -> f64 {
        watts / (self.watts * power_scale)
    }

    /// Converts a GB/s budget into the model's `B` (compulsory-bandwidth
    /// units).
    pub fn bandwidth_budget_units(&self, gb_s: f64) -> f64 {
        gb_s / self.compulsory_gb_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmm_bce_absolute_values() {
        let bce = BceCalibration::derive(Workload::mmm(128).unwrap()).unwrap();
        // 96 GFLOP/s / (4 cores x sqrt 2).
        assert!((bce.perf() - 16.97).abs() < 0.01);
        // (96/1.14)/4 W per core / 2^0.875.
        assert!((bce.watts() - 11.48).abs() < 0.05);
        // 16.97 GFLOP/s * 0.03125 bytes/flop.
        assert!((bce.compulsory_gb_s() - 0.53).abs() < 0.01);
    }

    #[test]
    fn fft1024_bce_absolute_values() {
        let bce = BceCalibration::derive(Workload::fft(1024).unwrap()).unwrap();
        // 70 / (4 sqrt 2) = 12.37 pseudo-GFLOP/s.
        assert!((bce.perf() - 12.374).abs() < 0.01);
        // 12.37 * 0.32 bytes/flop ≈ 3.96 GB/s.
        assert!((bce.compulsory_gb_s() - 3.96).abs() < 0.02);
    }

    #[test]
    fn bs_bce_absolute_values() {
        let bce = BceCalibration::derive(Workload::black_scholes()).unwrap();
        // 487 / (4 sqrt 2) = 86.1 Mopts/s; x10 bytes -> 0.861 GB/s.
        assert!((bce.perf() - 86.09).abs() < 0.05);
        assert!((bce.compulsory_gb_s() - 0.861).abs() < 0.005);
    }

    #[test]
    fn table6_budgets_in_bce_units() {
        // Sanity for the projection inputs at 40 nm.
        let bce = BceCalibration::derive(Workload::fft(1024).unwrap()).unwrap();
        let p = bce.power_budget_units(100.0, 1.0);
        assert!((6.0..12.0).contains(&p), "P = {p}");
        let b = bce.bandwidth_budget_units(180.0);
        assert!((40.0..60.0).contains(&b), "B = {b}");
    }

    #[test]
    fn power_scale_grows_budget() {
        let bce = BceCalibration::derive(Workload::mmm(128).unwrap()).unwrap();
        let at40 = bce.power_budget_units(100.0, 1.0);
        let at11 = bce.power_budget_units(100.0, 0.25);
        assert!((at11 - 4.0 * at40).abs() < 1e-9);
    }
}
