//! The top-level simulated lab: steady-state measurements per device and
//! workload.

use crate::counters;
use crate::data;
use crate::power::{PowerBreakdown, PowerModel};
use crate::probe::CurrentProbe;
use crate::roofline::{Roofline, RooflineVerdict};
use serde::Serialize;
use std::error::Error;
use std::fmt;
use ucore_devices::DeviceId;
use ucore_workloads::{Workload, WorkloadKind};

/// Errors the lab can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimLabError {
    /// The paper has no measurement for this (device, workload) cell.
    NoData {
        /// The device.
        device: DeviceId,
        /// The workload.
        workload: Workload,
    },
}

impl fmt::Display for SimLabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimLabError::NoData { device, workload } => {
                write!(f, "no measured data for {workload} on {device}")
            }
        }
    }
}

impl Error for SimLabError {}

/// One steady-state measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Measurement {
    /// The device measured.
    pub device: DeviceId,
    /// The workload run.
    pub workload: Workload,
    /// Throughput in the workload's unit (GFLOP/s or Mopts/s).
    pub perf: f64,
    /// Area-normalized throughput at 40 nm.
    pub perf_per_mm2: f64,
    /// Energy efficiency (per joule of *core* energy).
    pub perf_per_joule: f64,
    /// Core power, watts.
    pub core_watts: f64,
    /// The Figure 3 power breakdown.
    pub breakdown: PowerBreakdown,
    /// Off-chip traffic while running, GB/s.
    pub bandwidth_gb_s: f64,
    /// Compute- or bandwidth-bound verdict from the roofline.
    pub verdict: RooflineVerdict,
}

/// The simulated measurement lab.
///
/// ```
/// use ucore_simdev::SimLab;
/// use ucore_devices::DeviceId;
/// use ucore_workloads::Workload;
///
/// let lab = SimLab::paper();
/// let m = lab.measure(DeviceId::Gtx285, Workload::mmm(2048)?)?;
/// assert_eq!(m.perf, 425.0); // Table 4
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimLab {
    honor_paper_gaps: bool,
    probe_noise: f64,
}

impl SimLab {
    /// A lab configured like the paper's: missing cells stay missing and
    /// the probe carries ±1% noise.
    pub fn paper() -> Self {
        SimLab { honor_paper_gaps: true, probe_noise: 0.01 }
    }

    /// A lab that also simulates the measurements the authors could not
    /// take (GTX480 counters, R5870 FFT remains unavailable — there is
    /// no calibration to extrapolate from).
    pub fn extended() -> Self {
        SimLab { honor_paper_gaps: false, probe_noise: 0.01 }
    }

    /// Whether the paper's measurement gaps are preserved.
    pub fn honors_paper_gaps(&self) -> bool {
        self.honor_paper_gaps
    }

    /// The underlying observables for a (device, workload) cell.
    fn observables(
        &self,
        device: DeviceId,
        workload: Workload,
    ) -> Option<data::DeviceWorkloadData> {
        match workload.kind() {
            WorkloadKind::Mmm => data::table4_mmm().row(device).copied(),
            WorkloadKind::BlackScholes => data::table4_bs().row(device).copied(),
            WorkloadKind::Fft => data::fft_data(device, workload.size()),
        }
    }

    /// Takes a steady-state measurement.
    ///
    /// # Errors
    ///
    /// Returns [`SimLabError::NoData`] for cells the paper could not
    /// measure (e.g. Black-Scholes on the R5870).
    pub fn measure(
        &self,
        device: DeviceId,
        workload: Workload,
    ) -> Result<Measurement, SimLabError> {
        let observed = self
            .observables(device, workload)
            .ok_or(SimLabError::NoData { device, workload })?;

        // Traffic: the counters for FFT (capturing the out-of-core
        // regime), compulsory traffic otherwise.
        let bandwidth_gb_s = match workload.kind() {
            WorkloadKind::Fft => counters::fft_bandwidth(device, workload.size(), false)
                .map(|r| r.measured_gb_s)
                .unwrap_or_else(|| workload.compulsory_bandwidth_gb_s(observed.perf)),
            _ => workload.compulsory_bandwidth_gb_s(observed.perf),
        };

        let roofline = Roofline::new(observed.perf, data::peak_bandwidth_gb_s(device));
        let (_, verdict) = roofline.attainable(
            observed.perf / bandwidth_gb_s.max(f64::MIN_POSITIVE),
        );

        let core_watts = observed.core_watts();
        let breakdown = PowerModel::for_device(device).breakdown(core_watts, bandwidth_gb_s);

        Ok(Measurement {
            device,
            workload,
            perf: observed.perf,
            perf_per_mm2: observed.perf_per_mm2,
            perf_per_joule: observed.perf_per_joule,
            core_watts,
            breakdown,
            bandwidth_gb_s,
            verdict,
        })
    }

    /// Reads total wall power with the simulated current probe: the
    /// breakdown's total plus measurement noise, averaged to steady
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`SimLabError::NoData`] as [`measure`](Self::measure)
    /// does.
    pub fn probe_total_watts(
        &self,
        device: DeviceId,
        workload: Workload,
        samples: usize,
    ) -> Result<f64, SimLabError> {
        let m = self.measure(device, workload)?;
        let seed = (device as u64) << 32 | workload.size() as u64;
        let mut probe = CurrentProbe::new(m.breakdown.total(), self.probe_noise, seed);
        Ok(probe.steady_state(samples.max(1)))
    }

    /// The Figure 2/3/4 sweep: FFT measurements for sizes `2^4..2^20`.
    pub fn fft_sweep(&self, device: DeviceId) -> Vec<Measurement> {
        (4..=20)
            .filter_map(|log2| {
                self.measure(device, Workload::fft(1usize << log2).ok()?).ok()
            })
            .collect()
    }

    /// Regenerates the Table 4 rows for a workload (MMM or BS).
    pub fn table4(&self, kind: WorkloadKind) -> Vec<Measurement> {
        let workload = match kind {
            WorkloadKind::Mmm => Workload::mmm_const::<2048>(),
            WorkloadKind::BlackScholes => Workload::black_scholes(),
            WorkloadKind::Fft => Workload::fft_const::<1024>(),
        };
        DeviceId::ALL
            .iter()
            .filter_map(|&d| self.measure(d, workload).ok())
            .collect()
    }
}

impl Default for SimLab {
    fn default() -> Self {
        SimLab::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> SimLab {
        SimLab::paper()
    }

    #[test]
    fn table4_mmm_round_trips() {
        let rows = lab().table4(WorkloadKind::Mmm);
        assert_eq!(rows.len(), 6);
        let r5870 = rows.iter().find(|m| m.device == DeviceId::R5870).unwrap();
        assert_eq!(r5870.perf, 1491.0);
        assert_eq!(r5870.perf_per_mm2, 5.95);
        assert_eq!(r5870.perf_per_joule, 9.87);
    }

    #[test]
    fn table4_bs_has_four_rows() {
        let rows = lab().table4(WorkloadKind::BlackScholes);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn missing_cells_error() {
        let err = lab()
            .measure(DeviceId::R5870, Workload::black_scholes())
            .unwrap_err();
        assert!(err.to_string().contains("R5870"));
    }

    #[test]
    fn all_measured_kernels_are_compute_bound() {
        // The paper "ensured that all measured applications on a given
        // system are compute-bound"; the lab must reproduce that.
        let lab = lab();
        for kind in [WorkloadKind::Mmm, WorkloadKind::BlackScholes] {
            for m in lab.table4(kind) {
                assert_eq!(
                    m.verdict,
                    RooflineVerdict::ComputeBound,
                    "{:?} on {:?}",
                    kind,
                    m.device
                );
            }
        }
    }

    #[test]
    fn fft_sweep_has_17_sizes() {
        let sweep = lab().fft_sweep(DeviceId::Gtx285);
        assert_eq!(sweep.len(), 17);
        assert!(sweep.iter().all(|m| m.perf > 0.0));
    }

    #[test]
    fn fft_sweep_empty_for_r5870() {
        assert!(lab().fft_sweep(DeviceId::R5870).is_empty());
    }

    #[test]
    fn probe_reading_close_to_breakdown_total() {
        let lab = lab();
        let w = Workload::mmm(2048).unwrap();
        let m = lab.measure(DeviceId::Gtx285, w).unwrap();
        let probed = lab.probe_total_watts(DeviceId::Gtx285, w, 5000).unwrap();
        assert!(
            (probed - m.breakdown.total()).abs() / m.breakdown.total() < 0.01,
            "{probed} vs {}",
            m.breakdown.total()
        );
    }

    #[test]
    fn gpu_total_power_exceeds_core_power() {
        let m = lab()
            .measure(DeviceId::Gtx480, Workload::mmm(2048).unwrap())
            .unwrap();
        assert!(m.breakdown.total() > m.core_watts);
    }

    #[test]
    fn asic_fft_watts_are_modest() {
        let m = lab()
            .measure(DeviceId::Asic, Workload::fft(1024).unwrap())
            .unwrap();
        assert!(m.core_watts < 60.0, "got {}", m.core_watts);
        assert!(m.perf > 1000.0, "ASIC FFT should be multi-TFLOP-class");
    }

    #[test]
    fn paper_vs_extended_gaps() {
        // Both labs lack R5870 FFT (no calibration exists), but the
        // extended lab can still measure everything Table 5 covers.
        assert!(SimLab::extended()
            .measure(DeviceId::R5870, Workload::fft(1024).unwrap())
            .is_err());
        assert!(SimLab::extended()
            .measure(DeviceId::Gtx480, Workload::fft(1024).unwrap())
            .is_ok());
    }
}
