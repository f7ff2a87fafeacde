//! Footnote 1: deriving `(µ, φ)` from measured observables.

use std::error::Error;
use std::fmt;
use ucore_core::{ModelError, UCore};
use ucore_simdev::Measurement;

/// The sequential-core size the paper assigns one Core i7 core, in BCE.
pub const CALIBRATION_R: f64 = 2.0;

/// The serial power-law exponent used during calibration.
pub const CALIBRATION_ALPHA: f64 = 1.75;

/// Errors raised during calibration.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// The two measurements are for different workloads and cannot be
    /// compared.
    WorkloadMismatch {
        /// The baseline's workload, displayed.
        baseline: String,
        /// The U-core candidate's workload, displayed.
        candidate: String,
    },
    /// The derived parameters were rejected by the model (zero or
    /// non-finite observables upstream).
    InvalidParameters(ModelError),
    /// The lab has no measurement for the requested cell.
    MissingMeasurement {
        /// Description of the missing cell.
        cell: String,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::WorkloadMismatch { baseline, candidate } => {
                write!(f, "cannot calibrate {candidate} against a {baseline} baseline")
            }
            CalibrationError::InvalidParameters(e) => {
                write!(f, "derived parameters rejected: {e}")
            }
            CalibrationError::MissingMeasurement { cell } => {
                write!(f, "no measurement for {cell}")
            }
        }
    }
}

impl Error for CalibrationError {}

impl From<ModelError> for CalibrationError {
    fn from(e: ModelError) -> Self {
        CalibrationError::InvalidParameters(e)
    }
}

/// Derives a U-core's `(µ, φ)` from its measurement and the i7 baseline
/// measurement of the *same* workload:
///
/// * `µ = x_u / (x_i7 · √r)` — performance per BCE of area;
/// * `φ = µ · e_i7 / (r^((1−α)/2) · e_u)` — power per BCE of area;
///
/// with `x = perf/mm²` and `e = perf/W`, both at the paper's 40 nm
/// normalization.
///
/// # Errors
///
/// Returns [`CalibrationError::WorkloadMismatch`] if the measurements
/// disagree on the workload, or [`CalibrationError::InvalidParameters`]
/// if the observables produce a non-positive `µ` or `φ`.
pub fn derive_ucore(
    baseline: &Measurement,
    candidate: &Measurement,
    r: f64,
    alpha: f64,
) -> Result<UCore, CalibrationError> {
    if baseline.workload != candidate.workload {
        return Err(CalibrationError::WorkloadMismatch {
            baseline: baseline.workload.to_string(),
            candidate: candidate.workload.to_string(),
        });
    }
    let mu = candidate.perf_per_mm2 / (baseline.perf_per_mm2 * r.sqrt());
    let phi = mu * baseline.perf_per_joule
        / (r.powf((1.0 - alpha) / 2.0) * candidate.perf_per_joule);
    Ok(UCore::new(mu, phi)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucore_devices::DeviceId;
    use ucore_simdev::SimLab;
    use ucore_workloads::Workload;

    fn measure(device: DeviceId, w: Workload) -> Measurement {
        SimLab::paper().measure(device, w).unwrap()
    }

    #[test]
    fn gtx285_mmm_matches_published_table5() {
        let w = Workload::mmm(128).unwrap();
        let i7 = measure(DeviceId::CoreI7_960, w);
        let gpu = measure(DeviceId::Gtx285, w);
        let u = derive_ucore(&i7, &gpu, CALIBRATION_R, CALIBRATION_ALPHA).unwrap();
        assert!((u.mu() - 3.41).abs() < 0.05, "mu = {}", u.mu());
        assert!((u.phi() - 0.74).abs() < 0.01, "phi = {}", u.phi());
    }

    #[test]
    fn asic_bs_matches_published_table5() {
        let w = Workload::black_scholes();
        let i7 = measure(DeviceId::CoreI7_960, w);
        let asic = measure(DeviceId::Asic, w);
        let u = derive_ucore(&i7, &asic, CALIBRATION_R, CALIBRATION_ALPHA).unwrap();
        assert!((u.mu() - 482.0).abs() / 482.0 < 0.01, "mu = {}", u.mu());
        assert!((u.phi() - 4.75).abs() < 0.05, "phi = {}", u.phi());
    }

    #[test]
    fn fft_anchors_match_published_table5_exactly() {
        // The FFT observables were built by inverting footnote 1, so the
        // derivation must return the published numbers to high precision.
        let cases = [
            (DeviceId::Gtx285, 64usize, 2.42, 0.59),
            (DeviceId::Gtx285, 1024, 2.88, 0.63),
            (DeviceId::Gtx480, 16384, 2.83, 0.66),
            (DeviceId::V6Lx760, 1024, 2.02, 0.29),
            (DeviceId::Asic, 16384, 689.0, 6.38),
        ];
        for (device, size, mu_pub, phi_pub) in cases {
            let w = Workload::fft(size).unwrap();
            let i7 = measure(DeviceId::CoreI7_960, w);
            let u = measure(device, w);
            let derived = derive_ucore(&i7, &u, CALIBRATION_R, CALIBRATION_ALPHA).unwrap();
            assert!(
                (derived.mu() - mu_pub).abs() / mu_pub < 1e-9,
                "{device:?} FFT-{size} mu"
            );
            assert!(
                (derived.phi() - phi_pub).abs() / phi_pub < 1e-9,
                "{device:?} FFT-{size} phi"
            );
        }
    }

    #[test]
    fn workload_mismatch_rejected() {
        let i7 = measure(DeviceId::CoreI7_960, Workload::mmm(128).unwrap());
        let gpu = measure(DeviceId::Gtx285, Workload::black_scholes());
        let err = derive_ucore(&i7, &gpu, 2.0, 1.75).unwrap_err();
        assert!(matches!(err, CalibrationError::WorkloadMismatch { .. }));
    }

    #[test]
    fn i7_calibrated_against_itself_is_sqrt_r_fold() {
        // The i7 "as a u-core" has mu = 1/sqrt(r) relative to a BCE
        // (device-level x equals x_bce/sqrt(r)).
        let w = Workload::mmm(128).unwrap();
        let i7 = measure(DeviceId::CoreI7_960, w);
        let u = derive_ucore(&i7, &i7, 2.0, 1.75).unwrap();
        assert!((u.mu() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }
}
