//! FPGA area accounting.
//!
//! The paper charges an FPGA design for the LUTs it occupies at
//! 0.00191 mm² per LUT — a figure that amortizes the flip-flops, block
//! RAMs, DSP multipliers, and programmable interconnect surrounding each
//! lookup table in the Virtex-6 fabric.

use crate::device::DeviceError;
use serde::Serialize;

/// Per-LUT area model for FPGA designs.
///
/// ```
/// use ucore_devices::FpgaAreaModel;
/// let model = FpgaAreaModel::paper();
/// // A design using 200,000 LUTs occupies ~382 mm² of fabric.
/// let area = model.area_mm2(200_000)?;
/// assert!((area - 382.0).abs() < 1.0);
/// # Ok::<(), ucore_devices::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FpgaAreaModel {
    mm2_per_lut: f64,
}

/// The paper's estimate of silicon area per Virtex-6 LUT, overheads
/// amortized in.
pub const PAPER_MM2_PER_LUT: f64 = 0.00191;

impl FpgaAreaModel {
    /// The paper's model: 0.00191 mm² per LUT.
    pub fn paper() -> Self {
        FpgaAreaModel { mm2_per_lut: PAPER_MM2_PER_LUT }
    }

    /// A model with a custom per-LUT area.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NonPositive`] if `mm2_per_lut` is not
    /// positive and finite.
    pub fn new(mm2_per_lut: f64) -> Result<Self, DeviceError> {
        if !(mm2_per_lut.is_finite() && mm2_per_lut > 0.0) {
            return Err(DeviceError::NonPositive {
                what: "mm2 per LUT",
                value: mm2_per_lut,
            });
        }
        Ok(FpgaAreaModel { mm2_per_lut })
    }

    /// Area per LUT in mm².
    pub fn mm2_per_lut(&self) -> f64 {
        self.mm2_per_lut
    }

    /// Area occupied by a design using `luts` lookup tables.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NonPositive`] if `luts` is zero.
    pub fn area_mm2(&self, luts: u64) -> Result<f64, DeviceError> {
        if luts == 0 {
            return Err(DeviceError::NonPositive { what: "LUT count", value: 0.0 });
        }
        Ok(luts as f64 * self.mm2_per_lut)
    }

    /// The number of LUTs that fit in the given fabric area (rounded
    /// down) — the inverse of [`area_mm2`](Self::area_mm2).
    pub fn luts_in_area(&self, area_mm2: f64) -> u64 {
        if !(area_mm2.is_finite() && area_mm2 > 0.0) {
            return 0;
        }
        (area_mm2 / self.mm2_per_lut).floor() as u64
    }
}

impl Default for FpgaAreaModel {
    fn default() -> Self {
        FpgaAreaModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constant() {
        assert_eq!(FpgaAreaModel::paper().mm2_per_lut(), 0.00191);
    }

    #[test]
    fn area_is_linear_in_luts() {
        let m = FpgaAreaModel::paper();
        let a1 = m.area_mm2(1_000).unwrap();
        let a2 = m.area_mm2(2_000).unwrap();
        assert!((a2 - 2.0 * a1).abs() < 1e-12);
    }

    #[test]
    fn zero_luts_rejected() {
        assert!(FpgaAreaModel::paper().area_mm2(0).is_err());
    }

    #[test]
    fn invalid_per_lut_area_rejected() {
        assert!(FpgaAreaModel::new(0.0).is_err());
        assert!(FpgaAreaModel::new(-1.0).is_err());
        assert!(FpgaAreaModel::new(f64::NAN).is_err());
    }

    #[test]
    fn luts_in_area_inverts() {
        let m = FpgaAreaModel::paper();
        let luts = 123_456;
        let area = m.area_mm2(luts).unwrap();
        assert_eq!(m.luts_in_area(area), luts);
        assert_eq!(m.luts_in_area(-5.0), 0);
    }

    #[test]
    fn table4_mmm_fpga_area_consistent() {
        // Table 4: LX760 MMM at 204 GFLOP/s and 0.53 (GFLOP/s)/mm²
        // implies ~385 mm² of fabric, i.e. ~201k LUTs.
        let m = FpgaAreaModel::paper();
        let implied_area = 204.0 / 0.53;
        let luts = m.luts_in_area(implied_area);
        assert!((190_000..220_000).contains(&luts), "got {luts}");
    }
}
