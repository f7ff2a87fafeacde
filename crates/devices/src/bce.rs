//! The Base Core Equivalent (BCE) reference.
//!
//! Hill and Marty's model counts resources in units of a *baseline* core.
//! The paper anchors this unit in a real design: an Intel-Atom-like
//! in-order processor — 26 mm² in 45 nm, less 10% non-compute area — so
//! that one Core i7 core (≈ 193 mm² / 4 cores) is worth `r = 2` BCE.
//! Through Pollack's Law and the serial power law this pins the BCE's
//! performance and power relative to the measured i7.

use crate::catalog::Catalog;
use crate::device::{DeviceError, DeviceId};
use serde::Serialize;

/// The Atom die area the paper starts from, in mm² (45 nm).
pub const ATOM_AREA_MM2: f64 = 26.0;

/// The fraction of the Atom die assumed to be non-compute.
pub const ATOM_NON_COMPUTE_FRACTION: f64 = 0.10;

/// The number of cores on the Core i7-960.
pub const I7_CORES: f64 = 4.0;

/// The BCE definition: the area of the unit core and the sequential-core
/// size `r` it implies for the measured Core i7.
///
/// ```
/// use ucore_devices::BceReference;
/// let bce = BceReference::paper();
/// assert_eq!(bce.r_i7(), 2.0);
/// assert!((bce.area_mm2() - 23.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BceReference {
    area_mm2: f64,
    r_i7: f64,
}

impl BceReference {
    /// The paper's reference: a 23.4 mm² BCE and `r = 2` for the i7.
    pub fn paper() -> Self {
        BceReference {
            area_mm2: ATOM_AREA_MM2 * (1.0 - ATOM_NON_COMPUTE_FRACTION),
            r_i7: 2.0,
        }
    }

    /// Derives the reference from a catalog instead of using the paper's
    /// rounded `r = 2`: `r = (i7 core area / 4 cores) / BCE area`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Unavailable`] if the catalog has no core
    /// area for the i7 (never the case for [`Catalog::paper`]).
    pub fn derived(catalog: &Catalog) -> Result<Self, DeviceError> {
        let bce_area = ATOM_AREA_MM2 * (1.0 - ATOM_NON_COMPUTE_FRACTION);
        let i7_core = catalog
            .device(DeviceId::CoreI7_960)
            .require_core_area_mm2()?
            / I7_CORES;
        Ok(BceReference {
            area_mm2: bce_area,
            r_i7: i7_core / bce_area,
        })
    }

    /// Area of one BCE in mm² (45 nm ≡ 40 nm generation).
    pub fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// The sequential-core size of one Core i7 core, in BCE.
    pub fn r_i7(&self) -> f64 {
        self.r_i7
    }

    /// Performance of one i7 core relative to a BCE under Pollack's Law,
    /// `√r`.
    pub fn i7_core_perf(&self) -> f64 {
        self.r_i7.sqrt()
    }

    /// Power of one i7 core relative to a BCE under the serial power law,
    /// `r^(α/2)`.
    pub fn i7_core_power(&self, alpha: f64) -> f64 {
        self.r_i7.powf(alpha / 2.0)
    }

    /// How many BCE fit in a silicon budget of `area_mm2` at the
    /// reference generation.
    pub fn bce_in_area(&self, area_mm2: f64) -> f64 {
        area_mm2 / self.area_mm2
    }
}

impl Default for BceReference {
    fn default() -> Self {
        BceReference::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_values() {
        let bce = BceReference::paper();
        assert!((bce.area_mm2() - 23.4).abs() < 1e-12);
        assert_eq!(bce.r_i7(), 2.0);
    }

    #[test]
    fn derived_r_is_close_to_two() {
        let bce = BceReference::derived(&Catalog::paper()).unwrap();
        // 193/4 / 23.4 = 2.0619...: the paper rounds to 2.
        assert!((bce.r_i7() - 2.06).abs() < 0.01, "got {}", bce.r_i7());
    }

    #[test]
    fn i7_core_perf_and_power() {
        let bce = BceReference::paper();
        assert!((bce.i7_core_perf() - 2f64.sqrt()).abs() < 1e-12);
        assert!((bce.i7_core_power(1.75) - 2f64.powf(0.875)).abs() < 1e-12);
    }

    #[test]
    fn table6_area_budget_in_bce() {
        // Table 6: a 432 mm² core budget is 19 BCE at 40 nm (the paper
        // rounds 18.46 up).
        let bce = BceReference::paper();
        let units = bce.bce_in_area(432.0);
        assert!((18.0..19.5).contains(&units), "got {units}");
    }
}
