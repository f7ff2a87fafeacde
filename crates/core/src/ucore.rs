//! U-core characterization: the `(µ, φ)` design space.
//!
//! A **U-core** is an unconventional computing core — custom logic (ASIC),
//! an FPGA fabric, or a GPGPU — modeled abstractly: one BCE of area filled
//! with a given U-core type executes parallel code at `µ` times the
//! performance of a BCE core while consuming `φ` times its power.

use crate::error::{ensure_positive, ModelError};
use serde::Serialize;
use std::fmt;

/// Relative performance and power of a BCE-sized U-core.
///
/// * `µ` (mu): performance relative to a BCE core (`µ > 1` ⇒ accelerator).
/// * `φ` (phi): active power relative to a BCE core (`φ < 1` ⇒ power saver).
///
/// ```
/// use ucore_core::UCore;
/// // Table 5: GTX285 running MMM.
/// let gtx285_mmm = UCore::new(3.41, 0.74)?;
/// assert!(gtx285_mmm.mu() > 1.0);
/// assert!(gtx285_mmm.energy_efficiency_gain() > 1.0);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UCore {
    mu: f64,
    phi: f64,
}

/// A qualitative classification of where a U-core sits in the `(µ, φ)`
/// design space, following the discussion in Section 3.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum UCoreClass {
    /// `µ > 1, φ ≥ 1`: faster but at least as power-hungry as a BCE.
    Accelerator,
    /// `µ > 1, φ < 1`: faster *and* lower power — wins on both axes.
    EfficientAccelerator,
    /// `µ ≤ 1, φ < 1`: same or lower performance at lower power.
    PowerSaver,
    /// `µ ≤ 1, φ ≥ 1`: dominated by a plain BCE core in this workload.
    Dominated,
}

impl UCore {
    /// Creates a U-core with relative performance `mu` and relative power
    /// `phi`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] unless both parameters are
    /// positive and finite.
    // ucore-lint: allow(raw-f64-api): UCore is the validated ingress boundary where raw Table-5 calibration values become typed (mu, phi) state
    pub fn new(mu: f64, phi: f64) -> Result<Self, ModelError> {
        ensure_positive("mu", mu)?;
        ensure_positive("phi", phi)?;
        Ok(UCore { mu, phi })
    }

    /// A U-core indistinguishable from a BCE core (`µ = φ = 1`).
    ///
    /// With this U-core the heterogeneous model degenerates exactly to the
    /// asymmetric-offload model, which is useful for cross-checking.
    pub fn bce_equivalent() -> Self {
        UCore { mu: 1.0, phi: 1.0 }
    }

    /// Relative performance per BCE of area.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Relative active power per BCE of area.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Energy-efficiency gain over a BCE core: `µ/φ`.
    ///
    /// This is the factor by which the U-core reduces the energy of the
    /// parallel work it executes (performance up by µ, power up by φ).
    pub fn energy_efficiency_gain(&self) -> f64 {
        self.mu / self.phi
    }

    /// Where this U-core sits in the `(µ, φ)` design space.
    pub fn class(&self) -> UCoreClass {
        match (self.mu > 1.0, self.phi < 1.0) {
            (true, false) => UCoreClass::Accelerator,
            (true, true) => UCoreClass::EfficientAccelerator,
            (false, true) => UCoreClass::PowerSaver,
            (false, false) => UCoreClass::Dominated,
        }
    }

    /// Bandwidth consumed by one BCE-sized U-core, in compulsory-bandwidth
    /// units.
    ///
    /// The paper assumes bandwidth scales linearly with performance, so a
    /// U-core running `µ` times faster consumes `µ` units.
    pub fn bandwidth_per_bce(&self) -> f64 {
        self.mu
    }
}

impl fmt::Display for UCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u-core(mu={:.3}, phi={:.3})", self.mu, self.phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(UCore::new(0.0, 1.0).is_err());
        assert!(UCore::new(1.0, 0.0).is_err());
        assert!(UCore::new(-1.0, 1.0).is_err());
        assert!(UCore::new(1.0, f64::NAN).is_err());
        assert!(UCore::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn bce_equivalent_is_unit() {
        let u = UCore::bce_equivalent();
        assert_eq!(u.mu(), 1.0);
        assert_eq!(u.phi(), 1.0);
        assert_eq!(u.energy_efficiency_gain(), 1.0);
    }

    #[test]
    fn classification_covers_quadrants() {
        assert_eq!(UCore::new(2.0, 1.5).unwrap().class(), UCoreClass::Accelerator);
        assert_eq!(
            UCore::new(2.0, 0.5).unwrap().class(),
            UCoreClass::EfficientAccelerator
        );
        assert_eq!(UCore::new(0.5, 0.5).unwrap().class(), UCoreClass::PowerSaver);
        assert_eq!(UCore::new(0.5, 1.5).unwrap().class(), UCoreClass::Dominated);
        // The boundary µ = φ = 1 counts as neither faster nor lower-power.
        assert_eq!(UCore::bce_equivalent().class(), UCoreClass::Dominated);
    }

    #[test]
    fn paper_table5_examples_classify_sensibly() {
        // ASIC on Black-Scholes: enormous speedup, high power density.
        let asic_bs = UCore::new(482.0, 4.75).unwrap();
        assert_eq!(asic_bs.class(), UCoreClass::Accelerator);
        assert!(asic_bs.energy_efficiency_gain() > 100.0);

        // LX760 FPGA on MMM: slower than a BCE but far lower power.
        let fpga_mmm = UCore::new(0.75, 0.31).unwrap();
        assert_eq!(fpga_mmm.class(), UCoreClass::PowerSaver);
    }

    #[test]
    fn bandwidth_scales_with_mu() {
        let u = UCore::new(3.41, 0.74).unwrap();
        assert_eq!(u.bandwidth_per_bce(), 3.41);
    }

    #[test]
    fn display_is_informative() {
        let u = UCore::new(27.4, 0.79).unwrap();
        assert_eq!(u.to_string(), "u-core(mu=27.400, phi=0.790)");
    }
}
