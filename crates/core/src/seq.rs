//! Sequential-core performance and power laws.
//!
//! Hill and Marty use **Pollack's Law** — sequential performance grows with
//! the square root of the area invested (`perf_seq(r) = √r`) — as the
//! default relationship between a sequential core's size `r` (in BCE) and
//! its performance. Chung et al. add a **serial power law**: power grows
//! super-linearly with performance, `power = perf^α`, with α estimated at
//! 1.75 from Intel's energy-per-instruction trend data (Grochowski et al.).
//! Combining the two, a sequential core of area `r` consumes power
//! `(√r)^α = r^(α/2)`.

use crate::error::{ensure_positive, ModelError};
use serde::Serialize;

/// The paper's default exponent relating sequential power to performance.
pub const DEFAULT_ALPHA: f64 = 1.75;

/// The exponent used by the paper's scenario 6 ("serial power") study.
pub const SCENARIO_ALPHA: f64 = 2.25;

/// A law mapping sequential-core area `r` (in BCE) to performance
/// (relative to one BCE).
///
/// The trait is sealed by construction: the model only ever consumes it via
/// the concrete [`PollackLaw`], but the trait allows experiments with other
/// exponents (see the `ablation_pollack` bench).
pub trait SequentialLaw {
    /// Performance of a sequential core built from `r` BCE of area.
    ///
    /// Implementations must be monotonically non-decreasing in `r` and
    /// satisfy `perf(1) = 1` (one BCE of area gives one BCE of
    /// performance).
    fn perf(&self, r: f64) -> f64;

    /// Inverse of [`perf`](Self::perf): the area needed for a target
    /// performance.
    fn area_for_perf(&self, perf: f64) -> f64;
}

/// Pollack's Law with a configurable exponent: `perf(r) = r^exponent`.
///
/// The classic rule of thumb uses `exponent = 0.5`.
///
/// ```
/// use ucore_core::{PollackLaw, SequentialLaw};
/// let law = PollackLaw::default();
/// assert_eq!(law.perf(4.0), 2.0);
/// assert_eq!(law.area_for_perf(2.0), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PollackLaw {
    exponent: f64,
}

impl PollackLaw {
    /// Creates a Pollack-style law `perf(r) = r^exponent`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if the exponent is not positive
    /// and finite.
    pub fn new(exponent: f64) -> Result<Self, ModelError> {
        ensure_positive("pollack exponent", exponent)?;
        Ok(PollackLaw { exponent })
    }

    /// The exponent of this law.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl Default for PollackLaw {
    /// The canonical square-root law, `perf(r) = √r`.
    fn default() -> Self {
        PollackLaw { exponent: 0.5 }
    }
}

impl SequentialLaw for PollackLaw {
    fn perf(&self, r: f64) -> f64 {
        r.powf(self.exponent)
    }

    fn area_for_perf(&self, perf: f64) -> f64 {
        perf.powf(1.0 / self.exponent)
    }
}

/// The super-linear relationship between sequential performance and power:
/// `power(perf) = perf^α`.
///
/// Under Pollack's square-root law this means a sequential core of area `r`
/// consumes `r^(α/2)` BCE units of power.
///
/// ```
/// use ucore_core::SerialPowerLaw;
/// let law = SerialPowerLaw::paper_default();
/// // A core 4x the area of a BCE: perf 2, power 2^1.75 ≈ 3.36.
/// let p = law.power_of_area(4.0);
/// assert!((p - 4f64.powf(1.75 / 2.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SerialPowerLaw {
    alpha: f64,
}

impl SerialPowerLaw {
    /// Creates a power law with the given α.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if `alpha` is not positive and
    /// finite.
    pub fn new(alpha: f64) -> Result<Self, ModelError> {
        ensure_positive("alpha", alpha)?;
        Ok(SerialPowerLaw { alpha })
    }

    /// The paper's default law (α = 1.75).
    pub fn paper_default() -> Self {
        SerialPowerLaw { alpha: DEFAULT_ALPHA }
    }

    /// The paper's scenario-6 law (α = 2.25), modeling a sequential core
    /// whose power grows faster with performance.
    pub fn scenario_six() -> Self {
        SerialPowerLaw { alpha: SCENARIO_ALPHA }
    }

    /// The exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Power consumed by a core delivering performance `perf` (BCE units).
    // ucore-lint: allow(raw-f64-api): perf here is the dimensionless BCE-normalized ratio the power law is defined over, not a measured quantity
    pub fn power_of_perf(&self, perf: f64) -> f64 {
        perf.powf(self.alpha)
    }

    /// Power consumed by a sequential core of area `r` BCE, assuming
    /// Pollack's square-root law: `r^(α/2)`.
    pub fn power_of_area(&self, r: f64) -> f64 {
        r.powf(self.alpha / 2.0)
    }

    /// The largest sequential-core area whose power fits within budget `P`:
    /// inverts the serial power bound `r^(α/2) ≤ P` to `r ≤ P^(2/α)`.
    pub fn max_area_for_power(&self, power_budget: f64) -> f64 {
        power_budget.powf(2.0 / self.alpha)
    }
}

impl Default for SerialPowerLaw {
    fn default() -> Self {
        SerialPowerLaw::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollack_default_is_square_root() {
        let law = PollackLaw::default();
        assert_eq!(law.exponent(), 0.5);
        assert!((law.perf(16.0) - 4.0).abs() < 1e-12);
        assert!((law.perf(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pollack_inverse_round_trips() {
        let law = PollackLaw::new(0.4).unwrap();
        for &r in &[1.0, 2.0, 7.5, 100.0] {
            let p = law.perf(r);
            assert!((law.area_for_perf(p) - r).abs() < 1e-9, "r = {r}");
        }
    }

    #[test]
    fn pollack_rejects_bad_exponent() {
        assert!(PollackLaw::new(0.0).is_err());
        assert!(PollackLaw::new(-1.0).is_err());
        assert!(PollackLaw::new(f64::NAN).is_err());
    }

    #[test]
    fn serial_power_paper_default_alpha() {
        assert_eq!(SerialPowerLaw::paper_default().alpha(), 1.75);
        assert_eq!(SerialPowerLaw::scenario_six().alpha(), 2.25);
        assert_eq!(SerialPowerLaw::default(), SerialPowerLaw::paper_default());
    }

    #[test]
    fn power_of_area_matches_formula() {
        let law = SerialPowerLaw::paper_default();
        for &r in &[1.0f64, 2.0, 4.0, 9.0] {
            let expect = r.powf(0.875);
            assert!((law.power_of_area(r) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn bce_core_consumes_unit_power() {
        // By construction, a 1-BCE core delivers perf 1 at power 1.
        let law = SerialPowerLaw::paper_default();
        assert!((law.power_of_area(1.0) - 1.0).abs() < 1e-15);
        assert!((law.power_of_perf(1.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn max_area_inverts_power_of_area() {
        let law = SerialPowerLaw::paper_default();
        for &p in &[1.0, 2.0, 7.4, 100.0] {
            let r = law.max_area_for_power(p);
            assert!((law.power_of_area(r) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn higher_alpha_means_hungrier_core() {
        let mild = SerialPowerLaw::paper_default();
        let harsh = SerialPowerLaw::scenario_six();
        assert!(harsh.power_of_area(4.0) > mild.power_of_area(4.0));
        // ... and a smaller core for the same budget.
        assert!(harsh.max_area_for_power(10.0) < mild.max_area_for_power(10.0));
    }
}
