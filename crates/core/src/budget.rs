//! Chip resource budgets: area, power and off-chip bandwidth.

use crate::error::{ensure_positive, ModelError};
use serde::Serialize;
use std::fmt;

/// The three budgets that bound a design, all in BCE units:
///
/// * **area** `A` — total chip resources, in BCE of area;
/// * **power** `P` — power available in either phase, relative to the
///   active power of one BCE;
/// * **bandwidth** `B` — off-chip bandwidth, relative to the compulsory
///   bandwidth of the workload on one BCE.
///
/// Note that `B` is workload-specific: the same physical chip has a
/// different `B` for FFT than for MMM because the compulsory bandwidth
/// differs.
///
/// ```
/// use ucore_core::Budgets;
/// let b = Budgets::new(19.0, 7.4, 339.0)?;
/// assert_eq!(b.area(), 19.0);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Budgets {
    area: f64,
    power: f64,
    bandwidth: f64,
}

impl Budgets {
    /// Creates a budget triple `(A, P, B)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] unless all three are positive
    /// and finite.
    // ucore-lint: allow(raw-f64-api): Budgets is itself the validated ingress boundary where raw (A, P, B) readings become typed model state
    pub fn new(area: f64, power: f64, bandwidth: f64) -> Result<Self, ModelError> {
        ensure_positive("area", area)?;
        ensure_positive("power", power)?;
        ensure_positive("bandwidth", bandwidth)?;
        Ok(Budgets { area, power, bandwidth })
    }

    /// A budget with effectively unbounded power and bandwidth, isolating
    /// the pure area-constrained (original Hill-Marty) behavior.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if `area` is not positive.
    // ucore-lint: allow(raw-f64-api): validated ingress boundary, same contract as `Budgets::new`
    pub fn area_only(area: f64) -> Result<Self, ModelError> {
        Budgets::new(area, f64::MAX / 4.0, f64::MAX / 4.0)
    }

    /// Total area budget `A`, in BCE.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Power budget `P`, in BCE active-power units.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Bandwidth budget `B`, in compulsory-bandwidth units.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Returns a copy with a different area budget.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if `area` is not positive.
    // ucore-lint: allow(raw-f64-api): validated ingress boundary, same contract as `Budgets::new`
    pub fn with_area(&self, area: f64) -> Result<Self, ModelError> {
        Budgets::new(area, self.power, self.bandwidth)
    }

    /// Returns a copy with a different power budget.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if `power` is not positive.
    // ucore-lint: allow(raw-f64-api): validated ingress boundary, same contract as `Budgets::new`
    pub fn with_power(&self, power: f64) -> Result<Self, ModelError> {
        Budgets::new(self.area, power, self.bandwidth)
    }

    /// Returns a copy with a different bandwidth budget.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] if `bandwidth` is not positive.
    // ucore-lint: allow(raw-f64-api): validated ingress boundary, same contract as `Budgets::new`
    pub fn with_bandwidth(&self, bandwidth: f64) -> Result<Self, ModelError> {
        Budgets::new(self.area, self.power, bandwidth)
    }
}

impl fmt::Display for Budgets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budgets(A={:.1} BCE, P={:.1} BCE, B={:.1} BCE)",
            self.area, self.power, self.bandwidth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_positive_budgets() {
        assert!(Budgets::new(0.0, 1.0, 1.0).is_err());
        assert!(Budgets::new(1.0, -1.0, 1.0).is_err());
        assert!(Budgets::new(1.0, 1.0, 0.0).is_err());
        assert!(Budgets::new(f64::NAN, 1.0, 1.0).is_err());
    }

    #[test]
    fn accessors_return_inputs() {
        let b = Budgets::new(19.0, 7.4, 339.0).unwrap();
        assert_eq!(b.area(), 19.0);
        assert_eq!(b.power(), 7.4);
        assert_eq!(b.bandwidth(), 339.0);
    }

    #[test]
    fn with_methods_replace_one_field() {
        let b = Budgets::new(10.0, 10.0, 10.0).unwrap();
        assert_eq!(b.with_area(5.0).unwrap().area(), 5.0);
        assert_eq!(b.with_area(5.0).unwrap().power(), 10.0);
        assert_eq!(b.with_power(2.0).unwrap().power(), 2.0);
        assert_eq!(b.with_bandwidth(99.0).unwrap().bandwidth(), 99.0);
        assert!(b.with_area(-1.0).is_err());
    }

    #[test]
    fn area_only_is_effectively_unconstrained_elsewhere() {
        let b = Budgets::area_only(42.0).unwrap();
        assert_eq!(b.area(), 42.0);
        assert!(b.power() > 1e300);
        assert!(b.bandwidth() > 1e300);
    }

    #[test]
    fn display_mentions_all_budgets() {
        let b = Budgets::new(19.0, 7.4, 339.0).unwrap();
        let s = b.to_string();
        assert!(s.contains("A=19.0"));
        assert!(s.contains("P=7.4"));
        assert!(s.contains("B=339.0"));
    }
}
