//! Validated scalar quantities used throughout the model.
//!
//! The model works in *BCE units*: performance relative to one Base Core
//! Equivalent, power relative to the active power of one BCE, bandwidth
//! relative to the workload's compulsory bandwidth on one BCE. The newtypes
//! here keep the dimensionally distinct quantities from being mixed up and
//! enforce the domain restrictions (`f ∈ [0, 1]`, speedups positive).

use crate::error::ModelError;
use serde::Serialize;
use std::fmt;

/// The fraction of execution time that can be parallelized, `f ∈ [0, 1]`.
///
/// In Amdahl's formulation this is the fraction of the *original*
/// single-core execution time spent in code that the parallel resources
/// (BCE cores or U-cores) can speed up.
///
/// ```
/// use ucore_core::ParallelFraction;
/// let f = ParallelFraction::new(0.99)?;
/// assert_eq!(f.get(), 0.99);
/// assert!((f.serial() - 0.01).abs() < 1e-12);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
#[serde(transparent)]
pub struct ParallelFraction(f64);

impl ParallelFraction {
    /// A fully serial workload (`f = 0`).
    pub const SERIAL: ParallelFraction = ParallelFraction(0.0);
    /// A perfectly parallel workload (`f = 1`).
    pub const PERFECT: ParallelFraction = ParallelFraction(1.0);

    /// Creates a parallel fraction.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFraction`] unless `0 ≤ f ≤ 1`.
    pub fn new(f: f64) -> Result<Self, ModelError> {
        if f.is_finite() && (0.0..=1.0).contains(&f) {
            Ok(ParallelFraction(f))
        } else {
            Err(ModelError::InvalidFraction { value: f })
        }
    }

    /// The parallel fraction as a plain `f64`.
    pub fn get(self) -> f64 {
        self.0
    }

    /// The serial fraction, `1 − f`.
    pub fn serial(self) -> f64 {
        1.0 - self.0
    }

    /// The set of `f` values the paper sweeps in its projection figures.
    pub fn paper_sweep() -> Vec<ParallelFraction> {
        [0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&f| ParallelFraction(f))
            .collect()
    }
}

impl fmt::Display for ParallelFraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f={:.3}", self.0)
    }
}

impl TryFrom<f64> for ParallelFraction {
    type Error = ModelError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        ParallelFraction::new(value)
    }
}

/// A speedup relative to a single BCE core; always positive and finite.
///
/// ```
/// use ucore_core::Speedup;
/// let s = Speedup::new(4.0)?;
/// assert!(s > Speedup::UNIT);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
#[serde(transparent)]
pub struct Speedup(f64);

impl Speedup {
    /// The speedup of a single BCE core over itself.
    pub const UNIT: Speedup = Speedup(1.0);

    /// Creates a speedup value.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] unless the value is positive
    /// and finite.
    pub fn new(value: f64) -> Result<Self, ModelError> {
        crate::error::ensure_positive("speedup", value).map(Speedup)
    }

    /// The speedup as a plain `f64`.
    pub fn get(self) -> f64 {
        self.0
    }

    /// The execution time this speedup implies, relative to one BCE (`1/s`).
    pub fn time(self) -> f64 {
        1.0 / self.0
    }
}

impl fmt::Display for Speedup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}x", self.0)
    }
}

impl TryFrom<f64> for Speedup {
    type Error = ModelError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Speedup::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_accepts_bounds() {
        assert_eq!(ParallelFraction::new(0.0).unwrap(), ParallelFraction::SERIAL);
        assert_eq!(ParallelFraction::new(1.0).unwrap(), ParallelFraction::PERFECT);
        assert_eq!(ParallelFraction::new(0.5).unwrap().get(), 0.5);
    }

    #[test]
    fn fraction_rejects_out_of_range() {
        assert!(ParallelFraction::new(-0.1).is_err());
        assert!(ParallelFraction::new(1.1).is_err());
        assert!(ParallelFraction::new(f64::NAN).is_err());
        assert!(ParallelFraction::new(f64::INFINITY).is_err());
    }

    #[test]
    fn fraction_serial_complements() {
        let f = ParallelFraction::new(0.9).unwrap();
        assert!((f.get() + f.serial() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn paper_sweep_matches_figures() {
        let sweep = ParallelFraction::paper_sweep();
        let values: Vec<f64> = sweep.iter().map(|f| f.get()).collect();
        assert_eq!(values, vec![0.5, 0.9, 0.99, 0.999]);
    }

    #[test]
    fn speedup_rejects_non_positive() {
        assert!(Speedup::new(0.0).is_err());
        assert!(Speedup::new(-3.0).is_err());
        assert!(Speedup::new(f64::NAN).is_err());
    }

    #[test]
    fn speedup_time_is_reciprocal() {
        let s = Speedup::new(8.0).unwrap();
        assert!((s.time() - 0.125).abs() < 1e-15);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ParallelFraction::new(0.999).unwrap().to_string(), "f=0.999");
        assert_eq!(Speedup::new(2.0).unwrap().to_string(), "2.000x");
    }

    #[test]
    fn try_from_round_trips() {
        let f = ParallelFraction::try_from(0.25).unwrap();
        assert_eq!(f.get(), 0.25);
        let s = Speedup::try_from(2.5).unwrap();
        assert_eq!(s.get(), 2.5);
    }

    #[test]
    fn serde_round_trip() {
        let f = ParallelFraction::new(0.9).unwrap();
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(json, "0.9");
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
