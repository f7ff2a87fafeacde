//! n-segment workloads: the Multi-Amdahl generalization of the paper's
//! single `(serial, parallel)` split.
//!
//! The paper models a program as one serial fraction `1 − f` and one
//! parallel fraction `f` accelerated by a single U-core type (§3–§4).
//! Multi-Amdahl (Zidenberg, Keslassy and Weiser; see PAPERS.md) instead
//! describes the program as `k` execution *segments*: segment `k` takes
//! a fraction `w_k` of the baseline execution time and is accelerated by
//! a device with its own `(µ_k, φ_k)` law — the same per-kernel U-core
//! parameters Table 5 calibrates. A [`SegmentedWorkload`] is that
//! description; [`crate::portfolio`] turns it into a chip by allocating
//! accelerator area across the segments.
//!
//! The weights are fractions of *baseline* (single-BCE) execution time,
//! so `serial_weight + Σ w_k = 1` exactly as `1 − f` and `f` do in the
//! two-phase model. A [`SegmentedWorkload`] with one segment is the
//! paper's model verbatim: [`crate::portfolio::PortfolioChip::allocate`]
//! on it reproduces [`crate::heterogeneous`] bit for bit (the
//! differential suite in `tests/portfolio_equiv.rs` pins this).

use crate::error::ModelError;
use crate::ucore::UCore;
use crate::units::ParallelFraction;
use serde::Serialize;

/// How far `serial_weight + Σ w_k` may drift from 1 before the workload
/// is rejected (same tolerance as [`crate::MixedChip`]'s share check).
pub const WEIGHT_SUM_TOLERANCE: f64 = 1e-6;

/// One execution segment: a fraction of baseline execution time plus the
/// U-core law of the device that accelerates it.
///
/// ```
/// use ucore_core::{Segment, UCore};
/// let asic = UCore::new(27.4, 0.79)?;
/// let seg = Segment::new(0.5, asic)?;
/// assert_eq!(seg.weight(), 0.5);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Segment {
    weight: f64,
    ucore: UCore,
    max_area: Option<f64>,
}

impl Segment {
    /// A segment taking fraction `weight` of baseline execution time,
    /// accelerated by `ucore`. A zero weight is legal (the segment is
    /// absent from this program; its accelerator gets no area).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFinite`] for NaN/±∞ weights and
    /// [`ModelError::NonPositive`] for negative ones.
    pub fn new(weight: f64, ucore: UCore) -> Result<Self, ModelError> {
        if !weight.is_finite() {
            return Err(ModelError::NotFinite { what: "segment weight" });
        }
        if weight < 0.0 {
            return Err(ModelError::NonPositive { what: "segment weight", value: weight });
        }
        Ok(Segment { weight, ucore, max_area: None })
    }

    /// A copy with an upper bound on the accelerator area this segment
    /// may receive (in BCE). The portfolio allocator uses this to model
    /// per-accelerator power limits: only one accelerator is powered at
    /// a time, so segment `k` is capped at `P_parallel / φ_k`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `max_area` is positive and finite.
    pub fn with_max_area(mut self, max_area: f64) -> Result<Self, ModelError> {
        crate::error::ensure_positive("segment area cap", max_area)?;
        self.max_area = Some(max_area);
        Ok(self)
    }

    /// The fraction of baseline execution time this segment takes.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The U-core law of the accelerator this segment runs on.
    pub fn ucore(&self) -> UCore {
        self.ucore
    }

    /// The area cap, if one was set via [`Self::with_max_area`].
    pub fn max_area(&self) -> Option<f64> {
        self.max_area
    }
}

/// A program as a serial weight plus `k` accelerated segments, with
/// `serial_weight + Σ w_k = 1` (within [`WEIGHT_SUM_TOLERANCE`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SegmentedWorkload {
    serial_weight: f64,
    segments: Vec<Segment>,
}

impl SegmentedWorkload {
    /// A workload from its serial weight and segments.
    ///
    /// ```
    /// use ucore_core::{Segment, SegmentedWorkload, UCore};
    /// let mmm = Segment::new(0.6, UCore::new(27.4, 0.79)?)?;
    /// let fft = Segment::new(0.3, UCore::new(489.0, 4.96)?)?;
    /// let w = SegmentedWorkload::new(0.1, vec![mmm, fft])?;
    /// assert_eq!(w.segments().len(), 2);
    /// # Ok::<(), ucore_core::ModelError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFinite`]/[`ModelError::NonPositive`] for
    /// a poisoned serial weight, [`ModelError::Infeasible`] for an empty
    /// segment list, and [`ModelError::InvalidPartition`] when the
    /// weights do not sum to 1.
    pub fn new(serial_weight: f64, segments: Vec<Segment>) -> Result<Self, ModelError> {
        if !serial_weight.is_finite() {
            return Err(ModelError::NotFinite { what: "serial weight" });
        }
        if serial_weight < 0.0 {
            return Err(ModelError::NonPositive { what: "serial weight", value: serial_weight });
        }
        if segments.is_empty() {
            return Err(ModelError::Infeasible {
                reason: "segmented workload needs at least one segment".into(),
            });
        }
        let share_sum = serial_weight + segments.iter().map(Segment::weight).sum::<f64>();
        if (share_sum - 1.0).abs() > WEIGHT_SUM_TOLERANCE {
            return Err(ModelError::InvalidPartition { share_sum });
        }
        Ok(SegmentedWorkload { serial_weight, segments })
    }

    /// The paper's two-phase model as a one-segment workload: serial
    /// weight `1 − f`, one segment of weight `f` on `ucore`. The
    /// portfolio allocator on this workload reduces bit-exactly to
    /// [`crate::heterogeneous`].
    pub fn from_fraction(f: ParallelFraction, ucore: UCore) -> Self {
        SegmentedWorkload {
            serial_weight: f.serial(),
            segments: vec![Segment { weight: f.get(), ucore, max_area: None }],
        }
    }

    /// The serial weight `1 − Σ w_k`.
    pub fn serial_weight(&self) -> f64 {
        self.serial_weight
    }

    /// The accelerated segments, in construction order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The total accelerated weight `Σ w_k`.
    pub fn parallel_weight(&self) -> f64 {
        self.segments.iter().map(Segment::weight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ucore() -> UCore {
        UCore::new(27.4, 0.79).unwrap()
    }

    #[test]
    fn segment_accepts_zero_weight_and_rejects_poison() {
        assert!(Segment::new(0.0, ucore()).is_ok());
        assert!(Segment::new(f64::NAN, ucore()).is_err());
        assert!(Segment::new(f64::INFINITY, ucore()).is_err());
        assert!(Segment::new(-0.1, ucore()).is_err());
    }

    #[test]
    fn area_cap_must_be_positive() {
        let seg = Segment::new(0.5, ucore()).unwrap();
        assert!(seg.with_max_area(2.0).is_ok());
        assert!(seg.with_max_area(0.0).is_err());
        assert!(seg.with_max_area(f64::NAN).is_err());
        assert_eq!(seg.max_area(), None);
        assert_eq!(seg.with_max_area(2.0).unwrap().max_area(), Some(2.0));
    }

    #[test]
    fn workload_enforces_unit_weight_sum() {
        let seg = |w| Segment::new(w, ucore()).unwrap();
        assert!(SegmentedWorkload::new(0.2, vec![seg(0.5), seg(0.3)]).is_ok());
        let err = SegmentedWorkload::new(0.2, vec![seg(0.5)]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidPartition { .. }));
    }

    #[test]
    fn workload_rejects_empty_segments_and_poisoned_serial() {
        assert!(matches!(
            SegmentedWorkload::new(1.0, vec![]).unwrap_err(),
            ModelError::Infeasible { .. }
        ));
        let seg = Segment::new(1.0, ucore()).unwrap();
        assert!(SegmentedWorkload::new(f64::NAN, vec![seg]).is_err());
        assert!(SegmentedWorkload::new(-0.5, vec![seg]).is_err());
    }

    #[test]
    fn from_fraction_mirrors_the_two_phase_split() {
        let f = ParallelFraction::new(0.99).unwrap();
        let w = SegmentedWorkload::from_fraction(f, ucore());
        assert_eq!(w.serial_weight(), f.serial());
        assert_eq!(w.segments().len(), 1);
        assert_eq!(w.segments()[0].weight(), f.get());
    }

    #[test]
    fn parallel_weight_sums_segments() {
        let seg = |w| Segment::new(w, ucore()).unwrap();
        let w = SegmentedWorkload::new(0.25, vec![seg(0.5), seg(0.25)]).unwrap();
        assert!((w.parallel_weight() - 0.75).abs() < 1e-15);
    }
}
