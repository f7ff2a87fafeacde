//! Chip organizations and concrete design points.
//!
//! A [`ChipSpec`] names one of the paper's machine models (Figure 1 plus
//! the dynamic model); a [`DesignPoint`] pins down the resource split
//! `(n, r)`; evaluating a design against budgets yields an [`Evaluation`]
//! with the achieved speedup and the binding constraint.

use crate::bounds::{BoundSet, Limiter};
use crate::budget::Budgets;
use crate::error::ModelError;
use crate::seq::{SequentialLaw, PollackLaw, SerialPowerLaw};
use crate::speedup;
use crate::ucore::UCore;
use crate::units::{ParallelFraction, Speedup};
use serde::Serialize;
use std::fmt;

/// The machine organizations considered by the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ChipKind {
    /// `n/r` identical cores of size `r` (Figure 1a).
    Symmetric,
    /// One core of size `r` plus `n − r` BCE cores, all active in parallel
    /// sections (Hill-Marty's original asymmetric machine).
    Asymmetric,
    /// Asymmetric with the big core powered off during parallel sections —
    /// the paper's CMP baseline ("AsymCMP").
    AsymmetricOffload,
    /// Hypothetical machine that uses all `n` resources in both phases
    /// (Hill-Marty's dynamic model; not plotted in the paper).
    Dynamic,
    /// One sequential core of size `r` plus `n − r` BCE of U-cores
    /// (Figure 1c).
    Heterogeneous(UCore),
}

impl ChipKind {
    /// A short identifier matching the labels in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ChipKind::Symmetric => "SymCMP",
            ChipKind::Asymmetric => "Asym",
            ChipKind::AsymmetricOffload => "AsymCMP",
            ChipKind::Dynamic => "Dynamic",
            ChipKind::Heterogeneous(_) => "HET",
        }
    }
}

impl fmt::Display for ChipKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipKind::Heterogeneous(u) => write!(f, "HET({u})"),
            other => f.write_str(other.label()),
        }
    }
}

/// A machine organization together with the laws governing its sequential
/// core.
///
/// ```
/// use ucore_core::{ChipSpec, UCore};
/// let spec = ChipSpec::heterogeneous(UCore::new(3.41, 0.74)?);
/// assert_eq!(spec.kind().label(), "HET");
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChipSpec {
    kind: ChipKind,
    law: PollackLaw,
    power_law: SerialPowerLaw,
    bw_exponent: f64,
}

impl ChipSpec {
    /// Creates a spec with explicit performance and power laws.
    pub fn new(kind: ChipKind, law: PollackLaw, power_law: SerialPowerLaw) -> Self {
        ChipSpec { kind, law, power_law, bw_exponent: 1.0 }
    }

    /// A symmetric multicore with the paper's default laws.
    pub fn symmetric() -> Self {
        Self::new(ChipKind::Symmetric, PollackLaw::default(), SerialPowerLaw::paper_default())
    }

    /// Hill-Marty's asymmetric multicore with the paper's default laws.
    pub fn asymmetric() -> Self {
        Self::new(ChipKind::Asymmetric, PollackLaw::default(), SerialPowerLaw::paper_default())
    }

    /// The paper's asymmetric-offload CMP baseline.
    pub fn asymmetric_offload() -> Self {
        Self::new(
            ChipKind::AsymmetricOffload,
            PollackLaw::default(),
            SerialPowerLaw::paper_default(),
        )
    }

    /// The dynamic machine model.
    pub fn dynamic() -> Self {
        Self::new(ChipKind::Dynamic, PollackLaw::default(), SerialPowerLaw::paper_default())
    }

    /// A heterogeneous chip built around the given U-core.
    pub fn heterogeneous(ucore: UCore) -> Self {
        Self::new(
            ChipKind::Heterogeneous(ucore),
            PollackLaw::default(),
            SerialPowerLaw::paper_default(),
        )
    }

    /// The machine organization.
    pub fn kind(&self) -> &ChipKind {
        &self.kind
    }

    /// The sequential performance law.
    pub fn law(&self) -> &PollackLaw {
        &self.law
    }

    /// The serial power law.
    pub fn power_law(&self) -> &SerialPowerLaw {
        &self.power_law
    }

    /// Returns a copy using a different serial power law (e.g. the
    /// scenario-6 α = 2.25 study).
    pub fn with_power_law(&self, power_law: SerialPowerLaw) -> Self {
        ChipSpec { power_law, ..*self }
    }

    /// Returns a copy using a different sequential performance law.
    pub fn with_law(&self, law: PollackLaw) -> Self {
        ChipSpec { law, ..*self }
    }

    /// Returns a copy using a different bandwidth-scaling exponent:
    /// off-chip traffic is modeled as `perf^e`. The paper assumes
    /// `e = 1` ("bandwidth scales linearly with respect to BCE
    /// performance"); `e < 1` models designs whose caches absorb a
    /// growing share of traffic as they scale (the bandwidth ablation
    /// of `ablation_orderings_hold`).
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not positive and finite (a configuration
    /// error, caught at construction).
    pub fn with_bandwidth_exponent(&self, exponent: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "bandwidth exponent must be positive and finite"
        );
        ChipSpec { bw_exponent: exponent, ..*self }
    }

    /// The bandwidth-scaling exponent (1.0 = the paper's linear model).
    pub fn bandwidth_exponent(&self) -> f64 {
        self.bw_exponent
    }

    /// Speedup of the design `(n, r)` on a workload with parallel fraction
    /// `f`, ignoring budgets.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the underlying formula (invalid
    /// `n`/`r`, `r > n`, or no parallel resources for `f > 0`).
    pub fn speedup(
        &self,
        f: ParallelFraction,
        n: f64,
        r: f64,
    ) -> Result<Speedup, ModelError> {
        match &self.kind {
            ChipKind::Symmetric => speedup::symmetric(f, n, r, &self.law),
            ChipKind::Asymmetric => speedup::asymmetric(f, n, r, &self.law),
            ChipKind::AsymmetricOffload => speedup::asymmetric_offload(f, n, r, &self.law),
            ChipKind::Dynamic => speedup::dynamic(f, n, r, &self.law),
            ChipKind::Heterogeneous(u) => speedup::heterogeneous(f, n, r, u, &self.law),
        }
    }

    /// Performance delivered during the parallel phase by the design
    /// `(n, r)`, in BCE units.
    pub fn parallel_perf(&self, n: f64, r: f64) -> f64 {
        match &self.kind {
            ChipKind::Symmetric => (n / r) * self.law.perf(r),
            ChipKind::Asymmetric => self.law.perf(r) + (n - r),
            ChipKind::AsymmetricOffload => n - r,
            ChipKind::Dynamic => n,
            ChipKind::Heterogeneous(u) => u.mu() * (n - r),
        }
    }

    /// Power drawn during the parallel phase by the design `(n, r)`, in
    /// BCE active-power units.
    pub fn parallel_power(&self, n: f64, r: f64) -> f64 {
        let seq_power = self.power_law.power_of_perf(self.law.perf(r));
        match &self.kind {
            ChipKind::Symmetric => (n / r) * seq_power,
            ChipKind::Asymmetric => seq_power + (n - r),
            ChipKind::AsymmetricOffload => n - r,
            ChipKind::Dynamic => n,
            ChipKind::Heterogeneous(u) => u.phi() * (n - r),
        }
    }

    /// Power drawn during the serial phase: the sequential core alone.
    pub fn serial_power(&self, r: f64) -> f64 {
        self.power_law.power_of_perf(self.law.perf(r))
    }

    /// Off-chip bandwidth consumed during the parallel phase, in
    /// compulsory-bandwidth units (bandwidth scales linearly with
    /// delivered performance).
    pub fn parallel_bandwidth(&self, n: f64, r: f64) -> f64 {
        self.parallel_perf(n, r).powf(self.bw_exponent)
    }

    /// Off-chip bandwidth consumed during the serial phase.
    pub fn serial_bandwidth(&self, r: f64) -> f64 {
        self.law.perf(r).powf(self.bw_exponent)
    }

    /// Evaluates the design `(n, r)` under `budgets`, checking feasibility
    /// and reporting the achieved speedup and the binding constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] if the serial phase violates its
    /// power or bandwidth bound or if the requested `n` exceeds what the
    /// budgets permit; propagates formula validation errors otherwise.
    pub fn evaluate(
        &self,
        f: ParallelFraction,
        n: f64,
        r: f64,
        budgets: &Budgets,
    ) -> Result<Evaluation, ModelError> {
        let bounds = BoundSet::compute(self, budgets, r)?;
        if n > bounds.n_max() + 1e-9 {
            return Err(ModelError::Infeasible {
                reason: format!(
                    "n = {n} exceeds the {} bound of {:.3}",
                    bounds.limiter(),
                    bounds.n_max()
                ),
            });
        }
        let speedup = self.speedup(f, n, r)?;
        Ok(Evaluation {
            speedup,
            limiter: bounds.limiter(),
            n,
            r,
            serial_power: self.serial_power(r),
            parallel_power: self.parallel_power(n, r),
            parallel_bandwidth: self.parallel_bandwidth(n, r),
        })
    }
}

/// A fully specified design: a chip organization plus its `(n, r)` split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DesignPoint {
    /// The machine organization and laws.
    pub spec: ChipSpec,
    /// Total resources in BCE of area.
    pub n: f64,
    /// Resources dedicated to the sequential core, in BCE.
    pub r: f64,
}

impl DesignPoint {
    /// Creates a design point after validating `n` and `r`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < r ≤ n` and both are finite.
    pub fn new(spec: ChipSpec, n: f64, r: f64) -> Result<Self, ModelError> {
        crate::error::ensure_positive("n", n)?;
        crate::error::ensure_positive("r", r)?;
        if r > n {
            return Err(ModelError::SequentialExceedsTotal { r, n });
        }
        Ok(DesignPoint { spec, n, r })
    }

    /// The area devoted to parallel resources, `n − r`.
    pub fn parallel_area(&self) -> f64 {
        self.n - self.r
    }
}

/// The outcome of evaluating a design under budgets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Evaluation {
    /// Achieved speedup relative to one BCE.
    pub speedup: Speedup,
    /// Which resource bound the usable `n` first (the paper's
    /// dashed-vs-solid line distinction).
    pub limiter: Limiter,
    /// Total resources used, in BCE.
    pub n: f64,
    /// Sequential-core size, in BCE.
    pub r: f64,
    /// Power drawn in the serial phase (BCE units).
    pub serial_power: f64,
    /// Power drawn in the parallel phase (BCE units).
    pub parallel_power: f64,
    /// Bandwidth drawn in the parallel phase (compulsory units).
    pub parallel_bandwidth: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(ChipSpec::symmetric().kind().label(), "SymCMP");
        assert_eq!(ChipSpec::asymmetric_offload().kind().label(), "AsymCMP");
        let u = UCore::bce_equivalent();
        assert_eq!(ChipSpec::heterogeneous(u).kind().label(), "HET");
    }

    #[test]
    fn parallel_perf_formulas() {
        let n = 16.0;
        let r = 4.0;
        assert!((ChipSpec::symmetric().parallel_perf(n, r) - 8.0).abs() < 1e-12); // (16/4)*2
        assert!((ChipSpec::asymmetric().parallel_perf(n, r) - 14.0).abs() < 1e-12); // 2 + 12
        assert!(
            (ChipSpec::asymmetric_offload().parallel_perf(n, r) - 12.0).abs() < 1e-12
        );
        assert!((ChipSpec::dynamic().parallel_perf(n, r) - 16.0).abs() < 1e-12);
        let u = UCore::new(10.0, 0.5).unwrap();
        assert!(
            (ChipSpec::heterogeneous(u).parallel_perf(n, r) - 120.0).abs() < 1e-12
        );
    }

    #[test]
    fn parallel_power_formulas() {
        let n = 16.0;
        let r = 4.0;
        let seq_power = 4f64.powf(0.875); // r^(alpha/2)
        assert!(
            (ChipSpec::symmetric().parallel_power(n, r) - 4.0 * seq_power).abs() < 1e-12
        );
        assert!(
            (ChipSpec::asymmetric().parallel_power(n, r) - (seq_power + 12.0)).abs()
                < 1e-12
        );
        assert!(
            (ChipSpec::asymmetric_offload().parallel_power(n, r) - 12.0).abs() < 1e-12
        );
        let u = UCore::new(10.0, 0.5).unwrap();
        assert!(
            (ChipSpec::heterogeneous(u).parallel_power(n, r) - 6.0).abs() < 1e-12
        );
    }

    #[test]
    fn serial_power_is_r_to_alpha_over_two() {
        let spec = ChipSpec::symmetric();
        assert!((spec.serial_power(2.0) - 2f64.powf(0.875)).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_tracks_performance() {
        let u = UCore::new(5.0, 1.0).unwrap();
        let spec = ChipSpec::heterogeneous(u);
        assert_eq!(spec.parallel_bandwidth(11.0, 1.0), spec.parallel_perf(11.0, 1.0));
        assert!((spec.serial_bandwidth(4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_rejects_overbudget_n() {
        let spec = ChipSpec::asymmetric_offload();
        let budgets = Budgets::new(8.0, 100.0, 100.0).unwrap();
        let err = spec.evaluate(f(0.9), 16.0, 1.0, &budgets).unwrap_err();
        assert!(matches!(err, ModelError::Infeasible { .. }));
    }

    #[test]
    fn evaluate_reports_speedup_and_limiter() {
        let spec = ChipSpec::asymmetric_offload();
        let budgets = Budgets::new(8.0, 100.0, 100.0).unwrap();
        let eval = spec.evaluate(f(0.9), 8.0, 1.0, &budgets).unwrap();
        assert!(eval.speedup.get() > 1.0);
        assert_eq!(eval.limiter, Limiter::Area);
    }

    #[test]
    fn design_point_validation() {
        let spec = ChipSpec::symmetric();
        assert!(DesignPoint::new(spec, 4.0, 8.0).is_err());
        let d = DesignPoint::new(spec, 8.0, 2.0).unwrap();
        assert_eq!(d.parallel_area(), 6.0);
    }

    #[test]
    fn display_shows_ucore_parameters() {
        let u = UCore::new(27.4, 0.79).unwrap();
        let s = ChipKind::Heterogeneous(u).to_string();
        assert!(s.contains("27.4"));
        assert!(s.contains("0.79"));
    }
}
