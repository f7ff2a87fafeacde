//! Table 1: how area, power and bandwidth bound `n` and `r`.
//!
//! For a fixed sequential-core size `r`, each resource gives a maximum
//! usable `n` ("the maximum number of BCE resources that usefully
//! contribute to overall speedup"):
//!
//! | Bound | Symmetric | Asym-offload | Heterogeneous |
//! |---|---|---|---|
//! | area | `n ≤ A` | `n ≤ A` | `n ≤ A` |
//! | parallel power | `n ≤ P·r^(1−α/2)` | `n ≤ P + r` | `n ≤ P/φ + r` |
//! | serial power | `r^(α/2) ≤ P` | `r^(α/2) ≤ P` | `r^(α/2) ≤ P` |
//! | parallel bandwidth | `n ≤ B·√r` | `n ≤ B + r` | `n ≤ B/µ + r` |
//! | serial bandwidth | `r ≤ B²` | `r ≤ B²` | `r ≤ B²` |
//!
//! (The table generalizes to arbitrary Pollack exponents; the entries above
//! show the square-root case. Bounds for the original asymmetric and the
//! dynamic machines follow from the same phase power/bandwidth expressions.)

use crate::budget::Budgets;
use crate::seq::SequentialLaw;
use crate::chip::{ChipKind, ChipSpec};
use crate::error::ModelError;
use serde::Serialize;
use std::fmt;

/// The resource that determines how far a design can scale.
///
/// Matches the visual encoding of the paper's projection figures: points
/// joined by *dashed* lines are power-limited, by *solid* lines
/// bandwidth-limited, and unconnected points are area-limited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Limiter {
    /// The area budget `A` binds first (the chip is "full").
    Area,
    /// The parallel-phase power budget binds first (dashed lines).
    Power,
    /// The parallel-phase bandwidth budget binds first (solid lines).
    Bandwidth,
}

impl fmt::Display for Limiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Limiter::Area => "area",
            Limiter::Power => "power",
            Limiter::Bandwidth => "bandwidth",
        })
    }
}

/// Why a `(spec, budgets, r)` combination is infeasible, as a plain
/// enum — the allocation-free companion to the rendered
/// [`ModelError::Infeasible`] diagnostics, for hot loops like
/// [`crate::Optimizer`]'s sweep that probe many candidates and discard
/// most of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Infeasibility {
    /// `r` is not a positive finite number.
    InvalidR,
    /// `perf(r)^α > P`: the sequential core alone exceeds the power budget.
    SerialPower,
    /// `perf(r)` generates more traffic than `B` in the serial phase.
    SerialBandwidth,
    /// The parallel-phase bounds leave `n_max < r`.
    NoParallelRoom,
}

impl Infeasibility {
    /// True when every *larger* `r` is provably infeasible for the same
    /// reason: the serial bounds compare `r` against caps
    /// (`r_max_power`, `r_max_bandwidth`) that do not depend on `r`, so
    /// once one of them rejects a candidate an increasing sweep can stop.
    pub fn is_monotone_in_r(&self) -> bool {
        matches!(self, Infeasibility::SerialPower | Infeasibility::SerialBandwidth)
    }
}

/// One of the five constraint rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Constraint {
    /// `n ≤ A`.
    Area,
    /// Parallel-phase power bound on `n`.
    ParallelPower,
    /// Serial-phase power bound on `r`.
    SerialPower,
    /// Parallel-phase bandwidth bound on `n`.
    ParallelBandwidth,
    /// Serial-phase bandwidth bound on `r`.
    SerialBandwidth,
}

/// The resolved bounds for a given `(spec, budgets, r)`.
///
/// ```
/// use ucore_core::{BoundSet, Budgets, ChipSpec, Limiter};
/// let spec = ChipSpec::asymmetric_offload();
/// let budgets = Budgets::new(19.0, 7.4, 1000.0)?;
/// let bounds = BoundSet::compute(&spec, &budgets, 2.0)?;
/// // Power, not area, limits this CMP: P + r = 9.4 < A = 19.
/// assert_eq!(bounds.limiter(), Limiter::Power);
/// assert!((bounds.n_max() - 9.4).abs() < 1e-9);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoundSet {
    n_area: f64,
    n_power: f64,
    n_bandwidth: f64,
    r_max_power: f64,
    r_max_bandwidth: f64,
    r: f64,
}

impl BoundSet {
    /// Computes every Table 1 bound for a sequential-core size `r`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] if the serial phase itself
    /// violates a bound (`perf(r)^α > P` or `perf(r)^e > B`), or if the
    /// parallel-phase bounds leave no usable resources (`n_max < r`).
    pub fn compute(spec: &ChipSpec, budgets: &Budgets, r: f64) -> Result<Self, ModelError> {
        crate::error::ensure_positive("r", r)?;
        let caps = BoundCaps::new(spec, budgets);
        caps.at(r).map_err(|why| {
            match why {
                Infeasibility::InvalidR => ModelError::Infeasible {
                    reason: format!("r = {r} is not a positive finite number"),
                },
                Infeasibility::SerialPower => ModelError::Infeasible {
                    reason: format!(
                        "serial power bound violated: perf(r)^alpha = {:.3} > P = {:.3}",
                        spec.serial_power(r),
                        budgets.power()
                    ),
                },
                Infeasibility::SerialBandwidth => ModelError::Infeasible {
                    reason: format!(
                        "serial bandwidth bound violated: traffic = {:.3} > B = {:.3}",
                        spec.serial_bandwidth(r),
                        budgets.bandwidth()
                    ),
                },
                Infeasibility::NoParallelRoom => ModelError::Infeasible {
                    reason: format!(
                        "parallel-phase bounds leave n_max = {:.3} below r = {r}",
                        caps.unchecked(r).n_max()
                    ),
                },
            }
        })
    }

    /// [`Self::compute`] without the rendered diagnostics: infeasibility
    /// comes back as a plain [`Infeasibility`] enum, so probing an
    /// infeasible candidate allocates nothing. Both run the checks of
    /// `BoundCaps::at`, which the optimizer calls directly so that the
    /// caps that do not depend on `r` (`r_max_power`, `r_max_bandwidth`,
    /// `B^(1/e)`) are computed once per sweep, not once per candidate.
    ///
    /// # Errors
    ///
    /// Returns the [`Infeasibility`] kind instead of a formatted
    /// [`ModelError`].
    pub fn compute_quiet(
        spec: &ChipSpec,
        budgets: &Budgets,
        r: f64,
    ) -> Result<Self, Infeasibility> {
        BoundCaps::new(spec, budgets).at(r)
    }

    /// The area bound on `n` (`= A`).
    pub fn n_area(&self) -> f64 {
        self.n_area
    }

    /// The parallel-power bound on `n`.
    pub fn n_power(&self) -> f64 {
        self.n_power
    }

    /// The parallel-bandwidth bound on `n`.
    pub fn n_bandwidth(&self) -> f64 {
        self.n_bandwidth
    }

    /// The largest `r` the serial power bound allows.
    pub fn r_max_power(&self) -> f64 {
        self.r_max_power
    }

    /// The largest `r` the serial bandwidth bound allows.
    pub fn r_max_bandwidth(&self) -> f64 {
        self.r_max_bandwidth
    }

    /// The usable `n`: the minimum of the three bounds.
    pub fn n_max(&self) -> f64 {
        self.n_area.min(self.n_power).min(self.n_bandwidth)
    }

    /// Which resource produces [`n_max`](Self::n_max).
    ///
    /// Ties resolve in the order bandwidth, power, area, mirroring the
    /// paper's presentation (a design that exactly exhausts bandwidth and
    /// area is drawn as bandwidth-limited).
    pub fn limiter(&self) -> Limiter {
        let n_max = self.n_max();
        if self.n_bandwidth <= n_max + 1e-12 {
            Limiter::Bandwidth
        } else if self.n_power <= n_max + 1e-12 {
            Limiter::Power
        } else {
            Limiter::Area
        }
    }

    /// The bound value for a specific Table 1 row.
    pub fn bound(&self, constraint: Constraint) -> f64 {
        match constraint {
            Constraint::Area => self.n_area,
            Constraint::ParallelPower => self.n_power,
            Constraint::SerialPower => self.r_max_power,
            Constraint::ParallelBandwidth => self.n_bandwidth,
            Constraint::SerialBandwidth => self.r_max_bandwidth,
        }
    }
}

/// The Table 1 pieces that do not depend on `r`, computed once per
/// `(spec, budgets)`; [`crate::Optimizer`] resolves each candidate with
/// [`Self::at`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundCaps<'a> {
    spec: &'a ChipSpec,
    budgets: &'a Budgets,
    r_max_power: f64,
    r_max_bandwidth: f64,
    perf_cap: f64,
}

impl<'a> BoundCaps<'a> {
    pub(crate) fn new(spec: &'a ChipSpec, budgets: &'a Budgets) -> Self {
        let law = spec.law();
        // Serial power: perf(r)^α = r^(kα) <= P  =>  r <= P^(1/(kα)).
        let r_max_power = budgets.power().powf(1.0 / (law.exponent() * spec.power_law().alpha()));
        // Bandwidth caps performance, serial or parallel: perf^e <= B.
        let perf_cap = budgets.bandwidth().powf(1.0 / spec.bandwidth_exponent());
        let r_max_bandwidth = law.area_for_perf(perf_cap);
        BoundCaps { spec, budgets, r_max_power, r_max_bandwidth, perf_cap }
    }

    /// [`BoundSet::compute_quiet`] at `r`: the checks in order, then the
    /// bounds.
    ///
    /// # Errors
    ///
    /// The first [`Infeasibility`] that `r` hits.
    pub(crate) fn at(&self, r: f64) -> Result<BoundSet, Infeasibility> {
        if !(r.is_finite() && r > 0.0) {
            return Err(Infeasibility::InvalidR);
        }
        if r > self.r_max_power + 1e-9 {
            return Err(Infeasibility::SerialPower);
        }
        if r > self.r_max_bandwidth + 1e-9 {
            return Err(Infeasibility::SerialBandwidth);
        }
        let bounds = self.unchecked(r);
        if bounds.n_max() < r - 1e-9 {
            return Err(Infeasibility::NoParallelRoom);
        }
        Ok(bounds)
    }

    /// Evaluates every Table 1 bound expression without feasibility
    /// checks. All the expressions are well-defined for any positive `r`.
    fn unchecked(&self, r: f64) -> BoundSet {
        let (p, cap) = (self.budgets.power(), self.perf_cap);
        let seq_perf = self.spec.law().perf(r);
        let seq_power = || self.spec.power_law().power_of_perf(seq_perf);
        // Parallel-phase bounds on n: each machine maps the power budget
        // and the performance cap back to an n (its parallel power and
        // performance are affine in n).
        let n_power = match self.spec.kind() {
            ChipKind::Symmetric => p * r / seq_power(),
            ChipKind::Asymmetric => p - seq_power() + r,
            ChipKind::AsymmetricOffload => p + r,
            ChipKind::Dynamic => p,
            ChipKind::Heterogeneous(u) => p / u.phi() + r,
        };
        let n_bandwidth = match self.spec.kind() {
            ChipKind::Symmetric => cap * r / seq_perf,
            ChipKind::Asymmetric => cap - seq_perf + r,
            ChipKind::AsymmetricOffload => cap + r,
            ChipKind::Dynamic => cap,
            ChipKind::Heterogeneous(u) => cap / u.mu() + r,
        };
        BoundSet {
            n_area: self.budgets.area(),
            n_power,
            n_bandwidth,
            r_max_power: self.r_max_power,
            r_max_bandwidth: self.r_max_bandwidth,
            r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucore::UCore;

    fn budgets(a: f64, p: f64, b: f64) -> Budgets {
        Budgets::new(a, p, b).unwrap()
    }

    #[test]
    fn table1_symmetric_formulas() {
        let spec = ChipSpec::symmetric();
        let r = 4.0;
        let bs = BoundSet::compute(&spec, &budgets(100.0, 10.0, 20.0), r).unwrap();
        // n <= P * r^(1 - alpha/2) = 10 * 4^(0.125)
        let expect_power = 10.0 * 4f64.powf(1.0 - 0.875);
        assert!((bs.n_power() - expect_power).abs() < 1e-9);
        // n <= B * sqrt(r) = 20 * 2
        assert!((bs.n_bandwidth() - 40.0).abs() < 1e-9);
        assert_eq!(bs.n_area(), 100.0);
    }

    #[test]
    fn table1_asym_offload_formulas() {
        let spec = ChipSpec::asymmetric_offload();
        let bs = BoundSet::compute(&spec, &budgets(100.0, 10.0, 20.0), 4.0).unwrap();
        assert!((bs.n_power() - 14.0).abs() < 1e-9); // P + r
        assert!((bs.n_bandwidth() - 24.0).abs() < 1e-9); // B + r
    }

    #[test]
    fn table1_heterogeneous_formulas() {
        let u = UCore::new(5.0, 0.5).unwrap();
        let spec = ChipSpec::heterogeneous(u);
        let bs = BoundSet::compute(&spec, &budgets(100.0, 10.0, 20.0), 4.0).unwrap();
        assert!((bs.n_power() - 24.0).abs() < 1e-9); // P/phi + r = 20 + 4
        assert!((bs.n_bandwidth() - 8.0).abs() < 1e-9); // B/mu + r = 4 + 4
        // High-mu u-cores drown in bandwidth: the limiter is bandwidth.
        assert_eq!(bs.limiter(), Limiter::Bandwidth);
    }

    #[test]
    fn serial_bounds_r_max() {
        let spec = ChipSpec::symmetric();
        let bs = BoundSet::compute(&spec, &budgets(100.0, 10.0, 3.0), 1.0).unwrap();
        // r <= P^(2/alpha) = 10^(2/1.75)
        assert!((bs.r_max_power() - 10f64.powf(2.0 / 1.75)).abs() < 1e-9);
        // r <= B^2 = 9
        assert!((bs.r_max_bandwidth() - 9.0).abs() < 1e-9);
        // A hungrier serial core (α = 2.25) gets a smaller cap.
        let harsh = spec.with_power_law(crate::seq::SerialPowerLaw::scenario_six());
        let bs_harsh = BoundSet::compute(&harsh, &budgets(100.0, 10.0, 3.0), 1.0).unwrap();
        assert!(bs_harsh.r_max_power() < bs.r_max_power());
    }

    #[test]
    fn serial_power_violation_is_infeasible() {
        let spec = ChipSpec::symmetric();
        // r = 16 needs 16^0.875 ≈ 11.3 > P = 10.
        let err = BoundSet::compute(&spec, &budgets(100.0, 10.0, 100.0), 16.0).unwrap_err();
        assert!(matches!(err, ModelError::Infeasible { .. }));
        assert!(err.to_string().contains("serial power"));
    }

    #[test]
    fn serial_bandwidth_violation_is_infeasible() {
        let spec = ChipSpec::symmetric();
        // perf(16) = 4 > B = 3.
        let err = BoundSet::compute(&spec, &budgets(100.0, 100.0, 3.0), 16.0).unwrap_err();
        assert!(err.to_string().contains("serial bandwidth"));
    }

    #[test]
    fn lower_phi_relaxes_power_bound() {
        let frugal = ChipSpec::heterogeneous(UCore::new(2.0, 0.25).unwrap());
        let hungry = ChipSpec::heterogeneous(UCore::new(2.0, 1.0).unwrap());
        let b = budgets(1000.0, 10.0, 1e6);
        let n_frugal = BoundSet::compute(&frugal, &b, 1.0).unwrap().n_power();
        let n_hungry = BoundSet::compute(&hungry, &b, 1.0).unwrap().n_power();
        assert!(n_frugal > n_hungry);
    }

    #[test]
    fn higher_mu_tightens_bandwidth_bound() {
        let fast = ChipSpec::heterogeneous(UCore::new(100.0, 1.0).unwrap());
        let slow = ChipSpec::heterogeneous(UCore::new(2.0, 1.0).unwrap());
        let b = budgets(1000.0, 1e6, 50.0);
        let n_fast = BoundSet::compute(&fast, &b, 1.0).unwrap().n_bandwidth();
        let n_slow = BoundSet::compute(&slow, &b, 1.0).unwrap().n_bandwidth();
        assert!(n_fast < n_slow);
    }

    #[test]
    fn limiter_classification() {
        let spec = ChipSpec::asymmetric_offload();
        assert_eq!(
            BoundSet::compute(&spec, &budgets(5.0, 100.0, 100.0), 1.0)
                .unwrap()
                .limiter(),
            Limiter::Area
        );
        assert_eq!(
            BoundSet::compute(&spec, &budgets(100.0, 5.0, 100.0), 1.0)
                .unwrap()
                .limiter(),
            Limiter::Power
        );
        assert_eq!(
            BoundSet::compute(&spec, &budgets(100.0, 100.0, 5.0), 1.0)
                .unwrap()
                .limiter(),
            Limiter::Bandwidth
        );
    }

    #[test]
    fn dynamic_bounds_use_all_resources() {
        let spec = ChipSpec::dynamic();
        let bs = BoundSet::compute(&spec, &budgets(100.0, 10.0, 20.0), 4.0).unwrap();
        assert!((bs.n_power() - 10.0).abs() < 1e-9);
        assert!((bs.n_bandwidth() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_bounds_subtract_big_core() {
        let spec = ChipSpec::asymmetric();
        let r = 4.0;
        let bs = BoundSet::compute(&spec, &budgets(100.0, 10.0, 20.0), r).unwrap();
        let seq_power = 4f64.powf(0.875);
        assert!((bs.n_power() - (10.0 - seq_power + r)).abs() < 1e-9);
        assert!((bs.n_bandwidth() - (20.0 - 2.0 + r)).abs() < 1e-9);
    }

    #[test]
    fn bound_accessor_matches_rows() {
        let spec = ChipSpec::symmetric();
        let bs = BoundSet::compute(&spec, &budgets(7.0, 10.0, 3.0), 1.0).unwrap();
        assert_eq!(bs.bound(Constraint::Area), 7.0);
        assert_eq!(bs.bound(Constraint::ParallelPower), bs.n_power());
        assert_eq!(bs.bound(Constraint::SerialPower), bs.r_max_power());
        assert_eq!(bs.bound(Constraint::ParallelBandwidth), bs.n_bandwidth());
        assert_eq!(bs.bound(Constraint::SerialBandwidth), bs.r_max_bandwidth());
    }

    #[test]
    fn quiet_variant_agrees_with_compute() {
        let specs = [
            ChipSpec::symmetric(),
            ChipSpec::asymmetric(),
            ChipSpec::asymmetric_offload(),
            ChipSpec::dynamic(),
            ChipSpec::heterogeneous(UCore::new(5.0, 0.5).unwrap()),
        ];
        for spec in &specs {
            for b in [budgets(100.0, 10.0, 20.0), budgets(5.0, 0.9, 1.5)] {
                for r in [0.5, 1.0, 4.0, 16.0, 64.0] {
                    let loud = BoundSet::compute(spec, &b, r);
                    let quiet = BoundSet::compute_quiet(spec, &b, r);
                    match (loud, quiet) {
                        (Ok(l), Ok(q)) => assert_eq!(l, q, "{} r={r}", spec.kind()),
                        (Err(_), Err(_)) => {}
                        (l, q) => panic!("disagree for {} r={r}: {l:?} vs {q:?}", spec.kind()),
                    }
                }
            }
        }
    }

    #[test]
    fn quiet_serial_violations_are_monotone() {
        let spec = ChipSpec::symmetric();
        let why = BoundSet::compute_quiet(&spec, &budgets(100.0, 10.0, 100.0), 16.0)
            .unwrap_err();
        assert_eq!(why, Infeasibility::SerialPower);
        assert!(why.is_monotone_in_r());
        let why = BoundSet::compute_quiet(&spec, &budgets(100.0, 100.0, 3.0), 16.0)
            .unwrap_err();
        assert_eq!(why, Infeasibility::SerialBandwidth);
        assert!(why.is_monotone_in_r());
        // Area below r: serial caps pass but the chip cannot even hold
        // the sequential core plus usable parallel resources.
        let why = BoundSet::compute_quiet(&spec, &budgets(2.0, 100.0, 100.0), 4.0)
            .unwrap_err();
        assert_eq!(why, Infeasibility::NoParallelRoom);
        assert!(!why.is_monotone_in_r());
        assert_eq!(
            BoundSet::compute_quiet(&spec, &budgets(1.0, 1.0, 1.0), f64::NAN),
            Err(Infeasibility::InvalidR)
        );
    }

    #[test]
    fn infeasible_when_bounds_below_r() {
        // Heterogeneous with tiny bandwidth: n_bandwidth = B/mu + r can
        // stay above r, so use symmetric with a bandwidth smaller than
        // what even the sequential core's parallel phase needs.
        let spec = ChipSpec::symmetric();
        // r = 4: n_bw = B*sqrt(r)/... = 1.0*2 = 2 < r = 4 -> infeasible.
        let err = BoundSet::compute(&spec, &budgets(100.0, 100.0, 1.0), 4.0);
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod bandwidth_law_tests {
    use super::*;
    use crate::chip::ChipSpec;
    use crate::ucore::UCore;

    #[test]
    fn sublinear_traffic_relaxes_the_bandwidth_bound() {
        // With e = 0.5, traffic grows as sqrt(perf): the same budget
        // admits far more parallel performance.
        let linear = ChipSpec::heterogeneous(UCore::new(10.0, 1.0).unwrap());
        let sublinear = linear.with_bandwidth_exponent(0.5);
        let budgets = Budgets::new(1000.0, 1e6, 20.0).unwrap();
        let n_linear = BoundSet::compute(&linear, &budgets, 1.0)
            .unwrap()
            .n_bandwidth();
        let n_sub = BoundSet::compute(&sublinear, &budgets, 1.0)
            .unwrap()
            .n_bandwidth();
        // perf caps: 20 vs 400 => n - r caps: 2 vs 40.
        assert!((n_linear - 3.0).abs() < 1e-9);
        assert!((n_sub - 41.0).abs() < 1e-9);
    }

    #[test]
    fn exponent_one_is_the_paper_model() {
        let spec = ChipSpec::asymmetric_offload();
        assert_eq!(spec.bandwidth_exponent(), 1.0);
        let explicit = spec.with_bandwidth_exponent(1.0);
        let budgets = Budgets::new(100.0, 100.0, 20.0).unwrap();
        let a = BoundSet::compute(&spec, &budgets, 4.0).unwrap();
        let b = BoundSet::compute(&explicit, &budgets, 4.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traffic_accessor_matches_exponent() {
        let spec = ChipSpec::asymmetric_offload().with_bandwidth_exponent(0.5);
        // Parallel perf 16 => traffic 4.
        assert!((spec.parallel_bandwidth(17.0, 1.0) - 4.0).abs() < 1e-12);
        assert!((spec.serial_bandwidth(16.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bandwidth exponent")]
    fn invalid_exponent_panics_at_configuration() {
        let _ = ChipSpec::symmetric().with_bandwidth_exponent(0.0);
    }

    #[test]
    fn serial_bandwidth_bound_uses_the_law() {
        // e = 0.5, B = 3: perf(r) <= 9  =>  r <= 81.
        let spec = ChipSpec::symmetric().with_bandwidth_exponent(0.5);
        let budgets = Budgets::new(1000.0, 1e6, 3.0).unwrap();
        let bs = BoundSet::compute(&spec, &budgets, 1.0).unwrap();
        assert!((bs.r_max_bandwidth() - 81.0).abs() < 1e-9);
    }
}
