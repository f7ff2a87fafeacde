//! Sequential-core sizing: the paper's `r` sweep.
//!
//! "To determine the optimal size of the sequential core, we sweep all
//! values of r (sequential core size) up to 16 for each particular design
//! point and report the maximum speedup."
//!
//! For every candidate `r` the optimizer resolves the usable `n` from the
//! Table 1 bounds (speedup is monotone in `n`, so using every permitted
//! BCE is always optimal) and evaluates the design; infeasible `r` values
//! (serial bounds violated, or no room left for parallel resources) are
//! skipped. Speedup is the only objective: Figure 10 prices the
//! speedup-optimal design with [`crate::EnergyModel`] at each node.
//!
//! ## Search strategy
//!
//! [`Optimizer::optimize`] is the tuned search. It differs from the
//! plain scan kept in [`Optimizer::optimize_exhaustive`] in these ways,
//! each of which preserves the result:
//!
//! 1. candidates come from a lazy iterator, infeasible probes come back
//!    as a plain [`crate::Infeasibility`], and the Table 1 caps that do
//!    not depend on `r` (`r_max_power`, `r_max_bandwidth`, `B^(1/e)`)
//!    are computed once per call;
//! 2. each candidate computes only its speedup, after the checks
//!    [`ChipSpec::evaluate`] makes, and the one [`Evaluation`] built is
//!    the winner's;
//! 3. a serial-bound violation stops the sweep: the serial caps do not
//!    depend on `r`, so every larger candidate is infeasible too
//!    ([`crate::Infeasibility::is_monotone_in_r`]);
//! 4. when the sweep lies in the range where speedup is quasi-concave in
//!    `r` — `r_min ≥ 1`, Pollack exponent `0 < k ≤ 1` and serial power
//!    exponent `α ≥ 1` (DESIGN.md §15.1 proves it per chip kind) — the
//!    first feasible candidate below its predecessor is past the peak,
//!    and the sweep stops there. The descent must exceed a relative
//!    `NOISE_FLOOR` of 2^-32, so rounding jitter on a flat stretch of
//!    the curve cannot fake one. Outside that range the scan runs to the
//!    end.
//!
//! The proof is over the reals; `tests/optimize_equiv.rs` proptests
//! exact-bits agreement with [`Optimizer::optimize_exhaustive`], inside
//! and outside the range and with `f` hugging 1, to guard the
//! floating-point code.

use crate::bounds::{BoundCaps, BoundSet};
use crate::budget::Budgets;
use crate::chip::{ChipSpec, Evaluation};
use crate::error::{ensure_positive, ModelError};
use crate::units::ParallelFraction;
use serde::Serialize;

/// The best design found by an [`Optimizer`] sweep.
///
/// A one-field struct because the benchmark harness reads
/// `best.evaluation`; ROADMAP.md item 8 can collapse it into
/// [`Evaluation`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OptimalDesign {
    /// The evaluation of the winning design (speedup, limiter, `n`, `r`).
    pub evaluation: Evaluation,
}

/// Sweeps sequential-core sizes and reports the fastest design.
///
/// ```
/// use ucore_core::{Budgets, ChipSpec, Optimizer, ParallelFraction};
/// let opt = Optimizer::paper_default();
/// let budgets = Budgets::new(19.0, 7.4, 100.0)?;
/// let f = ParallelFraction::new(0.9)?;
/// let best = opt.optimize(&ChipSpec::asymmetric_offload(), &budgets, f)?;
/// assert!(best.evaluation.r >= 1.0 && best.evaluation.r <= 16.0);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Optimizer {
    r_min: f64,
    r_max: f64,
    r_step: f64,
}

impl Optimizer {
    /// The paper's sweep: integer `r` from 1 to 16.
    pub fn paper_default() -> Self {
        Optimizer {
            r_min: 1.0,
            r_max: 16.0,
            r_step: 1.0,
        }
    }

    /// Creates a sweep over `[r_min, r_max]` with the given step.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < r_min ≤ r_max` and `r_step > 0`, and
    /// when `r_step` is below one ulp of the sweep's top `r_max + 1e-9`:
    /// such a step can round `r + r_step` back to `r`, so the sweep would
    /// never end. At or above that ulp every `r` the sweep visits
    /// advances.
    pub fn new(r_min: f64, r_max: f64, r_step: f64) -> Result<Self, ModelError> {
        ensure_positive("r_min", r_min)?;
        ensure_positive("r_max", r_max)?;
        ensure_positive("r_step", r_step)?;
        if r_min > r_max {
            return Err(ModelError::Infeasible {
                reason: format!("empty r sweep: r_min = {r_min} > r_max = {r_max}"),
            });
        }
        let top = r_max + 1e-9;
        if r_step < top.next_up() - top {
            return Err(ModelError::Infeasible {
                reason: format!(
                    "r_step = {r_step} is below one ulp of r_max = {r_max}: r would stop advancing"
                ),
            });
        }
        Ok(Optimizer {
            r_min,
            r_max,
            r_step,
        })
    }

    /// The lower end of the `r` sweep.
    pub fn r_min(&self) -> f64 {
        self.r_min
    }

    /// The upper end of the `r` sweep.
    pub fn r_max(&self) -> f64 {
        self.r_max
    }

    /// The sweep step.
    pub fn r_step(&self) -> f64 {
        self.r_step
    }

    /// The candidate `r` values of this sweep.
    pub fn candidates(&self) -> Vec<f64> {
        self.candidate_values().collect()
    }

    /// The candidate `r` values as a lazy iterator — the allocation-free
    /// form [`Self::optimize`] sweeps. Produces exactly the values (and
    /// accumulated-rounding bit patterns) of [`Self::candidates`].
    pub fn candidate_values(&self) -> impl Iterator<Item = f64> {
        let mut r = self.r_min;
        let r_max = self.r_max;
        let r_step = self.r_step;
        std::iter::from_fn(move || {
            if r <= r_max + 1e-9 {
                let out = r.min(r_max);
                r += r_step;
                Some(out)
            } else {
                None
            }
        })
    }

    /// Finds the fastest design for `spec` under `budgets` at parallel
    /// fraction `f`.
    ///
    /// This is the tuned search (see the module docs);
    /// [`Self::optimize_exhaustive`] is the verbatim reference scan it
    /// must agree with bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] if *no* swept `r` yields a
    /// feasible design (for instance when the serial power bound rejects
    /// even `r = r_min`).
    pub fn optimize(
        &self,
        spec: &ChipSpec,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Result<OptimalDesign, ModelError> {
        // DESIGN.md §15.1: on this range speedup is quasi-concave in `r`, so
        // a descent between feasible candidates is past the peak.
        // (`PollackLaw` already guarantees `k > 0`.)
        let exit_on_descent =
            self.r_min >= 1.0 && spec.law().exponent() <= 1.0 && spec.power_law().alpha() >= 1.0;
        let caps = BoundCaps::new(spec, budgets);
        let mut best: Option<(f64, f64, f64)> = None;
        // NaN until the first feasible candidate: no comparison holds.
        let mut prev = f64::NAN;
        for r in self.candidate_values() {
            // Skip exactly what `evaluate` rejects: the winner's cannot fail.
            let bounds = match caps.at(r) {
                Ok(bounds) => bounds,
                Err(why) if why.is_monotone_in_r() => break,
                Err(_) => continue,
            };
            // Use every BCE the tightest bound permits, but never fewer
            // than the sequential core itself occupies.
            let n = bounds.n_max().max(r);
            // Designs with no parallel resources cannot run parallel work,
            // and `evaluate` rejects an `n` past the bound's slack (an `r`
            // just above `n_max`).
            if (f.get() > 0.0 && spec.parallel_perf(n, r) <= 0.0) || n > bounds.n_max() + 1e-9 {
                continue;
            }
            let Ok(speedup) = spec.speedup(f, n, r) else {
                continue;
            };
            let speedup = speedup.get();
            if exit_on_descent && speedup < prev * (1.0 - NOISE_FLOOR) {
                break;
            }
            prev = speedup;
            if best.is_none_or(|(b, _, _)| speedup > b) {
                best = Some((speedup, n, r));
            }
        }
        let (_, n, r) = best.ok_or_else(|| self.infeasible(spec, budgets, f))?;
        Ok(OptimalDesign { evaluation: spec.evaluate(f, n, r, budgets)? })
    }

    /// The reference sweep: allocating candidate list,
    /// diagnostic-rendering bounds, every candidate evaluated, no early
    /// exit. Kept in-tree as the oracle the tuned [`Self::optimize`] is
    /// differentially tested against (`tests/optimize_equiv.rs`) and
    /// benched against (`optimize/exhaustive`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] if no swept `r` yields a
    /// feasible design.
    pub fn optimize_exhaustive(
        &self,
        spec: &ChipSpec,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Result<OptimalDesign, ModelError> {
        let mut best: Option<Evaluation> = None;
        for r in self.candidates() {
            let Ok(bounds) = BoundSet::compute(spec, budgets, r) else {
                continue;
            };
            // Use every BCE the tightest bound permits, but never fewer
            // than the sequential core itself occupies.
            let n = bounds.n_max().max(r);
            // Designs with no parallel resources cannot run parallel work.
            if f.get() > 0.0 && spec.parallel_perf(n, r) <= 0.0 {
                continue;
            }
            let Ok(evaluation) = spec.evaluate(f, n, r, budgets) else {
                continue;
            };
            if best.is_none_or(|b| evaluation.speedup > b.speedup) {
                best = Some(evaluation);
            }
        }
        let evaluation = best.ok_or_else(|| self.infeasible(spec, budgets, f))?;
        Ok(OptimalDesign { evaluation })
    }

    fn infeasible(&self, spec: &ChipSpec, budgets: &Budgets, f: ParallelFraction) -> ModelError {
        ModelError::Infeasible {
            reason: format!(
                "no feasible design for {} under {budgets} at {f}",
                spec.kind()
            ),
        }
    }
}

/// How far (relative) a speedup must fall below its predecessor before
/// [`Optimizer::optimize`] exits: 2^-32. Over the reals any descent would
/// do; in floating point a flat stretch of the curve (a bandwidth-bound
/// design, or `f` within ~1e-12 of 1) jitters by rounding, which is
/// orders of magnitude below this floor (DESIGN.md §15.1).
const NOISE_FLOOR: f64 = 1.0 / (1u64 << 32) as f64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucore::UCore;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    #[test]
    fn paper_default_matches_section_six() {
        let opt = Optimizer::paper_default();
        assert_eq!(opt.r_max(), 16.0);
        assert_eq!(opt.r_step(), 1.0);
        assert_eq!(opt.candidates().len(), 16);
    }

    #[test]
    fn non_advancing_steps_are_rejected() {
        assert!(Optimizer::new(1.0, 16.0, 1e-17).is_err());
        // Half an ulp of 16 is a round-half-even tie: 16 + step == 16.
        let half_ulp = (16f64.next_up() - 16.0) / 2.0;
        assert_eq!(16.0 + half_ulp, 16.0);
        assert!(Optimizer::new(1.0, 16.0, half_ulp).is_err());
        // The engine's sweep, integer r, still builds.
        assert!(Optimizer::new(1.0, 16.0, 1.0).is_ok());
    }

    #[test]
    fn candidates_cover_range() {
        let opt = Optimizer::new(1.0, 4.0, 0.5).unwrap();
        let c = opt.candidates();
        assert_eq!(c.first().copied(), Some(1.0));
        assert_eq!(c.last().copied(), Some(4.0));
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn serial_workload_prefers_biggest_core() {
        // With f = 0 the only thing that matters is perf(r): r = 16 wins
        // when power permits.
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(64.0, 100.0, 100.0).unwrap();
        let best = opt
            .optimize(&ChipSpec::asymmetric_offload(), &budgets, f(0.0))
            .unwrap();
        assert_eq!(best.evaluation.r, 16.0);
    }

    #[test]
    fn perfectly_parallel_workload_prefers_smallest_core() {
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(64.0, 1000.0, 1000.0).unwrap();
        let best = opt
            .optimize(&ChipSpec::asymmetric_offload(), &budgets, f(1.0))
            .unwrap();
        assert_eq!(best.evaluation.r, 1.0);
    }

    #[test]
    fn optimum_is_at_least_any_feasible_point() {
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(75.0, 14.7, 441.0).unwrap();
        let spec = ChipSpec::heterogeneous(UCore::new(8.47, 1.27).unwrap());
        let best = opt.optimize(&spec, &budgets, f(0.99)).unwrap();
        for r in 1..=16 {
            let Ok(bounds) = BoundSet::compute(&spec, &budgets, r as f64) else {
                continue;
            };
            let n = bounds.n_max().max(r as f64);
            let Ok(s) = spec.speedup(f(0.99), n, r as f64) else {
                continue;
            };
            assert!(best.evaluation.speedup.get() + 1e-9 >= s.get(), "r = {r}");
        }
    }

    #[test]
    fn infeasible_when_power_rejects_all_r() {
        // P = 0.5: even r = 1 needs power 1 in the serial phase.
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(64.0, 0.5, 100.0).unwrap();
        let err = opt
            .optimize(&ChipSpec::symmetric(), &budgets, f(0.5))
            .unwrap_err();
        assert!(matches!(err, ModelError::Infeasible { .. }));
    }

    #[test]
    fn winner_fits_the_serial_power_budget_under_any_pollack_law() {
        // The serial core draws perf(r)^α = r^(kα); the serial power cap
        // must invert that law, not assume k = 0.5.
        use crate::seq::PollackLaw;
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(298.0, 10.0, 1e6).unwrap();
        // At k = 0.4 even r = 16 fits (16^0.7 ≈ 6.96), and a serial
        // workload wants the biggest core wherever n has room for it.
        for (k, fits_16) in [(0.4, true), (0.6, false)] {
            let law = PollackLaw::new(k).unwrap();
            for spec in [
                ChipSpec::symmetric(),
                ChipSpec::asymmetric(),
                ChipSpec::asymmetric_offload(),
                ChipSpec::dynamic(),
                ChipSpec::heterogeneous(UCore::new(5.0, 0.5).unwrap()),
            ] {
                let spec = spec.with_law(law);
                let best = opt.optimize(&spec, &budgets, f(0.0)).unwrap().evaluation;
                let kind = spec.kind();
                assert!(best.serial_power <= 10.0, "{kind} k={k}: {best:?}");
                if fits_16 && !matches!(kind, crate::chip::ChipKind::Dynamic) {
                    assert_eq!(best.r, 16.0, "{kind}");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_sweep_parameters() {
        assert!(Optimizer::new(0.0, 16.0, 1.0).is_err());
        assert!(Optimizer::new(4.0, 2.0, 1.0).is_err());
        assert!(Optimizer::new(1.0, 16.0, 0.0).is_err());
    }

    #[test]
    fn power_limited_chip_reports_power_limiter() {
        use crate::bounds::Limiter;
        let opt = Optimizer::paper_default();
        // Plenty of area/bandwidth, tight power.
        let budgets = Budgets::new(298.0, 10.0, 10_000.0).unwrap();
        let best = opt
            .optimize(&ChipSpec::asymmetric_offload(), &budgets, f(0.99))
            .unwrap();
        assert_eq!(best.evaluation.limiter, Limiter::Power);
        assert!(best.evaluation.n < 298.0);
    }
}
