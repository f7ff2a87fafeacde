//! Sequential-core sizing: the paper's `r` sweep.
//!
//! "To determine the optimal size of the sequential core, we sweep all
//! values of r (sequential core size) up to 16 for each particular design
//! point and report the maximum speedup."
//!
//! For every candidate `r` the optimizer resolves the usable `n` from the
//! Table 1 bounds (speedup is monotone in `n`, so using every permitted
//! BCE is always optimal for the speedup objective) and evaluates the
//! design; infeasible `r` values (serial bounds violated, or no room left
//! for parallel resources) are skipped.
//!
//! ## Search strategy
//!
//! [`Optimizer::optimize`] is the tuned search. It differs from the
//! verbatim scan kept in [`Optimizer::optimize_exhaustive`] in four ways,
//! each of which provably — or, for (4), testably — preserves the result:
//!
//! 1. candidates come from a lazy iterator and infeasible probes use
//!    [`BoundSet::compute_quiet`], so the sweep allocates nothing;
//! 2. a serial-bound violation stops the sweep: the serial caps do not
//!    depend on `r`, so every larger candidate is infeasible too
//!    ([`crate::Infeasibility::is_monotone_in_r`]);
//! 3. for the speedup objective the energy breakdown is computed once for
//!    the winner instead of per candidate (selection depends only on
//!    speedup, and first-wins strict-`>` argmax over a superset with the
//!    same score order picks the same element);
//! 4. for the speedup objective the scan exploits the model's observed
//!    unimodality of speedup in `r` and stops after [`DESCENT_RUN`]
//!    consecutive strictly-descending feasible candidates — but only
//!    while the precondition holds: any infeasibility hole between
//!    feasible candidates or any rise-after-descent wiggle permanently
//!    disables early exit for that sweep, degrading it to the exhaustive
//!    scan. `tests/optimize_equiv.rs` proptests exact-bits agreement
//!    with [`Optimizer::optimize_exhaustive`] and pins the fallback.

use crate::bounds::BoundSet;
use crate::budget::Budgets;
use crate::chip::{ChipSpec, Evaluation};
use crate::energy::EnergyModel;
use crate::error::{ensure_positive, ModelError};
use crate::units::ParallelFraction;
use serde::Serialize;

/// What the optimizer maximizes or minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Objective {
    /// Maximize speedup (the paper's objective).
    MaxSpeedup,
    /// Minimize total energy per workload execution.
    MinEnergy,
    /// Minimize the energy-delay product.
    MinEnergyDelay,
}

/// The best design found by an [`Optimizer`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OptimalDesign {
    /// The evaluation of the winning design (speedup, limiter, `n`, `r`).
    pub evaluation: Evaluation,
    /// Total energy of the winning design at the reference node
    /// (BCE-energy units).
    pub energy: f64,
}

/// Sweeps sequential-core sizes and reports the best design.
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
    objective: Objective,
}

impl Optimizer {
    /// The paper's sweep: integer `r` from 1 to 16, maximizing speedup.
    pub fn paper_default() -> Self {
        Optimizer {
            r_min: 1.0,
            r_max: 16.0,
            r_step: 1.0,
            objective: Objective::MaxSpeedup,
        }
    }

    /// Creates a sweep over `[r_min, r_max]` with the given step.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < r_min ≤ r_max` and `r_step > 0`.
    pub fn new(r_min: f64, r_max: f64, r_step: f64) -> Result<Self, ModelError> {
        ensure_positive("r_min", r_min)?;
        ensure_positive("r_max", r_max)?;
        ensure_positive("r_step", r_step)?;
        if r_min > r_max {
            return Err(ModelError::Infeasible {
                reason: format!("empty r sweep: r_min = {r_min} > r_max = {r_max}"),
            });
        }
        Ok(Optimizer {
            r_min,
            r_max,
            r_step,
            objective: Objective::MaxSpeedup,
        })
    }

    /// Returns a copy with a different objective.
    pub fn with_objective(&self, objective: Objective) -> Self {
        Optimizer { objective, ..*self }
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

    /// The optimization objective.
    pub fn objective(&self) -> Objective {
        self.objective
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

    /// Finds the best design for `spec` under `budgets` at parallel
    /// fraction `f`.
    ///
    /// This is the tuned search (see the module docs for the four
    /// strategies); [`Self::optimize_exhaustive`] is the verbatim
    /// reference scan it must agree with bit for bit.
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
        match self.objective {
            Objective::MaxSpeedup => self.optimize_speedup(spec, budgets, f),
            Objective::MinEnergy | Objective::MinEnergyDelay => {
                self.optimize_energy_objectives(spec, budgets, f)
            }
        }
    }

    /// The speedup-objective fast path: allocation-free sweep, pruned
    /// enumeration with exhaustive fallback, and a single deferred energy
    /// breakdown for the winner.
    fn optimize_speedup(
        &self,
        spec: &ChipSpec,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Result<OptimalDesign, ModelError> {
        let mut scan = PrunedScan::new(true);
        let mut best: Option<Evaluation> = None;
        for r in self.candidate_values() {
            let evaluation = match evaluate_candidate(spec, budgets, f, r, &mut scan) {
                Ok(Some(evaluation)) => evaluation,
                Ok(None) => continue,
                Err(StopSweep) => break,
            };
            let better = match &best {
                None => true,
                Some(b) => evaluation.speedup > b.speedup,
            };
            let stop = scan.observe(evaluation.speedup.get());
            if better {
                best = Some(evaluation);
            }
            if stop {
                break;
            }
        }
        let Some(evaluation) = best else {
            return Err(self.infeasible(spec, budgets, f));
        };
        // Selection depended only on speedup; the energy number is
        // attached once, for the winner. Should the breakdown fail for
        // the winner alone (the exhaustive scan would then have skipped
        // it and picked another candidate), degrade to the reference
        // scan rather than reimplement its retry order here.
        let energy_model = EnergyModel::at_reference_node();
        match energy_model.breakdown(spec, f, evaluation.n, evaluation.r) {
            Ok(breakdown) => Ok(OptimalDesign { evaluation, energy: breakdown.total() }),
            Err(_) => self.optimize_exhaustive(spec, budgets, f),
        }
    }

    /// The energy-scored objectives need the breakdown per candidate, so
    /// they keep the per-candidate loop — allocation-free, with the
    /// provable serial-bound tail cut, but no descent pruning (energy is
    /// not unimodal in `r` in general).
    fn optimize_energy_objectives(
        &self,
        spec: &ChipSpec,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Result<OptimalDesign, ModelError> {
        let energy_model = EnergyModel::at_reference_node();
        let mut scan = PrunedScan::new(false);
        let mut best: Option<OptimalDesign> = None;
        for r in self.candidate_values() {
            let evaluation = match evaluate_candidate(spec, budgets, f, r, &mut scan) {
                Ok(Some(evaluation)) => evaluation,
                Ok(None) => continue,
                Err(StopSweep) => break,
            };
            let Ok(breakdown) = energy_model.breakdown(spec, f, evaluation.n, evaluation.r)
            else {
                continue;
            };
            let candidate = OptimalDesign {
                evaluation,
                energy: breakdown.total(),
            };
            let better = match &best {
                None => true,
                Some(b) => match self.objective {
                    Objective::MaxSpeedup => {
                        candidate.evaluation.speedup > b.evaluation.speedup
                    }
                    Objective::MinEnergy => candidate.energy < b.energy,
                    Objective::MinEnergyDelay => {
                        candidate.energy * candidate.evaluation.speedup.time()
                            < b.energy * b.evaluation.speedup.time()
                    }
                },
            };
            if better {
                best = Some(candidate);
            }
        }
        best.ok_or_else(|| self.infeasible(spec, budgets, f))
    }

    /// The pre-optimization sweep, verbatim: allocating candidate list,
    /// diagnostic-rendering bounds, energy breakdown for every feasible
    /// candidate, no early exit. Kept in-tree as the reference the tuned
    /// [`Self::optimize`] is differentially tested against
    /// (`tests/optimize_equiv.rs`), and as the fallback when the
    /// unimodality precondition fails in a way the pruned scan cannot
    /// repair locally.
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
        let energy_model = EnergyModel::at_reference_node();
        let mut best: Option<OptimalDesign> = None;
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
            let Ok(breakdown) = energy_model.breakdown(spec, f, n, r) else {
                continue;
            };
            let candidate = OptimalDesign {
                evaluation,
                energy: breakdown.total(),
            };
            let better = match &best {
                None => true,
                Some(b) => match self.objective {
                    Objective::MaxSpeedup => {
                        candidate.evaluation.speedup > b.evaluation.speedup
                    }
                    Objective::MinEnergy => candidate.energy < b.energy,
                    Objective::MinEnergyDelay => {
                        candidate.energy * candidate.evaluation.speedup.time()
                            < b.energy * b.evaluation.speedup.time()
                    }
                },
            };
            if better {
                best = Some(candidate);
            }
        }
        best.ok_or_else(|| self.infeasible(spec, budgets, f))
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

/// Probes one candidate `r`: bounds, `n` resolution, evaluation. Returns
/// `Ok(None)` for a skipped (infeasible) candidate after informing the
/// scan state, and `Err` only for the provably-monotone serial-bound
/// violation, which the callers translate into "stop sweeping" — the
/// error value itself is never surfaced.
#[inline]
fn evaluate_candidate(
    spec: &ChipSpec,
    budgets: &Budgets,
    f: ParallelFraction,
    r: f64,
    scan: &mut PrunedScan,
) -> Result<Option<Evaluation>, StopSweep> {
    let bounds = match BoundSet::compute_quiet(spec, budgets, r) {
        Ok(bounds) => bounds,
        Err(why) if why.is_monotone_in_r() => return Err(StopSweep),
        Err(_) => {
            scan.hole();
            return Ok(None);
        }
    };
    // Use every BCE the tightest bound permits, but never fewer than the
    // sequential core itself occupies.
    let n = bounds.n_max().max(r);
    // Designs with no parallel resources cannot run parallel work.
    if f.get() > 0.0 && spec.parallel_perf(n, r) <= 0.0 {
        scan.hole();
        return Ok(None);
    }
    let Ok(evaluation) = spec.evaluate(f, n, r, budgets) else {
        scan.hole();
        return Ok(None);
    };
    Ok(Some(evaluation))
}

/// Sentinel returned by [`evaluate_candidate`] when the remaining tail
/// of an increasing `r` sweep is provably infeasible.
struct StopSweep;

/// How many consecutive strictly-descending feasible candidates the
/// pruned scan requires before declaring the speedup peak passed.
pub const DESCENT_RUN: u32 = 3;

/// State machine of the pruned argmax scan over an increasing `r` sweep.
///
/// The precondition it polices is unimodality of the score sequence:
/// scores rise (or plateau), peak once, then descend. While the
/// precondition holds, observing [`DESCENT_RUN`] consecutive strict
/// descents proves (under the precondition) that the peak is behind, and
/// the sweep may stop. Two kinds of evidence *permanently* disable early
/// exit for the sweep, degrading it to exhaustive:
///
/// * a **hole** — an infeasible candidate after at least one feasible
///   one (the feasible set is not an interval, so the shape assumption
///   is void);
/// * a **wiggle** — a strict rise after at least one strict descent
///   (directly non-unimodal).
#[derive(Debug, Clone, Copy)]
pub struct PrunedScan {
    enabled: bool,
    violated: bool,
    descents: u32,
    prev: Option<f64>,
    seen_feasible: bool,
}

impl PrunedScan {
    /// A fresh scan; `enabled = false` records the same evidence but
    /// never requests an early exit (used by objectives that must stay
    /// exhaustive).
    pub fn new(enabled: bool) -> Self {
        PrunedScan {
            enabled,
            violated: false,
            descents: 0,
            prev: None,
            seen_feasible: false,
        }
    }

    /// Records an infeasible candidate.
    pub fn hole(&mut self) {
        if self.seen_feasible {
            self.violated = true;
        }
    }

    /// Records a feasible candidate's score; returns `true` when the
    /// sweep may stop early.
    pub fn observe(&mut self, score: f64) -> bool {
        if let Some(prev) = self.prev {
            if score < prev {
                self.descents += 1;
            } else if score > prev {
                if self.descents > 0 {
                    self.violated = true;
                }
                self.descents = 0;
            } else {
                // Plateau (or NaN): consistent with unimodality, but it
                // breaks the current descent run.
                self.descents = 0;
            }
        }
        self.seen_feasible = true;
        self.prev = Some(score);
        self.enabled && !self.violated && self.descents >= DESCENT_RUN
    }

    /// Whether the unimodality precondition has been violated (the scan
    /// has degraded to exhaustive).
    pub fn is_violated(&self) -> bool {
        self.violated
    }
}

/// A pruned first-wins strict-`>` argmax over `candidates`, driven by
/// the same [`PrunedScan`] state machine [`Optimizer::optimize`] uses.
///
/// `eval` returns `None` for an infeasible candidate, or the payload and
/// its score. The result is identical to an exhaustive first-wins argmax
/// whenever the score sequence satisfies the unimodality precondition;
/// when the precondition is violated before an early exit could trigger,
/// the scan self-disables and *is* the exhaustive argmax. This free
/// function exists so the equivalence tests can drive the exact
/// production state machine with crafted score sequences.
pub fn pruned_max_scan<T>(
    candidates: impl IntoIterator<Item = f64>,
    mut eval: impl FnMut(f64) -> Option<(T, f64)>,
) -> Option<T> {
    let mut scan = PrunedScan::new(true);
    let mut best: Option<(T, f64)> = None;
    for r in candidates {
        let Some((value, score)) = eval(r) else {
            scan.hole();
            continue;
        };
        let better = match &best {
            None => true,
            Some((_, b)) => score > *b,
        };
        let stop = scan.observe(score);
        if better {
            best = Some((value, score));
        }
        if stop {
            break;
        }
    }
    best.map(|(value, _)| value)
}

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
        assert_eq!(opt.objective(), Objective::MaxSpeedup);
        assert_eq!(opt.candidates().len(), 16);
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
    fn min_energy_objective_prefers_small_core() {
        let opt = Optimizer::paper_default().with_objective(Objective::MinEnergy);
        let budgets = Budgets::new(64.0, 100.0, 1000.0).unwrap();
        let best = opt
            .optimize(&ChipSpec::asymmetric_offload(), &budgets, f(0.5))
            .unwrap();
        // Serial energy grows with r, parallel energy is r-independent.
        assert_eq!(best.evaluation.r, 1.0);
    }

    #[test]
    fn min_energy_delay_balances_speed_and_energy() {
        let opt = Optimizer::paper_default().with_objective(Objective::MinEnergyDelay);
        let budgets = Budgets::new(64.0, 100.0, 1000.0).unwrap();
        let best = opt
            .optimize(&ChipSpec::asymmetric_offload(), &budgets, f(0.5))
            .unwrap();
        // EDP favors some sequential performance at f = 0.5: bigger than
        // the pure-energy optimum.
        assert!(best.evaluation.r >= 1.0);
        let energy_best = opt
            .with_objective(Objective::MinEnergy)
            .optimize(&ChipSpec::asymmetric_offload(), &budgets, f(0.5))
            .unwrap();
        assert!(best.evaluation.r >= energy_best.evaluation.r);
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
