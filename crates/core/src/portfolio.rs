//! Accelerator portfolios: one area budget shared by kernel-specific
//! U-cores, allocated by a closed-form KKT rule and cross-checked by an
//! exhaustive grid oracle.
//!
//! A [`PortfolioChip`] is a sequential core of size `r` plus `n − r` BCE
//! of accelerator area serving a [`SegmentedWorkload`]. Execution is
//! time-multiplexed — segments run one at a time, each on its own
//! accelerator — so total execution time relative to one BCE is
//!
//! `T(a) = w_serial / perf(r) + Σ_k w_k / (µ_k · a_k)`
//!
//! minimized over the areas `a_k` subject to `Σ a_k ≤ n − r` and the
//! optional per-segment caps `a_k ≤ c_k`. The objective is separable
//! and convex in each `a_k`, so the KKT conditions give the interior
//! solution in closed form — `a_k ∝ √(w_k / µ_k)` — and a cap that
//! binds stays bound as the remaining area shrinks, which makes the
//! clamp-and-redistribute loop in [`PortfolioChip::allocate`] exact
//! (it is the waterfilling active-set method, not a heuristic; DESIGN.md
//! §19 carries the derivation).
//!
//! Mirroring the `optimize`/`optimize_exhaustive` pattern, the analytic
//! allocator is paired with [`PortfolioChip::allocate_exhaustive`]: an
//! enumerative oracle over all integer compositions of a grid. The
//! tolerance policy (also §19): the analytic objective is optimal over
//! a superset of the grid, so `allocate()` can never score below the
//! oracle; and the grid optimum is within factor `(k + 1)/G` of the
//! analytic one, so the two are asserted to agree within that band by
//! `tests/portfolio_equiv.rs`. When the KKT point lies exactly on the
//! grid, the oracle returns its bit pattern.

use crate::error::ModelError;
use crate::segments::SegmentedWorkload;
use crate::seq::{PollackLaw, SequentialLaw};
use crate::units::Speedup;
use serde::Serialize;

/// A base multicore plus a portfolio of kernel-specific U-cores sharing
/// the parallel area `n − r`.
///
/// ```
/// use ucore_core::{PortfolioChip, Segment, SegmentedWorkload, UCore};
/// let mmm = Segment::new(0.45, UCore::new(27.4, 0.79)?)?;
/// let fft = Segment::new(0.45, UCore::new(489.0, 4.96)?)?;
/// let w = SegmentedWorkload::new(0.1, vec![mmm, fft])?;
/// let chip = PortfolioChip::new(40.0, 4.0, w)?;
/// let alloc = chip.allocate()?;
/// assert!((alloc.areas.iter().sum::<f64>() - 36.0).abs() < 1e-9);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PortfolioChip {
    n: f64,
    r: f64,
    workload: SegmentedWorkload,
    law: PollackLaw,
}

/// The result of an area allocation: per-segment areas (construction
/// order, zero for zero-weight segments) and the resulting speedup.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Allocation {
    /// Accelerator area per segment, in BCE.
    pub areas: Vec<f64>,
    /// The chip's speedup under these areas.
    pub speedup: Speedup,
}

impl PortfolioChip {
    /// A portfolio chip with `n` BCE total, `r` of them sequential, and
    /// the default Pollack sequential law.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` or `r` is not positive and finite, or
    /// [`ModelError::SequentialExceedsTotal`] when `r > n`.
    pub fn new(n: f64, r: f64, workload: SegmentedWorkload) -> Result<Self, ModelError> {
        crate::error::ensure_positive("n", n)?;
        crate::error::ensure_positive("r", r)?;
        if r > n {
            return Err(ModelError::SequentialExceedsTotal { r, n });
        }
        Ok(PortfolioChip { n, r, workload, law: PollackLaw::default() })
    }

    /// A copy with a custom sequential performance law.
    pub fn with_law(mut self, law: PollackLaw) -> Self {
        self.law = law;
        self
    }

    /// The accelerator area budget `n − r`.
    pub fn parallel_area(&self) -> f64 {
        self.n - self.r
    }

    /// The workload this chip serves.
    pub fn workload(&self) -> &SegmentedWorkload {
        &self.workload
    }

    /// The speedup under explicit per-segment areas (the objective both
    /// allocators optimize). Zero-weight segments ignore their area;
    /// positive-weight segments with no area make the chip infeasible.
    ///
    /// The one-segment case evaluates `w_serial/perf(r) + w/(µ·a)` with
    /// the exact operation order of [`crate::heterogeneous`], so handing
    /// it the full parallel area reproduces that function bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] when a positive-weight segment
    /// has `a_k ≤ 0`, and [`ModelError::InvalidPartition`] when `areas`
    /// has the wrong length.
    pub fn speedup_for(&self, areas: &[f64]) -> Result<Speedup, ModelError> {
        let segments = self.workload.segments();
        if areas.len() != segments.len() {
            return Err(ModelError::InvalidPartition { share_sum: areas.len() as f64 });
        }
        let mut denom = self.workload.serial_weight() / self.law.perf(self.r);
        for (segment, &area) in segments.iter().zip(areas) {
            if segment.weight() > 0.0 {
                let parallel_perf = segment.ucore().mu() * area;
                if parallel_perf <= 0.0 {
                    return Err(ModelError::Infeasible {
                        reason: format!(
                            "portfolio segment with weight {} has no accelerator area",
                            segment.weight()
                        ),
                    });
                }
                denom += segment.weight() / parallel_perf;
            }
        }
        Speedup::new(1.0 / denom)
    }

    /// The closed-form KKT allocation: area proportional to
    /// `√(w_k / µ_k)` over the segments whose cap is not binding, with
    /// binding caps clamped and the freed area redistributed until the
    /// active set is stable (at most `k` rounds).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] when the workload has
    /// accelerated weight but `r = n` leaves no accelerator area.
    pub fn allocate(&self) -> Result<Allocation, ModelError> {
        let segments = self.workload.segments();
        let mut areas = vec![0.0; segments.len()];
        let accelerated: Vec<usize> = (0..segments.len())
            .filter(|&k| segments[k].weight() > 0.0)
            .collect();
        if accelerated.is_empty() {
            let speedup = self.speedup_for(&areas)?;
            return Ok(Allocation { areas, speedup });
        }
        let budget = self.parallel_area();
        if budget <= 0.0 {
            return Err(ModelError::Infeasible {
                reason: format!("portfolio with r = n = {} has no u-core area", self.n),
            });
        }

        // Waterfilling active-set loop: start with every accelerated
        // segment free, clamp the segments whose interior share exceeds
        // their cap, and re-split the remaining area over the rest. A
        // clamped cap can only become *more* binding as the remaining
        // area shrinks, so each round only moves segments out of the
        // free set and the loop terminates in at most k rounds.
        let mut free = accelerated;
        let mut remaining = budget;
        loop {
            let z: f64 = free
                .iter()
                .map(|&k| (segments[k].weight() / segments[k].ucore().mu()).sqrt())
                .sum();
            let mut clamped = Vec::new();
            for &k in &free {
                let share = (segments[k].weight() / segments[k].ucore().mu()).sqrt() / z;
                let interior = remaining * share;
                areas[k] = match segments[k].max_area() {
                    Some(cap) if interior > cap => {
                        clamped.push(k);
                        cap
                    }
                    _ => interior,
                };
            }
            if clamped.is_empty() {
                break;
            }
            remaining -= clamped.iter().map(|&k| areas[k]).sum::<f64>();
            free.retain(|k| !clamped.contains(k));
            if free.is_empty() || remaining <= 0.0 {
                break;
            }
        }
        let speedup = self.speedup_for(&areas)?;
        Ok(Allocation { areas, speedup })
    }

    /// The exhaustive reference: enumerate every composition of `grid`
    /// equal area units among the positive-weight segments (each getting
    /// at least one unit, caps respected) and keep the first-wins
    /// strict-`>` argmax — the same tie policy as
    /// [`crate::Optimizer::optimize_exhaustive`].
    ///
    /// This is deliberately verbatim: no pruning, no reuse of the
    /// analytic solution. Kept public as the reference implementation
    /// the differential suite compares [`Self::allocate`] against.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositive`] for a zero grid and
    /// [`ModelError::Infeasible`] when no composition is feasible (no
    /// accelerator area, or caps too tight for the grid).
    pub fn allocate_exhaustive(&self, grid: u32) -> Result<Allocation, ModelError> {
        if grid == 0 {
            return Err(ModelError::NonPositive { what: "allocation grid", value: 0.0 });
        }
        let segments = self.workload.segments();
        let accelerated: Vec<usize> = (0..segments.len())
            .filter(|&k| segments[k].weight() > 0.0)
            .collect();
        let mut areas = vec![0.0; segments.len()];
        if accelerated.is_empty() {
            let speedup = self.speedup_for(&areas)?;
            return Ok(Allocation { areas, speedup });
        }
        let budget = self.parallel_area();
        if budget <= 0.0 {
            return Err(ModelError::Infeasible {
                reason: format!("portfolio with r = n = {} has no u-core area", self.n),
            });
        }
        let mut best: Option<Allocation> = None;
        let mut units = vec![0u32; accelerated.len()];
        self.scan_compositions(grid, grid, 0, &accelerated, &mut units, &mut areas, &mut best);
        best.ok_or_else(|| ModelError::Infeasible {
            reason: format!(
                "no feasible {grid}-unit composition of {budget} BCE across {} segments",
                accelerated.len()
            ),
        })
    }

    /// Recursive enumeration of the compositions behind
    /// [`Self::allocate_exhaustive`]: segment `depth` takes `1..=left`
    /// units (the last segment takes the rest), reserving one unit for
    /// every deeper segment. Full compositions translate to areas
    /// `budget · units_k / grid`, drop out if any cap is violated, and
    /// compete under the first-wins strict-`>` argmax.
    #[expect(
        clippy::too_many_arguments,
        reason = "the recursion threads its cursor and scratch buffers by argument"
    )]
    fn scan_compositions(
        &self,
        grid: u32,
        left: u32,
        depth: usize,
        accelerated: &[usize],
        units: &mut [u32],
        areas: &mut [f64],
        best: &mut Option<Allocation>,
    ) {
        let segments = self.workload.segments();
        let budget = self.parallel_area();
        if depth + 1 == accelerated.len() {
            units[depth] = left;
            for (&idx, &u) in accelerated.iter().zip(units.iter()) {
                areas[idx] = budget * (f64::from(u) / f64::from(grid));
            }
            if accelerated
                .iter()
                .any(|&idx| matches!(segments[idx].max_area(), Some(cap) if areas[idx] > cap))
            {
                return;
            }
            if let Ok(speedup) = self.speedup_for(areas) {
                let better = match best {
                    Some(b) => speedup.get() > b.speedup.get(),
                    None => true,
                };
                if better {
                    *best = Some(Allocation { areas: areas.to_vec(), speedup });
                }
            }
            return;
        }
        // Leave at least one unit for each remaining segment.
        let reserve = (accelerated.len() - depth - 1) as u32;
        for take in 1..=left.saturating_sub(reserve) {
            units[depth] = take;
            self.scan_compositions(grid, left - take, depth + 1, accelerated, units, areas, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::Segment;
    use crate::ucore::UCore;

    fn seg(w: f64, mu: f64, phi: f64) -> Segment {
        Segment::new(w, UCore::new(mu, phi).unwrap()).unwrap()
    }

    fn chip(n: f64, r: f64, segments: Vec<Segment>) -> PortfolioChip {
        let parallel: f64 = segments.iter().map(Segment::weight).sum();
        let workload = SegmentedWorkload::new(1.0 - parallel, segments).unwrap();
        PortfolioChip::new(n, r, workload).unwrap()
    }

    #[test]
    fn interior_allocation_follows_the_sqrt_rule() {
        // w/mu = 0.5/4 and 0.5/1: shares 1:2 (the mix.rs closed form).
        let c = chip(13.0, 1.0, vec![seg(0.5, 4.0, 1.0), seg(0.5, 1.0, 1.0)]);
        let alloc = c.allocate().unwrap();
        assert!((alloc.areas[0] - 4.0).abs() < 1e-12, "{:?}", alloc.areas);
        assert!((alloc.areas[1] - 8.0).abs() < 1e-12, "{:?}", alloc.areas);
    }

    #[test]
    fn binding_cap_is_clamped_and_area_redistributed() {
        let capped = seg(0.5, 4.0, 1.0).with_max_area(2.0).unwrap();
        let c = chip(13.0, 1.0, vec![capped, seg(0.5, 1.0, 1.0)]);
        let alloc = c.allocate().unwrap();
        assert_eq!(alloc.areas[0], 2.0);
        assert!((alloc.areas[1] - 10.0).abs() < 1e-12);
        // The clamped solution can't beat the unclamped one.
        let free = chip(13.0, 1.0, vec![seg(0.5, 4.0, 1.0), seg(0.5, 1.0, 1.0)]);
        assert!(alloc.speedup.get() <= free.allocate().unwrap().speedup.get());
    }

    #[test]
    fn zero_weight_segments_get_no_area() {
        let c = chip(13.0, 1.0, vec![seg(0.0, 4.0, 1.0), seg(0.9, 1.0, 1.0)]);
        let alloc = c.allocate().unwrap();
        assert_eq!(alloc.areas[0], 0.0);
        assert!((alloc.areas[1] - 12.0).abs() < 1e-12);
        let oracle = c.allocate_exhaustive(16).unwrap();
        assert_eq!(oracle.areas[0], 0.0);
        assert_eq!(oracle.areas[1], 12.0);
    }

    #[test]
    fn no_parallel_area_is_infeasible() {
        let c = chip(4.0, 4.0, vec![seg(0.9, 4.0, 1.0)]);
        assert!(matches!(c.allocate(), Err(ModelError::Infeasible { .. })));
        assert!(matches!(c.allocate_exhaustive(8), Err(ModelError::Infeasible { .. })));
    }

    #[test]
    fn all_serial_workload_runs_on_the_sequential_core() {
        let c = chip(4.0, 4.0, vec![seg(0.0, 4.0, 1.0)]);
        let alloc = c.allocate().unwrap();
        assert_eq!(alloc.areas, vec![0.0]);
        assert!((alloc.speedup.get() - 2.0).abs() < 1e-12); // perf(4) = 2
    }

    #[test]
    fn exhaustive_rejects_zero_grid_and_impossible_grids() {
        let c = chip(13.0, 1.0, vec![seg(0.5, 4.0, 1.0), seg(0.5, 1.0, 1.0)]);
        assert!(matches!(
            c.allocate_exhaustive(0),
            Err(ModelError::NonPositive { .. })
        ));
        // Fewer units than positive-weight segments: nothing to enumerate.
        assert!(matches!(
            c.allocate_exhaustive(1),
            Err(ModelError::Infeasible { .. })
        ));
    }

    #[test]
    fn speedup_for_checks_length_and_starved_segments() {
        let c = chip(13.0, 1.0, vec![seg(0.5, 4.0, 1.0), seg(0.5, 1.0, 1.0)]);
        assert!(c.speedup_for(&[1.0]).is_err());
        assert!(matches!(
            c.speedup_for(&[12.0, 0.0]),
            Err(ModelError::Infeasible { .. })
        ));
    }

    #[test]
    fn constructor_validates_geometry() {
        let w = SegmentedWorkload::new(0.5, vec![seg(0.5, 4.0, 1.0)]).unwrap();
        assert!(PortfolioChip::new(f64::NAN, 1.0, w.clone()).is_err());
        assert!(PortfolioChip::new(4.0, -1.0, w.clone()).is_err());
        assert!(matches!(
            PortfolioChip::new(4.0, 8.0, w),
            Err(ModelError::SequentialExceedsTotal { .. })
        ));
    }
}
