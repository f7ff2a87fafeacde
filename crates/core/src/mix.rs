//! Mixed U-core chips (the paper's §6.3 "mixing and matching" prospect).
//!
//! The paper's projections give each heterogeneous chip a single U-core
//! type, but its discussion suggests fabricating *several* U-core fabrics
//! on one die — e.g. an MMM ASIC next to a GPU fabric for bandwidth-bound
//! FFTs — powering on whichever suits the running kernel. This module
//! models that: the parallel area `n − r` is partitioned among U-core
//! types, and the parallel work is split among kernels, each routed to its
//! fabric.

use crate::error::{ensure_positive, ModelError};
use crate::seq::{PollackLaw, SequentialLaw};
use crate::ucore::UCore;
use crate::units::{ParallelFraction, Speedup};
use serde::Serialize;

/// One fabric in a mixed chip: a U-core type, the share of the parallel
/// area it occupies, and the share of parallel work routed to it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UCorePartition {
    /// The U-core filling this region.
    pub ucore: UCore,
    /// Fraction of the parallel area `n − r` given to this fabric
    /// (all shares sum to 1).
    pub area_share: f64,
    /// Fraction of the parallel work executed on this fabric
    /// (all weights sum to 1).
    pub work_share: f64,
}

/// A chip whose parallel area is split among several U-core fabrics.
///
/// Only the fabric executing the current kernel is powered on, following
/// the paper's "powered on-demand for suitable tasks" scenario; the
/// others are dark silicon.
///
/// ```
/// use ucore_core::{MixedChip, ParallelFraction, UCore, UCorePartition};
/// let mmm_asic = UCore::new(27.4, 0.79)?;
/// let gpu = UCore::new(2.88, 0.63)?;
/// let chip = MixedChip::new(
///     19.0,
///     1.0,
///     vec![
///         UCorePartition { ucore: mmm_asic, area_share: 0.3, work_share: 0.5 },
///         UCorePartition { ucore: gpu, area_share: 0.7, work_share: 0.5 },
///     ],
/// )?;
/// let f = ParallelFraction::new(0.99)?;
/// assert!(chip.speedup(f)?.get() > 1.0);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MixedChip {
    n: f64,
    r: f64,
    partitions: Vec<UCorePartition>,
    law: PollackLaw,
}

impl MixedChip {
    /// Creates a mixed chip with total area `n`, sequential core `r`, and
    /// the given fabric partition.
    ///
    /// # Errors
    ///
    /// Returns an error if `n`/`r` are invalid, `r ≥ n`, the partition is
    /// empty, any share is non-positive, or the area/work shares do not
    /// each sum to 1 (within 1e-6).
    pub fn new(
        n: f64,
        r: f64,
        partitions: Vec<UCorePartition>,
    ) -> Result<Self, ModelError> {
        ensure_positive("n", n)?;
        ensure_positive("r", r)?;
        if r >= n {
            return Err(ModelError::SequentialExceedsTotal { r, n });
        }
        if partitions.is_empty() {
            return Err(ModelError::Infeasible {
                reason: "mixed chip needs at least one u-core partition".into(),
            });
        }
        let mut area_sum = 0.0;
        let mut work_sum = 0.0;
        for p in &partitions {
            ensure_positive("area share", p.area_share)?;
            ensure_positive("work share", p.work_share)?;
            area_sum += p.area_share;
            work_sum += p.work_share;
        }
        if (area_sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::InvalidPartition { share_sum: area_sum });
        }
        if (work_sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::InvalidPartition { share_sum: work_sum });
        }
        Ok(MixedChip {
            n,
            r,
            partitions,
            law: PollackLaw::default(),
        })
    }

    /// Total resources in BCE.
    pub fn n(&self) -> f64 {
        self.n
    }

    /// Sequential-core size in BCE.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// The fabric partition.
    pub fn partitions(&self) -> &[UCorePartition] {
        &self.partitions
    }

    /// Speedup over one BCE for a workload with parallel fraction `f`,
    /// where each fabric executes its `work_share` of the parallel time.
    ///
    /// `Speedup = 1 / ((1−f)/perf(r) + Σ_k f·w_k/(µ_k·a_k·(n−r)))`
    ///
    /// # Errors
    ///
    /// Currently infallible for a constructed chip, but returns `Result`
    /// for consistency with the rest of the API.
    pub fn speedup(&self, f: ParallelFraction) -> Result<Speedup, ModelError> {
        let serial_term = f.serial() / self.law.perf(self.r);
        let parallel_area = self.n - self.r;
        let parallel_term: f64 = if f.get() > 0.0 {
            self.partitions
                .iter()
                .map(|p| {
                    f.get() * p.work_share / (p.ucore.mu() * p.area_share * parallel_area)
                })
                .sum()
        } else {
            0.0
        };
        Speedup::new(1.0 / (serial_term + parallel_term))
    }

    /// Peak power across phases, in BCE units: the maximum of the serial
    /// core's power and each fabric's active power (only one fabric is on
    /// at a time).
    pub fn peak_power(&self, alpha: f64) -> f64 {
        let serial = self.law.perf(self.r).powf(alpha);
        let parallel_area = self.n - self.r;
        self.partitions
            .iter()
            .map(|p| p.ucore.phi() * p.area_share * parallel_area)
            .fold(serial, f64::max)
    }

    /// Splits the parallel area optimally among the fabrics for the given
    /// work shares: minimizing parallel time yields
    /// `a_k ∝ √(w_k / µ_k)` (Lagrange multiplier on `Σ a_k = 1`).
    ///
    /// Returns a copy of the chip with the optimal area shares.
    pub fn with_optimal_shares(&self) -> MixedChip {
        let weights: Vec<f64> = self
            .partitions
            .iter()
            .map(|p| (p.work_share / p.ucore.mu()).sqrt())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut chip = self.clone();
        for (p, w) in chip.partitions.iter_mut().zip(&weights) {
            p.area_share = w / total;
        }
        chip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    fn part(mu: f64, phi: f64, area: f64, work: f64) -> UCorePartition {
        UCorePartition {
            ucore: UCore::new(mu, phi).unwrap(),
            area_share: area,
            work_share: work,
        }
    }

    #[test]
    fn single_partition_matches_heterogeneous() {
        let u = UCore::new(5.0, 0.5).unwrap();
        let chip = MixedChip::new(19.0, 1.0, vec![part(5.0, 0.5, 1.0, 1.0)]).unwrap();
        let het = crate::speedup::heterogeneous(
            f(0.99),
            19.0,
            1.0,
            &u,
            &PollackLaw::default(),
        )
        .unwrap();
        let mixed = chip.speedup(f(0.99)).unwrap();
        assert!((mixed.get() - het.get()).abs() < 1e-12);
    }

    #[test]
    fn shares_must_sum_to_one() {
        let bad_area = MixedChip::new(
            19.0,
            1.0,
            vec![part(5.0, 0.5, 0.3, 0.5), part(2.0, 1.0, 0.3, 0.5)],
        );
        assert!(matches!(bad_area, Err(ModelError::InvalidPartition { .. })));
        let bad_work = MixedChip::new(
            19.0,
            1.0,
            vec![part(5.0, 0.5, 0.5, 0.2), part(2.0, 1.0, 0.5, 0.2)],
        );
        assert!(bad_work.is_err());
    }

    #[test]
    fn empty_partition_rejected() {
        assert!(MixedChip::new(19.0, 1.0, vec![]).is_err());
        assert!(MixedChip::new(1.0, 1.0, vec![part(1.0, 1.0, 1.0, 1.0)]).is_err());
    }

    #[test]
    fn optimal_shares_beat_naive_split() {
        // One fast fabric, one slow; equal work. Optimal split should give
        // the slow fabric more area and strictly beat the 50/50 split.
        let naive = MixedChip::new(
            100.0,
            1.0,
            vec![part(100.0, 1.0, 0.5, 0.5), part(1.0, 1.0, 0.5, 0.5)],
        )
        .unwrap();
        let tuned = naive.with_optimal_shares();
        assert!(tuned.partitions()[1].area_share > 0.5);
        assert!(
            tuned.speedup(f(0.999)).unwrap().get()
                > naive.speedup(f(0.999)).unwrap().get()
        );
    }

    #[test]
    fn optimal_shares_closed_form() {
        // a_k ∝ sqrt(w_k / mu_k).
        let chip = MixedChip::new(
            10.0,
            1.0,
            vec![part(4.0, 1.0, 0.5, 0.5), part(1.0, 1.0, 0.5, 0.5)],
        )
        .unwrap()
        .with_optimal_shares();
        // sqrt(0.5/4) : sqrt(0.5/1) = 1 : 2.
        let a0 = chip.partitions()[0].area_share;
        let a1 = chip.partitions()[1].area_share;
        assert!((a1 / a0 - 2.0).abs() < 1e-9);
        assert!((a0 + a1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_power_takes_maximum_phase() {
        let chip = MixedChip::new(
            17.0,
            16.0, // big sequential core: serial phase dominates power
            vec![part(5.0, 0.1, 1.0, 1.0)],
        )
        .unwrap();
        let serial_power = 16f64.powf(0.875);
        assert!((chip.peak_power(1.75) - serial_power).abs() < 1e-9);

        let chip2 = MixedChip::new(101.0, 1.0, vec![part(1.0, 1.0, 1.0, 1.0)]).unwrap();
        // Parallel phase: 100 BCE-equivalent power beats the 1-BCE core.
        assert!((chip2.peak_power(1.75) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn serial_workload_ignores_fabrics() {
        let chip = MixedChip::new(19.0, 4.0, vec![part(100.0, 5.0, 1.0, 1.0)]).unwrap();
        assert!((chip.speedup(f(0.0)).unwrap().get() - 2.0).abs() < 1e-12);
    }
}
