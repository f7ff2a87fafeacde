//! Validation against Hill and Marty's original results.
//!
//! Chung et al. build on *"Amdahl's Law in the Multicore Era"* (IEEE
//! Computer, 2008); before trusting the extensions, this module
//! reproduces the base paper's published observations, which double as
//! regression anchors for the speedup formulas:
//!
//! 1. symmetric chips want bigger cores as `f` falls;
//! 2. asymmetric chips dominate symmetric ones;
//! 3. dynamic chips dominate both;
//! 4. the worked numbers of their Figure 2 (e.g. `n = 256, f = 0.975`:
//!    best symmetric speedup ≈ 51.2 at `r = 7.1`, best asymmetric
//!    ≈ 125 at `r ≈ 41`, best dynamic ≈ 186 with `r = 256`).

use crate::error::ModelError;
use crate::seq::PollackLaw;
use crate::speedup::{asymmetric, dynamic, symmetric};
use crate::units::ParallelFraction;
use serde::Serialize;

/// The best `(r, speedup)` of one Hill-Marty machine at a chip size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HillMartyOptimum {
    /// The optimal sequential-core size.
    pub r: f64,
    /// The achieved speedup.
    pub speedup: f64,
}

/// One of Hill and Marty's three machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum HillMartyMachine {
    /// `n/r` cores of size `r`.
    Symmetric,
    /// One `r`-core plus `n − r` BCEs, all active in parallel phases.
    Asymmetric,
    /// All `n` BCEs morph between one big core and `n` small ones.
    Dynamic,
}

/// Optimizes `r` for a Hill-Marty machine with *no* power or bandwidth
/// constraints — the original pure-area model — over a fine grid.
///
/// # Errors
///
/// Returns an error only for invalid `f`/`n` combinations (never for
/// `n ≥ 1`).
pub fn optimize(
    machine: HillMartyMachine,
    f: ParallelFraction,
    n: f64,
) -> Result<HillMartyOptimum, ModelError> {
    crate::error::ensure_positive("n", n)?;
    let law = PollackLaw::default();
    let mut best = HillMartyOptimum { r: 1.0, speedup: 0.0 };
    let steps = 4000usize;
    for i in 0..=steps {
        let r = 1.0 + (n - 1.0) * i as f64 / steps as f64;
        let s = match machine {
            HillMartyMachine::Symmetric => symmetric(f, n, r, &law),
            HillMartyMachine::Asymmetric => asymmetric(f, n, r, &law),
            HillMartyMachine::Dynamic => dynamic(f, n, r, &law),
        };
        if let Ok(s) = s {
            if s.get() > best.speedup {
                best = HillMartyOptimum { r, speedup: s.get() };
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    /// Hill & Marty, figure 2 discussion: "for n = 256 and f = 0.975,
    /// the best speedup [symmetric] is 51.2 using 36 cores of 7.1 BCEs
    /// each."
    #[test]
    fn published_symmetric_point() {
        let best = optimize(HillMartyMachine::Symmetric, f(0.975), 256.0).unwrap();
        assert!((best.speedup - 51.2).abs() < 0.5, "speedup {}", best.speedup);
        // Their 7.1-BCE figure assumes an integer number of cores; the
        // continuous optimum sits just below, on a very flat objective.
        assert!((6.0..8.0).contains(&best.r), "r {}", best.r);
    }

    /// "for f = 0.975 and n = 256, the best asymmetric speedup is
    /// 125.0."
    #[test]
    fn published_asymmetric_point() {
        let best = optimize(HillMartyMachine::Asymmetric, f(0.975), 256.0).unwrap();
        assert!((best.speedup - 125.0).abs() < 1.5, "speedup {}", best.speedup);
        // The optimum sits at a fat sequential core (~66 BCEs), far from
        // either extreme.
        assert!((40.0..100.0).contains(&best.r), "r {}", best.r);
    }

    /// "for f = 0.975 and n = 256, dynamic multicore chips can reach a
    /// speedup of 186.5."
    #[test]
    fn published_dynamic_point() {
        let best = optimize(HillMartyMachine::Dynamic, f(0.975), 256.0).unwrap();
        assert!((best.speedup - 186.5).abs() < 2.0, "speedup {}", best.speedup);
        // Dynamic serial phase wants all resources.
        assert!(best.r > 250.0);
    }

    /// "speedup_symmetric ... for f = 0.5 is maximized with one core of
    /// 256 BCEs" — low parallelism wants the biggest core.
    #[test]
    fn symmetric_low_f_wants_one_big_core() {
        let best = optimize(HillMartyMachine::Symmetric, f(0.5), 256.0).unwrap();
        assert!(best.r > 200.0, "r = {}", best.r);
    }

    /// f = 0.999 wants many small cores.
    #[test]
    fn symmetric_high_f_wants_small_cores() {
        let best = optimize(HillMartyMachine::Symmetric, f(0.999), 256.0).unwrap();
        assert!(best.r < 4.0, "r = {}", best.r);
    }

    /// The dominance chain the original paper establishes.
    #[test]
    fn dynamic_beats_asymmetric_beats_symmetric() {
        for &fv in &[0.5, 0.9, 0.975, 0.99, 0.999] {
            for &n in &[16.0, 64.0, 256.0, 1024.0] {
                let sym = optimize(HillMartyMachine::Symmetric, f(fv), n).unwrap();
                let asym = optimize(HillMartyMachine::Asymmetric, f(fv), n).unwrap();
                let dyn_ = optimize(HillMartyMachine::Dynamic, f(fv), n).unwrap();
                assert!(asym.speedup + 1e-6 >= sym.speedup, "f={fv} n={n}");
                assert!(dyn_.speedup + 1e-6 >= asym.speedup, "f={fv} n={n}");
            }
        }
    }

    /// Hill & Marty's "costly" corollary: doubling chip resources less
    /// than doubles symmetric speedup at imperfect f.
    #[test]
    fn symmetric_scaling_is_sublinear() {
        let s256 = optimize(HillMartyMachine::Symmetric, f(0.99), 256.0)
            .unwrap()
            .speedup;
        let s512 = optimize(HillMartyMachine::Symmetric, f(0.99), 512.0)
            .unwrap()
            .speedup;
        assert!(s512 < 2.0 * s256);
        assert!(s512 > s256);
    }

    #[test]
    fn rejects_bad_n() {
        assert!(optimize(HillMartyMachine::Symmetric, f(0.5), 0.0).is_err());
        assert!(optimize(HillMartyMachine::Symmetric, f(0.5), f64::NAN).is_err());
    }
}
