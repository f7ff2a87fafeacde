//! The speedup formulas: Amdahl's Law and its multicore extensions.
//!
//! All formulas report speedup relative to the performance of a single BCE
//! core, take the parallel fraction `f`, the total resources `n` (BCE of
//! area), and the resources dedicated to the sequential core `r`, and
//! assume parallel work is uniform, infinitely divisible and perfectly
//! scheduled.
//!
//! | Model | Parallel-phase performance | Serial-phase performance |
//! |---|---|---|
//! | symmetric | `(n/r)·perf(r)` | `perf(r)` |
//! | asymmetric | `perf(r) + (n−r)` | `perf(r)` |
//! | asymmetric-offload | `n − r` (big core powered off) | `perf(r)` |
//! | dynamic | `n` | `perf(r)` |
//! | heterogeneous | `µ·(n−r)` | `perf(r)` |

use crate::error::ModelError;
use crate::seq::{PollackLaw, SequentialLaw};
use crate::ucore::UCore;
use crate::units::{ParallelFraction, Speedup};

/// Validates the common `(n, r)` preconditions shared by all multicore
/// formulas: positive finite, and `r ≤ n`.
///
/// # Errors
///
/// [`ModelError::NotFinite`] or [`ModelError::NonPositive`] for a bad
/// `n` or `r`, and [`ModelError::SequentialExceedsTotal`] when `r > n`.
fn validate_n_r(n: f64, r: f64) -> Result<(), ModelError> {
    crate::error::ensure_positive("n", n)?;
    crate::error::ensure_positive("r", r)?;
    if r > n {
        return Err(ModelError::SequentialExceedsTotal { r, n });
    }
    Ok(())
}

/// Classic Amdahl's Law: fraction `f` of the work is sped up by factor `s`.
///
/// `Speedup = 1 / (f/s + (1 − f))`
///
/// ```
/// use ucore_core::{amdahl, ParallelFraction};
/// let f = ParallelFraction::new(0.5)?;
/// // Half the program infinitely accelerated: 2x total.
/// let s = amdahl(f, 1e18)?;
/// assert!((s.get() - 2.0).abs() < 1e-9);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
///
/// # Errors
///
/// Returns [`ModelError::NonPositive`] if `s` is not positive and finite.
pub fn amdahl(f: ParallelFraction, s: f64) -> Result<Speedup, ModelError> {
    crate::error::ensure_positive("s", s)?;
    Speedup::new(1.0 / (f.get() / s + f.serial()))
}

/// Hill-Marty symmetric multicore: `n/r` identical cores of size `r`.
///
/// `Speedup = 1 / ((1−f)/perf(r) + f·r/(n·perf(r)))`
///
/// # Errors
///
/// Returns an error if `n` or `r` is invalid or `r > n`.
pub fn symmetric(
    f: ParallelFraction,
    n: f64,
    r: f64,
    law: &PollackLaw,
) -> Result<Speedup, ModelError> {
    validate_n_r(n, r)?;
    let perf = law.perf(r);
    let denom = f.serial() / perf + f.get() * r / (n * perf);
    Speedup::new(1.0 / denom)
}

/// Hill-Marty asymmetric multicore: one big core of size `r` plus `n − r`
/// BCE cores; during parallel sections *all* cores contribute.
///
/// `Speedup = 1 / ((1−f)/perf(r) + f/(perf(r) + n − r))`
///
/// # Errors
///
/// Returns an error if `n` or `r` is invalid or `r > n`.
pub fn asymmetric(
    f: ParallelFraction,
    n: f64,
    r: f64,
    law: &PollackLaw,
) -> Result<Speedup, ModelError> {
    validate_n_r(n, r)?;
    let perf = law.perf(r);
    let denom = f.serial() / perf + f.get() / (perf + n - r);
    Speedup::new(1.0 / denom)
}

/// The paper's **asymmetric-offload** variant: the power-hungry sequential
/// core is powered off during parallel sections, so only the `n − r` BCE
/// cores contribute then.
///
/// `Speedup = 1 / ((1−f)/perf(r) + f/(n − r))`
///
/// This is the CMP baseline used in all the paper's projections ("AsymCMP").
///
/// # Errors
///
/// Returns an error if `n` or `r` is invalid, `r > n`, or `r = n` with
/// `f > 0` (no parallel resources at all would give zero parallel
/// performance).
pub fn asymmetric_offload(
    f: ParallelFraction,
    n: f64,
    r: f64,
    law: &PollackLaw,
) -> Result<Speedup, ModelError> {
    validate_n_r(n, r)?;
    let parallel_perf = n - r;
    if f.get() > 0.0 && parallel_perf <= 0.0 {
        return Err(ModelError::Infeasible {
            reason: format!("asymmetric-offload with r = n = {n} has no parallel resources"),
        });
    }
    let perf = law.perf(r);
    let denom = if f.get() > 0.0 {
        f.serial() / perf + f.get() / parallel_perf
    } else {
        f.serial() / perf
    };
    Speedup::new(1.0 / denom)
}

/// Hill-Marty dynamic multicore: all `n` resources act as one fast core in
/// serial sections (performance `perf(r)` with `r` the portion usable
/// sequentially) and as `n` BCE cores in parallel sections.
///
/// `Speedup = 1 / ((1−f)/perf(r) + f/n)`
///
/// The paper omits this machine from its plots because no measurable 2010
/// technology implements it, but includes the observation that power or
/// bandwidth budgets capture the same effect; it is provided here for
/// completeness and cross-checking.
///
/// # Errors
///
/// Returns an error if `n` or `r` is invalid or `r > n`.
pub fn dynamic(
    f: ParallelFraction,
    n: f64,
    r: f64,
    law: &PollackLaw,
) -> Result<Speedup, ModelError> {
    validate_n_r(n, r)?;
    let perf = law.perf(r);
    let denom = f.serial() / perf + f.get() / n;
    Speedup::new(1.0 / denom)
}

/// The paper's heterogeneous model: a sequential core of size `r` plus
/// `n − r` BCE of U-cores with relative performance `µ`.
///
/// `Speedup = 1 / ((1−f)/perf(r) + f/(µ·(n − r)))`
///
/// The conventional core does not contribute during parallel sections.
///
/// ```
/// use ucore_core::{heterogeneous, ParallelFraction, PollackLaw, UCore};
/// let f = ParallelFraction::new(0.99)?;
/// let asic = UCore::new(27.4, 0.79)?;
/// let law = PollackLaw::default();
/// let het = heterogeneous(f, 19.0, 4.0, &asic, &law)?;
/// // Much faster than the same chip with plain BCE cores.
/// let cmp = ucore_core::asymmetric_offload(f, 19.0, 4.0, &law)?;
/// assert!(het.get() > cmp.get());
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
///
/// # Errors
///
/// Returns an error if `n` or `r` is invalid, `r > n`, or `r = n` with
/// `f > 0`.
pub fn heterogeneous(
    f: ParallelFraction,
    n: f64,
    r: f64,
    ucore: &UCore,
    law: &PollackLaw,
) -> Result<Speedup, ModelError> {
    validate_n_r(n, r)?;
    let parallel_perf = ucore.mu() * (n - r);
    if f.get() > 0.0 && parallel_perf <= 0.0 {
        return Err(ModelError::Infeasible {
            reason: format!("heterogeneous with r = n = {n} has no u-core area"),
        });
    }
    let perf = law.perf(r);
    let denom = if f.get() > 0.0 {
        f.serial() / perf + f.get() / parallel_perf
    } else {
        f.serial() / perf
    };
    Speedup::new(1.0 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    fn law() -> PollackLaw {
        PollackLaw::default()
    }

    #[test]
    fn amdahl_limits() {
        // No parallelism: no speedup regardless of s.
        assert!((amdahl(f(0.0), 100.0).unwrap().get() - 1.0).abs() < 1e-12);
        // Perfect parallelism: speedup = s.
        assert!((amdahl(f(1.0), 100.0).unwrap().get() - 100.0).abs() < 1e-9);
        // f = 0.9, s -> inf: limit 10.
        assert!((amdahl(f(0.9), 1e15).unwrap().get() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn amdahl_rejects_bad_s() {
        assert!(amdahl(f(0.5), 0.0).is_err());
        assert!(amdahl(f(0.5), -2.0).is_err());
    }

    #[test]
    fn symmetric_single_bce_is_unit() {
        let s = symmetric(f(0.5), 1.0, 1.0, &law()).unwrap();
        assert!((s.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hill_marty_symmetric_published_point() {
        // Hill & Marty's worked example: n = 256, r = 1, f = 0.999
        // gives speedup = 1/((0.001)/1 + 0.999/256) ≈ 204.
        let s = symmetric(f(0.999), 256.0, 1.0, &law()).unwrap();
        assert!((s.get() - 204.0).abs() < 1.0, "got {}", s.get());
    }

    #[test]
    fn hill_marty_asymmetric_beats_symmetric_at_moderate_f() {
        // One of Hill & Marty's key results: asymmetric tops symmetric.
        let n = 256.0;
        for &fv in &[0.5, 0.9, 0.975] {
            let best_sym = (1..=256)
                .map(|r| symmetric(f(fv), n, r as f64, &law()).unwrap().get())
                .fold(f64::MIN, f64::max);
            let best_asym = (1..=256)
                .map(|r| asymmetric(f(fv), n, r as f64, &law()).unwrap().get())
                .fold(f64::MIN, f64::max);
            assert!(
                best_asym >= best_sym,
                "f = {fv}: asym {best_asym} < sym {best_sym}"
            );
        }
    }

    #[test]
    fn dynamic_dominates_asymmetric() {
        let n = 64.0;
        for &fv in &[0.5, 0.9, 0.99] {
            for r in 1..=16 {
                let d = dynamic(f(fv), n, r as f64, &law()).unwrap().get();
                let a = asymmetric(f(fv), n, r as f64, &law()).unwrap().get();
                assert!(d + 1e-9 >= a, "f = {fv}, r = {r}: dynamic {d} < asym {a}");
            }
        }
    }

    #[test]
    fn offload_below_asymmetric_for_same_design() {
        // Powering off the big core during parallel sections loses its
        // contribution, so offload <= asymmetric pointwise.
        let n = 32.0;
        for r in 1..=16 {
            let a = asymmetric(f(0.9), n, r as f64, &law()).unwrap().get();
            let o = asymmetric_offload(f(0.9), n, r as f64, &law()).unwrap().get();
            assert!(o <= a + 1e-12);
        }
    }

    #[test]
    fn heterogeneous_with_unit_ucore_equals_offload() {
        let u = UCore::bce_equivalent();
        for &fv in &[0.0, 0.5, 0.9, 0.999] {
            for r in 1..8 {
                let h = heterogeneous(f(fv), 16.0, r as f64, &u, &law())
                    .unwrap()
                    .get();
                let o = asymmetric_offload(f(fv), 16.0, r as f64, &law())
                    .unwrap()
                    .get();
                assert!((h - o).abs() < 1e-12, "f = {fv}, r = {r}");
            }
        }
    }

    #[test]
    fn heterogeneous_parallel_perf_scales_with_mu() {
        // At f = 1 the speedup is exactly µ(n − r).
        let u = UCore::new(10.0, 1.0).unwrap();
        let s = heterogeneous(f(1.0), 21.0, 1.0, &u, &law()).unwrap();
        assert!((s.get() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn serial_only_workload_depends_only_on_r() {
        let u = UCore::new(100.0, 0.1).unwrap();
        let s = heterogeneous(f(0.0), 64.0, 4.0, &u, &law()).unwrap();
        assert!((s.get() - 2.0).abs() < 1e-12); // sqrt(4)
    }

    #[test]
    fn r_equal_n_rejected_when_parallel_work_exists() {
        assert!(asymmetric_offload(f(0.5), 4.0, 4.0, &law()).is_err());
        let u = UCore::bce_equivalent();
        assert!(heterogeneous(f(0.5), 4.0, 4.0, &u, &law()).is_err());
        // ... but fine for a fully serial workload.
        assert!(asymmetric_offload(f(0.0), 4.0, 4.0, &law()).is_ok());
    }

    #[test]
    fn r_greater_than_n_rejected() {
        let u = UCore::bce_equivalent();
        assert!(symmetric(f(0.5), 4.0, 8.0, &law()).is_err());
        assert!(asymmetric(f(0.5), 4.0, 8.0, &law()).is_err());
        assert!(dynamic(f(0.5), 4.0, 8.0, &law()).is_err());
        assert!(heterogeneous(f(0.5), 4.0, 8.0, &u, &law()).is_err());
    }

    #[test]
    fn more_parallelism_never_hurts() {
        let u = UCore::new(3.41, 0.74).unwrap();
        let mut prev = 0.0;
        for &fv in &[0.0, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let s = heterogeneous(f(fv), 19.0, 2.0, &u, &law()).unwrap().get();
            assert!(s >= prev, "speedup should rise with f");
            prev = s;
        }
    }
}
