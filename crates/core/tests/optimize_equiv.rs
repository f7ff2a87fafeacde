//! Differential tests: the tuned [`Optimizer::optimize`] must agree
//! *bit for bit* with the reference scan
//! [`Optimizer::optimize_exhaustive`].
//!
//! The tolerance policy for the optimizer is **exact**: the tuned sweep
//! may skip only work it can prove irrelevant — the tail after a
//! monotone serial-bound violation, and, where DESIGN.md §15 proves
//! speedup quasi-concave in `r`, the tail after the first strict
//! descent. That proof is over the reals; these tests guard the
//! floating-point code, so agreement is checked with `assert_eq!` on the
//! serialized result — identical f64 bits or bust — never with an
//! epsilon.

use proptest::prelude::*;
use std::ops::Range;
use ucore_core::{
    Budgets, ChipSpec, ModelError, OptimalDesign, Optimizer, ParallelFraction, PollackLaw,
    SerialPowerLaw, UCore,
};

/// Renders both sides of an optimize call for exact-bits comparison:
/// serde emits the shortest decimal that round-trips the f64, so equal
/// strings mean equal bit patterns field by field.
fn render(result: &Result<OptimalDesign, ModelError>) -> String {
    match result {
        Ok(design) => serde_json::to_string(design).unwrap(),
        Err(e) => format!("error: {e}"),
    }
}

fn assert_equivalent(
    opt: &Optimizer,
    spec: &ChipSpec,
    budgets: &Budgets,
    f: ParallelFraction,
) {
    let tuned = opt.optimize(spec, budgets, f);
    let reference = opt.optimize_exhaustive(spec, budgets, f);
    assert_eq!(
        render(&tuned),
        render(&reference),
        "optimize != optimize_exhaustive for {} under {budgets} at {f}",
        spec.kind()
    );
}

fn all_specs(mu: f64, phi: f64) -> Vec<ChipSpec> {
    vec![
        ChipSpec::symmetric(),
        ChipSpec::asymmetric(),
        ChipSpec::asymmetric_offload(),
        ChipSpec::dynamic(),
        ChipSpec::heterogeneous(UCore::new(mu, phi).unwrap()),
    ]
}

/// A value that is `edge` exactly in one case of four, within about
/// 1e-12 of it (on the side `toward` points to) in another, and uniform
/// over `range` otherwise. Near-edge draws are where the model's curve
/// flattens and rounding jitter is largest.
fn near(edge: f64, toward: f64, range: Range<f64>) -> impl Strategy<Value = f64> {
    (range, 0..4u32).prop_map(move |(x, pick)| match pick {
        0 => edge,
        1 => edge + toward * x * 1e-12,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The load-bearing property: over random budgets, U-cores, parallel
    /// fractions, law exponents (Pollack `k`, serial power `α`,
    /// bandwidth `e`) and sweep grids, the tuned search returns the exact
    /// bits of the reference scan — including which error it returns
    /// when nothing is feasible. `k > 1`, `α < 1` and the grids starting
    /// below `r = 1` lie outside the proven range, where the descent exit
    /// must not be taken; `f`, `k` and `α` hugging 1 flatten the curve
    /// until rounding jitter could fake a descent.
    #[test]
    fn tuned_matches_exhaustive_exactly(
        a in 1.0..500.0f64,
        p in 0.5..120.0f64,
        b in 0.5..1200.0f64,
        mu in 0.1..60.0f64,
        phi in 0.05..6.0f64,
        f in near(1.0, -1.0, 0.0..1.0),
        k in near(1.0, -1.0, 0.25..1.5),
        alpha in near(1.0, 1.0, 0.5..3.0),
        e in 0.5..1.5f64,
        grid in prop::sample::select(vec![
            (1.0, 16.0, 1.0),
            (0.5, 24.0, 0.25),
            (0.05, 16.0, 0.05),
            (1.0, 64.0, 1.5),
            (2.0, 2.0, 1.0),
        ]),
    ) {
        let budgets = Budgets::new(a, p, b).unwrap();
        let f = ParallelFraction::new(f).unwrap();
        let (r_min, r_max, r_step) = grid;
        let opt = Optimizer::new(r_min, r_max, r_step).unwrap();
        let law = PollackLaw::new(k).unwrap();
        let power_law = SerialPowerLaw::new(alpha).unwrap();
        for spec in all_specs(mu, phi) {
            let spec = spec
                .with_law(law)
                .with_power_law(power_law)
                .with_bandwidth_exponent(e);
            assert_equivalent(&opt, &spec, &budgets, f);
        }
    }

    /// The lazy candidate iterator reproduces the allocated list down to
    /// the accumulated-rounding bit patterns, including fractional steps
    /// where `r += step` rounds.
    #[test]
    fn candidate_values_match_candidates_bitwise(
        r_min in 0.1..4.0f64,
        span in 0.0..40.0f64,
        r_step in 0.01..3.0f64,
    ) {
        let opt = Optimizer::new(r_min, r_min + span, r_step).unwrap();
        let lazy: Vec<u64> =
            opt.candidate_values().map(f64::to_bits).collect();
        let eager: Vec<u64> =
            opt.candidates().iter().map(|r| r.to_bits()).collect();
        prop_assert_eq!(lazy, eager);
    }
}

/// The paper's own sweep, spot-checked across every chip organization at
/// the exact `(f, budgets)` grid the figures use.
#[test]
fn paper_grid_is_equivalent() {
    let opt = Optimizer::paper_default();
    for f in [0.5, 0.9, 0.975, 0.99, 0.999] {
        let f = ParallelFraction::new(f).unwrap();
        for (a, p, b) in [
            (19.0, 7.4, 1000.0),
            (40.0, 12.0, 6.4),
            (100.0, 25.0, 50.0),
            (16.0, 3.0, 2.0),
        ] {
            let budgets = Budgets::new(a, p, b).unwrap();
            for spec in all_specs(27.4, 0.79) {
                assert_equivalent(&opt, &spec, &budgets, f);
            }
        }
    }
}

/// Outside the proven range speedup need not be quasi-concave in `r`.
/// Here (Hill–Marty asymmetric, `k ≈ 1.22`, `α ≈ 0.51`, `r` from 0.05)
/// the feasible speedups rise, fall, then climb past the first peak, so
/// a scan that stopped at the first strict descent would miss the
/// optimum. The tuned search must run this sweep to the end.
#[test]
fn descent_exit_is_not_taken_outside_the_proven_range() {
    let spec = ChipSpec::asymmetric()
        .with_law(PollackLaw::new(1.2191200819930936).unwrap())
        .with_power_law(SerialPowerLaw::new(0.5065499797607793).unwrap())
        .with_bandwidth_exponent(0.5920535896968447);
    let budgets = Budgets::new(168.93501171177454, 0.750014855559878, 122.07643264617187).unwrap();
    let f = ParallelFraction::new(0.9835512459864607).unwrap();
    let opt = Optimizer::new(0.05, 16.0, 0.05).unwrap();

    // The feasible speedups in sweep order, one single-candidate sweep
    // per `r`.
    let speedups: Vec<f64> = opt
        .candidates()
        .into_iter()
        .filter_map(|r| {
            let single = Optimizer::new(r, r, 1.0).unwrap();
            single.optimize_exhaustive(&spec, &budgets, f).ok()
        })
        .map(|best| best.evaluation.speedup.get())
        .collect();
    let descent = speedups.windows(2).position(|w| w[1] < w[0]).unwrap();
    let before = speedups[..=descent].iter().copied().fold(f64::MIN, f64::max);
    let best = opt.optimize(&spec, &budgets, f).unwrap().evaluation.speedup.get();
    assert!(best > before, "optimum {best} must beat the pre-descent peak {before}");
    assert_equivalent(&opt, &spec, &budgets, f);
}
