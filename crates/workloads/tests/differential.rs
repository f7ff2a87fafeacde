//! Differential tests: every tuned kernel against its in-tree reference.
//!
//! ## Tolerance policy
//!
//! Two distinct regimes, deliberately kept apart:
//!
//! * **Tuned vs. reference — bit for bit.** The optimized kernels
//!   (blocked MMM, radix-2/radix-4 FFT, batch Black-Scholes)
//!   reorganize *memory access*, never arithmetic: each output element
//!   receives exactly the same fused updates in exactly the same order
//!   as its reference loop. Agreement is checked with `assert_eq!` /
//!   `prop_assert_eq!` on the raw values — identical IEEE bits or bust.
//!   An epsilon here would let a reordering bug hide inside rounding
//!   noise.
//! * **Cross-algorithm — bounded error.** A tuned kernel compared with
//!   a *different* algorithm (blocked vs. naive MMM, the planner vs. the
//!   analytic impulse spectrum) legitimately rounds differently. Those
//!   comparisons use an absolute tolerance scaled to the accumulation
//!   length, far below any algorithmic error (a dropped term or twiddle
//!   shows up at magnitude ~1).

use proptest::prelude::*;
use ucore_workloads::blackscholes::{batch, reference as bs_reference, OptionParams, OptionPrice};
use ucore_workloads::fft::radix2::Radix2Fft;
use ucore_workloads::fft::radix4::Radix4Fft;
use ucore_workloads::fft::{dft, reference as fft_reference, Complex, Direction, Fft};
use ucore_workloads::gen::{random_matrix, random_portfolio, random_signal};
use ucore_workloads::mmm::{blocked, naive, Matrix};

// ---------------------------------------------------------------------
// MMM: the tuned blocked kernel vs. the reference tile loops.
// ---------------------------------------------------------------------

/// A matrix with injected exact zeros, exercising the sparsity skip in
/// both the tuned and the reference inner loops.
fn matrix_with_zeros(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Matrix {
    let mut m = random_matrix(rows, cols, seed);
    if zero_every > 0 {
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % zero_every == 0 {
                *v = 0.0;
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tuned blocked kernel returns the exact bits of the reference
    /// tile loops over random shapes and block sizes — including blocks
    /// of 1, blocks larger than every dimension, and blocks that do not
    /// divide the dimensions (partial edge tiles).
    #[test]
    fn blocked_matches_reference_bitwise(
        m in 1..40usize,
        k in 1..40usize,
        n in 1..40usize,
        block in prop::sample::select(vec![1usize, 2, 3, 5, 8, 16, 64]),
        seed in 0..u64::MAX / 2,
        zero_every in 0..7usize,
    ) {
        let a = matrix_with_zeros(m, k, seed, zero_every);
        let b = random_matrix(k, n, seed.wrapping_add(1));
        let tuned = blocked::multiply(&a, &b, block).unwrap();
        let reference = blocked::reference::multiply(&a, &b, block).unwrap();
        prop_assert_eq!(&tuned, &reference, "m={} k={} n={} block={}", m, k, n, block);
        // Different blockings change summation order, so only compare
        // the naive kernel approximately — this guards gross indexing
        // errors that a bit-equal-but-shared bug could mask.
        let oracle = naive::multiply(&a, &b).unwrap();
        prop_assert!(tuned.max_abs_diff(&oracle) < 1e-2 * k as f32);
    }
}

/// Blocking-boundary edge cases pinned explicitly: block == dim,
/// block == dim ± 1, and a dimension just past the 4-wide unroll.
#[test]
fn blocked_boundary_blocks_are_bit_identical() {
    for (m, k, n) in [(5, 7, 9), (8, 8, 8), (4, 4, 5), (1, 1, 1), (17, 3, 13)] {
        let a = matrix_with_zeros(m, k, 42, 3);
        let b = random_matrix(k, n, 43);
        for block in [1, n.saturating_sub(1).max(1), n, n + 1, m, k, 128] {
            let tuned = blocked::multiply(&a, &b, block).unwrap();
            let reference = blocked::reference::multiply(&a, &b, block).unwrap();
            assert_eq!(tuned, reference, "m={m} k={k} n={n} block={block}");
        }
    }
}

// ---------------------------------------------------------------------
// FFT: tuned transforms vs. the original strided-index butterflies.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tuned radix-2 transform (stage-contiguous twiddles, zipped
    /// butterflies) is bit-identical to the original strided loops for
    /// every power-of-two size, including the non-power-of-four sizes
    /// the planner routes to radix-2.
    #[test]
    fn radix2_matches_reference_bitwise(
        log2 in 1..12u32,
        seed in 0..u64::MAX / 2,
    ) {
        let n = 1usize << log2;
        let mut tuned = random_signal(n, seed);
        let mut reference = tuned.clone();
        Radix2Fft::new(n).unwrap().forward(&mut tuned);
        fft_reference::radix2_forward(&mut reference);
        prop_assert_eq!(tuned, reference, "n={}", n);
    }

    /// Likewise for the tuned radix-4 transform on powers of four.
    #[test]
    fn radix4_matches_reference_bitwise(
        log4 in 1..6u32,
        seed in 0..u64::MAX / 2,
    ) {
        let n = 1usize << (2 * log4);
        let mut tuned = random_signal(n, seed);
        let mut reference = tuned.clone();
        Radix4Fft::new(n).unwrap().forward(&mut tuned);
        fft_reference::radix4_forward(&mut reference);
        prop_assert_eq!(tuned, reference, "n={}", n);
    }
}

/// The planner front end dispatches to exactly the transforms the
/// reference loops model: radix-4 for powers of four, radix-2 for the
/// remaining powers of two — pinned by bit-comparing through `Fft`.
#[test]
fn planner_dispatch_is_bit_identical_to_references() {
    for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let plan = Fft::new(n).unwrap();
        let mut tuned = random_signal(n, n as u64);
        let mut reference = tuned.clone();
        plan.transform(&mut tuned, Direction::Forward).unwrap();
        if n.trailing_zeros() % 2 == 0 && n >= 4 {
            assert_eq!(plan.radix(), 4, "n={n}");
            fft_reference::radix4_forward(&mut reference);
        } else {
            assert_eq!(plan.radix(), 2, "n={n}");
            fft_reference::radix2_forward(&mut reference);
        }
        assert_eq!(tuned, reference, "n={n}");
    }
}

/// A delta impulse transforms to an all-ones spectrum in every size —
/// an analytic anchor independent of any in-tree implementation. The
/// planner covers the power-of-two sizes, the O(n²) oracle the rest.
#[test]
fn impulse_spectrum_is_flat() {
    for n in [8usize, 16, 7, 12] {
        let mut impulse = vec![Complex::ZERO; n];
        impulse[0] = Complex::new(1.0, 0.0);
        let data = if n.is_power_of_two() {
            let mut data = impulse;
            Fft::new(n).unwrap().transform(&mut data, Direction::Forward).unwrap();
            data
        } else {
            dft::reference(&impulse, Direction::Forward)
        };
        for (k, bin) in data.iter().enumerate() {
            assert!(
                (bin.re - 1.0).abs() < 1e-4 && bin.im.abs() < 1e-4,
                "n={n} bin {k}: {bin:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Black-Scholes: batch entry points vs. the reference scalar pricer.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both batch entry points — allocating and allocation-free —
    /// produces the exact bits of the reference scalar pricer applied
    /// element by element.
    #[test]
    fn batch_pricing_matches_reference_bitwise(
        spot in 1.0..500.0f32,
        strike in 1.0..500.0f32,
        rate in -0.05..0.2f32,
        volatility in 0.01..1.5f32,
        time in 0.05..5.0f32,
        len in 1..64usize,
        seed in 0..u64::MAX / 2,
    ) {
        let mut portfolio = random_portfolio(len, seed);
        // Pin one fully proptest-chosen option alongside the random
        // portfolio so edge parameters (deep in/out of the money,
        // negative rates) are explored independently of `gen`'s ranges.
        portfolio[0] =
            OptionParams::new(spot, strike, rate, volatility, time).unwrap();

        let expected: Vec<OptionPrice> =
            portfolio.iter().map(bs_reference::price).collect();
        let serial = batch::price_all(&portfolio);
        prop_assert_eq!(&serial, &expected);

        let mut into = vec![OptionPrice { call: 0.0, put: 0.0 }; len];
        batch::price_into(&portfolio, &mut into).unwrap();
        prop_assert_eq!(&into, &expected);
    }
}

/// Put-call parity `C - P = S - K·e^{-rT}` holds for the tuned pricer —
/// an analytic anchor independent of the reference implementation.
#[test]
fn put_call_parity_holds() {
    for params in random_portfolio(256, 7) {
        let OptionPrice { call, put } = params.price();
        let parity = f64::from(params.spot)
            - f64::from(params.strike)
                * (-f64::from(params.rate) * f64::from(params.time)).exp();
        assert!(
            (f64::from(call) - f64::from(put) - parity).abs() < 1e-2,
            "parity violated for {params:?}"
        );
    }
}
