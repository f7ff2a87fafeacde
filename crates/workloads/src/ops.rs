//! Structural operation counting: proving the FLOP formulas.
//!
//! The model's throughput units rest on operation-count conventions
//! (`2N³` for MMM, the `5N log2 N` pseudo-FLOP convention for FFT). This
//! module derives those counts *structurally* from the algorithms the
//! kernels actually execute — butterflies, inner-product steps, pricing
//! pipeline stages — so the conventions are verified against the code,
//! not just asserted.

/// Operations in one radix-2 butterfly: one complex multiply
/// (4 mul + 2 add) and two complex add/subtracts (2 adds each).
pub const RADIX2_BUTTERFLY_FLOPS: u64 = 10;

/// Butterflies executed by an iterative radix-2 FFT of size `n`
/// (a power of two): `n/2` per stage, `log2 n` stages.
pub fn radix2_butterflies(n: usize) -> u64 {
    debug_assert!(n.is_power_of_two());
    (n as u64 / 2) * u64::from(n.trailing_zeros())
}

/// Exact FLOPs of the radix-2 FFT, counting every butterfly at 10
/// operations (trivial twiddles not special-cased — the same convention
/// the pseudo-GFLOP metric uses).
pub fn radix2_flops(n: usize) -> u64 {
    radix2_butterflies(n) * RADIX2_BUTTERFLY_FLOPS
}

/// Operations in one radix-4 butterfly: three complex multiplies
/// (18 flops) and eight complex add/subtracts (16 flops); the `±i`
/// rotations are free.
pub const RADIX4_BUTTERFLY_FLOPS: u64 = 34;

/// Butterflies executed by a radix-4 FFT of size `n` (a power of four):
/// `n/4` per stage, `log4 n` stages.
pub fn radix4_butterflies(n: usize) -> u64 {
    debug_assert!(n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2));
    (n as u64 / 4) * u64::from(n.trailing_zeros() / 2)
}

/// Exact FLOPs of the radix-4 FFT.
pub fn radix4_flops(n: usize) -> u64 {
    radix4_butterflies(n) * RADIX4_BUTTERFLY_FLOPS
}

/// Exact FLOPs of the naive `m×k` by `k×n` matrix product: one multiply
/// and one add per inner step.
pub fn mmm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// Operations in one Black-Scholes pricing (both legs) through our
/// pipeline: d1/d2 (ln, sqrt, 5 mul, 2 div, 3 add ≈ 12), two CND
/// evaluations (exp, ~8 mul/add each ≈ 17 each, by the Abramowitz-
/// Stegun polynomial with Horner evaluation), discounting (exp + mul ≈
/// 3), and the four combination multiplies/adds per leg (≈ 6).
pub fn black_scholes_ops() -> u64 {
    12 + 2 * 17 + 3 + 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackscholes::FLOPS_PER_OPTION;
    use crate::Workload;

    #[test]
    fn radix2_count_equals_the_pseudo_flop_convention() {
        // 10 flops x (n/2 log2 n) butterflies = 5 n log2 n: the paper's
        // pseudo-GFLOP denominator is exactly the radix-2 work.
        for &n in &[2usize, 8, 64, 1024, 1 << 14, 1 << 20] {
            let pseudo = Workload::fft(n).unwrap().flops_per_unit();
            assert_eq!(radix2_flops(n) as f64, pseudo, "n = {n}");
        }
    }

    #[test]
    fn radix4_does_fewer_real_flops_than_radix2() {
        // The reason the planner prefers radix-4: 34/4 = 8.5 flops per
        // point per stage-pair vs radix-2's 10.
        for &n in &[16usize, 256, 4096, 1 << 14] {
            let r2 = radix2_flops(n);
            let r4 = radix4_flops(n);
            assert!(r4 < r2, "n = {n}: {r4} !< {r2}");
            // And the ratio is exactly 34/40.
            assert_eq!(r4 * 40, r2 * 34, "n = {n}");
        }
    }

    #[test]
    fn mmm_count_matches_the_model() {
        for &n in &[1usize, 8, 128, 500] {
            let model = Workload::mmm(n).unwrap().flops_per_unit();
            assert_eq!(mmm_flops(n, n, n) as f64, model);
        }
        assert_eq!(mmm_flops(2, 3, 4), 48);
    }

    #[test]
    fn black_scholes_count_matches_the_advertised_constant() {
        assert_eq!(black_scholes_ops() as f64, FLOPS_PER_OPTION);
    }

    #[test]
    fn butterfly_counts_are_stagewise() {
        assert_eq!(radix2_butterflies(8), 12); // 4 butterflies x 3 stages
        assert_eq!(radix4_butterflies(16), 8); // 4 butterflies x 2 stages
    }
}
