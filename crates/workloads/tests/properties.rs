//! Property-based tests of the kernel implementations.

use proptest::prelude::*;
use ucore_workloads::blackscholes::OptionParams;
use ucore_workloads::fft::{dft, Complex, Direction, Fft};
use ucore_workloads::mmm::{blocked, naive, Matrix};
use ucore_workloads::Workload;

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-1.0f32..1.0, -1.0f32..1.0).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Matrix::from_slice(rows, cols, &v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_inverse_round_trips(signal in complex_vec(64)) {
        let fft = Fft::new(64).unwrap();
        let mut data = signal.clone();
        fft.transform(&mut data, Direction::Forward).unwrap();
        fft.transform(&mut data, Direction::Inverse).unwrap();
        for (a, b) in data.iter().zip(&signal) {
            prop_assert!((*a - *b).abs() < 1e-3);
        }
    }

    #[test]
    fn fft_matches_reference_dft(signal in complex_vec(32)) {
        let mut fast = signal.clone();
        Fft::new(32).unwrap().transform(&mut fast, Direction::Forward).unwrap();
        let slow = dft::reference(&signal, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-2);
        }
    }

    #[test]
    fn fft_parseval(signal in complex_vec(128)) {
        let time: f64 = signal.iter().map(|c| f64::from(c.norm_sqr())).sum();
        let mut freq = signal;
        Fft::new(128).unwrap().transform(&mut freq, Direction::Forward).unwrap();
        let spectral: f64 =
            freq.iter().map(|c| f64::from(c.norm_sqr())).sum::<f64>() / 128.0;
        prop_assert!((time - spectral).abs() <= 1e-3 * time.max(1.0));
    }

    #[test]
    fn blocked_mmm_matches_naive(
        a in matrix(9, 7),
        b in matrix(7, 5),
        block in 1usize..12,
    ) {
        let tuned = blocked::multiply(&a, &b, block).unwrap();
        let reference = naive::multiply(&a, &b).unwrap();
        prop_assert!(tuned.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn mmm_is_distributive(
        a in matrix(5, 5),
        b in matrix(5, 5),
        c in matrix(5, 5),
    ) {
        // A(B + C) = AB + AC, within f32 tolerance.
        let mut bc = Matrix::zeros(5, 5);
        for i in 0..5 {
            for j in 0..5 {
                bc.set(i, j, b.get(i, j) + c.get(i, j));
            }
        }
        let lhs = naive::multiply(&a, &bc).unwrap();
        let ab = naive::multiply(&a, &b).unwrap();
        let ac = naive::multiply(&a, &c).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((lhs.get(i, j) - ab.get(i, j) - ac.get(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn black_scholes_put_call_parity(
        s in 5.0f32..250.0,
        k in 5.0f32..250.0,
        r in 0.0f32..0.10,
        v in 0.05f32..0.9,
        t in 0.05f32..4.0,
    ) {
        let p = OptionParams::new(s, k, r, v, t).unwrap().price();
        let parity = s - k * (-r * t).exp();
        prop_assert!((p.call - p.put - parity).abs() < 2e-3 * s.max(k));
    }

    #[test]
    fn black_scholes_call_bounds(
        s in 5.0f32..250.0,
        k in 5.0f32..250.0,
        r in 0.0f32..0.10,
        v in 0.05f32..0.9,
        t in 0.05f32..4.0,
    ) {
        // max(0, S - K e^{-rT}) <= C <= S.
        let p = OptionParams::new(s, k, r, v, t).unwrap().price();
        let lower = (s - k * (-r * t).exp()).max(0.0);
        prop_assert!(p.call + 1e-3 * s >= lower);
        prop_assert!(p.call <= s * (1.0 + 1e-5));
    }

    #[test]
    fn arithmetic_intensity_positive_and_monotone(shift in 4u32..14) {
        let n = 1usize << shift;
        let fft = Workload::fft(n).unwrap();
        let fft_bigger = Workload::fft(n * 2).unwrap();
        prop_assert!(fft.arithmetic_intensity() > 0.0);
        prop_assert!(fft_bigger.arithmetic_intensity() > fft.arithmetic_intensity());
    }
}
