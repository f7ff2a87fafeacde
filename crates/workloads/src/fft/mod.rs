//! Single-precision complex FFTs.
//!
//! The paper's FFT numbers come from Spiral-generated kernels (CPU and
//! RTL) and CUFFT; here the transform is implemented directly:
//!
//! * [`dft::reference`] — the O(N²) discrete Fourier transform, the
//!   correctness oracle;
//! * [`radix2::Radix2Fft`] — iterative radix-2 decimation-in-time with
//!   precomputed twiddles and bit-reversal permutation;
//! * [`radix4::Radix4Fft`] — iterative radix-4 for sizes that are powers
//!   of four (fewer twiddle multiplies per butterfly, the first step
//!   Spiral-class generators take);
//! * [`Fft`] — a small planner that picks radix-4 when the size allows
//!   and radix-2 otherwise, with forward and inverse directions;
//! * [`reference`](mod@reference) — the pre-optimization butterfly loops, kept as
//!   bit-for-bit differential oracles for the tuned transforms.

pub mod dft;
pub mod plan;
pub mod radix2;
pub mod radix4;
pub mod reference;

use crate::kernel::WorkloadError;
use serde::Serialize;
use std::ops::{Add, Mul, Neg, Sub};

/// A single-precision complex number.
///
/// A local implementation (rather than an external crate) keeps the
/// kernel self-contained and under test here.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates `re + im·i`.
    pub fn new(re: f32, im: f32) -> Self {
        Complex { re, im }
    }

    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// `e^(i·theta)`.
    pub fn from_angle(theta: f64) -> Self {
        Complex::new(theta.cos() as f32, theta.sin() as f32)
    }

    /// The complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Multiplication by `i` (a quarter-turn), cheaper than a full
    /// complex multiply inside radix-4 butterflies.
    pub fn mul_i(self) -> Self {
        Complex::new(-self.im, self.re)
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f32) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Direction {
    /// The forward DFT (negative exponent).
    Forward,
    /// The inverse DFT (positive exponent, scaled by `1/N`).
    Inverse,
}

/// A planned FFT of a fixed power-of-two size.
///
/// ```
/// use ucore_workloads::fft::{Complex, Direction, Fft};
/// let fft = Fft::new(8)?;
/// let mut data = vec![Complex::ZERO; 8];
/// data[1] = Complex::ONE; // a shifted impulse
/// fft.transform(&mut data, Direction::Forward)?;
/// // The spectrum of a shifted impulse has unit magnitude everywhere.
/// for bin in &data {
///     assert!((bin.abs() - 1.0).abs() < 1e-5);
/// }
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    Radix2(radix2::Radix2Fft),
    Radix4(radix4::Radix4Fft),
}

impl Fft {
    /// Plans a transform of `size` points, preferring radix-4 when `size`
    /// is a power of four.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::NotPowerOfTwo`] unless `size` is a power
    /// of two and at least 2.
    pub fn new(size: usize) -> Result<Self, WorkloadError> {
        if size < 2 || !size.is_power_of_two() {
            return Err(WorkloadError::NotPowerOfTwo { size });
        }
        let kind = if size.trailing_zeros().is_multiple_of(2) {
            PlanKind::Radix4(radix4::Radix4Fft::new(size)?)
        } else {
            PlanKind::Radix2(radix2::Radix2Fft::new(size)?)
        };
        Ok(Fft { size, kind })
    }

    /// The transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Which radix the planner selected.
    pub fn radix(&self) -> usize {
        match &self.kind {
            PlanKind::Radix2(_) => 2,
            PlanKind::Radix4(_) => 4,
        }
    }

    /// Transforms `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::LengthMismatch`] unless
    /// `data.len() == size`.
    pub fn transform(
        &self,
        data: &mut [Complex],
        direction: Direction,
    ) -> Result<(), WorkloadError> {
        if data.len() != self.size {
            return Err(WorkloadError::LengthMismatch {
                expected: self.size,
                actual: data.len(),
            });
        }
        match direction {
            Direction::Forward => self.forward(data),
            Direction::Inverse => {
                // x^-1 = conj(FFT(conj(X))) / N.
                for v in data.iter_mut() {
                    *v = v.conj();
                }
                self.forward(data);
                let scale = 1.0 / self.size as f32;
                for v in data.iter_mut() {
                    *v = v.conj().scale(scale);
                }
            }
        }
        Ok(())
    }

    fn forward(&self, data: &mut [Complex]) {
        match &self.kind {
            PlanKind::Radix2(p) => p.forward(data),
            PlanKind::Radix4(p) => p.forward(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_signal;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "bin {i}: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!(a.mul_i(), Complex::new(-2.0, 1.0));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn planner_prefers_radix4_for_powers_of_four() {
        assert_eq!(Fft::new(4).unwrap().radix(), 4);
        assert_eq!(Fft::new(16).unwrap().radix(), 4);
        assert_eq!(Fft::new(1024).unwrap().radix(), 4);
        assert_eq!(Fft::new(8).unwrap().radix(), 2);
        assert_eq!(Fft::new(2048).unwrap().radix(), 2);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(Fft::new(0).is_err());
        assert!(Fft::new(1).is_err());
        assert!(Fft::new(12).is_err());
    }

    #[test]
    fn rejects_wrong_length_buffer() {
        let fft = Fft::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        assert!(fft.transform(&mut data, Direction::Forward).is_err());
    }

    #[test]
    fn matches_reference_dft() {
        for &n in &[2usize, 4, 8, 16, 32, 64, 128, 256] {
            let signal = random_signal(n, 7);
            let mut fast = signal.clone();
            Fft::new(n)
                .unwrap()
                .transform(&mut fast, Direction::Forward)
                .unwrap();
            let slow = dft::reference(&signal, Direction::Forward);
            assert_close(&fast, &slow, 1e-2 * (n as f32).sqrt());
        }
    }

    #[test]
    fn inverse_round_trips() {
        for &n in &[4usize, 8, 64, 512, 1024] {
            let signal = random_signal(n, 11);
            let mut data = signal.clone();
            let fft = Fft::new(n).unwrap();
            fft.transform(&mut data, Direction::Forward).unwrap();
            fft.transform(&mut data, Direction::Inverse).unwrap();
            assert_close(&data, &signal, 1e-3);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let signal = random_signal(n, 3);
        let time_energy: f64 = signal.iter().map(|c| f64::from(c.norm_sqr())).sum();
        let mut freq = signal;
        Fft::new(n)
            .unwrap()
            .transform(&mut freq, Direction::Forward)
            .unwrap();
        let freq_energy: f64 =
            freq.iter().map(|c| f64::from(c.norm_sqr())).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() / time_energy < 1e-4,
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let n = 64;
        let mut data = vec![Complex::ONE; n];
        Fft::new(n)
            .unwrap()
            .transform(&mut data, Direction::Forward)
            .unwrap();
        assert!((data[0].re - n as f32).abs() < 1e-3);
        assert!(data[0].im.abs() < 1e-3);
        for bin in &data[1..] {
            assert!(bin.abs() < 1e-3);
        }
    }

    #[test]
    fn linearity() {
        let n = 128;
        let x = random_signal(n, 21);
        let y = random_signal(n, 22);
        let fft = Fft::new(n).unwrap();

        let mut fx = x.clone();
        fft.transform(&mut fx, Direction::Forward).unwrap();
        let mut fy = y.clone();
        fft.transform(&mut fy, Direction::Forward).unwrap();

        let mut sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        fft.transform(&mut sum, Direction::Forward).unwrap();

        let expect: Vec<Complex> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        assert_close(&sum, &expect, 1e-2);
    }
}
