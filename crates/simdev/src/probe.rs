//! A simulated current probe.
//!
//! "To collect power data, a current probe was used to measure various
//! devices while running applications in steady state." The simulated
//! probe returns the true power plus deterministic, seeded measurement
//! noise; the steady-state reading averages many samples, converging on
//! the truth the way the physical measurement does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A probe clamped around one supply rail.
#[derive(Debug, Clone, Serialize)]
pub struct CurrentProbe {
    true_watts: f64,
    noise_fraction: f64,
    #[serde(skip)]
    rng: StdRng,
}

impl CurrentProbe {
    /// Clamps a probe on a rail carrying `true_watts`, with relative
    /// measurement noise `noise_fraction` (e.g. `0.01` for ±1%) and a
    /// seed for reproducibility.
    pub fn new(true_watts: f64, noise_fraction: f64, seed: u64) -> Self {
        CurrentProbe {
            true_watts: true_watts.max(0.0),
            noise_fraction: noise_fraction.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One instantaneous sample: truth plus uniform noise.
    pub fn sample(&mut self) -> f64 {
        let noise = self
            .rng
            .gen_range(-self.noise_fraction..=self.noise_fraction);
        self.true_watts * (1.0 + noise)
    }

    /// A steady-state reading: the mean of `samples` instantaneous
    /// samples.
    pub fn steady_state(&mut self, samples: usize) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        let sum: f64 = (0..samples).map(|_| self.sample()).sum();
        sum / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_within_noise_band() {
        let mut probe = CurrentProbe::new(100.0, 0.02, 7);
        for _ in 0..1000 {
            let s = probe.sample();
            assert!((98.0..=102.0).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn steady_state_converges_to_truth() {
        let mut probe = CurrentProbe::new(66.8, 0.05, 11);
        let reading = probe.steady_state(10_000);
        assert!((reading - 66.8).abs() < 0.2, "reading {reading}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = CurrentProbe::new(50.0, 0.03, 42);
        let mut b = CurrentProbe::new(50.0, 0.03, 42);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn zero_noise_is_exact() {
        let mut probe = CurrentProbe::new(10.0, 0.0, 1);
        assert_eq!(probe.sample(), 10.0);
        assert_eq!(probe.steady_state(17), 10.0);
    }

    #[test]
    fn degenerate_inputs() {
        let mut probe = CurrentProbe::new(-5.0, 0.5, 1);
        assert_eq!(probe.sample(), 0.0);
        assert_eq!(probe.steady_state(0), 0.0);
    }
}
