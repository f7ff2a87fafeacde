//! Black-Scholes European option pricing.
//!
//! The paper uses PARSEC's `blackscholes` (CPU, SSE-tuned) and Nvidia's
//! CUDA reference. This module implements the same closed-form pricer:
//! the cumulative normal distribution via the Abramowitz–Stegun
//! polynomial (the approximation PARSEC uses), the call/put formulas, and
//! a throughput-driven batch evaluator.

pub mod batch;
pub mod math;
pub mod reference;

use crate::kernel::WorkloadError;
use serde::Serialize;

/// Approximate floating-point operations per option pricing in this
/// pipeline (both legs), used as the paper-style operation count when an
/// "op" must be converted to FLOPs. Counted from the pricing pipeline:
/// d1/d2 (1 log, 1 sqrt, ~10 mul/add/div), two CND evaluations
/// (~17 each), discounting and the two combination steps (~10).
pub const FLOPS_PER_OPTION: f64 = 55.0;

/// One option-pricing problem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OptionParams {
    /// Current underlying price `S`.
    pub spot: f32,
    /// Strike price `K`.
    pub strike: f32,
    /// Risk-free rate `r` (annualized, continuous compounding).
    pub rate: f32,
    /// Volatility `σ` (annualized).
    pub volatility: f32,
    /// Time to expiry in years `T`.
    pub time: f32,
}

/// The price of both legs for one option.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OptionPrice {
    /// European call price.
    pub call: f32,
    /// European put price.
    pub put: f32,
}

impl OptionParams {
    /// Creates an option after validating positivity of `S`, `K`, `σ`,
    /// `T` (rate may be zero or negative).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroSize`] naming the offending
    /// parameter.
    pub fn new(
        spot: f32,
        strike: f32,
        rate: f32,
        volatility: f32,
        time: f32,
    ) -> Result<Self, WorkloadError> {
        /// Checks one parameter.
        ///
        /// # Errors
        ///
        /// [`WorkloadError::ZeroSize`] when `v` is not positive and finite.
        fn check(what: &'static str, v: f32) -> Result<(), WorkloadError> {
            if !(v.is_finite() && v > 0.0) {
                return Err(WorkloadError::ZeroSize { what });
            }
            Ok(())
        }
        check("spot", spot)?;
        check("strike", strike)?;
        check("volatility", volatility)?;
        check("time to expiry", time)?;
        if !rate.is_finite() {
            return Err(WorkloadError::ZeroSize { what: "rate" });
        }
        Ok(OptionParams { spot, strike, rate, volatility, time })
    }

    /// Prices both legs with the closed-form Black-Scholes formulas.
    pub fn price(&self) -> OptionPrice {
        let s = f64::from(self.spot);
        let k = f64::from(self.strike);
        let r = f64::from(self.rate);
        let v = f64::from(self.volatility);
        let t = f64::from(self.time);

        let sqrt_t = t.sqrt();
        let d1 = ((s / k).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
        let d2 = d1 - v * sqrt_t;
        let discount = (-r * t).exp();

        let call = s * math::cnd(d1) - k * discount * math::cnd(d2);
        let put = k * discount * math::cnd(-d2) - s * math::cnd(-d1);
        OptionPrice { call: call as f32, put: put as f32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(spot: f32, strike: f32, rate: f32, vol: f32, time: f32) -> OptionParams {
        OptionParams::new(spot, strike, rate, vol, time).unwrap()
    }

    #[test]
    fn hull_textbook_example() {
        // Hull, "Options, Futures and Other Derivatives": S=42, K=40,
        // r=10%, sigma=20%, T=0.5 -> call 4.76, put 0.81.
        let p = opt(42.0, 40.0, 0.10, 0.20, 0.5).price();
        assert!((p.call - 4.76).abs() < 0.01, "call {}", p.call);
        assert!((p.put - 0.81).abs() < 0.01, "put {}", p.put);
    }

    #[test]
    fn at_the_money_zero_rate_symmetry() {
        // With r = 0 and S = K, call and put are equal.
        let p = opt(100.0, 100.0, 0.0, 0.3, 1.0).price();
        assert!((p.call - p.put).abs() < 1e-4);
        assert!(p.call > 0.0);
    }

    #[test]
    fn put_call_parity() {
        // C - P = S - K e^{-rT}.
        for (s, k, r, v, t) in [
            (100.0, 90.0, 0.05, 0.25, 0.75),
            (80.0, 120.0, 0.02, 0.4, 2.0),
            (55.0, 55.0, 0.08, 0.15, 0.25),
        ] {
            let p = opt(s, k, r, v, t).price();
            let parity = s - k * (-r * t).exp();
            assert!(
                (p.call - p.put - parity).abs() < 1e-3,
                "parity violated for S={s}, K={k}"
            );
        }
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let p = opt(1000.0, 10.0, 0.05, 0.2, 0.5).price();
        let intrinsic = 1000.0 - 10.0 * (-0.05f32 * 0.5).exp();
        assert!((p.call - intrinsic).abs() / intrinsic < 1e-4);
        assert!(p.put < 1e-3);
    }

    #[test]
    fn longer_expiry_raises_option_value() {
        let short = opt(100.0, 100.0, 0.05, 0.2, 0.25).price();
        let long = opt(100.0, 100.0, 0.05, 0.2, 2.0).price();
        assert!(long.call > short.call);
    }

    #[test]
    fn higher_volatility_raises_option_value() {
        let calm = opt(100.0, 100.0, 0.05, 0.1, 1.0).price();
        let wild = opt(100.0, 100.0, 0.05, 0.5, 1.0).price();
        assert!(wild.call > calm.call);
        assert!(wild.put > calm.put);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(OptionParams::new(0.0, 100.0, 0.05, 0.2, 1.0).is_err());
        assert!(OptionParams::new(100.0, -1.0, 0.05, 0.2, 1.0).is_err());
        assert!(OptionParams::new(100.0, 100.0, 0.05, 0.0, 1.0).is_err());
        assert!(OptionParams::new(100.0, 100.0, 0.05, 0.2, 0.0).is_err());
        assert!(OptionParams::new(100.0, 100.0, f32::NAN, 0.2, 1.0).is_err());
        // Negative rates are legal.
        assert!(OptionParams::new(100.0, 100.0, -0.01, 0.2, 1.0).is_ok());
    }
}
