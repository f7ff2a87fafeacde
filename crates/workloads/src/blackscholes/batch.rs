//! Throughput-driven batch pricing.
//!
//! The paper's kernels are "throughput-driven, i.e., many independent
//! inputs are being computed": this module prices whole portfolios,
//! mirroring the PARSEC workload shape.

use super::{OptionParams, OptionPrice};
use crate::kernel::WorkloadError;

/// Prices every option in `portfolio` sequentially.
pub fn price_all(portfolio: &[OptionParams]) -> Vec<OptionPrice> {
    portfolio.iter().map(OptionParams::price).collect()
}

/// Prices every option into a caller-provided buffer — the
/// allocation-free batch entry point for throughput loops that reuse
/// their output storage across iterations.
///
/// Writes `out[i] = portfolio[i].price()` for every `i`; the result is
/// bit-identical to [`price_all`] (both call the same scalar pricer in
/// the same order).
///
/// ```
/// use ucore_workloads::blackscholes::{batch, OptionParams, OptionPrice};
/// let portfolio = vec![OptionParams::new(105.0, 100.0, 0.05, 0.2, 1.0)?; 8];
/// let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; 8];
/// batch::price_into(&portfolio, &mut out)?;
/// assert_eq!(out, batch::price_all(&portfolio));
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::LengthMismatch`] unless
/// `out.len() == portfolio.len()`.
pub fn price_into(
    portfolio: &[OptionParams],
    out: &mut [OptionPrice],
) -> Result<(), WorkloadError> {
    if portfolio.len() != out.len() {
        return Err(WorkloadError::LengthMismatch {
            expected: portfolio.len(),
            actual: out.len(),
        });
    }
    for (params, price) in portfolio.iter().zip(out.iter_mut()) {
        *price = params.price();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_portfolio;

    #[test]
    fn empty_portfolio() {
        assert!(price_all(&[]).is_empty());
        assert!(price_into(&[], &mut []).is_ok());
    }

    #[test]
    fn price_into_matches_price_all_bit_for_bit() {
        let portfolio = random_portfolio(257, 19);
        let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; portfolio.len()];
        price_into(&portfolio, &mut out).unwrap();
        assert_eq!(out, price_all(&portfolio));
    }

    #[test]
    fn price_into_rejects_length_mismatch() {
        let portfolio = random_portfolio(4, 20);
        let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; 3];
        assert!(price_into(&portfolio, &mut out).is_err());
    }

    #[test]
    fn all_prices_are_non_negative() {
        let portfolio = random_portfolio(500, 23);
        for price in price_all(&portfolio) {
            assert!(price.call >= 0.0);
            assert!(price.put >= 0.0);
        }
    }
}
