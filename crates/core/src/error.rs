//! Error types for model construction and evaluation.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or evaluating the analytical model.
///
/// Every public constructor and evaluation function in this crate validates
/// its arguments and reports violations through this type rather than
/// panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A parallel fraction `f` outside the interval `[0, 1]`.
    InvalidFraction {
        /// The rejected value.
        value: f64,
    },
    /// A quantity that must be strictly positive and finite was not.
    NonPositive {
        /// Name of the offending parameter (e.g. `"mu"`, `"area"`).
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A quantity that must be finite was NaN or infinite.
    NotFinite {
        /// Name of the offending parameter.
        what: &'static str,
    },
    /// The sequential-core allocation `r` exceeds the total resources `n`.
    SequentialExceedsTotal {
        /// Sequential-core size in BCE.
        r: f64,
        /// Total resources in BCE.
        n: f64,
    },
    /// No feasible design exists under the given budgets.
    ///
    /// For example, the serial power bound `r^(α/2) ≤ P` may reject even
    /// the smallest sequential core, or the budgets leave no room for any
    /// parallel resources.
    Infeasible {
        /// Human-readable explanation of which bound failed.
        reason: String,
    },
    /// A U-core partition's area shares do not form a valid partition.
    InvalidPartition {
        /// Sum of the shares that was expected to be 1.
        share_sum: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidFraction { value } => {
                write!(f, "parallel fraction {value} is outside [0, 1]")
            }
            ModelError::NonPositive { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            ModelError::NotFinite { what } => {
                write!(f, "{what} must be finite")
            }
            ModelError::SequentialExceedsTotal { r, n } => {
                write!(f, "sequential core size r = {r} exceeds total resources n = {n}")
            }
            ModelError::Infeasible { reason } => {
                write!(f, "no feasible design: {reason}")
            }
            ModelError::InvalidPartition { share_sum } => {
                write!(f, "u-core area shares sum to {share_sum}, expected 1")
            }
        }
    }
}

impl Error for ModelError {}

/// A coarse classification of model errors, used by callers that handle
/// whole classes uniformly (e.g. the sweep engine treats every
/// `Infeasibility` as an expected `Outcome`, and everything else as a
/// validation failure at an ingress boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCategory {
    /// The input failed validation: out of range, non-finite, or
    /// structurally inconsistent. Retrying with the same input cannot
    /// succeed.
    InvalidInput,
    /// The input was valid but no feasible design exists under it — an
    /// expected, informative outcome of tight budgets.
    Infeasibility,
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorCategory::InvalidInput => "invalid input",
            ErrorCategory::Infeasibility => "infeasibility",
        })
    }
}

impl ModelError {
    /// Which [`ErrorCategory`] this error belongs to.
    pub fn category(&self) -> ErrorCategory {
        match self {
            ModelError::Infeasible { .. } => ErrorCategory::Infeasibility,
            ModelError::InvalidFraction { .. }
            | ModelError::NonPositive { .. }
            | ModelError::NotFinite { .. }
            | ModelError::SequentialExceedsTotal { .. }
            | ModelError::InvalidPartition { .. } => ErrorCategory::InvalidInput,
        }
    }
}

/// Validates that `value` is strictly positive and finite.
///
/// # Errors
///
/// [`ModelError::NotFinite`] or [`ModelError::NonPositive`] naming `what`.
pub(crate) fn ensure_positive(what: &'static str, value: f64) -> Result<f64, ModelError> {
    if !value.is_finite() {
        return Err(ModelError::NotFinite { what });
    }
    if value <= 0.0 {
        return Err(ModelError::NonPositive { what, value });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(ModelError, &str)> = vec![
            (ModelError::InvalidFraction { value: 1.5 }, "parallel fraction"),
            (
                ModelError::NonPositive { what: "mu", value: -1.0 },
                "mu must be positive",
            ),
            (ModelError::NotFinite { what: "phi" }, "phi must be finite"),
            (
                ModelError::SequentialExceedsTotal { r: 4.0, n: 2.0 },
                "exceeds total resources",
            ),
            (
                ModelError::Infeasible { reason: "serial power".into() },
                "no feasible design",
            ),
            (
                ModelError::InvalidPartition { share_sum: 0.5 },
                "shares sum to",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg:?}");
        }
    }

    #[test]
    fn ensure_positive_accepts_positive() {
        assert_eq!(ensure_positive("x", 2.5).unwrap(), 2.5);
    }

    #[test]
    fn ensure_positive_rejects_zero_negative_nan_inf() {
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_positive("x", -1.0).is_err());
        assert!(ensure_positive("x", f64::NAN).is_err());
        assert!(ensure_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
