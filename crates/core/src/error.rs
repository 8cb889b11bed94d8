//! Error types for the Token-Picker core crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the core Token-Picker algorithm.
///
/// Every fallible public function in this crate returns
/// [`Result<T, CoreError>`](CoreError).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A precision configuration was rejected.
    ///
    /// Produced by [`PrecisionConfig::new`](crate::PrecisionConfig::new) when
    /// `total_bits` is not a positive multiple of `chunk_bits`, or exceeds the
    /// 15-bit storage limit of the `i16` backing type.
    InvalidPrecision {
        /// Total operand width in bits.
        total_bits: u32,
        /// Bit-chunk width in bits.
        chunk_bits: u32,
    },
    /// A pruning threshold outside `(0, 1)` was supplied.
    InvalidThreshold(f64),
    /// Vector/matrix dimensions do not agree.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// An empty key set was supplied where at least one token is required.
    EmptyKeySet,
    /// A configuration field holds a value the model cannot run with; the
    /// message names the field and the rule it broke.
    InvalidConfig(&'static str),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidPrecision {
                total_bits,
                chunk_bits,
            } => write!(
                f,
                "invalid precision: total_bits={total_bits} must be a positive multiple of \
                 chunk_bits={chunk_bits} and at most 15"
            ),
            CoreError::InvalidThreshold(thr) => {
                write!(
                    f,
                    "pruning threshold {thr} is not in the open interval (0, 1)"
                )
            }
            CoreError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            CoreError::EmptyKeySet => write!(f, "key set contains no tokens"),
            CoreError::InvalidConfig(rule) => write!(f, "invalid configuration: {rule}"),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            CoreError::InvalidPrecision {
                total_bits: 13,
                chunk_bits: 4,
            },
            CoreError::InvalidThreshold(1.5),
            CoreError::DimensionMismatch {
                expected: 64,
                actual: 32,
            },
            CoreError::EmptyKeySet,
            CoreError::InvalidConfig("lanes must be positive"),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
