//! Precision and pruner configuration types.

use crate::error::CoreError;
use crate::order::ScanOrder;

/// Fixed-point operand precision and its bit-chunk segmentation.
///
/// The paper stores attention operands as signed 12-bit integers and streams
/// key vectors from DRAM in three 4-bit chunks, most significant bits first
/// (§4: "The operand precision for self-attention is set to 12 bits,
/// segmented into three 4-bit chunks"). Both widths are configurable here so
/// the chunk-width ablation benches can sweep them.
///
/// # Examples
///
/// ```
/// use topick_core::PrecisionConfig;
///
/// let pc = PrecisionConfig::paper(); // 12-bit operands, 4-bit chunks
/// assert_eq!(pc.num_chunks(), 3);
/// assert_eq!(pc.unknown_bits_after(1), 8);
/// assert_eq!(pc.unknown_bits_after(3), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecisionConfig {
    total_bits: u32,
    chunk_bits: u32,
}

impl PrecisionConfig {
    /// Creates a precision configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPrecision`] unless `total_bits` is a
    /// positive multiple of `chunk_bits` and `total_bits <= 15` (values are
    /// stored in `i16`, keeping one bit of headroom for intermediate sums).
    pub fn new(total_bits: u32, chunk_bits: u32) -> Result<Self, CoreError> {
        let invalid = total_bits == 0
            || chunk_bits == 0
            || total_bits > 15
            || !total_bits.is_multiple_of(chunk_bits);
        if invalid {
            return Err(CoreError::InvalidPrecision {
                total_bits,
                chunk_bits,
            });
        }
        Ok(Self {
            total_bits,
            chunk_bits,
        })
    }

    /// The paper's configuration: 12-bit operands in three 4-bit chunks.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            total_bits: 12,
            chunk_bits: 4,
        }
    }

    /// Total operand width in bits (including the sign bit).
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Width of one bit chunk.
    #[must_use]
    pub fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    /// Number of chunks a full operand is split into.
    #[must_use]
    pub fn num_chunks(&self) -> u32 {
        self.total_bits / self.chunk_bits
    }

    /// Number of still-unknown low bits once `chunks_known` chunks have been
    /// received (chunks arrive MSB-first).
    ///
    /// # Panics
    ///
    /// Panics if `chunks_known` exceeds [`num_chunks`](Self::num_chunks).
    #[must_use]
    #[inline]
    pub fn unknown_bits_after(&self, chunks_known: u32) -> u32 {
        assert!(
            chunks_known <= self.num_chunks(),
            "chunks_known={chunks_known} exceeds num_chunks={}",
            self.num_chunks()
        );
        self.total_bits - chunks_known * self.chunk_bits
    }

    /// Largest representable value, `2^(total_bits-1) - 1`.
    #[must_use]
    pub fn max_value(&self) -> i16 {
        ((1i32 << (self.total_bits - 1)) - 1) as i16
    }

    /// Smallest representable value, `-2^(total_bits-1)`.
    #[must_use]
    pub fn min_value(&self) -> i16 {
        (-(1i32 << (self.total_bits - 1))) as i16
    }

    /// Bytes one bit chunk of a `dim`-wide row occupies.
    #[must_use]
    pub fn chunk_bytes(&self, dim: usize) -> u64 {
        (dim as u64 * u64::from(self.chunk_bits)).div_ceil(8)
    }

    /// Bytes one full-precision `dim`-wide row occupies.
    #[must_use]
    pub fn row_bytes(&self, dim: usize) -> u64 {
        (dim as u64 * u64::from(self.total_bits)).div_ceil(8)
    }

    /// The value contributed by `chunks_known` most-significant chunks of a
    /// two's-complement operand `v`, i.e. `v` with all unknown low bits
    /// cleared. The exact value then satisfies
    /// `known <= v <= known + 2^unknown_bits - 1` (Fig. 4b of the paper).
    #[must_use]
    pub fn known_value(&self, v: i16, chunks_known: u32) -> i32 {
        let sh = self.unknown_bits_after(chunks_known);
        ((i32::from(v)) >> sh) << sh
    }
}

impl Default for PrecisionConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Full configuration of the progressive pruner.
///
/// # Examples
///
/// ```
/// use topick_core::{PrunerConfig, ScanOrder};
///
/// let cfg = PrunerConfig::new(1e-3)?
///     .with_order(ScanOrder::FirstAndReverse);
/// assert_eq!(cfg.threshold(), 1e-3);
/// # Ok::<(), topick_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunerConfig {
    precision: PrecisionConfig,
    threshold: f64,
    order: ScanOrder,
}

impl PrunerConfig {
    /// Creates a pruner configuration with the paper's precision and the
    /// given probability threshold `thr`.
    ///
    /// Tokens whose conservatively estimated probability upper bound falls
    /// below `thr` are pruned.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidThreshold`] if `thr` is not in `(0, 1)`.
    pub fn new(threshold: f64) -> Result<Self, CoreError> {
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(CoreError::InvalidThreshold(threshold));
        }
        Ok(Self {
            precision: PrecisionConfig::paper(),
            threshold,
            order: ScanOrder::FirstAndReverse,
        })
    }

    /// Replaces the precision configuration.
    #[must_use]
    pub fn with_precision(mut self, precision: PrecisionConfig) -> Self {
        self.precision = precision;
        self
    }

    /// Replaces the scan order.
    #[must_use]
    pub fn with_order(mut self, order: ScanOrder) -> Self {
        self.order = order;
        self
    }

    /// The pruning threshold `thr`.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The fixed-point precision configuration.
    #[must_use]
    pub fn precision(&self) -> PrecisionConfig {
        self.precision
    }

    /// The scan order used for probing tokens.
    #[must_use]
    pub fn order(&self) -> ScanOrder {
        self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_12_4() {
        let pc = PrecisionConfig::paper();
        assert_eq!(pc.total_bits(), 12);
        assert_eq!(pc.chunk_bits(), 4);
        assert_eq!(pc.num_chunks(), 3);
        assert_eq!(pc.max_value(), 2047);
        assert_eq!(pc.min_value(), -2048);
    }

    #[test]
    fn rejects_non_multiple_widths() {
        assert!(PrecisionConfig::new(13, 4).is_err());
        assert!(PrecisionConfig::new(12, 0).is_err());
        assert!(PrecisionConfig::new(0, 4).is_err());
        assert!(PrecisionConfig::new(16, 4).is_err());
        assert!(PrecisionConfig::new(12, 4).is_ok());
        assert!(PrecisionConfig::new(12, 12).is_ok());
        assert!(PrecisionConfig::new(8, 2).is_ok());
    }

    #[test]
    fn known_value_clears_low_bits() {
        let pc = PrecisionConfig::paper();
        // 0b0111_1111_1111 = 2047; first chunk only keeps the top 4 bits.
        assert_eq!(pc.known_value(2047, 1), 0b0111_0000_0000);
        assert_eq!(pc.known_value(2047, 2), 0b0111_1111_0000);
        assert_eq!(pc.known_value(2047, 3), 2047);
        // Negative values round toward -inf (arithmetic shift), so the
        // unknown-bit contribution is always non-negative.
        assert_eq!(pc.known_value(-1, 1), -256);
        assert_eq!(pc.known_value(-1, 3), -1);
        assert_eq!(pc.known_value(-2048, 1), -2048);
    }

    #[test]
    fn known_value_brackets_exact() {
        let pc = PrecisionConfig::paper();
        for v in [-2048i16, -2047, -1024, -1, 0, 1, 7, 255, 1024, 2047] {
            for c in 1..=3 {
                let known = pc.known_value(v, c);
                let u = (1i32 << pc.unknown_bits_after(c)) - 1;
                assert!(known <= i32::from(v), "v={v} c={c}");
                assert!(i32::from(v) <= known + u, "v={v} c={c}");
            }
        }
    }

    #[test]
    fn threshold_validation() {
        assert!(PrunerConfig::new(0.0).is_err());
        assert!(PrunerConfig::new(1.0).is_err());
        assert!(PrunerConfig::new(-0.5).is_err());
        assert!(PrunerConfig::new(f64::NAN).is_err());
        assert!(PrunerConfig::new(1e-3).is_ok());
    }
}
