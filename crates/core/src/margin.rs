//! Conservative score margins from partial bit chunks (paper §3.1, Fig. 4b).
//!
//! With only the top `c` chunks of a key known, each key element `k_j`
//! satisfies `known(k_j) <= k_j <= known(k_j) + u` where
//! `u = 2^unknown_bits - 1` (two's complement: all bits except the sign bit
//! contribute non-negatively, and the sign bit is in the first chunk).
//! For the dot product `s = Σ q_j k_j` this brackets the exact score:
//!
//! ```text
//! ps + M_min <= s <= ps + M_max
//! M_max = u · Σ_{q_j > 0} q_j      (unknown bits set to 1 where they help)
//! M_min = u · Σ_{q_j < 0} q_j      (unknown bits set to 1 where they hurt)
//! ```
//!
//! Crucially the margin pair per chunk index depends *only on the query*, so
//! the hardware's Margin Generator computes all pairs once per generation
//! step before any key arrives.

use crate::config::PrecisionConfig;

/// A `(min, max)` additive margin bracketing the exact integer score around
/// a partial score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MarginPair {
    /// Lower additive margin (`<= 0`).
    pub min: i64,
    /// Upper additive margin (`>= 0`).
    pub max: i64,
}

/// Margin pairs for every chunk depth, derived solely from a query vector.
///
/// Index `c - 1` holds the pair valid when `c` chunks of the key are known;
/// at full depth (`c = num_chunks`) both margins are zero.
///
/// # Examples
///
/// ```
/// use topick_core::{MarginTable, PrecisionConfig, QVector};
///
/// let pc = PrecisionConfig::paper();
/// let q = QVector::from_codes(vec![100, -50, 25], 1.0, pc);
/// let table = MarginTable::from_query(&q);
/// let m1 = table.pair(1);
/// assert!(m1.max > 0 && m1.min < 0);
/// let m3 = table.pair(3);
/// assert_eq!((m3.min, m3.max), (0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginTable {
    pairs: Vec<MarginPair>,
    precision: PrecisionConfig,
}

impl MarginTable {
    /// Computes the margin table for a query (the hardware Margin Generator).
    #[must_use]
    pub fn from_query(query: &crate::quant::QVector) -> Self {
        Self::from_query_codes(query.codes(), query.precision())
    }

    /// Computes the margin table from raw query codes.
    #[must_use]
    pub fn from_query_codes(codes: &[i16], precision: PrecisionConfig) -> Self {
        let pos_sum: i64 = codes
            .iter()
            .filter(|&&q| q > 0)
            .map(|&q| i64::from(q))
            .sum();
        let neg_sum: i64 = codes
            .iter()
            .filter(|&&q| q < 0)
            .map(|&q| i64::from(q))
            .sum();
        let pairs = (1..=precision.num_chunks())
            .map(|c| {
                let u = (1i64 << precision.unknown_bits_after(c)) - 1;
                MarginPair {
                    min: neg_sum * u,
                    max: pos_sum * u,
                }
            })
            .collect();
        Self { pairs, precision }
    }

    /// The margin pair valid when `chunks_known` chunks of the key are known.
    ///
    /// # Panics
    ///
    /// Panics if `chunks_known` is zero or exceeds the chunk count.
    #[must_use]
    #[inline]
    pub fn pair(&self, chunks_known: u32) -> MarginPair {
        assert!(
            chunks_known >= 1 && chunks_known <= self.pairs.len() as u32,
            "chunks_known={chunks_known} out of range 1..={}",
            self.pairs.len()
        );
        self.pairs[(chunks_known - 1) as usize]
    }

    /// All margin pairs, index `c-1` for `c` chunks known.
    #[must_use]
    pub fn pairs(&self) -> &[MarginPair] {
        &self.pairs
    }

    /// The precision configuration the table was built for.
    #[must_use]
    pub fn precision(&self) -> PrecisionConfig {
        self.precision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QVector;

    #[test]
    fn margins_shrink_with_depth_and_vanish_at_full() {
        let pc = PrecisionConfig::paper();
        let q = QVector::from_codes(vec![500, -300, 7, -1], 1.0, pc);
        let t = MarginTable::from_query(&q);
        let m1 = t.pair(1);
        let m2 = t.pair(2);
        let m3 = t.pair(3);
        assert!(m1.max > m2.max && m2.max > m3.max);
        assert!(m1.min < m2.min && m2.min < m3.min);
        assert_eq!((m3.min, m3.max), (0, 0));
    }

    #[test]
    fn margins_bracket_exact_score_exhaustive_small() {
        // 4-bit operands with 2-bit chunks: exhaustively verify the bracket
        // for all (q, k) pairs in range.
        let pc = PrecisionConfig::new(4, 2).unwrap();
        for qv in pc.min_value()..=pc.max_value() {
            let q = QVector::from_codes(vec![qv], 1.0, pc);
            let t = MarginTable::from_query(&q);
            for kv in pc.min_value()..=pc.max_value() {
                let exact = q.dot_codes(&[kv]);
                for c in 1..=pc.num_chunks() {
                    let ps = q.dot_known(&[kv], c);
                    let m = t.pair(c);
                    assert!(
                        ps + m.min <= exact && exact <= ps + m.max,
                        "q={qv} k={kv} c={c}: {} <= {exact} <= {}",
                        ps + m.min,
                        ps + m.max
                    );
                }
            }
        }
    }

    #[test]
    fn paper_fig4b_example() {
        // Fig. 4b uses 6-bit operands (bit weights -2^3 .. 2^-2 — the binary
        // point is irrelevant to the integer bracket). With 2 of 6 bits
        // known, the remaining 4 bits contribute [0, 15] per element.
        let pc = PrecisionConfig::new(6, 2).unwrap();
        let q = QVector::from_codes(vec![10, -5], 1.0, pc);
        let t = MarginTable::from_query(&q);
        let m = t.pair(1);
        assert_eq!(m.max, 10 * 15);
        assert_eq!(m.min, -5 * 15);
        let m2 = t.pair(2);
        assert_eq!(m2.max, 10 * 3);
        assert_eq!(m2.min, -5 * 3);
    }

    #[test]
    fn zero_query_has_zero_margins() {
        let pc = PrecisionConfig::paper();
        let q = QVector::from_codes(vec![0; 16], 1.0, pc);
        let t = MarginTable::from_query(&q);
        for c in 1..=3 {
            assert_eq!(t.pair(c), MarginPair { min: 0, max: 0 });
        }
    }
}
