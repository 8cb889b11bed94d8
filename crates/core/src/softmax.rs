//! Exact softmax / attention references used to validate the pruner.

use crate::quant::{QMatrix, QVector};
use crate::rows::Rows;

/// Numerically stable softmax over arbitrary real scores.
///
/// Returns an empty vector for empty input.
///
/// # Examples
///
/// ```
/// use topick_core::softmax;
///
/// let p = softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn softmax(scores: &[f64]) -> Vec<f64> {
    if scores.is_empty() {
        return Vec::new();
    }
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// The real-valued scale factor applied to integer scores:
/// `score_real = score_int · q_scale · k_scale / sqrt(d_h)`.
#[must_use]
pub fn score_scale(query: &QVector, keys: &QMatrix) -> f64 {
    query.scale() * keys.scale() / (keys.dim() as f64).sqrt()
}

/// Exact (unpruned) attention probabilities of a quantized query over a
/// quantized key set — the ground truth the estimator must never contradict.
///
/// # Panics
///
/// Panics if the query length differs from the key dimension.
#[must_use]
pub fn exact_probabilities(query: &QVector, keys: &QMatrix) -> Vec<f64> {
    assert_eq!(query.len(), keys.dim(), "query/key dimension mismatch");
    let scale = score_scale(query, keys);
    let scores: Vec<f64> = (0..keys.num_tokens())
        .map(|t| query.dot_codes(keys.row(t)) as f64 * scale)
        .collect();
    softmax(&scores)
}

/// Weighted sum of value rows: `o = Σ p_i · v_i` over the provided
/// `(token, probability)` pairs, reading the rows zero-copy through a
/// [`Rows`] view.
///
/// # Panics
///
/// Panics if a token index is out of range.
#[must_use]
pub fn weighted_value_sum(pairs: &[(usize, f64)], values: Rows<'_>) -> Vec<f32> {
    let mut out = vec![0f32; values.dim()];
    for &(token, p) in pairs {
        let row = values.row(token);
        for (o, &v) in out.iter_mut().zip(row) {
            *o += (p as f32) * v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecisionConfig;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.3, -2.0, 5.5, 0.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_handles_extreme_scores() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1] < 1e-300);
    }

    #[test]
    fn exact_probabilities_uniform_for_equal_keys() {
        let pc = PrecisionConfig::paper();
        let q = QVector::from_codes(vec![100, 50], 1.0, pc);
        let keys = QMatrix::from_codes(vec![10, 10, 10, 10], 2, 1.0, pc).unwrap();
        let p = exact_probabilities(&q, &keys);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_basic() {
        let values = [1.0f32, 0.0, 0.0, 2.0];
        let out = weighted_value_sum(&[(0, 0.25), (1, 0.75)], Rows::new(&values, 2));
        assert!((out[0] - 0.25).abs() < 1e-6);
        assert!((out[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn weighted_sum_empty_pairs_is_zero() {
        let values = [1.0f32, 1.0];
        let out = weighted_value_sum(&[], Rows::new(&values, 2));
        assert_eq!(out, vec![0.0, 0.0]);
    }
}
