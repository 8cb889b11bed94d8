//! Progressive *value* fetching — the natural extension of Token-Picker's
//! bit-chunk idea to the V side (an extension beyond the paper, flagged in
//! DESIGN.md's ablation/extension list).
//!
//! After step 0, every surviving token has an exact probability `p_i`. The
//! attention output is `o = Σ p_i v_i`, so a token with small (but
//! above-threshold) probability contributes little: the error of truncating
//! `v_i` to its top `c` chunks is bounded by `p_i · u_c · scale` per
//! element, where `u_c = 2^unknown_bits − 1`. Given an element-wise output
//! error budget `ε`, each token therefore needs only
//! `min { c : p_i · u_c · scale ≤ ε_i }` chunks, with the per-token budgets
//! `ε_i` chosen so they sum to `ε`.
//!
//! This trades a guaranteed output-error bound for further V traffic
//! reduction, without revisiting the softmax.

use crate::config::PrecisionConfig;
use crate::error::CoreError;

/// How many V chunks each surviving token must fetch to keep the
/// element-wise attention-output error within a budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuePlan {
    /// `(token index, chunks to fetch)`, aligned with the input pairs.
    pub chunks_per_token: Vec<(usize, u32)>,
    precision: PrecisionConfig,
}

impl ValuePlan {
    /// Plans per-token V chunk counts for the given `(token, probability)`
    /// pairs.
    ///
    /// `value_scale` is the V quantization scale (`real ≈ code · scale`);
    /// `error_budget` is the maximum allowed element-wise output error
    /// (absolute, in real units), split equally across tokens.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidThreshold`] if `error_budget` is not
    /// positive and finite.
    pub fn compute(
        pairs: &[(usize, f64)],
        precision: PrecisionConfig,
        value_scale: f64,
        error_budget: f64,
    ) -> Result<Self, CoreError> {
        if !(error_budget > 0.0 && error_budget.is_finite()) {
            return Err(CoreError::InvalidThreshold(error_budget));
        }
        let n = pairs.len().max(1);
        let per_token = error_budget / n as f64;
        let num_chunks = precision.num_chunks();
        let chunks_per_token = pairs
            .iter()
            .map(|&(token, p)| {
                let mut need = num_chunks;
                for c in 1..=num_chunks {
                    let u = ((1i64 << precision.unknown_bits_after(c)) - 1) as f64;
                    if p * u * value_scale <= per_token {
                        need = c;
                        break;
                    }
                }
                (token, need)
            })
            .collect();
        Ok(Self {
            chunks_per_token,
            precision,
        })
    }

    /// Total V chunks fetched under this plan.
    #[must_use]
    fn total_chunks(&self) -> u64 {
        self.chunks_per_token
            .iter()
            .map(|&(_, c)| u64::from(c))
            .sum()
    }

    /// V bits fetched under this plan for head dimension `dim`.
    #[must_use]
    pub fn v_bits_fetched(&self, dim: usize) -> u64 {
        self.total_chunks() * dim as u64 * u64::from(self.precision.chunk_bits())
    }

    /// V bits a full-precision fetch of the same tokens would need.
    #[must_use]
    fn full_v_bits(&self, dim: usize) -> u64 {
        self.chunks_per_token.len() as u64 * dim as u64 * u64::from(self.precision.total_bits())
    }

    /// Additional V reduction over fetching survivors at full precision.
    #[must_use]
    pub fn extra_reduction(&self, dim: usize) -> f64 {
        let fetched = self.v_bits_fetched(dim);
        if fetched == 0 {
            return f64::INFINITY;
        }
        self.full_v_bits(dim) as f64 / fetched as f64
    }
}

/// Computes the attention output using only the planned V chunks, plus the
/// worst-case element-wise error bound of the plan.
///
/// `values` are quantized V codes (one row per *context* token, indexed by
/// the plan's token ids); returns `(output, error_bound)` in real units.
///
/// # Panics
///
/// Panics if a planned token index is out of range.
#[must_use]
pub fn truncated_weighted_sum(
    plan: &ValuePlan,
    pairs: &[(usize, f64)],
    values: &crate::quant::QMatrix,
) -> (Vec<f32>, f64) {
    let dim = values.dim();
    let pc = plan.precision;
    let scale = values.scale();
    let mut out = vec![0f64; dim];
    let mut bound = 0f64;
    for (&(token, chunks), &(token2, p)) in plan.chunks_per_token.iter().zip(pairs) {
        assert_eq!(token, token2, "plan/pairs misaligned");
        let row = values.row(token);
        for (o, &v) in out.iter_mut().zip(row) {
            let known = pc.known_value(v, chunks);
            *o += p * f64::from(known) * scale;
        }
        let u = ((1i64 << pc.unknown_bits_after(chunks)) - 1) as f64;
        bound += p * u * scale;
    }
    (out.into_iter().map(|v| v as f32).collect(), bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QMatrix;
    use crate::softmax::weighted_value_sum;

    fn setup(n: usize, dim: usize) -> (Vec<(usize, f64)>, QMatrix, Vec<f32>) {
        let pc = PrecisionConfig::paper();
        let rows: Vec<f32> = (0..n * dim)
            .map(|i| ((i / dim * 13 + i % dim * 7) % 19) as f32 / 9.5 - 1.0)
            .collect();
        let values = QMatrix::quantize_flat(&rows, dim, pc).unwrap();
        // Geometric-ish probability profile summing to 1.
        let mut probs: Vec<f64> = (0..n).map(|i| 0.5f64.powi(i as i32 + 1)).collect();
        let sum: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= sum;
        }
        let pairs: Vec<(usize, f64)> = probs.into_iter().enumerate().collect();
        (pairs, values, rows)
    }

    #[test]
    fn low_probability_tokens_need_fewer_chunks() {
        let (pairs, values, _) = setup(12, 8);
        let plan =
            ValuePlan::compute(&pairs, PrecisionConfig::paper(), values.scale(), 1e-2).unwrap();
        let first = plan.chunks_per_token[0].1;
        let last = plan.chunks_per_token.last().unwrap().1;
        assert!(first >= last, "dominant token {first} chunks < tail {last}");
        assert!(plan.extra_reduction(8) >= 1.0);
    }

    #[test]
    fn error_bound_is_respected() {
        let (pairs, values, rows) = setup(10, 8);
        let budget = 5e-2;
        let plan =
            ValuePlan::compute(&pairs, PrecisionConfig::paper(), values.scale(), budget).unwrap();
        let (approx, bound) = truncated_weighted_sum(&plan, &pairs, &values);
        assert!(
            bound <= budget + 1e-12,
            "bound {bound} exceeds budget {budget}"
        );
        let exact = weighted_value_sum(&pairs, crate::rows::Rows::new(&rows, 8));
        for (a, b) in approx.iter().zip(&exact) {
            // Quantization itself adds up to half an LSB per token; allow it.
            let slack = budget + values.scale();
            assert!(
                (f64::from(*a) - f64::from(*b)).abs() <= slack,
                "{a} vs {b} (bound {bound})"
            );
        }
    }

    #[test]
    fn tight_budget_fetches_everything() {
        let (pairs, values, _) = setup(6, 4);
        let plan =
            ValuePlan::compute(&pairs, PrecisionConfig::paper(), values.scale(), 1e-12).unwrap();
        let num_chunks = PrecisionConfig::paper().num_chunks();
        assert!(plan.chunks_per_token.iter().all(|&(_, c)| c == num_chunks));
        assert!((plan.extra_reduction(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loose_budget_fetches_one_chunk_each() {
        let (pairs, values, _) = setup(6, 4);
        let plan =
            ValuePlan::compute(&pairs, PrecisionConfig::paper(), values.scale(), 1e6).unwrap();
        assert!(plan.chunks_per_token.iter().all(|&(_, c)| c == 1));
        assert!(plan.extra_reduction(4) > 2.9);
    }

    #[test]
    fn invalid_budget_rejected() {
        let (pairs, values, _) = setup(4, 4);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                ValuePlan::compute(&pairs, PrecisionConfig::paper(), values.scale(), bad).is_err()
            );
        }
    }
}
