//! Perplexity evaluation — the paper's algorithm-quality metric (§5.1.1).
//!
//! The paper reports Wikitext-2 perplexity deltas (+0.05 for ToPick, +0.3
//! for ToPick-0.3, +0.5 for the Fig. 9 operating point). Without pretrained
//! weights we measure the same *mechanism* — how much attention pruning
//! perturbs next-token log-likelihood — on a teacher-generated synthetic
//! corpus: a seed model samples a corpus; the model's NLL on that corpus is
//! then evaluated under the exact kernel and under pruned kernels, and the
//! difference is the ΔPPL proxy used to calibrate thresholds.

use crate::attention::AttentionBackend;
use crate::kvcache::KvCache;
use crate::model::TransformerModel;

/// The result of one perplexity evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerplexityReport {
    /// Mean negative log-likelihood per predicted token (nats).
    pub mean_nll: f64,
    /// `exp(mean_nll)`.
    pub perplexity: f64,
    /// Number of predictions scored.
    pub tokens_scored: usize,
}

/// Generates a synthetic evaluation corpus by sampling from the model
/// itself at the given temperature (teacher generation).
///
/// # Panics
///
/// Panics if `len` exceeds the model's maximum context.
#[must_use]
pub fn teacher_corpus(model: &TransformerModel, len: usize, seed: u64) -> Vec<usize> {
    teacher_corpus_with_temperature(model, len, seed, 0.9)
}

/// Like [`teacher_corpus`] with an explicit sampling temperature; higher
/// temperatures yield a higher-entropy corpus (larger absolute perplexity),
/// making pruning-induced degradation easier to see.
///
/// # Panics
///
/// Panics if `len < 2` or `len` exceeds the model's maximum context.
#[must_use]
pub fn teacher_corpus_with_temperature(
    model: &TransformerModel,
    len: usize,
    seed: u64,
    temperature: f64,
) -> Vec<usize> {
    assert!(len >= 2, "corpus must have at least two tokens");
    let prompt = [1usize];
    let mut corpus = prompt.to_vec();
    let mut kernel = crate::attention::ExactAttention::new();
    corpus.extend(model.generate(&prompt, len - 1, temperature, seed, &mut kernel));
    corpus
}

/// Evaluates teacher-forced perplexity of `model` on `corpus` under the
/// given attention kernel.
///
/// Each position `t` scores `-ln p(corpus[t+1] | corpus[..=t])`.
///
/// # Panics
///
/// Panics if the corpus is shorter than two tokens or exceeds the maximum
/// context length.
#[must_use]
pub fn evaluate_perplexity(
    model: &TransformerModel,
    corpus: &[usize],
    kernel: &mut dyn AttentionBackend,
) -> PerplexityReport {
    assert!(corpus.len() >= 2, "corpus must have at least two tokens");
    let spec = model.spec();
    assert!(
        corpus.len() <= spec.max_context,
        "corpus exceeds max context"
    );
    let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
    let mut total_nll = 0.0f64;
    let mut scored = 0usize;
    for t in 0..corpus.len() - 1 {
        let logits = model.decode_step(corpus[t], &mut cache, kernel);
        let target = corpus[t + 1];
        total_nll += nll_from_logits(&logits, target);
        scored += 1;
    }
    let mean_nll = total_nll / scored as f64;
    PerplexityReport {
        mean_nll,
        perplexity: mean_nll.exp(),
        tokens_scored: scored,
    }
}

/// `-ln softmax(logits)[target]`, computed stably in the log domain.
///
/// # Panics
///
/// Panics if `target` is out of range.
#[must_use]
pub fn nll_from_logits(logits: &[f32], target: usize) -> f64 {
    assert!(target < logits.len(), "target out of range");
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let lse: f64 = logits
        .iter()
        .map(|&l| f64::from(l - max).exp())
        .sum::<f64>()
        .ln()
        + f64::from(max);
    lse - f64::from(logits[target])
}

/// Convenience: ΔPPL of a pruned kernel relative to the exact kernel on the
/// same corpus.
#[must_use]
pub fn delta_ppl(
    model: &TransformerModel,
    corpus: &[usize],
    pruned: &mut dyn AttentionBackend,
) -> f64 {
    let mut exact = crate::attention::ExactAttention::new();
    let base = evaluate_perplexity(model, corpus, &mut exact);
    let test = evaluate_perplexity(model, corpus, pruned);
    test.perplexity - base.perplexity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::{ExactAttention, TokenPickerAttention};
    use crate::specs::ModelSpec;
    use topick_core::PrunerConfig;

    #[test]
    fn nll_matches_manual_softmax() {
        let logits = [1.0f32, 2.0, 0.5];
        let p = topick_core::softmax(&[1.0, 2.0, 0.5]);
        for (t, &pt) in p.iter().enumerate() {
            let direct = -pt.ln();
            assert!((nll_from_logits(&logits, t) - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_perplexity_is_reproducible() {
        let model = TransformerModel::new_random(ModelSpec::toy(), 2);
        let corpus = teacher_corpus(&model, 24, 0);
        let mut k1 = ExactAttention::new();
        let mut k2 = ExactAttention::new();
        let a = evaluate_perplexity(&model, &corpus, &mut k1);
        let b = evaluate_perplexity(&model, &corpus, &mut k2);
        assert_eq!(a, b);
        assert_eq!(a.tokens_scored, 23);
        assert!(a.perplexity.is_finite() && a.perplexity > 1.0);
    }

    #[test]
    fn tight_threshold_has_negligible_delta_ppl() {
        let model = TransformerModel::new_random(ModelSpec::toy(), 4);
        let corpus = teacher_corpus(&model, 24, 1);
        let mut tp = TokenPickerAttention::new(PrunerConfig::new(1e-7).unwrap());
        let d = delta_ppl(&model, &corpus, &mut tp);
        assert!(d.abs() < 0.5, "delta ppl {d} too large for thr=1e-7");
    }

    #[test]
    fn looser_threshold_does_not_decrease_pruning() {
        let model = TransformerModel::new_random(ModelSpec::toy(), 4);
        let corpus = teacher_corpus(&model, 24, 1);
        let mut tight = TokenPickerAttention::new(PrunerConfig::new(1e-6).unwrap());
        let mut loose = TokenPickerAttention::new(PrunerConfig::new(1e-2).unwrap());
        let _ = evaluate_perplexity(&model, &corpus, &mut tight);
        let _ = evaluate_perplexity(&model, &corpus, &mut loose);
        let kt = tight.accumulated_stats().unwrap().kept;
        let kl = loose.accumulated_stats().unwrap().kept;
        assert!(kl <= kt, "loose kept {kl} > tight kept {kt}");
    }
}
