//! Attention backends: the exact reference and Token-Picker pruned — both
//! pluggable into the transformer forward pass through the unified
//! [`AttentionBackend`] trait.
//!
//! A backend consumes the KV cache through a borrowed [`KvView`] — two
//! contiguous row-major buffers — so no backend ever clones cache rows.
//! The Token-Picker backend keeps its scratch (the recycled key code
//! buffer and the pruner's working memory) alive across calls, making a
//! generation step allocation-light.

use std::fmt;

use topick_core::{
    softmax, weighted_value_sum, ProgressivePruner, PruneStats, PrunerConfig, PrunerScratch,
    QVector, QuantBuffer,
};

use crate::kvcache::KvView;
use crate::tensor::dot;

/// A per-head attention computation over a query and a borrowed KV view.
///
/// This is the single entry point every attention implementation in the
/// workspace plugs into: the functional kernels here, SpAtten's top-k
/// baseline, and the cycle-level accelerator simulator.
///
/// Backends accumulate access statistics internally so a whole generation
/// run can be audited afterwards via [`AttentionBackend::accumulated_stats`].
pub trait AttentionBackend: fmt::Debug {
    /// Computes the attention output `o = Σ p_i v_i` for one head.
    ///
    /// `q` has the head dimension; `kv` supplies the cached keys and
    /// values zero-copy.
    fn attend(&mut self, q: &[f32], kv: KvView<'_>) -> Vec<f32>;

    /// Runs every call of `batch` in call order and returns their outputs
    /// back to back: `batch.len() × batch.dim()` values, which is each
    /// token's heads concatenated. The default calls
    /// [`attend`](Self::attend) on each call in turn; an override must
    /// return the same outputs and leave the same accumulated state.
    fn attend_batch(&mut self, batch: &AttendBatch<'_>) -> Vec<f32> {
        let mut out = Vec::with_capacity(batch.len() * batch.dim());
        for i in 0..batch.len() {
            let (q, kv) = batch.call(i);
            out.extend(self.attend(q, kv));
        }
        out
    }

    /// Access statistics accumulated across all `attend` calls, if the
    /// backend tracks them.
    fn accumulated_stats(&self) -> Option<&PruneStats> {
        None
    }

    /// Resets accumulated statistics.
    fn reset_stats(&mut self) {}
}

/// One layer's attention calls over a run of tokens, in the order a
/// token-at-a-time forward pass makes them: token by token, and head by
/// head within a token.
///
/// The run's tokens sit at positions `context..context + tokens`, and every
/// head already holds their rows. Call `i` is head `i % heads` of token
/// `i / heads`: it attends `queries[i * dim..(i + 1) * dim]` over the first
/// `context + 1 + i / heads` rows of its head — its own token's row and
/// every row before it, never a later token's.
#[derive(Debug, Clone, Copy)]
pub struct AttendBatch<'a> {
    heads: &'a [KvView<'a>],
    queries: &'a [f32],
    context: usize,
}

impl<'a> AttendBatch<'a> {
    /// The calls of a run whose first token sits at position `context`,
    /// with each token's queries (`heads.len() × dim` values, heads
    /// concatenated) back to back in `queries`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty, the heads disagree in dimension,
    /// `queries` is not a whole number of tokens, or a head holds fewer
    /// rows than `context` plus one per token.
    #[must_use]
    pub fn new(heads: &'a [KvView<'a>], queries: &'a [f32], context: usize) -> Self {
        let dim = heads.first().expect("a batch needs a head").dim();
        assert!(
            heads.iter().all(|h| h.dim() == dim),
            "heads disagree in dimension"
        );
        assert_eq!(
            queries.len() % (heads.len() * dim),
            0,
            "queries are not a whole number of tokens"
        );
        let tokens = queries.len() / (heads.len() * dim);
        assert!(
            heads.iter().all(|h| h.len() >= context + tokens),
            "a head is missing rows of the run"
        );
        Self {
            heads,
            queries,
            context,
        }
    }

    /// Number of calls: tokens × heads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len() / self.dim()
    }

    /// Whether the run has no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Head dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.heads[0].dim()
    }

    /// Every head's rows, of which each call reads a prefix.
    #[must_use]
    pub fn heads(&self) -> &'a [KvView<'a>] {
        self.heads
    }

    /// Call `i`'s head and the number of that head's rows it reads.
    #[must_use]
    pub fn shape(&self, i: usize) -> (usize, usize) {
        let heads = self.heads.len();
        (i % heads, self.context + 1 + i / heads)
    }

    /// Call `i`: its query and the rows it attends over.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn call(&self, i: usize) -> (&'a [f32], KvView<'a>) {
        let (head, rows) = self.shape(i);
        let dim = self.dim();
        (
            &self.queries[i * dim..(i + 1) * dim],
            self.heads[head].prefix(rows),
        )
    }
}

/// Exact full-precision attention (the functional reference).
#[derive(Debug, Clone, Default)]
pub struct ExactAttention;

impl ExactAttention {
    /// Creates the exact backend.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl AttentionBackend for ExactAttention {
    fn attend(&mut self, q: &[f32], kv: KvView<'_>) -> Vec<f32> {
        assert!(!kv.is_empty(), "attention over empty cache");
        let scale = 1.0 / (kv.dim() as f32).sqrt();
        let scores: Vec<f64> = kv
            .keys()
            .iter()
            .map(|k| f64::from(dot(q, k) * scale))
            .collect();
        let probs = softmax(&scores);
        let mut out = vec![0.0f32; kv.dim()];
        for (&p, v) in probs.iter().zip(kv.values().iter()) {
            for (o, &vv) in out.iter_mut().zip(v) {
                *o += p as f32 * vv;
            }
        }
        out
    }
}

/// Token-Picker pruned attention: quantizes the query and cached keys, runs
/// the progressive pruner, and computes the output over survivors only.
#[derive(Debug, Clone)]
pub struct TokenPickerAttention {
    pruner: ProgressivePruner,
    stats: PruneStats,
    /// The recycled key-code allocation.
    keys: QuantBuffer,
    /// The pruner's working memory.
    scratch: PrunerScratch,
}

impl TokenPickerAttention {
    /// Creates a Token-Picker backend from a pruner configuration.
    #[must_use]
    pub fn new(cfg: PrunerConfig) -> Self {
        let num_chunks = cfg.precision().num_chunks();
        Self {
            pruner: ProgressivePruner::new(cfg),
            stats: PruneStats::new(0, num_chunks),
            keys: QuantBuffer::new(),
            scratch: PrunerScratch::new(),
        }
    }

    /// The underlying pruner configuration.
    #[must_use]
    pub fn config(&self) -> &PrunerConfig {
        self.pruner.config()
    }
}

impl AttentionBackend for TokenPickerAttention {
    fn attend(&mut self, q: &[f32], kv: KvView<'_>) -> Vec<f32> {
        let pc = self.pruner.config().precision();
        let qv = QVector::quantize(q, pc);
        let keys = self
            .keys
            .quantize(kv.keys().data(), kv.dim(), pc)
            .expect("non-empty cache");
        let outcome = self
            .pruner
            .run_with_scratch(&qv, &keys, &mut self.scratch)
            .expect("validated dims");
        self.stats.merge(&outcome.stats);
        self.keys.reclaim(keys);
        weighted_value_sum(&outcome.probability_pairs(), kv.values())
    }

    fn accumulated_stats(&self) -> Option<&PruneStats> {
        Some(&self.stats)
    }

    fn reset_stats(&mut self) {
        self.stats = PruneStats::new(0, self.pruner.config().precision().num_chunks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topick_core::{exact_probabilities, PrecisionConfig, QMatrix};

    use crate::kvcache::HeadCache;
    use crate::rng::normal_vec;

    fn random_cache(n: usize, dim: usize, seed: u64) -> (Vec<f32>, HeadCache) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = normal_vec(&mut rng, dim, 1.0);
        let mut cache = HeadCache::new(dim);
        for _ in 0..n {
            let k = normal_vec(&mut rng, dim, 1.0);
            let v = normal_vec(&mut rng, dim, 1.0);
            cache.push(&k, &v);
        }
        (q, cache)
    }

    #[test]
    fn exact_and_quantized_agree_closely() {
        let (q, cache) = random_cache(32, 16, 1);
        let a = ExactAttention::new().attend(&q, cache.view());
        // Exact attention over the quantized query and keys.
        let pc = PrecisionConfig::paper();
        let keys = QMatrix::quantize_flat(cache.view().keys().data(), 16, pc).unwrap();
        let probs = exact_probabilities(&QVector::quantize(&q, pc), &keys);
        let pairs: Vec<(usize, f64)> = probs.into_iter().enumerate().collect();
        let b = weighted_value_sum(&pairs, cache.view().values());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.05, "{x} vs {y}");
        }
    }

    #[test]
    fn token_picker_matches_exact_within_threshold_error() {
        let (q, cache) = random_cache(64, 16, 2);
        let mut exact = ExactAttention::new();
        let cfg = PrunerConfig::new(1e-4).unwrap();
        let mut tp = TokenPickerAttention::new(cfg);
        let a = exact.attend(&q, cache.view());
        let b = tp.attend(&q, cache.view());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.1, "{x} vs {y}");
        }
        let stats = tp.accumulated_stats().unwrap();
        assert_eq!(stats.tokens, 64);
    }

    #[test]
    fn stats_accumulate_across_calls() {
        let (q, cache) = random_cache(16, 8, 3);
        let mut tp = TokenPickerAttention::new(PrunerConfig::new(1e-3).unwrap());
        tp.attend(&q, cache.view());
        tp.attend(&q, cache.view());
        assert_eq!(tp.accumulated_stats().unwrap().tokens, 32);
        tp.reset_stats();
        assert_eq!(tp.accumulated_stats().unwrap().tokens, 0);
    }

    #[test]
    fn scratch_reuse_is_transparent_across_growing_caches() {
        // One backend instance driven over caches of different lengths must
        // agree with a fresh backend at every step (buffer reuse must never
        // leak state between calls).
        let cfg = PrunerConfig::new(1e-3).unwrap();
        let mut reused = TokenPickerAttention::new(cfg);
        for n in [8usize, 64, 16] {
            let (q, cache) = random_cache(n, 16, n as u64);
            let mut fresh = TokenPickerAttention::new(cfg);
            assert_eq!(
                reused.attend(&q, cache.view()),
                fresh.attend(&q, cache.view()),
                "divergence at n={n}"
            );
        }
    }
}
