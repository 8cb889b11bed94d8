//! A from-scratch decoder-only transformer with pluggable attention
//! kernels — the substrate standing in for the paper's HuggingFace models.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::attention::{AttendBatch, AttentionBackend};
use crate::kvcache::{HeadCache, KvCache, KvView};
use crate::layers::{Embedding, FeedForward, LayerNorm, Linear};
use crate::specs::ModelSpec;
use crate::tensor::add_assign;

/// KV storage the resumable decode path writes into and attends over.
///
/// The model's forward pass only ever needs two storage operations: append
/// one token's key/value rows to a `(layer, head)`, and attend a run of
/// tokens at one layer over what is cached. Abstracting those two behind
/// this trait lets the *same* pass run over the contiguous per-request
/// [`KvCache`] and over [`PagedKvBinding`](crate::PagedKvBinding), whose
/// rows live in a shared copy-on-write
/// [`PagedKvStore`](crate::PagedKvStore) — which is how a serving batch
/// physically shares system-prompt KV while the model code stays
/// oblivious.
pub trait DecodeKv {
    /// Number of tokens whose K/V rows are currently materialised. The
    /// next [`decode_step`](TransformerModel::decode_step) appends at
    /// exactly this position.
    fn context_len(&self) -> usize;

    /// Appends one token's key and value rows for `(layer, head)`.
    fn push_row(&mut self, layer: usize, head: usize, key: &[f32], value: &[f32]);

    /// Runs `kernel` over every call of a run at `layer` whose first token
    /// sits at position `context` and whose rows are already pushed:
    /// `queries` holds each token's queries, heads concatenated, and the
    /// result is each token's attention outputs the same way (see
    /// [`AttendBatch`]).
    fn attend_run(
        &mut self,
        layer: usize,
        context: usize,
        queries: &[f32],
        kernel: &mut dyn AttentionBackend,
    ) -> Vec<f32>;
}

impl DecodeKv for KvCache {
    fn context_len(&self) -> usize {
        KvCache::context_len(self)
    }

    fn push_row(&mut self, layer: usize, head: usize, key: &[f32], value: &[f32]) {
        self.head_mut(layer, head).push(key, value);
    }

    /// Each head's rows are contiguous, so every call reads a prefix view
    /// of them: nothing is copied.
    fn attend_run(
        &mut self,
        layer: usize,
        context: usize,
        queries: &[f32],
        kernel: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        let heads: Vec<KvView<'_>> = self.layer(layer).iter().map(HeadCache::view).collect();
        kernel.attend_batch(&AttendBatch::new(&heads, queries, context))
    }
}

/// One decoder layer's weights.
#[derive(Debug, Clone)]
struct DecoderLayer {
    ln1: LayerNorm,
    ln2: LayerNorm,
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    w_o: Linear,
    ffn: FeedForward,
}

/// A decoder-only transformer language model with KV caching.
///
/// Weights are deterministic pseudo-random (there is no pretraining in this
/// reproduction; see DESIGN.md §2 for why that is sufficient). The QK
/// projections use an enlarged gain so attention distributions are peaky,
/// mimicking trained-model behaviour.
///
/// # Examples
///
/// ```
/// use topick_model::{ExactAttention, KvCache, ModelSpec, TransformerModel};
///
/// let spec = ModelSpec::toy();
/// let model = TransformerModel::new_random(spec.clone(), 42);
/// let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
/// let mut kernel = ExactAttention::new();
/// let logits = model.decode_step(5, &mut cache, &mut kernel);
/// assert_eq!(logits.len(), spec.vocab);
/// ```
#[derive(Debug, Clone)]
pub struct TransformerModel {
    spec: ModelSpec,
    token_emb: Embedding,
    pos_emb: Embedding,
    layers: Vec<DecoderLayer>,
    ln_f: LayerNorm,
}

impl TransformerModel {
    /// Builds a model with deterministic random weights from `seed`.
    #[must_use]
    pub fn new_random(spec: ModelSpec, seed: u64) -> Self {
        let d = spec.d_model;
        // Larger QK gain -> larger score variance -> peaky softmax, like
        // trained LLMs (scores routinely span tens of nats; see Fig. 3).
        let qk_sigma = 2.0;
        let layers = (0..spec.n_layers)
            .map(|l| {
                let s = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(l as u64);
                DecoderLayer {
                    ln1: LayerNorm::new(d),
                    ln2: LayerNorm::new(d),
                    w_q: Linear::new_random(d, d, qk_sigma, s ^ 0xA),
                    w_k: Linear::new_random(d, d, qk_sigma, s ^ 0xB),
                    w_v: Linear::new_random(d, d, 1.0, s ^ 0xC),
                    w_o: Linear::new_random(d, d, 0.5, s ^ 0xD),
                    ffn: FeedForward::new_random(d, spec.d_ff, s ^ 0xE),
                }
            })
            .collect();
        Self {
            token_emb: Embedding::new_random(spec.vocab, d, 0.5, seed ^ 0xF00D),
            pos_emb: Embedding::new_random(spec.max_context, d, 0.1, seed ^ 0xBEEF),
            layers,
            ln_f: LayerNorm::new(d),
            spec,
        }
    }

    /// The architectural spec.
    #[must_use]
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The one forward pass, behind [`decode_step`](Self::decode_step)
    /// and [`prefill`](Self::prefill):
    /// feeds the run `tokens` at the storage's current context length, one
    /// layer at a time, and returns the logits after the last token.
    ///
    /// At each layer every token's K/V rows are pushed first, then the
    /// layer's `tokens × heads` attention calls go to the kernel as one
    /// batch, each reading its own token's rows and those before them — so
    /// every row and every call's output are those of feeding the tokens
    /// one at a time. W_o and the FFN follow per token; only the last token
    /// gets LN_f and logits.
    fn forward_run(
        &self,
        tokens: &[usize],
        kv: &mut dyn DecodeKv,
        kernel: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        assert!(!tokens.is_empty(), "a forward run needs at least one token");
        let context = kv.context_len();
        assert!(
            context + tokens.len() <= self.spec.max_context,
            "position beyond max context"
        );
        let d = self.spec.d_model;
        let hd = self.spec.head_dim();

        let mut hs: Vec<Vec<f32>> = tokens
            .iter()
            .zip(context..)
            .map(|(&token, pos)| {
                assert!(token < self.spec.vocab, "token id out of vocabulary");
                let mut h = self.token_emb.lookup(token).to_vec();
                add_assign(&mut h, self.pos_emb.lookup(pos));
                h
            })
            .collect();
        let mut queries = Vec::with_capacity(tokens.len() * d);

        for (li, layer) in self.layers.iter().enumerate() {
            // Self-attention sublayer: every token's rows, then one batch.
            queries.clear();
            for h in &hs {
                let x = layer.ln1.forward(h);
                let k = layer.w_k.forward(&x);
                let v = layer.w_v.forward(&x);
                for head in 0..self.spec.n_heads {
                    let range = head * hd..(head + 1) * hd;
                    kv.push_row(li, head, &k[range.clone()], &v[range]);
                }
                queries.extend(layer.w_q.forward(&x));
            }
            let attn = kv.attend_run(li, context, &queries, kernel);
            for (h, attn_cat) in hs.iter_mut().zip(attn.chunks_exact(d)) {
                let attn_out = layer.w_o.forward(attn_cat);
                add_assign(h, &attn_out);

                // Feed-forward sublayer.
                let x2 = layer.ln2.forward(h);
                let ffn_out = layer.ffn.forward(&x2);
                add_assign(h, &ffn_out);
            }
        }

        let hf = self.ln_f.forward(hs.last().expect("non-empty run"));
        self.token_emb.tied_logits(&hf)
    }

    /// Resumable prefill: feeds `tokens` starting at the storage's
    /// current context length and returns the logits after the last one.
    /// On empty storage this is ordinary prompt ingestion; on non-empty
    /// storage it extends the cached context (e.g. rebuilding the suffix
    /// a preemption dropped). The logits, every cached row and every
    /// attention call are those of [`decode_step`](Self::decode_step) on
    /// each token in turn; the calls reach the kernel one layer at a time.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, a token is outside the vocabulary, or
    /// the run would pass the maximum context.
    pub fn prefill(
        &self,
        tokens: &[usize],
        kv: &mut dyn DecodeKv,
        kernel: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        assert!(!tokens.is_empty(), "prefill needs at least one token");
        self.forward_run(tokens, kv, kernel)
    }

    /// One resumable decode step: appends `token` at the storage's
    /// current context length and returns next-token logits. Unlike
    /// [`generate`](Self::generate), the caller owns the KV storage, so
    /// decoding can stop, be truncated or swapped, and resume later.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the storage already
    /// holds the maximum context.
    pub fn decode_step(
        &self,
        token: usize,
        kv: &mut dyn DecodeKv,
        kernel: &mut dyn AttentionBackend,
    ) -> Vec<f32> {
        self.forward_run(&[token], kv, kernel)
    }

    /// Autoregressive generation: feeds `prompt`, then samples `steps`
    /// tokens greedily (argmax) or with temperature via `temperature > 0`.
    ///
    /// Returns the generated continuation (not including the prompt).
    /// This is a thin wrapper over [`prefill`](Self::prefill) and
    /// [`decode_step`](Self::decode_step) against a private [`KvCache`];
    /// the sampled tokens are byte-identical to the pre-resumable
    /// implementation (pinned by seeded goldens). Unlike that
    /// implementation, the final sampled token *is* forwarded into the
    /// cache, so a caller-owned storage left behind by the resumable path
    /// can continue generating from where this stopped.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or the total length exceeds the
    /// maximum context.
    pub fn generate(
        &self,
        prompt: &[usize],
        steps: usize,
        temperature: f64,
        seed: u64,
        kernel: &mut dyn AttentionBackend,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(
            prompt.len() + steps <= self.spec.max_context,
            "sequence exceeds max context"
        );
        let mut cache = KvCache::new(self.spec.n_layers, self.spec.n_heads, self.spec.head_dim());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut logits = self.prefill(prompt, &mut cache, kernel);
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = sample_token(&logits, temperature, &mut rng);
            out.push(next);
            logits = self.decode_step(next, &mut cache, kernel);
        }
        out
    }
}

/// The greedy sampling decision: the index of the maximal logit, with
/// ties broken toward the highest index. This *is* the temperature-0 path
/// of [`TransformerModel::generate`]'s sampler (they share this function),
/// so greedy serving paths that argmax directly can never drift from
/// `generate`'s tie-breaking.
///
/// # Panics
///
/// Panics if `logits` is empty.
#[must_use]
pub fn argmax_token(logits: &[f32]) -> usize {
    assert!(!logits.is_empty(), "empty logits");
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .expect("non-empty")
        .0
}

/// Samples a token from logits: argmax when `temperature == 0` (via
/// [`argmax_token`]), otherwise softmax sampling at the given
/// temperature.
///
/// # Panics
///
/// Panics if `logits` is empty.
#[must_use]
fn sample_token<R: Rng + ?Sized>(logits: &[f32], temperature: f64, rng: &mut R) -> usize {
    assert!(!logits.is_empty(), "empty logits");
    if temperature <= 0.0 {
        return argmax_token(logits);
    }
    let scaled: Vec<f64> = logits.iter().map(|&l| f64::from(l) / temperature).collect();
    let probs = topick_core::softmax(&scaled);
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::{ExactAttention, TokenPickerAttention};
    use topick_core::PrunerConfig;

    #[test]
    fn forward_shapes_and_cache_growth() {
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec.clone(), 1);
        let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
        let mut kernel = ExactAttention::new();
        let l0 = model.decode_step(1, &mut cache, &mut kernel);
        assert_eq!(l0.len(), spec.vocab);
        assert_eq!(cache.context_len(), 1);
        let _ = model.decode_step(2, &mut cache, &mut kernel);
        assert_eq!(cache.context_len(), 2);
    }

    #[test]
    fn generation_is_deterministic_greedy() {
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec, 7);
        let mut k1 = ExactAttention::new();
        let mut k2 = ExactAttention::new();
        let a = model.generate(&[1, 2, 3], 8, 0.0, 0, &mut k1);
        let b = model.generate(&[1, 2, 3], 8, 0.0, 0, &mut k2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn pruned_generation_tracks_exact_generation() {
        // With a tight threshold, Token-Picker generation should match the
        // exact kernel's greedy outputs for a good number of steps.
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec, 3);
        let mut exact = ExactAttention::new();
        let mut tp = TokenPickerAttention::new(PrunerConfig::new(1e-6).unwrap());
        let a = model.generate(&[5, 6], 6, 0.0, 0, &mut exact);
        let b = model.generate(&[5, 6], 6, 0.0, 0, &mut tp);
        assert_eq!(a, b, "tight-threshold pruning changed greedy outputs");
    }

    /// Seeded goldens captured from the pre-resumable `generate`
    /// implementation: the refactor onto `prefill`/`decode_step` must
    /// reproduce these byte-identically.
    #[test]
    fn generate_matches_pre_refactor_goldens() {
        let m7 = TransformerModel::new_random(ModelSpec::toy(), 7);
        let mut k = ExactAttention::new();
        assert_eq!(
            m7.generate(&[1, 2, 3], 8, 0.0, 0, &mut k),
            vec![3, 3, 3, 3, 50, 50, 50, 50]
        );
        let m3 = TransformerModel::new_random(ModelSpec::toy(), 3);
        let mut k = ExactAttention::new();
        assert_eq!(m3.generate(&[5, 6], 6, 0.0, 0, &mut k), vec![6; 6]);
        // Temperature sampling threads through the same RNG stream.
        let m11 = TransformerModel::new_random(ModelSpec::toy(), 11);
        let mut k = ExactAttention::new();
        assert_eq!(m11.generate(&[9, 8, 7, 6], 10, 0.8, 5, &mut k), vec![6; 10]);
    }

    /// The resumable API can stop mid-generation and continue on the same
    /// caller-owned cache, reproducing an uninterrupted greedy run — the
    /// capability the old `generate` (throwaway cache, final token never
    /// forwarded) could not offer.
    #[test]
    fn decode_resumes_mid_sequence_exactly() {
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec.clone(), 7);
        let mut k = ExactAttention::new();
        let full = model.generate(&[1, 2, 3], 8, 0.0, 0, &mut k);

        let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
        let mut k = ExactAttention::new();
        let mut logits = model.prefill(&[1, 2, 3], &mut cache, &mut k);
        let mut out = Vec::new();
        for _ in 0..3 {
            let next = sample_token(&logits, 0.0, &mut StdRng::seed_from_u64(0));
            out.push(next);
            logits = model.decode_step(next, &mut cache, &mut k);
        }
        // "Pause": the cache already holds prompt + 3 generated tokens.
        assert_eq!(cache.context_len(), 3 + 3);
        // Resume on the same cache for the remaining 5 steps.
        for _ in 0..5 {
            let next = sample_token(&logits, 0.0, &mut StdRng::seed_from_u64(0));
            out.push(next);
            logits = model.decode_step(next, &mut cache, &mut k);
        }
        assert_eq!(out, full);
    }

    /// `prefill` extends a non-empty cache from its current frontier —
    /// truncate-then-reprefill lands on the exact same logits.
    #[test]
    fn prefill_extends_a_truncated_cache_exactly() {
        let spec = ModelSpec::toy();
        let model = TransformerModel::new_random(spec.clone(), 5);
        let tokens = [4usize, 9, 2, 7, 1, 8];

        let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
        let mut k = ExactAttention::new();
        let full = model.prefill(&tokens, &mut cache, &mut k);

        cache.truncate(2);
        let mut k = ExactAttention::new();
        let rebuilt = model.prefill(&tokens[2..], &mut cache, &mut k);
        assert_eq!(rebuilt, full);
        assert_eq!(cache.context_len(), tokens.len());
    }

    #[test]
    fn sample_token_respects_temperature_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_token(&[0.0, 5.0, 1.0], 0.0, &mut rng), 1);
    }
}
