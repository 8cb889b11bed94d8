//! Synthetic attention workloads with realistic score distributions.
//!
//! We do not have the paper's pretrained models; what drives every access
//! experiment is the *distribution of attention scores*, so this module
//! generates (query, keys, values) triples whose scores follow a controlled
//! profile:
//!
//! * **Locality** (Fig. 4a): recent tokens receive an exponentially decaying
//!   recency boost; the first token (attention sink) receives its own boost.
//! * **Heavy-tailed background**: remaining tokens draw Gaussian scores whose
//!   spread varies *per instance* (Fig. 3: in one instance 4.6% of tokens are
//!   dominant, in another 23.5%).
//!
//! Keys are constructed so the quantized dot products hit the target scores
//! exactly up to quantization error: `k_i = r_i + ((s_i·√d − q·r_i)/‖q‖²)·q`
//! for a random residual `r_i ⊥`-ish to `q`.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use topick_core::Rows;

use crate::rng::{extend_normal, normal_vec, standard_normal};
use crate::tensor::dot;

/// Parameters of the synthetic score profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthProfile {
    /// Context length (number of cached tokens).
    pub context_len: usize,
    /// Head dimension.
    pub dim: usize,
    /// Mean of the background score distribution (nats).
    pub score_mean: f64,
    /// Standard deviation of background scores. Larger spread ⇒ fewer
    /// dominant tokens after softmax (paper Fig. 3).
    pub score_std: f64,
    /// Additive boost for the most recent tokens.
    pub locality_strength: f64,
    /// Exponential decay length (tokens) of the recency boost.
    pub locality_decay: f64,
    /// Additive boost for the first token (attention sink).
    pub sink_strength: f64,
}

impl SynthProfile {
    /// A profile matching measured LLM attention at a given context length:
    /// noticeable recency locality, a strong sink, and a background spread
    /// that leaves a few percent of tokens dominant.
    #[must_use]
    pub fn realistic(context_len: usize, dim: usize) -> Self {
        Self {
            context_len,
            dim,
            score_mean: 0.0,
            score_std: 2.5,
            locality_strength: 4.0,
            locality_decay: 8.0,
            sink_strength: 3.0,
        }
    }

    /// A profile with a *wide* score spread — few dominant tokens
    /// (instance A in Fig. 3).
    #[must_use]
    pub fn wide_spread(context_len: usize, dim: usize) -> Self {
        Self {
            score_std: 3.5,
            ..Self::realistic(context_len, dim)
        }
    }

    /// A profile with a *narrow* score spread — many dominant tokens
    /// (instance B in Fig. 3).
    #[must_use]
    pub fn narrow_spread(context_len: usize, dim: usize) -> Self {
        Self {
            score_std: 1.2,
            locality_strength: 2.0,
            sink_strength: 1.5,
            ..Self::realistic(context_len, dim)
        }
    }

    /// Samples a raw score vector only (no key construction) — enough for
    /// access simulators that consume scores directly, such as the SpAtten
    /// cascade model.
    #[must_use]
    pub fn sample_scores(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0E_5EED);
        (0..self.context_len)
            .map(|i| self.deterministic_boost(i) + self.score_std * standard_normal(&mut rng))
            .collect()
    }

    /// Target score for token `i` of `n` before the Gaussian term.
    #[must_use]
    pub fn deterministic_boost(&self, i: usize) -> f64 {
        let n = self.context_len;
        let recency = (n - 1 - i) as f64;
        let mut s =
            self.score_mean + self.locality_strength * (-recency / self.locality_decay).exp();
        if i == 0 {
            s += self.sink_strength;
        }
        s
    }
}

/// The half of a synthetic instance that decides what an attention step
/// *costs*: the query, the target scores and the keys realizing them —
/// everything [`SynthInstance::generate`] draws before the value matrix,
/// bit for bit (values come last in the seed's stream and feed only the
/// output vector).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthKeys {
    /// The query vector (head dimension).
    pub query: Vec<f32>,
    /// Key rows, `n × dim` row-major.
    keys: Vec<f32>,
    dim: usize,
    /// The scores the construction targeted (after `1/sqrt(d)` scaling).
    pub target_scores: Vec<f64>,
}

/// Appends the key rows realizing `scores` to `keys`: each a small random
/// residual `r` projected onto its score, `k = r + ((s·√d − q·r)/‖q‖²)·q`.
fn fill_rows(rng: &mut StdRng, query: &[f32], scores: &[f64], keys: &mut Vec<f32>) {
    let d = query.len();
    let sqrt_d = (d as f64).sqrt();
    let q_norm2 = f64::from(dot(query, query)).max(1e-9);
    for &s in scores {
        // Residual with small norm so the projection dominates, drawn
        // straight into the key's row and projected in place.
        let start = keys.len();
        extend_normal(rng, keys, d, 0.3);
        let row = &mut keys[start..];
        let qr = f64::from(dot(query, row));
        let alpha = ((s * sqrt_d - qr) / q_norm2) as f32;
        for (k, &qi) in row.iter_mut().zip(query) {
            *k += alpha * qi;
        }
    }
}

impl SynthKeys {
    /// Generates the query, target scores and keys of the instance
    /// [`SynthInstance::generate`] builds from the same profile and seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a zero context length or dimension.
    #[must_use]
    pub fn generate(profile: &SynthProfile, seed: u64) -> Self {
        Self::generate_into(profile, seed, Vec::new())
    }

    /// [`generate`](Self::generate), bit for bit, with the keys drawn into
    /// `spare`'s allocation — whatever it held is discarded. A caller that
    /// generates instance after instance and takes each one's buffer back
    /// with [`into_keys`](Self::into_keys) allocates only when an instance
    /// outgrows every earlier one.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a zero context length or dimension.
    #[must_use]
    pub fn generate_into(profile: &SynthProfile, seed: u64, spare: Vec<f32>) -> Self {
        Self::draw(profile, &mut StdRng::seed_from_u64(seed), spare)
    }

    /// Consumes the instance, returning the flat key buffer for the next
    /// [`generate_into`](Self::generate_into).
    #[must_use]
    pub fn into_keys(self) -> Vec<f32> {
        self.keys
    }

    /// The key construction into `keys`' allocation, leaving `rng` where
    /// the value draw starts.
    fn draw(profile: &SynthProfile, rng: &mut StdRng, mut keys: Vec<f32>) -> Self {
        assert!(profile.context_len > 0, "context_len must be positive");
        assert!(profile.dim > 0, "dim must be positive");
        let n = profile.context_len;
        let d = profile.dim;

        let query = normal_vec(rng, d, 1.0);

        let mut target_scores = Vec::with_capacity(n);
        for i in 0..n {
            let z = standard_normal(rng);
            target_scores.push(profile.deterministic_boost(i) + profile.score_std * z);
        }

        keys.clear();
        keys.reserve(n * d);
        fill_rows(rng, &query, &target_scores, &mut keys);
        Self {
            query,
            keys,
            dim: d,
            target_scores,
        }
    }

    /// Key rows as a zero-copy row-major view.
    #[must_use]
    pub fn keys(&self) -> Rows<'_> {
        Rows::new(&self.keys, self.dim)
    }
}

/// One synthetic attention instance: a query, keys and values realizing a
/// target score vector.
///
/// Keys and values are stored contiguous row-major and exposed through
/// zero-copy [`Rows`] views, matching the layout the attention data path
/// consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthInstance {
    /// The query vector (head dimension).
    pub query: Vec<f32>,
    /// Key rows, `n × dim` row-major.
    keys: Vec<f32>,
    /// Value rows, `n × dim` row-major.
    values: Vec<f32>,
    dim: usize,
    /// The scores the construction targeted (after `1/sqrt(d)` scaling).
    pub target_scores: Vec<f64>,
}

impl SynthInstance {
    /// Generates one instance from a profile and seed: [`SynthKeys`] plus
    /// the value matrix, drawn from the same stream.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a zero context length or dimension.
    #[must_use]
    pub fn generate(profile: &SynthProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let SynthKeys {
            query,
            keys,
            dim,
            target_scores,
        } = SynthKeys::draw(profile, &mut rng, Vec::new());
        let values = normal_vec(&mut rng, keys.len(), 1.0);
        Self {
            query,
            keys,
            values,
            dim,
            target_scores,
        }
    }

    /// Number of cached tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.target_scores.len()
    }

    /// Whether the instance holds no tokens (never true: generation
    /// requires a positive context length).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.target_scores.is_empty()
    }

    /// Head dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Key rows as a zero-copy row-major view.
    #[must_use]
    pub fn keys(&self) -> Rows<'_> {
        Rows::new(&self.keys, self.dim)
    }

    /// Value rows as a zero-copy row-major view.
    #[must_use]
    pub fn values(&self) -> Rows<'_> {
        Rows::new(&self.values, self.dim)
    }

    /// One key row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn key_row(&self, i: usize) -> &[f32] {
        self.keys().row(i)
    }

    /// One value row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn value_row(&self, i: usize) -> &[f32] {
        self.values().row(i)
    }

    /// Consumes the instance, returning the flat value buffer.
    #[must_use]
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// The realized (float, pre-quantization) scores `q·k_i / sqrt(d)`.
    #[must_use]
    pub fn realized_scores(&self) -> Vec<f64> {
        let sqrt_d = (self.query.len() as f64).sqrt();
        self.keys()
            .iter()
            .map(|k| f64::from(dot(&self.query, k)) / sqrt_d)
            .collect()
    }

    /// Softmax probabilities of the realized scores.
    #[must_use]
    pub fn exact_probabilities(&self) -> Vec<f64> {
        topick_core::softmax(&self.realized_scores())
    }

    /// Number of tokens whose exact probability exceeds `threshold`
    /// (the "dominant token" count of Fig. 3).
    #[must_use]
    pub fn dominant_tokens(&self, threshold: f64) -> usize {
        self.exact_probabilities()
            .iter()
            .filter(|&&p| p > threshold)
            .count()
    }
}

/// Samples instance profiles with per-instance spread variability, modeling
/// the population of (layer, head, query) combinations in a real model.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSampler {
    /// Base profile; `score_std` is re-drawn per instance.
    pub base: SynthProfile,
    /// Range of per-instance score standard deviations.
    pub std_range: (f64, f64),
}

impl InstanceSampler {
    /// A sampler covering the paper's observed variability (4.6%–23.5%
    /// dominant tokens at context 1024).
    #[must_use]
    pub fn realistic(context_len: usize, dim: usize) -> Self {
        Self {
            base: SynthProfile::realistic(context_len, dim),
            std_range: (1.2, 3.6),
        }
    }

    /// The profile of instance `seed`: the base with its spread re-drawn.
    ///
    /// The spread is biased toward the wide (peaky-softmax) end: measured
    /// LLM attention has mostly concentrated heads with an occasional flat
    /// one, which is what makes the paper's 12.1× average V pruning
    /// coexist with Fig. 3's 23.5% worst case.
    fn profile(&self, seed: u64) -> SynthProfile {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let (lo, hi) = self.std_range;
        let std = lo + (hi - lo) * rng.gen::<f64>().powf(0.45);
        SynthProfile {
            score_std: std,
            ..self.base.clone()
        }
    }

    /// Draws one instance.
    #[must_use]
    pub fn sample(&self, seed: u64) -> SynthInstance {
        SynthInstance::generate(&self.profile(seed), seed)
    }

    /// Draws the query, target scores and keys of instance `seed` — what
    /// [`sample`](Self::sample) returns, without the value matrix.
    #[must_use]
    pub fn sample_keys(&self, seed: u64) -> SynthKeys {
        SynthKeys::generate(&self.profile(seed), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realized_scores_match_targets() {
        let p = SynthProfile::realistic(128, 64);
        let inst = SynthInstance::generate(&p, 11);
        let realized = inst.realized_scores();
        for (t, r) in inst.target_scores.iter().zip(&realized) {
            assert!((t - r).abs() < 1e-3, "target {t} vs realized {r}");
        }
    }

    #[test]
    fn locality_boost_shapes_probabilities() {
        let p = SynthProfile {
            score_std: 0.0, // isolate the deterministic part
            ..SynthProfile::realistic(64, 32)
        };
        let inst = SynthInstance::generate(&p, 5);
        let probs = inst.exact_probabilities();
        // Most recent token and the sink should dominate the middle.
        let mid = probs[30];
        assert!(probs[63] > mid);
        assert!(probs[0] > mid);
    }

    #[test]
    fn spread_controls_dominant_count() {
        let n = 1024;
        let wide = SynthInstance::generate(&SynthProfile::wide_spread(n, 64), 1);
        let narrow = SynthInstance::generate(&SynthProfile::narrow_spread(n, 64), 1);
        let dw = wide.dominant_tokens(1e-3);
        let dn = narrow.dominant_tokens(1e-3);
        assert!(
            dw < dn,
            "wide spread should have fewer dominant tokens: {dw} vs {dn}"
        );
        // Paper's Fig. 3 band: instance A 4.6%, instance B 23.5%.
        assert!(
            (dw as f64) / (n as f64) < 0.12,
            "wide frac {}",
            dw as f64 / n as f64
        );
        assert!(
            (dn as f64) / (n as f64) > 0.10,
            "narrow frac {}",
            dn as f64 / n as f64
        );
    }

    #[test]
    fn sampler_produces_varied_instances() {
        let s = InstanceSampler::realistic(512, 64);
        let counts: Vec<usize> = (0..8).map(|i| s.sample(i).dominant_tokens(1e-3)).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max > min, "sampler produced identical dominant counts");
    }

    #[test]
    fn deterministic_generation() {
        let p = SynthProfile::realistic(32, 16);
        assert_eq!(
            SynthInstance::generate(&p, 9),
            SynthInstance::generate(&p, 9)
        );
    }
}
