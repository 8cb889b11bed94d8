//! Transformer building blocks: linear projection, layer norm, embeddings,
//! and the feed-forward network.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rng::normal_vec;
use crate::tensor::{add_assign, gelu, Matrix};

/// A dense affine layer `y = W x + b` with `W: out x in`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
}

impl Linear {
    /// Random initialization with gain `sigma / sqrt(in_dim)` (keeps the
    /// output variance roughly `sigma^2` for unit-variance input).
    #[must_use]
    pub fn new_random(in_dim: usize, out_dim: usize, sigma: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = sigma / (in_dim as f64).sqrt();
        let weight = Matrix::from_vec(
            out_dim,
            in_dim,
            normal_vec(&mut rng, in_dim * out_dim, scale),
        );
        Self {
            weight,
            bias: vec![0.0; out_dim],
        }
    }

    /// Forward pass.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = self.weight.gemv(x);
        add_assign(&mut y, &self.bias);
        y
    }

    /// Number of parameters (weights + biases).
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }
}

/// Layer normalization with learned scale/shift (initialized to identity).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            eps: 1e-5,
        }
    }

    /// Normalizes `x` to zero mean / unit variance, then scales and shifts.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the configured dimension.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.gamma.len(), "layernorm dimension mismatch");
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + self.eps).sqrt();
        x.iter()
            .zip(self.gamma.iter().zip(&self.beta))
            .map(|(&v, (&g, &b))| (v - mean) * inv * g + b)
            .collect()
    }
}

/// Token/positional embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    table: Matrix,
}

impl Embedding {
    /// Random embedding table of `entries x dim`.
    #[must_use]
    pub fn new_random(entries: usize, dim: usize, sigma: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = normal_vec(&mut rng, entries * dim, sigma);
        Self {
            table: Matrix::from_vec(entries, dim, data),
        }
    }

    /// Looks one entry up.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn lookup(&self, index: usize) -> &[f32] {
        self.table.row(index)
    }

    /// Tied-embedding logits: `logits_i = table_i · h`.
    #[must_use]
    pub fn tied_logits(&self, h: &[f32]) -> Vec<f32> {
        self.table.gemv(h)
    }

    /// Number of entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Number of parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.table.rows() * self.table.cols()
    }
}

/// The position-wise feed-forward network: `Linear -> GELU -> Linear`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedForward {
    up: Linear,
    down: Linear,
}

impl FeedForward {
    /// Random FFN with hidden width `d_ff`.
    #[must_use]
    pub fn new_random(d_model: usize, d_ff: usize, seed: u64) -> Self {
        Self {
            up: Linear::new_random(d_model, d_ff, 1.0, seed ^ 0x1111),
            down: Linear::new_random(d_ff, d_model, 1.0, seed ^ 0x2222),
        }
    }

    /// Forward pass.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut h = self.up.forward(x);
        for v in &mut h {
            *v = gelu(*v);
        }
        self.down.forward(&h)
    }

    /// Number of parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.up.num_params() + self.down.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_determinism() {
        let l1 = Linear::new_random(8, 4, 1.0, 99);
        let l2 = Linear::new_random(8, 4, 1.0, 99);
        assert_eq!(l1, l2);
        let y = l1.forward(&[1.0; 8]);
        assert_eq!(y.len(), 4);
        assert_eq!(l1.num_params(), 8 * 4 + 4);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let ln = LayerNorm::new(64);
        let x: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let y = ln.forward(&x);
        let mean = y.iter().sum::<f32>() / 64.0;
        let var = y.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-2);
    }

    #[test]
    fn embedding_lookup_and_tied_logits() {
        // Wide rows so the self-dot dominates with overwhelming probability
        // regardless of the PRNG stream.
        let e = Embedding::new_random(10, 32, 0.5, 3);
        let h = e.lookup(3).to_vec();
        let logits = e.tied_logits(&h);
        // The matching row should give the largest logit with high
        // probability for random gaussian rows (self-dot dominates).
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3);
    }

    #[test]
    fn ffn_shape_preserved() {
        let ffn = FeedForward::new_random(16, 64, 7);
        let y = ffn.forward(&[0.1; 16]);
        assert_eq!(y.len(), 16);
        assert_eq!(ffn.num_params(), (16 * 64 + 64) + (64 * 16 + 16));
    }
}
