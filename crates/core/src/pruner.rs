//! The progressive token pruner — the reference (functional) schedule of
//! Token-Picker's step 0 over the one [`Estimator`].
//!
//! Tokens are probed chunk-by-chunk through a work queue: chunk-0 jobs are
//! enqueued in scan order, and a token surviving chunk `c` re-enqueues its
//! chunk `c+1` job at the queue tail. This mirrors the out-of-order hardware
//! (deeper chunks are evaluated only after many more first chunks have
//! contributed to the denominator), while staying deterministic and
//! cycle-agnostic. The cycle-accurate schedule lives in `topick-accel`.

use std::collections::VecDeque;

use crate::config::PrunerConfig;
use crate::error::CoreError;
use crate::estimate::{Decision, Estimator, EstimatorScratch};
use crate::quant::{QMatrix, QVector};
use crate::softmax::softmax;
use crate::stats::PruneStats;

/// A token that survived pruning, with its exact integer and real scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeptToken {
    /// Token index in the context (0 = oldest).
    pub index: usize,
    /// Exact integer dot-product score.
    pub score_int: i64,
    /// Real-valued score after quantization scales and `1/sqrt(d_h)`.
    pub score_real: f64,
}

/// Result of one pruning run: the surviving tokens, their softmax
/// probabilities (renormalized over survivors, as the hardware's Probability
/// Generator does after step 0), and access statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// Surviving tokens in ascending index order.
    pub kept: Vec<KeptToken>,
    /// Softmax probabilities over the survivors, aligned with `kept`.
    pub probabilities: Vec<f64>,
    /// Chunk-fetch and prune-depth statistics.
    pub stats: PruneStats,
}

impl PruneOutcome {
    /// `(token index, probability)` pairs for feeding
    /// [`weighted_value_sum`](crate::softmax::weighted_value_sum).
    #[must_use]
    pub fn probability_pairs(&self) -> Vec<(usize, f64)> {
        self.kept
            .iter()
            .zip(&self.probabilities)
            .map(|(k, &p)| (k.index, p))
            .collect()
    }
}

/// Reusable working memory for [`ProgressivePruner::run_with_scratch`].
///
/// One pruning run needs a probe queue, the estimator's per-token table and
/// a score staging buffer — all sized by the context length. A generation
/// loop calls the pruner once per step per head, so reusing these buffers
/// removes three context-sized allocations from every attention step.
#[derive(Debug, Clone, Default)]
pub struct PrunerScratch {
    queue: VecDeque<(usize, u32)>,
    estimator: EstimatorScratch,
    scores: Vec<f64>,
}

impl PrunerScratch {
    /// Fresh, empty working memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The progressive pruner (paper §3).
///
/// # Examples
///
/// ```
/// use topick_core::{PrecisionConfig, ProgressivePruner, PrunerConfig, QMatrix, QVector};
///
/// let pc = PrecisionConfig::paper();
/// let query = QVector::quantize(&[0.9, -0.3, 0.5, 0.1], pc);
/// let keys = QMatrix::quantize_flat(
///     &[
///         0.9, -0.3, 0.5, 0.1, // aligned with the query -> dominant
///         -0.9, 0.3, -0.5, -0.1, // anti-aligned -> prunable
///         0.8, -0.2, 0.4, 0.0,
///     ],
///     4,
///     pc,
/// )?;
/// let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3)?);
/// let outcome = pruner.run(&query, &keys)?;
/// assert!(!outcome.kept.is_empty());
/// let total: f64 = outcome.probabilities.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok::<(), topick_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressivePruner {
    cfg: PrunerConfig,
}

impl ProgressivePruner {
    /// Creates a pruner with the given configuration.
    #[must_use]
    pub fn new(cfg: PrunerConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PrunerConfig {
        &self.cfg
    }

    /// Runs step 0 over a query and key set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the query length differs
    /// from the key dimension.
    pub fn run(&self, query: &QVector, keys: &QMatrix) -> Result<PruneOutcome, CoreError> {
        self.run_with_scratch(query, keys, &mut PrunerScratch::new())
    }

    /// Runs step 0 reusing caller-owned working memory: the probe queue,
    /// per-token bound table and score staging buffer are recycled across
    /// calls and the scan order is generated lazily, so a warm generation
    /// loop pays no context-sized scratch allocations per step (only the
    /// returned outcome's survivor vectors are fresh).
    ///
    /// # Errors
    ///
    /// Same as [`ProgressivePruner::run`].
    pub fn run_with_scratch(
        &self,
        query: &QVector,
        keys: &QMatrix,
        scratch: &mut PrunerScratch,
    ) -> Result<PruneOutcome, CoreError> {
        let (kept, stats) = self.run_observed(query, keys, scratch, |_, _, _, _| {})?;
        let scores = &mut scratch.scores;
        scores.clear();
        scores.extend(kept.iter().map(|k| k.score_real));
        let probabilities = softmax(scores);
        Ok(PruneOutcome {
            kept,
            probabilities,
            stats,
        })
    }

    /// The reference schedule over the one [`Estimator`]: pop a
    /// `(token, chunks_known)` probe, evaluate it, re-enqueue survivors one
    /// chunk deeper at the tail. `observe` sees the estimator right after
    /// each evaluation, with the probe and its decision.
    pub(crate) fn run_observed(
        &self,
        query: &QVector,
        keys: &QMatrix,
        scratch: &mut PrunerScratch,
        mut observe: impl FnMut(&Estimator<'_>, usize, u32, Decision),
    ) -> Result<(Vec<KeptToken>, PruneStats), CoreError> {
        let (precision, threshold) = (self.cfg.precision(), self.cfg.threshold());
        let mut estimator =
            Estimator::new(query, keys, precision, threshold, &mut scratch.estimator)?;
        let queue = &mut scratch.queue;
        queue.clear();
        let order = self.cfg.order().indices(keys.num_tokens());
        queue.extend(order.map(|t| (t, 1u32)));
        while let Some((token, chunks_known)) = queue.pop_front() {
            let decision = estimator.evaluate(token, chunks_known);
            if decision == Decision::RequestNextChunk {
                queue.push_back((token, chunks_known + 1));
            }
            observe(&estimator, token, chunks_known, decision);
        }
        Ok(estimator.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecisionConfig;
    use crate::softmax::exact_probabilities;

    fn peaky_workload(n: usize, dim: usize) -> (QVector, QMatrix) {
        // Deterministic pseudo-random keys with one strongly aligned token.
        let pc = PrecisionConfig::paper();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 16_777_216.0 - 0.5
        };
        let qv: Vec<f32> = (0..dim).map(|_| next()).collect();
        let mut rows = Vec::with_capacity(n * dim);
        for t in 0..n {
            if t == n - 1 || t == 0 {
                // Aligned with the query -> dominant score.
                rows.extend(qv.iter().map(|&x| x * 2.0));
            } else {
                rows.extend((0..dim).map(|_| next() * 0.3));
            }
        }
        let q = QVector::quantize(&qv, pc);
        let keys = QMatrix::quantize_flat(&rows, dim, pc).unwrap();
        (q, keys)
    }

    #[test]
    fn soundness_no_dominant_token_pruned() {
        let (q, keys) = peaky_workload(128, 32);
        let thr = 1e-3;
        let pruner = ProgressivePruner::new(PrunerConfig::new(thr).unwrap());
        let outcome = pruner.run(&q, &keys).unwrap();
        let exact = exact_probabilities(&q, &keys);
        let kept: std::collections::HashSet<usize> = outcome.kept.iter().map(|k| k.index).collect();
        for (t, &p) in exact.iter().enumerate() {
            if p > thr {
                assert!(kept.contains(&t), "token {t} with p={p} was pruned");
            }
        }
    }

    #[test]
    fn kept_scores_are_exact() {
        let (q, keys) = peaky_workload(64, 16);
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3).unwrap());
        let outcome = pruner.run(&q, &keys).unwrap();
        for k in &outcome.kept {
            assert_eq!(k.score_int, q.dot_codes(keys.row(k.index)));
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (q, keys) = peaky_workload(64, 16);
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3).unwrap());
        let outcome = pruner.run(&q, &keys).unwrap();
        let sum: f64 = outcome.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn something_gets_pruned_on_peaky_input() {
        let (q, keys) = peaky_workload(256, 32);
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-2).unwrap());
        let outcome = pruner.run(&q, &keys).unwrap();
        assert!(
            outcome.stats.pruned() > 0,
            "expected pruning on peaky input"
        );
        assert!(outcome.stats.kept < 256);
    }

    #[test]
    fn chunk_fetches_monotone_decreasing() {
        let (q, keys) = peaky_workload(256, 32);
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-2).unwrap());
        let outcome = pruner.run(&q, &keys).unwrap();
        let f = &outcome.stats.chunk_fetches;
        assert_eq!(f[0], 256);
        assert!(f[0] >= f[1] && f[1] >= f[2]);
    }

    #[test]
    fn accounting_identity_holds() {
        // pruned_at sums to pruned count; fetches[c+1] = fetches[c] - pruned_at[c].
        let (q, keys) = peaky_workload(200, 24);
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-2).unwrap());
        let s = pruner.run(&q, &keys).unwrap().stats;
        assert_eq!(s.pruned_at.iter().sum::<u64>() as usize, s.pruned());
        for c in 0..s.chunk_fetches.len() - 1 {
            assert_eq!(s.chunk_fetches[c + 1], s.chunk_fetches[c] - s.pruned_at[c]);
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let pc = PrecisionConfig::paper();
        let q = QVector::from_codes(vec![1, 2, 3], 1.0, pc);
        let keys = QMatrix::from_codes(vec![1, 2, 3, 4], 2, 1.0, pc).unwrap();
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3).unwrap());
        assert!(matches!(
            pruner.run(&q, &keys),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn single_token_is_always_kept() {
        let pc = PrecisionConfig::paper();
        let q = QVector::from_codes(vec![100; 8], 1.0, pc);
        let keys = QMatrix::from_codes(vec![-2000; 8], 8, 1.0, pc).unwrap();
        let pruner = ProgressivePruner::new(PrunerConfig::new(0.5).unwrap());
        let outcome = pruner.run(&q, &keys).unwrap();
        // A lone token has true probability 1.0 > any thr < 1.
        assert_eq!(outcome.kept.len(), 1);
        assert!((outcome.probabilities[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3).unwrap());
        let mut scratch = PrunerScratch::new();
        // Different context sizes back-to-back exercise the resize path.
        for (n, dim, seed_mix) in [(64, 16, 0), (128, 32, 1), (32, 8, 2)] {
            let (q, keys) = peaky_workload(n + seed_mix, dim);
            let fresh = pruner.run(&q, &keys).unwrap();
            let reused = pruner.run_with_scratch(&q, &keys, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }
}
