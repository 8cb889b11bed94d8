//! Decision tracing: an observable variant of the progressive pruner that
//! records *why* each token was kept or pruned, and at what chunk depth.
//!
//! Useful for debugging estimator behaviour, regenerating Fig. 4-style
//! analyses, and validating the hardware simulator against the reference.

use crate::config::PrunerConfig;
use crate::error::CoreError;
use crate::estimate::estimated_probability;
pub use crate::estimate::Decision;
use crate::pruner::{ProgressivePruner, PrunerScratch};
use crate::quant::{QMatrix, QVector};

/// One evaluation event in a pruning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// Evaluation sequence number (0-based).
    pub step: usize,
    /// Token index evaluated.
    pub token: usize,
    /// Chunks of the key known at this evaluation.
    pub chunks_known: u32,
    /// Estimated probability upper bound `p''` at decision time.
    pub estimate: f64,
    /// `ln` of the running denominator at decision time.
    pub ln_denominator: f64,
    /// The decision taken.
    pub decision: Decision,
}

/// Runs the progressive pruner while recording every decision.
///
/// This *is* [`ProgressivePruner::run`] — the same queue loop over the same
/// estimator — with an observer attached; returns the event log.
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] if the query length differs
/// from the key dimension.
///
/// # Examples
///
/// ```
/// use topick_core::{trace_pruning, Decision, PrecisionConfig, PrunerConfig, QMatrix, QVector};
///
/// let pc = PrecisionConfig::paper();
/// let q = QVector::quantize(&[0.9, -0.2], pc);
/// let keys = QMatrix::quantize_flat(&[0.9, -0.2, -0.9, 0.2], 2, pc)?;
/// let events = trace_pruning(&PrunerConfig::new(1e-2)?, &q, &keys)?;
/// assert!(events.iter().any(|e| e.decision == Decision::Kept));
/// # Ok::<(), topick_core::CoreError>(())
/// ```
pub fn trace_pruning(
    cfg: &PrunerConfig,
    query: &QVector,
    keys: &QMatrix,
) -> Result<Vec<DecisionEvent>, CoreError> {
    let mut events = Vec::new();
    ProgressivePruner::new(*cfg).run_observed(
        query,
        keys,
        &mut PrunerScratch::new(),
        |estimator, token, chunks_known, decision| {
            events.push(DecisionEvent {
                step: events.len(),
                token,
                chunks_known,
                estimate: estimated_probability(estimator.bound(), estimator.ln_denominator()),
                ln_denominator: estimator.ln_denominator(),
                decision,
            });
        },
    )?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecisionConfig;

    fn workload(n: usize) -> (QVector, QMatrix) {
        let pc = PrecisionConfig::paper();
        let dim = 16;
        let mut s = 0xFEEDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 33) as i32 % 1500) as i16
        };
        let q = QVector::from_codes((0..dim).map(|_| next()).collect(), 0.01, pc);
        let keys =
            QMatrix::from_codes((0..n * dim).map(|_| next()).collect(), dim, 0.01, pc).unwrap();
        (q, keys)
    }

    #[test]
    fn trace_matches_pruner_outcome() {
        let (q, keys) = workload(48);
        let cfg = PrunerConfig::new(1e-3).unwrap();
        let events = trace_pruning(&cfg, &q, &keys).unwrap();
        let outcome = ProgressivePruner::new(cfg).run(&q, &keys).unwrap();
        let count = |d: Decision| events.iter().filter(|e| e.decision == d).count();
        assert_eq!(count(Decision::Kept), outcome.stats.kept);
        assert_eq!(count(Decision::Pruned), outcome.stats.pruned());
        assert_eq!(
            events.len() as u64,
            outcome.stats.chunk_fetches.iter().sum::<u64>()
        );
        // The kept tokens themselves must agree.
        let traced_kept: Vec<usize> = {
            let mut v: Vec<usize> = events
                .iter()
                .filter(|e| e.decision == Decision::Kept)
                .map(|e| e.token)
                .collect();
            v.sort_unstable();
            v
        };
        let pruner_kept: Vec<usize> = outcome.kept.iter().map(|k| k.index).collect();
        assert_eq!(traced_kept, pruner_kept);
    }

    #[test]
    fn every_token_resolves_exactly_once() {
        let (q, keys) = workload(32);
        let cfg = PrunerConfig::new(1e-2).unwrap();
        let events = trace_pruning(&cfg, &q, &keys).unwrap();
        let mut resolved = vec![0usize; 32];
        for e in &events {
            if e.decision != Decision::RequestNextChunk {
                resolved[e.token] += 1;
            }
        }
        assert!(resolved.iter().all(|&r| r == 1), "{resolved:?}");
    }

    #[test]
    fn estimates_decrease_with_depth_for_a_token() {
        // For any given token, the probability upper bound can only tighten
        // as more chunks arrive (margins shrink, denominator grows).
        let (q, keys) = workload(40);
        let cfg = PrunerConfig::new(1e-4).unwrap();
        let events = trace_pruning(&cfg, &q, &keys).unwrap();
        let mut last: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        for e in &events {
            if let Some(&prev) = last.get(&e.token) {
                assert!(
                    e.estimate <= prev * (1.0 + 1e-9),
                    "token {} estimate rose {prev} -> {}",
                    e.token,
                    e.estimate
                );
            }
            last.insert(e.token, e.estimate);
        }
    }

    #[test]
    fn step_numbers_are_sequential() {
        let (q, keys) = workload(16);
        let events = trace_pruning(&PrunerConfig::new(1e-3).unwrap(), &q, &keys).unwrap();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.step, i);
        }
    }
}
