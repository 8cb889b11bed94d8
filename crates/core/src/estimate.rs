//! Conservative probability estimation (paper §3.1, Eq. 5).
//!
//! The estimator maintains a running denominator
//! `D = Σ_{j ∈ subset} exp(ŝ_min,j)` over every token evaluated so far,
//! where `ŝ_min,j` is token `j`'s deepest-refined score lower bound. A token
//! is pruned when its score *upper* bound satisfies
//! `ŝ_max,i − ln D ≤ ln thr`, which is equivalent to the probability upper
//! bound `p''_i = exp(ŝ_max,i) / D ≤ thr`. Because `ŝ_max,i ≥ s_i` and
//! `D ≤ Σ_all exp(s_j)`, the true probability satisfies `p_i ≤ p''_i`, so
//! pruning is *safe*: no token with true probability above `thr` is ever
//! removed.
//!
//! [`Estimator`] is the one place that decision is written. The reference
//! pruner feeds it from a work queue, the decision tracer watches that same
//! loop, and the cycle-level accelerator feeds it in DRAM arrival order.

use crate::config::PrecisionConfig;
use crate::error::CoreError;
use crate::margin::MarginTable;
use crate::pruner::KeptToken;
use crate::quant::{QMatrix, QVector};
use crate::softmax::score_scale;
use crate::stats::PruneStats;

/// Streaming softmax denominator kept in a numerically safe scaled form.
///
/// Internally stores `(offset, sum)` with `D = sum · exp(offset)` and rebases
/// the offset whenever an incoming exponent would overflow the linear-domain
/// accumulator. This mirrors the hardware DAG, which accumulates partial-exp
/// differences from the PE lanes and broadcasts `ln(denominator)` back.
///
/// # Examples
///
/// ```
/// use topick_core::LogDenominator;
///
/// let mut d = LogDenominator::new();
/// d.add(0.0);           // exp(0) = 1
/// d.add(f64::ln(3.0));  // + 3
/// assert!((d.ln() - f64::ln(4.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDenominator {
    offset: f64,
    sum: f64,
}

impl LogDenominator {
    /// An empty denominator (`D = 0`, `ln D = -inf`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            offset: 0.0,
            sum: 0.0,
        }
    }

    /// Adds `exp(x)` to the denominator.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.rebase_for(x);
        self.sum += (x - self.offset).exp();
    }

    /// Replaces a previous contribution `exp(old)` with `exp(new)`.
    ///
    /// This is the PEC semantics: when a deeper chunk refines a token's
    /// lower bound from `old` to `new`, the lane emits the difference
    /// `exp(new) − exp(old)` for the DAG to aggregate. Refinement is
    /// monotone, so `new >= old` always holds for chunk updates.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new < old`, which would indicate a
    /// non-monotone refinement.
    #[inline]
    pub fn replace(&mut self, old: f64, new: f64) {
        debug_assert!(
            new >= old,
            "denominator refinement must be monotone: old={old}, new={new}"
        );
        self.rebase_for(new);
        let delta = (new - self.offset).exp() - (old - self.offset).exp();
        self.sum += delta;
        if self.sum < 0.0 {
            // Guard against floating-point cancellation.
            self.sum = 0.0;
        }
    }

    /// Natural log of the denominator; `-inf` when empty.
    #[must_use]
    #[inline]
    pub fn ln(&self) -> f64 {
        if self.sum <= 0.0 {
            f64::NEG_INFINITY
        } else {
            self.offset + self.sum.ln()
        }
    }

    /// Linear-domain value of the denominator (may overflow to `inf` for
    /// extreme exponents; prefer [`ln`](Self::ln) for decisions).
    #[must_use]
    pub fn value(&self) -> f64 {
        self.sum * self.offset.exp()
    }

    #[inline]
    fn rebase_for(&mut self, x: f64) {
        // Keep exponents fed to exp() under ~60 so the linear accumulator
        // stays far from f64 overflow even after many additions.
        if x - self.offset > 60.0 {
            let new_offset = x;
            self.sum *= (self.offset - new_offset).exp();
            self.offset = new_offset;
        }
    }
}

impl Default for LogDenominator {
    fn default() -> Self {
        Self::new()
    }
}

/// The prune decision of Eq. 5: prune iff
/// `s_max − ln D ≤ ln thr`, i.e. `p'' = exp(s_max)/D ≤ thr`.
///
/// `s_max` is the token's real-valued score upper bound and `ln_denominator`
/// the current `ln D`. An empty denominator (`-inf`) never prunes.
#[must_use]
#[inline]
pub fn should_prune(s_max: f64, ln_denominator: f64, ln_threshold: f64) -> bool {
    if ln_denominator == f64::NEG_INFINITY {
        return false;
    }
    s_max - ln_denominator <= ln_threshold
}

/// The estimated probability upper bound `p'' = exp(s_max − ln D)`.
///
/// Mostly useful for diagnostics; the decision path uses
/// [`should_prune`] directly in the log domain.
#[must_use]
pub fn estimated_probability(s_max: f64, ln_denominator: f64) -> f64 {
    if ln_denominator == f64::NEG_INFINITY {
        return f64::INFINITY;
    }
    (s_max - ln_denominator).exp()
}

/// Recyclable per-token working memory of [`Estimator`] runs, sized by the
/// context: a caller that runs many passes keeps one and allocates it once.
#[derive(Debug, Clone, Default)]
pub struct EstimatorScratch {
    tokens: Vec<TokenState>,
}

impl EstimatorScratch {
    /// Fresh, empty working memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Clone, Copy)]
struct TokenState {
    /// Last emitted lower bound (NaN until first evaluated), for PEC-style
    /// replacement.
    prev_smin: f64,
    /// Partial dot at the run's first evaluation depth.
    first_dot: i64,
}

/// Outcome of one [`Estimator::evaluate`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Token pruned (probability bound below the threshold).
    Pruned,
    /// Token survived this chunk; the next chunk will be requested.
    RequestNextChunk,
    /// Token survived the final chunk and is kept.
    Kept,
}

/// The estimator state of one pruning run (paper §3): margins, running
/// denominator, each token's last lower bound, and the verdicts so far.
///
/// The caller owns the *schedule* — which `(token, chunks_known)` pair is
/// evaluated next — and the estimator owns everything else, so every
/// schedule (work queue, DRAM arrival order) makes bit-identical decisions
/// from identical evaluation sequences.
#[derive(Debug)]
pub struct Estimator<'a> {
    query: &'a QVector,
    keys: &'a QMatrix,
    margins: MarginTable,
    num_chunks: u32,
    scale: f64,
    ln_threshold: f64,
    denom: LogDenominator,
    tokens: &'a mut Vec<TokenState>,
    /// Depth of the run's first evaluation, 0 before it. The reference
    /// pruner and the accelerator evaluate every token first at one depth,
    /// so that evaluation computes all their partial dots there in one
    /// streaming pass over the keys; a first evaluation at another depth
    /// computes its own.
    first_depth: u32,
    bound: f64,
    stats: PruneStats,
    kept: Vec<KeptToken>,
}

impl<'a> Estimator<'a> {
    /// Starts a run over `keys` with probability threshold `threshold`
    /// (`0` never prunes), recycling `scratch` for the per-token tables.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the query length differs
    /// from the key dimension.
    pub fn new(
        query: &'a QVector,
        keys: &'a QMatrix,
        precision: PrecisionConfig,
        threshold: f64,
        scratch: &'a mut EstimatorScratch,
    ) -> Result<Self, CoreError> {
        let n = keys.check_attention([query], None)?;
        let tokens = &mut scratch.tokens;
        tokens.clear();
        let unseen = TokenState {
            prev_smin: f64::NAN,
            first_dot: 0,
        };
        tokens.resize(n, unseen);
        Ok(Self {
            query,
            keys,
            margins: MarginTable::from_query_codes(query.codes(), precision),
            num_chunks: precision.num_chunks(),
            scale: score_scale(query, keys),
            ln_threshold: threshold.ln(),
            denom: LogDenominator::new(),
            tokens,
            first_depth: 0,
            bound: f64::NAN,
            stats: PruneStats::new(n, precision.num_chunks()),
            // Sized once, so a run allocates the same at any survivor count.
            kept: Vec::with_capacity(n),
        })
    }

    /// Evaluates `token` with its `chunks_known` most-significant key
    /// chunks on chip: refines the token's contribution to the denominator
    /// (its first evaluation adds, later ones replace) and decides by
    /// Eq. 5.
    ///
    /// # Panics
    ///
    /// Panics if `token` or `chunks_known` is out of range.
    #[inline]
    pub fn evaluate(&mut self, token: usize, chunks_known: u32) -> Decision {
        let depth = (chunks_known - 1) as usize;
        self.stats.chunk_fetches[depth] += 1;
        if self.first_depth == 0 {
            self.fill_first_dots(chunks_known);
        }
        let TokenState {
            prev_smin: prev,
            first_dot,
        } = self.tokens[token];
        let ps = if prev.is_nan() && chunks_known == self.first_depth {
            first_dot
        } else {
            self.query.dot_known(self.keys.row(token), chunks_known)
        };
        let pair = self.margins.pair(chunks_known);
        let smin = (ps + pair.min) as f64 * self.scale;
        self.bound = (ps + pair.max) as f64 * self.scale;
        self.tokens[token].prev_smin = smin;
        if prev.is_nan() {
            self.denom.add(smin);
        } else {
            self.denom.replace(prev, smin);
        }

        if should_prune(self.bound, self.denom.ln(), self.ln_threshold) {
            self.stats.pruned_at[depth] += 1;
            Decision::Pruned
        } else if chunks_known == self.num_chunks {
            // Margins are zero here, so ps is the exact integer score.
            self.kept.push(KeptToken {
                index: token,
                score_int: ps,
                score_real: self.bound,
            });
            Decision::Kept
        } else {
            Decision::RequestNextChunk
        }
    }

    #[cold]
    fn fill_first_dots(&mut self, chunks_known: u32) {
        self.first_depth = chunks_known;
        let (query, keys) = (self.query, self.keys);
        for (token, state) in self.tokens.iter_mut().enumerate() {
            state.first_dot = query.dot_known(keys.row(token), chunks_known);
        }
    }

    /// The score upper bound `ŝ_max` of the last evaluation.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// `ln` of the running denominator.
    #[must_use]
    pub fn ln_denominator(&self) -> f64 {
        self.denom.ln()
    }

    /// Ends the run: the survivors in ascending index order and the
    /// chunk-fetch / prune-depth statistics.
    #[must_use]
    pub fn finish(mut self) -> (Vec<KeptToken>, PruneStats) {
        // Indices are distinct, so an unstable sort (which never allocates)
        // orders them exactly as a stable one.
        self.kept.sort_unstable_by_key(|k| k.index);
        self.stats.kept = self.kept.len();
        (self.kept, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_denominator_never_prunes() {
        let d = LogDenominator::new();
        assert_eq!(d.ln(), f64::NEG_INFINITY);
        assert!(!should_prune(-100.0, d.ln(), (1e-3f64).ln()));
    }

    #[test]
    fn add_matches_logsumexp() {
        let xs = [1.0, -2.5, 3.7, 0.0, -50.0];
        let mut d = LogDenominator::new();
        for &x in &xs {
            d.add(x);
        }
        let direct: f64 = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((d.ln() - direct).abs() < 1e-12);
    }

    #[test]
    fn replace_matches_recomputation() {
        let mut d = LogDenominator::new();
        d.add(1.0);
        d.add(2.0);
        d.replace(1.0, 1.5);
        let direct: f64 = (1.5f64.exp() + 2.0f64.exp()).ln();
        assert!((d.ln() - direct).abs() < 1e-12);
    }

    #[test]
    fn rebase_handles_large_exponents() {
        let mut d = LogDenominator::new();
        d.add(0.0);
        d.add(500.0); // would overflow a naive linear accumulator
        d.add(501.0);
        let expect = 501.0 + (1.0 + (-1.0f64).exp() + (-501.0f64).exp()).ln();
        assert!((d.ln() - expect).abs() < 1e-9, "{} vs {expect}", d.ln());
    }

    #[test]
    fn prune_decision_equivalence() {
        // s_max - lnD <= ln(thr)  <=>  exp(s_max)/D <= thr
        let mut d = LogDenominator::new();
        for x in [0.0, 1.0, 2.0] {
            d.add(x);
        }
        let thr = 1e-3f64;
        for s_max in [-10.0, -4.0, 0.0, 5.0] {
            let log_decision = should_prune(s_max, d.ln(), thr.ln());
            let lin_decision = s_max.exp() / d.value() <= thr;
            assert_eq!(log_decision, lin_decision, "s_max={s_max}");
        }
    }

    #[test]
    fn estimated_probability_diagnostic() {
        let mut d = LogDenominator::new();
        d.add(0.0); // D = 1
        assert!((estimated_probability(0.0, d.ln()) - 1.0).abs() < 1e-12);
        assert!((estimated_probability((0.5f64).ln(), d.ln()) - 0.5).abs() < 1e-12);
    }

    fn workload() -> (QVector, QMatrix) {
        let pc = PrecisionConfig::paper();
        // Token 1 is query-aligned; 0 and 2 are anti-aligned and weak.
        let q = QVector::from_codes(vec![900, -700, 500, 300], 0.01, pc);
        let rows = vec![
            -850, 600, -400, -200, //
            900, -700, 500, 300, //
            -100, 50, -20, 10,
        ];
        (q, QMatrix::from_codes(rows, 4, 0.01, pc).unwrap())
    }

    #[test]
    fn estimator_refines_then_resolves_each_token() {
        let (q, keys) = workload();
        let pc = PrecisionConfig::paper();
        let mut scratch = EstimatorScratch::new();
        let mut est = Estimator::new(&q, &keys, pc, 1e-3, &mut scratch).unwrap();
        // The dominant token climbs all three chunks and is kept with its
        // exact score; the bound tightens on the way.
        assert_eq!(est.evaluate(1, 1), Decision::RequestNextChunk);
        let loose = est.bound();
        assert_eq!(est.evaluate(1, 2), Decision::RequestNextChunk);
        assert!(est.bound() <= loose);
        assert_eq!(est.evaluate(1, 3), Decision::Kept);
        // With that mass in the denominator the others go at chunk 1.
        assert_eq!(est.evaluate(0, 1), Decision::Pruned);
        assert_eq!(est.evaluate(2, 1), Decision::Pruned);
        let (kept, stats) = est.finish();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score_int, q.dot_codes(keys.row(1)));
        assert_eq!(stats.chunk_fetches, vec![3, 1, 1]);
        assert_eq!(stats.pruned_at, vec![2, 0, 0]);
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn first_evaluation_at_full_depth_adds_the_exact_score() {
        // The accelerator's full-row modes see every chunk at once.
        let (q, keys) = workload();
        let pc = PrecisionConfig::paper();
        let mut scratch = EstimatorScratch::new();
        let mut est = Estimator::new(&q, &keys, pc, 1e-3, &mut scratch).unwrap();
        let mut reference = LogDenominator::new();
        for t in [1, 0, 2] {
            let decision = est.evaluate(t, pc.num_chunks());
            let s = q.dot_codes(keys.row(t)) as f64 * score_scale(&q, &keys);
            reference.add(s);
            assert_eq!(est.bound().to_bits(), s.to_bits());
            assert_eq!(est.ln_denominator().to_bits(), reference.ln().to_bits());
            assert_ne!(decision, Decision::RequestNextChunk);
        }
    }

    #[test]
    fn threshold_zero_keeps_everything() {
        let (q, keys) = workload();
        let pc = PrecisionConfig::paper();
        let mut scratch = EstimatorScratch::new();
        let mut est = Estimator::new(&q, &keys, pc, 0.0, &mut scratch).unwrap();
        for t in 0..3 {
            assert_eq!(est.evaluate(t, pc.num_chunks()), Decision::Kept);
        }
        assert_eq!(est.finish().0.len(), 3);
    }

    #[test]
    fn estimator_rejects_a_query_of_the_wrong_width() {
        let (_, keys) = workload();
        let q = QVector::from_codes(vec![1, 2, 3], 0.01, PrecisionConfig::paper());
        let err = Estimator::new(
            &q,
            &keys,
            keys.precision(),
            1e-3,
            &mut EstimatorScratch::new(),
        )
        .unwrap_err();
        let (expected, actual) = (4, 3);
        assert_eq!(err, CoreError::DimensionMismatch { expected, actual });
    }
}
