//! ΔPPL-budget calibration of pruning knobs (paper §5.1.3).
//!
//! The paper defines its operating points by allowed perplexity increase on
//! Wikitext-2: ToPick ≤ +0.05 PPL, ToPick-0.3 = +0.3, the Fig. 9 point
//! +0.5. We reproduce the *mechanism* on a teacher-generated corpus (see
//! `topick_model::perplexity`): a bisection finds the loosest threshold
//! (or, for SpAtten, the smallest keep ratio) whose measured ΔPPL stays
//! within budget.

use topick_core::PrunerConfig;
use topick_model::{delta_ppl, teacher_corpus, ModelSpec, TokenPickerAttention, TransformerModel};
use topick_spatten::TopKAttention;

/// A calibration testbed: a model and corpus reused across searches.
#[derive(Debug)]
pub struct Calibration {
    model: TransformerModel,
    corpus: Vec<usize>,
}

impl Calibration {
    /// Builds the standard testbed: a toy-scale model and a 96-token
    /// teacher corpus.
    #[must_use]
    pub fn standard() -> Self {
        let model = TransformerModel::new_random(ModelSpec::toy(), 0xCA11B);
        let corpus = teacher_corpus(&model, 96, 3);
        Self { model, corpus }
    }

    /// Measured ΔPPL of Token-Picker at threshold `thr`.
    #[must_use]
    pub fn topick_delta_ppl(&self, thr: f64) -> f64 {
        let cfg = PrunerConfig::new(thr).expect("threshold in range");
        let mut kernel = TokenPickerAttention::new(cfg);
        delta_ppl(&self.model, &self.corpus, &mut kernel)
    }

    /// Measured ΔPPL of fixed-ratio top-k attention at `keep_ratio`.
    #[must_use]
    pub fn topk_delta_ppl(&self, keep_ratio: f64) -> f64 {
        let mut kernel = TopKAttention::new(keep_ratio);
        delta_ppl(&self.model, &self.corpus, &mut kernel)
    }

    /// Finds the loosest Token-Picker threshold with ΔPPL ≤ `budget` by
    /// bisection over `log10(thr)` in `[-7, -1]`.
    #[must_use]
    pub fn calibrate_topick_threshold(&self, budget: f64) -> f64 {
        let mut lo = -7.0f64; // ΔPPL surely within budget
        let mut hi = -1.0f64; // very aggressive
        if self.topick_delta_ppl(10f64.powf(hi)) <= budget {
            return 10f64.powf(hi);
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if self.topick_delta_ppl(10f64.powf(mid)) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        10f64.powf(lo)
    }

    /// Finds the smallest keep ratio with ΔPPL ≤ `budget` by bisection over
    /// `[0.02, 1.0]`.
    #[must_use]
    pub fn calibrate_topk_ratio(&self, budget: f64) -> f64 {
        let mut lo = 0.02f64; // aggressive
        let mut hi = 1.0f64; // no pruning
        if self.topk_delta_ppl(lo) <= budget {
            return lo;
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if self.topk_delta_ppl(mid) <= budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// The probability thresholds standing in for the paper's ΔPPL operating
/// points: ToPick (≤ +0.05 PPL) and ToPick-0.3.
///
/// The paper anchors token "dominance" at probability 1e-3 (Fig. 3) and
/// reports that pruning below that scale costs at most +0.05 PPL; the
/// looser operating points trade a little accuracy for pruning ratio. The
/// exact threshold↔ΔPPL correspondence requires the pretrained models we
/// substitute away (DESIGN.md §2), so the reproduction pins the thresholds
/// on the paper's own dominance scale. The ΔPPL *mechanism* is still
/// exercised end-to-end by [`Calibration`] and the Fig. 8 PPL columns.
pub const THR_TOPICK: f64 = 1e-3;
/// ToPick-0.3 operating point (see [`THR_TOPICK`]).
pub const THR_TOPICK_03: f64 = 4e-3;

/// The largest fraction of tokens that are dominant for *any* of a window
/// of consecutive queries over the same context.
///
/// SpAtten's cascade prunes permanently, ranking tokens by importance
/// accumulated from *past* queries; a token it drops is gone for every
/// future query too. Without fine-tuning, its keep ratio therefore has to
/// cover the union of the dominant sets across upcoming queries, not just
/// one query's — and dominant sets shift from query to query (Fig. 4a's
/// locality window slides; background dominance is query-dependent). This
/// is the mechanism behind the paper's "1.64× higher reduction without
/// fine-tuning" claim, and fine-tuning (SpAtten*) is what relaxes it.
#[must_use]
pub fn worst_union_dominant_fraction(
    p_thr: f64,
    ctx: usize,
    dim: usize,
    instances: usize,
    window: usize,
) -> f64 {
    use topick_model::InstanceSampler;
    let sampler = InstanceSampler::realistic(ctx, dim);
    let mut worst = 0.0f64;
    for i in 0..instances {
        let mut dominant = vec![false; ctx];
        for w in 0..window {
            let inst = sampler.sample(0xBA5E + (i * window + w) as u64);
            for (t, &p) in inst.exact_probabilities().iter().enumerate() {
                if p > p_thr {
                    dominant[t] = true;
                }
            }
        }
        let frac = dominant.iter().filter(|&&d| d).count() as f64 / ctx as f64;
        worst = worst.max(frac);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn operating_points_are_ordered() {
        assert!(THR_TOPICK < THR_TOPICK_03);
    }

    #[test]
    fn worst_kept_fraction_exceeds_mean() {
        // The whole point of adaptive pruning (paper §2.2.2): the worst
        // instance needs far more tokens than the average one, so a
        // fixed-ratio scheme that must keep every dominant token has to
        // provision for the worst case.
        use topick_core::{PrecisionConfig, ProgressivePruner, QMatrix, QVector};
        use topick_model::InstanceSampler;
        let (ctx, dim, instances) = (384, 64, 8);
        let pc = PrecisionConfig::paper();
        let pruner = ProgressivePruner::new(PrunerConfig::new(THR_TOPICK).unwrap());
        let sampler = InstanceSampler::realistic(ctx, dim);
        let (mut worst, mut mean) = (0.0f64, 0.0);
        for i in 0..instances {
            let inst = sampler.sample(0xBA5E + i as u64);
            let q = QVector::quantize(&inst.query, pc);
            let keys = QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc).unwrap();
            let kept = pruner.run(&q, &keys).unwrap().stats.kept as f64 / ctx as f64;
            worst = worst.max(kept);
            mean += kept;
        }
        mean /= instances as f64;
        assert!(worst > 1.3 * mean, "worst {worst} vs mean {mean}");
    }

    #[test]
    fn calibration_budgets_are_monotone() {
        let cal = Calibration::standard();
        let tight = cal.calibrate_topick_threshold(0.05);
        let loose = cal.calibrate_topick_threshold(0.5);
        assert!(
            tight <= loose * 1.001,
            "tighter budget must give tighter threshold: {tight} vs {loose}"
        );
    }

    #[test]
    fn calibrated_threshold_respects_budget() {
        let cal = Calibration::standard();
        let thr = cal.calibrate_topick_threshold(0.3);
        assert!(cal.topick_delta_ppl(thr) <= 0.3 + 1e-9);
    }

    #[test]
    fn topk_ratio_monotone_in_budget() {
        let cal = Calibration::standard();
        let strict = cal.calibrate_topk_ratio(0.05);
        let loose = cal.calibrate_topk_ratio(1.0);
        assert!(loose <= strict + 1e-9);
    }
}
