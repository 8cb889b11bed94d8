//! Fig. 8 — normalized off-chip KV access (bars) and perplexity (lines)
//! for Baseline / ToPick / ToPick-0.3 across the eight-model zoo, plus the
//! §5.2.1 aggregate reduction factors.

use topick_core::{PrecisionConfig, ProgressivePruner, PruneStats, PrunerConfig};
use topick_model::{
    evaluate_perplexity, AttentionBackend, ExactAttention, InstanceSampler, ModelSpec,
    TokenPickerAttention, TransformerModel,
};

use crate::util::{bar, header};

/// One model's row of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Model name.
    pub model: &'static str,
    /// Context length used.
    pub context: usize,
    /// Aggregate stats at the ToPick threshold.
    pub topick: PruneStats,
    /// Aggregate stats at the ToPick-0.3 threshold.
    pub topick_03: PruneStats,
    /// Head dimension (for bit accounting).
    pub head_dim: usize,
    /// Perplexity proxy: (baseline, topick, topick-0.3).
    pub ppl: (f64, f64, f64),
}

impl Fig8Row {
    /// Normalized (K+V) access of a stats bundle vs. the no-pruning
    /// baseline.
    #[must_use]
    pub fn normalized(&self, stats: &PruneStats) -> f64 {
        1.0 / stats.total_reduction(self.head_dim, &PrecisionConfig::paper())
    }
}

fn paper_context(spec: &ModelSpec) -> usize {
    // §5.1.3: context 1024 for GPT2 models, 2048 for OPT and LLaMa-2.
    if spec.name.starts_with("GPT2") {
        1024
    } else {
        2048
    }
}

fn aggregate_stats(
    thr: f64,
    ctx: usize,
    dim: usize,
    instances: usize,
    seed_base: u64,
) -> PruneStats {
    let pc = PrecisionConfig::paper();
    let pruner = ProgressivePruner::new(PrunerConfig::new(thr).expect("thr valid"));
    let sampler = InstanceSampler::realistic(ctx, dim);
    let mut agg = PruneStats::new(0, pc.num_chunks());
    for i in 0..instances {
        let (q, keys) = sampler.sample_codes(seed_base + i as u64, pc);
        let outcome = pruner.run(&q, &keys).expect("valid run");
        agg.merge(&outcome.stats);
    }
    agg
}

fn ppl_proxy(spec: &ModelSpec, thr: f64, thr_03: f64) -> (f64, f64, f64) {
    // Down-scaled model with the spec's name-shape character; 64-token
    // teacher corpus. Absolute values are proxies (see DESIGN.md §2).
    let scaled = spec.scaled_down(16);
    let model = TransformerModel::new_random(scaled, 0xF1_68);
    let corpus = topick_model::teacher_corpus_with_temperature(&model, 96, 1, 1.5);
    let mut exact = ExactAttention::new();
    let base = evaluate_perplexity(&model, &corpus, &mut exact).perplexity;
    let run = |t: f64| {
        let mut k: Box<dyn AttentionBackend> = Box::new(TokenPickerAttention::new(
            PrunerConfig::new(t).expect("thr"),
        ));
        evaluate_perplexity(&model, &corpus, k.as_mut()).perplexity
    };
    (base, run(thr), run(thr_03))
}

/// Computes every row. `fast` shrinks contexts and instance counts.
#[must_use]
pub fn compute(fast: bool) -> (f64, f64, Vec<Fig8Row>) {
    let instances = if fast { 4 } else { 16 };
    // Operating points on the paper's dominance scale (see
    // `calibrate::THR_TOPICK`).
    let (thr, thr_03) = (
        crate::calibrate::THR_TOPICK,
        crate::calibrate::THR_TOPICK_03,
    );
    let rows = ModelSpec::paper_sweep()
        .into_iter()
        .enumerate()
        .map(|(mi, spec)| {
            let ctx = if fast {
                paper_context(&spec).min(512)
            } else {
                paper_context(&spec)
            };
            let dim = spec.head_dim();
            let seed = 0x800 + (mi as u64) * 1000;
            Fig8Row {
                model: spec.name,
                context: ctx,
                topick: aggregate_stats(thr, ctx, dim, instances, seed),
                topick_03: aggregate_stats(thr_03, ctx, dim, instances, seed),
                head_dim: dim,
                ppl: ppl_proxy(&spec, thr, thr_03),
            }
        })
        .collect();
    (thr, thr_03, rows)
}

/// Prints the figure and the §5.2.1 aggregates.
pub fn run(fast: bool) {
    header("Fig. 8 — normalized DRAM access and perplexity across models");
    let (thr, thr_03, rows) = compute(fast);
    println!("operating points: ToPick thr={thr:.1e}, ToPick-0.3 thr={thr_03:.1e}");
    println!();
    println!(
        "{:<12} {:>5}  {:>9} {:>9}  {:>9} {:>9}  {:>8} {:>8} {:>8}",
        "model", "ctx", "ToPick", "(norm)", "ToPick.3", "(norm)", "PPL", "PPL tp", "PPL .3"
    );
    let pc = PrecisionConfig::paper();
    let mut v_red = (0.0, 0.0);
    let mut k_red = (0.0, 0.0);
    let mut t_red = (0.0, 0.0);
    for r in &rows {
        let n1 = r.normalized(&r.topick);
        let n2 = r.normalized(&r.topick_03);
        println!(
            "{:<12} {:>5}  {} {:>8.3}  {} {:>8.3}  {:>8.2} {:>8.2} {:>8.2}",
            r.model,
            r.context,
            bar(n1, 8),
            n1,
            bar(n2, 8),
            n2,
            r.ppl.0,
            r.ppl.1,
            r.ppl.2
        );
        v_red.0 += r.topick.v_reduction();
        v_red.1 += r.topick_03.v_reduction();
        k_red.0 += r.topick.k_reduction(r.head_dim, &pc);
        k_red.1 += r.topick_03.k_reduction(r.head_dim, &pc);
        t_red.0 += r.topick.total_reduction(r.head_dim, &pc);
        t_red.1 += r.topick_03.total_reduction(r.head_dim, &pc);
    }
    let n = rows.len() as f64;
    println!();
    println!("aggregate reductions (paper targets in parentheses):");
    println!(
        "  V access:    ToPick {:.1}x (12.1x)   ToPick-0.3 {:.1}x (22.2x)",
        v_red.0 / n,
        v_red.1 / n
    );
    println!(
        "  K access:    ToPick {:.2}x (1.45x)   ToPick-0.3 {:.2}x (1.51x)",
        k_red.0 / n,
        k_red.1 / n
    );
    println!(
        "  total (K+V): ToPick {:.2}x (2.57x)   ToPick-0.3 {:.2}x (2.79x)",
        t_red.0 / n,
        t_red.1 / n
    );
    println!("(PPL columns are the synthetic-corpus proxy; see DESIGN.md substitution table)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_in_the_paper_band() {
        let (_, _, rows) = compute(true);
        assert_eq!(rows.len(), 8);
        let pc = PrecisionConfig::paper();
        for r in &rows {
            let v = r.topick.v_reduction();
            assert!(v > 2.0, "{}: V reduction {v} too small", r.model);
            let k = r.topick.k_reduction(r.head_dim, &pc);
            assert!(k > 1.0, "{}: K reduction {k}", r.model);
            // The looser threshold prunes at least as much.
            assert!(r.topick_03.kept <= r.topick.kept);
        }
    }

    #[test]
    fn ppl_ordering_is_sane() {
        let (_, _, rows) = compute(true);
        for r in &rows {
            // Pruned perplexity can only degrade (within noise).
            assert!(r.ppl.1 >= r.ppl.0 - 0.05, "{}: {:?}", r.model, r.ppl);
            assert!(r.ppl.2 >= r.ppl.1 - 0.05, "{}: {:?}", r.model, r.ppl);
        }
    }
}
