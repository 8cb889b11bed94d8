//! Ablation studies of the design choices DESIGN.md calls out: scan order,
//! chunk width, and out-of-order vs blocking execution.

use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
use topick_core::{
    PrecisionConfig, ProgressivePruner, PruneStats, PrunerConfig, QMatrix, QVector, ScanOrder,
    ValuePlan,
};
use topick_model::InstanceSampler;

use crate::util::header;

fn aggregate_with(cfg: PrunerConfig, ctx: usize, dim: usize, instances: usize) -> PruneStats {
    let pruner = ProgressivePruner::new(cfg);
    let sampler = InstanceSampler::realistic(ctx, dim);
    let mut agg = PruneStats::new(0, cfg.precision().num_chunks());
    for i in 0..instances {
        let inst = sampler.sample_keys(0xAB1 + i as u64);
        let q = QVector::quantize(&inst.query, cfg.precision());
        let keys =
            QMatrix::quantize_flat(inst.keys().data(), dim, cfg.precision()).expect("non-empty");
        agg.merge(&pruner.run(&q, &keys).expect("valid").stats);
    }
    agg
}

/// Scan-order ablation: how much K traffic each probe order costs.
pub fn run_order(fast: bool) {
    header("Ablation — scan order (K traffic and pruning at thr=1e-3)");
    let (ctx, instances) = if fast { (512, 4) } else { (1024, 16) };
    let dim = 64;
    let pc = PrecisionConfig::paper();
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "order", "K reduction", "V reduction", "mean chunks"
    );
    for order in [
        ScanOrder::FirstAndReverse,
        ScanOrder::ReverseChronological,
        ScanOrder::Sequential,
    ] {
        let cfg = PrunerConfig::new(1e-3).expect("thr").with_order(order);
        let s = aggregate_with(cfg, ctx, dim, instances);
        let mean_chunks = s.chunk_fetches.iter().sum::<u64>() as f64 / s.tokens as f64;
        println!(
            "{:<22} {:>11.2}x {:>11.1}x {:>12.2}",
            format!("{order:?}"),
            s.k_reduction(dim, &pc),
            s.v_reduction(),
            mean_chunks
        );
    }
    println!("(the paper's first+reverse order should fetch the fewest chunks)");
}

/// Chunk-width ablation: 12-bit operands split 2/4/6/12 ways.
pub fn run_chunks(fast: bool) {
    header("Ablation — chunk width (12-bit operands)");
    let (ctx, instances) = if fast { (512, 4) } else { (1024, 16) };
    let dim = 64;
    println!(
        "{:<14} {:>12} {:>12} {:>14}",
        "chunk bits", "K reduction", "V reduction", "decisions/tok"
    );
    for chunk_bits in [2u32, 4, 6, 12] {
        let pc = PrecisionConfig::new(12, chunk_bits).expect("divides 12");
        let cfg = PrunerConfig::new(1e-3).expect("thr").with_precision(pc);
        let s = aggregate_with(cfg, ctx, dim, instances);
        let evals = s.chunk_fetches.iter().sum::<u64>() as f64 / s.tokens as f64;
        println!(
            "{:<14} {:>11.2}x {:>11.1}x {:>14.2}",
            chunk_bits,
            s.k_reduction(dim, &pc),
            s.v_reduction(),
            evals
        );
    }
    println!("(finer chunks prune earlier but pay more decision passes)");
}

/// Out-of-order vs blocking pipeline ablation (cycle counts).
pub fn run_ooo(fast: bool) {
    header("Ablation — out-of-order vs blocking chunk requests");
    let contexts: &[usize] = if fast {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024]
    };
    let pc = PrecisionConfig::paper();
    println!(
        "{:<8} {:>12} {:>12} {:>9}",
        "context", "OoO cycles", "blocking", "gain"
    );
    for &ctx in contexts {
        let sampler = InstanceSampler::realistic(ctx, 64);
        let inst = sampler.sample_keys(0x000);
        let q = QVector::quantize(&inst.query, pc);
        let keys = QMatrix::quantize_flat(inst.keys().data(), 64, pc).expect("non-empty");
        let run = |mode: AccelMode| {
            ToPickAccelerator::new(AccelConfig::paper(mode, 1e-3).expect("thr"))
                .attention_cost(&q, &keys)
                .expect("run")
                .cycles
        };
        let ooo = run(AccelMode::OutOfOrder);
        let blocking = run(AccelMode::Blocking);
        println!(
            "{:<8} {:>12} {:>12} {:>8.2}x",
            ctx,
            ooo,
            blocking,
            blocking as f64 / ooo as f64
        );
    }
    println!("(paper: out-of-order contributes ~1.32x of the total speedup)");
}

/// Scoreboard-depth ablation: out-of-order cycles vs entries per lane.
pub fn run_scoreboard(fast: bool) {
    header("Ablation — scoreboard depth (entries per lane)");
    let ctx = if fast { 256 } else { 1024 };
    let pc = PrecisionConfig::paper();
    let inst = InstanceSampler::realistic(ctx, 64).sample_keys(0x5B);
    let q = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), 64, pc).expect("non-empty");
    println!("{:<10} {:>10}", "entries", "cycles");
    for entries in [1usize, 2, 4, 8, 16, 32] {
        let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        cfg.scoreboard_entries = entries;
        let cycles = ToPickAccelerator::new(cfg)
            .attention_cost(&q, &keys)
            .expect("run")
            .cycles;
        println!("{entries:<10} {cycles:>10}");
    }
    println!("(the paper's 32 entries are conservative; ~8 suffice at these contexts)");
}

/// Progressive V-fetch extension: extra V reduction vs output-error budget.
pub fn run_vchunks(fast: bool) {
    header("Extension — progressive V chunk fetching (beyond the paper)");
    let ctx = if fast { 256 } else { 1024 };
    let pc = PrecisionConfig::paper();
    let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3).expect("thr"));
    let inst = InstanceSampler::realistic(ctx, 64).sample(0x7C);
    let q = QVector::quantize(&inst.query, pc);
    let keys = QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc).expect("non-empty");
    let values = QMatrix::quantize_flat(inst.values().data(), inst.dim(), pc).expect("non-empty");
    let outcome = pruner.run(&q, &keys).expect("run");
    let pairs = outcome.probability_pairs();
    println!(
        "{:<14} {:>14} {:>14}",
        "error budget", "extra V red.", "error bound"
    );
    for budget in [1e-4, 1e-3, 1e-2, 1e-1] {
        let plan = ValuePlan::compute(&pairs, pc, values.scale(), budget).expect("budget");
        let (_, bound) = topick_core::truncated_weighted_sum(&plan, &pairs, &values);
        println!(
            "{budget:<14.0e} {:>13.2}x {:>14.2e}",
            plan.extra_reduction(64),
            bound
        );
    }
    println!("(low-probability survivors need only their V MSB chunks)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_order_fetches_fewest_chunks() {
        let dim = 64;
        let mk = |order| {
            let cfg = PrunerConfig::new(1e-3).unwrap().with_order(order);
            aggregate_with(cfg, 384, dim, 4)
                .chunk_fetches
                .iter()
                .sum::<u64>()
        };
        let fr = mk(ScanOrder::FirstAndReverse);
        let seq = mk(ScanOrder::Sequential);
        assert!(fr <= seq, "first+reverse {fr} should beat sequential {seq}");
    }

    #[test]
    fn scoreboard_depth_monotone() {
        let pc = PrecisionConfig::paper();
        let inst = InstanceSampler::realistic(192, 64).sample_keys(1);
        let q = QVector::quantize(&inst.query, pc);
        let keys = QMatrix::quantize_flat(inst.keys().data(), 64, pc).unwrap();
        let run = |entries| {
            let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
            cfg.scoreboard_entries = entries;
            ToPickAccelerator::new(cfg)
                .attention_cost(&q, &keys)
                .unwrap()
                .cycles
        };
        assert!(run(1) >= run(32), "deeper scoreboard should not be slower");
    }

    #[test]
    fn coarser_chunks_reduce_decision_count() {
        let mk = |bits| {
            let pc = PrecisionConfig::new(12, bits).unwrap();
            let cfg = PrunerConfig::new(1e-3).unwrap().with_precision(pc);
            let s = aggregate_with(cfg, 256, 64, 2);
            s.chunk_fetches.iter().sum::<u64>()
        };
        assert!(mk(12) <= mk(4));
        assert!(mk(4) <= mk(2));
    }
}
