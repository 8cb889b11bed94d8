//! Fig. 10 — (a) speedup and (b) normalized energy breakdown of the ToPick
//! accelerator configurations over the baseline accelerator, across the
//! eight-model zoo, from the cycle-level simulator.

use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
use topick_core::PrecisionConfig;
use topick_energy::EnergyBreakdown;
use topick_model::{InstanceSampler, ModelSpec};

use crate::util::header;

/// Aggregated simulation outcome of one (model, mode) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeAggregate {
    /// Total accelerator cycles over all instances.
    pub cycles: u64,
    /// Summed energy breakdown.
    pub energy: EnergyBreakdown,
}

/// One model's row: baseline, estimate-only (ToPick-V), full ToPick, and
/// ToPick-0.3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Model name.
    pub model: &'static str,
    /// Baseline accelerator.
    pub baseline: ModeAggregate,
    /// Estimation-only (full K, pruned V).
    pub estimate_only: ModeAggregate,
    /// Full ToPick (chunked K + out-of-order).
    pub topick: ModeAggregate,
    /// ToPick at the +0.3 PPL threshold.
    pub topick_03: ModeAggregate,
}

impl Fig10Row {
    /// Speedup of a mode vs. the baseline.
    #[must_use]
    pub fn speedup(&self, mode: &ModeAggregate) -> f64 {
        self.baseline.cycles as f64 / mode.cycles as f64
    }
}

fn aggregate(
    mode: AccelMode,
    thr: f64,
    ctx: usize,
    dim: usize,
    instances: usize,
    seed_base: u64,
) -> ModeAggregate {
    let pc = PrecisionConfig::paper();
    let mut cfg = AccelConfig::paper(mode, thr).expect("valid thr");
    cfg.dim = dim;
    let accel = ToPickAccelerator::new(cfg);
    let sampler = InstanceSampler::realistic(ctx, dim);
    let mut cycles = 0u64;
    let mut energy = EnergyBreakdown::default();
    for i in 0..instances {
        let (q, keys) = sampler.sample_codes(seed_base + i as u64, pc);
        let r = accel.attention_cost(&q, &keys).expect("run");
        cycles += r.cycles;
        energy += r.energy;
    }
    ModeAggregate { cycles, energy }
}

/// Computes all rows.
#[must_use]
pub fn compute(fast: bool) -> Vec<Fig10Row> {
    let (thr, thr_03) = (
        crate::calibrate::THR_TOPICK,
        crate::calibrate::THR_TOPICK_03,
    );
    let instances = if fast { 2 } else { 6 };
    ModelSpec::paper_sweep()
        .into_iter()
        .enumerate()
        .map(|(mi, spec)| {
            let full_ctx = if spec.name.starts_with("GPT2") {
                1024
            } else {
                2048
            };
            let ctx = if fast { full_ctx.min(384) } else { full_ctx };
            let dim = spec.head_dim();
            let seed = 0xA10 + (mi as u64) * 777;
            Fig10Row {
                model: spec.name,
                baseline: aggregate(AccelMode::Baseline, 0.5, ctx, dim, instances, seed),
                estimate_only: aggregate(AccelMode::EstimateOnly, thr, ctx, dim, instances, seed),
                topick: aggregate(AccelMode::OutOfOrder, thr, ctx, dim, instances, seed),
                topick_03: aggregate(AccelMode::OutOfOrder, thr_03, ctx, dim, instances, seed),
            }
        })
        .collect()
}

/// Prints both panels.
pub fn run(fast: bool) {
    let rows = compute(fast);
    header("Fig. 10a — speedup over the baseline accelerator");
    println!(
        "{:<12} {:>9} {:>9} {:>11}",
        "model", "ToPick-V", "ToPick", "ToPick-0.3"
    );
    let mut sums = (0.0, 0.0, 0.0);
    for r in &rows {
        let (a, b, c) = (
            r.speedup(&r.estimate_only),
            r.speedup(&r.topick),
            r.speedup(&r.topick_03),
        );
        println!("{:<12} {a:>8.2}x {b:>8.2}x {c:>10.2}x", r.model);
        sums.0 += a;
        sums.1 += b;
        sums.2 += c;
    }
    let n = rows.len() as f64;
    println!(
        "{:<12} {:>8.2}x {:>8.2}x {:>10.2}x   (paper: ~1.73x, 2.28x, 2.48x)",
        "mean",
        sums.0 / n,
        sums.1 / n,
        sums.2 / n
    );

    header("Fig. 10b — normalized energy breakdown");
    println!(
        "{:<12} {:>22} {:>22} {:>22}",
        "model", "Baseline", "ToPick", "ToPick-0.3"
    );
    let fmt = |agg: &ModeAggregate, base: f64| {
        let (d, s, c) = agg.energy.fractions();
        let norm = agg.energy.total_pj() / base;
        format!(
            "{:>5.0}% (d{:.0}/b{:.0}/c{:.0})",
            100.0 * norm,
            100.0 * d,
            100.0 * s,
            100.0 * c
        )
    };
    for r in &rows {
        let base = r.baseline.energy.total_pj();
        println!(
            "{:<12} {:>22} {:>22} {:>22}",
            r.model,
            fmt(&r.baseline, base),
            fmt(&r.topick, base),
            fmt(&r.topick_03, base)
        );
    }
    println!("(d/b/c = DRAM / on-chip buffer / compute shares; paper: ToPick ~41-46%, ToPick-0.3 ~37-42%)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_ordered_and_in_band() {
        // One small model is enough for the invariant; full sweep is the
        // harness's job.
        let thr = crate::calibrate::THR_TOPICK;
        let base = aggregate(AccelMode::Baseline, 0.5, 320, 64, 2, 5);
        let est = aggregate(AccelMode::EstimateOnly, thr, 320, 64, 2, 5);
        let ooo = aggregate(AccelMode::OutOfOrder, thr, 320, 64, 2, 5);
        assert!(est.cycles < base.cycles);
        assert!(ooo.cycles < est.cycles);
        let speedup = base.cycles as f64 / ooo.cycles as f64;
        assert!(speedup > 1.5 && speedup < 6.0, "speedup {speedup}");
    }

    #[test]
    fn energy_drops_with_pruning() {
        let thr = crate::calibrate::THR_TOPICK;
        let base = aggregate(AccelMode::Baseline, 0.5, 320, 64, 2, 6);
        let ooo = aggregate(AccelMode::OutOfOrder, thr, 320, 64, 2, 6);
        assert!(ooo.energy.total_pj() < base.energy.total_pj());
    }
}
