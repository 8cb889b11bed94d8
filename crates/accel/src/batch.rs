//! Batched-serving step simulation — the paper's motivation (§2.2.1)
//! turned into an end-to-end model.
//!
//! In a batched generation step, the FC/FFN weights are streamed from DRAM
//! once and shared by all `B` requests, while each request streams its own
//! KV cache through the attention unit. The attention share of the step
//! therefore grows with `B`, and that is precisely the share Token-Picker
//! shrinks. This module combines:
//!
//! * a measured per-request attention cost (cycles from the cycle-level
//!   simulator, amortized per head), and
//! * an analytic weight-streaming cost at the accelerator's DRAM bandwidth,
//!
//! to produce step latency and the batch-size scaling of the speedup.

use topick_core::{CoreError, QMatrix, QVector};

use crate::config::AccelConfig;
use crate::engine::ToPickAccelerator;

/// Model-level parameters of the batched step (weight bytes come from the
/// model spec; attention geometry from the accelerator config).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStepParams {
    /// Bytes of FC/FFN weights streamed once per step.
    pub weight_bytes: u64,
    /// Attention heads per request (every head runs one attention step).
    pub heads: usize,
    /// Requests in the batch.
    pub batch: usize,
}

/// The outcome of a batched-step simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStepResult {
    /// Accelerator cycles spent streaming shared weights.
    pub weight_cycles: u64,
    /// Accelerator cycles spent on attention across the batch.
    pub attention_cycles: u64,
    /// Attention fraction of the step.
    pub attention_fraction: f64,
}

impl BatchStepResult {
    /// Total step cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.weight_cycles + self.attention_cycles
    }

    /// Step speedup vs. another result (e.g. ToPick vs baseline).
    #[must_use]
    pub fn speedup_vs(&self, other: &BatchStepResult) -> f64 {
        other.total_cycles() as f64 / self.total_cycles() as f64
    }
}

/// Simulates one batched generation step.
///
/// The per-request, per-head attention cost is measured by running the
/// cycle-level simulator once on the supplied instance and scaling by
/// `heads × batch` (heads within a request are processed back-to-back on
/// the shared lanes, as are requests within the batch). Weight streaming
/// proceeds at the DRAM peak bandwidth, the best case for the baseline.
///
/// # Errors
///
/// Propagates [`CoreError`] from the attention simulation.
pub fn simulate_batch_step(
    accel_cfg: &AccelConfig,
    params: &BatchStepParams,
    query: &QVector,
    keys: &QMatrix,
) -> Result<BatchStepResult, CoreError> {
    let accel = ToPickAccelerator::new(accel_cfg.clone());
    let one_head = accel.attention_cost(query, keys)?;
    let attention_cycles = one_head.cycles * params.heads as u64 * params.batch as u64;
    let weight_cycles = weight_stream_cycles(accel_cfg, params.weight_bytes);

    let total = weight_cycles + attention_cycles;
    Ok(BatchStepResult {
        weight_cycles,
        attention_cycles,
        attention_fraction: attention_cycles as f64 / total as f64,
    })
}

/// Accelerator cycles spent streaming `weight_bytes` of FC/FFN weights at
/// the DRAM peak bandwidth — the per-step cost every request in a batch
/// shares. Factored out so the serving engine prices steps with the same
/// model the batch simulation uses.
#[must_use]
pub fn weight_stream_cycles(accel_cfg: &AccelConfig, weight_bytes: u64) -> u64 {
    // Weights stream at peak DRAM bandwidth: bytes / (bytes-per-accel-cycle).
    let bytes_per_dram_cycle = f64::from(accel_cfg.dram.bus_bits) / 8.0
        * accel_cfg.dram.channels as f64
        / accel_cfg.dram.t_burst as f64
        * 2.0; // two transfer clocks per burst move access_bytes
    let bytes_per_accel_cycle = bytes_per_dram_cycle * accel_cfg.clock_ratio as f64;
    (weight_bytes as f64 / bytes_per_accel_cycle).ceil() as u64
}

/// Convenience: simulate the same batch step under two accelerator
/// configurations (typically baseline vs ToPick) and return
/// `(baseline, topick, speedup)`.
///
/// # Errors
///
/// Propagates [`CoreError`] from either simulation.
pub fn compare_batch_step(
    baseline_cfg: &AccelConfig,
    topick_cfg: &AccelConfig,
    params: &BatchStepParams,
    query: &QVector,
    keys: &QMatrix,
) -> Result<(BatchStepResult, BatchStepResult, f64), CoreError> {
    let base = simulate_batch_step(baseline_cfg, params, query, keys)?;
    let tp = simulate_batch_step(topick_cfg, params, query, keys)?;
    let speedup = tp.speedup_vs(&base);
    Ok((base, tp, speedup))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelMode;
    use topick_core::PrecisionConfig;

    fn instance(ctx: usize) -> (QVector, QMatrix) {
        let pc = PrecisionConfig::paper();
        let inst =
            topick_model::SynthKeys::generate(&topick_model::SynthProfile::realistic(ctx, 64), 7);
        (
            QVector::quantize(&inst.query, pc),
            QMatrix::quantize_flat(inst.keys().data(), 64, pc).expect("non-empty"),
        )
    }

    #[test]
    fn attention_fraction_grows_with_batch() {
        let (q, keys) = instance(256);
        let cfg = AccelConfig::baseline();
        let mut prev_frac = 0.0;
        for batch in [1usize, 4, 16, 64] {
            let params = BatchStepParams {
                weight_bytes: 200_000_000, // ~0.1B params at 16-bit
                heads: 4,
                batch,
            };
            let r = simulate_batch_step(&cfg, &params, &q, &keys).unwrap();
            assert!(
                r.attention_fraction > prev_frac,
                "batch {batch}: fraction {} not growing",
                r.attention_fraction
            );
            prev_frac = r.attention_fraction;
        }
    }

    #[test]
    fn topick_speedup_grows_with_batch() {
        let (q, keys) = instance(512);
        let base_cfg = AccelConfig::baseline();
        let tp_cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        let mut prev_speedup = 0.0;
        for batch in [1usize, 8, 64] {
            // `heads` covers all layers x heads of a request (the attention
            // work one request contributes per step).
            let params = BatchStepParams {
                weight_bytes: 50_000_000,
                heads: 64,
                batch,
            };
            let (_, _, speedup) =
                compare_batch_step(&base_cfg, &tp_cfg, &params, &q, &keys).unwrap();
            assert!(
                speedup > prev_speedup,
                "batch {batch}: speedup {speedup} not growing (prev {prev_speedup})"
            );
            prev_speedup = speedup;
        }
        // At large batch the step is attention-dominated; speedup should be
        // a solid fraction of the pure-attention speedup (>1.5x).
        assert!(prev_speedup > 1.5, "large-batch speedup {prev_speedup}");
    }

    #[test]
    fn weight_streaming_cost_scales_with_bytes() {
        let (q, keys) = instance(128);
        let cfg = AccelConfig::baseline();
        let mk = |bytes| BatchStepParams {
            weight_bytes: bytes,
            heads: 2,
            batch: 1,
        };
        let small = simulate_batch_step(&cfg, &mk(1_000_000), &q, &keys).unwrap();
        let large = simulate_batch_step(&cfg, &mk(10_000_000), &q, &keys).unwrap();
        assert!(large.weight_cycles > 9 * small.weight_cycles);
        assert_eq!(small.attention_cycles, large.attention_cycles);
    }
}
