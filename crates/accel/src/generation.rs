//! A generation-phase driver: sweeps the accelerator over a whole
//! multi-step, multi-head generation run, including the KV-append write
//! traffic each new token produces.
//!
//! This is what the Fig. 10 evaluation measures in aggregate; the driver
//! exposes it as a reusable simulation with per-step results.

use topick_core::{CoreError, PrecisionConfig, PruneStats, QMatrix, QVector};
use topick_dram::DramSim;
use topick_energy::{EnergyBreakdown, EventCounts};

use crate::config::AccelConfig;
use crate::engine::{stream_sequential, ToPickAccelerator};

/// Configuration of a generation-phase sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationConfig {
    /// Accelerator configuration (mode, threshold, geometry).
    pub accel: AccelConfig,
    /// Prompt length (context at step 0).
    pub prompt_len: usize,
    /// Number of generation steps to simulate.
    pub steps: usize,
    /// Heads simulated per step (each gets an independent instance).
    pub heads: usize,
    /// Whether to model the KV-append write traffic of each new token.
    pub model_kv_writes: bool,
}

/// Aggregate result of a generation-phase sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRunResult {
    /// Total accelerator cycles (attention steps + KV-append writes).
    pub cycles: u64,
    /// Aggregate pruning statistics over all (step, head) pairs.
    pub prune: PruneStats,
    /// Aggregate on-chip event counts.
    pub events: EventCounts,
    /// Aggregate energy.
    pub energy: EnergyBreakdown,
    /// Cycles spent on KV-append writes.
    pub write_cycles: u64,
    /// Bytes written for KV appends.
    pub kv_write_bytes: u64,
    /// Per-step attention cycles (summed over heads).
    pub per_step_cycles: Vec<u64>,
}

impl GenerationRunResult {
    /// Mean attention cycles per generation step.
    #[must_use]
    pub fn mean_step_cycles(&self) -> f64 {
        if self.per_step_cycles.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.per_step_cycles.iter().sum();
        sum as f64 / self.per_step_cycles.len() as f64
    }
}

/// The generation-phase simulator.
///
/// Workload instances are produced by a caller-supplied factory so the
/// driver stays decoupled from any particular synthetic distribution:
/// `instance(step, head, context_len)` must return `(query, keys)` with
/// `keys.num_tokens() == context_len`. The sweep reports what the steps
/// cost, which the query and keys decide alone, so no values are asked for.
#[derive(Debug, Clone)]
pub struct GenerationSimulator {
    cfg: GenerationConfig,
}

impl GenerationSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len`, `steps` or `heads` is zero.
    #[must_use]
    pub fn new(cfg: GenerationConfig) -> Self {
        assert!(cfg.prompt_len > 0, "prompt_len must be positive");
        assert!(cfg.steps > 0, "steps must be positive");
        assert!(cfg.heads > 0, "heads must be positive");
        Self { cfg }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &GenerationConfig {
        &self.cfg
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from malformed instances produced by the
    /// factory (dimension mismatches, empty key sets).
    pub fn run<F>(&self, mut instance: F) -> Result<GenerationRunResult, CoreError>
    where
        F: FnMut(usize, usize, usize) -> (QVector, QMatrix),
    {
        let accel_cfg = &self.cfg.accel;
        let accel = ToPickAccelerator::new(accel_cfg.clone());
        let pc: PrecisionConfig = accel_cfg.precision;
        let mut prune = PruneStats::new(0, pc.num_chunks());
        let mut events = EventCounts::default();
        let mut energy = EnergyBreakdown::default();
        let mut cycles = 0u64;
        let mut per_step_cycles = Vec::with_capacity(self.cfg.steps);
        let burst = u64::from(accel_cfg.dram.access_bytes);
        let mut append_bursts = 0u64;

        for step in 0..self.cfg.steps {
            let ctx = self.cfg.prompt_len + step;
            let mut step_cycles = 0u64;
            for head in 0..self.cfg.heads {
                let (q, keys) = instance(step, head, ctx);
                let r = accel.attention_cost(&q, &keys)?;
                step_cycles += r.cycles;
                prune.merge(&r.prune);
                events.merge(&r.events);
                energy += r.energy;
                // The new token's K and V rows, as wide as this head's keys.
                append_bursts += 2 * pc.row_bytes(keys.dim()).div_ceil(burst);
            }
            per_step_cycles.push(step_cycles);
            cycles += step_cycles;
        }

        // KV-append writes: each step stores the new token's K and V rows
        // for every head.
        let mut write_cycles = 0u64;
        let mut kv_write_bytes = 0u64;
        if self.cfg.model_kv_writes {
            let dram =
                stream_sequential(&accel_cfg.dram, append_bursts, DramSim::try_enqueue_write);
            write_cycles = dram.cycle().div_ceil(accel_cfg.clock_ratio);
            kv_write_bytes = append_bursts * burst;
            energy.dram_pj += dram.stats().energy_pj(dram.config(), dram.cycle());
            cycles += write_cycles;
        }

        Ok(GenerationRunResult {
            cycles,
            prune,
            events,
            energy,
            write_cycles,
            kv_write_bytes,
            per_step_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelMode;

    fn synthetic_factory(seed: u64) -> impl FnMut(usize, usize, usize) -> (QVector, QMatrix) {
        move |step, head, ctx| {
            let pc = PrecisionConfig::paper();
            let profile = topick_model::SynthProfile::realistic(ctx, 64);
            let inst = topick_model::SynthKeys::generate(
                &profile,
                seed.wrapping_add(step as u64 * 1009)
                    .wrapping_add(head as u64 * 131),
            );
            (
                QVector::quantize(&inst.query, pc),
                QMatrix::quantize_flat(inst.keys().data(), 64, pc).expect("non-empty"),
            )
        }
    }

    #[test]
    fn sweep_aggregates_every_step_and_head() {
        let cfg = GenerationConfig {
            accel: AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap(),
            prompt_len: 32,
            steps: 4,
            heads: 2,
            model_kv_writes: false,
        };
        let r = GenerationSimulator::new(cfg)
            .run(synthetic_factory(1))
            .unwrap();
        // Tokens processed: sum over steps of heads * (prompt + step).
        let expect: usize = (0..4).map(|s| 2 * (32 + s)).sum();
        assert_eq!(r.prune.tokens, expect);
        assert_eq!(r.per_step_cycles.len(), 4);
        assert!(r.cycles > 0);
        assert_eq!(r.write_cycles, 0);
    }

    #[test]
    fn kv_writes_add_cycles_and_bytes() {
        let base = GenerationConfig {
            accel: AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap(),
            prompt_len: 32,
            steps: 4,
            heads: 2,
            model_kv_writes: false,
        };
        let with_writes = GenerationConfig {
            model_kv_writes: true,
            ..base.clone()
        };
        let a = GenerationSimulator::new(base)
            .run(synthetic_factory(2))
            .unwrap();
        let b = GenerationSimulator::new(with_writes)
            .run(synthetic_factory(2))
            .unwrap();
        assert!(b.cycles > a.cycles);
        assert!(b.write_cycles > 0);
        // 2 rows (K+V) x 2 heads x 96 bytes x 4 steps.
        assert_eq!(b.kv_write_bytes, 2 * 2 * 96 * 4);
        assert!(b.energy.total_pj() > a.energy.total_pj());
    }

    #[test]
    fn kv_writes_are_sized_by_the_keys_not_the_config() {
        // 128-wide heads under the default dim-64 config: the appended rows
        // are 192 bytes each, not the 96 the config's `dim` would suggest.
        let cfg = GenerationConfig {
            accel: AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap(),
            prompt_len: 16,
            steps: 3,
            heads: 2,
            model_kv_writes: true,
        };
        assert_eq!(cfg.accel.dim, 64);
        let pc = PrecisionConfig::paper();
        let wide = |step: usize, head: usize, ctx: usize| {
            let profile = topick_model::SynthProfile::realistic(ctx, 128);
            let inst = topick_model::SynthKeys::generate(&profile, (step * 7 + head) as u64);
            (
                QVector::quantize(&inst.query, pc),
                QMatrix::quantize_flat(inst.keys().data(), 128, pc).expect("non-empty"),
            )
        };
        let r = GenerationSimulator::new(cfg).run(wide).unwrap();
        // 2 rows (K+V) x 2 heads x 192 bytes x 3 steps.
        assert_eq!(r.kv_write_bytes, 2 * 2 * 192 * 3);
    }

    #[test]
    fn baseline_sweep_is_slower_than_topick_sweep() {
        // Contexts must be long enough for out-of-order execution to have
        // something to overlap (the paper evaluates at 1024-2048); with a
        // handful of tokens per lane the round-trip latency dominates.
        let mk = |mode| GenerationConfig {
            accel: AccelConfig::paper(mode, 1e-3).unwrap(),
            prompt_len: 256,
            steps: 2,
            heads: 1,
            model_kv_writes: true,
        };
        let base = GenerationSimulator::new(mk(AccelMode::Baseline))
            .run(synthetic_factory(3))
            .unwrap();
        let topick = GenerationSimulator::new(mk(AccelMode::OutOfOrder))
            .run(synthetic_factory(3))
            .unwrap();
        assert!(topick.cycles < base.cycles);
        assert!(topick.mean_step_cycles() < base.mean_step_cycles());
    }
}
