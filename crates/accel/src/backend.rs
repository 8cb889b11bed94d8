//! The cycle-level simulator packaged as an
//! [`AttentionBackend`] — the third
//! implementation of the workspace's unified attention interface, next to
//! the functional kernels and SpAtten's top-k baseline.
//!
//! Driving a [`TransformerModel`](topick_model::TransformerModel) forward
//! pass with this backend yields functional outputs *and* a cycle/energy
//! account of every attention step, with no cache-row cloning anywhere on
//! the path: the model's contiguous [`HeadCache`](topick_model::HeadCache)
//! buffers flow straight into the simulator as views.

use topick_core::{PruneStats, QVector, QuantBuffer};
use topick_model::{AttendBatch, AttentionBackend, KvView};

use crate::config::AccelConfig;
use crate::engine::ToPickAccelerator;
use crate::serve::lend;

/// An attention backend that runs every `attend` call through the
/// cycle-level ToPick simulator, accumulating cycles, pruning statistics
/// and energy alongside the functional output.
#[derive(Debug, Clone)]
pub struct SimulatedAttention {
    accel: ToPickAccelerator,
    cycles: u64,
    energy_pj: f64,
    stats: PruneStats,
    key_buf: QuantBuffer,
}

impl SimulatedAttention {
    /// Creates the backend around an accelerator configuration.
    #[must_use]
    pub fn new(cfg: AccelConfig) -> Self {
        let chunks = cfg.precision.num_chunks();
        Self {
            accel: ToPickAccelerator::new(cfg),
            cycles: 0,
            energy_pj: 0.0,
            stats: PruneStats::new(0, chunks),
            key_buf: QuantBuffer::new(),
        }
    }

    /// The accelerator configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        self.accel.config()
    }

    /// Accelerator cycles accumulated across all `attend` calls.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total simulated energy accumulated across all `attend` calls, in pJ:
    /// a float sum in call order, which within a forward run is layer by
    /// layer, token by token, head by head — the order of
    /// [`AttendBatch`]'s calls, whichever thread ran them.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// One call through the simulator, its output and costs not yet added
    /// to the accumulators.
    pub(crate) fn run(&mut self, q: &[f32], kv: KvView<'_>) -> Attended {
        simulate(&self.accel, &mut self.key_buf, q, kv)
    }

    /// Adds one call's cycles, energy and pruning statistics to the
    /// accumulators and returns its output.
    pub(crate) fn record(&mut self, call: Attended) -> Vec<f32> {
        self.cycles += call.cycles;
        self.energy_pj += call.energy_pj;
        self.stats.merge(&call.prune);
        call.output
    }
}

/// What one call adds to a [`SimulatedAttention`]: its output and costs.
#[derive(Debug)]
pub(crate) struct Attended {
    output: Vec<f32>,
    cycles: u64,
    energy_pj: f64,
    prune: PruneStats,
}

/// One call through the simulator, with `key_buf` lending its allocation
/// to the quantized keys.
///
/// # Panics
///
/// Panics if `kv` is empty, the query, keys and values disagree in shape,
/// or the configuration cannot run.
pub(crate) fn simulate(
    accel: &ToPickAccelerator,
    key_buf: &mut QuantBuffer,
    q: &[f32],
    kv: KvView<'_>,
) -> Attended {
    let pc = accel.config().precision;
    let qv = QVector::quantize(q, pc);
    let keys = key_buf
        .quantize(kv.keys().data(), kv.dim(), pc)
        .expect("non-empty cache");
    let r = accel.run_attention(&qv, &keys, kv.values());
    key_buf.reclaim(keys);
    let r = r.expect("validated dims");
    Attended {
        output: r.output,
        cycles: r.cycles,
        energy_pj: r.energy.total_pj(),
        prune: r.prune,
    }
}

impl AttentionBackend for SimulatedAttention {
    fn attend(&mut self, q: &[f32], kv: KvView<'_>) -> Vec<f32> {
        let call = self.run(q, kv);
        self.record(call)
    }

    /// Shares a batch worth it with the process's one helper thread (the
    /// crate-private `serve::lend` says how, and why the result is that of
    /// the calls in order).
    fn attend_batch(&mut self, batch: &AttendBatch<'_>) -> Vec<f32> {
        lend::attend_batch(self, batch, &lend::LENDER)
    }

    fn accumulated_stats(&self) -> Option<&PruneStats> {
        Some(&self.stats)
    }

    fn reset_stats(&mut self) {
        let chunks = self.accel.config().precision.num_chunks();
        self.stats = PruneStats::new(0, chunks);
        self.cycles = 0;
        self.energy_pj = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelMode;
    use topick_model::{ExactAttention, HeadCache, SynthInstance, SynthProfile};

    fn cache_from_instance(n: usize, seed: u64) -> (Vec<f32>, HeadCache) {
        let inst = SynthInstance::generate(&SynthProfile::realistic(n, 64), seed);
        let mut cache = HeadCache::new(64);
        for i in 0..n {
            cache.push(inst.key_row(i), inst.value_row(i));
        }
        (inst.query, cache)
    }

    #[test]
    fn simulated_backend_tracks_exact_attention() {
        let (q, cache) = cache_from_instance(96, 3);
        let mut exact = ExactAttention::new();
        let mut sim =
            SimulatedAttention::new(AccelConfig::paper(AccelMode::OutOfOrder, 1e-4).unwrap());
        let a = exact.attend(&q, cache.view());
        let b = sim.attend(&q, cache.view());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.1, "{x} vs {y}");
        }
        assert!(sim.cycles() > 0);
        assert!(sim.energy_pj() > 0.0);
        assert_eq!(sim.accumulated_stats().unwrap().tokens, 96);
    }

    #[test]
    fn reset_clears_accumulators() {
        let (q, cache) = cache_from_instance(32, 5);
        let mut sim =
            SimulatedAttention::new(AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap());
        let _ = sim.attend(&q, cache.view());
        sim.reset_stats();
        assert_eq!(sim.cycles(), 0);
        assert_eq!(sim.accumulated_stats().unwrap().tokens, 0);
    }
}
