//! Prompt-phase execution (paper §4): "During the prompt phase, all K/V
//! vectors are preloaded into the on-chip buffer to be reused across
//! queries."
//!
//! Unlike the memory-bound generation phase, the prompt phase is
//! compute-bound: the whole prompt's K/V fits the 2×192 KB buffers and
//! every query attends over it from SRAM. Token-Picker leaves this phase
//! unmodified, so the model here is the shared baseline for both designs —
//! it exists to complete the accelerator and to show *why* the paper
//! focuses on generation.

use topick_core::{softmax, CoreError, QMatrix, QVector, Rows};
use topick_dram::{DramConfig, DramSim};
use topick_energy::{EnergyBreakdown, EventCounts};

use crate::config::{AccelConfig, CLOCK_RATIO};
use crate::engine::energy_breakdown;

/// Result of simulating one head's prompt phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptPhaseResult {
    /// Accelerator cycles: KV preload + score compute + output compute.
    pub cycles: u64,
    /// Cycles of the DRAM preload portion.
    pub preload_cycles: u64,
    /// Cycles of the compute portion.
    pub compute_cycles: u64,
    /// On-chip event counts.
    pub events: EventCounts,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Attention outputs, one row per query.
    pub outputs: Vec<Vec<f32>>,
}

/// Simulates the prompt phase of one head: preload K/V from DRAM, then for
/// every query compute all causal scores and the attention output from the
/// on-chip buffers.
///
/// Query `i` attends over tokens `0..=i` (causal masking).
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] naming the offending length when
/// there is not one query and one value row per key, or a query or value
/// row is not as wide as the keys, and [`CoreError::InvalidConfig`] /
/// [`CoreError::InvalidThreshold`] for a configuration the model cannot run
/// with (see [`ToPickAccelerator::run_attention`](crate::ToPickAccelerator::run_attention)).
pub fn run_prompt_phase(
    cfg: &AccelConfig,
    queries: &[QVector],
    keys: &QMatrix,
    values: Rows<'_>,
) -> Result<PromptPhaseResult, CoreError> {
    cfg.validate()?;
    let n = keys.check_attention(queries, Some(values))?;
    if queries.len() != n {
        return Err(CoreError::DimensionMismatch {
            expected: n,
            actual: queries.len(),
        });
    }
    let dim = keys.dim();

    let mut events = EventCounts::default();
    let row_bytes = cfg.precision.row_bytes(dim);
    let burst = u64::from(cfg.dram.access_bytes);

    // (1) Preload: stream all K and V rows sequentially into the buffers.
    let total_bursts = 2 * n as u64 * row_bytes.div_ceil(burst);
    let dram = stream_sequential(&cfg.dram, total_bursts);
    let preload_cycles = dram.cycle().div_ceil(CLOCK_RATIO);
    events.buffer_write_bytes += total_bursts * burst;

    // (2) Compute: query i needs i+1 score dots and i+1 value MACs, all
    // from SRAM; the lanes complete `lanes` dots per cycle.
    let total_dots: u64 = (1..=n as u64).sum::<u64>() * 2; // scores + value MACs
    let compute_cycles = total_dots.div_ceil(cfg.lanes as u64);
    events.mac_12x12 += total_dots * dim as u64;
    events.exp += (1..=n as u64).sum::<u64>(); // softmax exps
    events.buffer_read_bytes += (1..=n as u64).sum::<u64>() * 2 * row_bytes;

    // Functional outputs.
    let scale = topick_core::score_scale(&queries[0], keys);
    let mut outputs = Vec::with_capacity(n);
    for (i, q) in queries.iter().enumerate() {
        let scores: Vec<f64> = (0..=i)
            .map(|t| q.dot_codes(keys.row(t)) as f64 * scale)
            .collect();
        let probs = softmax(&scores);
        let mut out = vec![0f32; dim];
        for (t, &p) in probs.iter().enumerate() {
            for (o, &v) in out.iter_mut().zip(values.row(t)) {
                *o += p as f32 * v;
            }
        }
        outputs.push(out);
    }

    Ok(PromptPhaseResult {
        cycles: preload_cycles + compute_cycles,
        preload_cycles,
        compute_cycles,
        energy: energy_breakdown(&events, &dram),
        events,
        outputs,
    })
}

/// Reads `bursts` back-to-back sequential bursts through a fresh DRAM as
/// fast as it accepts them, and returns the drained simulator.
fn stream_sequential(cfg: &DramConfig, bursts: u64) -> DramSim {
    let mut dram = DramSim::new(cfg.clone());
    let burst_bytes = u64::from(cfg.access_bytes);
    let mut issued = 0u64;
    while issued < bursts || !dram.is_idle() {
        while issued < bursts && dram.try_enqueue(issued, issued * burst_bytes) {
            issued += 1;
        }
        dram.tick();
        while dram.pop_completed().is_some() {}
    }
    dram
}

#[cfg(test)]
mod tests {
    use super::*;
    use topick_core::{exact_probabilities, PrecisionConfig};

    fn prompt_workload(n: usize) -> (Vec<QVector>, QMatrix, Vec<f32>) {
        let pc = PrecisionConfig::paper();
        let dim = 64;
        let mut s = 0xB00Fu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 33) as f32 / 2_147_483_648.0) * 2.0 - 1.0
        };
        let queries: Vec<QVector> = (0..n)
            .map(|_| QVector::quantize(&(0..dim).map(|_| next()).collect::<Vec<_>>(), pc))
            .collect();
        let keys: Vec<f32> = (0..n * dim).map(|_| next()).collect();
        let values: Vec<f32> = (0..n * dim).map(|_| next()).collect();
        (
            queries,
            QMatrix::quantize_flat(&keys, dim, pc).expect("non-empty"),
            values,
        )
    }

    #[test]
    fn outputs_match_causal_attention() {
        let (queries, keys, values) = prompt_workload(12);
        let cfg = AccelConfig::baseline();
        let values = Rows::new(&values, 64);
        let r = run_prompt_phase(&cfg, &queries, &keys, values).unwrap();
        assert_eq!(r.outputs.len(), 12);
        // The last query attends over everything: compare with the exact
        // full-context attention.
        let probs = exact_probabilities(&queries[11], &keys);
        let mut expect = vec![0f32; 64];
        for (t, &p) in probs.iter().enumerate() {
            for (o, &v) in expect.iter_mut().zip(values.row(t)) {
                *o += p as f32 * v;
            }
        }
        for (a, b) in r.outputs[11].iter().zip(&expect) {
            // f32 accumulation order differs between the two paths.
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
        // The first query attends only over token 0.
        for (a, b) in r.outputs[0].iter().zip(values.row(0)) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn prompt_phase_is_compute_dominated() {
        // Once the prompt is long, compute cycles (O(n^2)) exceed the
        // preload (O(n)) — the opposite regime from generation.
        let (queries, keys, values) = prompt_workload(128);
        let cfg = AccelConfig::baseline();
        let r = run_prompt_phase(&cfg, &queries, &keys, Rows::new(&values, 64)).unwrap();
        assert!(
            r.compute_cycles > r.preload_cycles,
            "compute {} vs preload {}",
            r.compute_cycles,
            r.preload_cycles
        );
        assert_eq!(r.cycles, r.compute_cycles + r.preload_cycles);
    }

    #[test]
    fn mismatch_error_names_the_offending_length() {
        let (mut queries, keys, values) = prompt_workload(8);
        let cfg = AccelConfig::baseline();
        let values = Rows::new(&values, 64);
        // n + 5 queries over n value rows: the queries are what is wrong.
        queries.extend(prompt_workload(5).0);
        let err = run_prompt_phase(&cfg, &queries, &keys, values).unwrap_err();
        let (expected, actual) = (8, 13);
        assert_eq!(err, CoreError::DimensionMismatch { expected, actual });
        // n queries over n - 3 value rows: the values are.
        let short = Rows::new(&values.data()[..5 * 64], 64);
        let err = run_prompt_phase(&cfg, &queries[..8], &keys, short).unwrap_err();
        let (expected, actual) = (8, 5);
        assert_eq!(err, CoreError::DimensionMismatch { expected, actual });
    }

    #[test]
    fn zero_lanes_is_a_typed_error() {
        let (queries, keys, values) = prompt_workload(8);
        let values = Rows::new(&values, 64);
        let mut cfg = AccelConfig::baseline();
        cfg.lanes = 0;
        let err = run_prompt_phase(&cfg, &queries, &keys, values).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(rule) if rule.contains("lanes")));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (queries, keys, values) = prompt_workload(8);
        let cfg = AccelConfig::baseline();
        let full = Rows::new(&values, 64);
        let half = Rows::new(&values[..4 * 64], 64);
        assert!(run_prompt_phase(&cfg, &queries[..4], &keys, full).is_err());
        assert!(run_prompt_phase(&cfg, &queries, &keys, half).is_err());
    }
}
