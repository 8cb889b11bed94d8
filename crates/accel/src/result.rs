//! Result types of one simulated attention step.

use topick_core::PruneStats;
use topick_dram::DramStats;
use topick_energy::{EnergyBreakdown, EventCounts};

/// Everything one accelerator run produces: functional output, cycle count,
/// access statistics, event counts and the energy breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionStepResult {
    /// Accelerator cycles (500 MHz domain) for step 0 + step 1.
    pub cycles: u64,
    /// The attention output vector `o_t`.
    pub output: Vec<f32>,
    /// Indices of tokens whose V contributed (ascending).
    pub kept: Vec<usize>,
    /// Pruning / chunk-fetch statistics.
    pub prune: PruneStats,
    /// On-chip event counts.
    pub events: EventCounts,
    /// DRAM statistics of this run.
    pub dram_stats: DramStats,
    /// Elapsed DRAM clock cycles.
    pub dram_cycles: u64,
    /// Energy breakdown (DRAM / buffer / compute).
    pub energy: EnergyBreakdown,
}

/// What one attention step costs: everything in [`AttentionStepResult`]
/// except the output vector, so it is a function of the query and the keys
/// alone (see [`ToPickAccelerator::attention_cost`]).
///
/// [`ToPickAccelerator::attention_cost`]: crate::ToPickAccelerator::attention_cost
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionCost {
    /// Accelerator cycles (500 MHz domain) for step 0 + step 1.
    pub cycles: u64,
    /// The tokens whose V row is fetched (ascending), each with its softmax
    /// probability over the survivors — the weights of the output sum.
    pub kept: Vec<(usize, f64)>,
    /// Pruning / chunk-fetch statistics.
    pub prune: PruneStats,
    /// On-chip event counts.
    pub events: EventCounts,
    /// DRAM statistics of this run.
    pub dram_stats: DramStats,
    /// Elapsed DRAM clock cycles.
    pub dram_cycles: u64,
    /// Energy breakdown (DRAM / buffer / compute).
    pub energy: EnergyBreakdown,
}
