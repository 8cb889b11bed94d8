//! Every metric the benchmark reports, by name: unit, direction, bound,
//! and — for layer metrics — which end-to-end metric on which workload a
//! change to that layer is expected to move. `BENCHMARK.json` and the
//! README tables repeat this list; a test keeps the former in step.
//!
//! Two clocks, told apart by prefix: `wall_*`, `setup_s` and `peak_rss_mb`
//! are the *host* clock (how long this Rust code takes, how much memory it
//! holds); `model_*` are the *modeled* clock (accelerator cycles at 500
//! MHz, a deterministic function of the seed).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
    /// An absolute floor under the relative bound (same unit as the
    /// metric): a difference below it is never a regression. Only the
    /// two host metrics that can be tiny have one.
    pub floor: f64,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    meaning: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
        meaning,
    }
}

/// The end-to-end metrics, reported by every workload. `failed_share` is
/// the twelfth: it is printed and stored with the others, but it is 0 on
/// a healthy run, so in the final result line it travels as the
/// `attempted` / `failed` counts instead of as a metric.
///
/// The bounds are sized to what the runs showed: for a modeled metric, at
/// least three times the widest inter-quartile spread any ten of 46 seeds
/// showed on any workload (capped at 0.25). Every seed is a different
/// stream, so a modeled metric moves with the seed although it repeats bit
/// for bit on one seed; and the host's speed swings 15-35 % several times
/// a second on the machine that defined them.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Lower, 0.25, 0.02,
        "host, seconds at the reference host speed: stream generation + engine/model/instance construction + enqueue (median of repeated set-ups)"),
    e2e("wall_tokens_per_s", "tokens/s", Higher, 0.25, 0.0,
        "host: tokens produced / seconds, at the reference host speed, of the measured step loop (ToPick run, median over repetitions)"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, 2.0,
        "host: VmHWM of the workload's process"),
    e2e("model_tokens_per_s", "tokens/s", Higher, 0.15, 0.0,
        "modeled: tokens / (total modeled cycles / clock_hz)"),
    e2e("model_speedup_vs_baseline", "x", Higher, 0.10, 0.0,
        "modeled: Baseline cycles per token / ToPick cycles per token on the same stream"),
    e2e("model_kv_access_reduction", "x", Higher, 0.20, 0.0,
        "modeled, computed from counts: K+V bits a no-pruning run would fetch / bits fetched (PruneStats::total_reduction)"),
    e2e("model_ttft_us_p50", "us", Lower, 0.25, 0.0,
        "modeled: per request, cycles of its arrival step through its first-token step; median"),
    e2e("model_ttft_us_p99", "us", Lower, 0.25, 0.0,
        "modeled: the same, nearest-rank 99th percentile"),
    e2e("model_itl_us_p50", "us", Lower, 0.25, 0.0,
        "modeled: gap between consecutive tokens of one request, preemption waits included; median"),
    e2e("model_itl_us_p99", "us", Lower, 0.25, 0.0,
        "modeled: the same, nearest-rank 99th percentile"),
    e2e("model_goodput_tokens_per_s", "tokens/s", Higher, 0.25, 0.0,
        "modeled: tokens of requests that finished inside the workload's TTFT and gap limits / modeled seconds"),
];

/// `failed_share`: (enqueue errors + rejections + unfinished requests +
/// output-check mismatches) / operations attempted. Its bound is 0.
pub const FAILED_SHARE: EndToEnd = e2e(
    "failed_share",
    "ratio",
    Lower,
    0.0,
    0.0,
    "failed operations / operations attempted; any rise is a regression",
);

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(std::iter::once(&FAILED_SHARE))
        .find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// `[calls, busy_s, ns]` names of each timed pager operation, in the
/// order `reserve, adopt, register, truncate, release, validate`.
pub const PAGER_OP_METRICS: [[&str; 3]; 6] = [
    [
        "serve.kv_pager.reserve_calls",
        "serve.kv_pager.reserve_busy_s",
        "serve.kv_pager.reserve_ns",
    ],
    [
        "serve.kv_pager.adopt_calls",
        "serve.kv_pager.adopt_busy_s",
        "serve.kv_pager.adopt_ns",
    ],
    [
        "serve.kv_pager.register_calls",
        "serve.kv_pager.register_busy_s",
        "serve.kv_pager.register_ns",
    ],
    [
        "serve.kv_pager.truncate_calls",
        "serve.kv_pager.truncate_busy_s",
        "serve.kv_pager.truncate_ns",
    ],
    [
        "serve.kv_pager.release_calls",
        "serve.kv_pager.release_busy_s",
        "serve.kv_pager.release_ns",
    ],
    [
        "serve.kv_pager.validate_calls",
        "serve.kv_pager.validate_busy_s",
        "serve.kv_pager.validate_ns",
    ],
];

/// The per-layer metrics of the traced repetition, `layer.metric`. A
/// layer that does not run on a workload reports 0 there.
pub const LAYERS: [Layer; 110] = [
    l("trace_overhead_share", "ratio", Lower),
    l("trace_shadow_share", "ratio", Lower),
    l("model.synth.generate_calls", "count", Lower),
    l("model.synth.generate_busy_s", "s", Lower),
    l("model.synth.generate_ns_per_ctx_token", "ns", Lower),
    l("core.quant.keys_calls", "count", Lower),
    l("core.quant.keys_busy_s", "s", Lower),
    l("core.quant.keys_ns_per_ctx_token", "ns", Lower),
    l("core.quant.query_calls", "count", Lower),
    l("core.quant.query_busy_s", "s", Lower),
    l("core.quant.query_ns", "ns", Lower),
    l("core.pruner.run_calls", "count", Lower),
    l("core.pruner.run_busy_s", "s", Lower),
    l("core.pruner.run_ns_per_ctx_token", "ns", Lower),
    l("core.pruner.kept_share", "ratio", Lower),
    l("core.pruner.chunks_per_token", "count", Lower),
    l("accel.engine.attn_calls", "count", Lower),
    l("accel.engine.attn_busy_s", "s", Lower),
    l("accel.engine.attn_ns_per_ctx_token", "ns", Lower),
    l("accel.engine.host_ns_per_sim_cycle", "ns", Lower),
    l("accel.engine.sim_cycles_per_call", "cycles", Lower),
    l("accel.prompt.calls", "count", Lower),
    l("accel.prompt.busy_s", "s", Lower),
    l("accel.prompt.sim_cycles_per_token", "cycles", Lower),
    l("dram.read_bytes_per_ctx_token", "B", Lower),
    l("dram.row_hit_rate", "ratio", Higher),
    l("dram.mean_latency_cycles", "cycles", Lower),
    l("dram.bytes_reduction_vs_baseline", "x", Higher),
    l("energy.pj_per_call", "pJ", Lower),
    l("energy.dram_share", "ratio", Lower),
    l("energy.gain_vs_baseline", "x", Higher),
    l("serve.engine.enqueue_busy_s", "s", Lower),
    l("serve.engine.step_calls", "count", Lower),
    l("serve.engine.step_busy_s", "s", Lower),
    l("serve.engine.step_us_p50", "us", Lower),
    l("serve.engine.step_us_p99", "us", Lower),
    l("serve.engine.step_self_est_s", "s", Lower),
    l("serve.engine.step_self_share", "ratio", Lower),
    l("serve.engine.drain_events_busy_s", "s", Lower),
    l("serve.engine.report_busy_s", "s", Lower),
    l("serve.engine.events", "count", Lower),
    l("serve.engine.idle_steps", "count", Lower),
    l("serve.engine.batch_occupancy_mean", "ratio", Higher),
    l("serve.engine.pending_depth_max", "count", Lower),
    l("serve.engine.queue_wait_steps_p50", "steps", Lower),
    l("serve.engine.queue_wait_steps_p99", "steps", Lower),
    l("serve.engine.cycles_weight_share", "ratio", Higher),
    l("serve.engine.cycles_attention_share", "ratio", Lower),
    l("serve.engine.cycles_prefill_share", "ratio", Lower),
    l("serve.engine.cycles_reprefill_share", "ratio", Lower),
    l("serve.engine.cycles_swap_share", "ratio", Lower),
    l("serve.engine.cycles_ship_share", "ratio", Lower),
    l("serve.kv_pager.prefix_hit_rate", "ratio", Higher),
    l("serve.kv_pager.preemptions", "count", Lower),
    l("serve.kv_pager.reprefilled_tokens", "count", Lower),
    l("serve.kv_pager.swapped_tokens", "count", Lower),
    l("serve.kv_pager.peak_allocated_pages", "count", Lower),
    l("serve.kv_pager.peak_cached_pages", "count", Higher),
    l("serve.kv_pager.fragmented_tokens_mean", "count", Lower),
    l(PAGER_OP_METRICS[0][0], "count", Lower),
    l(PAGER_OP_METRICS[0][1], "s", Lower),
    l(PAGER_OP_METRICS[0][2], "ns", Lower),
    l(PAGER_OP_METRICS[1][0], "count", Lower),
    l(PAGER_OP_METRICS[1][1], "s", Lower),
    l(PAGER_OP_METRICS[1][2], "ns", Lower),
    l(PAGER_OP_METRICS[2][0], "count", Lower),
    l(PAGER_OP_METRICS[2][1], "s", Lower),
    l(PAGER_OP_METRICS[2][2], "ns", Lower),
    l(PAGER_OP_METRICS[3][0], "count", Lower),
    l(PAGER_OP_METRICS[3][1], "s", Lower),
    l(PAGER_OP_METRICS[3][2], "ns", Lower),
    l(PAGER_OP_METRICS[4][0], "count", Lower),
    l(PAGER_OP_METRICS[4][1], "s", Lower),
    l(PAGER_OP_METRICS[4][2], "ns", Lower),
    l(PAGER_OP_METRICS[5][0], "count", Lower),
    l(PAGER_OP_METRICS[5][1], "s", Lower),
    l(PAGER_OP_METRICS[5][2], "ns", Lower),
    l("serve.policy.depth", "count", Lower),
    l("serve.policy.pick_next_ns_at_depth.fifo", "ns", Lower),
    l(
        "serve.policy.pick_next_ns_at_depth.priority-aging",
        "ns",
        Lower,
    ),
    l(
        "serve.policy.pick_next_ns_at_depth.shortest-job-first",
        "ns",
        Lower,
    ),
    l(
        "serve.policy.pick_next_ns_at_depth.fair-round-robin",
        "ns",
        Lower,
    ),
    l("serve.policy.pick_next_ns_at_depth.slo-aware", "ns", Lower),
    l("serve.cluster.enqueue_busy_s", "s", Lower),
    l("serve.cluster.step_busy_s", "s", Lower),
    l("serve.cluster.steals", "count", Lower),
    l("serve.cluster.ships", "count", Lower),
    l("serve.cluster.load_imbalance", "ratio", Lower),
    l("serve.cluster.affinity_hit_share", "ratio", Higher),
    l("serve.cluster.thread_speedup", "x", Higher),
    l("serve.trace.record_busy_s", "s", Lower),
    l("serve.trace.render_ns_per_event", "ns", Lower),
    l("serve.trace.render_bytes", "B", Lower),
    l("serve.trace.parse_ns_per_event", "ns", Lower),
    l("serve.trace.replay_busy_s", "s", Lower),
    l("serve.trace.replay_digest_match", "count", Higher),
    l("serve.token_backed.apply_busy_s", "s", Lower),
    l("serve.token_backed.measured_cycles", "cycles", Lower),
    l("serve.token_backed.cycle_ratio", "ratio", Lower),
    l("serve.token_backed.peak_shared_pages", "count", Higher),
    l("model.transformer.prefill_calls", "count", Lower),
    l("model.transformer.prefill_busy_s", "s", Lower),
    l("model.transformer.prefill_ns_per_token", "ns", Lower),
    l("model.transformer.decode_step_calls", "count", Lower),
    l("model.transformer.decode_step_busy_s", "s", Lower),
    l("model.transformer.decode_step_ns", "ns", Lower),
    l("model.paged.push_ns_per_row", "ns", Lower),
    l("model.paged.gather_ns_per_row", "ns", Lower),
    l("model.paged.fork_ns", "ns", Lower),
    l("model.paged.pages_in_use_peak", "count", Lower),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::Workload;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(LAYERS.len() <= 128);
        assert_eq!(layer("dram.row_hit_rate").map(|m| m.better), Some(Higher));
        assert_eq!(end_to_end("failed_share").map(|m| m.bound), Some(0.0));
    }

    /// `BENCHMARK.json` at the repo root must list exactly these metrics
    /// and workloads. (The file lives outside this package; where it is
    /// absent the check has nothing to compare and passes.)
    #[test]
    fn benchmark_json_lists_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let rows =
            |key: &str| -> Vec<Value> { doc.get(key).and_then(Value::as_arr).expect(key).to_vec() };

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(row.str("name"), Some(m.name));
            assert_eq!(row.str("unit"), Some(m.unit), "{}", m.name);
            assert_eq!(row.str("better"), Some(m.better.name()), "{}", m.name);
            assert_eq!(row.num("bound"), Some(m.bound), "{}", m.name);
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (row, m) in layers.iter().zip(&LAYERS) {
            assert_eq!(row.str("name"), Some(m.name));
            assert_eq!(row.str("unit"), Some(m.unit), "{}", m.name);
            assert_eq!(row.str("better"), Some(m.better.name()), "{}", m.name);
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (row, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(row.str("name"), Some(w.name()));
            assert_eq!(row.str("why"), Some(w.why()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }
}
