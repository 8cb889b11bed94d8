//! `serving_throughput` — regression bench of the serving engine. Four
//! sweeps, one JSON document on stdout:
//!
//! 1. **Throughput sweep** (`points`): batch size × pruning threshold
//!    under the FIFO policy, so tokens/s regressions are caught.
//! 2. **Policy sweep** (`policies`): every scheduler policy on a skewed
//!    elephant/mice workload, with and without preemption, so scheduling
//!    regressions (mean TTFT, queue wait, eviction counts) are caught too.
//! 3. **Prefix sweep** (`prefix`): the shared-prefix chat workload with
//!    prompt prefill priced, cache off vs on, so the re-prefill saving
//!    and hit rate prefix caching buys are pinned per run.
//! 4. **Shard sweep** (`shards`): the cluster engine at increasing shard
//!    counts — round-robin vs least-loaded + stealing on the skewed
//!    workload (makespan scaling, steal counts, load imbalance) and
//!    round-robin vs prefix-affinity on the shared-prefix workload (the
//!    cluster hit rate affinity routing recovers). With `--threads N`,
//!    every multi-shard point gains a threaded twin stepping shards on
//!    `N` OS threads.
//!
//! Every record carries both the *modeled* cycle count and the *measured*
//! wall-clock milliseconds spent stepping the run, side by side.
//!
//! Every sweep describes its runs as [`TraceMeta`]s, executes them through
//! the one [`run`] function (a cluster of `meta.shards` shards — one shard
//! is the bare engine) and picks its record's columns from the one
//! [column table](Column) below, so a JSON key and the aggregate behind it
//! are spelled once.
//!
//! `--threads-sweep` replaces all of the above with the dedicated
//! threading document checked in as `BENCH_serving_threads.json`:
//! shards ∈ {1, 2, 4, 8} on the skewed workload, sequential vs threaded
//! (one worker per shard), best-of-3 wall times, with the
//! threaded-over-sequential speedup computed per shard count.
//!
//! `--scenario-sweep` likewise replaces everything with the scenario
//! document checked in as `BENCH_serving_scenarios.json`: every scenario
//! in the registry on a single engine plus a 4-shard cluster contrast of
//! round-robin vs prefix-affinity routing, each record carrying tokens/s,
//! prefix hit rate, a TTFT-bounded goodput proxy, measured wall_ms and
//! the run's schedule digest — with the agentic scenario's
//! affinity-over-round-robin hit-rate margin pinned at the top level.
//!
//! `--slo-sweep` emits the SLO document checked in as
//! `BENCH_serving_slo.json`: goodput and deadline attainment vs load on
//! the two deadline-carrying scenarios (`long-doc-summarize`, `diurnal`),
//! chunk budgets {unlimited, 4, 16 pages/step} × {fifo, sjf, slo-aware},
//! each record carrying TTFT p99 and the worst per-step prefill stall.
//!
//! `--e2e-sweep` emits the real-token end-to-end document checked in as
//! `BENCH_serving_e2e.json`: the shared-prefix chat workload (cache on,
//! cache off, chunked prefill) and the skewed eviction workload under
//! priority-aging preemption with paged retention, each served through
//! the token-backed mirror so a real synth model generates every token
//! out of one shared paged KV store. Each record carries the engine's
//! charged cycles next to the kernel cycles the mirror measured, the
//! peak/drained shared-page counts, and *asserts* (not just reports)
//! that every request's tokens are byte-identical to a private
//! unsharded `generate` — the checked-in document doubles as the e2e
//! regression gate.
//!
//! `--tiered-sweep` emits the tiered-KV document checked in as
//! `BENCH_serving_tiered.json`: the host-swap cost crossover (copy-back
//! factors {0.25, 0.5, 1.0, 1.5} against drop-and-re-prefill on the
//! skewed eviction workload) and the cross-shard prefix-shipping saving
//! (ship off vs 0.25 on a 4-shard round-robin shared-prefix cluster) —
//! both margins asserted inside the sweep, so the bench doubles as a
//! regression gate.
//!
//! ```sh
//! cargo run --release -p topick-bench --bin serving_throughput
//! cargo run --release -p topick-bench --bin serving_throughput -- --requests 32
//! cargo run --release -p topick-bench --bin serving_throughput -- --quick            # CI mode
//! cargo run --release -p topick-bench --bin serving_throughput -- --quick --shards 4 --threads 4
//! cargo run --release -p topick-bench --bin serving_throughput -- --threads-sweep > BENCH_serving_threads.json
//! cargo run --release -p topick-bench --bin serving_throughput -- --scenario-sweep > BENCH_serving_scenarios.json
//! cargo run --release -p topick-bench --bin serving_throughput -- --slo-sweep > BENCH_serving_slo.json
//! cargo run --release -p topick-bench --bin serving_throughput -- --tiered-sweep > BENCH_serving_tiered.json
//! cargo run --release -p topick-bench --bin serving_throughput -- --e2e-sweep > BENCH_serving_e2e.json
//! ```

use std::time::Instant;

use topick_accel::serve::scenario::{
    DiurnalArrivals, LongDocSummarize, Scenario, SharedPrefixChat, SkewedElephantMice,
};
use topick_accel::serve::trace::{run_recorded, Trace, TraceMeta, TraceRecorder};
use topick_accel::{
    AccelConfig, AccelMode, ClusterReport, PolicyKind, PreemptionConfig, RetentionPolicy,
    RoutingKind, ScenarioKind, ServingConfig, ServingEngine, ServingReport, ServingRequest,
};
use topick_bench::json::{JsonObject, JsonValue};
use topick_model::ModelSpec;

/// One finished run: what the cluster reported (its `wall_seconds` is the
/// measured stepping time) and the trace — meta, requests, schedule
/// digest — that describes and reproduces it.
struct Run {
    report: ClusterReport,
    trace: Trace,
}

impl Run {
    fn config(&self) -> &ServingConfig {
        self.trace.meta.serving_config()
    }

    /// The lone shard of a single-engine run, where the aggregates only a
    /// [`ServingReport`] carries live.
    fn engine(&self) -> &ServingReport {
        let [engine] = self.report.shards.as_slice() else {
            panic!("a single-engine column was picked for a multi-shard run");
        };
        engine
    }
}

/// Runs `requests` on the cluster `meta` describes, to completion.
fn run(meta: &TraceMeta, requests: &[ServingRequest]) -> Run {
    let (trace, report) = run_recorded(meta, requests).expect("run completes");
    Run { report, trace }
}

/// Bounds every run; no sweep comes near it.
const MAX_STEPS: usize = 1_000_000;

/// The meta of a run of `cfg` under `policy` on a single engine; sweeps
/// layer `for_cluster` / `for_scenario` on top.
fn meta(cfg: &ServingConfig, policy: PolicyKind) -> TraceMeta {
    TraceMeta::new(cfg, policy.name()).with_max_steps(MAX_STEPS)
}

/// One record column: its JSON key and the value it reads off a run.
type Column = (&'static str, fn(&Run) -> JsonValue);

/// Appends `run`'s columns to a record, group by group.
fn cols(record: JsonObject, run: &Run, groups: &[&[Column]]) -> JsonObject {
    groups
        .iter()
        .copied()
        .flatten()
        .fold(record, |record, (key, value)| record.field(key, value(run)))
}

/// One record per run, each showing the same columns.
fn records<'a>(runs: impl IntoIterator<Item = &'a Run>, groups: &[&[Column]]) -> Vec<JsonValue> {
    runs.into_iter()
        .map(|run| cols(JsonObject::new(), run, groups).into())
        .collect()
}

// The column table. What shaped the run:
const MODE: Column = ("mode", |r| match r.config().accel.mode {
    AccelMode::Baseline => "baseline".into(),
    _ => "topick".into(),
});
const THRESHOLD: Column = ("threshold", |r| JsonValue::Sci(r.config().accel.threshold));
const MAX_BATCH: Column = ("max_batch", |r| r.config().admission.max_batch.into());
const PREFIX_CACHE: Column = ("prefix_cache", |r| r.config().admission.prefix_cache.into());
const PREEMPTION: Column = ("preemption", |r| r.config().preemption.enabled.into());
const RETENTION: Column = ("retention", |r| {
    let preemption = &r.config().preemption;
    match (preemption.enabled, preemption.retention) {
        (false, _) => "off".into(),
        (true, RetentionPolicy::None) => "full-reprefill".into(),
        (true, _) => "paged".into(),
    }
});
const PREFILL_CHUNK_PAGES: Column = ("prefill_chunk_pages", |r| {
    r.config().prefill_chunk_pages.into()
});
const HOST_PAGES: Column = ("host_pages", |r| r.config().host_pages.into());
const SWAP_COST_FACTOR: Column = ("swap_cost_factor", |r| {
    JsonValue::Prec(r.config().swap_cost_factor, 2)
});
const SHIP_COST_FACTOR: Column = ("ship_cost_factor", |r| {
    JsonValue::Prec(r.config().ship_cost_factor, 2)
});
const SCENARIO: Column = ("scenario", |r| {
    r.trace.meta.scenario.as_deref().unwrap_or("ad-hoc").into()
});
const FLAVOR: Column = ("flavor", |r| match r.report.shards.len() {
    1 => "engine".into(),
    _ => "cluster".into(),
});
const POLICY: Column = ("policy", |r| r.report.policy.as_str().into());
const SHARDS: Column = ("shards", |r| r.report.shards.len().into());
const ROUTING: Column = ("routing", |r| r.report.routing.as_str().into());
const STEALING: Column = ("stealing", |r| r.report.stealing.into());
const THREADS: Column = ("threads", |r| r.report.threads.into());
const REQUESTS: Column = ("requests", |r| r.trace.requests.len().into());
// What it did, modeled:
const TOKENS: Column = ("tokens", |r| r.report.tokens_generated().into());
const GOOD_TOKENS: Column = ("good_tokens", |r| r.report.total_good_tokens().into());
const STEPS: Column = ("steps", |r| r.report.cluster_steps.into());
const CLUSTER_STEPS: Column = ("cluster_steps", STEPS.1);
const TOTAL_CYCLES: Column = ("total_cycles", |r| r.report.total_cycles.into());
const MAKESPAN_CYCLES: Column = ("makespan_cycles", TOTAL_CYCLES.1);
const TOKENS_PER_S: Column = ("tokens_per_s", |r| {
    JsonValue::Prec(r.report.tokens_per_second(r.config().clock_hz), 1)
});
const V_REDUCTION: Column = ("v_reduction", |r| {
    JsonValue::Prec(r.engine().prune.v_reduction(), 3)
});
const MEAN_TTFT_STEPS: Column = ("mean_ttft_steps", |r| {
    JsonValue::Prec(r.engine().mean_ttft_steps(), 2)
});
const MEAN_QUEUE_WAIT_STEPS: Column = ("mean_queue_wait_steps", |r| {
    JsonValue::Prec(r.engine().mean_queue_wait_steps(), 2)
});
const PREEMPTIONS: Column = ("preemptions", |r| r.report.preemptions().into());
const PREFILL_CYCLES: Column = ("prefill_cycles", |r| r.report.total_prefill_cycles().into());
const REPREFILL_CYCLES: Column = ("reprefill_cycles", |r| {
    r.report.total_reprefill_cycles().into()
});
const REPREFILLED_TOKENS: Column = ("reprefilled_tokens", |r| {
    r.engine().total_reprefilled_tokens().into()
});
const RETAINED_TOKENS: Column = ("retained_tokens", |r| {
    r.engine().total_retained_tokens().into()
});
const SWAPPED_TOKENS: Column = ("swapped_tokens", |r| {
    r.engine().total_swapped_tokens().into()
});
const SWAP_CYCLES: Column = ("swap_cycles", |r| r.report.total_swap_cycles().into());
const SHIP_CYCLES: Column = ("ship_cycles", |r| r.report.total_ship_cycles().into());
const PREFIX_HIT_TOKENS: Column = ("prefix_hit_tokens", |r| {
    r.report.total_prefix_hit_tokens().into()
});
const HIT_RATE: Column = ("hit_rate", |r| {
    JsonValue::Prec(r.report.prefix_hit_rate(), 3)
});
const PREFIX_HIT_RATE: Column = ("prefix_hit_rate", HIT_RATE.1);
const STEALS: Column = ("steals", |r| r.report.steals.into());
const LOAD_IMBALANCE: Column = ("load_imbalance", |r| {
    JsonValue::Prec(r.report.load_imbalance(), 3)
});
const DEADLINE_ATTAINMENT: Column = ("deadline_attainment", |r| {
    JsonValue::Prec(r.report.deadline_attainment(), 3)
});
const TTFT_P99_STEPS: Column = ("ttft_p99_steps", |r| r.report.ttft_p99_steps().into());
const MAX_PREFILL_STALL_CYCLES: Column = ("max_prefill_stall_cycles", |r| {
    r.engine().max_prefill_stall_cycles().into()
});
/// Goodput under the requests' own deadlines (the SLO sweep).
const SLO_GOODPUT: Column = ("goodput_tokens_per_s", |r| {
    JsonValue::Prec(r.report.goodput_tokens_per_second(r.config().clock_hz), 1)
});
/// Goodput under the sweep-wide [`GOODPUT_TTFT_BOUND_STEPS`] proxy (the
/// scenario sweep, whose scenarios mostly carry no deadlines).
const TTFT_BOUND_GOODPUT: Column = (SLO_GOODPUT.0, |r| {
    let good: usize = r
        .report
        .requests()
        .filter(|(_, s)| {
            matches!(s.first_token_at, Some(t)
                if t.saturating_sub(s.enqueued_at) <= GOODPUT_TTFT_BOUND_STEPS)
        })
        .map(|(_, s)| s.generated)
        .sum();
    let tokens_per_s = topick_accel::serve::stats::tokens_per_second(
        good,
        r.report.total_cycles,
        r.config().clock_hz,
    );
    JsonValue::Prec(tokens_per_s, 1)
});
const DIGEST: Column = ("digest", |r| r.trace.digest.into());
// And measured:
const WALL_MS: Column = ("wall_ms", |r| {
    JsonValue::Prec(r.report.wall_seconds * 1e3, 3)
});

/// The run of columns every single-engine record shares.
const ENGINE_CORE: &[Column] = &[TOKENS, STEPS, TOTAL_CYCLES, WALL_MS, TOKENS_PER_S];
/// Its multi-shard counterpart: the cluster's work over its makespan.
const CLUSTER_CORE: &[Column] = &[TOKENS, CLUSTER_STEPS, MAKESPAN_CYCLES, TOKENS_PER_S];

/// TTFT bound (in steps) under which a request's decode tokens count as
/// "good" for the goodput proxy: tokens served promptly enough to matter,
/// per modeled second — the serving-quality number raw tokens/s hides.
const GOODPUT_TTFT_BOUND_STEPS: usize = 8;

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn paper_accel() -> AccelConfig {
    AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold")
}

/// The canonical shared-prefix chat engine sizing, toggling only the
/// prefix cache.
fn chat_config(prefix_cache: bool) -> ServingConfig {
    let mut cfg = SharedPrefixChat::default().serving_config(paper_accel());
    cfg.admission.prefix_cache = prefix_cache;
    cfg
}

/// The canonical skewed elephant/mice engine sizing, optionally with
/// preemption on under `retention`. A few long low-priority "elephants"
/// from one client fill the batch, then short high-priority "mice" from
/// other clients arrive behind them — the regime where scheduling policy,
/// preemption and paged KV retention visibly bend the TTFT/re-prefill
/// profile.
fn skewed_config(preemption: Option<RetentionPolicy>) -> ServingConfig {
    let mut cfg = SkewedElephantMice::default().serving_config(paper_accel());
    if let Some(retention) = preemption {
        cfg.preemption = PreemptionConfig::enabled().with_retention(retention);
    }
    cfg
}

/// The skewed elephant/mice request stream at the given size.
fn skewed(elephants: u64, mice: u64) -> Vec<ServingRequest> {
    SkewedElephantMice { elephants, mice }.generate(0)
}

/// The shared-prefix chat request stream (seed 11) at the given size.
fn chat(tenants: u64, per_tenant: u64) -> Vec<ServingRequest> {
    SharedPrefixChat {
        tenants,
        per_tenant,
    }
    .generate(11)
}

/// The default document: the throughput, policy, prefix and shard sweeps.
fn throughput_sweeps(
    quick: bool,
    requests: u64,
    shard_counts: &[usize],
    threads_flag: usize,
) -> JsonValue {
    let batches: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let thresholds: &[f64] = if quick { &[1e-3] } else { &[1e-2, 1e-3, 1e-4] };
    let mice: u64 = if quick { 6 } else { 12 };
    let (tenants, per_tenant) = if quick { (3, 4) } else { (4, 6) };

    let stream: Vec<ServingRequest> = (0..requests)
        .map(|id| ServingRequest::new(id, 128 + (id as usize % 8) * 48, 2 + (id as usize % 4)))
        .collect();
    let mut points = Vec::new();
    for &max_batch in batches {
        let modes = std::iter::once((AccelMode::Baseline, 0.5))
            .chain(thresholds.iter().map(|&thr| (AccelMode::OutOfOrder, thr)));
        for (mode, threshold) in modes {
            let accel = AccelConfig::paper(mode, threshold).expect("valid threshold");
            let mut cfg = ServingConfig::new(accel);
            cfg.heads = 4;
            cfg.weight_bytes = 10_000_000;
            cfg.admission.max_batch = max_batch;
            cfg.admission.max_batch_tokens = max_batch * 600;
            cfg.seed = 1;
            points.push(run(&meta(&cfg, PolicyKind::Fifo), &stream));
        }
    }

    // One record per policy without preemption, plus — for each policy
    // that actually preempts (FIFO never does) — a full-re-prefill run
    // and a paged-retention run, so the bench pins the re-prefill saving
    // retention buys per policy.
    let skewed_stream = skewed(4, mice);
    let unpreempted = PolicyKind::all().into_iter().map(|kind| (kind, None));
    let preempted = [
        PolicyKind::PriorityAging,
        PolicyKind::ShortestJobFirst,
        PolicyKind::FairRoundRobin,
    ]
    .into_iter()
    .flat_map(|kind| {
        [RetentionPolicy::None, RetentionPolicy::Fraction(0.75)]
            .map(|retention| (kind, Some(retention)))
    });
    let policies: Vec<Run> = unpreempted
        .chain(preempted)
        .map(|(kind, preemption)| run(&meta(&skewed_config(preemption), kind), &skewed_stream))
        .collect();

    // Prefix caching off vs on at equal generated tokens, prompt prefill
    // priced: the off record is the prefill bill sharing exists to
    // shrink, the on record shows what it recovered (hit rate included).
    let chat_stream = chat(tenants, per_tenant);
    let prefix = [false, true].map(|prefix_cache| {
        run(
            &meta(&chat_config(prefix_cache), PolicyKind::Fifo),
            &chat_stream,
        )
    });

    // Shard sweep: 1 shard is the golden-pinned identity baseline; each
    // larger count contrasts load-blind routing against least-loaded +
    // stealing (skewed workload) and against prefix-affinity
    // (shared-prefix workload, where per-shard caches make routing the
    // difference between scattering and recovering the hit rate), each
    // with a threaded twin under `--threads N`: same schedule by
    // construction, wall_ms is the column that moves. Both workloads run
    // their scenario's canonical per-shard sizing, so the bench stays
    // comparable with the equivalence tests.
    let workloads = [
        (
            "skewed",
            skewed_config(None),
            &skewed_stream,
            (RoutingKind::LeastLoaded, true),
        ),
        (
            "shared-prefix",
            chat_config(true),
            &chat_stream,
            (RoutingKind::PrefixAffinity, false),
        ),
    ];
    let mut shards = Vec::new();
    for &n in shard_counts {
        for (workload, cfg, stream, (routing, stealing)) in &workloads {
            let mut shapes = vec![(RoutingKind::RoundRobin, false, 1)];
            if n > 1 {
                shapes.push((*routing, *stealing, 1));
                if threads_flag > 1 {
                    shapes.push((*routing, *stealing, threads_flag));
                }
            }
            for (routing, stealing, threads) in shapes {
                let meta =
                    meta(cfg, PolicyKind::Fifo).for_cluster(n, routing.name(), stealing, threads);
                let record = cols(
                    JsonObject::new().field("workload", *workload),
                    &run(&meta, stream),
                    &[
                        &[SHARDS, ROUTING, STEALING, THREADS],
                        &[
                            TOKENS,
                            CLUSTER_STEPS,
                            MAKESPAN_CYCLES,
                            WALL_MS,
                            TOKENS_PER_S,
                        ],
                        &[STEALS, LOAD_IMBALANCE],
                        &[PREFILL_CYCLES, PREFIX_HIT_TOKENS, HIT_RATE],
                    ],
                );
                shards.push(JsonValue::from(record));
            }
        }
    }

    let policy_columns: &[&[Column]] = &[
        &[POLICY, PREEMPTION, RETENTION],
        ENGINE_CORE,
        &[MEAN_TTFT_STEPS, MEAN_QUEUE_WAIT_STEPS, PREEMPTIONS],
        &[REPREFILL_CYCLES, REPREFILLED_TOKENS, RETAINED_TOKENS],
    ];
    let prefix_columns: &[&[Column]] = &[
        &[POLICY, PREFIX_CACHE],
        ENGINE_CORE,
        &[
            PREFILL_CYCLES,
            REPREFILL_CYCLES,
            PREFIX_HIT_TOKENS,
            HIT_RATE,
        ],
    ];
    JsonObject::new()
        .field("bench", "serving_throughput")
        .field("requests", requests)
        .field("quick", quick)
        .field(
            "points",
            records(
                &points,
                &[&[MODE, THRESHOLD, MAX_BATCH], ENGINE_CORE, &[V_REDUCTION]],
            ),
        )
        .field("policies", records(&policies, policy_columns))
        .field("prefix", records(&prefix, prefix_columns))
        .field("shards", shards)
        .into()
}

/// The `--threads-sweep` document (checked in as
/// `BENCH_serving_threads.json`): shards ∈ {1, 2, 4, 8}, sequential vs
/// threaded (one worker thread per shard), on the canonical skewed
/// cluster configuration (least-loaded + stealing) scaled so eight shards
/// stay busy. Modeled makespan and measured wall clock sit side by side;
/// each threaded record carries its wall-clock speedup over the
/// sequential run at the same shard count. Each point runs `runs` times:
/// the schedule — and with it every modeled field — is identical across
/// runs and thread counts (the guarantee the digest tests pin), so only
/// the measured wall clock varies, and the best run is reported to damp
/// scheduler noise.
///
/// The document records `host_parallelism`
/// ([`std::thread::available_parallelism`]) because the speedup column is
/// only meaningful relative to it: threaded stepping cannot beat
/// sequential on a single-core host, however many worker threads fan out
/// — expect ~1.0× there and up to ~min(shards, cores)× on real CI
/// hardware.
fn threads_sweep(elephants: u64, mice: u64, runs: usize) -> JsonValue {
    let stream = skewed(elephants, mice);
    let best_of = |shards: usize, threads: usize| {
        let meta = meta(&skewed_config(None), PolicyKind::Fifo).for_cluster(
            shards,
            RoutingKind::LeastLoaded.name(),
            true,
            threads,
        );
        (0..runs.max(1))
            .map(|_| run(&meta, &stream))
            .min_by(|a, b| a.report.wall_seconds.total_cmp(&b.report.wall_seconds))
            .expect("at least one run")
    };
    let record = |run: &Run| {
        cols(
            JsonObject::new(),
            run,
            &[&[SHARDS, THREADS], CLUSTER_CORE, &[STEALS, WALL_MS]],
        )
    };
    let mut records = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let sequential = best_of(shards, 1);
        records.push(record(&sequential).into());
        if shards > 1 {
            let threaded = best_of(shards, shards);
            assert_eq!(
                threaded.trace.digest, sequential.trace.digest,
                "threaded schedule diverged from sequential at {shards} shards"
            );
            let speedup = sequential.report.wall_seconds / threaded.report.wall_seconds;
            records.push(
                record(&threaded)
                    .field("speedup", JsonValue::Prec(speedup, 3))
                    .into(),
            );
        }
    }
    JsonObject::new()
        .field("bench", "serving_threads")
        .field("workload", "skewed-elephant-mice")
        .field("elephants", elephants)
        .field("mice", mice)
        .field("routing", "least-loaded")
        .field("stealing", true)
        .field("runs_per_point", runs)
        .field("host_parallelism", host_parallelism())
        .field("records", records)
        .into()
}

/// The `--scenario-sweep` document (checked in as
/// `BENCH_serving_scenarios.json`): one engine record per scenario — its
/// own canonical engine shape under FIFO, since the sweep contrasts
/// *workloads* and *routing*, not policies — plus a 4-shard cluster pair
/// (round-robin vs prefix-affinity), for every scenario in full mode and
/// for the agentic scenario only under `--quick`. Records carry the
/// schedule digest so a bench diff doubles as a schedule-regression
/// signal, and `host_parallelism` keeps wall_ms honest about the hardware
/// it was measured on.
fn scenario_sweep(seed: u64, quick: bool) -> JsonValue {
    let mut records = Vec::new();
    let mut agentic_hit_rates = None;
    for kind in ScenarioKind::all() {
        let requests = kind.build().generate(seed);
        let engine = meta(
            &kind.build().serving_config(paper_accel()),
            PolicyKind::Fifo,
        )
        .for_scenario(kind.name(), seed);
        // The cluster contrast is where routing earns (or scatters) the
        // per-shard caches' hit rate; the agentic pair always runs
        // because the affinity margin is pinned from it.
        let contrast = !quick || kind == ScenarioKind::AgenticToolLoops;
        let routings = [RoutingKind::RoundRobin, RoutingKind::PrefixAffinity];
        let clusters = routings
            .iter()
            .filter(|_| contrast)
            .map(|routing| engine.clone().for_cluster(4, routing.name(), false, 1));
        let mut hit_rates = Vec::new();
        for meta in std::iter::once(engine.clone()).chain(clusters) {
            let run = run(&meta, &requests);
            let shape: &[Column] = if meta.shards == 1 {
                &[REQUESTS, TOKENS, STEPS]
            } else {
                hit_rates.push(run.report.prefix_hit_rate());
                &[SHARDS, ROUTING, REQUESTS, TOKENS, CLUSTER_STEPS]
            };
            let record = cols(
                JsonObject::new(),
                &run,
                &[
                    &[SCENARIO, FLAVOR],
                    shape,
                    &[TOTAL_CYCLES, WALL_MS, TOKENS_PER_S],
                    &[PREFIX_HIT_RATE, TTFT_BOUND_GOODPUT, DIGEST],
                ],
            );
            records.push(record.into());
        }
        if kind == ScenarioKind::AgenticToolLoops {
            agentic_hit_rates = Some(hit_rates);
        }
    }
    let agentic = agentic_hit_rates.expect("the agentic cluster pair always runs");
    let (rr, affinity) = (agentic[0], agentic[1]);
    JsonObject::new()
        .field("bench", "serving_scenarios")
        .field("scenario_seed", seed)
        .field("quick", quick)
        .field("policy", "fifo")
        .field("goodput_ttft_bound_steps", GOODPUT_TTFT_BOUND_STEPS)
        .field("host_parallelism", host_parallelism())
        .field("records", records)
        .field(
            "agentic_affinity",
            JsonObject::new()
                .field("scenario", ScenarioKind::AgenticToolLoops.name())
                .field("shards", 4usize)
                .field("round_robin_hit_rate", JsonValue::Prec(rr, 3))
                .field("affinity_hit_rate", JsonValue::Prec(affinity, 3))
                .field("margin", JsonValue::Prec(affinity - rr, 3)),
        )
        .into()
}

/// The `--slo-sweep` document (checked in as `BENCH_serving_slo.json`):
/// goodput-under-SLO vs load on the deadline-carrying scenarios — `load`×
/// the canonical document count (long-doc) or `load` day cycles (diurnal)
/// — chunk budgets {unlimited, 4, 16 pages/step} × {fifo, sjf,
/// slo-aware}, each on the scenario's canonical engine. The modeled
/// columns (cycles, goodput, attainment, TTFT p99, stall) are
/// host-independent; `wall_ms` is measured and only comparable at equal
/// `host_parallelism` — on a single-core runner expect it to track total
/// work, not scheduling quality.
fn slo_sweep(seed: u64, quick: bool) -> JsonValue {
    let loads: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let policies = [
        PolicyKind::Fifo,
        PolicyKind::ShortestJobFirst,
        PolicyKind::SloAware,
    ];
    let mut records = Vec::new();
    for kind in [
        ScenarioKind::LongDocSummarize,
        ScenarioKind::DiurnalArrivals,
    ] {
        for &load in loads {
            let requests = match kind {
                ScenarioKind::LongDocSummarize => {
                    LongDocSummarize { docs: 8 * load }.generate(seed)
                }
                _ => DiurnalArrivals {
                    clients: 3,
                    days: load,
                }
                .generate(seed),
            };
            for policy in policies {
                for chunk_pages in [0usize, 4, 16] {
                    let mut cfg = kind.build().serving_config(paper_accel());
                    cfg.prefill_chunk_pages = chunk_pages;
                    let run = run(
                        &meta(&cfg, policy).for_scenario(kind.name(), seed),
                        &requests,
                    );
                    let record = cols(JsonObject::new(), &run, &[&[SCENARIO]]).field("load", load);
                    let record = cols(
                        record,
                        &run,
                        &[
                            &[POLICY, PREFILL_CHUNK_PAGES, REQUESTS],
                            &[
                                TOKENS,
                                GOOD_TOKENS,
                                STEPS,
                                TOTAL_CYCLES,
                                WALL_MS,
                                TOKENS_PER_S,
                            ],
                            &[SLO_GOODPUT, DEADLINE_ATTAINMENT, TTFT_P99_STEPS],
                            &[MAX_PREFILL_STALL_CYCLES, DIGEST],
                        ],
                    );
                    records.push(record.into());
                }
            }
        }
    }
    JsonObject::new()
        .field("bench", "serving_slo")
        .field("scenario_seed", seed)
        .field("quick", quick)
        .field(
            "chunk_budgets_pages",
            vec![JsonValue::from(0u64), 4u64.into(), 16u64.into()],
        )
        .field("host_parallelism", host_parallelism())
        .field(
            "wall_clock_note",
            "wall_ms is measured on this host (host_parallelism above); the modeled \
             cycle/goodput/attainment columns are the comparable numbers on single-core CI",
        )
        .field("records", records)
        .into()
}

/// The `--tiered-sweep` document (checked in as
/// `BENCH_serving_tiered.json`). Two faces of tiered KV memory:
///
/// * **Swap sweep**: the canonical skewed workload under eviction
///   pressure (priority-aging + preemption + 0.75 paged retention),
///   drop-and-re-prefill (`host_pages` 0) against a host swap tier at
///   copy-back factors {0.25, 0.5, 1.0, 1.5} — the priced crossover where
///   swapping beats recompute below the re-prefill cost and loses above
///   it. The sweep *asserts* the crossover: at equal generated tokens,
///   factor 0.25 must strictly beat the baseline's total cycles and
///   factor 1.5 must strictly lose.
/// * **Ship sweep**: the shared-prefix chat workload scattered over 4
///   round-robin shards, shipping off vs on at 0.25 — pulling a sibling's
///   already-built prefix pages must strictly cut the cluster prefill
///   bill, asserted the same way.
fn tiered_sweep(quick: bool) -> JsonValue {
    let mice: u64 = if quick { 6 } else { 12 };
    let stream = skewed(4, mice);
    let swap_runs: Vec<Run> = [
        (0usize, 0.25f64),
        (1024, 0.25),
        (1024, 0.5),
        (1024, 1.0),
        (1024, 1.5),
    ]
    .into_iter()
    .map(|(host_pages, swap_cost)| {
        let mut cfg = skewed_config(Some(RetentionPolicy::Fraction(0.75)));
        cfg.host_pages = host_pages;
        cfg.swap_cost_factor = swap_cost;
        run(&meta(&cfg, PolicyKind::PriorityAging), &stream)
    })
    .collect();
    let cycles = |run: &Run| run.report.total_cycles;
    let (baseline, cheap, overpriced) = (&swap_runs[0], &swap_runs[1], &swap_runs[4]);
    for tiered in &swap_runs[1..] {
        assert_eq!(
            tiered.report.tokens_generated(),
            baseline.report.tokens_generated(),
            "the host tier changed the schedule's generated tokens"
        );
    }
    assert!(
        cycles(cheap) < cycles(baseline),
        "cheap copy-back ({}) failed to beat drop-and-re-prefill ({})",
        cycles(cheap),
        cycles(baseline)
    );
    assert!(
        cycles(overpriced) > cycles(baseline),
        "overpriced copy-back ({}) failed to lose to drop-and-re-prefill ({})",
        cycles(overpriced),
        cycles(baseline)
    );
    let swap_records = records(
        &swap_runs,
        &[
            &[HOST_PAGES, SWAP_COST_FACTOR],
            ENGINE_CORE,
            &[PREEMPTIONS, SWAPPED_TOKENS, SWAP_CYCLES, REPREFILL_CYCLES],
        ],
    );

    let (tenants, per_tenant) = if quick { (3, 4) } else { (4, 6) };
    let stream = chat(tenants, per_tenant);
    let ship_runs = [0.0f64, 0.25].map(|ship_cost| {
        let mut cfg = chat_config(true);
        cfg.ship_cost_factor = ship_cost;
        let meta =
            meta(&cfg, PolicyKind::Fifo).for_cluster(4, RoutingKind::RoundRobin.name(), false, 1);
        run(&meta, &stream)
    });
    let [ship_off, ship_on] = ship_runs
        .each_ref()
        .map(|run| run.report.total_prefill_cycles());
    assert!(
        ship_on < ship_off,
        "prefix pulls ({ship_on}) failed to cut the round-robin prefill bill ({ship_off})"
    );
    let ship_records = records(
        &ship_runs,
        &[
            &[SHARDS, ROUTING, SHIP_COST_FACTOR],
            CLUSTER_CORE,
            &[PREFILL_CYCLES, SHIP_CYCLES, HIT_RATE],
        ],
    );
    JsonObject::new()
        .field("bench", "serving_tiered")
        .field("quick", quick)
        .field("host_parallelism", host_parallelism())
        .field(
            "swap_sweep",
            JsonObject::new()
                .field("workload", "skewed-elephant-mice")
                .field("policy", PolicyKind::PriorityAging.name())
                .field("retention", "paged-0.75")
                .field("records", swap_records)
                .field(
                    "crossover",
                    JsonObject::new()
                        .field("baseline_cycles", cycles(baseline))
                        .field("swap_0_25_cycles", cycles(cheap))
                        .field("swap_beats_reprefill", true),
                ),
        )
        .field(
            "ship_sweep",
            JsonObject::new()
                .field("workload", "shared-prefix-chat")
                .field("shards", 4usize)
                .field("routing", "round-robin")
                .field("records", ship_records)
                .field(
                    "prefill_saving",
                    JsonObject::new()
                        .field("ship_off_prefill_cycles", ship_off)
                        .field("ship_on_prefill_cycles", ship_on)
                        .field("shipping_cuts_prefill", true),
                ),
        )
        .into()
}

/// One record of the `--e2e-sweep`: `requests` served on the engine `meta`
/// describes with the token-backed mirror generating real synth-model
/// tokens out of the shared paged KV store. Token equivalence against a
/// per-request unsharded `generate` — and the expected sharing/preemption
/// posture — are asserted, not just reported. The mirror drives its
/// engine step by step and consumes the event stream, so this is the one
/// run outside [`run`]: its report is wrapped as the cluster of one it
/// is, and its trace holds the requests only.
fn e2e_record(
    label: &'static str,
    meta: TraceMeta,
    requests: Vec<ServingRequest>,
    expect_sharing: bool,
    expect_preemptions: bool,
) -> JsonValue {
    // The CLI/bench workloads outgrow the toy spec's 256-token window,
    // so the served model is toy-shaped with a longer context.
    let mut spec = ModelSpec::toy();
    spec.max_context = 1024;
    let cfg = meta.serving_config().clone();
    let mut engine = ServingEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(meta.policy.parse().expect("a registry policy name"))
        .build();
    let start = Instant::now();
    let served =
        topick_accel::serve::run_token_backed(&mut engine, requests.clone(), spec, 11, MAX_STEPS)
            .expect("e2e run completes");
    let wall_seconds = start.elapsed().as_secs_f64();
    for req in &requests {
        let got = served.batch.generated(req.id).expect("request was served");
        assert_eq!(
            got,
            served.batch.reference_generate(req).as_slice(),
            "{label}: request {} diverged from its unsharded generate",
            req.id
        );
    }
    if expect_sharing {
        assert!(
            served.batch.peak_shared_pages() > 0,
            "{label}: the prefix cache produced no physical page sharing"
        );
    } else {
        assert_eq!(
            served.batch.peak_shared_pages(),
            0,
            "{label}: pages were shared without a prefix cache"
        );
    }
    if expect_preemptions {
        assert!(
            served.report.preemptions > 0,
            "{label}: the eviction regime never preempted"
        );
    }
    served.batch.validate();
    let mut recorder = TraceRecorder::new(meta);
    for req in &requests {
        recorder.request(req);
    }
    let run = Run {
        report: ClusterReport {
            routing: RoutingKind::RoundRobin.name().to_string(),
            policy: served.report.policy.clone(),
            stealing: false,
            steals: 0,
            ships: 0,
            cluster_steps: served.report.steps.len(),
            total_cycles: served.report.total_cycles,
            threads: 1,
            wall_seconds,
            shards: vec![served.report.clone()],
        },
        trace: recorder.finish(),
    };
    cols(
        JsonObject::new().field("config", label),
        &run,
        &[
            &[REQUESTS, TOKENS, STEPS, PREEMPTIONS],
            &[WALL_MS, TOKENS_PER_S, HIT_RATE],
        ],
    )
    .field("peak_shared_pages", served.batch.peak_shared_pages())
    .field("drained_shared_pages", served.batch.shared_pages())
    .field("charged_cycles", served.charged_cycles())
    .field(
        "measured_build_cycles",
        served.batch.measured_build_cycles(),
    )
    .field(
        "measured_decode_cycles",
        served.batch.measured_decode_cycles(),
    )
    .field("cycle_ratio", JsonValue::Prec(served.cycle_ratio(), 4))
    .field("byte_identical", true)
    .into()
}

/// The `--e2e-sweep` document (checked in as `BENCH_serving_e2e.json`):
/// real-token serving across the regimes that stress the paged store
/// differently — prefix sharing (cache on/off), chunked prefill, and
/// preemption with paged retention. See the module docs for what each
/// record asserts.
fn e2e_sweep(quick: bool) -> JsonValue {
    let (tenants, per_tenant) = if quick { (3, 4) } else { (4, 6) };
    let mice: u64 = if quick { 4 } else { 8 };
    let chat = chat(tenants, per_tenant);
    let mut chunked = chat_config(true);
    chunked.prefill_chunk_pages = 2;
    let records = vec![
        e2e_record(
            "shared-prefix-cache-on",
            meta(&chat_config(true), PolicyKind::Fifo),
            chat.clone(),
            true,
            false,
        ),
        e2e_record(
            "shared-prefix-cache-off",
            meta(&chat_config(false), PolicyKind::Fifo),
            chat.clone(),
            false,
            false,
        ),
        e2e_record(
            "shared-prefix-chunked-prefill",
            meta(&chunked, PolicyKind::Fifo),
            chat,
            true,
            false,
        ),
        e2e_record(
            "skewed-preemptive-retention",
            meta(
                &skewed_config(Some(RetentionPolicy::Fraction(0.75))),
                PolicyKind::PriorityAging,
            ),
            skewed(4, mice),
            false,
            true,
        ),
    ];
    JsonObject::new()
        .field("bench", "serving_e2e")
        .field("quick", quick)
        .field(
            "model",
            "toy (d_model 64, 2 layers, 4 heads, max_context 1024)",
        )
        .field("model_seed", 11u64)
        .field("host_parallelism", host_parallelism())
        .field(
            "token_equivalence",
            "asserted per record: served tokens byte-identical to a per-request unsharded generate",
        )
        .field("records", records)
        .into()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let given = |flag: &str| args.iter().position(|arg| arg == flag);
    let number = |flag: &str| -> Option<u64> { args.get(given(flag)? + 1)?.parse().ok() };
    let quick = given("--quick").is_some();
    let seed = number("--scenario-seed").unwrap_or(11);
    let doc = if given("--e2e-sweep").is_some() {
        e2e_sweep(quick)
    } else if given("--tiered-sweep").is_some() {
        tiered_sweep(quick)
    } else if given("--slo-sweep").is_some() {
        slo_sweep(seed, quick)
    } else if given("--scenario-sweep").is_some() {
        scenario_sweep(seed, quick)
    } else if given("--threads-sweep").is_some() {
        let (elephants, mice, runs) = if quick { (4, 12, 1) } else { (8, 40, 3) };
        threads_sweep(elephants, mice, runs)
    } else {
        // `--shards N` narrows the shard sweep to [1, N] (the CI
        // invocation).
        let shard_counts: Vec<usize> = match number("--shards") {
            Some(n) if n > 1 => vec![1, n as usize],
            Some(_) => vec![1],
            None if quick => vec![1, 2],
            None => vec![1, 2, 4],
        };
        throughput_sweeps(
            quick,
            number("--requests").unwrap_or(if quick { 8 } else { 16 }),
            &shard_counts,
            number("--threads").map_or(1, |n| n.max(1) as usize),
        )
    };
    println!("{}", doc.render());
}
