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
//! wall-clock milliseconds of the run, side by side.
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

use std::collections::HashMap;
use std::time::Instant;

use topick_accel::serve::scenario::{Scenario, SharedPrefixChat, SkewedElephantMice};
use topick_accel::serve::trace::{run_recorded, RunReport, TraceMeta};
use topick_accel::{
    AccelConfig, AccelMode, ClusterEngine, ClusterReport, PolicyKind, RequestStats,
    RetentionPolicy, RoutingKind, ScenarioKind, ServingConfig, ServingEngine, ServingReport,
    ServingRequest,
};
use topick_bench::json::{JsonObject, JsonValue};
use topick_model::ModelSpec;

fn run_point(
    mode: AccelMode,
    mode_name: &'static str,
    threshold: f64,
    max_batch: usize,
    requests: u64,
) -> JsonValue {
    let accel = AccelConfig::paper(mode, threshold).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(max_batch)
        .max_batch_tokens(max_batch * 600)
        .seed(1)
        .build();
    let clock_hz = engine.config().clock_hz;
    for id in 0..requests {
        engine
            .enqueue(ServingRequest::new(
                id,
                128 + (id as usize % 8) * 48,
                2 + (id as usize % 4),
            ))
            .expect("valid request");
    }
    let start = Instant::now();
    let report = engine.run_to_completion(100_000).expect("completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    JsonObject::new()
        .field("mode", mode_name)
        .field("threshold", JsonValue::Sci(threshold))
        .field("max_batch", max_batch)
        .field("tokens", report.tokens_generated)
        .field("steps", report.steps.len())
        .field("total_cycles", report.total_cycles)
        .field("wall_ms", JsonValue::Prec(wall_ms, 3))
        .field(
            "tokens_per_s",
            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
        )
        .field(
            "v_reduction",
            JsonValue::Prec(report.prune.v_reduction(), 3),
        )
        .into()
}

/// Skewed workload: a few long low-priority "elephants" from one client
/// fill the batch, then short high-priority "mice" from other clients
/// arrive behind them — the regime where scheduling policy, preemption
/// and paged KV retention visibly bend the TTFT/re-prefill profile.
fn run_policy(
    policy: PolicyKind,
    preemption: bool,
    retention: RetentionPolicy,
    mice: u64,
) -> (ServingReport, f64, f64) {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut builder = ServingEngine::builder(accel)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(4)
        .max_batch_tokens(2200)
        .seed(7)
        .policy(policy);
    if preemption {
        builder = builder.enable_preemption().retention(retention);
    }
    let mut engine = builder.build();
    let clock_hz = engine.config().clock_hz;
    for r in skewed(4, mice) {
        engine.enqueue(r).expect("valid request");
    }
    let start = Instant::now();
    let report = engine.run_to_completion(100_000).expect("completes");
    (report, clock_hz, start.elapsed().as_secs_f64() * 1e3)
}

fn policy_record(
    policy: PolicyKind,
    preemption: bool,
    retention: RetentionPolicy,
    mice: u64,
) -> JsonValue {
    let (report, clock_hz, wall_ms) = run_policy(policy, preemption, retention, mice);
    let retention_label = match (preemption, retention) {
        (false, _) => "off",
        (true, RetentionPolicy::None) => "full-reprefill",
        (true, _) => "paged",
    };
    JsonObject::new()
        .field("policy", report.policy.as_str())
        .field("preemption", preemption)
        .field("retention", retention_label)
        .field("tokens", report.tokens_generated)
        .field("steps", report.steps.len())
        .field("total_cycles", report.total_cycles)
        .field("wall_ms", JsonValue::Prec(wall_ms, 3))
        .field(
            "tokens_per_s",
            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
        )
        .field(
            "mean_ttft_steps",
            JsonValue::Prec(report.mean_ttft_steps(), 2),
        )
        .field(
            "mean_queue_wait_steps",
            JsonValue::Prec(report.mean_queue_wait_steps(), 2),
        )
        .field("preemptions", report.preemptions)
        .field("reprefill_cycles", report.total_reprefill_cycles())
        .field("reprefilled_tokens", report.total_reprefilled_tokens())
        .field("retained_tokens", report.total_retained_tokens())
        .into()
}

/// The canonical shared-prefix chat engine sizing, toggling only the
/// prefix cache.
fn chat_config(prefix_cache: bool) -> ServingConfig {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = SharedPrefixChat::default().serving_config(accel);
    cfg.admission.prefix_cache = prefix_cache;
    cfg
}

/// The canonical skewed elephant/mice engine sizing.
fn skewed_config() -> ServingConfig {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    SkewedElephantMice::default().serving_config(accel)
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

/// Shared-prefix workload with prompt prefill priced: one record per
/// cache setting, pinning the prefill/re-prefill bill and the hit rate.
fn prefix_record(prefix_cache: bool, tenants: u64, per_tenant: u64) -> JsonValue {
    let mut engine = ServingEngine::new(chat_config(prefix_cache));
    let clock_hz = engine.config().clock_hz;
    for r in chat(tenants, per_tenant) {
        engine.enqueue(r).expect("valid request");
    }
    let start = Instant::now();
    let report = engine.run_to_completion(100_000).expect("completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    JsonObject::new()
        .field("policy", report.policy.as_str())
        .field("prefix_cache", prefix_cache)
        .field("tokens", report.tokens_generated)
        .field("steps", report.steps.len())
        .field("total_cycles", report.total_cycles)
        .field("wall_ms", JsonValue::Prec(wall_ms, 3))
        .field(
            "tokens_per_s",
            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
        )
        .field("prefill_cycles", report.total_prefill_cycles())
        .field("reprefill_cycles", report.total_reprefill_cycles())
        .field("prefix_hit_tokens", report.total_prefix_hit_tokens())
        .field("hit_rate", JsonValue::Prec(report.prefix_hit_rate(), 3))
        .into()
}

/// Sizing of the two cluster workloads, shared across the shard sweep.
#[derive(Clone, Copy)]
struct WorkloadSize {
    mice: u64,
    tenants: u64,
    per_tenant: u64,
}

/// One cluster run: the canonical skewed workload (FIFO per shard) or the
/// shared-prefix chat workload (prefix cache + priced prefill per shard),
/// at the given shard count, routing policy and worker thread count.
fn run_cluster(
    workload: &str,
    shards: usize,
    routing: RoutingKind,
    stealing: bool,
    threads: usize,
    size: WorkloadSize,
) -> (ClusterReport, f64) {
    // Both branches run their scenario's canonical per-shard sizing, so
    // the bench stays comparable with the equivalence tests.
    let cfg = if workload == "skewed" {
        skewed_config()
    } else {
        chat_config(true)
    };
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .shards(shards)
        .routing(routing)
        .stealing(stealing)
        .threads(threads)
        .build();
    let clock_hz = cluster.shard(0).config().clock_hz;
    let requests = if workload == "skewed" {
        skewed(4, size.mice)
    } else {
        chat(size.tenants, size.per_tenant)
    };
    for r in requests {
        cluster.enqueue(r).expect("valid request");
    }
    (
        cluster.run_to_completion(100_000).expect("completes"),
        clock_hz,
    )
}

fn shard_record(
    workload: &str,
    shards: usize,
    routing: RoutingKind,
    stealing: bool,
    threads: usize,
    size: WorkloadSize,
) -> JsonValue {
    let (report, clock_hz) = run_cluster(workload, shards, routing, stealing, threads, size);
    JsonObject::new()
        .field("workload", workload)
        .field("shards", shards)
        .field("routing", report.routing.as_str())
        .field("stealing", stealing)
        .field("threads", report.threads)
        .field("tokens", report.tokens_generated())
        .field("cluster_steps", report.cluster_steps)
        .field("makespan_cycles", report.total_cycles)
        .field("wall_ms", JsonValue::Prec(report.wall_seconds * 1e3, 3))
        .field(
            "tokens_per_s",
            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
        )
        .field("steals", report.steals)
        .field(
            "load_imbalance",
            JsonValue::Prec(report.load_imbalance(), 3),
        )
        .field("prefill_cycles", report.total_prefill_cycles())
        .field("prefix_hit_tokens", report.total_prefix_hit_tokens())
        .field("hit_rate", JsonValue::Prec(report.prefix_hit_rate(), 3))
        .into()
}

/// One point of the dedicated threading sweep: the canonical skewed
/// cluster configuration (least-loaded + stealing) at a shard and thread
/// count, run `runs` times. The schedule — and with it every modeled
/// field — is identical across runs and thread counts (that is the
/// tentpole guarantee the digest tests pin), so only the *measured* wall
/// clock varies; the best of the runs is reported to damp scheduler
/// noise.
fn run_threads_point(
    shards: usize,
    threads: usize,
    elephants: u64,
    mice: u64,
    runs: usize,
) -> (ClusterReport, f64) {
    let mut best_wall = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs.max(1) {
        let cfg = skewed_config();
        let mut cluster = ClusterEngine::builder(cfg.accel.clone())
            .config(cfg)
            .shards(shards)
            .routing(RoutingKind::LeastLoaded)
            .stealing(true)
            .threads(threads)
            .build();
        for r in skewed(elephants, mice) {
            cluster.enqueue(r).expect("valid request");
        }
        let report = cluster.run_to_completion(1_000_000).expect("completes");
        best_wall = best_wall.min(report.wall_seconds);
        last = Some(report);
    }
    (last.expect("at least one run"), best_wall)
}

/// The `--threads-sweep` document (checked in as
/// `BENCH_serving_threads.json`): shards ∈ {1, 2, 4, 8}, sequential vs
/// threaded (one worker thread per shard), on a skewed workload scaled so
/// eight shards stay busy. Modeled makespan and measured wall clock sit
/// side by side; each threaded record carries its wall-clock speedup over
/// the sequential run at the same shard count.
///
/// The document records `host_parallelism`
/// ([`std::thread::available_parallelism`]) because the speedup column is
/// only meaningful relative to it: threaded stepping cannot beat
/// sequential on a single-core host, however many worker threads fan out
/// — expect ~1.0× there and up to ~min(shards, cores)× on real CI
/// hardware.
fn threads_sweep(elephants: u64, mice: u64, runs: usize) -> JsonValue {
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let clock_hz = 500e6;
    let mut records = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let (seq_report, seq_wall) = run_threads_point(shards, 1, elephants, mice, runs);
        let record = |report: &ClusterReport, threads: usize, wall: f64| {
            JsonObject::new()
                .field("shards", shards)
                .field("threads", threads)
                .field("tokens", report.tokens_generated())
                .field("cluster_steps", report.cluster_steps)
                .field("makespan_cycles", report.total_cycles)
                .field(
                    "tokens_per_s",
                    JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
                )
                .field("steals", report.steals)
                .field("wall_ms", JsonValue::Prec(wall * 1e3, 3))
        };
        records.push(record(&seq_report, 1, seq_wall).into());
        if shards > 1 {
            let (thr_report, thr_wall) = run_threads_point(shards, shards, elephants, mice, runs);
            assert_eq!(
                thr_report.total_cycles, seq_report.total_cycles,
                "threaded schedule diverged from sequential at {shards} shards"
            );
            records.push(
                record(&thr_report, shards, thr_wall)
                    .field("speedup", JsonValue::Prec(seq_wall / thr_wall, 3))
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
        .field("host_parallelism", host_parallelism)
        .field("records", records)
        .into()
}

/// TTFT bound (in steps) under which a request's decode tokens count as
/// "good" for the goodput proxy: tokens served promptly enough to matter,
/// per modeled second — the serving-quality number raw tokens/s hides.
const GOODPUT_TTFT_BOUND_STEPS: usize = 8;

/// Decode tokens of requests whose time-to-first-token stayed within
/// [`GOODPUT_TTFT_BOUND_STEPS`], per modeled second.
fn goodput_tokens_per_s<'a>(
    requests: impl Iterator<Item = &'a RequestStats>,
    total_cycles: u64,
    clock_hz: f64,
) -> f64 {
    let good: usize = requests
        .filter(|r| {
            matches!(r.first_token_at, Some(t)
                if t.saturating_sub(r.enqueued_at) <= GOODPUT_TTFT_BOUND_STEPS)
        })
        .map(|r| r.generated)
        .sum();
    if total_cycles == 0 {
        0.0
    } else {
        good as f64 / (total_cycles as f64 / clock_hz)
    }
}

/// The meta describing a scenario run in the sweep: the scenario's own
/// canonical engine shape, FIFO scheduling (the sweep contrasts
/// *workloads* and *routing*, not policies).
fn scenario_meta(kind: ScenarioKind, seed: u64) -> TraceMeta {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let cfg = kind.build().serving_config(accel);
    TraceMeta::new(&cfg, PolicyKind::Fifo.name())
        .for_scenario(kind.name(), seed)
        .with_max_steps(100_000)
}

/// The `--scenario-sweep` document (checked in as
/// `BENCH_serving_scenarios.json`): one engine record per scenario, plus
/// a 4-shard cluster pair (round-robin vs prefix-affinity) — for every
/// scenario in full mode, for the agentic scenario only under `--quick`.
/// Records carry the schedule digest so a bench diff doubles as a
/// schedule-regression signal, and `host_parallelism` keeps wall_ms
/// honest about the hardware it was measured on.
fn scenario_sweep(seed: u64, quick: bool) -> JsonValue {
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut records = Vec::new();
    let mut agentic_hit_rates = None;
    for kind in ScenarioKind::all() {
        let requests = kind.build().generate(seed);
        let meta = scenario_meta(kind, seed);
        let clock_hz = meta.serving_config().clock_hz;
        let start = Instant::now();
        let (trace, report) = run_recorded(&meta, &requests).expect("scenario run completes");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let RunReport::Engine(report) = report else {
            unreachable!("shards <= 1 runs a bare engine");
        };
        records.push(
            JsonObject::new()
                .field("scenario", kind.name())
                .field("flavor", "engine")
                .field("requests", requests.len())
                .field("tokens", report.tokens_generated)
                .field("steps", report.steps.len())
                .field("total_cycles", report.total_cycles)
                .field("wall_ms", JsonValue::Prec(wall_ms, 3))
                .field(
                    "tokens_per_s",
                    JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
                )
                .field(
                    "prefix_hit_rate",
                    JsonValue::Prec(report.prefix_hit_rate(), 3),
                )
                .field(
                    "goodput_tokens_per_s",
                    JsonValue::Prec(
                        goodput_tokens_per_s(report.requests.iter(), report.total_cycles, clock_hz),
                        1,
                    ),
                )
                .field("digest", trace.digest)
                .into(),
        );
        // The cluster contrast is where routing earns (or scatters) the
        // per-shard caches' hit rate; the agentic pair always runs
        // because the affinity margin is pinned from it.
        if !quick || kind == ScenarioKind::AgenticToolLoops {
            let mut hit_rates = [0.0f64; 2];
            for (i, routing) in [RoutingKind::RoundRobin, RoutingKind::PrefixAffinity]
                .into_iter()
                .enumerate()
            {
                let meta = scenario_meta(kind, seed).for_cluster(4, routing.name(), false, 1);
                let start = Instant::now();
                let (trace, report) =
                    run_recorded(&meta, &requests).expect("scenario cluster run completes");
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let RunReport::Cluster(report) = report else {
                    unreachable!("shards > 1 runs a cluster");
                };
                hit_rates[i] = report.prefix_hit_rate();
                records.push(
                    JsonObject::new()
                        .field("scenario", kind.name())
                        .field("flavor", "cluster")
                        .field("shards", 4usize)
                        .field("routing", routing.name())
                        .field("requests", requests.len())
                        .field("tokens", report.tokens_generated())
                        .field("cluster_steps", report.cluster_steps)
                        .field("total_cycles", report.total_cycles)
                        .field("wall_ms", JsonValue::Prec(wall_ms, 3))
                        .field(
                            "tokens_per_s",
                            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
                        )
                        .field(
                            "prefix_hit_rate",
                            JsonValue::Prec(report.prefix_hit_rate(), 3),
                        )
                        .field(
                            "goodput_tokens_per_s",
                            JsonValue::Prec(
                                goodput_tokens_per_s(
                                    report.requests().map(|(_, r)| r),
                                    report.total_cycles,
                                    clock_hz,
                                ),
                                1,
                            ),
                        )
                        .field("digest", trace.digest)
                        .into(),
                );
            }
            if kind == ScenarioKind::AgenticToolLoops {
                agentic_hit_rates = Some(hit_rates);
            }
        }
    }
    let [rr, affinity] = agentic_hit_rates.expect("the agentic cluster pair always runs");
    JsonObject::new()
        .field("bench", "serving_scenarios")
        .field("scenario_seed", seed)
        .field("quick", quick)
        .field("policy", "fifo")
        .field("goodput_ttft_bound_steps", GOODPUT_TTFT_BOUND_STEPS)
        .field("host_parallelism", host_parallelism)
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

/// The deadline-carrying scenario at a load multiplier: `load`× the
/// canonical document count (long-doc) or `load` day cycles (diurnal) —
/// the x-axis goodput is plotted against.
fn slo_workload(kind: ScenarioKind, load: u64, seed: u64) -> Vec<ServingRequest> {
    use topick_accel::serve::scenario::{DiurnalArrivals, LongDocSummarize, Scenario};
    match kind {
        ScenarioKind::LongDocSummarize => LongDocSummarize { docs: 8 * load }.generate(seed),
        ScenarioKind::DiurnalArrivals => DiurnalArrivals {
            clients: 3,
            days: load,
        }
        .generate(seed),
        _ => unreachable!("the SLO sweep runs the deadline-carrying scenarios"),
    }
}

/// One SLO-sweep record: the scenario's canonical engine under `policy`,
/// with `chunk_pages` of per-step chunked-prefill budget (0 = the
/// unchunked lump).
fn slo_record(
    kind: ScenarioKind,
    requests: &[ServingRequest],
    load: u64,
    policy: PolicyKind,
    chunk_pages: usize,
    seed: u64,
) -> JsonValue {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = kind.build().serving_config(accel);
    cfg.prefill_chunk_pages = chunk_pages;
    let meta = TraceMeta::new(&cfg, policy.name())
        .for_scenario(kind.name(), seed)
        .with_max_steps(200_000);
    let clock_hz = meta.serving_config().clock_hz;
    let start = Instant::now();
    let (trace, report) = run_recorded(&meta, requests).expect("slo run completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let RunReport::Engine(report) = report else {
        unreachable!("shards <= 1 runs a bare engine");
    };
    JsonObject::new()
        .field("scenario", kind.name())
        .field("load", load)
        .field("policy", policy.name())
        .field("prefill_chunk_pages", chunk_pages)
        .field("requests", requests.len())
        .field("tokens", report.tokens_generated)
        .field("good_tokens", report.total_good_tokens())
        .field("steps", report.steps.len())
        .field("total_cycles", report.total_cycles)
        .field("wall_ms", JsonValue::Prec(wall_ms, 3))
        .field(
            "tokens_per_s",
            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
        )
        .field(
            "goodput_tokens_per_s",
            JsonValue::Prec(report.goodput_tokens_per_second(clock_hz), 1),
        )
        .field(
            "deadline_attainment",
            JsonValue::Prec(report.deadline_attainment(), 3),
        )
        .field("ttft_p99_steps", report.ttft_p99_steps())
        .field(
            "max_prefill_stall_cycles",
            report.max_prefill_stall_cycles(),
        )
        .field("digest", trace.digest)
        .into()
}

/// The `--slo-sweep` document (checked in as `BENCH_serving_slo.json`):
/// goodput-under-SLO vs load on the deadline-carrying scenarios, chunk
/// budgets {unlimited, 4, 16 pages/step} × {fifo, sjf, slo-aware}. The
/// modeled columns (cycles, goodput, attainment, TTFT p99, stall) are
/// host-independent; `wall_ms` is measured and only comparable at equal
/// `host_parallelism` — on a single-core runner expect it to track total
/// work, not scheduling quality.
fn slo_sweep(seed: u64, quick: bool) -> JsonValue {
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
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
            let requests = slo_workload(kind, load, seed);
            for policy in policies {
                for chunk_pages in [0usize, 4, 16] {
                    records.push(slo_record(kind, &requests, load, policy, chunk_pages, seed));
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
        .field("host_parallelism", host_parallelism)
        .field(
            "wall_clock_note",
            "wall_ms is measured on this host (host_parallelism above); the modeled \
             cycle/goodput/attainment columns are the comparable numbers on single-core CI",
        )
        .field("records", records)
        .into()
}

/// One engine run of the canonical skewed workload (priority-aging +
/// preemption + 0.75 paged retention — the eviction-heavy regime) with a
/// host swap tier of `host_pages` priced at `swap_cost`.
fn run_tiered_engine(host_pages: usize, swap_cost: f64, mice: u64) -> (ServingReport, f64, f64) {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(4)
        .max_batch_tokens(2200)
        .seed(7)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.75))
        .host_pages(host_pages)
        .swap_cost_factor(swap_cost)
        .build();
    let clock_hz = engine.config().clock_hz;
    for r in skewed(4, mice) {
        engine.enqueue(r).expect("valid request");
    }
    let start = Instant::now();
    let report = engine.run_to_completion(100_000).expect("completes");
    (report, clock_hz, start.elapsed().as_secs_f64() * 1e3)
}

/// One 4-shard round-robin run of the shared-prefix chat workload with
/// cross-shard page shipping priced at `ship_cost` (0 disables it).
fn run_tiered_cluster(ship_cost: f64, size: WorkloadSize) -> (ClusterReport, f64) {
    let mut cfg = chat_config(true);
    cfg.ship_cost_factor = ship_cost;
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .shards(4)
        .routing(RoutingKind::RoundRobin)
        .stealing(false)
        .build();
    let clock_hz = cluster.shard(0).config().clock_hz;
    for r in chat(size.tenants, size.per_tenant) {
        cluster.enqueue(r).expect("valid request");
    }
    (
        cluster.run_to_completion(100_000).expect("completes"),
        clock_hz,
    )
}

/// The `--tiered-sweep` document (checked in as
/// `BENCH_serving_tiered.json`). Two faces of tiered KV memory:
///
/// * **Swap sweep**: the canonical skewed workload under eviction
///   pressure, drop-and-re-prefill (`host_pages` 0) against a host swap
///   tier at copy-back factors {0.25, 0.5, 1.0, 1.5} — the priced
///   crossover where swapping beats recompute below the re-prefill cost
///   and loses above it. The sweep *asserts* the crossover: at equal
///   generated tokens, factor 0.25 must strictly beat the baseline's
///   total cycles and factor 1.5 must strictly lose.
/// * **Ship sweep**: the shared-prefix chat workload scattered over 4
///   round-robin shards, shipping off vs on at 0.25 — pulling a sibling's
///   already-built prefix pages must strictly cut the cluster prefill
///   bill, asserted the same way.
fn tiered_sweep(quick: bool) -> JsonValue {
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mice: u64 = if quick { 6 } else { 12 };
    let mut swap_records = Vec::new();
    let (baseline, clock_hz, base_wall) = run_tiered_engine(0, 0.25, mice);
    let swap_record = |report: &ServingReport, host_pages: usize, factor: f64, wall: f64| {
        JsonObject::new()
            .field("host_pages", host_pages)
            .field("swap_cost_factor", JsonValue::Prec(factor, 2))
            .field("tokens", report.tokens_generated)
            .field("steps", report.steps.len())
            .field("total_cycles", report.total_cycles)
            .field("wall_ms", JsonValue::Prec(wall, 3))
            .field(
                "tokens_per_s",
                JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
            )
            .field("preemptions", report.preemptions)
            .field("swapped_tokens", report.total_swapped_tokens())
            .field("swap_cycles", report.total_swap_cycles())
            .field("reprefill_cycles", report.total_reprefill_cycles())
    };
    swap_records.push(swap_record(&baseline, 0, 0.25, base_wall).into());
    let mut cheap_swap_cycles = None;
    for factor in [0.25f64, 0.5, 1.0, 1.5] {
        let (report, _, wall) = run_tiered_engine(1024, factor, mice);
        assert_eq!(
            report.tokens_generated, baseline.tokens_generated,
            "the host tier changed the schedule's generated tokens"
        );
        if factor == 0.25 {
            assert!(
                report.total_cycles < baseline.total_cycles,
                "cheap copy-back ({}) failed to beat drop-and-re-prefill ({})",
                report.total_cycles,
                baseline.total_cycles
            );
            cheap_swap_cycles = Some(report.total_cycles);
        }
        if factor == 1.5 {
            assert!(
                report.total_cycles > baseline.total_cycles,
                "overpriced copy-back ({}) failed to lose to drop-and-re-prefill ({})",
                report.total_cycles,
                baseline.total_cycles
            );
        }
        swap_records.push(swap_record(&report, 1024, factor, wall).into());
    }
    let (tenants, per_tenant) = if quick { (3, 4) } else { (4, 6) };
    let size = WorkloadSize {
        mice,
        tenants,
        per_tenant,
    };
    let mut ship_records = Vec::new();
    let mut prefill_bills = [0u64; 2];
    for (i, ship) in [0.0f64, 0.25].into_iter().enumerate() {
        let (report, clock_hz) = run_tiered_cluster(ship, size);
        prefill_bills[i] = report.total_prefill_cycles();
        ship_records.push(
            JsonObject::new()
                .field("shards", 4usize)
                .field("routing", report.routing.as_str())
                .field("ship_cost_factor", JsonValue::Prec(ship, 2))
                .field("tokens", report.tokens_generated())
                .field("cluster_steps", report.cluster_steps)
                .field("makespan_cycles", report.total_cycles)
                .field(
                    "tokens_per_s",
                    JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
                )
                .field("prefill_cycles", report.total_prefill_cycles())
                .field("ship_cycles", report.total_ship_cycles())
                .field("hit_rate", JsonValue::Prec(report.prefix_hit_rate(), 3))
                .into(),
        );
    }
    assert!(
        prefill_bills[1] < prefill_bills[0],
        "prefix pulls ({}) failed to cut the round-robin prefill bill ({})",
        prefill_bills[1],
        prefill_bills[0]
    );
    JsonObject::new()
        .field("bench", "serving_tiered")
        .field("quick", quick)
        .field("host_parallelism", host_parallelism)
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
                        .field("baseline_cycles", baseline.total_cycles)
                        .field(
                            "swap_0_25_cycles",
                            cheap_swap_cycles.expect("the 0.25 point always runs"),
                        )
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
                        .field("ship_off_prefill_cycles", prefill_bills[0])
                        .field("ship_on_prefill_cycles", prefill_bills[1])
                        .field("shipping_cuts_prefill", true),
                ),
        )
        .into()
}

/// One record of the `--e2e-sweep`: `requests` served on `engine` with
/// the token-backed mirror generating real synth-model tokens out of the
/// shared paged KV store. Token equivalence against a per-request
/// unsharded `generate` — and the expected sharing/preemption posture —
/// are asserted, not just reported.
fn e2e_record(
    label: &'static str,
    requests: Vec<ServingRequest>,
    mut engine: ServingEngine,
    expect_sharing: bool,
    expect_preemptions: bool,
) -> JsonValue {
    // The CLI/bench workloads outgrow the toy spec's 256-token window,
    // so the served model is toy-shaped with a longer context.
    let mut spec = ModelSpec::toy();
    spec.max_context = 1024;
    let clock_hz = engine.config().clock_hz;
    let start = Instant::now();
    let run =
        topick_accel::serve::run_token_backed(&mut engine, requests.clone(), spec, 11, 100_000)
            .expect("e2e run completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for req in &requests {
        let got = run.batch.generated(req.id).expect("request was served");
        assert_eq!(
            got,
            run.batch.reference_generate(req).as_slice(),
            "{label}: request {} diverged from its unsharded generate",
            req.id
        );
    }
    if expect_sharing {
        assert!(
            run.batch.peak_shared_pages() > 0,
            "{label}: the prefix cache produced no physical page sharing"
        );
    } else {
        assert_eq!(
            run.batch.peak_shared_pages(),
            0,
            "{label}: pages were shared without a prefix cache"
        );
    }
    if expect_preemptions {
        assert!(
            run.report.preemptions > 0,
            "{label}: the eviction regime never preempted"
        );
    }
    run.batch.validate();
    let report = &run.report;
    JsonObject::new()
        .field("config", label)
        .field("requests", requests.len())
        .field("tokens", report.tokens_generated)
        .field("steps", report.steps.len())
        .field("preemptions", report.preemptions)
        .field("wall_ms", JsonValue::Prec(wall_ms, 3))
        .field(
            "tokens_per_s",
            JsonValue::Prec(report.tokens_per_second(clock_hz), 1),
        )
        .field("hit_rate", JsonValue::Prec(report.prefix_hit_rate(), 3))
        .field("peak_shared_pages", run.batch.peak_shared_pages())
        .field("drained_shared_pages", run.batch.shared_pages())
        .field("charged_cycles", run.charged_cycles())
        .field("measured_build_cycles", run.batch.measured_build_cycles())
        .field("measured_decode_cycles", run.batch.measured_decode_cycles())
        .field("cycle_ratio", JsonValue::Prec(run.cycle_ratio(), 4))
        .field("byte_identical", true)
        .into()
}

/// The `--e2e-sweep` document (checked in as `BENCH_serving_e2e.json`):
/// real-token serving across the regimes that stress the paged store
/// differently — prefix sharing (cache on/off), chunked prefill, and
/// preemption with paged retention. See the module docs for what each
/// record asserts.
fn e2e_sweep(quick: bool) -> JsonValue {
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (tenants, per_tenant) = if quick { (3, 4) } else { (4, 6) };
    let mice: u64 = if quick { 4 } else { 8 };
    let accel = || AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let chat = chat(tenants, per_tenant);
    let mut records = vec![
        e2e_record(
            "shared-prefix-cache-on",
            chat.clone(),
            ServingEngine::new(chat_config(true)),
            true,
            false,
        ),
        e2e_record(
            "shared-prefix-cache-off",
            chat.clone(),
            ServingEngine::new(chat_config(false)),
            false,
            false,
        ),
        e2e_record(
            "shared-prefix-chunked-prefill",
            chat,
            ServingEngine::builder(accel())
                .config(chat_config(true))
                .prefill_chunk_pages(2)
                .build(),
            true,
            false,
        ),
    ];
    records.push(e2e_record(
        "skewed-preemptive-retention",
        skewed(4, mice),
        ServingEngine::builder(accel())
            .heads(4)
            .weight_bytes(10_000_000)
            .max_batch(4)
            .max_batch_tokens(2200)
            .seed(7)
            .policy(PolicyKind::PriorityAging)
            .enable_preemption()
            .retention(RetentionPolicy::Fraction(0.75))
            .build(),
        false,
        true,
    ));
    JsonObject::new()
        .field("bench", "serving_e2e")
        .field("quick", quick)
        .field(
            "model",
            "toy (d_model 64, 2 layers, 4 heads, max_context 1024)",
        )
        .field("model_seed", 11u64)
        .field("host_parallelism", host_parallelism)
        .field(
            "token_equivalence",
            "asserted per record: served tokens byte-identical to a per-request unsharded generate",
        )
        .field("records", records)
        .into()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), String::new());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    let quick = flags.contains_key("quick");
    let threads_flag: usize = flags
        .get("threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    if flags.contains_key("e2e-sweep") {
        let doc = e2e_sweep(quick);
        println!("{}", doc.render());
        return;
    }
    if flags.contains_key("tiered-sweep") {
        let doc = tiered_sweep(quick);
        println!("{}", doc.render());
        return;
    }
    if flags.contains_key("slo-sweep") {
        let seed: u64 = flags
            .get("scenario-seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(11);
        let doc = slo_sweep(seed, quick);
        println!("{}", doc.render());
        return;
    }
    if flags.contains_key("scenario-sweep") {
        let seed: u64 = flags
            .get("scenario-seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(11);
        let doc = scenario_sweep(seed, quick);
        println!("{}", doc.render());
        return;
    }
    if flags.contains_key("threads-sweep") {
        let runs = if quick { 1 } else { 3 };
        let (elephants, mice) = if quick { (4, 12) } else { (8, 40) };
        let doc = threads_sweep(elephants, mice, runs);
        println!("{}", doc.render());
        return;
    }
    let requests: u64 = flags
        .get("requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 8 } else { 16 });

    let batches: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let thresholds: &[f64] = if quick { &[1e-3] } else { &[1e-2, 1e-3, 1e-4] };
    let mice: u64 = if quick { 6 } else { 12 };

    let mut points = Vec::new();
    for &max_batch in batches {
        points.push(run_point(
            AccelMode::Baseline,
            "baseline",
            0.5,
            max_batch,
            requests,
        ));
        for &thr in thresholds {
            points.push(run_point(
                AccelMode::OutOfOrder,
                "topick",
                thr,
                max_batch,
                requests,
            ));
        }
    }

    // One record per policy without preemption, plus — for each policy
    // that actually preempts (FIFO never does) — a full-re-prefill run
    // and a paged-retention run, so the bench pins the re-prefill saving
    // retention buys per policy.
    let mut policies = Vec::new();
    for kind in PolicyKind::all() {
        policies.push(policy_record(kind, false, RetentionPolicy::None, mice));
    }
    for kind in [
        PolicyKind::PriorityAging,
        PolicyKind::ShortestJobFirst,
        PolicyKind::FairRoundRobin,
    ] {
        policies.push(policy_record(kind, true, RetentionPolicy::None, mice));
        policies.push(policy_record(
            kind,
            true,
            RetentionPolicy::Fraction(0.75),
            mice,
        ));
    }

    // Prefix caching off vs on at equal generated tokens: the off record
    // is the prefill bill sharing exists to shrink, the on record shows
    // what it recovered (hit rate included).
    let (tenants, per_tenant) = if quick { (3, 4) } else { (4, 6) };
    let prefix = vec![
        prefix_record(false, tenants, per_tenant),
        prefix_record(true, tenants, per_tenant),
    ];
    let size = WorkloadSize {
        mice,
        tenants,
        per_tenant,
    };

    // Shard sweep: 1 shard is the golden-pinned identity baseline; each
    // larger count contrasts load-blind routing against least-loaded +
    // stealing (skewed workload) and against prefix-affinity
    // (shared-prefix workload, where per-shard caches make routing the
    // difference between scattering and recovering the hit rate).
    // `--shards N` narrows the sweep to [1, N] (the CI invocation).
    let shard_counts: Vec<usize> = match flags.get("shards").and_then(|v| v.parse().ok()) {
        Some(n) if n > 1 => vec![1, n],
        Some(_) => vec![1],
        None if quick => vec![1, 2],
        None => vec![1, 2, 4],
    };
    let mut shards = Vec::new();
    for &n in &shard_counts {
        shards.push(shard_record(
            "skewed",
            n,
            RoutingKind::RoundRobin,
            false,
            1,
            size,
        ));
        if n > 1 {
            shards.push(shard_record(
                "skewed",
                n,
                RoutingKind::LeastLoaded,
                true,
                1,
                size,
            ));
            if threads_flag > 1 {
                // Threaded twin of the least-loaded + stealing point:
                // same schedule by construction, wall_ms is the column
                // that moves.
                shards.push(shard_record(
                    "skewed",
                    n,
                    RoutingKind::LeastLoaded,
                    true,
                    threads_flag,
                    size,
                ));
            }
        }
        shards.push(shard_record(
            "shared-prefix",
            n,
            RoutingKind::RoundRobin,
            false,
            1,
            size,
        ));
        if n > 1 {
            shards.push(shard_record(
                "shared-prefix",
                n,
                RoutingKind::PrefixAffinity,
                false,
                1,
                size,
            ));
            if threads_flag > 1 {
                shards.push(shard_record(
                    "shared-prefix",
                    n,
                    RoutingKind::PrefixAffinity,
                    false,
                    threads_flag,
                    size,
                ));
            }
        }
    }

    let doc = JsonObject::new()
        .field("bench", "serving_throughput")
        .field("requests", requests)
        .field("quick", quick)
        .field("points", points)
        .field("policies", policies)
        .field("prefix", prefix)
        .field("shards", shards);
    println!("{}", doc.render());
}
