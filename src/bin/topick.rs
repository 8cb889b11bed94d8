//! `topick` — command-line driver for the Token-Picker reproduction.
//!
//! ```text
//! topick prune   [--context N] [--dim D] [--threshold T] [--seed S]
//! topick sweep   [--context N] [--dim D] [--seed S]
//! topick accel   [--context N] [--threshold T] [--seed S]
//! topick traffic [--model NAME] [--context N]
//! topick serve   [flags — `topick help` prints the full list]
//! topick trace   diff A B
//! topick help
//! ```

use std::collections::BTreeMap;
use std::fmt;

use token_picker::accel::{
    AccelConfig, AccelMode, ClusterReport, PolicyKind, ServingConfig, ServingRequest,
    ToPickAccelerator, Trace, TraceMeta,
};
use token_picker::core::{
    PrecisionConfig, ProgressivePruner, PrunerConfig, QMatrix, QVector, ScanOrder,
};
use token_picker::model::{InstanceSampler, ModelSpec, TrafficBreakdown};

/// `--name value` pairs (a bare `--name` maps to the empty string), in
/// name order so error messages do not depend on hashing.
type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = args.next_if(|next| !next.starts_with("--"));
            flags.insert(name.to_string(), value.cloned().unwrap_or_default());
        }
    }
    flags
}

/// Command-line input the driver refuses instead of guessing around.
#[derive(Debug)]
enum FlagError {
    /// A flag the command does not declare.
    Unknown(String),
    /// A flag whose value does not parse as the type it sets.
    BadValue { flag: String, reason: String },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unknown(flag) => write!(f, "unknown flag --{flag} (see `topick help`)"),
            Self::BadValue { flag, reason } => write!(f, "--{flag}: {reason}"),
        }
    }
}

impl std::error::Error for FlagError {}

/// The parsed value of `--name`, if the flag was given.
fn opt_flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, FlagError>
where
    T::Err: fmt::Display,
{
    flags
        .get(name)
        .map(|value| {
            value.parse().map_err(|e: T::Err| FlagError::BadValue {
                flag: name.to_string(),
                reason: format!("cannot parse '{value}': {e}"),
            })
        })
        .transpose()
}

/// The parsed value of `--name`, or `default` when the flag is absent.
fn flag<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, FlagError>
where
    T::Err: fmt::Display,
{
    Ok(opt_flag(flags, name)?.unwrap_or(default))
}

fn workload(ctx: usize, dim: usize, seed: u64) -> (QVector, QMatrix) {
    let pc = PrecisionConfig::paper();
    let inst = InstanceSampler::realistic(ctx, dim).sample_keys(seed);
    (
        QVector::quantize(&inst.query, pc),
        QMatrix::quantize_flat(inst.keys().data(), dim, pc).expect("non-empty"),
    )
}

fn cmd_prune(flags: &Flags) -> Result<(), Box<dyn std::error::Error>> {
    let ctx = flag(flags, "context", 512usize)?;
    let dim = flag(flags, "dim", 64usize)?;
    let thr = flag(flags, "threshold", 1e-3f64)?;
    let seed = flag(flags, "seed", 0u64)?;
    let (q, keys) = workload(ctx, dim, seed);
    let outcome = ProgressivePruner::new(PrunerConfig::new(thr)?).run(&q, &keys)?;
    let pc = PrecisionConfig::paper();
    println!("context {ctx}, dim {dim}, thr {thr:.1e}, seed {seed}");
    println!(
        "kept        : {}/{}",
        outcome.stats.kept, outcome.stats.tokens
    );
    println!("chunk fetches: {:?}", outcome.stats.chunk_fetches);
    println!("V reduction : {:.2}x", outcome.stats.v_reduction());
    println!("K reduction : {:.2}x", outcome.stats.k_reduction(dim, &pc));
    println!(
        "total       : {:.2}x",
        outcome.stats.total_reduction(dim, &pc)
    );
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), Box<dyn std::error::Error>> {
    let ctx = flag(flags, "context", 512usize)?;
    let dim = flag(flags, "dim", 64usize)?;
    let seed = flag(flags, "seed", 0u64)?;
    let (q, keys) = workload(ctx, dim, seed);
    let pc = PrecisionConfig::paper();
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "threshold", "kept", "V red", "K red", "total"
    );
    for exp in 2..=6 {
        let thr = 10f64.powi(-exp);
        let cfg = PrunerConfig::new(thr)?.with_order(ScanOrder::FirstAndReverse);
        let o = ProgressivePruner::new(cfg).run(&q, &keys)?;
        println!(
            "{:<12.0e} {:>10} {:>9.1}x {:>9.2}x {:>9.2}x",
            thr,
            o.stats.kept,
            o.stats.v_reduction(),
            o.stats.k_reduction(dim, &pc),
            o.stats.total_reduction(dim, &pc)
        );
    }
    Ok(())
}

fn cmd_accel(flags: &Flags) -> Result<(), Box<dyn std::error::Error>> {
    let ctx = flag(flags, "context", 1024usize)?;
    let thr = flag(flags, "threshold", 1e-3f64)?;
    let seed = flag(flags, "seed", 0u64)?;
    let (q, keys) = workload(ctx, 64, seed);
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>12}",
        "mode", "cycles", "kept", "DRAM KB", "energy uJ"
    );
    for (name, mode, t) in [
        ("Baseline", AccelMode::Baseline, 0.5),
        ("EstimateOnly", AccelMode::EstimateOnly, thr),
        ("OutOfOrder", AccelMode::OutOfOrder, thr),
        ("Blocking", AccelMode::Blocking, thr),
    ] {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, t)?);
        let r = accel.attention_cost(&q, &keys)?;
        println!(
            "{:<14} {:>9} {:>9} {:>11.1} {:>12.2}",
            name,
            r.cycles,
            r.kept.len(),
            r.dram_stats.bytes(&accel.config().dram) as f64 / 1e3,
            r.energy.total_pj() / 1e6
        );
    }
    Ok(())
}

fn cmd_traffic(flags: &Flags) -> Result<(), Box<dyn std::error::Error>> {
    let name = flags
        .get("model")
        .map_or("opt-6.7b", String::as_str)
        .to_lowercase();
    let spec = match name.as_str() {
        "gpt2-medium" => ModelSpec::gpt2_medium(),
        "gpt2-large" => ModelSpec::gpt2_large(),
        "gpt2-xl" => ModelSpec::gpt2_xl(),
        "opt-1.3b" => ModelSpec::opt_1_3b(),
        "opt-2.7b" => ModelSpec::opt_2_7b(),
        "opt-6.7b" => ModelSpec::opt_6_7b(),
        "opt-13b" => ModelSpec::opt_13b(),
        "llama2-7b" => ModelSpec::llama2_7b(),
        "llama2-13b" => ModelSpec::llama2_13b(),
        other => return Err(format!("unknown model '{other}'").into()),
    };
    let ctx = flag(flags, "context", spec.max_context.min(2048))?;
    println!("{} @ context {}", spec.name, ctx);
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "batch", "KV share", "total GB", "KV GB"
    );
    for batch in [1usize, 4, 16, 64] {
        let t = TrafficBreakdown::compute(&spec, batch, ctx);
        println!(
            "{:>6} {:>9.1}% {:>12.2} {:>10.2}",
            batch,
            100.0 * t.kv_fraction(),
            t.total() as f64 / 1e9,
            t.kv_bytes as f64 / 1e9
        );
    }
    Ok(())
}

/// The `serve` command's synthetic workload: heterogeneous shapes,
/// priorities and clients so every policy has something to differentiate
/// on; arrivals come in waves so later high-priority work can contend
/// with (and under `--preemption`, evict) earlier long-running requests.
/// Requests of one client share a page-aligned system prompt, so
/// `--prefix-cache` (and affinity routing) have real prefixes to hit.
fn serve_workload(requests: u64) -> Vec<ServingRequest> {
    (0..requests)
        .map(|id| {
            ServingRequest::new(id, 64 + (id as usize % 7) * 32, 4 + (id as usize % 5) * 2)
                .with_priority((id % 4) as u8)
                .with_client(id % 3)
                .with_shared_prefix(id % 3, 64)
                .arriving_at((id / 4) * 3)
        })
        .collect()
}

/// One recorded run of `requests` under `policy` on the cluster the meta
/// describes (one shard = the bare engine), driven through the trace
/// subsystem, so `--record` is just "save what already happened".
fn serve_run(
    meta: &TraceMeta,
    policy: PolicyKind,
    requests: &[ServingRequest],
) -> Result<(Trace, ClusterReport), Box<dyn std::error::Error>> {
    let mut meta = meta.clone();
    meta.policy = policy.name().to_string();
    let (trace, report, lending) =
        token_picker::accel::serve::trace::run_recorded_with_lending(&meta, requests)?;
    // A fact about this host and this moment, not about the run: on
    // stderr, so stdout stays a function of the flags.
    eprintln!(
        "second core ({}): {} steps shared their attention instances with the helper thread \
         ({} instances lent); {} more could have and ran alone",
        meta.policy, lending.pooled_steps, lending.lent_instances, lending.fallbacks
    );
    Ok((trace, report))
}

/// Saves the trace when `--record` asked for it.
fn save_trace(trace: &Trace, record: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = record {
        trace.save(path)?;
        println!(
            "recorded       : {} requests, {} events -> {path} (digest {:#018x})",
            trace.requests.len(),
            trace.events.len(),
            trace.digest
        );
    }
    Ok(())
}

/// Replays a recorded trace: rebuilds the run from the trace's meta,
/// re-enqueues the recorded requests, and verifies the replayed schedule
/// digest against the recording (a mismatch is an error).
fn cmd_serve_replay(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let recorded = Trace::load(path)?;
    let meta = &recorded.meta;
    let (trace, report) = recorded.replay_verified()?;
    println!(
        "replayed {path}: scenario {}, policy {}, {} shard{}, {} requests, {} events",
        meta.scenario.as_deref().unwrap_or("ad-hoc"),
        meta.policy,
        meta.shards,
        if meta.shards == 1 { "" } else { "s" },
        trace.requests.len(),
        trace.events.len()
    );
    println!(
        "digest         : {:#018x} (matches the recording)",
        trace.digest
    );
    print!(
        "throughput     : {:.1} tokens/s, {} tokens in ",
        report.tokens_per_second(meta.serving_config().clock_hz),
        report.tokens_generated()
    );
    if meta.shards == 1 {
        println!("{} steps", report.cluster_steps);
    } else {
        println!(
            "{} cluster steps ({} steals)",
            report.cluster_steps, report.steals
        );
    }
    Ok(())
}

/// `serve --real-tokens`: the engine schedules (and charges cycles)
/// exactly as in the cost-model-only run, while a token-backed mirror
/// generates real synth-model tokens out of one shared copy-on-write
/// paged KV store. Prints the token-equivalence, physical-sharing and
/// charged-vs-measured cross-checks the mirror affords.
fn cmd_serve_real_tokens(
    cfg: ServingConfig,
    policy: PolicyKind,
    requests: Vec<ServingRequest>,
) -> Result<(), Box<dyn std::error::Error>> {
    use token_picker::accel::{run_token_backed, ServingEngine};

    let (mode, seed, page_size) = (cfg.accel.mode, cfg.seed, cfg.admission.page_size);
    let mut engine = ServingEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(policy)
        .build();
    // The CLI workload's prompts outgrow the toy spec's 256-token
    // window, so serve a toy-shaped model with a longer context.
    let mut spec = ModelSpec::toy();
    spec.max_context = 1024;
    let run = run_token_backed(&mut engine, requests.clone(), spec, seed, 100_000)?;
    let report = &run.report;
    println!(
        "mode {mode:?}, policy {}: {} requests, {} real tokens in {} steps",
        report.policy,
        report.requests.len(),
        report.tokens_generated,
        report.steps.len()
    );
    let mut matched = 0usize;
    for req in &requests {
        let got = run
            .batch
            .generated(req.id)
            .ok_or("a request was never served")?;
        if got == run.batch.reference_generate(req).as_slice() {
            matched += 1;
        }
    }
    println!(
        "token equivalence: {matched}/{} requests byte-identical to unsharded generate",
        requests.len()
    );
    if matched != requests.len() {
        return Err("served tokens diverged from per-request generate".into());
    }
    println!(
        "shared KV pages  : {} at peak, {} after drain (page size {page_size})",
        run.batch.peak_shared_pages(),
        run.batch.shared_pages(),
    );
    println!(
        "prefix cache     : {:.0}% admission hit rate ({} hit tokens)",
        100.0 * report.prefix_hit_rate(),
        report.total_prefix_hit_tokens()
    );
    println!(
        "cycle cross-check: charged {} vs measured {} kernel cycles (ratio {:.4})",
        run.charged_cycles(),
        run.batch.measured_cycles(),
        run.cycle_ratio()
    );
    println!("preemptions      : {}", report.preemptions);
    run.batch.validate();
    Ok(())
}

/// The `serve` flags, as `topick help` prints them — and the one list of
/// names `serve` accepts: anything not spelled `--name` here is refused.
const SERVE_USAGE: [&str; 10] = [
    "[--requests N] [--batch B] [--threshold T] [--seed S] [--baseline]",
    "[--policy fifo|priority|sjf|fair|slo|all] [--preemption]",
    "[--page-size P] [--retention none|<pages>|<fraction>]",
    "[--prefix-cache] [--prefill-factor F] [--prefill-chunk PAGES]",
    "[--slo-ttft STEPS] [--slo-itl STEPS] [--slo-reject]",
    "[--host-pages N] [--swap-cost F] [--ship-cost F]",
    "[--shards N] [--routing rr|least|affinity] [--stealing]",
    "[--scenario NAME [--scenario-seed S]] [--list-scenarios]",
    "[--record PATH | --replay PATH]",
    "[--real-tokens]  serve real synth-model tokens from the paged KV store",
];

/// Whether [`SERVE_USAGE`] declares `--name`.
fn is_serve_flag(name: &str) -> bool {
    SERVE_USAGE
        .iter()
        .flat_map(|line| line.split("--").skip(1))
        .any(|rest| rest.split([' ', ']']).next() == Some(name))
}

fn cmd_serve(flags: &Flags) -> Result<(), Box<dyn std::error::Error>> {
    use token_picker::accel::{PreemptionConfig, RetentionPolicy, RoutingKind, ScenarioKind};

    if let Some(unknown) = flags.keys().find(|name| !is_serve_flag(name)) {
        return Err(FlagError::Unknown(unknown.clone()).into());
    }

    if flags.contains_key("list-scenarios") {
        println!("{:<22} description", "scenario");
        for kind in ScenarioKind::all() {
            println!("{:<22} {}", kind.name(), kind.build().description());
        }
        return Ok(());
    }

    if let Some(path) = flags.get("replay") {
        if flags.contains_key("scenario") || flags.contains_key("record") {
            return Err("--replay is mutually exclusive with --scenario and --record".into());
        }
        if let Some(shaped) = flags.keys().find(|name| *name != "replay") {
            return Err(format!(
                "--{shaped} cannot be combined with --replay (the trace fixes the whole run)"
            )
            .into());
        }
        return cmd_serve_replay(path);
    }

    let scenario: Option<ScenarioKind> = opt_flag(flags, "scenario")?;
    if scenario.is_some() {
        // A scenario fixes the engine shape it was designed against;
        // scheduling flags (--policy/--preemption/--retention/--shards/
        // --routing/--stealing) still compose with it.
        for sized in [
            "batch",
            "page-size",
            "prefix-cache",
            "prefill-factor",
            "seed",
            "requests",
        ] {
            if flags.contains_key(sized) {
                return Err(format!(
                    "--{sized} cannot be combined with --scenario (the scenario fixes the engine shape)"
                )
                .into());
            }
        }
    } else if flags.contains_key("scenario-seed") {
        return Err("--scenario-seed only takes effect with --scenario".into());
    }
    let scenario_seed = flag(flags, "scenario-seed", 7u64)?;

    // The engine: every flag lands directly in the `ServingConfig` field
    // it sets, on top of the scenario's sizing when one is selected.
    let accel = if flags.contains_key("baseline") {
        AccelConfig::paper(AccelMode::Baseline, 0.5)?
    } else {
        AccelConfig::paper(AccelMode::OutOfOrder, flag(flags, "threshold", 1e-3f64)?)?
    };
    let mut cfg = match scenario {
        Some(kind) => kind.build().serving_config(accel),
        None => {
            let mut cfg = ServingConfig::new(accel);
            cfg.admission.max_batch = flag(flags, "batch", 8usize)?;
            cfg.admission.page_size = flag(flags, "page-size", 16usize)?;
            cfg.admission.prefix_cache = flags.contains_key("prefix-cache");
            // Prompt prefill is priced by default once the cache is on
            // (the saving is otherwise invisible), and free otherwise —
            // matching the engine's default.
            let priced = if cfg.admission.prefix_cache { 1.0 } else { 0.0 };
            cfg.prefill_factor = flag(flags, "prefill-factor", priced)?;
            cfg.seed = flag(flags, "seed", 0u64)?;
            cfg
        }
    };
    let retention = flag(flags, "retention", RetentionPolicy::None)?;
    if flags.contains_key("preemption") {
        cfg.preemption = PreemptionConfig::enabled().with_retention(retention);
    } else if retention != RetentionPolicy::None {
        return Err("--retention only takes effect with --preemption".into());
    }
    cfg.prefill_chunk_pages = flag(flags, "prefill-chunk", 0usize)?;
    // The tiered-KV knobs override whatever the scenario shipped with —
    // all of them default to "off"/bit-identical when the flags are absent.
    cfg.host_pages = flag(flags, "host-pages", 0usize)?;
    cfg.swap_cost_factor = flag(flags, "swap-cost", ServingConfig::DEFAULT_SWAP_COST_FACTOR)?;
    cfg.ship_cost_factor = flag(flags, "ship-cost", 0.0f64)?;
    cfg.reject_expired_ttft = flags.contains_key("slo-reject");

    let routing = flag(flags, "routing", RoutingKind::RoundRobin)?;
    let shards = flag(flags, "shards", 1usize)?.max(1);
    let stealing = flags.contains_key("stealing");
    if shards <= 1 && (flags.contains_key("routing") || stealing) {
        return Err("--routing and --stealing only take effect with --shards > 1".into());
    }
    if cfg.host_pages == 0 && flags.contains_key("swap-cost") {
        return Err("--swap-cost only takes effect with --host-pages > 0".into());
    }
    if shards <= 1 && flags.contains_key("ship-cost") {
        return Err("--ship-cost only takes effect with --shards > 1".into());
    }
    let factor_range = 0.0..=10.0;
    if !factor_range.contains(&cfg.swap_cost_factor)
        || !factor_range.contains(&cfg.ship_cost_factor)
    {
        return Err("--swap-cost/--ship-cost must be within [0, 10]".into());
    }
    if !factor_range.contains(&cfg.prefill_factor) {
        return Err("--prefill-factor must be within [0, 10]".into());
    }

    // The open-loop workload: the selected scenario's seed-derived stream,
    // or the classic hardcoded mix. `--slo-ttft`/`--slo-itl` stamp a
    // uniform deadline onto every request, overriding whatever the
    // scenario attached.
    let mut requests = match scenario {
        Some(kind) => kind.build().generate(scenario_seed),
        None => serve_workload(flag(flags, "requests", 16u64)?),
    };
    if let Some(d) = opt_flag(flags, "slo-ttft")? {
        for r in &mut requests {
            *r = r.with_ttft_deadline(d);
        }
    }
    if let Some(d) = opt_flag(flags, "slo-itl")? {
        for r in &mut requests {
            *r = r.with_itl_deadline(d);
        }
    }

    let record = flags.get("record").map(String::as_str);
    let policy_flag = flags.get("policy").map_or("fifo", String::as_str);
    if record.is_some() && policy_flag == "all" {
        return Err("--record requires a single --policy (not 'all')".into());
    }

    if flags.contains_key("real-tokens") {
        if shards > 1 {
            return Err("--real-tokens drives a single engine (not with --shards > 1)".into());
        }
        if scenario.is_some() {
            return Err("--real-tokens uses the built-in workload (not with --scenario)".into());
        }
        if record.is_some() {
            return Err(
                "--real-tokens cannot be combined with --record (the mirror drives the engine directly)"
                    .into(),
            );
        }
        if policy_flag == "all" {
            return Err("--real-tokens requires a single --policy (not 'all')".into());
        }
        return cmd_serve_real_tokens(cfg, policy_flag.parse()?, requests);
    }

    // The run description both the live run and any `--record`/`--replay`
    // of it execute through; `serve_run` stamps the policy on per run.
    let mut meta = TraceMeta::new(&cfg, PolicyKind::Fifo.name()).for_cluster(
        shards,
        routing.name(),
        stealing,
        1, // trace format v1's `threads` number; it selects nothing
    );
    if let Some(kind) = scenario {
        meta = meta.for_scenario(kind.name(), scenario_seed);
    }
    if shards > 1 {
        return cmd_serve_cluster(&meta, &requests, policy_flag, record);
    }
    let clock_hz = cfg.clock_hz;

    if policy_flag == "all" {
        println!(
            "{:<20} {:>8} {:>12} {:>11} {:>10} {:>9} {:>11} {:>9} {:>8} {:>11}",
            "policy",
            "steps",
            "tokens/s",
            "mean TTFT",
            "mean wait",
            "preempts",
            "reprefill",
            "KV hits",
            "attain",
            "goodput"
        );
        for kind in PolicyKind::all() {
            let (_, cluster) = serve_run(&meta, kind, &requests)?;
            let report = &cluster.shards[0];
            println!(
                "{:<20} {:>8} {:>12.1} {:>11.2} {:>10.2} {:>9} {:>11} {:>9} {:>7.0}% {:>11.1}",
                report.policy,
                report.steps.len(),
                report.tokens_per_second(clock_hz),
                report.mean_ttft_steps(),
                report.mean_queue_wait_steps(),
                report.preemptions,
                report.total_reprefill_cycles(),
                report.total_prefix_hit_tokens(),
                100.0 * report.deadline_attainment(),
                report.goodput_tokens_per_second(clock_hz)
            );
        }
        return Ok(());
    }

    let (trace, cluster) = serve_run(&meta, policy_flag.parse()?, &requests)?;
    let report = &cluster.shards[0];
    if let Some(kind) = scenario {
        println!("scenario {} (seed {scenario_seed})", kind.name());
    }
    println!(
        "mode {:?}, policy {}: {} requests, {} tokens in {} steps",
        cfg.accel.mode,
        report.policy,
        report.requests.len(),
        report.tokens_generated,
        report.steps.len()
    );
    println!("total cycles   : {}", report.total_cycles);
    println!("mean step      : {:.0} cycles", report.mean_step_cycles());
    println!(
        "throughput     : {:.1} tokens/s",
        report.tokens_per_second(clock_hz)
    );
    println!("mean TTFT      : {:.2} steps", report.mean_ttft_steps());
    println!(
        "mean queue wait: {:.2} steps",
        report.mean_queue_wait_steps()
    );
    println!("preemptions    : {}", report.preemptions);
    println!(
        "reprefill      : {} cycles ({} tokens; {} KV tokens retained)",
        report.total_reprefill_cycles(),
        report.total_reprefilled_tokens(),
        report.total_retained_tokens()
    );
    if cfg.host_pages > 0 {
        println!(
            "host swap      : {} cycles ({} tokens copied back, {} host pages)",
            report.total_swap_cycles(),
            report.total_swapped_tokens(),
            cfg.host_pages
        );
    }
    if cfg.reject_expired_ttft {
        println!(
            "rejections     : {} expired-TTFT requests",
            report.rejections
        );
    }
    println!(
        "prefill        : {} cycles ({} prompt tokens served from the prefix cache, {:.0}% hit rate)",
        report.total_prefill_cycles(),
        report.total_prefix_hit_tokens(),
        100.0 * report.prefix_hit_rate()
    );
    if report.requests.iter().any(|r| r.has_deadline()) {
        println!(
            "SLO            : {:.0}% deadline attainment, {:.1} good tokens/s ({} good tokens)",
            100.0 * report.deadline_attainment(),
            report.goodput_tokens_per_second(clock_hz),
            report.total_good_tokens()
        );
        println!(
            "TTFT p99       : {} steps (max prefill stall {} cycles/step)",
            report.ttft_p99_steps(),
            report.max_prefill_stall_cycles()
        );
    }
    println!("V reduction    : {:.2}x", report.prune.v_reduction());
    save_trace(&trace, record)?;
    Ok(())
}

/// The multi-shard `serve` output: one combined row per policy under
/// `--policy all`, or a combined summary plus a per-shard breakdown for a
/// single policy.
fn cmd_serve_cluster(
    meta: &TraceMeta,
    requests: &[ServingRequest],
    policy_flag: &str,
    record: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = meta.serving_config();
    let clock_hz = cfg.clock_hz;
    if policy_flag == "all" {
        println!(
            "{:<20} {:>8} {:>12} {:>8} {:>10} {:>9} {:>9}",
            "policy", "steps", "tokens/s", "steals", "imbalance", "preempts", "KV hits"
        );
        for kind in PolicyKind::all() {
            let (_, report) = serve_run(meta, kind, requests)?;
            println!(
                "{:<20} {:>8} {:>12.1} {:>8} {:>10.2} {:>9} {:>9}",
                report.policy,
                report.cluster_steps,
                report.tokens_per_second(clock_hz),
                report.steals,
                report.load_imbalance(),
                report.preemptions(),
                report.total_prefix_hit_tokens()
            );
        }
        return Ok(());
    }

    let (trace, report) = serve_run(meta, policy_flag.parse()?, requests)?;
    if let Some(scenario) = &meta.scenario {
        println!("scenario {scenario} (seed {})", meta.scenario_seed);
    }
    println!(
        "mode {:?}, policy {}, routing {}{}: {} shards, {} requests, {} tokens in {} steps",
        cfg.accel.mode,
        report.policy,
        report.routing,
        if report.stealing { " + stealing" } else { "" },
        report.shards.len(),
        report.requests().count(),
        report.tokens_generated(),
        report.cluster_steps
    );
    println!("makespan       : {} cycles (modeled)", report.total_cycles);
    println!(
        "wall clock     : {:.1} ms (measured)",
        report.wall_seconds * 1e3
    );
    println!(
        "throughput     : {:.1} tokens/s",
        report.tokens_per_second(clock_hz)
    );
    println!("steals         : {}", report.steals);
    if cfg.ship_cost_factor > 0.0 {
        println!(
            "page shipping  : {} running migrations, {} transfer cycles",
            report.ships,
            report.total_ship_cycles()
        );
    }
    if cfg.host_pages > 0 {
        println!(
            "host swap      : {} copy-back cycles ({} host pages per shard)",
            report.total_swap_cycles(),
            cfg.host_pages
        );
    }
    if cfg.reject_expired_ttft {
        println!(
            "rejections     : {} expired-TTFT requests",
            report.rejections()
        );
    }
    println!("load imbalance : {:.2}", report.load_imbalance());
    println!("preemptions    : {}", report.preemptions());
    println!(
        "prefix cache   : {} prompt tokens served, {:.0}% hit rate",
        report.total_prefix_hit_tokens(),
        100.0 * report.prefix_hit_rate()
    );
    if report.requests().any(|(_, r)| r.has_deadline()) {
        println!(
            "SLO            : {:.0}% deadline attainment, {:.1} good tokens/s ({} good tokens)",
            100.0 * report.deadline_attainment(),
            report.goodput_tokens_per_second(clock_hz),
            report.total_good_tokens()
        );
        println!(
            "TTFT p99       : {} steps (pooled across shards)",
            report.ttft_p99_steps()
        );
    }
    println!(
        "{:>6} {:>9} {:>8} {:>12} {:>11} {:>9}",
        "shard", "requests", "tokens", "busy cycles", "mean TTFT", "KV hits"
    );
    for (i, shard) in report.shards.iter().enumerate() {
        println!(
            "{:>6} {:>9} {:>8} {:>12} {:>11.2} {:>9}",
            i,
            shard.requests.len(),
            shard.tokens_generated,
            shard.total_cycles,
            shard.mean_ttft_steps(),
            shard.total_prefix_hit_tokens()
        );
    }
    save_trace(&trace, record)?;
    Ok(())
}

/// `topick trace diff A B`: loads two trace files and localizes the first
/// diverging event (exit status 1 when the schedules differ, like `diff`).
fn cmd_trace(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match args.first().map(String::as_str) {
        Some("diff") => {
            let (Some(path_a), Some(path_b)) = (args.get(1), args.get(2)) else {
                return Err("usage: topick trace diff <A> <B>".into());
            };
            let a = Trace::load(path_a)?;
            let b = Trace::load(path_b)?;
            println!(
                "A: {path_a} ({} requests, {} events, digest {:#018x})",
                a.requests.len(),
                a.events.len(),
                a.digest
            );
            println!(
                "B: {path_b} ({} requests, {} events, digest {:#018x})",
                b.requests.len(),
                b.events.len(),
                b.digest
            );
            match a.diff(&b) {
                None => {
                    println!("schedules identical");
                    Ok(())
                }
                Some(report) => {
                    print!("{report}");
                    Err("schedules diverge".into())
                }
            }
        }
        _ => Err("usage: topick trace diff <A> <B>".into()),
    }
}

fn usage() {
    println!("topick — Token-Picker (DAC 2024) reproduction driver");
    println!();
    println!("commands:");
    println!("  prune    run the progressive pruner on one synthetic instance");
    println!("           [--context N] [--dim D] [--threshold T] [--seed S]");
    println!("  sweep    threshold sweep on one instance");
    println!("           [--context N] [--dim D] [--seed S]");
    println!("  accel    cycle-level accelerator comparison");
    println!("           [--context N] [--threshold T] [--seed S]");
    println!("  traffic  Fig. 2-style memory traffic breakdown");
    println!("           [--model NAME] [--context N]");
    println!("  serve    continuous-batching serving engine");
    for line in SERVE_USAGE {
        println!("           {line}");
    }
    println!("  trace    trace-file tooling");
    println!("           diff <A> <B>   localize the first diverging event of two traces");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flags = parse_flags(&args[1.min(args.len())..]);
    let result = match cmd {
        "prune" => cmd_prune(&flags),
        "sweep" => cmd_sweep(&flags),
        "accel" => cmd_accel(&flags),
        "traffic" => cmd_traffic(&flags),
        "serve" => cmd_serve(&flags),
        "trace" => cmd_trace(&args[1..]),
        _ => {
            usage();
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
