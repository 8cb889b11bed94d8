//! Batched serving economics: why KV-cache traffic dominates at large batch
//! sizes (paper §2.2.1 / Fig. 2), what Token-Picker's reduction buys, and
//! how the serving engine's scheduler policies shape latency under a
//! skewed multi-tenant workload.
//!
//! ```sh
//! cargo run --release --example batch_serving
//! ```

use token_picker::accel::serve::scenario::{Scenario, SharedPrefixChat, SkewedElephantMice};
use token_picker::accel::{
    AccelConfig, AccelMode, ClusterEngine, PolicyKind, RetentionPolicy, RoutingKind, ServeEvent,
    ServingEngine,
};
use token_picker::core::{PrecisionConfig, ProgressivePruner, PrunerConfig, QMatrix, QVector};
use token_picker::model::{InstanceSampler, ModelSpec, TrafficBreakdown};

/// Serves the canonical skewed workload (four long "elephants" from one
/// client, twelve short high-priority "mice" from three others) under one
/// policy.
fn serve_skewed(
    policy: PolicyKind,
    preemption: bool,
    retention: RetentionPolicy,
) -> Result<token_picker::accel::ServingReport, Box<dyn std::error::Error>> {
    let scenario = SkewedElephantMice::default();
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
    let mut builder = ServingEngine::builder(accel.clone())
        .config(scenario.serving_config(accel))
        .policy(policy);
    if preemption {
        builder = builder.enable_preemption().retention(retention);
    }
    let mut engine = builder.build();
    for r in scenario.generate(0) {
        engine.enqueue(r)?;
    }
    let report = engine.run_to_completion(4096)?;

    // The event stream narrates scheduling decisions per token; show the
    // preemptions, the part a final report can't reconstruct.
    for e in engine.events() {
        if let ServeEvent::Preempted {
            id,
            step,
            generated,
            retained_tokens,
            dropped_tokens,
        } = e
        {
            println!(
                "    [{}] step {step}: request {id} evicted after {generated} token(s) \
                 (KV kept {retained_tokens}, dropped {dropped_tokens})",
                report.policy
            );
        }
    }
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ModelSpec::opt_6_7b();
    let context = 2048;

    // Measure Token-Picker's KV reduction on this shape once.
    let pc = PrecisionConfig::paper();
    let dim = spec.head_dim();
    let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3)?);
    let sampler = InstanceSampler::realistic(context, dim);
    let mut agg = token_picker::core::PruneStats::new(0, pc.num_chunks());
    for i in 0..8 {
        let inst = sampler.sample(i);
        let q = QVector::quantize(&inst.query, pc);
        let keys = QMatrix::quantize_flat(inst.keys().data(), inst.dim(), pc)?;
        agg.merge(&pruner.run(&q, &keys)?.stats);
    }
    let kv_reduction = agg.total_reduction(dim, &pc);
    println!(
        "{} @ context {}: measured KV access reduction {:.2}x\n",
        spec.name, context, kv_reduction
    );

    println!(
        "{:>5}  {:>9} {:>9}  {:>10} {:>10}  {:>8}",
        "batch", "KV share", "KV GB", "total GB", "pruned GB", "saved"
    );
    for batch in [1usize, 4, 16, 64, 128] {
        let t = TrafficBreakdown::compute(&spec, batch, context);
        let total_gb = t.total() as f64 / 1e9;
        let kv_gb = t.kv_bytes as f64 / 1e9;
        let pruned_total_gb = total_gb - kv_gb + kv_gb / kv_reduction;
        println!(
            "{:>5}  {:>8.1}% {:>9.2}  {:>10.2} {:>10.2}  {:>7.1}%",
            batch,
            100.0 * t.kv_fraction(),
            kv_gb,
            total_gb,
            pruned_total_gb,
            100.0 * (1.0 - pruned_total_gb / total_gb),
        );
    }
    println!();
    println!("(per generation step; the bigger the batch, the more Token-Picker saves)");

    // Part two: the same KV budget, four scheduling answers. Elephants
    // hog the batch; policies differ in what the mice experience. The
    // last column pairs show what preemption really costs — and what
    // paged KV retention (keep half the victim's pages, re-prefill only
    // the dropped suffix) claws back.
    println!();
    println!("scheduler policies on a skewed workload (4 elephants + 12 mice):");
    println!(
        "{:<26} {:>6} {:>11} {:>10} {:>9} {:>11} {:>9}",
        "policy", "steps", "tokens/s", "mean TTFT", "preempts", "reprefill", "KV kept"
    );
    for (policy, preemption, retention) in [
        (PolicyKind::Fifo, false, RetentionPolicy::None),
        (PolicyKind::ShortestJobFirst, false, RetentionPolicy::None),
        (PolicyKind::FairRoundRobin, true, RetentionPolicy::None),
        (PolicyKind::PriorityAging, true, RetentionPolicy::None),
        (
            PolicyKind::PriorityAging,
            true,
            RetentionPolicy::Fraction(0.5),
        ),
        (
            PolicyKind::ShortestJobFirst,
            true,
            RetentionPolicy::Fraction(0.5),
        ),
    ] {
        let report = serve_skewed(policy, preemption, retention)?;
        let label = match (preemption, retention) {
            (false, _) => report.policy.clone(),
            (true, RetentionPolicy::None) => format!("{}+preempt", report.policy),
            (true, _) => format!("{}+retain", report.policy),
        };
        println!(
            "{:<26} {:>6} {:>11.1} {:>10.2} {:>9} {:>11} {:>9}",
            label,
            report.steps.len(),
            report.tokens_per_second(500e6),
            report.mean_ttft_steps(),
            report.preemptions,
            report.total_reprefill_cycles(),
            report.total_retained_tokens(),
        );
    }
    println!();
    println!("(preemption trades elephant re-prefill cycles for mouse latency;");
    println!(" paged retention keeps KV prefixes so evictions re-prefill less)");

    // Part three: prefix caching. Four tenants' requests share their
    // system prompts; with the cache on, shared prompt pages are adopted
    // copy-on-write and only the unique suffix is prefilled.
    println!();
    println!("prefix caching on the shared-prefix chat workload (4 tenants x 6 requests):");
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>10} {:>9}",
        "prefix cache", "steps", "cycles", "prefill", "KV hits", "hit rate"
    );
    for prefix_cache in [false, true] {
        let report = serve_shared_prefix(prefix_cache)?;
        println!(
            "{:<14} {:>6} {:>12} {:>12} {:>10} {:>8.0}%",
            if prefix_cache { "on" } else { "off" },
            report.steps.len(),
            report.total_cycles,
            report.total_prefill_cycles(),
            report.total_prefix_hit_tokens(),
            100.0 * report.prefix_hit_rate(),
        );
    }
    println!();
    println!("(same tokens out either way; the cache pays the prompt prefill once");
    println!(" per tenant instead of once per request)");

    // Part four: sharding. The same shared-prefix workload across 1, 2
    // and 4 engines: throughput is measured over the parallel makespan,
    // and because each shard's prefix cache is independent, the routing
    // policy decides whether the cluster keeps the cache hit rate
    // (affinity) or scatters it (round-robin).
    println!();
    println!("multi-engine sharding on the shared-prefix chat workload:");
    println!(
        "{:<28} {:>6} {:>11} {:>8} {:>10} {:>9}",
        "shards x routing", "steps", "tokens/s", "steals", "imbalance", "hit rate"
    );
    for (shards, routing, stealing) in [
        (1, RoutingKind::RoundRobin, false),
        (2, RoutingKind::RoundRobin, false),
        (2, RoutingKind::LeastLoaded, true),
        (2, RoutingKind::PrefixAffinity, false),
        (4, RoutingKind::RoundRobin, false),
        (4, RoutingKind::LeastLoaded, true),
        (4, RoutingKind::PrefixAffinity, false),
    ] {
        let report = serve_sharded(shards, routing, stealing)?;
        let label = format!(
            "{}x {}{}",
            shards,
            report.routing,
            if stealing { "+steal" } else { "" }
        );
        println!(
            "{:<28} {:>6} {:>11.1} {:>8} {:>10.2} {:>8.0}%",
            label,
            report.cluster_steps,
            report.tokens_per_second(500e6),
            report.steals,
            report.load_imbalance(),
            100.0 * report.prefix_hit_rate(),
        );
    }
    println!();
    println!("(tokens/s is over the parallel makespan — the busiest shard per step;");
    println!(" affinity routing keeps each tenant on one shard, so the independent");
    println!(" per-shard caches still see every repeat of their prompts)");
    Ok(())
}

/// Serves the shared-prefix chat workload on a cluster of identically
/// configured shards under one routing policy.
fn serve_sharded(
    shards: usize,
    routing: RoutingKind,
    stealing: bool,
) -> Result<token_picker::accel::ClusterReport, Box<dyn std::error::Error>> {
    let scenario = SharedPrefixChat::default();
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
    let mut cluster = ClusterEngine::builder(accel.clone())
        .config(scenario.serving_config(accel))
        .shards(shards)
        .routing(routing)
        .stealing(stealing)
        .build();
    for r in scenario.generate(11) {
        cluster.enqueue(r)?;
    }
    Ok(cluster.run_to_completion(4096)?)
}

/// Serves the shared-prefix chat workload with prompt prefill priced,
/// toggling only the prefix cache.
fn serve_shared_prefix(
    prefix_cache: bool,
) -> Result<token_picker::accel::ServingReport, Box<dyn std::error::Error>> {
    let scenario = SharedPrefixChat::default();
    let mut cfg = scenario.serving_config(AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?);
    cfg.admission.prefix_cache = prefix_cache;
    let mut engine = ServingEngine::new(cfg);
    for r in scenario.generate(11) {
        engine.enqueue(r)?;
    }
    Ok(engine.run_to_completion(4096)?)
}
