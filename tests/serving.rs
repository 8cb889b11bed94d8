//! Workspace integration tests of the continuous-batching serving engine:
//! a 16-request mixed-context workload must complete under both
//! accelerator modes, conserve its token accounting, price bigger batches
//! higher, run measurably faster under Token-Picker pruning — and, after
//! the scheduler redesign, the `Fifo` policy must reproduce the
//! pre-refactor engine's schedule bit for bit while preemption-enabled
//! policies bend the latency profile on skewed workloads.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use token_picker::accel::serve::scenario::{Scenario, SharedPrefixChat, SkewedElephantMice};
use token_picker::accel::serve::trace::run_recorded;
use token_picker::accel::{
    AccelConfig, AccelMode, AdmissionConfig, ClusterEngine, ClusterEvent, ClusterReport,
    PolicyKind, PreemptionConfig, RetentionPolicy, RoutingKind, ScenarioKind, ServeEvent,
    ServingConfig, ServingEngine, ServingReport, ServingRequest, StepReport, Trace, TraceMeta,
};

fn mixed_workload() -> Vec<ServingRequest> {
    // 16 requests with heterogeneous prompts (128..=464 tokens) and
    // targets (2..=6 new tokens) — contexts in one batch intentionally
    // disagree, and they are long enough for attention (not weight
    // streaming) to be a visible share of each step, the regime the paper
    // evaluates.
    (0..16u64)
        .map(|id| ServingRequest::new(id, 128 + (id as usize % 8) * 48, 2 + (id as usize % 5)))
        .collect()
}

fn serving_config(mode: AccelMode, threshold: f64) -> ServingConfig {
    let accel = AccelConfig::paper(mode, threshold).expect("valid threshold");
    let mut cfg = ServingConfig::new(accel);
    cfg.heads = 4;
    cfg.weight_bytes = 10_000_000;
    cfg.admission = AdmissionConfig {
        max_batch: 6,
        max_batch_tokens: 4096,
        page_size: 16,
        prefix_cache: false,
    };
    cfg.seed = 7;
    cfg
}

fn serve(mode: AccelMode, threshold: f64) -> token_picker::accel::ServingReport {
    let mut engine = ServingEngine::new(serving_config(mode, threshold));
    for r in mixed_workload() {
        engine.enqueue(r).expect("valid request");
    }
    engine.run_to_completion(256).expect("workload completes")
}

#[test]
fn sixteen_request_workload_completes_with_conservation() {
    let report = serve(AccelMode::OutOfOrder, 1e-3);
    let workload = mixed_workload();

    // Conservation: every request finished, generating exactly its target.
    assert_eq!(report.requests.len(), workload.len());
    let expected: usize = workload.iter().map(|r| r.max_new_tokens).sum();
    assert_eq!(report.tokens_generated, expected);
    for req in &workload {
        let stats = report
            .requests
            .iter()
            .find(|s| s.id == req.id)
            .expect("request finished");
        assert_eq!(stats.generated, req.max_new_tokens, "request {}", req.id);
        assert!(stats.admitted_at.is_some());
        assert!(stats.finished_at.unwrap() >= stats.admitted_at.unwrap());
        assert!(stats.attention_cycles > 0);
    }

    // Admission control held at every step.
    for step in &report.steps {
        assert!(step.batch <= 6, "batch {} exceeds limit", step.batch);
        assert!(step.context_tokens <= 4096);
    }

    // Continuous batching actually batched: some step decoded multiple
    // requests concurrently.
    assert!(report.steps.iter().any(|s| s.batch > 1));

    // Cycle accounting is closed: steps sum to the total.
    let sum: u64 = report.steps.iter().map(|s| s.total_cycles()).sum();
    assert_eq!(sum, report.total_cycles);
}

/// Golden schedule of the pre-refactor (PR 1) engine on the 16-request
/// mixed workload above, captured before the scheduler redesign:
/// `(batch, context_tokens, weight_cycles, attention_cycles)` per step.
const GOLDEN_STEPS: [(usize, usize, u64, u64); 13] = [
    (6, 1488, 19532, 1768),
    (6, 1494, 19532, 1796),
    (6, 1880, 19532, 1972),
    (6, 1835, 19532, 1968),
    (6, 1789, 19532, 1964),
    (6, 1595, 19532, 1872),
    (6, 1495, 19532, 1604),
    (6, 1691, 19532, 1916),
    (5, 1753, 19532, 1896),
    (5, 1758, 19532, 1884),
    (2, 791, 19532, 828),
    (1, 420, 19532, 448),
    (1, 421, 19532, 420),
];

/// Golden per-request lifecycle, in completion order:
/// `(id, prompt_len, generated, admitted_at, finished_at, attention_cycles)`.
const GOLDEN_REQUESTS: [(u64, usize, usize, usize, usize, u64); 16] = [
    (0, 128, 2, 0, 1, 440),
    (5, 368, 2, 0, 1, 724),
    (1, 176, 3, 0, 2, 744),
    (2, 224, 4, 0, 3, 1104),
    (3, 272, 5, 0, 4, 1508),
    (6, 416, 3, 2, 4, 1264),
    (4, 320, 6, 0, 5, 2060),
    (7, 464, 4, 2, 5, 1804),
    (10, 224, 2, 5, 6, 584),
    (8, 128, 5, 3, 7, 952),
    (11, 272, 3, 5, 7, 844),
    (9, 176, 6, 4, 9, 1528),
    (12, 320, 4, 6, 9, 1384),
    (15, 464, 2, 8, 9, 932),
    (13, 368, 5, 6, 10, 1876),
    (14, 416, 6, 7, 12, 2588),
];

const GOLDEN_TOTAL_CYCLES: u64 = 274_252;
const GOLDEN_TOKENS: usize = 62;
const GOLDEN_PRUNE_KEPT: usize = 4959;
const GOLDEN_PRUNE_TOKENS: usize = 18_410;
const GOLDEN_CHUNK_FETCHES: [u64; 3] = [18_410, 10_129, 5795];

#[test]
fn fifo_policy_reproduces_the_pre_refactor_engine_exactly() {
    let mut engine = ServingEngine::new(serving_config(AccelMode::OutOfOrder, 1e-3));
    for r in mixed_workload() {
        engine.enqueue(r).expect("valid request");
    }
    let report = engine.run_to_completion(256).expect("workload completes");

    assert_eq!(report.policy, "fifo");
    assert_eq!(report.steps.len(), GOLDEN_STEPS.len());
    for (step, &(batch, ctx, wcyc, acyc)) in report.steps.iter().zip(&GOLDEN_STEPS) {
        assert_eq!(
            (
                step.batch,
                step.context_tokens,
                step.weight_cycles,
                step.attention_cycles
            ),
            (batch, ctx, wcyc, acyc),
            "step {} diverged from the pre-refactor schedule",
            step.index
        );
        assert_eq!(step.reprefill_cycles, 0);
    }

    assert_eq!(report.requests.len(), GOLDEN_REQUESTS.len());
    for (stats, &(id, prompt, gen, adm, fin, acyc)) in report.requests.iter().zip(&GOLDEN_REQUESTS)
    {
        assert_eq!(stats.id, id, "completion order diverged");
        assert_eq!(stats.prompt_len, prompt);
        assert_eq!(stats.generated, gen);
        assert_eq!(stats.enqueued_at, 0);
        assert_eq!(stats.admitted_at, Some(adm), "request {id}");
        assert_eq!(stats.finished_at, Some(fin), "request {id}");
        assert_eq!(stats.attention_cycles, acyc, "request {id}");
        assert_eq!(stats.preemptions, 0);
    }

    assert_eq!(report.total_cycles, GOLDEN_TOTAL_CYCLES);
    assert_eq!(report.tokens_generated, GOLDEN_TOKENS);
    assert_eq!(report.preemptions, 0);
    assert_eq!(report.prune.kept, GOLDEN_PRUNE_KEPT);
    assert_eq!(report.prune.tokens, GOLDEN_PRUNE_TOKENS);
    assert_eq!(report.prune.chunk_fetches, GOLDEN_CHUNK_FETCHES);

    // The event stream agrees with the golden per-step admitted/retired
    // sets derived from the request lifecycles.
    for step in 0..GOLDEN_STEPS.len() {
        let golden_admitted: BTreeSet<u64> = GOLDEN_REQUESTS
            .iter()
            .filter(|&&(_, _, _, adm, _, _)| adm == step)
            .map(|&(id, ..)| id)
            .collect();
        let golden_retired: BTreeSet<u64> = GOLDEN_REQUESTS
            .iter()
            .filter(|&&(_, _, _, _, fin, _)| fin == step)
            .map(|&(id, ..)| id)
            .collect();
        let admitted: BTreeSet<u64> = engine
            .events()
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Admitted { id, step: s, .. } if *s == step => Some(*id),
                _ => None,
            })
            .collect();
        let retired: BTreeSet<u64> = engine
            .events()
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Finished { id, step: s, .. } if *s == step => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, golden_admitted, "admitted set at step {step}");
        assert_eq!(retired, golden_retired, "retired set at step {step}");
    }
}

#[test]
fn step_cycles_are_monotone_in_batch_attention_work() {
    // Under the baseline (no pruning), a step's attention cycles grow with
    // the attention work it performs (total context tokens in the batch).
    // Compare the extremes, which are far apart in work.
    let report = serve(AccelMode::Baseline, 0.5);
    let min_work = report
        .steps
        .iter()
        .min_by_key(|s| s.context_tokens)
        .expect("steps exist");
    let max_work = report
        .steps
        .iter()
        .max_by_key(|s| s.context_tokens)
        .expect("steps exist");
    assert!(
        max_work.context_tokens > min_work.context_tokens,
        "workload produced uniform steps; test needs heterogeneous work"
    );
    assert!(
        max_work.attention_cycles > min_work.attention_cycles,
        "attention cycles not monotone: work {} -> {} cycles vs work {} -> {} cycles",
        min_work.context_tokens,
        min_work.attention_cycles,
        max_work.context_tokens,
        max_work.attention_cycles
    );

    // Weight streaming is shared per step and constant across steps.
    for w in report.steps.windows(2) {
        assert_eq!(w[0].weight_cycles, w[1].weight_cycles);
    }
}

#[test]
fn topick_serves_more_tokens_per_second_than_baseline() {
    let baseline = serve(AccelMode::Baseline, 0.5);
    let topick = serve(AccelMode::OutOfOrder, 1e-3);

    // Identical workloads (same seeds, same admission) ...
    assert_eq!(baseline.tokens_generated, topick.tokens_generated);

    // ... but pruned attention shrinks every step, so throughput rises.
    let clock_hz = 500e6;
    let base_tps = baseline.tokens_per_second(clock_hz);
    let tp_tps = topick.tokens_per_second(clock_hz);
    assert!(
        tp_tps > base_tps,
        "ToPick {tp_tps:.1} tokens/s should beat baseline {base_tps:.1} tokens/s"
    );
    assert!(topick.total_cycles < baseline.total_cycles);

    // The pruning statistics show why: most V rows were never fetched.
    assert!(topick.prune.v_reduction() > 1.5);
}

fn serve_skewed(policy: PolicyKind, preemption: bool) -> token_picker::accel::ServingReport {
    serve_skewed_with_retention(policy, preemption, RetentionPolicy::None)
}

fn serve_skewed_with_retention(
    policy: PolicyKind,
    preemption: bool,
    retention: RetentionPolicy,
) -> token_picker::accel::ServingReport {
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
    for r in SkewedElephantMice::default().generate(0) {
        engine.enqueue(r).expect("valid request");
    }
    engine.run_to_completion(2048).expect("workload completes")
}

#[test]
fn preemption_bends_the_latency_profile_on_a_skewed_workload() {
    let fifo = serve_skewed(PolicyKind::Fifo, false);
    let preempting = serve_skewed(PolicyKind::PriorityAging, true);

    // Same work either way.
    assert_eq!(fifo.tokens_generated, preempting.tokens_generated);
    assert_eq!(fifo.preemptions, 0);

    // Under FIFO the mice sit behind the elephants; priority-with-
    // preemption evicts elephants and serves the mice first, so mean
    // time-to-first-token drops.
    assert!(preempting.preemptions > 0, "no evictions happened");
    assert!(
        preempting.mean_ttft_steps() < fifo.mean_ttft_steps(),
        "preemption should cut mean TTFT: {} vs fifo {}",
        preempting.mean_ttft_steps(),
        fifo.mean_ttft_steps()
    );

    // Eviction is never free: the re-prefill charge makes the two runs'
    // cycle totals (and thus tokens/s) genuinely different profiles.
    let reprefill: u64 = preempting.steps.iter().map(|s| s.reprefill_cycles).sum();
    assert!(reprefill > 0);
    assert_ne!(fifo.total_cycles, preempting.total_cycles);
}

/// FNV-1a fold of every pre-prefix-caching schedule observable: per-step
/// tuples, per-request lifecycles and the report totals. New fields
/// (`prefill_cycles`, `prefix_hit_tokens`) are deliberately *excluded* and
/// asserted zero separately, so these digests are comparable with the
/// PR 3 engine they were captured from.
fn schedule_digest(report: &ServingReport) -> u64 {
    fn fnv(h: &mut u64, v: u64) {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &report.steps {
        for v in [
            s.index as u64,
            s.batch as u64,
            s.context_tokens as u64,
            s.weight_cycles,
            s.attention_cycles,
            s.reprefill_cycles,
        ] {
            fnv(&mut h, v);
        }
    }
    for r in &report.requests {
        for v in [
            r.id,
            r.prompt_len as u64,
            r.generated as u64,
            u64::from(r.priority),
            r.client_id,
            r.enqueued_at as u64,
            r.admitted_at.map_or(u64::MAX, |s| s as u64),
            r.first_token_at.map_or(u64::MAX, |s| s as u64),
            r.finished_at.map_or(u64::MAX, |s| s as u64),
            u64::from(r.preemptions),
            r.attention_cycles,
            r.reprefill_cycles,
            r.retained_tokens as u64,
            r.reprefilled_tokens as u64,
        ] {
            fnv(&mut h, v);
        }
    }
    fnv(&mut h, report.total_cycles);
    fnv(&mut h, report.tokens_generated as u64);
    fnv(&mut h, report.preemptions as u64);
    h
}

/// Golden schedule digests of the PR 3 engine (captured before prefix
/// caching existed) on the canonical skewed workload: every policy,
/// without preemption and with preemption + 0.75-fraction paged
/// retention.
const GOLDEN_POLICY_DIGESTS: [(PolicyKind, bool, u64); 8] = [
    (PolicyKind::Fifo, false, 0xcfd8e5bfc39f65b8),
    (PolicyKind::Fifo, true, 0xcfd8e5bfc39f65b8),
    (PolicyKind::PriorityAging, false, 0xf2534e6ff39652df),
    (PolicyKind::PriorityAging, true, 0xa621ccffc353bdf4),
    (PolicyKind::ShortestJobFirst, false, 0xea6cf1fed6d69c34),
    (PolicyKind::ShortestJobFirst, true, 0xe4e6cde81d376586),
    (PolicyKind::FairRoundRobin, false, 0xb98fc934d9b2935f),
    (PolicyKind::FairRoundRobin, true, 0x03d59e4836f2e5fe),
];

#[test]
fn every_policy_reproduces_the_pre_prefix_caching_schedule_exactly() {
    for &(policy, preemption, digest) in &GOLDEN_POLICY_DIGESTS {
        let report =
            serve_skewed_with_retention(policy, preemption, RetentionPolicy::Fraction(0.75));
        // Prefix caching off and prefill unpriced: the new machinery must
        // be completely invisible...
        for s in &report.steps {
            assert_eq!(s.prefill_cycles, 0, "{policy}: prefill charged");
        }
        for r in &report.requests {
            assert_eq!(r.prefill_cycles, 0, "{policy}: prefill charged");
            assert_eq!(r.prefix_hit_tokens, 0, "{policy}: phantom cache hit");
        }
        // ...and the schedule bit-identical to the captured PR 3 run.
        assert_eq!(
            schedule_digest(&report),
            digest,
            "{policy} (preemption: {preemption}) diverged from the PR 3 schedule"
        );
    }
}

/// The canonical shared-prefix configuration: the `shared_prefix_chat`
/// workload under FIFO with prompt prefill priced, toggling only the
/// prefix cache.
fn serve_shared_prefix(prefix_cache: bool) -> ServingReport {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = SharedPrefixChat::default().serving_config(accel);
    cfg.admission.prefix_cache = prefix_cache;
    let mut engine = ServingEngine::new(cfg);
    for r in SharedPrefixChat::default().generate(11) {
        engine.enqueue(r).expect("valid request");
    }
    let report = engine.run_to_completion(4096).expect("workload completes");
    // The pager conserves pages throughout and drains to nothing mapped.
    engine.kv_pager().validate();
    assert_eq!(engine.kv_pager().allocated_pages(), 0);
    report
}

#[test]
fn prefix_caching_is_invisible_to_results_and_strictly_cheaper() {
    let off = serve_shared_prefix(false);
    let on = serve_shared_prefix(true);

    // Sharing must be invisible to results: the same tokens come out of
    // every request either way.
    assert_eq!(off.tokens_generated, on.tokens_generated);
    assert_eq!(off.requests.len(), on.requests.len());
    let on_by_id: std::collections::HashMap<u64, _> =
        on.requests.iter().map(|r| (r.id, r)).collect();
    for r_off in &off.requests {
        let r_on = on_by_id[&r_off.id];
        assert_eq!(r_off.generated, r_on.generated, "request {}", r_off.id);
        // Without preemption each request decodes at each of its contexts
        // exactly once, so its attention bill is schedule-independent.
        assert_eq!(
            r_off.attention_cycles, r_on.attention_cycles,
            "request {}",
            r_off.id
        );
        // Cached prefill never exceeds uncached: the cache can only
        // shrink the prompt share a request must prefill.
        assert!(
            r_on.prefill_cycles <= r_off.prefill_cycles,
            "request {}: cached prefill {} > uncached {}",
            r_off.id,
            r_on.prefill_cycles,
            r_off.prefill_cycles
        );
        assert_eq!(r_off.prefix_hit_tokens, 0);
    }

    // The savings are prefix-hit-consistent: hits happened, and every hit
    // token is a prompt token some request did not re-prefill.
    assert_eq!(off.total_prefix_hit_tokens(), 0);
    assert!(on.total_prefix_hit_tokens() > 0, "no prefix hits at all");
    assert!(
        on.prefix_hit_rate() > 0.3,
        "hit rate {}",
        on.prefix_hit_rate()
    );
    assert!(on.total_prefill_cycles() < off.total_prefill_cycles());
    assert_eq!(off.preemptions, 0);
    assert_eq!(on.preemptions, 0);
}

#[test]
fn prefix_caching_cuts_prefill_cycles_by_at_least_thirty_percent() {
    let off = serve_shared_prefix(false);
    let on = serve_shared_prefix(true);
    assert_eq!(off.tokens_generated, on.tokens_generated, "unequal work");
    let bill_off = off.total_prefill_cycles() + off.total_reprefill_cycles();
    let bill_on = on.total_prefill_cycles() + on.total_reprefill_cycles();
    assert!(bill_off > 0, "workload must actually prefill");
    let saved = 1.0 - bill_on as f64 / bill_off as f64;
    assert!(
        saved >= 0.30,
        "prefix caching saved only {:.1}% of the prefill bill ({} -> {} cycles)",
        saved * 100.0,
        bill_off,
        bill_on
    );
}

#[test]
fn admission_events_report_cached_tokens() {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(2)
        .weight_bytes(1_000_000)
        .max_batch(4)
        .max_batch_tokens(1600)
        .prefix_cache(true)
        .build();
    // Two requests sharing a 64-token (4-page) prefix; the second adopts
    // all four shared pages.
    engine
        .enqueue(ServingRequest::new(0, 80, 2).with_shared_prefix(9, 64))
        .expect("valid");
    engine
        .enqueue(ServingRequest::new(1, 96, 2).with_shared_prefix(9, 64))
        .expect("valid");
    engine.run_to_completion(16).expect("completes");
    let cached: Vec<(u64, usize)> = engine
        .events()
        .iter()
        .filter_map(|e| match e {
            ServeEvent::Admitted {
                id, cached_tokens, ..
            } => Some((*id, *cached_tokens)),
            _ => None,
        })
        .collect();
    assert_eq!(cached, vec![(0, 0), (1, 64)]);
    let hit = engine
        .report()
        .requests
        .iter()
        .find(|r| r.id == 1)
        .unwrap()
        .prefix_hit_tokens;
    assert_eq!(hit, 64);
}

#[test]
fn reclaim_never_strips_shared_retained_pages_for_no_gain() {
    // A and B share a 64-token (4-page) prompt prefix; B is preempted
    // with those shared pages retained while A keeps running. A later
    // page-starved candidate must NOT reclaim B's retained pages: they
    // are shared with A, so dropping B's mappings frees no capacity and
    // would only charge B re-prefill debt for nothing.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(2)
        .weight_bytes(1_000_000)
        .max_batch(3)
        .max_batch_tokens(192) // 12 pages of 16 tokens
        .page_size(16)
        .prefix_cache(true)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.8))
        .build();
    engine
        .enqueue(
            ServingRequest::new(0, 64, 8)
                .with_priority(5)
                .with_shared_prefix(1, 64),
        )
        .expect("valid");
    engine
        .enqueue(
            ServingRequest::new(1, 64, 4)
                .with_priority(1)
                .with_shared_prefix(1, 64),
        )
        .expect("valid");
    engine.step().expect("step").expect("report"); // A and B run
                                                   // C needs 7 pages with 6 free: evicts B (lowest priority), which
                                                   // retains its 4 shared prompt pages in the queue.
    engine
        .enqueue(ServingRequest::new(2, 96, 8).with_priority(9))
        .expect("valid");
    engine.step().expect("step").expect("report");
    // D needs 6 pages with 0 free and a slot available: the reclaim path
    // runs, finds only B's shared retained pages, and must leave them
    // alone — dropping B's mappings would free nothing (A still maps the
    // same pages) while charging B re-prefill debt.
    engine
        .enqueue(ServingRequest::new(3, 80, 4).with_priority(9))
        .expect("valid");
    engine.step().expect("step").expect("report");
    // A (5 pages), C (7) and queued B (4, all shared with A) all keep
    // their mappings through D's failed reclaim pressure.
    assert_eq!(engine.kv_pager().mapped_pages(), 16, "B was stripped");
    assert_eq!(engine.kv_pager().cached_pages(), 0);
    engine.kv_pager().validate();

    let report = engine.run_to_completion(64).expect("completes");
    engine.kv_pager().validate();
    assert_eq!(report.requests.len(), 4);
    let b = report.requests.iter().find(|r| r.id == 1).expect("B done");
    assert_eq!(b.preemptions, 1, "B evicted exactly once");
    // B's first admission adopted A's whole 64-token shared prefix.
    assert_eq!(b.prefix_hit_tokens, 64);
}

#[test]
fn retention_cannot_keep_kv_that_was_never_prefilled() {
    // A is admitted and evicted within the same admission round (aging
    // lets it beat B's effective priority, raw priority lets B evict it)
    // — before its first decode step ever built any KV. Retention keeps
    // its pages, but the "retained" KV was never prefilled: the model
    // must charge the full context as re-prefill debt, or the skipped
    // prefill would be billed to no one.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(2)
        .weight_bytes(1_000_000)
        .max_batch(1)
        .max_batch_tokens(512)
        .page_size(16)
        .prefix_cache(true)
        .prefill_factor(1.0)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.75))
        .build();
    // C holds the only slot through step 16; A queues and ages from
    // effective priority 2 to 4.
    engine
        .enqueue(ServingRequest::new(0, 16, 17).with_priority(9))
        .expect("valid");
    engine
        .enqueue(ServingRequest::new(1, 64, 2).with_priority(2))
        .expect("valid");
    // B arrives exactly when C retires: step 17 admits A first (aged
    // effective 4 beats B's 3), then B evicts it on raw priority (3 > 2).
    engine
        .enqueue(
            ServingRequest::new(2, 16, 2)
                .with_priority(3)
                .arriving_at(17),
        )
        .expect("valid");
    let report = engine.run_to_completion(64).expect("completes");
    engine.kv_pager().validate();

    let a = report.requests.iter().find(|r| r.id == 1).expect("A done");
    assert_eq!(a.preemptions, 1, "A evicted exactly once");
    // Nothing of A's KV existed at eviction time, so nothing counts as
    // retained and the whole 64-token context is re-prefilled...
    assert_eq!(a.retained_tokens, 0);
    assert_eq!(a.reprefilled_tokens, 64);
    assert!(a.reprefill_cycles > 0);
    // ...through the re-prefill path alone; the folded prefill charge
    // must not ALSO be billed.
    assert_eq!(a.prefill_cycles, 0);
    let evicted_before_first_decode = engine.events().iter().any(|e| {
        matches!(
            e,
            ServeEvent::Preempted {
                id: 1,
                generated: 0,
                retained_tokens: 0,
                dropped_tokens: 64,
                ..
            }
        )
    });
    assert!(
        evicted_before_first_decode,
        "scenario must preempt A before its first decode"
    );
}

#[test]
fn reclaim_never_strips_pages_the_candidate_would_adopt() {
    // Queued victim B retains its 4 registered prompt pages at refcount 1.
    // A page-starved same-tenant candidate C would adopt exactly those
    // pages, so reclaiming them gains C nothing (they just move into the
    // cache C's admission arithmetic already counts) while charging B
    // re-prefill debt. The reclaim path must leave B alone.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(2)
        .weight_bytes(1_000_000)
        .max_batch(2)
        .max_batch_tokens(160) // 10 pages of 16 tokens
        .page_size(16)
        .prefix_cache(true)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.8))
        .build();
    // F1 (5 pages) and B (5 pages) fill the budget.
    engine
        .enqueue(ServingRequest::new(0, 48, 20).with_priority(9))
        .expect("valid");
    engine
        .enqueue(
            ServingRequest::new(1, 64, 4)
                .with_priority(1)
                .with_shared_prefix(7, 64),
        )
        .expect("valid");
    engine.step().expect("step").expect("report");
    // F2 evicts B (1-page need, slot shortage): B queues retaining its 4
    // registered prompt pages, sole holder.
    engine
        .enqueue(ServingRequest::new(2, 8, 8).with_priority(9).arriving_at(1))
        .expect("valid");
    // C shares B's prompt; its 6-page need exceeds free + its 4 adoptable
    // hits once F2 retires, so the reclaim path runs while C stays
    // head-of-line blocked until F1 retires.
    engine
        .enqueue(
            ServingRequest::new(3, 64, 24)
                .with_priority(9)
                .with_shared_prefix(7, 64)
                .arriving_at(2),
        )
        .expect("valid");
    let report = engine.run_to_completion(256).expect("completes");
    engine.kv_pager().validate();

    let b = report.requests.iter().find(|r| r.id == 1).expect("B done");
    assert_eq!(b.preemptions, 1, "B evicted exactly once");
    // B's retained prefix survived C's reclaim pressure untouched; only
    // the 1-token eviction suffix was ever re-prefilled.
    assert_eq!(b.retained_tokens, 64);
    assert_eq!(b.reprefilled_tokens, 1);
    // And C genuinely adopted B's pages at admission.
    let c = report.requests.iter().find(|r| r.id == 3).expect("C done");
    assert_eq!(c.prefix_hit_tokens, 64);
}

#[test]
fn retention_cannot_keep_kv_whose_rebuild_was_never_charged() {
    // The symmetric re-prefill case: A is evicted, re-admitted (its
    // rebuild debt still uncharged), and evicted AGAIN before the decode
    // step that would have rebuilt its KV. The second eviction must not
    // convert the outstanding 64-token debt into "retained" KV.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(2)
        .weight_bytes(1_000_000)
        .max_batch(1)
        .max_batch_tokens(512)
        .page_size(16)
        .prefix_cache(true)
        .prefill_factor(1.0)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.75))
        .build();
    // C occupies the slot while A ages; B evicts A the moment it is
    // first admitted (step 17, before any decode).
    engine
        .enqueue(ServingRequest::new(0, 16, 17).with_priority(9))
        .expect("valid");
    engine
        .enqueue(ServingRequest::new(1, 64, 2).with_priority(2))
        .expect("valid");
    engine
        .enqueue(
            ServingRequest::new(2, 16, 2)
                .with_priority(3)
                .arriving_at(17),
        )
        .expect("valid");
    // C2 re-occupies the slot while A ages again; D then evicts A at its
    // re-admission (step 34), again before any decode.
    engine
        .enqueue(
            ServingRequest::new(3, 16, 15)
                .with_priority(9)
                .arriving_at(18),
        )
        .expect("valid");
    engine
        .enqueue(
            ServingRequest::new(4, 16, 2)
                .with_priority(3)
                .arriving_at(34),
        )
        .expect("valid");
    let report = engine.run_to_completion(64).expect("completes");
    engine.kv_pager().validate();

    let a = report.requests.iter().find(|r| r.id == 1).expect("A done");
    assert_eq!(a.preemptions, 2, "A evicted at both admissions");
    assert_eq!(a.generated, 2);
    // Neither eviction had any built KV to retain, and the full context
    // is eventually rebuilt through the re-prefill path exactly once.
    assert_eq!(a.retained_tokens, 0);
    assert_eq!(a.reprefilled_tokens, 64);
    assert!(a.reprefill_cycles > 0);
    assert_eq!(a.prefill_cycles, 0);
}

#[test]
fn paged_retention_reprefills_strictly_less_than_full_reprefill() {
    // SRPT (shortest-job-first with preemption) on the canonical skewed
    // workload: under full re-prefill every eviction pays for the victim's
    // whole context; with paged retention only the dropped suffix is
    // rebuilt, so the total re-prefill bill must strictly shrink.
    let full =
        serve_skewed_with_retention(PolicyKind::ShortestJobFirst, true, RetentionPolicy::None);
    let paged = serve_skewed_with_retention(
        PolicyKind::ShortestJobFirst,
        true,
        RetentionPolicy::Fraction(0.75),
    );

    assert!(full.preemptions > 0, "workload must actually preempt");
    assert!(paged.preemptions > 0, "workload must actually preempt");
    assert_eq!(full.tokens_generated, paged.tokens_generated);

    // Full re-prefill retains nothing; paged retention carries real KV
    // prefixes across evictions and re-prefills fewer tokens.
    assert_eq!(full.total_retained_tokens(), 0);
    assert!(paged.total_retained_tokens() > 0);
    assert!(paged.total_reprefilled_tokens() < full.total_reprefilled_tokens());

    // The cycle charge follows the token accounting.
    assert!(
        paged.total_reprefill_cycles() < full.total_reprefill_cycles(),
        "paged retention must cut the re-prefill bill: {} vs {} cycles",
        paged.total_reprefill_cycles(),
        full.total_reprefill_cycles()
    );

    // Per-step and per-request accounting agree.
    for report in [&full, &paged] {
        let by_request: u64 = report.requests.iter().map(|r| r.reprefill_cycles).sum();
        assert_eq!(report.total_reprefill_cycles(), by_request);
    }
}

/// The canonical skewed workload served by a [`ClusterEngine`] under the
/// same per-shard configuration as [`serve_skewed_with_retention`].
fn serve_skewed_cluster(
    policy: PolicyKind,
    preemption: bool,
    retention: RetentionPolicy,
    shards: usize,
    routing: RoutingKind,
    stealing: bool,
) -> ClusterReport {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = SkewedElephantMice::default().serving_config(accel);
    if preemption {
        cfg.preemption = PreemptionConfig::enabled().with_retention(retention);
    }
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(policy)
        .shards(shards)
        .routing(routing)
        .stealing(stealing)
        .build();
    for r in SkewedElephantMice::default().generate(0) {
        cluster.enqueue(r).expect("valid request");
    }
    let report = cluster.run_to_completion(2048).expect("workload completes");
    for i in 0..cluster.shard_count() {
        cluster.shard(i).kv_pager().validate();
        assert_eq!(cluster.shard(i).kv_pager().allocated_pages(), 0);
    }
    report
}

#[test]
fn one_shard_cluster_reproduces_the_bare_engine_bit_for_bit() {
    // A 1-shard cluster under round-robin routing is the identity wrapper:
    // for every scheduler policy, with and without preemption + paged
    // retention, the shard's schedule digest must equal the bare engine's
    // PR 3 golden — and that must hold with stealing on too (there is no
    // second shard to steal for).
    for &(policy, preemption, digest) in &GOLDEN_POLICY_DIGESTS {
        for stealing in [false, true] {
            let report = serve_skewed_cluster(
                policy,
                preemption,
                RetentionPolicy::Fraction(0.75),
                1,
                RoutingKind::RoundRobin,
                stealing,
            );
            assert_eq!(report.shards.len(), 1);
            assert_eq!(report.steals, 0, "{policy}: a 1-shard cluster stole");
            assert_eq!(
                schedule_digest(&report.shards[0]),
                digest,
                "{policy} (preemption: {preemption}, stealing: {stealing}) \
                 diverged from the bare engine's golden schedule"
            );
            // Cluster-level accounting degenerates to the shard's own.
            assert_eq!(report.total_cycles, report.shards[0].total_cycles);
            assert_eq!(report.cluster_steps, report.shards[0].steps.len());
            assert_eq!(
                report.pooled().tokens_generated,
                report.shards[0].tokens_generated
            );
        }
    }
}

#[test]
fn four_shard_least_loaded_with_stealing_beats_one_shard_throughput() {
    // The acceptance bar: on the canonical skewed workload, four shards
    // under least-loaded routing with work stealing must finish the same
    // tokens in strictly fewer makespan cycles than a single engine.
    let single = serve_skewed_cluster(
        PolicyKind::Fifo,
        false,
        RetentionPolicy::None,
        1,
        RoutingKind::RoundRobin,
        false,
    );
    let four = serve_skewed_cluster(
        PolicyKind::Fifo,
        false,
        RetentionPolicy::None,
        4,
        RoutingKind::LeastLoaded,
        true,
    );
    let (single_pooled, four_pooled) = (single.pooled(), four.pooled());
    assert_eq!(single_pooled.tokens_generated, four_pooled.tokens_generated);
    assert!(
        four.total_cycles < single.total_cycles,
        "4-shard makespan {} must beat 1-shard {}",
        four.total_cycles,
        single.total_cycles
    );
    let clock_hz = 500e6;
    assert!(
        four_pooled.tokens_per_second(clock_hz) > single_pooled.tokens_per_second(clock_hz),
        "4 shards {:.1} tok/s must beat 1 shard {:.1} tok/s",
        four_pooled.tokens_per_second(clock_hz),
        single_pooled.tokens_per_second(clock_hz)
    );
    // Sharding spread the work: no shard did everything.
    assert!(four.shards.iter().all(|s| !s.requests.is_empty()));
}

/// Asserts two cluster runs produced the same schedule: per-shard
/// digests, makespan, step count and steal count all equal. Wall-clock
/// (`wall_seconds`) is deliberately *not* compared — it is the one
/// measured, run-varying field.
fn assert_same_schedule(left: &ClusterReport, right: &ClusterReport, label: &str) {
    assert_eq!(
        left.shards.len(),
        right.shards.len(),
        "{label}: shard count diverged"
    );
    for (shard, (l, r)) in left.shards.iter().zip(right.shards.iter()).enumerate() {
        assert_eq!(
            schedule_digest(l),
            schedule_digest(r),
            "{label}: shard {shard} schedule diverged"
        );
    }
    assert_eq!(left.steals, right.steals, "{label}: steals");
    assert_eq!(left.total_cycles, right.total_cycles, "{label}: makespan");
    assert_eq!(
        left.cluster_steps, right.cluster_steps,
        "{label}: step count"
    );
    assert_eq!(
        left.pooled().tokens_generated,
        right.pooled().tokens_generated,
        "{label}: tokens"
    );
}

/// The shared-prefix chat workload served by a cluster under the
/// canonical shared-prefix engine configuration (prefix cache on, prompt
/// prefill priced).
fn serve_shared_prefix_cluster(
    shards: usize,
    routing: RoutingKind,
    stealing: bool,
) -> ClusterReport {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let cfg = SharedPrefixChat::default().serving_config(accel);
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .shards(shards)
        .routing(routing)
        .stealing(stealing)
        .build();
    for r in SharedPrefixChat::default().generate(11) {
        cluster.enqueue(r).expect("valid request");
    }
    let report = cluster.run_to_completion(4096).expect("workload completes");
    for i in 0..cluster.shard_count() {
        cluster.shard(i).kv_pager().validate();
        assert_eq!(cluster.shard(i).kv_pager().allocated_pages(), 0);
    }
    report
}

#[test]
fn routing_policies_agree_on_results_and_affinity_recovers_the_hit_rate() {
    // Routing changes *placement*, never results: every policy must
    // generate the same tokens per request on the seeded shared-prefix
    // workload — and because shards share the engine seed, even each
    // request's attention bill is placement-independent.
    let reports: Vec<(RoutingKind, ClusterReport)> = RoutingKind::all()
        .into_iter()
        .map(|kind| (kind, serve_shared_prefix_cluster(4, kind, false)))
        .collect();
    let baseline: std::collections::HashMap<u64, (usize, u64)> = reports[0]
        .1
        .requests()
        .map(|(_, r)| (r.id, (r.generated, r.attention_cycles)))
        .collect();
    for (kind, report) in &reports {
        assert_eq!(
            report.requests().count(),
            baseline.len(),
            "{kind}: request count diverged"
        );
        for (_, r) in report.requests() {
            let &(generated, attention) = baseline.get(&r.id).expect("same request set");
            assert_eq!(r.generated, generated, "{kind}: request {} tokens", r.id);
            assert_eq!(
                r.attention_cycles, attention,
                "{kind}: request {} attention bill",
                r.id
            );
        }
    }

    // Per-shard prefix caches are independent, so round-robin scatters
    // each tenant's requests across shards and every shard re-prefills the
    // tenant prefix — while prefix-affinity keeps a tenant on one shard
    // and recovers (most of) the single-engine hit rate. Pin the margin.
    let rr = reports[0].1.pooled();
    let affinity = reports[2].1.pooled();
    assert_eq!(reports[0].0, RoutingKind::RoundRobin);
    assert_eq!(reports[2].0, RoutingKind::PrefixAffinity);
    assert!(
        affinity.prefix_hit_rate() >= rr.prefix_hit_rate() + 0.15,
        "affinity hit rate {:.3} must beat round-robin {:.3} by ≥ 0.15",
        affinity.prefix_hit_rate(),
        rr.prefix_hit_rate()
    );
    // And affinity's cluster prefill bill is accordingly strictly smaller.
    assert!(affinity.total_prefill_cycles() < rr.total_prefill_cycles());
}

#[test]
fn stealing_terminates_and_preserves_results_on_staggered_arrivals() {
    // Regression: the shared-prefix workload's staggered arrivals can
    // leave a donor with exactly one queued and one running request while
    // an equal-occupancy peer idles — the shape where an unbounded steal
    // loop used to ping-pong the queued request between the two shards
    // forever. Stealing must terminate and change placement only.
    let baseline = serve_shared_prefix_cluster(4, RoutingKind::RoundRobin, false);
    for kind in RoutingKind::all() {
        let stolen = serve_shared_prefix_cluster(4, kind, true);
        assert_eq!(
            stolen.pooled().tokens_generated,
            baseline.pooled().tokens_generated,
            "{kind}: stealing changed the work done"
        );
        assert_eq!(stolen.requests().count(), baseline.requests().count());
    }
}

// ---------------------------------------------------------------------------
// Scenario library + trace record/replay
// ---------------------------------------------------------------------------

/// Builds the trace meta for a scenario run: the scenario's canonical
/// engine shape, optionally with preemption (0.75 fractional retention)
/// and a cluster topology layered on top.
fn scenario_trace_meta(
    kind: ScenarioKind,
    seed: u64,
    policy: PolicyKind,
    preemption: bool,
    cluster: Option<(usize, RoutingKind, bool, usize)>,
) -> TraceMeta {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = kind.serving_config(accel);
    if preemption {
        cfg.preemption =
            PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
    }
    let mut meta = TraceMeta::new(&cfg, policy.name()).for_scenario(kind.name(), seed);
    if let Some((shards, routing, stealing, threads)) = cluster {
        meta = meta.for_cluster(shards, routing.name(), stealing, threads);
    }
    meta
}

/// Holds the [`Trace::digest`]s a test measured against its pinned table
/// — the absolute anchor under the record/replay fixed points, which only
/// compare a run with itself. On any difference the panic prints the
/// measured table in source form, so a planned re-baseline is one paste.
fn assert_pinned_digests(name: &str, pinned: &[(&str, u64)], measured: &[(impl AsRef<str>, u64)]) {
    let measured_rows = measured
        .iter()
        .map(|(label, digest)| (label.as_ref(), *digest));
    if !pinned.iter().copied().eq(measured_rows.clone()) {
        let rows: String = measured_rows
            .map(|(label, digest)| format!("    (\"{label}\", {digest}),\n"))
            .collect();
        panic!(
            "trace digests moved off {name}; if the schedule change is intended, paste:\n\
             #[rustfmt::skip]\nconst {name}: [(&str, u64); {}] = [\n{rows}];",
            measured.len()
        );
    }
}

#[rustfmt::skip]
const ENGINE_TRACE_DIGESTS: [(&str, u64); 30] = [
    ("skewed-elephant-mice/fifo", 7695721018704407052),
    ("skewed-elephant-mice/priority-aging", 16734795948753313829),
    ("skewed-elephant-mice/shortest-job-first", 14142668874489616921),
    ("skewed-elephant-mice/fair-round-robin", 1319941366024749611),
    ("skewed-elephant-mice/slo-aware", 7695721018704407052),
    ("shared-prefix-chat/fifo", 6632367937681308486),
    ("shared-prefix-chat/priority-aging", 1402199198359045352),
    ("shared-prefix-chat/shortest-job-first", 17192881911492563783),
    ("shared-prefix-chat/fair-round-robin", 15356414983588784830),
    ("shared-prefix-chat/slo-aware", 6632367937681308486),
    ("diurnal/fifo", 807625812873472182),
    ("diurnal/priority-aging", 13489329004913613816),
    ("diurnal/shortest-job-first", 807625812873472182),
    ("diurnal/fair-round-robin", 807625812873472182),
    ("diurnal/slo-aware", 4900938425656764440),
    ("multi-tenant-bursts/fifo", 574966290949569974),
    ("multi-tenant-bursts/priority-aging", 4311101082184868683),
    ("multi-tenant-bursts/shortest-job-first", 17484451511941420773),
    ("multi-tenant-bursts/fair-round-robin", 17470622896281486818),
    ("multi-tenant-bursts/slo-aware", 574966290949569974),
    ("agentic-tool-loops/fifo", 12624724275950720705),
    ("agentic-tool-loops/priority-aging", 12624724275950720705),
    ("agentic-tool-loops/shortest-job-first", 3699101525301348359),
    ("agentic-tool-loops/fair-round-robin", 12624724275950720705),
    ("agentic-tool-loops/slo-aware", 12624724275950720705),
    ("long-doc-summarize/fifo", 325448826345124573),
    ("long-doc-summarize/priority-aging", 325448826345124573),
    ("long-doc-summarize/shortest-job-first", 325448826345124573),
    ("long-doc-summarize/fair-round-robin", 325448826345124573),
    ("long-doc-summarize/slo-aware", 325448826345124573),
];

#[test]
fn engine_record_replay_record_is_a_fixed_point_for_every_scenario_and_policy() {
    // The tentpole correctness anchor on a bare engine: recording a run,
    // replaying the trace and recording the replay must reproduce the
    // event stream (and hence the digest) exactly — for every scenario
    // under every policy, with preemption + fractional retention on so
    // the Preempted/retained path is inside the fixed point.
    let mut digests = Vec::new();
    for kind in ScenarioKind::all() {
        let requests = kind.generate(11);
        for policy in PolicyKind::all() {
            let meta = scenario_trace_meta(kind, 11, policy, true, None);
            let (first, report_a) = run_recorded(&meta, &requests)
                .unwrap_or_else(|e| panic!("{kind}/{policy}: record failed: {e}"));
            digests.push((format!("{kind}/{policy}"), first.digest));
            let (second, report_b) = first
                .replay()
                .unwrap_or_else(|e| panic!("{kind}/{policy}: replay failed: {e}"));
            if let Some(diff) = first.diff(&second) {
                panic!("{kind}/{policy}: replay diverged from the recording:\n{diff}");
            }
            assert_eq!(first.digest, second.digest, "{kind}/{policy}: trace digest");
            assert_eq!(
                schedule_digest(&report_a.shards[0]),
                schedule_digest(&report_b.shards[0]),
                "{kind}/{policy}: schedule digest"
            );
        }
    }
    assert_pinned_digests("ENGINE_TRACE_DIGESTS", &ENGINE_TRACE_DIGESTS, &digests);
}

#[rustfmt::skip]
const CLUSTER_TRACE_DIGESTS: [(&str, u64); 24] = [
    ("skewed-elephant-mice/fifo/round-robin stealing=false threads=1", 15058203337788283737),
    ("skewed-elephant-mice/priority-aging/least-loaded stealing=false threads=4", 1303825385742383061),
    ("skewed-elephant-mice/shortest-job-first/prefix-affinity stealing=false threads=4", 1905686349679586349),
    ("skewed-elephant-mice/fair-round-robin/round-robin stealing=true threads=4", 9910054547826306016),
    ("shared-prefix-chat/fifo/least-loaded stealing=true threads=4", 14183663456755098955),
    ("shared-prefix-chat/priority-aging/prefix-affinity stealing=true threads=1", 15670458216194386498),
    ("shared-prefix-chat/shortest-job-first/round-robin stealing=true threads=1", 17017670218853729392),
    ("shared-prefix-chat/fair-round-robin/prefix-affinity stealing=false threads=1", 2528942791519145905),
    ("diurnal/fifo/round-robin stealing=false threads=1", 3014579036636424975),
    ("diurnal/priority-aging/least-loaded stealing=false threads=4", 9230176541455152157),
    ("diurnal/shortest-job-first/prefix-affinity stealing=false threads=4", 9668632105683398721),
    ("diurnal/fair-round-robin/round-robin stealing=true threads=4", 3014579036636424975),
    ("multi-tenant-bursts/fifo/least-loaded stealing=true threads=4", 4107345581125253929),
    ("multi-tenant-bursts/priority-aging/prefix-affinity stealing=true threads=1", 15412639935793890198),
    ("multi-tenant-bursts/shortest-job-first/round-robin stealing=true threads=1", 3130246223913998101),
    ("multi-tenant-bursts/fair-round-robin/prefix-affinity stealing=false threads=1", 14514822863069263289),
    ("agentic-tool-loops/fifo/round-robin stealing=false threads=1", 17735464381577816125),
    ("agentic-tool-loops/priority-aging/least-loaded stealing=false threads=4", 6806482774532131307),
    ("agentic-tool-loops/shortest-job-first/prefix-affinity stealing=false threads=4", 7328796777208591174),
    ("agentic-tool-loops/fair-round-robin/round-robin stealing=true threads=4", 6680972013662526767),
    ("long-doc-summarize/fifo/least-loaded stealing=true threads=4", 2516020653032600031),
    ("long-doc-summarize/priority-aging/prefix-affinity stealing=true threads=1", 2516020653032600031),
    ("long-doc-summarize/shortest-job-first/round-robin stealing=true threads=1", 4243185208978921828),
    ("long-doc-summarize/fair-round-robin/prefix-affinity stealing=false threads=1", 2516020653032600031),
];

#[test]
fn cluster_record_replay_is_a_fixed_point_across_routing_stealing_and_threads() {
    // Covering array over (policy, routing, stealing, threads) at four
    // shards: every policy, every router, both stealing settings and
    // threads ∈ {1, 4} all appear, paired so no dimension hides behind a
    // fixed partner. Each scenario runs half the combos (offset by its
    // index), so every combo is still exercised by three scenarios — the
    // full cross product would quintuple the runtime without covering
    // anything these pairings miss.
    const COMBOS: [(PolicyKind, RoutingKind, bool, usize); 8] = [
        (PolicyKind::Fifo, RoutingKind::RoundRobin, false, 1),
        (PolicyKind::Fifo, RoutingKind::LeastLoaded, true, 4),
        (
            PolicyKind::PriorityAging,
            RoutingKind::LeastLoaded,
            false,
            4,
        ),
        (
            PolicyKind::PriorityAging,
            RoutingKind::PrefixAffinity,
            true,
            1,
        ),
        (
            PolicyKind::ShortestJobFirst,
            RoutingKind::PrefixAffinity,
            false,
            4,
        ),
        (
            PolicyKind::ShortestJobFirst,
            RoutingKind::RoundRobin,
            true,
            1,
        ),
        (PolicyKind::FairRoundRobin, RoutingKind::RoundRobin, true, 4),
        (
            PolicyKind::FairRoundRobin,
            RoutingKind::PrefixAffinity,
            false,
            1,
        ),
    ];
    let mut digests = Vec::new();
    for (i, kind) in ScenarioKind::all().iter().copied().enumerate() {
        let requests = kind.generate(11);
        for (j, &(policy, routing, stealing, threads)) in COMBOS.iter().enumerate() {
            if (i + j) % 2 != 0 {
                continue;
            }
            let label = format!("{kind}/{policy}/{routing} stealing={stealing} threads={threads}");
            let meta = scenario_trace_meta(
                kind,
                11,
                policy,
                true,
                Some((4, routing, stealing, threads)),
            );
            let (first, report_a) =
                run_recorded(&meta, &requests).unwrap_or_else(|e| panic!("{label}: record: {e}"));
            let (second, report_b) = first
                .replay()
                .unwrap_or_else(|e| panic!("{label}: replay: {e}"));
            if let Some(diff) = first.diff(&second) {
                panic!("{label}: replay diverged from the recording:\n{diff}");
            }
            assert_eq!(first.digest, second.digest, "{label}: trace digest");
            assert_same_schedule(&report_a, &report_b, &label);
            digests.push((label, first.digest));
        }
    }
    assert_pinned_digests("CLUSTER_TRACE_DIGESTS", &CLUSTER_TRACE_DIGESTS, &digests);
}

#[rustfmt::skip]
const AGENTIC_TRACE_DIGESTS: [(&str, u64); 2] = [
    ("round-robin", 17735464381577816125),
    ("prefix-affinity", 7328796777208591174),
];

#[test]
fn agentic_scenario_affinity_beats_round_robin_by_the_pinned_margin() {
    // The agentic tool-call loops re-submit growing per-session prefixes,
    // so prefix-affinity routing keeps each session's pages on one shard
    // while round-robin scatters them across all four and hits nothing.
    // The margin is pinned well below the measured gap (0.544 vs 0.0 at
    // seed 11) so modeling drift trips it before the effect disappears.
    let kind = ScenarioKind::AgenticToolLoops;
    let requests = kind.generate(11);
    let run = |routing: RoutingKind| {
        let meta = scenario_trace_meta(
            kind,
            11,
            PolicyKind::Fifo,
            false,
            Some((4, routing, false, 1)),
        );
        run_recorded(&meta, &requests).unwrap_or_else(|e| panic!("{routing}: run failed: {e}"))
    };
    let (round_robin_trace, round_robin) = run(RoutingKind::RoundRobin);
    let (affinity_trace, affinity) = run(RoutingKind::PrefixAffinity);
    assert_pinned_digests(
        "AGENTIC_TRACE_DIGESTS",
        &AGENTIC_TRACE_DIGESTS,
        &[
            ("round-robin", round_robin_trace.digest),
            ("prefix-affinity", affinity_trace.digest),
        ],
    );
    let (affinity, round_robin) = (affinity.pooled(), round_robin.pooled());
    assert_eq!(
        affinity.tokens_generated, round_robin.tokens_generated,
        "routing must change placement, not the work done"
    );
    assert!(
        affinity.prefix_hit_rate() >= round_robin.prefix_hit_rate() + 0.30,
        "affinity hit rate {:.3} does not clear round-robin {:.3} by 0.30",
        affinity.prefix_hit_rate(),
        round_robin.prefix_hit_rate()
    );
}

// ---------------------------------------------------------------------------
// Chunked prefill + SLO-aware scheduling
// ---------------------------------------------------------------------------

/// The canonical skewed workload with a chunked-prefill budget layered on
/// the [`serve_skewed_with_retention`] engine shape.
fn serve_skewed_chunked(
    policy: PolicyKind,
    preemption: bool,
    retention: RetentionPolicy,
    chunk_pages: usize,
) -> ServingReport {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut builder = ServingEngine::builder(accel)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(4)
        .max_batch_tokens(2200)
        .seed(7)
        .policy(policy)
        .prefill_chunk_pages(chunk_pages);
    if preemption {
        builder = builder.enable_preemption().retention(retention);
    }
    let mut engine = builder.build();
    for r in SkewedElephantMice::default().generate(0) {
        engine.enqueue(r).expect("valid request");
    }
    engine.run_to_completion(2048).expect("workload completes")
}

/// Records the long-doc-summarize scenario (the canonical chunked-prefill
/// workload: 384-816 token prompts, prefill priced at full weight, every
/// request carrying TTFT/ITL deadlines) through the trace layer, with the
/// chunk budget, policy, preemption, arrival compression and cluster
/// topology under test.
fn long_doc_recorded(
    docs: u64,
    policy: PolicyKind,
    chunk_pages: usize,
    preemption: bool,
    zero_arrivals: bool,
    cluster: Option<(usize, RoutingKind)>,
) -> (Trace, ClusterReport) {
    use token_picker::accel::serve::scenario::{LongDocSummarize, Scenario};

    let scenario = LongDocSummarize { docs };
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = scenario.serving_config(accel);
    cfg.prefill_chunk_pages = chunk_pages;
    if preemption {
        cfg.preemption =
            PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
    }
    let mut meta =
        TraceMeta::new(&cfg, policy.name()).for_scenario(ScenarioKind::LongDocSummarize.name(), 11);
    if let Some((shards, routing)) = cluster {
        meta = meta.for_cluster(shards, routing.name(), false, 1);
    }
    let mut requests = scenario.generate(11);
    if zero_arrivals {
        for r in &mut requests {
            *r = r.arriving_at(0);
        }
    }
    run_recorded(&meta, &requests)
        .unwrap_or_else(|e| panic!("long-doc run (chunk {chunk_pages}) failed: {e}"))
}

fn engine_report(mut report: ClusterReport, label: &str) -> ServingReport {
    assert_eq!(report.shards.len(), 1, "{label}: expected a one-shard run");
    report.shards.remove(0)
}

#[test]
fn finite_but_unbinding_chunk_budgets_reproduce_every_golden_schedule() {
    // The equivalence matrix's first face: on the canonical skewed
    // workload prefill is unpriced (`prefill_factor` 0), so *no* chunk
    // budget — generous or absurdly tight — may perturb the schedule.
    // Every policy × preemption golden must come back bit-identical under
    // both a never-binding budget and a 1-page budget.
    for &(policy, preemption, digest) in &GOLDEN_POLICY_DIGESTS {
        for chunk_pages in [1024, 1] {
            let report = serve_skewed_chunked(
                policy,
                preemption,
                RetentionPolicy::Fraction(0.75),
                chunk_pages,
            );
            assert_eq!(
                schedule_digest(&report),
                digest,
                "{policy} (preemption: {preemption}, chunk: {chunk_pages} pages) \
                 diverged from the PR 3 golden schedule"
            );
        }
    }
}

#[test]
fn unbinding_chunk_budget_is_event_identical_on_priced_prefill_for_every_policy() {
    // The matrix's second face, where prefill actually costs cycles: the
    // long-doc scenario prices prefill at full weight, and its batch
    // budget is 2048 tokens = 128 pages — so a 128-page chunk budget can
    // never bind. For every policy, with and without preemption, the
    // finite-budget run must replay the unlimited run's event stream (and
    // digest) exactly.
    for policy in PolicyKind::all() {
        for preemption in [false, true] {
            let label = format!("{policy} (preemption: {preemption})");
            let (unlimited, report_a) = long_doc_recorded(8, policy, 0, preemption, false, None);
            let (bounded, report_b) = long_doc_recorded(8, policy, 128, preemption, false, None);
            assert_eq!(
                unlimited.digest,
                bounded.digest,
                "{label}: trace digest moved under an unbinding budget:\n{}",
                unlimited.diff(&bounded).unwrap_or_default()
            );
            assert_eq!(unlimited.events, bounded.events, "{label}: event stream");
            let a = engine_report(report_a, &label);
            let b = engine_report(report_b, &label);
            assert_eq!(
                schedule_digest(&a),
                schedule_digest(&b),
                "{label}: schedule digest"
            );
        }
    }
}

#[test]
fn unbinding_chunk_budget_is_schedule_identical_across_every_router() {
    // The matrix's cluster face: at four shards, each router must produce
    // the same per-shard schedules whether the budget is unlimited or
    // finite-but-unbinding.
    for routing in RoutingKind::all() {
        let label = format!("cluster/{routing}");
        let (unlimited, report_a) =
            long_doc_recorded(8, PolicyKind::Fifo, 0, false, false, Some((4, routing)));
        let (bounded, report_b) =
            long_doc_recorded(8, PolicyKind::Fifo, 128, false, false, Some((4, routing)));
        assert_eq!(
            unlimited.digest,
            bounded.digest,
            "{label}: trace digest moved under an unbinding budget:\n{}",
            unlimited.diff(&bounded).unwrap_or_default()
        );
        assert_same_schedule(&report_a, &report_b, &label);
    }
}

#[test]
fn chunked_prefill_conserves_tokens_and_the_exact_prefill_bill() {
    // Chunk charges telescope: splitting a prompt across pure-prefill
    // steps must leave every request's generated-token count *and* its
    // total prefill bill exactly where the one-lump engine put them — the
    // budget reshapes when the cycles land, never how many there are.
    let unchunked = engine_report(
        long_doc_recorded(8, PolicyKind::Fifo, 0, false, false, None).1,
        "unchunked",
    );
    let chunked = engine_report(
        long_doc_recorded(8, PolicyKind::Fifo, 8, false, false, None).1,
        "chunked",
    );
    assert_eq!(unchunked.tokens_generated, chunked.tokens_generated);
    assert_eq!(unchunked.requests.len(), chunked.requests.len());
    for lump in &unchunked.requests {
        let split = chunked
            .requests
            .iter()
            .find(|r| r.id == lump.id)
            .expect("request finished under chunking");
        assert_eq!(
            split.generated, lump.generated,
            "request {}: tokens",
            lump.id
        );
        assert_eq!(
            split.prefill_cycles, lump.prefill_cycles,
            "request {}: chunk charges must telescope to the lump prefill bill",
            lump.id
        );
        assert_eq!(
            split.attention_cycles, lump.attention_cycles,
            "request {}: decode attention is untouched by chunking",
            lump.id
        );
    }
    // Chunking genuinely spread the work: more, smaller steps.
    assert!(chunked.steps.len() > unchunked.steps.len());
}

#[rustfmt::skip]
const LONG_DOC_TRACE_DIGESTS: [(&str, u64); 2] = [
    ("chunk-0", 325448826345124573),
    ("chunk-8", 5383233424892309375),
];

#[test]
fn chunked_prefill_cuts_the_max_decode_stall_at_least_3x_at_equal_tokens() {
    // The acceptance bar: on long-doc-summarize an 816-token prompt lands
    // a 712-cycle prefill lump into whatever step admits it, stalling
    // every co-resident decode. An 8-page (128-token) budget caps the
    // worst per-step prefill charge at 144 cycles (measured at seed 11;
    // pinned at the required 3x, well under the observed 4.9x) without
    // changing a single generated token.
    let (unchunked_trace, unchunked) =
        long_doc_recorded(8, PolicyKind::Fifo, 0, false, false, None);
    let (chunked_trace, chunked) = long_doc_recorded(8, PolicyKind::Fifo, 8, false, false, None);
    assert_pinned_digests(
        "LONG_DOC_TRACE_DIGESTS",
        &LONG_DOC_TRACE_DIGESTS,
        &[
            ("chunk-0", unchunked_trace.digest),
            ("chunk-8", chunked_trace.digest),
        ],
    );
    let unchunked = engine_report(unchunked, "unchunked");
    let chunked = engine_report(chunked, "chunked");
    assert_eq!(unchunked.tokens_generated, chunked.tokens_generated);
    let (lump, capped) = (
        unchunked.max_prefill_stall_cycles(),
        chunked.max_prefill_stall_cycles(),
    );
    assert!(capped > 0, "chunked run charged no prefill at all");
    assert!(
        lump >= 3 * capped,
        "max decode-step prefill stall must drop >= 3x: {lump} unchunked vs {capped} chunked"
    );
}

#[test]
fn prefill_chunk_events_walk_a_monotone_frontier_to_the_prompt_boundary() {
    use std::collections::HashMap;
    use token_picker::accel::serve::scenario::{LongDocSummarize, Scenario};

    // Every chunk event advances its request's frontier strictly, the
    // frontier and remainder always tile the prompt exactly, and no chunk
    // is ever built after the request's first token (the step completing
    // the prompt emits TokenGenerated instead). Unlimited budgets emit no
    // chunk events at all.
    let prompts: HashMap<u64, usize> = LongDocSummarize { docs: 8 }
        .generate(11)
        .into_iter()
        .map(|r| (r.id, r.prompt_len))
        .collect();
    let (trace, _) = long_doc_recorded(8, PolicyKind::Fifo, 4, false, false, None);
    let mut frontier: HashMap<u64, usize> = HashMap::new();
    let mut first_token: HashMap<u64, usize> = HashMap::new();
    let mut chunk_events = 0usize;
    for event in &trace.events {
        let ClusterEvent::Shard { event, .. } = *event else {
            continue;
        };
        match event {
            ServeEvent::PrefillChunk {
                id,
                step,
                built_tokens,
                remaining_tokens,
            } => {
                chunk_events += 1;
                assert!(
                    !first_token.contains_key(&id),
                    "request {id}: chunk built at step {step} after its first token"
                );
                let prev = frontier.insert(id, built_tokens).unwrap_or(0);
                assert!(
                    built_tokens > prev,
                    "request {id}: frontier moved {prev} -> {built_tokens}"
                );
                assert_eq!(
                    built_tokens + remaining_tokens,
                    prompts[&id],
                    "request {id}: frontier + remainder must tile the prompt"
                );
                assert!(remaining_tokens > 0, "a completing chunk decodes instead");
            }
            ServeEvent::TokenGenerated { id, step, .. } => {
                first_token.entry(id).or_insert(step);
            }
            _ => {}
        }
    }
    assert!(chunk_events > 0, "a 4-page budget must split these prompts");
    // Unlimited budget: whole-prompt prefill, zero chunk events.
    let (unlimited, _) = long_doc_recorded(8, PolicyKind::Fifo, 0, false, false, None);
    assert!(
        !unlimited.events.iter().any(|e| matches!(
            e,
            ClusterEvent::Shard {
                event: ServeEvent::PrefillChunk { .. },
                ..
            }
        )),
        "unlimited chunking must never emit PrefillChunk"
    );
}

#[test]
fn engine_attention_equals_the_public_full_path_under_chunked_prefill() {
    use std::collections::HashMap;
    use token_picker::accel::ToPickAccelerator;
    use token_picker::core::{PruneStats, QVector, QuantBuffer};
    use token_picker::model::{SynthInstance, SynthProfile};

    // The engine generates keys only, asks the accelerator for the step's
    // cost only, and shares one simulation between a prompt's chunks and
    // its first token. What it reports must still be what the public full
    // path — values drawn, output computed, the path the benchmark's
    // shadow calls re-execute from outside — yields for every token.
    let accel_cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let (heads, seed) = (4usize, 7u64);
    let mut engine = ServingEngine::builder(accel_cfg.clone())
        .heads(heads)
        .weight_bytes(10_000_000)
        .max_batch(3)
        .max_batch_tokens(4096)
        .page_size(16)
        .prefill_factor(1.0)
        .prefill_chunk_pages(4)
        .seed(seed)
        .build();
    for id in 0..4u64 {
        // 64-token chunks under 160-280-token prompts: three to five each.
        let request = ServingRequest::new(id, 160 + 40 * id as usize, 3);
        engine.enqueue(request).expect("valid request");
    }
    let report = engine.run_to_completion(256).expect("completes");

    let accel = ToPickAccelerator::new(accel_cfg.clone());
    let (dim, pc) = (accel_cfg.dim, accel_cfg.precision);
    let mut key_buf = QuantBuffer::new();
    let mut attention_cycles = vec![0u64; report.steps.len()];
    let mut prune = PruneStats::new(0, pc.num_chunks());
    let mut chunk_events: HashMap<u64, usize> = HashMap::new();
    for event in engine.events() {
        match *event {
            ServeEvent::PrefillChunk { id, .. } => *chunk_events.entry(id).or_default() += 1,
            ServeEvent::TokenGenerated {
                id, step, context, ..
            } => {
                let instance_seed = seed
                    .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((context as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
                let inst =
                    SynthInstance::generate(&SynthProfile::realistic(context, dim), instance_seed);
                let q = QVector::quantize(&inst.query, pc);
                let keys = key_buf
                    .quantize(inst.keys().data(), dim, pc)
                    .expect("a generated instance is never empty");
                let full = accel
                    .run_attention(&q, &keys, inst.values())
                    .expect("shapes come from one instance");
                key_buf.reclaim(keys);
                attention_cycles[step] += full.cycles * heads as u64;
                prune.merge(&full.prune);
            }
            _ => {}
        }
    }
    for id in 0..4u64 {
        // Two pure-prefill chunks and the completing one at the least.
        let chunks = chunk_events.get(&id).copied().unwrap_or(0);
        assert!(chunks >= 2, "request {id}: {chunks} prefill chunks");
    }
    assert_eq!(report.tokens_generated, 12);
    for (step, expected) in report.steps.iter().zip(attention_cycles) {
        assert_eq!(step.attention_cycles, expected, "step {}", step.index);
    }
    assert_eq!(report.prune, prune);
}

#[test]
fn ttft_is_judged_at_the_first_token_not_at_admission() {
    // One 256-token prompt with a 3-step TTFT deadline, admitted at step 0
    // either way. Unchunked, prefill and the first token land in step 0:
    // TTFT 1, attained. Under a 2-page (32-token) budget the first token
    // waits for 7 pure-prefill steps: TTFT 8 blows the deadline even
    // though admission was just as instant — and every token the request
    // goes on to generate is excluded from goodput.
    let run = |chunk_pages: usize| {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut engine = ServingEngine::builder(accel)
            .heads(4)
            .weight_bytes(10_000_000)
            .max_batch(2)
            .max_batch_tokens(2048)
            .page_size(16)
            .prefill_factor(1.0)
            .prefill_chunk_pages(chunk_pages)
            .seed(7)
            .build();
        engine
            .enqueue(ServingRequest::new(0, 256, 4).with_ttft_deadline(3))
            .expect("valid request");
        engine.run_to_completion(256).expect("completes")
    };

    let instant = run(0);
    let delayed = run(2);
    for (label, report) in [("unchunked", &instant), ("chunked", &delayed)] {
        let r = &report.requests[0];
        assert_eq!(r.admitted_at, Some(0), "{label}: admission was instant");
        assert_eq!(r.generated, 4, "{label}: the deadline never stops decoding");
    }

    let on_time = &instant.requests[0];
    assert!(!on_time.slo_violated);
    assert_eq!(on_time.first_token_at, Some(0));
    assert_eq!(on_time.good_tokens, on_time.generated);
    assert!((instant.deadline_attainment() - 1.0).abs() < f64::EPSILON);

    let late = &delayed.requests[0];
    assert!(late.slo_violated, "TTFT must be judged at the first token");
    assert!(late.first_token_at.unwrap() + 1 > 3, "first token was late");
    assert_eq!(
        late.good_tokens, 0,
        "a missed TTFT means even the first token was already late"
    );
    assert_eq!(delayed.deadline_attainment(), 0.0);
    assert_eq!(delayed.total_good_tokens(), 0);
    assert!(delayed.goodput_tokens_per_second(500e6) == 0.0);
}

#[test]
fn deadline_free_requests_trivially_attain_and_count_every_token_as_good() {
    // The mixed workload predates SLOs entirely: with no deadlines
    // declared, attainment is vacuously perfect and goodput equals
    // throughput.
    let report = serve(AccelMode::OutOfOrder, 1e-3);
    assert!(report.requests.iter().all(|r| !r.has_deadline()));
    assert!((report.deadline_attainment() - 1.0).abs() < f64::EPSILON);
    assert_eq!(report.total_good_tokens(), report.tokens_generated);
    for r in &report.requests {
        assert!(!r.slo_violated);
        assert_eq!(r.good_tokens, r.generated);
    }
}

#[test]
fn a_blown_inter_token_deadline_stops_goodput_but_not_generation() {
    // Request 0 decodes with a 2-step inter-token deadline; a
    // higher-priority arrival preempts it from the single slot, and the
    // re-admission gap blows the ITL budget. Its early tokens stay good,
    // everything after the gap does not, and generation still runs to the
    // target.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut engine = ServingEngine::builder(accel)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(1)
        .max_batch_tokens(2048)
        .seed(7)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .build();
    engine
        .enqueue(
            ServingRequest::new(0, 64, 8)
                .with_priority(0)
                .with_itl_deadline(2),
        )
        .expect("valid request");
    engine
        .enqueue(
            ServingRequest::new(1, 64, 2)
                .with_priority(5)
                .arriving_at(2),
        )
        .expect("valid request");
    let report = engine.run_to_completion(256).expect("completes");
    assert!(report.preemptions > 0, "the arrival must evict the decoder");

    let victim = report
        .requests
        .iter()
        .find(|r| r.id == 0)
        .expect("finished");
    assert_eq!(victim.generated, 8, "a blown SLO never stops decoding");
    assert!(
        victim.slo_violated,
        "the re-admission gap blew the ITL budget"
    );
    assert!(
        victim.good_tokens >= 1 && victim.good_tokens < victim.generated,
        "pre-gap tokens stay good, post-gap tokens do not: {} of {}",
        victim.good_tokens,
        victim.generated
    );

    let usurper = report
        .requests
        .iter()
        .find(|r| r.id == 1)
        .expect("finished");
    assert!(
        !usurper.slo_violated,
        "the deadline-free usurper can't violate"
    );
    assert!(report.deadline_attainment() < 1.0);
}

#[test]
fn slo_aware_preempts_on_slack_where_deadline_blind_policies_sit_still() {
    // Sixteen long documents arriving simultaneously into three slots:
    // the SLO-aware policy sees negative-slack arrivals and evicts the
    // slackest residents, while FIFO and SJF (preemption *enabled* but
    // deadline-blind) never find a victim worth the re-prefill.
    let run = |policy: PolicyKind| {
        engine_report(
            long_doc_recorded(16, policy, 0, true, true, None).1,
            policy.name(),
        )
    };
    let fifo = run(PolicyKind::Fifo);
    let sjf = run(PolicyKind::ShortestJobFirst);
    let slo = run(PolicyKind::SloAware);
    assert_eq!(fifo.preemptions, 0);
    assert_eq!(sjf.preemptions, 0);
    assert!(
        slo.preemptions > 0,
        "SLO-aware scheduling must preempt on slack under deadline pressure"
    );
    // Same tokens delivered regardless of who got evicted along the way.
    assert_eq!(slo.tokens_generated, fifo.tokens_generated);
}

#[test]
fn slo_aware_beats_sjf_on_ttft_p99_under_contention_at_equal_tokens() {
    // Sixteen simultaneous documents through a 16-page chunk budget: SJF
    // orders by remaining work, so the longest documents queue behind
    // every shorter one and the TTFT tail stretches; deadline-ordered
    // admission bounds it. Equal tokens either way — the policies move
    // latency, not work (56 tokens, p99 39 vs 40 steps at seed 11).
    let sjf = engine_report(
        long_doc_recorded(16, PolicyKind::ShortestJobFirst, 16, false, true, None).1,
        "sjf",
    );
    let slo = engine_report(
        long_doc_recorded(16, PolicyKind::SloAware, 16, false, true, None).1,
        "slo",
    );
    assert_eq!(sjf.tokens_generated, slo.tokens_generated, "equal work");
    assert!(
        slo.ttft_p99_steps() < sjf.ttft_p99_steps(),
        "SLO-aware TTFT p99 {} must beat SJF {}",
        slo.ttft_p99_steps(),
        sjf.ttft_p99_steps()
    );
}

#[test]
fn trace_diff_pinpoints_the_first_divergence_between_recorded_runs() {
    // Identical runs diff to None; runs that genuinely diverge (an 8-page
    // budget against unlimited) are localized to their first differing
    // event with `<`/`>` markers — the same report `topick trace diff`
    // prints and replay-digest failures embed.
    let (a, _) = long_doc_recorded(8, PolicyKind::Fifo, 0, false, false, None);
    let (same, _) = long_doc_recorded(8, PolicyKind::Fifo, 0, false, false, None);
    assert_eq!(a.diff(&same), None, "identical runs must not diff");

    let (b, _) = long_doc_recorded(8, PolicyKind::Fifo, 8, false, false, None);
    let report = a.diff(&b).expect("an 8-page budget changes the schedule");
    assert!(
        report.contains("diverge at event"),
        "diff must localize the divergence:\n{report}"
    );
    assert!(
        report.contains("< ["),
        "diff must print the left event:\n{report}"
    );
    assert!(
        report.contains("> ["),
        "diff must print the right event:\n{report}"
    );
    assert!(
        report.contains("note: trace metas differ"),
        "the chunk budget lives in the meta, so the diff must flag it:\n{report}"
    );
}

#[test]
fn golden_trace_replays_to_its_recorded_digest() {
    // Golden regression: a trace recorded by `topick serve --record` is
    // checked in under tests/data/; replaying it must land on the digest
    // in its own footer. Any schedule-affecting change to the engine,
    // cluster, policies, routing or stealing shows up here as a diff
    // against a file in the repo rather than a silently moved digest.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/agentic_affinity_cluster.trace"
    );
    let golden = Trace::load(path).expect("golden trace loads and verifies");
    let (trace, report) = golden
        .replay_verified()
        .expect("replay reproduces the recording");
    assert_eq!(
        trace.digest, golden.digest,
        "replay digest moved off the golden"
    );
    assert_eq!(report.shards.len(), 4);
    assert!(report.pooled().tokens_generated > 0);
}

// ---------------------------------------------------------------------------
// Tiered KV memory: host swap, cross-shard shipping, SLO rejection
// ---------------------------------------------------------------------------

/// The canonical skewed workload on the [`serve_skewed_with_retention`]
/// engine shape (priority-aging, preemption, 0.75 paged retention) with
/// the host tier configured.
fn serve_skewed_tiered(host_pages: usize, swap_cost_factor: f64) -> ServingReport {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = ServingConfig::new(accel);
    cfg.swap_cost_factor = swap_cost_factor;
    let mut engine = ServingEngine::builder(cfg.accel.clone())
        .config(cfg)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(4)
        .max_batch_tokens(2200)
        .seed(7)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.75))
        .host_pages(host_pages)
        .build();
    for r in SkewedElephantMice::default().generate(0) {
        engine.enqueue(r).expect("valid request");
    }
    let report = engine.run_to_completion(2048).expect("workload completes");
    engine.kv_pager().validate();
    assert_eq!(engine.kv_pager().allocated_pages(), 0);
    assert_eq!(
        engine.kv_pager().host_pages_used(),
        0,
        "the host tier must drain with the run"
    );
    report
}

#[test]
fn tier_off_cost_factors_reproduce_every_golden_schedule() {
    // The tiered equivalence face: with `host_pages` 0 the host tier is
    // off no matter how the cost factors are set, the ship factor is
    // meaningless on a bare engine, and the rejection flag has nothing to
    // reject in a deadline-free workload — every golden must come back
    // bit-identical with all three configured.
    for &(policy, preemption, digest) in &GOLDEN_POLICY_DIGESTS {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut cfg = ServingConfig::new(accel);
        cfg.swap_cost_factor = 0.1;
        cfg.ship_cost_factor = 0.25;
        cfg.reject_expired_ttft = true;
        let mut builder = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .heads(4)
            .weight_bytes(10_000_000)
            .max_batch(4)
            .max_batch_tokens(2200)
            .seed(7)
            .policy(policy)
            .host_pages(0);
        if preemption {
            builder = builder
                .enable_preemption()
                .retention(RetentionPolicy::Fraction(0.75));
        }
        let mut engine = builder.build();
        for r in SkewedElephantMice::default().generate(0) {
            engine.enqueue(r).expect("valid request");
        }
        let report = engine.run_to_completion(2048).expect("workload completes");
        assert_eq!(report.total_swap_cycles(), 0, "{policy}: phantom swap bill");
        assert_eq!(report.total_ship_cycles(), 0, "{policy}: phantom ship bill");
        assert_eq!(report.rejections, 0, "{policy}: deadline-free rejection");
        assert_eq!(
            schedule_digest(&report),
            digest,
            "{policy} (preemption: {preemption}) diverged with tier-off factors set"
        );
    }
}

#[test]
fn host_swap_strictly_beats_drop_and_reprefill_at_equal_tokens() {
    // The swap-cost crossover: evicted KV copied back from the host tier
    // at a quarter of the re-prefill price must strictly cut total cycles
    // at equal tokens on the canonical skewed workload — and copy-back
    // priced *above* re-prefill (1.5x) must strictly cost more, so the
    // tier is a priced trade-off, not a free lunch.
    let dropped = serve_skewed_with_retention(
        PolicyKind::PriorityAging,
        true,
        RetentionPolicy::Fraction(0.75),
    );
    assert!(dropped.preemptions > 0, "no evictions — nothing to compare");

    let swapped = serve_skewed_tiered(1024, 0.25);
    assert_eq!(swapped.tokens_generated, dropped.tokens_generated);
    assert_eq!(
        swapped.preemptions, dropped.preemptions,
        "pricing copy-back must not change the schedule's shape"
    );
    assert!(
        swapped.total_swapped_tokens() > 0,
        "nothing was copied back"
    );
    assert!(swapped.total_swap_cycles() > 0, "copy-back must be priced");
    assert!(
        swapped.total_reprefill_cycles() < dropped.total_reprefill_cycles(),
        "swapping in must displace re-prefill: {} vs {} cycles",
        swapped.total_reprefill_cycles(),
        dropped.total_reprefill_cycles()
    );
    assert!(
        swapped.total_cycles < dropped.total_cycles,
        "cheap copy-back must beat drop-and-reprefill: {} vs {} cycles",
        swapped.total_cycles,
        dropped.total_cycles
    );

    let overpriced = serve_skewed_tiered(1024, 1.5);
    assert_eq!(overpriced.tokens_generated, dropped.tokens_generated);
    assert!(
        overpriced.total_cycles > dropped.total_cycles,
        "copy-back above the re-prefill price must lose: {} vs {} cycles",
        overpriced.total_cycles,
        dropped.total_cycles
    );
}

#[test]
fn swap_events_account_for_every_copied_back_token() {
    use token_picker::accel::serve::scenario::{Scenario, SkewedElephantMice};

    // Record the tiered skewed run through the trace layer: SwappedOut/
    // SwappedIn must replay to the same digest, and the SwappedIn event
    // tokens must sum to exactly the copy-back the requests were billed.
    let scenario = SkewedElephantMice {
        elephants: 4,
        mice: 12,
    };
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = scenario.serving_config(accel);
    cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
    cfg.host_pages = 1024;
    cfg.swap_cost_factor = 0.25;
    let meta = TraceMeta::new(&cfg, PolicyKind::PriorityAging.name());
    let requests = scenario.generate(0);
    let (first, report) = run_recorded(&meta, &requests).expect("tiered run records");
    let (second, _) = first.replay().expect("tiered trace replays");
    if let Some(diff) = first.diff(&second) {
        panic!("tiered replay diverged from the recording:\n{diff}");
    }
    assert_eq!(
        first.digest, second.digest,
        "swap events must digest stably"
    );

    let report = engine_report(report, "tiered skewed");
    let (mut out_tokens, mut in_tokens) = (0usize, 0usize);
    for e in &first.events {
        let ClusterEvent::Shard { event, .. } = *e else {
            continue;
        };
        match event {
            ServeEvent::SwappedOut { tokens, .. } => out_tokens += tokens,
            ServeEvent::SwappedIn { tokens, .. } => in_tokens += tokens,
            _ => {}
        }
    }
    assert!(out_tokens > 0, "no eviction ever swapped KV out");
    assert!(in_tokens > 0, "no re-admission ever copied KV back");
    assert!(
        in_tokens <= out_tokens,
        "cannot copy back more than was swapped out: {in_tokens} vs {out_tokens}"
    );
    assert_eq!(
        in_tokens,
        report.total_swapped_tokens(),
        "SwappedIn events and per-request accounting must agree"
    );
    assert!(report.total_swap_cycles() > 0);
}

#[test]
fn residency_soak_validates_every_step_across_scenarios_and_policies() {
    // Every pager and every request's KV residency, checked after every
    // step of every scenario under every policy, with everything that
    // moves KV switched on at once: preemption with fractional retention,
    // a host tier small enough to refuse and partially grant swaps, and
    // priced, chunked prefill (so victims are also evicted mid-prompt).
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let (mut preemptions, mut swapped_out, mut chunks) = (0usize, 0usize, 0usize);
    for kind in ScenarioKind::all() {
        let requests = kind.generate(11);
        for policy in PolicyKind::all() {
            let mut cfg = kind.serving_config(accel.clone());
            cfg.preemption =
                PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.6));
            cfg.host_pages = 6;
            cfg.prefill_factor = 1.0;
            cfg.prefill_chunk_pages = 3;
            let mut engine = ServingEngine::builder(accel.clone())
                .config(cfg)
                .policy(policy)
                .build();
            for req in &requests {
                engine.enqueue(*req).expect("valid request");
            }
            engine.validate();
            let mut steps = 0;
            while engine
                .step()
                .unwrap_or_else(|e| panic!("{kind}/{policy}: step failed: {e}"))
                .is_some()
            {
                engine.validate();
                steps += 1;
                assert!(steps < 100_000, "{kind}/{policy}: failed to drain");
            }
            let pager = engine.kv_pager();
            assert_eq!(pager.allocated_pages(), 0, "{kind}/{policy}: pages leaked");
            assert_eq!(pager.host_pages_used(), 0, "{kind}/{policy}: host leaked");
            preemptions += engine.report().preemptions;
            for e in engine.events() {
                match e {
                    ServeEvent::SwappedOut { tokens, .. } => swapped_out += tokens,
                    ServeEvent::PrefillChunk { .. } => chunks += 1,
                    _ => {}
                }
            }
        }
    }
    // The soak is only worth its time if the paths it guards actually ran.
    assert!(preemptions > 0, "no scenario ever preempted");
    assert!(swapped_out > 0, "no eviction ever reached the host tier");
    assert!(chunks > 0, "no prompt was ever built in chunks");
}

/// The shared-prefix chat workload on a 4-shard round-robin cluster with
/// prefix-pull shipping priced at `ship`.
fn serve_shared_prefix_cluster_shipped(ship: f64) -> ClusterReport {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = SharedPrefixChat::default().serving_config(accel);
    cfg.ship_cost_factor = ship;
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .shards(4)
        .routing(RoutingKind::RoundRobin)
        .stealing(false)
        .build();
    for r in SharedPrefixChat::default().generate(11) {
        cluster.enqueue(r).expect("valid request");
    }
    let report = cluster.run_to_completion(4096).expect("workload completes");
    for i in 0..cluster.shard_count() {
        cluster.shard(i).kv_pager().validate();
        assert_eq!(cluster.shard(i).kv_pager().allocated_pages(), 0);
    }
    report
}

#[test]
fn prefix_pull_shipping_strictly_cuts_the_round_robin_prefill_bill() {
    // Round-robin scatters every tenant's requests across all four
    // shards, so without shipping each shard re-prefills the tenant
    // prefix from scratch. With shipping priced at a quarter of prefill,
    // an arriving request pulls the already-built prefix pages from a
    // sibling shard instead — the combined prefill + transfer bill must
    // come in strictly under re-prefilling, at equal tokens.
    let base = serve_shared_prefix_cluster(4, RoutingKind::RoundRobin, false).pooled();
    let shipped = serve_shared_prefix_cluster_shipped(0.25).pooled();

    assert_eq!(shipped.tokens_generated, base.tokens_generated);
    assert!(
        shipped.total_ship_cycles() > 0,
        "no prefix pages were ever pulled"
    );
    assert!(
        shipped.prefix_hit_rate() > base.prefix_hit_rate(),
        "pulled pages must land as cache hits: {:.3} vs {:.3}",
        shipped.prefix_hit_rate(),
        base.prefix_hit_rate()
    );
    for report in [&base, &shipped] {
        let rate = report.prefix_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    }
    // Half the prefill bill goes (2339 vs 4426 cycles at seed 11); held
    // with headroom so drift trips this before "roughly half" stops
    // being true.
    let (with, without) = (shipped.total_prefill_cycles(), base.total_prefill_cycles());
    assert!(
        with * 10 <= without * 6,
        "shipping must leave at most 0.6x of the prefill bill: {with} vs {without} cycles"
    );
    let base_bill = base.total_prefill_cycles() + base.total_reprefill_cycles();
    let shipped_bill = shipped.total_prefill_cycles()
        + shipped.total_reprefill_cycles()
        + shipped.total_ship_cycles();
    assert!(
        shipped_bill < base_bill,
        "pulling shared prefixes at transfer price must beat re-prefilling: \
         {shipped_bill} vs {base_bill} cycles"
    );
}

#[test]
fn shipped_prefix_pulls_record_and_replay_to_the_same_digest() {
    use token_picker::accel::serve::scenario::{Scenario, SharedPrefixChat};

    let scenario = SharedPrefixChat {
        tenants: 4,
        per_tenant: 6,
    };
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = scenario.serving_config(accel);
    cfg.host_pages = 64;
    cfg.swap_cost_factor = 0.25;
    cfg.ship_cost_factor = 0.25;
    let meta = TraceMeta::new(&cfg, PolicyKind::Fifo.name())
        .for_scenario(ScenarioKind::SharedPrefixChat.name(), 11)
        .for_cluster(4, RoutingKind::RoundRobin.name(), true, 1);
    let requests = scenario.generate(11);
    let (first, report) = run_recorded(&meta, &requests).expect("shipped run records");
    let (second, _) = first.replay().expect("shipped trace replays");
    if let Some(diff) = first.diff(&second) {
        panic!("shipped replay diverged from the recording:\n{diff}");
    }
    assert_eq!(
        first.digest, second.digest,
        "ship events must digest stably"
    );
    assert!(
        first
            .events
            .iter()
            .any(|e| matches!(e, ClusterEvent::Shipped { .. })),
        "no prefix pages were ever shipped"
    );
    assert!(report.pooled().total_ship_cycles() > 0);
}

/// The canonical skewed workload on a 4-shard least-loaded cluster with
/// preemption, paged retention, the host tier *and* priced shipping all
/// on — the full tiered configuration — drains every tier of every shard.
#[test]
fn tiered_cluster_drains_every_shards_device_and_host_pages() {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = SkewedElephantMice::default().serving_config(accel);
    cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
    cfg.host_pages = 256;
    cfg.swap_cost_factor = 0.25;
    cfg.ship_cost_factor = 0.25;
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(PolicyKind::PriorityAging)
        .shards(4)
        .routing(RoutingKind::LeastLoaded)
        .stealing(true)
        .build();
    for r in SkewedElephantMice::default().generate(0) {
        cluster.enqueue(r).expect("valid request");
    }
    cluster.run_to_completion(2048).expect("workload completes");
    for i in 0..cluster.shard_count() {
        cluster.shard(i).kv_pager().validate();
        assert_eq!(cluster.shard(i).kv_pager().allocated_pages(), 0);
        assert_eq!(cluster.shard(i).kv_pager().host_pages_used(), 0);
    }
}

#[test]
fn expired_ttft_rejection_is_evented_and_counts_against_attainment() {
    // One slot; request 0 holds it for 10 steps while request 1 queues
    // behind a 3-step TTFT deadline it can no longer meet from step 3 on.
    let run = |reject: bool| {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut cfg = ServingConfig::new(accel);
        cfg.reject_expired_ttft = reject;
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .heads(2)
            .weight_bytes(1_000_000)
            .max_batch(1)
            .max_batch_tokens(2048)
            .seed(7)
            .build();
        engine
            .enqueue(ServingRequest::new(0, 64, 10))
            .expect("valid request");
        engine
            .enqueue(ServingRequest::new(1, 64, 4).with_ttft_deadline(3))
            .expect("valid request");
        let report = engine.run_to_completion(64).expect("completes");
        let rejected: Vec<(u64, usize, usize)> = engine
            .events()
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Rejected {
                    id,
                    step,
                    overdue_steps,
                } => Some((*id, *step, *overdue_steps)),
                _ => None,
            })
            .collect();
        (report, rejected)
    };

    // Off (the default): the late request still runs to target, blows its
    // deadline, and contributes nothing to goodput.
    let (off, no_events) = run(false);
    assert!(no_events.is_empty(), "rejection must be opt-in");
    assert_eq!(off.rejections, 0);
    let late = off.requests.iter().find(|r| r.id == 1).expect("finished");
    assert_eq!(late.generated, 4, "without rejection the late request runs");
    assert!(late.slo_violated);
    assert_eq!(off.deadline_attainment(), 0.0);

    // On: rejected the moment the deadline became unmeetable (step 3 =
    // one step overdue), never decoded, still in the report — and still
    // in the attainment denominator.
    let (on, events) = run(true);
    assert_eq!(on.rejections, 1);
    assert_eq!(events, vec![(1, 3, 1)], "wrong rejection moment");
    let turned_away = on
        .requests
        .iter()
        .find(|r| r.id == 1)
        .expect("rejected requests stay in the report");
    assert_eq!(turned_away.generated, 0);
    assert_eq!(turned_away.first_token_at, None);
    assert!(turned_away.slo_violated);
    assert!(turned_away.finished_at.is_some());
    assert_eq!(
        on.deadline_attainment(),
        0.0,
        "a rejection is a missed deadline, not a vanished one"
    );
    // Shedding the hopeless request costs no goodput and skips its work.
    assert_eq!(on.total_good_tokens(), off.total_good_tokens());
    assert_eq!(on.tokens_generated, off.tokens_generated - 4);
}

#[test]
fn rejecting_expired_queueing_never_costs_goodput_under_deadline_pressure() {
    use token_picker::accel::serve::scenario::{LongDocSummarize, Scenario};

    // Sixteen deadline-carrying documents arriving simultaneously into
    // three slots: the queue tail blows its TTFT budget long before
    // admission. Turning rejection on must shed exactly that hopeless
    // work — goodput may not drop — and the Rejected events must replay.
    let run = |reject: bool| {
        let scenario = LongDocSummarize { docs: 16 };
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut cfg = scenario.serving_config(accel);
        cfg.reject_expired_ttft = reject;
        let mut requests = scenario.generate(11);
        for r in &mut requests {
            *r = r.arriving_at(0);
        }
        let meta = TraceMeta::new(&cfg, PolicyKind::Fifo.name());
        let (trace, report) = run_recorded(&meta, &requests).expect("slo run records");
        let (second, _) = trace.replay().expect("slo trace replays");
        if let Some(diff) = trace.diff(&second) {
            panic!("reject={reject}: replay diverged:\n{diff}");
        }
        (trace, engine_report(report, "slo workload"))
    };

    let (_, off) = run(false);
    let (trace_on, on) = run(true);
    assert!(
        on.rejections > 0,
        "16 simultaneous documents against 3 slots must reject someone"
    );
    assert!(
        trace_on.events.iter().any(|e| matches!(
            e,
            ClusterEvent::Shard {
                event: ServeEvent::Rejected { .. },
                ..
            }
        )),
        "rejections must be evented"
    );
    assert_eq!(
        on.requests.len(),
        off.requests.len(),
        "rejected requests stay in the report"
    );
    assert!(
        on.total_good_tokens() >= off.total_good_tokens(),
        "rejection must never cost goodput: {} vs {} good tokens",
        on.total_good_tokens(),
        off.total_good_tokens()
    );
    assert!(
        on.tokens_generated < off.tokens_generated,
        "rejection must shed the hopeless work"
    );
    for report in [&off, &on] {
        let attainment = report.deadline_attainment();
        assert!((0.0..=1.0).contains(&attainment));
    }
}

/// A thousand small requests, 800 queued at step 0 and the rest arriving
/// four per step: prompts of 16–32 tokens, 1–3 new tokens, priorities 0–7
/// from 16 clients, and a TTFT deadline on every third request.
fn deep_queue_workload() -> Vec<ServingRequest> {
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    (0..1000u64)
        .map(|id| {
            let h = mix(id);
            let arrival = if id < 800 { 0 } else { 1 + (id - 800) / 4 };
            let r = ServingRequest::new(id, 16 + (h % 17) as usize, 1 + (h >> 8) as usize % 3)
                .with_priority((h >> 16) as u8 % 8)
                .with_client((h >> 24) % 16)
                .arriving_at(arrival);
            if id % 3 == 0 {
                r.with_ttft_deadline(90 + (h >> 32) % 120)
            } else {
                r
            }
        })
        .collect()
}

#[rustfmt::skip]
const DEEP_QUEUE_TRACE_DIGESTS: [(&str, u64); 5] = [
    ("fifo", 10543750311722535373),
    ("priority-aging", 16111601402977704018),
    ("shortest-job-first", 13275979017226317737),
    ("fair-round-robin", 7654968634192231043),
    ("slo-aware", 2262677893960220148),
];

#[test]
fn deep_queue_schedules_are_pinned_for_every_policy() {
    // Every other pin runs at most a few dozen requests. Here hundreds
    // queue at once, so policies pick from the middle of a deep queue,
    // victims re-enter it mid-queue and expired deadlines are rejected
    // from the middle of it: the admission paths a queue-depth change
    // could reorder.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = ServingConfig::new(accel);
    cfg.heads = 2;
    cfg.weight_bytes = 1_000_000;
    cfg.admission = AdmissionConfig {
        max_batch: 16,
        max_batch_tokens: 512,
        page_size: 16,
        prefix_cache: false,
    };
    cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
    cfg.host_pages = 16;
    cfg.reject_expired_ttft = true;
    cfg.seed = 7;
    let requests = deep_queue_workload();
    let (mut preemptions, mut rejections) = (0, 0);
    let mut digests = Vec::new();
    for policy in PolicyKind::all() {
        let meta = TraceMeta::new(&cfg, policy.name());
        let (trace, report) = run_recorded(&meta, &requests)
            .unwrap_or_else(|e| panic!("{policy}: deep-queue run failed: {e}"));
        let report = engine_report(report, policy.name());
        assert_eq!(
            report.requests.len(),
            requests.len(),
            "{policy}: lost requests"
        );
        preemptions += report.preemptions;
        rejections += report.rejections;
        digests.push((policy.name(), trace.digest));
    }
    assert!(preemptions > 0, "no policy ever preempted");
    assert!(rejections > 0, "no deadline ever expired in the queue");
    assert_pinned_digests(
        "DEEP_QUEUE_TRACE_DIGESTS",
        &DEEP_QUEUE_TRACE_DIGESTS,
        &digests,
    );
}

#[test]
fn truncated_cluster_snapshots_keep_the_prefix_hit_rate_in_unit_range() {
    // Two tenants' requests share 64-token prefixes and decode for 32
    // steps, so cache hits land at admission long before anything can
    // finish. Snapshot the cluster report after every one of the first
    // six steps: the admission-normalized rate must sit inside [0, 1]
    // with hits already visible — the old finished-only normalization
    // reported 0.0 on every one of these snapshots because its
    // denominator only counted finished requests.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = ServingConfig::new(accel.clone());
    cfg.heads = 2;
    cfg.weight_bytes = 1_000_000;
    cfg.admission = AdmissionConfig {
        max_batch: 4,
        max_batch_tokens: 1600,
        page_size: 16,
        prefix_cache: true,
    };
    cfg.prefill_factor = 1.0;
    cfg.seed = 7;
    let mut cluster = ClusterEngine::builder(accel)
        .config(cfg)
        .shards(2)
        .routing(RoutingKind::PrefixAffinity)
        .build();
    for i in 0..8u64 {
        let tenant = i % 2;
        // Pairs arrive two steps apart: with prefill priced, a builder's
        // prefix pages publish only after its prefill step, so same-step
        // admissions cannot adopt each other — the stagger lets every
        // later pair hit the prefix its tenant's first request built.
        cluster
            .enqueue(
                ServingRequest::new(i, 80 + (i as usize % 3) * 16, 32)
                    .with_shared_prefix(tenant, 64)
                    .arriving_at((i / 2) * 2),
            )
            .expect("valid request");
    }
    let mut saw_hits_before_any_completion = false;
    for step in 0..6 {
        cluster
            .step()
            .expect("step")
            .expect("a 32-token decode outlives six steps");
        let snapshot = cluster.report();
        let rate = snapshot.pooled().prefix_hit_rate();
        assert!(
            (0.0..=1.0).contains(&rate),
            "truncated-run hit rate {rate} left the unit range at step {step}"
        );
        assert_eq!(
            snapshot.requests().count(),
            0,
            "nothing can finish within six steps of a 32-token decode"
        );
        if rate > 0.0 {
            saw_hits_before_any_completion = true;
        }
    }
    assert!(
        saw_hits_before_any_completion,
        "the cache never hit inside the truncated window"
    );
    // Drained, the rate stays in range and strictly positive.
    let report = cluster.run_to_completion(4096).expect("completes");
    let rate = report.pooled().prefix_hit_rate();
    assert!(rate > 0.0 && rate <= 1.0, "drained hit rate {rate}");
}

// ---------------------------------------------------------------------------
// Real-token serving: the paged KV store under the serving loop
// ---------------------------------------------------------------------------

/// A real-token run and the requests it served.
type RealTokenRun = (token_picker::accel::TokenBackedRun, Vec<ServingRequest>);

/// The canonical chat run for `(prefix_cache, chunk_pages)`, made once per
/// test binary: each of the three configurations the tests read is
/// deterministic, so every test would rebuild the same run.
fn run_real_token_chat(prefix_cache: bool, chunk_pages: usize) -> &'static RealTokenRun {
    static RUNS: [OnceLock<RealTokenRun>; 3] = [const { OnceLock::new() }; 3];
    let slot = match (prefix_cache, chunk_pages) {
        (true, 0) => 0,
        (false, 0) => 1,
        (true, 2) => 2,
        other => panic!("no shared real-token chat run for {other:?}"),
    };
    RUNS[slot].get_or_init(|| chat_real_token_run(prefix_cache, chunk_pages))
}

/// Serves the canonical 4-tenant `shared_prefix_chat` workload through the
/// token-backed mirror: the engine schedules (and charges) as usual while a
/// `TokenBackedBatch` generates real synth-model tokens whose KV rows live
/// in one shared copy-on-write paged store.
fn chat_real_token_run(prefix_cache: bool, chunk_pages: usize) -> RealTokenRun {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut cfg = SharedPrefixChat::default().serving_config(accel);
    cfg.admission.prefix_cache = prefix_cache;
    cfg.prefill_chunk_pages = chunk_pages;
    let mut engine = ServingEngine::new(cfg);
    let requests = SharedPrefixChat::default().generate(11);
    let run = token_picker::accel::run_token_backed(
        &mut engine,
        requests.clone(),
        token_picker::model::ModelSpec::toy(),
        11,
        4096,
    )
    .expect("workload completes");
    (run, requests)
}

#[test]
fn real_tokens_reject_a_duplicate_request_id() {
    // The engine keys KV by arrival sequence, so it can serve two requests
    // with one id; the mirror keys by id (events carry nothing else), so a
    // second registration used to overwrite the first's prompt and both
    // then decoded into one sequence. It must refuse instead.
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let cfg = SharedPrefixChat::default().serving_config(accel);
    let spec = token_picker::model::ModelSpec::toy();
    let mut batch = token_picker::accel::TokenBackedBatch::new(spec.clone(), 11, &cfg);
    let first = ServingRequest::new(7, 24, 2);
    batch.register(&first).expect("first registration");
    let prompt = batch.prompt(7).expect("registered").to_vec();
    let err = batch
        .register(&ServingRequest::new(7, 40, 3))
        .expect_err("a second request 7 must be refused");
    assert!(
        matches!(
            err,
            token_picker::accel::ServeError::InvalidRequest("duplicate request id")
        ),
        "{err:?}"
    );
    assert_eq!(
        batch.prompt(7),
        Some(prompt.as_slice()),
        "first prompt kept"
    );

    // The driver surfaces it before the engine ever sees the duplicate.
    let mut engine = ServingEngine::new(cfg);
    let err = token_picker::accel::run_token_backed(
        &mut engine,
        vec![first, ServingRequest::new(7, 40, 3)],
        spec,
        11,
        64,
    )
    .expect_err("duplicate ids cannot be mirrored");
    assert!(matches!(
        err,
        token_picker::accel::ServeError::InvalidRequest("duplicate request id")
    ));
    assert_eq!(engine.pending(), 1, "only the first request was enqueued");
}

/// What a private, unsharded `generate` gives each of a run's requests, in
/// request order. `reference_generate` reads only the request and the
/// mirror's model spec, model seed and accelerator, which every run of one
/// workload shares, so each workload's set is computed once per test
/// binary and serves all of its runs.
fn reference_tokens((run, requests): &RealTokenRun) -> Vec<Vec<usize>> {
    requests
        .iter()
        .map(|req| run.batch.reference_generate(req))
        .collect()
}

fn real_token_chat_reference() -> &'static [Vec<usize>] {
    static REFERENCE: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    REFERENCE.get_or_init(|| reference_tokens(run_real_token_chat(true, 0)))
}

/// Every request's served tokens must equal a private, unsharded
/// `generate` on the same prompt (`reference`, from `reference_tokens`) —
/// token equivalence under physical prefix sharing.
fn assert_token_equivalence(
    run: &token_picker::accel::TokenBackedRun,
    requests: &[ServingRequest],
    reference: &[Vec<usize>],
) {
    assert_eq!(reference.len(), requests.len(), "one reference per request");
    for (req, expected) in requests.iter().zip(reference) {
        let got = run.batch.generated(req.id).expect("request was served");
        assert_eq!(
            got.len(),
            req.max_new_tokens,
            "request {} under-generated",
            req.id
        );
        assert_eq!(
            got,
            expected.as_slice(),
            "request {} diverged from its unsharded generate",
            req.id
        );
    }
}

#[test]
fn real_tokens_physically_share_prefix_kv_and_match_unsharded_generate() {
    let (run, requests) = run_real_token_chat(true, 0);
    // The acceptance criterion: system-prompt KV was physically shared
    // while requests were resident...
    assert!(
        run.batch.peak_shared_pages() > 0,
        "no page was ever shared across sequences"
    );
    // ...and still is after draining (finished sequences stay donors).
    assert!(
        run.batch.shared_pages() > 0,
        "drained store lost all sharing"
    );
    run.batch.validate();
    // Tokens are byte-identical to per-request unsharded generation.
    assert_token_equivalence(run, requests, real_token_chat_reference());
    // And the engine's own token accounting agrees with the mirror.
    let expected: usize = requests.iter().map(|r| r.max_new_tokens).sum();
    assert_eq!(run.report.tokens_generated, expected);
    let hit_rate = run.report.prefix_hit_rate();
    assert!(
        hit_rate > 0.3 && hit_rate <= 1.0,
        "admission-normalized hit rate {hit_rate} out of the expected band"
    );
}

#[test]
fn real_tokens_without_prefix_cache_share_nothing_but_emit_the_same_tokens() {
    let (off, requests) = run_real_token_chat(false, 0);
    assert_eq!(
        off.batch.peak_shared_pages(),
        0,
        "cache off must mean zero physical sharing"
    );
    assert_token_equivalence(off, requests, real_token_chat_reference());
    // Same tokens as the cache-on run, request by request.
    let (on, _) = run_real_token_chat(true, 0);
    for req in requests {
        assert_eq!(
            off.batch.generated(req.id),
            on.batch.generated(req.id),
            "prefix cache changed request {}'s tokens",
            req.id
        );
    }
}

#[test]
fn real_tokens_survive_chunked_prefill_byte_identically() {
    let (chunked, requests) = run_real_token_chat(true, 2);
    assert!(chunked.batch.peak_shared_pages() > 0);
    assert_token_equivalence(chunked, requests, real_token_chat_reference());
}

/// The preemption run for `host_pages`, made once per test binary like the
/// chat runs.
fn run_real_token_preemption(host_pages: usize) -> &'static RealTokenRun {
    static RUNS: [OnceLock<RealTokenRun>; 2] = [const { OnceLock::new() }; 2];
    let slot = match host_pages {
        0 => 0,
        64 => 1,
        other => panic!("no shared real-token preemption run for {other} host pages"),
    };
    RUNS[slot].get_or_init(|| preempted_real_token_run(host_pages))
}

/// Four requests under a budget tight enough to evict, with 0.8-fraction
/// paged retention and, when `host_pages > 0`, a host swap tier, served
/// through the token-backed mirror.
fn preempted_real_token_run(host_pages: usize) -> RealTokenRun {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let mut builder = ServingEngine::builder(accel)
        .heads(4)
        .weight_bytes(1_000_000)
        .max_batch(3)
        .max_batch_tokens(192)
        .page_size(16)
        .prefix_cache(true)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.8));
    if host_pages > 0 {
        builder = builder.host_pages(host_pages);
    }
    let mut engine = builder.build();
    let requests = vec![
        ServingRequest::new(0, 64, 8)
            .with_priority(5)
            .with_shared_prefix(1, 64),
        ServingRequest::new(1, 64, 6)
            .with_priority(1)
            .with_shared_prefix(1, 64),
        ServingRequest::new(2, 96, 8)
            .with_priority(9)
            .arriving_at(2),
        ServingRequest::new(3, 64, 4)
            .with_priority(7)
            .with_shared_prefix(1, 64)
            .arriving_at(3),
    ];
    let run = token_picker::accel::run_token_backed(
        &mut engine,
        requests.clone(),
        token_picker::model::ModelSpec::toy(),
        3,
        4096,
    )
    .expect("workload completes");
    (run, requests)
}

/// Preemption with paged retention (and optionally a host swap tier)
/// becomes a real truncate/release of the mirror's pages; re-admission
/// rebuilds exactly, so tokens stay byte-identical.
#[test]
fn real_tokens_survive_preemption_retention_and_host_swap() {
    let reference = reference_tokens(run_real_token_preemption(0));
    for host_pages in [0usize, 64] {
        let (run, requests) = run_real_token_preemption(host_pages);
        assert!(
            run.report.preemptions > 0,
            "the tight budget must force at least one eviction (host_pages {host_pages})"
        );
        assert_token_equivalence(run, requests, &reference);
        let rate = run.report.prefix_hit_rate();
        assert!(
            (0.0..=1.0).contains(&rate),
            "hit rate {rate} left the unit range under retention"
        );
    }
}

/// The charged-vs-measured cycle cross-check on `shared-prefix-chat`: the
/// engine's charged prefill + re-prefill + attention cycles, over the
/// kernel cycles `SimulatedAttention` actually measured in the mirror, is
/// a deterministic constant for this pinned workload and config. The pin
/// (with a ±20% band for headroom against cost-model retuning) trips if
/// either layer's accounting drifts from the other.
#[test]
fn charged_cycles_track_measured_cycles_on_shared_prefix_chat() {
    let (run, _) = run_real_token_chat(true, 0);
    assert!(run.charged_cycles() > 0, "nothing was charged");
    assert!(run.batch.measured_cycles() > 0, "nothing was measured");
    let ratio = run.cycle_ratio();
    const PINNED_RATIO: f64 = 0.0685;
    assert!(
        (ratio - PINNED_RATIO).abs() <= PINNED_RATIO * 0.2,
        "charged/measured cycle ratio {ratio} strayed from the pinned {PINNED_RATIO}"
    );
}

/// FNV-1a fold of every token the mirror served, request by request in the
/// order given: each request's id, its token count, then its tokens.
fn served_tokens_digest(
    run: &token_picker::accel::TokenBackedRun,
    requests: &[ServingRequest],
) -> u64 {
    fn fnv(h: &mut u64, v: u64) {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for req in requests {
        let tokens = run.batch.generated(req.id).expect("request was served");
        fnv(&mut h, req.id);
        fnv(&mut h, tokens.len() as u64);
        for &t in tokens {
            fnv(&mut h, t as u64);
        }
    }
    h
}

/// The exact kernel cycles the mirror measured and a digest of every token
/// it served, on the shared-prefix chat (whole and chunked prefill) and the
/// preemption run (without and with a host tier). Captured from the
/// token-at-a-time mirror and never edited: a lost or repeated attend moves
/// `measured_cycles` by one call's cycles, which the ±20 % `cycle_ratio`
/// band above cannot see.
const REAL_TOKEN_PINS: [(&str, u64, u64); 4] = [
    ("chat", 484_472, 0x6ef1_32a4_1ba9_e271),
    ("chat, 2-page chunks", 578_992, 0x6ef1_32a4_1ba9_e271),
    ("preemption", 74_940, 0x4e38_1821_9412_e4b7),
    ("preemption + host tier", 74_940, 0x4e38_1821_9412_e4b7),
];

#[test]
fn real_tokens_measured_cycles_and_served_tokens_are_pinned() {
    let runs = [
        run_real_token_chat(true, 0),
        run_real_token_chat(true, 2),
        run_real_token_preemption(0),
        run_real_token_preemption(64),
    ];
    let measured: Vec<(&str, u64, u64)> = REAL_TOKEN_PINS
        .iter()
        .zip(&runs)
        .map(|(&(name, _, _), (run, requests))| {
            (
                name,
                run.batch.measured_cycles(),
                served_tokens_digest(run, requests),
            )
        })
        .collect();
    assert_eq!(
        measured, REAL_TOKEN_PINS,
        "measured cycles or served tokens moved"
    );
}

/// A cluster's aggregates are its pooled report's: a 1-shard cluster pools
/// to exactly the bare engine's report, and a 4-shard cluster's pooled
/// aggregates equal references computed here from the shard reports' raw
/// fields — across scenarios that exercise prefix hits, deadlines and
/// preemption.
#[test]
fn cluster_report_aggregates_are_the_engine_aggregates() {
    let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
    let run_cluster = |cfg: &ServingConfig, policy, shards, requests: &[ServingRequest]| {
        let mut cluster = ClusterEngine::builder(accel.clone())
            .config(cfg.clone())
            .policy(policy)
            .shards(shards)
            .routing(RoutingKind::LeastLoaded)
            .stealing(true)
            .build();
        for r in requests {
            cluster.enqueue(*r).expect("valid request");
        }
        cluster.run_to_completion(4096).expect("workload completes")
    };
    for kind in [
        ScenarioKind::SharedPrefixChat,
        ScenarioKind::DiurnalArrivals,
        ScenarioKind::LongDocSummarize,
    ] {
        for policy in [PolicyKind::PriorityAging, PolicyKind::SloAware] {
            let what = format!("{kind}/{policy}");
            let mut cfg = kind.serving_config(accel.clone());
            cfg.preemption =
                PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
            let requests = kind.generate(11);
            let hz = cfg.clock_hz;

            let mut engine = ServingEngine::builder(accel.clone())
                .config(cfg.clone())
                .policy(policy)
                .build();
            for r in &requests {
                engine.enqueue(*r).expect("valid request");
            }
            let solo = engine.run_to_completion(4096).expect("workload completes");
            let one = run_cluster(&cfg, policy, 1, &requests);
            assert_eq!(one.pooled(), solo, "{what}");

            let four = run_cluster(&cfg, policy, 4, &requests);
            let pooled = four.pooled();
            let shards = &four.shards;
            let finished: Vec<_> = shards.iter().flat_map(|s| s.requests.clone()).collect();
            assert_eq!(finished.len(), requests.len(), "{what}");
            assert_eq!(pooled.requests, finished, "{what}");
            let sum = |f: fn(&ServingReport) -> usize| shards.iter().map(f).sum::<usize>();
            let cycles = |f: fn(&StepReport) -> u64| {
                shards.iter().flat_map(|s| &s.steps).map(f).sum::<u64>()
            };
            let tokens = sum(|s| s.tokens_generated);
            let good: usize = finished.iter().map(|r| r.good_tokens).sum();
            let hits: usize = finished.iter().map(|r| r.prefix_hit_tokens).sum();
            let mut ttfts: Vec<usize> = finished
                .iter()
                .filter_map(|r| Some(r.first_token_at? - r.enqueued_at + 1))
                .collect();
            ttfts.sort_unstable();
            let p99 = ttfts[(ttfts.len() * 99).div_ceil(100) - 1];
            assert_eq!(
                (pooled.total_cycles, pooled.steps.len()),
                (four.total_cycles, four.cluster_steps),
                "{what}"
            );
            assert_eq!(
                [
                    pooled.tokens_generated,
                    pooled.preemptions,
                    pooled.rejections
                ],
                [tokens, sum(|s| s.preemptions), sum(|s| s.rejections)],
                "{what}"
            );
            assert_eq!(
                [pooled.total_good_tokens(), pooled.total_prefix_hit_tokens()],
                [good, hits],
                "{what}"
            );
            assert_eq!(pooled.ttft_p99_steps(), p99, "{what}");
            assert_eq!(
                [
                    pooled.total_attention_cycles(),
                    pooled.total_prefill_cycles(),
                    pooled.total_reprefill_cycles(),
                    pooled.total_swap_cycles(),
                    pooled.total_ship_cycles(),
                ],
                [
                    cycles(|s| s.attention_cycles),
                    cycles(|s| s.prefill_cycles),
                    cycles(|s| s.reprefill_cycles),
                    cycles(|s| s.swap_cycles),
                    cycles(|s| s.ship_cycles),
                ],
                "{what}"
            );
            let carrying: Vec<_> = finished
                .iter()
                .filter(|r| r.ttft_deadline.is_some() || r.itl_deadline.is_some())
                .collect();
            let attainment = if carrying.is_empty() {
                1.0
            } else {
                carrying.iter().filter(|r| !r.slo_violated).count() as f64 / carrying.len() as f64
            };
            let per_second = |n: usize| n as f64 / (four.total_cycles as f64 / hz);
            for (name, got, want) in [
                ("tokens/s", pooled.tokens_per_second(hz), per_second(tokens)),
                (
                    "goodput",
                    pooled.goodput_tokens_per_second(hz),
                    per_second(good),
                ),
                ("attainment", pooled.deadline_attainment(), attainment),
                (
                    "hit rate",
                    pooled.prefix_hit_rate(),
                    sum(|s| s.admitted_hit_tokens) as f64
                        / sum(|s| s.admitted_prompt_tokens) as f64,
                ),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: {name}");
            }
        }
    }
}
