//! Property tests of the accelerator: soundness under arbitrary timing,
//! exact traffic accounting, robustness to degenerate configurations, and
//! the serving engine's admission invariants under any scheduling policy.

use proptest::prelude::*;
use topick_accel::serve::trace::{run_recorded, Trace, TraceRecorder};
use topick_accel::{
    AccelConfig, AccelMode, AdmissionConfig, ClusterEngine, ClusterEvent, KvPager, PolicyKind,
    PreemptionConfig, RetentionPolicy, RoutingKind, ScenarioKind, ServeEvent, ServingConfig,
    ServingEngine, ServingRequest, ToPickAccelerator, TraceMeta,
};
use topick_core::{exact_probabilities, PrecisionConfig, QMatrix, QVector, Rows};
use topick_model::{PagedKvStore, PagedSeq};

fn random_instance(seed: u64, n: usize, dim: usize) -> (QVector, QMatrix, Vec<f32>) {
    let pc = PrecisionConfig::paper();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 33) as f32 / 2_147_483_648.0) * 4.0 - 2.0
    };
    let q: Vec<f32> = (0..dim).map(|_| next()).collect();
    let keys: Vec<f32> = (0..n * dim).map(|_| next()).collect();
    let values: Vec<f32> = (0..n * dim).map(|_| next()).collect();
    (
        QVector::quantize(&q, pc),
        QMatrix::quantize_flat(&keys, dim, pc).expect("non-empty"),
        values,
    )
}

/// Appends `n` (content-free) rows to `seq`.
fn push_rows(store: &mut PagedKvStore, seq: &mut PagedSeq, n: usize) {
    for _ in 0..n {
        store.push(seq, &[0.0], &[0.0]);
    }
}

/// Gives every page of a `len`-token sequence past the end of `chain` a
/// content hash no other page has.
fn label_pages(chain: &mut Vec<u64>, len: usize, page: usize, next_key: &mut u64) {
    while chain.len() < len.div_ceil(page) {
        *next_key += 1;
        chain.push(*next_key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness holds for every mode regardless of workload and timing.
    #[test]
    fn no_dominant_token_pruned_any_mode(
        seed in any::<u64>(),
        n in 2usize..96,
        thr_exp in 1.5f64..4.0,
    ) {
        let dim = 64;
        let (q, keys, values) = random_instance(seed, n, dim);
        let thr = 10f64.powf(-thr_exp);
        let exact = exact_probabilities(&q, &keys);
        for mode in [AccelMode::EstimateOnly, AccelMode::OutOfOrder, AccelMode::Blocking] {
            let accel = ToPickAccelerator::new(
                AccelConfig::paper(mode, thr).expect("thr in range"),
            );
            let r = accel
                .run_attention(&q, &keys, Rows::new(&values, dim))
                .expect("run");
            for (t, &p) in exact.iter().enumerate() {
                if p > thr {
                    prop_assert!(
                        r.kept.contains(&t),
                        "{:?}: token {} with p={} pruned at thr={}",
                        mode, t, p, thr
                    );
                }
            }
        }
    }

    /// DRAM bytes moved equal the bit-level accounting in PruneStats, for
    /// both 64-dim (1 burst/chunk) and 128-dim (2 bursts/chunk) heads.
    #[test]
    fn traffic_identity(seed in any::<u64>(), n in 2usize..64, wide in any::<bool>()) {
        let dim = if wide { 128 } else { 64 };
        let (q, keys, values) = random_instance(seed, n, dim);
        let accel = ToPickAccelerator::new(
            AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr"),
        );
        let r = accel
            .run_attention(&q, &keys, Rows::new(&values, dim))
            .expect("run");
        let pc = PrecisionConfig::paper();
        let k_bits = r.prune.k_bits_fetched(dim, &pc);
        let v_bits = r.prune.v_bits_fetched(dim, &pc);
        let dram_bits = r.dram_stats.reads * 32 * 8;
        prop_assert_eq!(dram_bits, k_bits + v_bits);
    }

    /// A one-entry scoreboard still completes and stays sound — it only
    /// costs cycles.
    #[test]
    fn tiny_scoreboard_is_safe(seed in any::<u64>(), n in 2usize..48) {
        let dim = 64;
        let (q, keys, values) = random_instance(seed, n, dim);
        let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        cfg.scoreboard_entries = 1;
        let tiny = ToPickAccelerator::new(cfg)
            .run_attention(&q, &keys, Rows::new(&values, dim))
            .expect("tiny scoreboard run");
        let full = ToPickAccelerator::new(
            AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr"),
        )
        .run_attention(&q, &keys, Rows::new(&values, dim))
        .expect("full scoreboard run");
        prop_assert!(tiny.cycles >= full.cycles);
        let exact = exact_probabilities(&q, &keys);
        for (t, &p) in exact.iter().enumerate() {
            if p > 1e-3 {
                prop_assert!(tiny.kept.contains(&t));
            }
        }
    }

    /// The cost-only entry is `run_attention` minus the output vector:
    /// every other field is equal (not close) in all four modes, and the
    /// output is the weighted value sum over the cost's kept tokens and
    /// probabilities.
    #[test]
    fn attention_cost_equals_run_attention_but_for_the_output(
        seed in any::<u64>(),
        n in 1usize..96,
        wide in any::<bool>(),
    ) {
        let dim = if wide { 128 } else { 64 };
        let (q, keys, values) = random_instance(seed, n, dim);
        let values = Rows::new(&values, dim);
        for mode in [
            AccelMode::Baseline,
            AccelMode::EstimateOnly,
            AccelMode::OutOfOrder,
            AccelMode::Blocking,
        ] {
            let accel = ToPickAccelerator::new(AccelConfig::paper(mode, 1e-3).expect("thr"));
            let full = accel.run_attention(&q, &keys, values).expect("run");
            let cost = accel.attention_cost(&q, &keys).expect("cost");
            prop_assert_eq!(cost.cycles, full.cycles);
            let kept: Vec<usize> = cost.kept.iter().map(|&(t, _)| t).collect();
            prop_assert_eq!(&kept, &full.kept);
            prop_assert_eq!(&cost.prune, &full.prune);
            prop_assert_eq!(&cost.events, &full.events);
            prop_assert_eq!(&cost.dram_stats, &full.dram_stats);
            prop_assert_eq!(cost.dram_cycles, full.dram_cycles);
            prop_assert_eq!(&cost.energy, &full.energy);
            let output = topick_core::weighted_value_sum(&cost.kept, values);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&output), bits(&full.output));
        }
    }

    /// Under any interleaving of enqueue and step, any policy (the
    /// SLO-aware one included), any chunked-prefill budget, and
    /// preemption on or off, the batch never exceeds its slot limit or
    /// its provisioned-token budget; every request — even one stuck
    /// behind chunked long prompts — finishes (no starvation); goodput
    /// never exceeds generation and deadline-free requests never
    /// violate. With preemption off, no admitted request ever leaves
    /// the batch before finishing.
    #[test]
    fn serving_invariants_hold_under_any_interleaving(
        seed in any::<u64>(),
        max_batch in 1usize..5,
        budget in 400usize..1200,
        policy_idx in 0usize..PolicyKind::all().len(),
        preempt in any::<bool>(),
        prefill_chunk in 0usize..6,
        priced in any::<bool>(),
        reject in any::<bool>(),
        ops in prop::collection::vec(0u8..4, 4..32),
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        let mut cfg = ServingConfig::new(accel);
        cfg.reject_expired_ttft = reject;
        let mut builder = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .heads(2)
            .weight_bytes(1_000_000)
            .max_batch(max_batch)
            .max_batch_tokens(budget)
            .prefill_factor(if priced { 1.0 } else { 0.0 })
            .prefill_chunk_pages(prefill_chunk)
            .seed(seed)
            .policy(policy);
        if preempt {
            builder = builder.enable_preemption();
        }
        let mut engine = builder.build();

        let mut next_id = 0u64;
        let check_step = |engine: &ServingEngine, report: Option<topick_accel::StepReport>| {
            engine.validate();
            prop_assert!(engine.running() <= max_batch);
            if let Some(s) = report {
                prop_assert!(s.batch <= max_batch, "{policy}: batch over slots");
                prop_assert!(
                    s.context_tokens <= budget,
                    "{policy}: {} context tokens over budget {budget}",
                    s.context_tokens
                );
            }
        };
        // Random interleaving: op 0 enqueues (with randomized shape,
        // priority, client, arrival and — on half the requests — SLO
        // deadlines), anything else steps once.
        for (i, op) in ops.iter().enumerate() {
            if *op == 0 {
                let mix = seed.wrapping_mul(31).wrapping_add(i as u64);
                let mut req = ServingRequest::new(
                    next_id,
                    4 + (mix % 48) as usize,
                    1 + (mix % 5) as usize,
                )
                .with_priority((mix % 7) as u8)
                .with_client(mix % 3)
                .arriving_at(mix % 6);
                if mix.is_multiple_of(2) {
                    req = req
                        .with_ttft_deadline(1 + mix % 9)
                        .with_itl_deadline(1 + mix % 4);
                }
                engine.enqueue(req).expect("request fits the budget alone");
                next_id += 1;
            } else {
                let report = engine.step().expect("step succeeds");
                check_step(&engine, report);
            }
        }
        // Drain the rest, checking every remaining step.
        let mut guard = 0;
        while !engine.is_idle() {
            let report = engine.step().expect("step succeeds");
            check_step(&engine, report);
            guard += 1;
            prop_assert!(guard < 4096, "engine failed to drain");
        }

        let report = engine.report();
        prop_assert_eq!(report.requests.len(), next_id as usize);
        // A rejected request never admits, never decodes, and always
        // carries a blown deadline; without the flag nothing is rejected.
        let rejected: std::collections::HashSet<u64> = engine
            .events()
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Rejected { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        if !reject {
            prop_assert!(rejected.is_empty(), "rejection fired with the flag off");
            prop_assert_eq!(report.rejections, 0);
        }
        prop_assert_eq!(report.rejections, rejected.len());
        if !preempt {
            // Never-evict guarantee: no preemption events, one admission
            // per request, and every admitted request ran to its target.
            prop_assert_eq!(report.preemptions, 0);
            for r in &report.requests {
                prop_assert_eq!(r.preemptions, 0);
                let admissions = engine
                    .events()
                    .iter()
                    .filter(|e| matches!(e, ServeEvent::Admitted { id, .. } if *id == r.id))
                    .count();
                let expected = usize::from(!rejected.contains(&r.id));
                prop_assert_eq!(admissions, expected, "request {} admissions", r.id);
            }
        }
        for r in &report.requests {
            if rejected.contains(&r.id) {
                prop_assert_eq!(r.generated, 0, "rejected request {} decoded", r.id);
                prop_assert_eq!(r.good_tokens, 0);
                prop_assert!(r.slo_violated, "a reject is a blown deadline");
                prop_assert!(r.has_deadline(), "deadline-free request rejected");
                prop_assert!(r.finished_at.is_some());
                continue;
            }
            // No starvation: whatever the chunk budget did to scheduling,
            // every request ran to completion.
            prop_assert!(r.generated >= 1);
            prop_assert!(r.finished_at.is_some());
            // SLO accounting: goodput never exceeds generation, a blown
            // deadline implies a deadline existed, and deadline-free
            // requests count every token as good.
            prop_assert!(r.good_tokens <= r.generated);
            if r.has_deadline() {
                prop_assert!(r.slo_violated || r.good_tokens == r.generated);
            } else {
                prop_assert!(!r.slo_violated, "deadline-free request violated");
                prop_assert_eq!(r.good_tokens, r.generated);
            }
        }
    }

    /// KV page accounting never leaks: at every point of any interleaving
    /// of enqueue/step — any policy, preemption, retention and prefix
    /// caching included — the distinct pages mapped by requests (running,
    /// or retained by queued preemption victims), the refcount-0 cached
    /// pages and the free list exactly partition the pager's capacity
    /// (with every refcount equal to its table mappings, per
    /// `KvPager::validate`), and a drained engine unmaps every page.
    /// Finite chunk budgets put requests mid-prefill across many steps —
    /// and under eviction with partially built prompts — so the oracle
    /// also covers the prefill frontier's page accounting.
    #[test]
    fn kv_page_accounting_never_leaks(
        seed in any::<u64>(),
        max_batch in 1usize..5,
        budget in 400usize..1200,
        page_size in 1usize..48,
        policy_idx in 0usize..PolicyKind::all().len(),
        retention_idx in 0usize..4,
        prefix_cache in any::<bool>(),
        prefill_chunk in 0usize..4,
        host_tier_idx in 0usize..3,
        ops in prop::collection::vec(0u8..4, 4..32),
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let retention = [
            RetentionPolicy::None,
            RetentionPolicy::Pages(1),
            RetentionPolicy::Pages(3),
            RetentionPolicy::Fraction(0.5),
        ][retention_idx];
        // Host tier off, tight (forces partial swaps) and roomy.
        let host_pages = [0usize, 2, 64][host_tier_idx];
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        let mut cfg = ServingConfig::new(accel);
        cfg.swap_cost_factor = 0.25;
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .heads(2)
            .weight_bytes(1_000_000)
            .max_batch(max_batch)
            .max_batch_tokens(budget)
            .page_size(page_size)
            .seed(seed)
            .prefix_cache(prefix_cache)
            .prefill_factor(if prefix_cache { 1.0 } else { 0.0 })
            .prefill_chunk_pages(prefill_chunk)
            .host_pages(host_pages)
            .policy(policy)
            .enable_preemption()
            .retention(retention)
            .build();

        let check_pager = |engine: &ServingEngine| {
            // The pager's own oracle plus the engine's residency invariants.
            engine.validate();
            let pager = engine.kv_pager();
            // The device tiers partition capacity; the host tier holds
            // swapped *contents*, never device pages, so it adds nothing
            // to the partition and never exceeds its own bound.
            assert_eq!(
                pager.allocated_pages() + pager.cached_pages() + pager.free_pages(),
                pager.total_pages(),
                "page leak under {policy} / {retention:?} / cache {prefix_cache}"
            );
            assert!(
                pager.host_pages_used() <= pager.host_capacity(),
                "host tier over capacity under {policy} / {retention:?}"
            );
            assert!(
                host_pages > 0 || pager.host_pages_used() == 0,
                "disabled host tier holding pages under {policy}"
            );
        };
        let mut next_id = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if *op == 0 {
                let mix = seed.wrapping_mul(31).wrapping_add(i as u64);
                // A couple of shared prefix pools so adoption genuinely
                // happens (page-aligned halves of the prompts).
                let req = ServingRequest::new(
                    next_id,
                    4 + (mix % 48) as usize,
                    1 + (mix % 5) as usize,
                )
                .with_priority((mix % 7) as u8)
                .with_client(mix % 3)
                .with_shared_prefix(mix % 2, page_size * ((mix % 4) as usize))
                .arriving_at(mix % 6);
                if engine.enqueue(req).is_ok() {
                    next_id += 1;
                }
            } else {
                engine.step().expect("step succeeds");
            }
            check_pager(&engine);
        }
        let mut guard = 0;
        while !engine.is_idle() {
            engine.step().expect("step succeeds");
            check_pager(&engine);
            guard += 1;
            prop_assert!(guard < 4096, "engine failed to drain");
        }
        // Idle engine: nothing stays mapped. Without the cache every page
        // is back on the free list; with it, pages are free or cached —
        // and every host-tier holding was copied back or discarded.
        prop_assert_eq!(engine.kv_pager().allocated_pages(), 0);
        prop_assert_eq!(engine.kv_pager().host_pages_used(), 0);
        if !prefix_cache {
            prop_assert_eq!(engine.kv_pager().cached_pages(), 0);
        }
        prop_assert_eq!(
            engine.kv_pager().free_pages() + engine.kv_pager().cached_pages(),
            engine.kv_pager().total_pages()
        );
        prop_assert_eq!(engine.report().requests.len(), next_id as usize);
    }

    /// Refcounted pager conservation, driven directly: under arbitrary
    /// interleavings of admit (reserve), share (register + adopt by a
    /// second owner), fork (adopt), retire (release), preempt (truncate)
    /// and reclaim (cache eviction inside reserve), the sum of reachable
    /// refcounts matches the owner tables, no page is double-freed, no
    /// page is owned by zero holders while marked allocated, and
    /// allocated + cached + free always equals capacity
    /// (`KvPager::validate` checks all of it after every operation).
    #[test]
    fn refcounted_pager_conserves_under_any_op_sequence(
        seed in any::<u64>(),
        page_size in 1usize..24,
        budget in 100usize..800,
        cache_enabled in any::<bool>(),
        ops in prop::collection::vec(0u8..8, 4..64),
    ) {
        const OWNERS: u64 = 5;
        let mut pager = KvPager::new(page_size, budget).with_prefix_cache(cache_enabled);
        // Three content chains of up to 4 pages each; chains share no keys.
        let chains: Vec<Vec<u64>> = (0..3u64)
            .map(|c| (0..4).map(|p| c * 100 + p + 1).collect())
            .collect();
        for (i, op) in ops.iter().enumerate() {
            let mix = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let owner = mix % OWNERS;
            let chain = &chains[(mix >> 8) as usize % chains.len()];
            let chain_len = 1 + (mix >> 16) as usize % chain.len();
            let tokens = 1 + (mix >> 24) as usize % (budget / 2);
            match op {
                0..=2 => {
                    // Admit: reserve gated exactly like the engine.
                    if pager.can_admit(owner, tokens, &[]) {
                        pager.reserve(owner, tokens);
                    }
                }
                3 => pager.register_prefix(owner, &chain[..chain_len]),
                4 => {
                    // Fork/share: adopt a prefix, then cover it like a
                    // real admission would.
                    let (hits, _) = pager.adoptable(owner, chain);
                    if hits > 0 {
                        pager.adopt_prefix(owner, chain);
                    }
                }
                5 => {
                    // Preempt: truncate to an arbitrary retained prefix.
                    let keep = (mix >> 16) as usize % (pager.pages_of(owner) + 1);
                    pager.truncate(owner, keep);
                }
                _ => {
                    // Retire / reclaim retained pages.
                    pager.release(owner);
                }
            }
            pager.validate();
        }
        // Releasing every owner unmaps everything.
        for owner in 0..OWNERS {
            pager.release(owner);
        }
        pager.validate();
        prop_assert_eq!(pager.allocated_pages(), 0);
        prop_assert_eq!(pager.mapped_pages(), 0);
        if !cache_enabled {
            prop_assert_eq!(pager.free_pages(), pager.total_pages());
        }
    }

    /// `KvPager` ⇄ `PagedKvStore` differential: one random op sequence
    /// over live owners drives the pager's page accounting and the store's
    /// physical pages — create n tokens (`reserve` / n `push`es), fork a
    /// live parent at j of its full pages (`register_prefix` +
    /// `adopt_prefix` + `reserve` / `fork` + `push`es), grow, truncate to
    /// whole pages, release — and after every op the two agree on each
    /// owner's pages, distinct allocated pages, mappings and pages shared
    /// by more than one owner, and both oracles hold. Forks come only from
    /// live owners: the pager re-adopts refcount-0 cached pages from its
    /// prefix index, which a store cannot fork (its pages are freed with
    /// their last mapping), so a fork of a released or truncated-away
    /// prefix has no store counterpart.
    #[test]
    fn kv_pager_and_paged_store_agree_under_any_op_sequence(
        page in 1usize..9,
        ops in prop::collection::vec(any::<u64>(), 4..64),
    ) {
        // Large enough that the pager never reclaims a cached page.
        let mut pager = KvPager::new(page, 1024 * page).with_prefix_cache(true);
        let mut store = PagedKvStore::new(1, page);
        // Live owners: pager owner id, store sequence, and one content hash
        // per page held (fresh unless inherited through a fork).
        let mut live: Vec<(u64, PagedSeq, Vec<u64>)> = Vec::new();
        let mut next_owner = 0u64;
        let mut next_key = 0u64;
        for &mix in &ops {
            let tokens = 1 + (mix >> 32) as usize % (3 * page);
            // With no owner alive, every op creates one.
            let (op, at) = match live.len() {
                0 => (0, 0),
                n => (mix % 5, (mix >> 8) as usize % n),
            };
            match op {
                0 => {
                    let mut seq = store.new_seq();
                    push_rows(&mut store, &mut seq, tokens);
                    pager.reserve(next_owner, tokens);
                    let mut chain = Vec::new();
                    label_pages(&mut chain, tokens, page, &mut next_key);
                    live.push((next_owner, seq, chain));
                    next_owner += 1;
                }
                1 => {
                    let (parent, parent_seq, parent_chain) = &live[at];
                    let j = (mix >> 16) as usize % (parent_seq.len() / page + 1);
                    let mut chain = parent_chain[..j].to_vec();
                    pager.register_prefix(*parent, &chain);
                    prop_assert_eq!(pager.adopt_prefix(next_owner, &chain), j);
                    let mut seq = store.fork(parent_seq, j * page);
                    push_rows(&mut store, &mut seq, tokens);
                    pager.reserve(next_owner, seq.len());
                    label_pages(&mut chain, seq.len(), page, &mut next_key);
                    live.push((next_owner, seq, chain));
                    next_owner += 1;
                }
                2 => {
                    let (owner, seq, chain) = &mut live[at];
                    push_rows(&mut store, seq, tokens);
                    pager.reserve(*owner, seq.len());
                    label_pages(chain, seq.len(), page, &mut next_key);
                }
                3 => {
                    let (owner, seq, chain) = &mut live[at];
                    let keep = (mix >> 16) as usize % (chain.len() + 1);
                    pager.truncate(*owner, keep);
                    store.truncate(seq, keep * page);
                    chain.truncate(keep);
                }
                _ => {
                    let (owner, mut seq, _) = live.swap_remove(at);
                    pager.release(owner);
                    store.release(&mut seq);
                }
            }
            for (owner, seq, _) in &live {
                prop_assert_eq!(pager.pages_of(*owner), seq.len().div_ceil(page));
            }
            prop_assert_eq!(pager.allocated_pages(), store.allocated_pages());
            let mapped: usize = live.iter().map(|(_, s, _)| s.len().div_ceil(page)).sum();
            prop_assert_eq!(pager.mapped_pages(), mapped);
            let shared = (0..pager.total_pages())
                .filter(|&p| pager.refcount(p) > 1)
                .count();
            prop_assert_eq!(shared, store.shared_pages());
            pager.validate();
            store.validate(&live.iter().map(|(_, s, _)| s).collect::<Vec<_>>());
        }
    }

    /// Cluster conservation: under arbitrary enqueue/step interleavings —
    /// any shard count, routing policy, scheduler policy, chunked-prefill
    /// budget, stealing and preemption on or off — no request is lost,
    /// duplicated, or decoded on two shards; every shard's pager satisfies
    /// its conservation oracle at the end and drains to nothing allocated;
    /// shards stay in lockstep with the cluster clock; with stealing off
    /// every request finishes on the shard it was routed to; and the
    /// pooled report sums the shards' tokens over every cluster step.
    #[test]
    fn cluster_conserves_requests_across_shards(
        seed in any::<u64>(),
        shards in 1usize..5,
        routing_idx in 0usize..3,
        stealing in any::<bool>(),
        policy_idx in 0usize..PolicyKind::all().len(),
        preempt in any::<bool>(),
        prefill_chunk in 0usize..3,
        tiered in any::<bool>(),
        ops in prop::collection::vec(0u8..4, 4..28),
    ) {
        let routing = RoutingKind::all()[routing_idx];
        let policy = PolicyKind::all()[policy_idx];
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        let mut cfg = ServingConfig::new(accel.clone());
        cfg.heads = 2;
        cfg.weight_bytes = 1_000_000;
        cfg.admission = AdmissionConfig {
            max_batch: 2,
            max_batch_tokens: 400,
            page_size: 16,
            prefix_cache: true,
        };
        cfg.seed = seed;
        cfg.prefill_factor = 1.0;
        cfg.prefill_chunk_pages = prefill_chunk;
        if tiered {
            // The tiered dimensions: a bounded host swap tier and priced
            // cross-shard page shipping on top of the same invariants.
            cfg.host_pages = 32;
            cfg.swap_cost_factor = 0.25;
            cfg.ship_cost_factor = 0.25;
        }
        if preempt {
            cfg.preemption =
                PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
        }
        let mut cluster = ClusterEngine::builder(accel)
            .config(cfg)
            .policy(policy)
            .shards(shards)
            .routing(routing)
            .stealing(stealing)
            .build();

        let mut next_id = 0u64;
        let mut routed: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if *op == 0 {
                let mix = seed.wrapping_mul(31).wrapping_add(i as u64);
                let req = ServingRequest::new(
                    next_id,
                    4 + (mix % 48) as usize,
                    1 + (mix % 5) as usize,
                )
                .with_priority((mix % 7) as u8)
                .with_client(mix % 3)
                .with_shared_prefix(mix % 2, 16 * ((mix % 3) as usize))
                .arriving_at(mix % 6);
                let shard = cluster.enqueue(req).expect("request fits any shard alone");
                prop_assert!(shard < shards);
                routed.insert(next_id, shard);
                next_id += 1;
            } else {
                cluster.step().expect("step succeeds");
                cluster.validate();
            }
        }
        let mut guard = 0;
        while !cluster.is_idle() {
            cluster.step().expect("step succeeds");
            cluster.validate();
            guard += 1;
            prop_assert!(guard < 4096, "cluster failed to drain");
        }

        let report = cluster.report();
        // No request lost or duplicated: the finished ids across all
        // shards are exactly the enqueued ids, each exactly once.
        let mut finished: Vec<u64> = report.requests().map(|(_, r)| r.id).collect();
        finished.sort_unstable();
        let mut expected: Vec<u64> = (0..next_id).collect();
        expected.sort_unstable();
        prop_assert_eq!(finished, expected, "requests lost or duplicated");
        // No request ever decodes on two shards — unless shipping
        // migrated it (a `Shipped` event for that id), in which case the
        // shard may change but each id still decodes on one shard at a
        // time, never two in the same step.
        let shipped_ids: std::collections::HashSet<u64> = cluster
            .events()
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::Shipped { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let mut decode_shard: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        let mut decode_step: std::collections::HashMap<u64, (usize, usize)> =
            std::collections::HashMap::new();
        for e in cluster.events() {
            if let ClusterEvent::Shard {
                shard_id,
                event: ServeEvent::TokenGenerated { id, step, .. },
            } = e
            {
                let prev = decode_shard.insert(*id, *shard_id);
                prop_assert!(
                    prev.is_none() || prev == Some(*shard_id) || shipped_ids.contains(id),
                    "request {} decoded on shards {:?} and {} without a ship",
                    id,
                    prev,
                    shard_id
                );
                if let Some((s, shard)) = decode_step.insert(*id, (*step, *shard_id)) {
                    prop_assert!(
                        s != *step || shard == *shard_id,
                        "request {} decoded on two shards in step {}",
                        id,
                        step
                    );
                }
            }
        }
        if !tiered {
            prop_assert!(shipped_ids.is_empty(), "shipping fired with the tier off");
            prop_assert_eq!(report.ships, 0);
        }
        // With stealing off, every request finishes on its routed shard.
        if !stealing {
            prop_assert_eq!(report.steals, 0);
            for (shard, r) in report.requests() {
                prop_assert_eq!(
                    shard,
                    routed[&r.id],
                    "request {} finished off its routed shard",
                    r.id
                );
            }
        }
        // Every shard's pager conserves and drains; shards kept lockstep.
        for i in 0..cluster.shard_count() {
            let pager = cluster.shard(i).kv_pager();
            pager.validate();
            prop_assert_eq!(pager.allocated_pages(), 0);
            prop_assert_eq!(report.shards[i].steps.len(), report.cluster_steps);
        }
        // The pooled report covers every shard's tokens and every
        // cluster step.
        let pooled = report.pooled();
        prop_assert_eq!(
            pooled.tokens_generated,
            report.shards.iter().map(|s| s.tokens_generated).sum::<usize>()
        );
        prop_assert_eq!(pooled.steps.len(), report.cluster_steps);
    }

    /// At any truncation point of any tiered cluster run — mid-prefill,
    /// mid-decode, before the first completion — the admission-normalized
    /// prefix hit rate stays inside [0, 1]. The old finished-only
    /// normalization could pin it to 0.0 with hits already landed; a
    /// demand derived from anything narrower than admissions could push
    /// it past 1.
    #[test]
    fn truncated_run_prefix_hit_rate_stays_in_unit_range(
        seed in any::<u64>(),
        shards in 1usize..4,
        cutoff in 1usize..40,
        tiered in any::<bool>(),
    ) {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        let mut cfg = ServingConfig::new(accel.clone());
        cfg.heads = 2;
        cfg.weight_bytes = 1_000_000;
        cfg.admission = AdmissionConfig {
            max_batch: 2,
            max_batch_tokens: 600,
            page_size: 16,
            prefix_cache: true,
        };
        cfg.seed = seed;
        cfg.prefill_factor = 1.0;
        if tiered {
            cfg.host_pages = 16;
            cfg.swap_cost_factor = 0.25;
            cfg.ship_cost_factor = 0.25;
        }
        let mut cluster = ClusterEngine::builder(accel)
            .config(cfg)
            .shards(shards)
            .routing(RoutingKind::PrefixAffinity)
            .build();
        for i in 0..10u64 {
            let mix = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i);
            cluster
                .enqueue(
                    ServingRequest::new(i, 32 + (mix % 64) as usize, 4 + (mix % 16) as usize)
                        .with_shared_prefix(i % 2, 32)
                        .arriving_at(mix % 8),
                )
                .expect("valid request");
        }
        for _ in 0..cutoff {
            let rate = cluster.report().pooled().prefix_hit_rate();
            prop_assert!(
                (0.0..=1.0).contains(&rate),
                "truncated hit rate {} left the unit range",
                rate
            );
            if cluster.step().expect("step succeeds").is_none() {
                break;
            }
        }
        let mut guard = 0;
        while !cluster.is_idle() {
            cluster.step().expect("step succeeds");
            guard += 1;
            prop_assert!(guard < 4096, "cluster failed to drain");
        }
        let rate = cluster.report().pooled().prefix_hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate), "drained hit rate {}", rate);
    }

    /// Chunk charges telescope exactly: for any workload of priced
    /// prompts, any policy and any finite chunk budget, splitting
    /// prefill across steps leaves every request's generated tokens,
    /// total prefill bill and decode attention identical to the one-lump
    /// run — and the chunk events walk each prompt's frontier
    /// monotonically without ever reaching the boundary (the completing
    /// step decodes instead).
    #[test]
    fn chunked_prefill_telescopes_to_the_lump_bill(
        seed in any::<u64>(),
        n in 2usize..8,
        max_batch in 1usize..4,
        chunk in 1usize..8,
        policy_idx in 0usize..PolicyKind::all().len(),
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let requests: Vec<ServingRequest> = (0..n as u64)
            .map(|id| {
                let mix = seed.wrapping_mul(0x9E37_79B9).wrapping_add(id * 0x85EB_CA6B);
                ServingRequest::new(id, 16 + (mix % 200) as usize, 1 + (mix % 4) as usize)
                    .arriving_at(mix % 5)
            })
            .collect();
        let run = |chunk_pages: usize| {
            let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
            let mut engine = ServingEngine::builder(accel)
                .heads(2)
                .weight_bytes(1_000_000)
                .max_batch(max_batch)
                .max_batch_tokens(2048)
                .page_size(16)
                .prefill_factor(1.0)
                .prefill_chunk_pages(chunk_pages)
                .seed(seed)
                .policy(policy)
                .build();
            for r in &requests {
                engine.enqueue(*r).expect("request fits the budget alone");
            }
            let report = engine.run_to_completion(8192).expect("completes");
            let events = engine.drain_events();
            (report, events)
        };
        let (lump, _) = run(0);
        let (split, events) = run(chunk);
        prop_assert_eq!(lump.tokens_generated, split.tokens_generated);
        for a in &lump.requests {
            let b = split
                .requests
                .iter()
                .find(|r| r.id == a.id)
                .expect("request finished under chunking");
            prop_assert_eq!(a.generated, b.generated, "request {} tokens", a.id);
            prop_assert_eq!(
                a.prefill_cycles,
                b.prefill_cycles,
                "request {} chunk charges must telescope to the lump",
                a.id
            );
            prop_assert_eq!(
                a.attention_cycles,
                b.attention_cycles,
                "request {} decode attention",
                a.id
            );
        }
        let mut frontier: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for e in &events {
            if let ServeEvent::PrefillChunk { id, built_tokens, remaining_tokens, .. } = e {
                let prompt = requests[*id as usize].prompt_len;
                prop_assert_eq!(
                    built_tokens + remaining_tokens,
                    prompt,
                    "request {} frontier must tile the prompt",
                    id
                );
                let prev = frontier.insert(*id, *built_tokens).unwrap_or(0);
                prop_assert!(*built_tokens > prev, "request {} frontier stalled", id);
                prop_assert!(*built_tokens < prompt, "a completing chunk decodes instead");
            }
        }
    }

    /// Baseline output equals exact attention for any workload.
    #[test]
    fn scenario_record_replay_is_a_fixed_point_at_any_seed(
        kind_idx in 0usize..ScenarioKind::all().len(),
        scenario_seed in any::<u64>(),
        policy_idx in 0usize..PolicyKind::all().len(),
    ) {
        // Every scenario at an arbitrary seed, on a 2-shard cluster with
        // least-loaded routing and stealing (the placement machinery most
        // sensitive to event ordering): record → replay → record must
        // reproduce the trace exactly.
        let kind = ScenarioKind::all()[kind_idx];
        let policy = PolicyKind::all()[policy_idx];
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let cfg = kind.build().serving_config(accel);
        let meta = TraceMeta::new(&cfg, policy.name())
            .for_scenario(kind.name(), scenario_seed)
            .for_cluster(2, RoutingKind::LeastLoaded.name(), true, 1);
        let requests = kind.build().generate(scenario_seed);
        let (first, _) = run_recorded(&meta, &requests).expect("record");
        let (second, _) = first.replay().expect("replay");
        prop_assert_eq!(first.digest, second.digest, "{}/{}", kind, policy);
        prop_assert_eq!(&first.events, &second.events, "{}/{}", kind, policy);
    }

    /// A cluster of one *is* the engine: on any scenario at any seed,
    /// under any policy and any mix of preemption with fractional
    /// retention, chunked prefill, a host swap tier and expired-TTFT
    /// rejection, a 1-shard round-robin cluster emits the bare engine's
    /// event stream wrapped as shard 0 — event for event, not merely the
    /// same digest or report.
    #[test]
    fn one_shard_cluster_is_event_identical_to_the_bare_engine(
        kind_idx in 0usize..ScenarioKind::all().len(),
        scenario_seed in any::<u64>(),
        policy_idx in 0usize..PolicyKind::all().len(),
        preempt in any::<bool>(),
        retention_fraction in 0.05f64..0.95,
        prefill_chunk in 0usize..4,
        host_tier in any::<bool>(),
        reject in any::<bool>(),
    ) {
        let kind = ScenarioKind::all()[kind_idx];
        let policy = PolicyKind::all()[policy_idx];
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut cfg = kind.build().serving_config(accel.clone());
        if preempt {
            cfg.preemption = PreemptionConfig::enabled()
                .with_retention(RetentionPolicy::Fraction(retention_fraction));
        }
        cfg.prefill_chunk_pages = prefill_chunk;
        cfg.host_pages = if host_tier { 64 } else { 0 };
        cfg.reject_expired_ttft = reject;
        let requests = kind.build().generate(scenario_seed);

        let mut engine = ServingEngine::builder(accel.clone())
            .config(cfg.clone())
            .policy(policy)
            .build();
        let mut cluster = ClusterEngine::builder(accel)
            .config(cfg)
            .policy(policy)
            .shards(1)
            .routing(RoutingKind::RoundRobin)
            .build();
        for req in &requests {
            engine.enqueue(*req).expect("valid request");
            prop_assert_eq!(cluster.enqueue(*req).expect("valid request"), 0);
        }
        // `run_to_completion`, with the residency oracle after every step.
        let mut steps = 0;
        while engine.step().expect("engine steps").is_some() {
            engine.validate();
            steps += 1;
            prop_assert!(steps < 100_000, "engine failed to drain");
        }
        while cluster.step().expect("cluster steps").is_some() {
            cluster.validate();
            steps += 1;
            prop_assert!(steps < 200_000, "cluster failed to drain");
        }
        let (engine_report, cluster_report) = (engine.report(), cluster.report());
        let wrapped: Vec<ClusterEvent> = engine
            .drain_events()
            .into_iter()
            .map(|event| ClusterEvent::Shard { shard_id: 0, event })
            .collect();
        prop_assert_eq!(cluster.events().len(), wrapped.len(), "{}/{}", kind, policy);
        for (i, (got, want)) in cluster.events().iter().zip(&wrapped).enumerate() {
            prop_assert_eq!(got, want, "{}/{} event {}", kind, policy, i);
        }
        prop_assert_eq!(&cluster_report.shards[0], &engine_report);
        prop_assert_eq!(cluster_report.total_cycles, engine_report.total_cycles);
        prop_assert_eq!(cluster_report.cluster_steps, engine_report.steps.len());
    }

    /// `Trace::parse` is total on hostile input: byte-mutated, line-dropped
    /// and truncated renders either fail with an error or parse to a trace
    /// whose render is a fixed point — never a panic, never a trace that
    /// does not survive its own line format.
    #[test]
    fn trace_parse_survives_mutated_renders(
        seed in any::<u64>(),
        mutations in prop::collection::vec(any::<u64>(), 1..6),
        damage in 0u8..4,
    ) {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let kind = ScenarioKind::SharedPrefixChat;
        let mut cfg = kind.build().serving_config(accel);
        cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
        cfg.prefill_chunk_pages = 2;
        cfg.host_pages = 16;
        let meta = TraceMeta::new(&cfg, PolicyKind::PriorityAging.name())
            .for_scenario(kind.name(), seed % 4)
            .for_cluster(2, RoutingKind::LeastLoaded.name(), true, 1);
        let requests: Vec<ServingRequest> = kind
            .build()
            .generate(seed % 4)
            .into_iter()
            .take(6)
            .map(|r| r.with_ttft_deadline(40))
            .collect();
        let (trace, _) = run_recorded(&meta, &requests).expect("record");
        let mut bytes = trace.render().into_bytes();
        match damage {
            // Overwrite bytes anywhere (structure, keys, digits, newlines).
            0 => {
                for m in &mutations {
                    let at = (*m as usize) % bytes.len();
                    bytes[at] = (m >> 32) as u8;
                }
            }
            // Flip single digits, the mutation a digest has to catch.
            1 => {
                let digits: Vec<usize> = (0..bytes.len())
                    .filter(|&i| bytes[i].is_ascii_digit())
                    .collect();
                for m in &mutations {
                    let at = digits[(*m as usize) % digits.len()];
                    bytes[at] = b'0' + ((m >> 32) % 10) as u8;
                }
            }
            // Drop whole lines.
            2 => {
                let text = String::from_utf8(bytes).expect("renders are UTF-8");
                let lines: Vec<&str> = text.lines().collect();
                let dropped: Vec<usize> =
                    mutations.iter().map(|m| (*m as usize) % lines.len()).collect();
                let kept: Vec<&str> = lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !dropped.contains(i))
                    .map(|(_, l)| *l)
                    .collect();
                bytes = (kept.join("\n") + "\n").into_bytes();
            }
            // Truncate mid-stream.
            _ => bytes.truncate((mutations[0] as usize) % bytes.len()),
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = Trace::parse(&text) {
            let rendered = parsed.render();
            let reparsed = Trace::parse(&rendered).expect("a parsed trace re-renders parseably");
            prop_assert_eq!(reparsed.render(), rendered);
        }
    }

    /// Every serving option survives a trace: the meta snapshots the
    /// config it was given, and render → parse returns the same meta —
    /// over the paper accelerator in any mode, any retention, the host
    /// tier on or off (with a non-default copy-back price either way).
    #[test]
    fn trace_meta_round_trips_every_serving_option(
        mode_idx in 0usize..4,
        threshold_exp in 1i32..6,
        sizes in prop::collection::vec(0usize..4096, 7),
        factors in prop::collection::vec(0.0f64..4.0, 3),
        toggles in prop::collection::vec(any::<bool>(), 6),
        retention_idx in 0usize..3,
        retention_fraction in 0.01f64..0.99,
        seed in any::<u64>(),
        weight_bytes in any::<u64>(),
        clock_hz in 1e6f64..4e9,
        policy_idx in 0usize..PolicyKind::all().len(),
        routing_idx in 0usize..3,
    ) {
        let mode = [
            AccelMode::Baseline,
            AccelMode::EstimateOnly,
            AccelMode::OutOfOrder,
            AccelMode::Blocking,
        ][mode_idx];
        let accel = AccelConfig::paper(mode, 10f64.powi(-threshold_exp)).expect("valid threshold");
        let mut cfg = ServingConfig::new(accel);
        cfg.admission = AdmissionConfig {
            max_batch: sizes[0],
            max_batch_tokens: sizes[1],
            page_size: sizes[2],
            prefix_cache: toggles[0],
        };
        cfg.preemption = PreemptionConfig {
            enabled: toggles[1],
            retention: [
                RetentionPolicy::None,
                RetentionPolicy::Pages(sizes[3]),
                RetentionPolicy::Fraction(retention_fraction),
            ][retention_idx],
        };
        cfg.prefill_factor = factors[0];
        cfg.prefill_chunk_pages = sizes[4] % 4;
        cfg.host_pages = if toggles[2] { sizes[5] } else { 0 };
        if toggles[3] {
            cfg.swap_cost_factor = factors[1];
        }
        cfg.ship_cost_factor = if toggles[4] { factors[2] } else { 0.0 };
        cfg.reject_expired_ttft = toggles[5];
        cfg.heads = sizes[6];
        cfg.weight_bytes = weight_bytes;
        cfg.seed = seed;
        cfg.clock_hz = clock_hz;

        let policy = PolicyKind::all()[policy_idx];
        let meta = TraceMeta::new(&cfg, policy.name())
            .for_cluster(1 + sizes[0] % 8, RoutingKind::all()[routing_idx].name(), toggles[0], 1 + sizes[1] % 8)
            .for_scenario("shared-prefix-chat", seed)
            .with_max_steps(sizes[2]);
        prop_assert_eq!(meta.serving_config(), &cfg);
        let trace = TraceRecorder::new(meta).finish();
        let parsed = Trace::parse(&trace.render()).expect("rendered traces parse");
        prop_assert_eq!(&parsed.meta, &trace.meta);
        prop_assert_eq!(parsed.render(), trace.render());
    }

    #[test]
    fn baseline_always_exact(seed in any::<u64>(), n in 1usize..64) {
        let dim = 64;
        let (q, keys, values) = random_instance(seed, n, dim);
        let r = ToPickAccelerator::new(AccelConfig::baseline())
            .run_attention(&q, &keys, Rows::new(&values, dim))
            .expect("run");
        let probs = exact_probabilities(&q, &keys);
        let pairs: Vec<(usize, f64)> = probs.into_iter().enumerate().collect();
        let expect = topick_core::weighted_value_sum(&pairs, Rows::new(&values, dim));
        for (a, b) in r.output.iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
        prop_assert_eq!(r.kept.len(), n);
    }
}
