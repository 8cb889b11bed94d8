//! Per-request, per-step and aggregate observability of a served workload.

use topick_core::PruneStats;

use super::queue::ServingRequest;

/// Lifecycle record of one request, filled in as the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestStats {
    /// The request's id.
    pub id: u64,
    /// Context length at arrival.
    pub prompt_len: usize,
    /// Tokens generated so far (equals the target once finished).
    pub generated: usize,
    /// Scheduling priority the request carried.
    pub priority: u8,
    /// Originating client.
    pub client_id: u64,
    /// Engine step at which the request became schedulable (its arrival
    /// step, or the enqueue step if it arrived immediately).
    pub enqueued_at: usize,
    /// Engine step at which it first joined the running batch.
    pub admitted_at: Option<usize>,
    /// Engine step in which its first token was generated.
    pub first_token_at: Option<usize>,
    /// Engine step after which it completed.
    pub finished_at: Option<usize>,
    /// How many times the scheduler evicted it back to the queue.
    pub preemptions: u32,
    /// Attention cycles attributed to this request (per-head cost × heads).
    pub attention_cycles: u64,
    /// Prompt-prefill cycles charged on this request's first decode step
    /// (0 unless the engine prices prefill via
    /// [`prefill_factor`](super::ServingConfig::prefill_factor); shrinks
    /// with every prompt token the prefix cache served).
    pub prefill_cycles: u64,
    /// KV re-prefill cycles charged to this request across re-admissions.
    pub reprefill_cycles: u64,
    /// Prompt tokens served out of the shared-prefix cache at this
    /// request's admissions — KV this request never had to (re-)prefill
    /// because the pages were adopted copy-on-write from another request
    /// or from the retained cache.
    pub prefix_hit_tokens: usize,
    /// KV tokens whose pages survived this request's preemptions and were
    /// carried into re-admission (0 without paged retention, or if the
    /// retained pages were reclaimed under admission pressure).
    pub retained_tokens: usize,
    /// KV tokens actually re-prefilled after preemptions (equals the full
    /// evicted contexts under full re-prefill; only the dropped suffixes
    /// under paged retention).
    pub reprefilled_tokens: usize,
    /// KV tokens this request copied back from the modeled host tier
    /// across re-admissions — evicted KV whose contents survived a
    /// swap-out and so were re-priced at
    /// [`swap_cost_factor`](super::ServingConfig::swap_cost_factor)
    /// instead of being re-prefilled (0 without a host tier).
    pub swapped_tokens: usize,
    /// Host-tier copy-back cycles charged to this request across
    /// re-admissions (0 without a host tier).
    pub swap_cycles: u64,
    /// KV tokens that followed this request across shards — prefix pages
    /// pulled from a sibling shard or the built context of a migrated
    /// running request, re-priced at
    /// [`ship_cost_factor`](super::ServingConfig::ship_cost_factor)
    /// instead of being re-prefilled (0 without shipping).
    pub shipped_tokens: usize,
    /// Cross-shard transfer cycles charged to this request (0 without
    /// shipping).
    pub ship_cycles: u64,
    /// The TTFT deadline the request carried, if any (steps from
    /// [`enqueued_at`](Self::enqueued_at), first-token step inclusive).
    pub ttft_deadline: Option<u64>,
    /// The inter-token deadline the request carried, if any (maximum steps
    /// between consecutive generated tokens).
    pub itl_deadline: Option<u64>,
    /// Tokens generated before any deadline was blown — the request's
    /// contribution to goodput-under-SLO. A missed TTFT leaves this at 0
    /// (even the first token was already late); a missed inter-token
    /// deadline stops the count at the tokens delivered on time.
    pub good_tokens: usize,
    /// Whether the request has blown any of its deadlines. Never set for
    /// deadline-free requests.
    pub slo_violated: bool,
}

impl RequestStats {
    /// The record of `req` as it becomes schedulable at step
    /// `enqueued_at`: nothing admitted, generated or charged yet.
    pub(crate) fn queued(req: &ServingRequest, enqueued_at: usize) -> Self {
        Self {
            id: req.id,
            prompt_len: req.prompt_len,
            generated: 0,
            priority: req.priority,
            client_id: req.client_id,
            enqueued_at,
            admitted_at: None,
            first_token_at: None,
            finished_at: None,
            preemptions: 0,
            attention_cycles: 0,
            prefill_cycles: 0,
            reprefill_cycles: 0,
            prefix_hit_tokens: 0,
            retained_tokens: 0,
            reprefilled_tokens: 0,
            swapped_tokens: 0,
            swap_cycles: 0,
            shipped_tokens: 0,
            ship_cycles: 0,
            ttft_deadline: req.ttft_deadline,
            itl_deadline: req.itl_deadline,
            good_tokens: 0,
            slo_violated: false,
        }
    }

    /// Whether the request carried any SLO deadline — the denominator of
    /// deadline-attainment accounting.
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        self.ttft_deadline.is_some() || self.itl_deadline.is_some()
    }

    /// The session-level summary of this request, once it has produced at
    /// least one token (`None` before that).
    #[must_use]
    pub fn session(&self) -> Option<SessionStats> {
        let admitted = self.admitted_at?;
        Some(SessionStats {
            queue_wait_steps: admitted.saturating_sub(self.enqueued_at),
            time_to_first_token_steps: self.ttft_steps()?,
        })
    }

    /// Steps from becoming schedulable until the first token existed,
    /// once it has (inclusive of the generating step, so the minimum is
    /// 1).
    pub(crate) fn ttft_steps(&self) -> Option<usize> {
        Some(self.first_token_at? - self.enqueued_at + 1)
    }
}

/// The two times a request's [`RequestStats`] yields only once it has
/// produced a token, in engine steps (one batched decode iteration each).
/// Everything else about a finished request is read off its
/// [`RequestStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Steps spent in the arrival queue before first admission.
    pub queue_wait_steps: usize,
    /// Steps from becoming schedulable until the first token existed
    /// (inclusive of the generating step, so the minimum is 1).
    pub time_to_first_token_steps: usize,
}

/// What one engine step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Step index (0-based).
    pub index: usize,
    /// Requests decoding in this step (0 for an idle tick while the
    /// engine waits on future arrivals).
    pub batch: usize,
    /// Tokens generated in this step. Equals [`batch`](Self::batch) except
    /// while chunked prefill is in flight: a slot still building its
    /// prompt contributes prefill work but no token.
    pub decoded: usize,
    /// Total context tokens attended over in this step — the step's
    /// attention work. Slots mid-chunked-prefill contribute their built
    /// frontier.
    pub context_tokens: usize,
    /// Cycles streaming the shared weights.
    pub weight_cycles: u64,
    /// Cycles of batched attention (requests share the lanes serially).
    pub attention_cycles: u64,
    /// Cycles prefilling freshly admitted requests' prompts (0 unless the
    /// engine prices prefill). Scales with the share of each prompt the
    /// prefix cache could *not* serve, so prefix caching shrinks it.
    pub prefill_cycles: u64,
    /// Cycles rebuilding KV caches of re-admitted (preempted) requests —
    /// the step-model charge that makes eviction never free. Scales with
    /// the *dropped* share of each victim's context, so paged retention
    /// shrinks it while full re-prefill pays for the whole context.
    pub reprefill_cycles: u64,
    /// Cycles copying swapped KV back from the modeled host tier for
    /// re-admitted requests (0 without a host tier). Replaces the
    /// re-prefill charge for the tokens that survived off-device.
    pub swap_cycles: u64,
    /// Cycles transferring shipped KV pages across shards (0 without
    /// shipping). Replaces the prefill/re-prefill charge for the tokens
    /// whose pages arrived from a sibling shard.
    pub ship_cycles: u64,
}

impl StepReport {
    /// An all-zero idle tick at `index`: the shape of a step in which the
    /// engine only advanced time (waiting on future arrivals, or kept in
    /// lockstep by a cluster while its peers work).
    #[must_use]
    pub fn idle(index: usize) -> Self {
        Self {
            index,
            batch: 0,
            decoded: 0,
            context_tokens: 0,
            weight_cycles: 0,
            attention_cycles: 0,
            prefill_cycles: 0,
            reprefill_cycles: 0,
            swap_cycles: 0,
            ship_cycles: 0,
        }
    }

    /// Total cycles of the step.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.weight_cycles
            + self.attention_cycles
            + self.prefill_cycles
            + self.reprefill_cycles
            + self.swap_cycles
            + self.ship_cycles
    }
}

/// Aggregate outcome of a served workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingReport {
    /// Name of the scheduling policy that produced this run.
    pub policy: String,
    /// Per-step records, in order.
    pub steps: Vec<StepReport>,
    /// Per-request lifecycle records, in completion order.
    pub requests: Vec<RequestStats>,
    /// Total engine cycles across all steps.
    pub total_cycles: u64,
    /// Tokens generated across all requests.
    pub tokens_generated: usize,
    /// Total evictions the scheduler performed.
    pub preemptions: usize,
    /// Prompt tokens demanded across every admission the engine performed
    /// — each admission (first or re-) demands the request's full prompt.
    /// Unlike a sum over finished requests, this counts in-flight
    /// admissions too, so hit rates stay in `[0, 1]` on truncated runs.
    pub admitted_prompt_tokens: usize,
    /// Prompt tokens the shared-prefix cache served across every
    /// admission — the same population as
    /// [`admitted_prompt_tokens`](Self::admitted_prompt_tokens), so the
    /// ratio is a well-formed rate even mid-run.
    pub admitted_hit_tokens: usize,
    /// Requests refused at admission time because their TTFT deadline had
    /// already elapsed in the queue (only under the opt-in
    /// [`reject_expired_ttft`](super::ServingConfig::reject_expired_ttft)
    /// flag).
    pub rejections: usize,
    /// Aggregate pruning statistics over every simulated attention step.
    pub prune: PruneStats,
}

impl ServingReport {
    /// Lockstep shard reports pooled into one: step `i`'s fields summed
    /// over every shard that recorded a step `i` (so a step's cycles are
    /// its summed work, not its critical path), finished requests
    /// concatenated in shard order, counters summed, pruning statistics
    /// merged — and `makespan` as the total cycles, since the shards ran
    /// in parallel.
    pub(crate) fn pool(shards: &[Self], makespan: u64) -> Self {
        let mut steps: Vec<StepReport> = Vec::new();
        for (i, step) in shards.iter().flat_map(|s| s.steps.iter().enumerate()) {
            let Some(p) = steps.get_mut(i) else {
                steps.push(*step);
                continue;
            };
            // Written out field by field, so a new field fails to compile
            // until it is pooled; lockstep shards share step `i`'s index.
            *p = StepReport {
                index: p.index,
                batch: p.batch + step.batch,
                decoded: p.decoded + step.decoded,
                context_tokens: p.context_tokens + step.context_tokens,
                weight_cycles: p.weight_cycles + step.weight_cycles,
                attention_cycles: p.attention_cycles + step.attention_cycles,
                prefill_cycles: p.prefill_cycles + step.prefill_cycles,
                reprefill_cycles: p.reprefill_cycles + step.reprefill_cycles,
                swap_cycles: p.swap_cycles + step.swap_cycles,
                ship_cycles: p.ship_cycles + step.ship_cycles,
            };
        }
        let mut prune = shards.first().map(|s| s.prune.clone()).unwrap_or_default();
        for s in shards.iter().skip(1) {
            prune.merge(&s.prune);
        }
        let sum = |f: fn(&Self) -> usize| shards.iter().map(f).sum();
        Self {
            policy: shards.first().map(|s| s.policy.clone()).unwrap_or_default(),
            steps,
            requests: shards
                .iter()
                .flat_map(|s| s.requests.iter().copied())
                .collect(),
            total_cycles: makespan,
            tokens_generated: sum(|s| s.tokens_generated),
            preemptions: sum(|s| s.preemptions),
            admitted_prompt_tokens: sum(|s| s.admitted_prompt_tokens),
            admitted_hit_tokens: sum(|s| s.admitted_hit_tokens),
            rejections: sum(|s| s.rejections),
            prune,
        }
    }

    /// End-to-end throughput in generated tokens per second at `clock_hz`.
    #[must_use]
    pub fn tokens_per_second(&self, clock_hz: f64) -> f64 {
        self.per_second(self.tokens_generated, clock_hz)
    }

    /// `tokens` delivered over the run's cycles at `clock_hz`, per second
    /// (0 for an empty run).
    fn per_second(&self, tokens: usize, clock_hz: f64) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        tokens as f64 / (self.total_cycles as f64 / clock_hz)
    }

    /// Mean decode-step latency in cycles.
    #[must_use]
    pub fn mean_step_cycles(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.total_cycles as f64 / self.steps.len() as f64
    }

    /// Mean steps finished requests waited in the queue before admission.
    #[must_use]
    pub fn mean_queue_wait_steps(&self) -> f64 {
        self.mean_session(|s| s.queue_wait_steps as f64)
    }

    /// Total KV re-prefill cycles charged across all steps — the price of
    /// every eviction, which paged retention exists to shrink.
    #[must_use]
    pub fn total_reprefill_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.reprefill_cycles).sum()
    }

    /// Total prompt-prefill cycles charged across all steps — the cost
    /// prefix caching exists to shrink (0 unless the engine prices
    /// prefill).
    #[must_use]
    pub fn total_prefill_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.prefill_cycles).sum()
    }

    /// Total batched-attention cycles charged across all steps — together
    /// with [`total_prefill_cycles`](Self::total_prefill_cycles) and
    /// [`total_reprefill_cycles`](Self::total_reprefill_cycles), the
    /// charged side of the charged-vs-measured cycle cross-check the
    /// real-token serving path pins.
    #[must_use]
    pub fn total_attention_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.attention_cycles).sum()
    }

    /// Total prompt tokens the shared-prefix cache served across all
    /// requests.
    #[must_use]
    pub fn total_prefix_hit_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.prefix_hit_tokens).sum()
    }

    /// Share of all prompt-prefill demand the shared-prefix cache served,
    /// in `[0, 1]` (0 when nothing was admitted). Both sides are counted
    /// *at admission* — demand by
    /// [`admitted_prompt_tokens`](Self::admitted_prompt_tokens), service
    /// by [`admitted_hit_tokens`](Self::admitted_hit_tokens) — so the
    /// ratio is well-formed even on truncated runs.
    #[must_use]
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.admitted_prompt_tokens == 0 {
            return 0.0;
        }
        self.admitted_hit_tokens as f64 / self.admitted_prompt_tokens as f64
    }

    /// Total host-tier copy-back cycles charged across all steps — the
    /// priced alternative to the re-prefill bill that swapping replaces.
    #[must_use]
    pub fn total_swap_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.swap_cycles).sum()
    }

    /// Total cross-shard transfer cycles charged across all steps.
    #[must_use]
    pub fn total_ship_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.ship_cycles).sum()
    }

    /// Total KV tokens copied back from the host tier across all requests.
    #[must_use]
    pub fn total_swapped_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.swapped_tokens).sum()
    }

    /// Total KV tokens that survived preemptions across all requests.
    #[must_use]
    pub fn total_retained_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.retained_tokens).sum()
    }

    /// Total KV tokens re-prefilled after preemptions across all requests.
    #[must_use]
    pub fn total_reprefilled_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.reprefilled_tokens).sum()
    }

    /// Mean time-to-first-token of finished requests, in steps.
    #[must_use]
    pub fn mean_ttft_steps(&self) -> f64 {
        self.mean_session(|s| s.time_to_first_token_steps as f64)
    }

    /// Tokens delivered within SLO across all finished requests (every
    /// token of a deadline-free request counts).
    #[must_use]
    pub fn total_good_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.good_tokens).sum()
    }

    /// Goodput under SLO in tokens per second at `clock_hz`: like
    /// [`tokens_per_second`](Self::tokens_per_second) but counting only
    /// tokens delivered before their request blew a deadline.
    #[must_use]
    pub fn goodput_tokens_per_second(&self, clock_hz: f64) -> f64 {
        self.per_second(self.total_good_tokens(), clock_hz)
    }

    /// Share of deadline-carrying requests that met every deadline, in
    /// `[0, 1]` (1 when no request carried a deadline — nothing was
    /// promised, nothing was missed).
    #[must_use]
    pub fn deadline_attainment(&self) -> f64 {
        let (mut carrying, mut attained) = (0usize, 0usize);
        for r in self.requests.iter().filter(|r| r.has_deadline()) {
            carrying += 1;
            attained += usize::from(!r.slo_violated);
        }
        if carrying == 0 {
            return 1.0;
        }
        attained as f64 / carrying as f64
    }

    /// The p99 time-to-first-token across finished requests, in steps
    /// (nearest-rank percentile; 0 when nothing produced a token). The
    /// tail-latency number chunked prefill exists to protect.
    #[must_use]
    pub fn ttft_p99_steps(&self) -> usize {
        let mut ttfts: Vec<usize> = self
            .requests
            .iter()
            .filter_map(RequestStats::ttft_steps)
            .collect();
        if ttfts.is_empty() {
            return 0;
        }
        ttfts.sort_unstable();
        let rank = (ttfts.len() as f64 * 0.99).ceil() as usize;
        ttfts[rank.clamp(1, ttfts.len()) - 1]
    }

    /// The largest prefill charge any single step carried, in cycles —
    /// the worst-case decode stall co-resident requests suffered while a
    /// prompt was being built. One lump prefill makes this the whole
    /// prompt's charge; chunking caps it near one chunk's worth.
    #[must_use]
    pub fn max_prefill_stall_cycles(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.prefill_cycles)
            .max()
            .unwrap_or(0)
    }

    /// The mean of `f` over the requests whose
    /// [`session`](RequestStats::session) exists, summed in completion
    /// order (0 when none does).
    fn mean_session(&self, f: impl Fn(SessionStats) -> f64) -> f64 {
        let (sum, n) = self
            .requests
            .iter()
            .filter_map(RequestStats::session)
            .fold((0.0, 0usize), |(sum, n), s| (sum + f(s), n + 1));
        if n == 0 {
            return 0.0;
        }
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished-request record with the given prompt/preemption/hit
    /// shape and every other field inert.
    fn request(id: u64, prompt_len: usize, preemptions: u32, hits: usize) -> RequestStats {
        RequestStats {
            generated: 1,
            admitted_at: Some(0),
            first_token_at: Some(0),
            finished_at: Some(0),
            preemptions,
            prefix_hit_tokens: hits,
            good_tokens: 1,
            ..RequestStats::queued(&ServingRequest::new(id, prompt_len, 1), 0)
        }
    }

    fn report(requests: Vec<RequestStats>, admitted: usize, hits: usize) -> ServingReport {
        ServingReport {
            policy: "fifo".to_string(),
            requests,
            admitted_prompt_tokens: admitted,
            admitted_hit_tokens: hits,
            ..ServingReport::default()
        }
    }

    /// A step at `index` that decoded `batch` requests over `weight` and
    /// `attention` cycles.
    fn step(index: usize, batch: usize, weight: u64, attention: u64) -> StepReport {
        StepReport {
            batch,
            decoded: batch,
            context_tokens: 10 * batch,
            weight_cycles: weight,
            attention_cycles: attention,
            ..StepReport::idle(index)
        }
    }

    /// Pooling sums step `i` over the shards that have one — a cluster
    /// step that failed part-way leaves the step counts unequal —
    /// concatenates requests in shard order, sums the counters, merges the
    /// pruning statistics and takes the makespan as the total cycles.
    #[test]
    fn pool_sums_steps_by_index_and_concatenates_requests_in_shard_order() {
        let prune = |tokens, kept| PruneStats {
            tokens,
            kept,
            chunk_fetches: vec![tokens as u64, kept as u64],
            pruned_at: vec![(tokens - kept) as u64, 0],
        };
        let a = ServingReport {
            steps: vec![step(0, 2, 100, 30), step(1, 1, 100, 10), step(2, 1, 100, 5)],
            tokens_generated: 4,
            preemptions: 1,
            prune: prune(40, 10),
            ..report(vec![request(1, 8, 1, 0), request(3, 8, 0, 4)], 24, 4)
        };
        let b = ServingReport {
            steps: vec![step(0, 1, 100, 20), step(1, 0, 0, 0)],
            tokens_generated: 1,
            rejections: 2,
            prune: prune(6, 3),
            ..report(vec![request(2, 16, 0, 16)], 16, 16)
        };
        let pooled = ServingReport::pool(&[a, b], 345);
        assert_eq!(
            pooled.steps,
            vec![step(0, 3, 200, 50), step(1, 1, 100, 10), step(2, 1, 100, 5)]
        );
        let ids: Vec<u64> = pooled.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 3, 2]);
        assert_eq!(pooled.prune, prune(46, 13));
        assert_eq!(pooled.total_cycles, 345);
        let counts = (
            pooled.tokens_generated,
            pooled.preemptions,
            pooled.rejections,
        );
        assert_eq!(counts, (5, 1, 2));
        let admitted = (pooled.admitted_prompt_tokens, pooled.admitted_hit_tokens);
        assert_eq!(admitted, (40, 20));
        assert!(ServingReport::pool(&[], 0).steps.is_empty());
    }

    /// Hand-computed retention scenario: a 10-token request is admitted,
    /// preempted with 8 tokens of its prompt KV retained, and re-admitted
    /// adopting those 8 tokens from the cache. Demand is 10 + 10 = 20
    /// admitted prompt tokens, service is 0 + 8 = 8, so the rate is
    /// exactly 0.4.
    #[test]
    fn prefix_hit_rate_is_exact_on_a_retention_scenario() {
        let r = report(vec![request(0, 10, 1, 8)], 20, 8);
        assert!((r.prefix_hit_rate() - 0.4).abs() < 1e-12);
    }

    /// Admission-normalized accounting reports a truncated run's true
    /// in-flight rate, before anything finished, and stays in `[0, 1]`.
    #[test]
    fn prefix_hit_rate_is_well_formed_mid_run() {
        // Nothing finished yet: 2 admissions of 16-token prompts, one of
        // them fully served by the cache.
        let r = report(Vec::new(), 32, 16);
        assert!((r.prefix_hit_rate() - 0.5).abs() < 1e-12);

        // Retention re-admissions can serve most of a prompt repeatedly;
        // the rate must still never leave [0, 1].
        let r = report(vec![request(0, 16, 3, 48)], 64, 48);
        let rate = r.prefix_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        assert!((rate - 0.75).abs() < 1e-12);

        // And an empty run divides to 0, not NaN.
        assert_eq!(report(Vec::new(), 0, 0).prefix_hit_rate(), 0.0);
    }
}
