//! Live per-request state, the admission limits of the running batch, and
//! the engine's batch bookkeeping.

use super::policy::RunningView;
use super::queue::ServingRequest;
use super::residency::Residency;
use super::stats::RequestStats;
use super::ServingEngine;
use topick_core::PruneStats;

/// Admission-control limits of the running batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum requests decoding concurrently.
    pub max_batch: usize,
    /// Maximum total context tokens across the batch (bounds KV-cache
    /// footprint). The budget is carved into fixed-size pages (see
    /// [`page_size`](Self::page_size)); a request is admitted only if
    /// free pages still cover its *final* context, so without preemption
    /// it can never be forced out mid-flight.
    pub max_batch_tokens: usize,
    /// Tokens per KV page. Admission provisions whole pages, so a
    /// request's footprint rounds up to page granularity — partially
    /// filled tail pages are fragmentation the budget pays for, and a
    /// non-page-aligned `max_batch_tokens` loses its remainder.
    pub page_size: usize,
    /// Enables copy-on-write prefix caching over the pager: full prompt
    /// pages are content-hashed and shared between requests with a common
    /// prompt prefix, and refcount-0 pages of retired requests stay
    /// resident as an LRU cache until allocation pressure reclaims them.
    /// Off by default — the schedule is then bit-identical to the
    /// sharing-free pager.
    pub prefix_cache: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_batch_tokens: 16 * 2048,
            page_size: 16,
            prefix_cache: false,
        }
    }
}

/// One simulated attention step of a request: per-head cycles and pruning
/// statistics at `context`.
#[derive(Debug, Clone)]
pub(crate) struct SimulatedStep {
    pub(crate) context: usize,
    pub(crate) head_cycles: u64,
    pub(crate) prune: PruneStats,
}

/// The attention steps simulated for a request ahead of the slots that
/// consume them, keyed by context: at most the one at its current context
/// and the one at the next. A step's pooled pass leaves the current one
/// for the same step's slot loop, and, on a pool that would otherwise
/// split unevenly, the next one for the next step's; a prefill chunk
/// leaves its own, because every chunk of a prompt and its first token
/// run at the same context and share one simulation. A step stays valid
/// while the request is queued, evicted, re-admitted or shipped: its
/// context does not move in between. Two contexts in a row differ in
/// parity, so each has its own place. Boxed and `None` while empty:
/// every queue move copies the request.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeptAttention(Option<Box<[Option<SimulatedStep>; 2]>>);

impl KeptAttention {
    /// Whether the step at `context` is kept.
    pub(crate) fn holds(&self, context: usize) -> bool {
        self.0.as_ref().is_some_and(|kept| {
            kept[context % 2]
                .as_ref()
                .is_some_and(|s| s.context == context)
        })
    }

    /// Keeps `step`, in place of whatever was kept at a context of its
    /// parity.
    pub(crate) fn keep(&mut self, step: SimulatedStep) {
        let place = step.context % 2;
        self.0.get_or_insert_with(Box::default)[place] = Some(step);
    }

    /// Takes the step kept at `context`, if there is one.
    pub(crate) fn take(&mut self, context: usize) -> Option<SimulatedStep> {
        let kept = self.0.as_mut()?;
        let step = kept[context % 2].take_if(|s| s.context == context);
        if kept.iter().all(Option::is_none) {
            self.0 = None;
        }
        step
    }
}

/// One request's live state inside the engine (queued or running).
#[derive(Debug, Clone)]
pub(crate) struct ActiveRequest {
    pub(crate) req: ServingRequest,
    /// Engine-assigned enqueue order, the stable tie-break every policy
    /// falls back to (and the request's owner key in the
    /// [`KvPager`](super::KvPager) — unlike caller-chosen ids, sequences
    /// are unique).
    pub(crate) arrival_seq: u64,
    /// Step since which the request has been waiting in the queue (its
    /// arrival, or its most recent eviction) — the baseline policies age
    /// against, so time spent *running* never counts as waiting.
    pub(crate) wait_since: usize,
    /// Step of the most recent admission (first or after a preemption).
    pub(crate) last_admitted_at: Option<usize>,
    /// Step of the most recent eviction, for the re-admission cooldown.
    pub(crate) last_evicted_at: Option<usize>,
    /// Where the request's KV lives and what it owes: prompt prefill or a
    /// post-eviction rebuild, tokens parked in the host tier, tokens in
    /// flight from a sibling shard.
    pub(crate) kv: Residency,
    /// Step of the most recent generated token, if any — the baseline the
    /// inter-token SLO races against.
    pub(crate) last_token_at: Option<usize>,
    /// Position-chained content hashes of the request's full prompt pages
    /// (empty while prefix caching is disabled).
    pub(crate) page_keys: Vec<u64>,
    /// Attention steps simulated for the request ahead of the slots that
    /// consume them.
    pub(crate) kept_attention: KeptAttention,
    pub(crate) stats: RequestStats,
}

impl ActiveRequest {
    /// Current context length: the prompt plus the tokens generated so far.
    pub(crate) fn context(&self) -> usize {
        self.req.prompt_len + self.stats.generated
    }

    /// Context length when the request will retire (bounds its KV budget).
    pub(crate) fn final_context(&self) -> usize {
        self.req.prompt_len + self.req.max_new_tokens
    }

    /// Context tokens whose KV genuinely exists on the device right now
    /// (see [`Residency::built_tokens`]).
    pub(crate) fn built_tokens(&self) -> usize {
        self.kv.built_tokens(self.context())
    }
}

/// The running batch's side of the engine: the engine owns the
/// *invariants* (never exceed `max_batch` slots or the KV page budget);
/// policies only choose the order. Every admission, preemption and
/// retirement allocates or frees pages through the engine's
/// [`KvPager`](super::KvPager), which carves `max_batch_tokens` into
/// `page_size`-token pages.
impl ServingEngine {
    /// Whether the request keyed `seq` with the given final context can
    /// join right now: a free slot, and enough free (or adoptable, or
    /// reclaimable-cached) pages to grow its allocation. Pages it already
    /// retains across a preemption count toward the need, and `chain` —
    /// its prompt-page hash chain — credits pages the prefix cache can
    /// supply without allocation.
    pub(super) fn fits(&self, seq: u64, final_context: usize, chain: &[u64]) -> bool {
        self.running.len() < self.cfg.admission.max_batch
            && self.pager.can_admit(seq, final_context, chain)
    }

    /// Puts an admitted request in the batch: adopts whatever full-page
    /// prompt prefix the prefix cache has resident, reserves private pages
    /// for the rest of its final context, and publishes its own full prompt
    /// pages for later admissions to share. Returns the prompt tokens
    /// served out of the cache (`cached_tokens` on the admission event),
    /// and folds them into the request's prefill / re-prefill debt.
    pub(super) fn join_batch(&mut self, mut r: ActiveRequest) -> usize {
        debug_assert!(self.fits(r.arrival_seq, r.final_context(), &r.page_keys));
        let adopted = if self.cfg.admission.prefix_cache {
            self.pager.adopt_prefix(r.arrival_seq, &r.page_keys)
        } else {
            0
        };
        self.pager.reserve(r.arrival_seq, r.final_context());
        if self.cfg.admission.prefix_cache && r.kv.is_built() {
            // With prefill unpriced (and no rebuild pending) the prompt's
            // KV is valid the moment the request is admitted, so its full
            // pages publish immediately. Otherwise publication waits for
            // the decode step that actually (re)builds them
            // ([`publish_prefix`](Self::publish_prefix)) — the index must
            // never advertise KV that does not exist yet.
            self.pager.register_prefix(r.arrival_seq, &r.page_keys);
        }
        let cached_tokens = adopted * self.pager.page_size();
        if cached_tokens > 0 {
            // Every adopted page holds full, already-built KV the request
            // would otherwise have had to (re-)prefill.
            r.kv.adopt(cached_tokens, self.pager.host_mut());
            r.stats.prefix_hit_tokens += cached_tokens;
        }
        self.running.push(r);
        cached_tokens
    }

    /// Publishes the prompt pages of the request at `slot` whose KV
    /// genuinely exists in the prefix index — called right after a decode
    /// step that charged prefill or re-prefill work. Publication follows
    /// the prefill frontier: mid-chunked-prefill only the frontier-covered
    /// full pages are registered (the chained hashes make any truncated
    /// chain a valid prefix), and once the debt clears the whole chain
    /// publishes. Idempotent: already-labelled pages are left untouched.
    pub(super) fn publish_prefix(&mut self, slot: usize) {
        if !self.cfg.admission.prefix_cache {
            return;
        }
        let r = &self.running[slot];
        let covered = (r.built_tokens() / self.pager.page_size()).min(r.page_keys.len());
        self.pager
            .register_prefix(r.arrival_seq, &r.page_keys[..covered]);
    }

    /// Removes and returns every request that reached its token target,
    /// in slot order, freeing their KV pages in that order.
    pub(super) fn retire_finished(&mut self) -> Vec<ActiveRequest> {
        let done: Vec<ActiveRequest> = self
            .running
            .extract_if(.., |r| r.stats.generated >= r.req.max_new_tokens)
            .collect();
        for r in &done {
            self.pager.release(r.arrival_seq);
        }
        done
    }

    /// Snapshots the batch for the policy, in slot order.
    pub(super) fn running_views(&self) -> Vec<RunningView> {
        self.running
            .iter()
            .map(|r| RunningView {
                id: r.req.id,
                priority: r.req.priority,
                client_id: r.req.client_id,
                arrival_seq: r.arrival_seq,
                admitted_at: r.last_admitted_at.unwrap_or(r.stats.enqueued_at),
                remaining_tokens: r.req.max_new_tokens - r.stats.generated,
                context: r.context(),
                final_context: r.final_context(),
                enqueued_at: r.stats.enqueued_at,
                last_token_at: r.last_token_at,
                ttft_deadline: r.req.ttft_deadline,
                itl_deadline: r.req.itl_deadline,
            })
            .collect()
    }
}
