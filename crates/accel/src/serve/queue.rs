//! Requests and the arrival queue the scheduler draws from.

use std::collections::VecDeque;

use super::batch_state::ActiveRequest;
use super::policy::PendingView;

/// One generation request entering the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingRequest {
    /// Caller-chosen request id (also seeds the request's workload, and
    /// the private part of its synthetic token content).
    pub id: u64,
    /// Context length at arrival (the already-processed prompt).
    pub prompt_len: usize,
    /// Tokens to generate before the request completes.
    pub max_new_tokens: usize,
    /// Scheduling priority (higher is more urgent; only priority-aware
    /// policies consult it).
    pub priority: u8,
    /// Originating client, for fair-share policies. Requests with the same
    /// `client_id` compete for the same fair slot allocation.
    pub client_id: u64,
    /// Engine step at which the request becomes visible to the scheduler.
    /// `0` means "already arrived" — the pre-redesign behavior. Later
    /// steps model open-loop traffic where work trickles in over time.
    pub arrival_step: u64,
    /// Content identity of the request's shared prompt prefix: the first
    /// [`prefix_len`](Self::prefix_len) prompt tokens are drawn from this
    /// tag's token pool, so requests with the same `(prefix_tag,
    /// prefix_len ≥ k)` share their first `k` prompt tokens — the handle
    /// prefix caching keys on (same system prompt, same few-shot
    /// template).
    pub prefix_tag: u64,
    /// How many leading prompt tokens come from the shared
    /// [`prefix_tag`](Self::prefix_tag) pool; the rest of the prompt is
    /// unique to the request. `0` (the default) makes the whole prompt
    /// private.
    pub prefix_len: usize,
    /// Time-to-first-token SLO in engine steps, measured from the step the
    /// request became schedulable (enqueue step itself included, matching
    /// [`SessionStats::time_to_first_token_steps`]). `None` (the default)
    /// means no TTFT deadline.
    ///
    /// [`SessionStats::time_to_first_token_steps`]:
    ///     super::stats::SessionStats::time_to_first_token_steps
    pub ttft_deadline: Option<u64>,
    /// Inter-token-latency SLO: the maximum steps allowed between
    /// consecutive generated tokens. `None` (the default) means no ITL
    /// deadline.
    pub itl_deadline: Option<u64>,
}

/// SplitMix64 — the deterministic mix behind the synthetic token content
/// (and, advanced over a counter, the seeded workload generators).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ServingRequest {
    /// A request with default scheduling metadata (priority 0, client 0,
    /// immediate arrival) — equivalent to the pre-redesign struct literal.
    #[must_use]
    pub fn new(id: u64, prompt_len: usize, max_new_tokens: usize) -> Self {
        Self {
            id,
            prompt_len,
            max_new_tokens,
            priority: 0,
            client_id: 0,
            arrival_step: 0,
            prefix_tag: 0,
            prefix_len: 0,
            ttft_deadline: None,
            itl_deadline: None,
        }
    }

    /// Sets the scheduling priority (higher is more urgent).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the originating client for fair-share scheduling.
    #[must_use]
    pub fn with_client(mut self, client_id: u64) -> Self {
        self.client_id = client_id;
        self
    }

    /// Defers the request's visibility to the scheduler until `step`.
    #[must_use]
    pub fn arriving_at(mut self, step: u64) -> Self {
        self.arrival_step = step;
        self
    }

    /// Declares the first `len` prompt tokens to be the shared prefix
    /// identified by `tag` (a system prompt, a few-shot template, an
    /// earlier turn of the same chat). Requests sharing `(tag, ≥ len)`
    /// have identical leading tokens, which is what makes their full KV
    /// pages adoptable through the prefix cache.
    #[must_use]
    pub fn with_shared_prefix(mut self, tag: u64, len: usize) -> Self {
        self.prefix_tag = tag;
        self.prefix_len = len;
        self
    }

    /// Attaches a time-to-first-token deadline of `steps` engine steps
    /// (must be positive — the enqueue step itself already counts as one).
    #[must_use]
    pub fn with_ttft_deadline(mut self, steps: u64) -> Self {
        self.ttft_deadline = Some(steps.max(1));
        self
    }

    /// Attaches an inter-token deadline: consecutive generated tokens may
    /// be at most `steps` engine steps apart (clamped to at least 1).
    #[must_use]
    pub fn with_itl_deadline(mut self, steps: u64) -> Self {
        self.itl_deadline = Some(steps.max(1));
        self
    }

    /// Whether the request carries any SLO deadline — the denominator of
    /// deadline-attainment accounting.
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        self.ttft_deadline.is_some() || self.itl_deadline.is_some()
    }

    /// The synthetic token id at prompt position `i`: drawn from the
    /// shared [`prefix_tag`](Self::prefix_tag) pool inside the declared
    /// prefix, and from a request-private pool (keyed by `id`) after it.
    /// Deterministic, so content identity is reproducible across runs.
    #[must_use]
    pub fn token_at(&self, i: usize) -> u64 {
        if i < self.prefix_len.min(self.prompt_len) {
            splitmix64(self.prefix_tag ^ 0x5851_F42D_4C95_7F2D ^ (i as u64).rotate_left(17))
        } else {
            splitmix64(self.id ^ 0x2545_F491_4F6C_DD1D ^ (i as u64).rotate_left(31))
        }
    }

    /// The position-chained content hashes of the request's *full* prompt
    /// pages at the given page size — `keys[j]` digests every prompt token
    /// in pages `0..=j`, so two requests agree on `keys[j]` exactly when
    /// their first `(j + 1) × page_size` prompt tokens agree. The partial
    /// tail page (and everything generated later) is excluded: those
    /// tokens will be written, so their page can never be shared.
    #[must_use]
    pub fn page_keys(&self, page_size: usize) -> Vec<u64> {
        let page_size = page_size.max(1);
        let full_pages = self.prompt_len / page_size;
        let mut keys = Vec::with_capacity(full_pages);
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for page in 0..full_pages {
            for i in page * page_size..(page + 1) * page_size {
                h ^= self.token_at(i);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            keys.push(h);
        }
        keys
    }
}

/// The arrival queue: requests waiting for admission, kept strictly
/// increasing in arrival sequence so FIFO order is always recoverable
/// regardless of how preemption re-inserts evicted work, and so every
/// lookup by sequence is a binary search. A deque, because entries leave
/// from anywhere: inserting or removing at index `i` of `n` moves
/// min(i, n − i) entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingQueue {
    entries: VecDeque<ActiveRequest>,
}

impl PendingQueue {
    /// Inserts a request, keeping the queue sorted by arrival sequence.
    /// Fresh enqueues carry the largest sequence so far and stay at the
    /// back, in amortized O(1) and without a search; a preempted request
    /// binary-searches back to its slot, which moves the shorter side of
    /// the queue.
    pub(crate) fn push(&mut self, r: ActiveRequest) {
        let seq = r.arrival_seq;
        // Pushed first and moved only when out of order: an append then
        // copies the 448-byte entry once, as `Vec::push` would.
        self.entries.push_back(r);
        let len = self.entries.len();
        if len >= 2 && self.entries[len - 2].arrival_seq > seq {
            let at = self.entries.partition_point(|e| e.arrival_seq < seq);
            let r = self.entries.pop_back().expect("pushed above");
            self.entries.insert(at, r);
        }
    }

    /// Index of the entry with arrival sequence `seq`, if queued.
    fn position_of(&self, seq: u64) -> Option<usize> {
        self.entries
            .binary_search_by_key(&seq, |e| e.arrival_seq)
            .ok()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a request is visible to the scheduler at `step`: it has
    /// arrived, and it was not evicted from the batch this very step (a
    /// one-step cooldown that prevents evict/re-admit livelock).
    fn is_visible(e: &ActiveRequest, step: usize) -> bool {
        e.req.arrival_step as usize <= step && e.last_evicted_at != Some(step)
    }

    /// Whether any queued request is visible to the scheduler at `step`.
    pub(crate) fn has_visible(&self, step: usize) -> bool {
        self.entries.iter().any(|e| Self::is_visible(e, step))
    }

    /// Snapshots the visible queue for the policy, in arrival order.
    pub(crate) fn views(&self, step: usize) -> Vec<PendingView> {
        self.entries
            .iter()
            .filter(|e| Self::is_visible(e, step))
            .map(|e| PendingView {
                id: e.req.id,
                priority: e.req.priority,
                client_id: e.req.client_id,
                arrival_seq: e.arrival_seq,
                waited_steps: (step as u64).saturating_sub(e.wait_since as u64),
                remaining_tokens: e.req.max_new_tokens - e.stats.generated,
                final_context: e.final_context(),
                enqueued_at: e.stats.enqueued_at,
                last_token_at: e.last_token_at,
                ttft_deadline: e.req.ttft_deadline,
                itl_deadline: e.req.itl_deadline,
            })
            .collect()
    }

    /// The queued entries, in arrival order (including not-yet-visible
    /// future arrivals).
    pub(crate) fn entries(&self) -> &VecDeque<ActiveRequest> {
        &self.entries
    }

    /// Shared access to the entry with arrival sequence `seq`, if queued
    /// (used to read a candidate's prompt-page hash chain during
    /// admission).
    pub(crate) fn get_by_seq(&self, seq: u64) -> Option<&ActiveRequest> {
        self.position_of(seq).map(|i| &self.entries[i])
    }

    /// Mutable access to the entry with arrival sequence `seq`, if queued
    /// (used to restate a request's re-prefill debt when its retained KV
    /// pages are reclaimed under admission pressure).
    pub(crate) fn get_mut_by_seq(&mut self, seq: u64) -> Option<&mut ActiveRequest> {
        self.position_of(seq).map(|i| &mut self.entries[i])
    }

    /// Removes and returns the entry with arrival sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if no entry has that sequence (policy views are built from
    /// the same queue, so a miss is an engine bug).
    pub(crate) fn remove_by_seq(&mut self, seq: u64) -> ActiveRequest {
        self.position_of(seq)
            .and_then(|i| self.entries.remove(i))
            .expect("pending view maps to a queued request")
    }
}
