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

/// The arrival queue: requests waiting for admission.
///
/// A queued request stays in the slot it landed in until it leaves; free
/// slots are reused, last freed first. Arrival order lives apart from the
/// requests, in an index of `(arrival_seq, slot)` pairs kept strictly
/// increasing in sequence, so FIFO order is always recoverable however
/// preemption re-inserts evicted work, and every lookup by sequence is a
/// binary search. Entries leave from anywhere: removing the one at index
/// position `i` of `n` moves min(i, n − i) 16-byte index entries, never a
/// request.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingQueue {
    /// The queued requests where they landed; `None` is a free slot.
    slots: Vec<Option<ActiveRequest>>,
    /// Indices of the free slots in `slots`.
    free: Vec<usize>,
    /// `(arrival_seq, slot)` of every queued request, in arrival order.
    order: VecDeque<(u64, usize)>,
    /// Final-context tokens of every queued request, kept as requests
    /// come and go (a queued request's shape never changes).
    tokens: usize,
}

impl PendingQueue {
    /// Inserts a request, keeping the index sorted by arrival sequence.
    /// The request is written into a free slot or appended; fresh enqueues
    /// carry the largest sequence so far, so their index entry is appended
    /// too, without a search. A preempted request's entry binary-searches
    /// back to its place, which moves the shorter side of the index.
    pub(crate) fn push(&mut self, r: ActiveRequest) {
        let seq = r.arrival_seq;
        self.tokens += r.final_context();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(r);
                slot
            }
            None => {
                self.slots.push(Some(r));
                self.slots.len() - 1
            }
        };
        if self.order.back().is_some_and(|&(last, _)| last > seq) {
            let at = self.order.partition_point(|&(s, _)| s < seq);
            self.order.insert(at, (seq, slot));
        } else {
            self.order.push_back((seq, slot));
        }
    }

    /// Index position of the request with arrival sequence `seq`, if
    /// queued.
    fn position_of(&self, seq: u64) -> Option<usize> {
        self.order.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }

    /// The request in an indexed slot.
    fn at(&self, slot: usize) -> &ActiveRequest {
        self.slots[slot]
            .as_ref()
            .expect("an indexed slot holds a request")
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Final-context tokens of every queued request.
    pub(crate) fn tokens(&self) -> usize {
        self.tokens
    }

    /// Whether a request is visible to the scheduler at `step`: it has
    /// arrived, and it was not evicted from the batch this very step (a
    /// one-step cooldown that prevents evict/re-admit livelock).
    fn is_visible(e: &ActiveRequest, step: usize) -> bool {
        e.req.arrival_step as usize <= step && e.last_evicted_at != Some(step)
    }

    /// Whether any queued request is visible to the scheduler at `step`.
    pub(crate) fn has_visible(&self, step: usize) -> bool {
        self.iter().any(|e| Self::is_visible(e, step))
    }

    /// The policy's view of every request visible at `step`, in arrival
    /// order.
    pub(crate) fn views(&self, step: usize) -> impl Iterator<Item = PendingView> + '_ {
        self.iter()
            .filter(move |e| Self::is_visible(e, step))
            .map(move |e| Self::view(e, step))
    }

    /// The policy's view at `step` of visible queued request `seq`.
    pub(crate) fn view_by_seq(&self, seq: u64, step: usize) -> Option<PendingView> {
        let (_, slot) = self.order[self.position_of(seq)?];
        let e = self.at(slot);
        Self::is_visible(e, step).then(|| Self::view(e, step))
    }

    fn view(e: &ActiveRequest, step: usize) -> PendingView {
        PendingView {
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
        }
    }

    /// The queued requests in arrival order (including not-yet-visible
    /// future arrivals); reversible, for youngest-first searches.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &ActiveRequest> + '_ {
        self.order.iter().map(|&(_, slot)| self.at(slot))
    }

    /// The queued arrival sequences in order, read from the index alone.
    pub(crate) fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.iter().map(|&(seq, _)| seq)
    }

    /// Mutable access to the request with arrival sequence `seq`, if
    /// queued (used to lend out a candidate's prompt-page hash chain
    /// during admission, and to restate a request's re-prefill debt when
    /// its retained KV pages are reclaimed under admission pressure). The
    /// request's `req` must stay as pushed: the token total counts it.
    pub(crate) fn get_mut_by_seq(&mut self, seq: u64) -> Option<&mut ActiveRequest> {
        let (_, slot) = self.order[self.position_of(seq)?];
        self.slots[slot].as_mut()
    }

    /// Removes and returns the request with arrival sequence `seq`,
    /// freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if no request has that sequence (policy views are built
    /// from the same queue, so a miss is an engine bug).
    pub(crate) fn remove_by_seq(&mut self, seq: u64) -> ActiveRequest {
        let (_, slot) = self
            .position_of(seq)
            .and_then(|i| self.order.remove(i))
            .expect("pending view maps to a queued request");
        self.free.push(slot);
        let r = self.slots[slot]
            .take()
            .expect("an indexed slot holds a request");
        self.tokens -= r.final_context();
        r
    }

    /// Checks the queue's own invariants, panicking on the first one
    /// violated: the index is strictly increasing in arrival sequence (its
    /// lookups binary-search on it), each of its entries names the slot
    /// holding that sequence, every other slot is free and listed once,
    /// and the token total is the queued requests' sum.
    pub(crate) fn validate(&self) {
        assert!(
            self.order.iter().is_sorted_by(|a, b| a.0 < b.0),
            "pending queue is not strictly increasing in arrival sequence"
        );
        for &(seq, slot) in &self.order {
            assert_eq!(
                self.slots
                    .get(slot)
                    .and_then(Option::as_ref)
                    .map(|e| e.arrival_seq),
                Some(seq),
                "a pending index entry does not name its request's slot"
            );
        }
        let mut listed = vec![false; self.slots.len()];
        for &slot in self.order.iter().map(|(_, slot)| slot).chain(&self.free) {
            assert!(
                !std::mem::replace(&mut listed[slot], true),
                "a pending slot is listed twice"
            );
        }
        assert!(
            listed.iter().all(|&l| l),
            "a pending slot is neither indexed nor free"
        );
        assert!(
            self.free.iter().all(|&slot| self.slots[slot].is_none()),
            "a free pending slot holds a request"
        );
        assert_eq!(
            self.tokens,
            self.iter().map(ActiveRequest::final_context).sum::<usize>(),
            "the pending token total disagrees with the queued requests"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::residency::Residency;
    use super::super::stats::RequestStats;
    use super::*;
    use proptest::prelude::*;

    /// A queued request with sequence `seq` whose arrival step (0–3),
    /// queue age, eviction cooldown and prompt chain are drawn from `mix`.
    fn request(seq: u64, mix: u64) -> ActiveRequest {
        let req = ServingRequest::new(
            seq ^ 0x5A5A,
            16 + (mix % 17) as usize,
            1 + (mix >> 8) as usize % 3,
        )
        .with_priority((mix >> 12) as u8 % 8)
        .arriving_at((mix >> 16) % 4);
        ActiveRequest {
            req,
            arrival_seq: seq,
            wait_since: (mix >> 20) as usize % 4,
            last_admitted_at: None,
            last_evicted_at: (mix >> 24)
                .is_multiple_of(3)
                .then_some((mix >> 28) as usize % 4),
            kv: Residency::enqueued(req.prompt_len, false, 0),
            last_token_at: None,
            page_keys: vec![mix; (mix >> 32) as usize % 3],
            kept_attention: Default::default(),
            stats: RequestStats::queued(&req, (mix >> 36) as usize % 4),
        }
    }

    /// A request's sequence and whole state, as the differential compares
    /// them.
    fn state(e: &ActiveRequest) -> (u64, String) {
        (e.arrival_seq, format!("{e:?}"))
    }

    /// The policy's view of a reference entry, restated field by field.
    fn reference_view(e: &ActiveRequest, step: usize) -> PendingView {
        PendingView {
            id: e.req.id,
            priority: e.req.priority,
            client_id: e.req.client_id,
            arrival_seq: e.arrival_seq,
            waited_steps: (step as u64).saturating_sub(e.wait_since as u64),
            remaining_tokens: e.req.max_new_tokens - e.stats.generated,
            final_context: e.req.prompt_len + e.req.max_new_tokens,
            enqueued_at: e.stats.enqueued_at,
            last_token_at: e.last_token_at,
            ttft_deadline: e.req.ttft_deadline,
            itl_deadline: e.req.itl_deadline,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any mix of the engine's queue operations — fresh
        /// enqueues, preempted requests re-entering under their old
        /// sequence, removals from anywhere, youngest-first steals and
        /// in-place updates by sequence — the queue holds exactly what a
        /// `Vec` kept sorted by arrival sequence holds, in the same order,
        /// and shows the policy the same views at every step, in order and
        /// by sequence.
        #[test]
        fn pending_queue_matches_a_sorted_vec_under_any_operations(
            seed in any::<u64>(),
            ops in prop::collection::vec(0u8..8, 1..160),
        ) {
            let mut queue = PendingQueue::default();
            let mut reference: Vec<ActiveRequest> = Vec::new();
            let mut removed: Vec<ActiveRequest> = Vec::new();
            let mut next_seq = 0u64;
            for (i, &op) in ops.iter().enumerate() {
                let mix = splitmix64(seed ^ (i as u64).rotate_left(32));
                match op {
                    // A fresh enqueue carries the largest sequence so far.
                    0..=2 => {
                        let r = request(next_seq, mix);
                        next_seq += 1;
                        reference.push(r.clone());
                        queue.push(r);
                    }
                    // A preemption victim re-enters under its old sequence,
                    // evicted at some step.
                    3 if !removed.is_empty() => {
                        let mut r = removed.swap_remove(mix as usize % removed.len());
                        r.last_evicted_at = Some((mix >> 8) as usize % 4);
                        let at = reference.partition_point(|e| e.arrival_seq < r.arrival_seq);
                        reference.insert(at, r.clone());
                        queue.push(r);
                    }
                    // An admission or a reject, from anywhere in the queue.
                    3..=5 if !reference.is_empty() => {
                        let expected = reference.remove(mix as usize % reference.len());
                        let got = queue.remove_by_seq(expected.arrival_seq);
                        prop_assert_eq!(state(&got), state(&expected));
                        removed.push(got);
                    }
                    // A steal: the youngest request arrived by some step,
                    // found by iterating in reverse.
                    6 => {
                        let step = mix as usize % 4;
                        let arrived = |e: &&ActiveRequest| e.req.arrival_step as usize <= step;
                        let seq = queue.iter().rev().find(arrived).map(|e| e.arrival_seq);
                        let expected = reference.iter().rev().find(arrived).map(|e| e.arrival_seq);
                        prop_assert_eq!(seq, expected);
                        if let Some(seq) = seq {
                            let at = reference.iter().position(|e| e.arrival_seq == seq).unwrap();
                            reference.remove(at);
                            removed.push(queue.remove_by_seq(seq));
                        }
                    }
                    // An update in place by sequence, queued or not.
                    _ => {
                        let seq = mix % (next_seq + 1);
                        let got = queue.get_mut_by_seq(seq);
                        let expected = reference.iter_mut().find(|e| e.arrival_seq == seq);
                        prop_assert_eq!(got.is_some(), expected.is_some());
                        if let (Some(got), Some(expected)) = (got, expected) {
                            for e in [got, expected] {
                                e.wait_since += 1;
                                e.page_keys.push(mix);
                            }
                        }
                    }
                }
                queue.validate();
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.is_empty(), reference.is_empty());
                prop_assert_eq!(
                    queue.tokens(),
                    reference.iter().map(ActiveRequest::final_context).sum::<usize>()
                );
                prop_assert!(queue.seqs().eq(reference.iter().map(|e| e.arrival_seq)));
                let got: Vec<_> = queue.iter().map(state).collect();
                let expected: Vec<_> = reference.iter().map(state).collect();
                prop_assert_eq!(got, expected);
                for step in 0..5 {
                    let views: Vec<PendingView> = queue.views(step).collect();
                    let expected: Vec<PendingView> = reference
                        .iter()
                        .filter(|e| {
                            e.req.arrival_step as usize <= step
                                && e.last_evicted_at != Some(step)
                        })
                        .map(|e| reference_view(e, step))
                        .collect();
                    prop_assert_eq!(queue.has_visible(step), !expected.is_empty());
                    for v in &views {
                        prop_assert_eq!(queue.view_by_seq(v.arrival_seq, step), Some(*v));
                    }
                    prop_assert_eq!(views, expected);
                }
            }
        }
    }
}
