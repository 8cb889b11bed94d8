//! Requests and the arrival queue the scheduler draws from.

use std::collections::{HashMap, VecDeque};

use super::batch_state::{ActiveRequest, KeptAttention};
use super::policy::PendingView;
use super::residency::Residency;
use super::stats::RequestStats;

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
        chain_pages(self, page_size, full_pages, &mut keys);
        keys
    }
}

#[cfg(test)]
thread_local! {
    /// Tokens the page-key chain has hashed on this thread.
    static HASHED_TOKENS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Prompt tokens `f` hashes into page keys on this thread.
#[cfg(test)]
pub(crate) fn tokens_hashed_by<R>(f: impl FnOnce() -> R) -> usize {
    let before = HASHED_TOKENS.with(std::cell::Cell::get);
    f();
    HASHED_TOKENS.with(std::cell::Cell::get) - before
}

/// The one FNV-1a chain loop behind every page key: extends `keys`, the
/// keys of `req`'s first `keys.len()` prompt pages, up to `pages` pages,
/// each key digesting every token from the prompt's start.
fn chain_pages(req: &ServingRequest, page_size: usize, pages: usize, keys: &mut Vec<u64>) {
    let mut h = keys.last().copied().unwrap_or(0xcbf2_9ce4_8422_2325); // FNV-1a offset basis
    #[cfg(test)]
    HASHED_TOKENS.with(|n| n.set(n.get() + pages.saturating_sub(keys.len()) * page_size));
    for page in keys.len()..pages {
        for i in page * page_size..(page + 1) * page_size {
            h ^= req.token_at(i);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        keys.push(h);
    }
}

/// Enqueue's memo of shared prompt prefixes: per prefix tag, the keys of
/// the tag's whole prefix pages hashed so far, so requests that share a
/// tag hash its pages once and only their own pages each. Exact because a
/// shared page's tokens depend only on the tag and their position.
///
/// Bounded by its owner's pager, device plus host pages (summed over the
/// shards for a cluster): the prefix cache can never hold a longer run,
/// and the memo empties itself before it would hold more keys, so a
/// dropped chain only costs hashing again. Its page size is its owner's,
/// fixed at build.
#[derive(Debug)]
pub(crate) struct PrefixChains {
    /// Keys the memo may hold at once.
    bound: usize,
    /// The page size every key is hashed at.
    page_size: usize,
    /// Keys of each tag's leading shared pages.
    chains: HashMap<u64, Vec<u64>>,
    /// Keys held over all chains.
    held: usize,
}

impl PrefixChains {
    /// An empty memo that holds at most `bound` keys of `page_size`-token
    /// pages.
    pub(crate) fn new(bound: usize, page_size: usize) -> Self {
        Self {
            bound,
            page_size: page_size.max(1),
            chains: HashMap::new(),
            held: 0,
        }
    }

    /// [`ServingRequest::page_keys`] at the memo's page size, bit for bit,
    /// hashing `req`'s shared prefix pages only where no earlier request of
    /// its tag did.
    pub(crate) fn page_keys(&mut self, req: &ServingRequest) -> Vec<u64> {
        let page_size = self.page_size;
        // Whole pages of tokens from the tag's pool: their keys depend on
        // the tag, the page and the page size alone.
        let shared = req.prefix_len.min(req.prompt_len) / page_size;
        if shared == 0 || shared > self.bound {
            return req.page_keys(page_size);
        }
        let mut keys = Vec::with_capacity(req.prompt_len / page_size);
        match self.chains.get(&req.prefix_tag) {
            Some(chain) if chain.len() >= shared => {
                keys.extend_from_slice(&chain[..shared]);
            }
            stored => {
                let grow = shared - stored.map_or(0, Vec::len);
                if self.held + grow > self.bound {
                    self.chains.clear();
                    self.held = 0;
                }
                let chain = self.chains.entry(req.prefix_tag).or_default();
                self.held += shared - chain.len();
                chain_pages(req, page_size, shared, chain);
                keys.extend_from_slice(&chain[..shared]);
            }
        }
        chain_pages(req, page_size, req.prompt_len / page_size, &mut keys);
        keys
    }
}

/// A request that has never been admitted, as it waits: the request, the
/// few values enqueue decided for it, and its prompt's page keys — about a
/// third of the running state admission builds from it
/// ([`into_active`](Self::into_active)).
#[derive(Debug, Clone)]
pub(crate) struct QueuedRequest {
    pub(crate) req: ServingRequest,
    /// Engine-assigned enqueue order (see [`ActiveRequest::arrival_seq`]).
    pub(crate) arrival_seq: u64,
    /// The step the request became schedulable, enqueued and arrived: its
    /// queue age counts from it, and its stats record it as the enqueue
    /// step.
    pub(crate) schedulable_at: usize,
    /// Prompt tokens whose KV a sibling shard shipped in for it, at
    /// enqueue or by a later prefix pull.
    pub(crate) shipped_tokens: usize,
    /// Position-chained content hashes of the full prompt pages (empty
    /// while prefix caching is disabled).
    pub(crate) page_keys: Vec<u64>,
}

impl QueuedRequest {
    /// The running state admission starts from: the whole prompt owed
    /// when the engine prices prefill, and no step run yet.
    pub(crate) fn into_active(self, prefill_priced: bool) -> ActiveRequest {
        let Self {
            req,
            arrival_seq,
            schedulable_at,
            shipped_tokens,
            page_keys,
        } = self;
        ActiveRequest {
            req,
            arrival_seq,
            wait_since: schedulable_at,
            last_admitted_at: None,
            last_evicted_at: None,
            kv: Residency::enqueued(req.prompt_len, prefill_priced, shipped_tokens),
            last_token_at: None,
            page_keys,
            kept_attention: KeptAttention::default(),
            stats: RequestStats::queued(&req, schedulable_at),
        }
    }
}

/// A queued request. One that was never admitted waits as the compact
/// [`QueuedRequest`]; one with running state — preempted, or shipped in
/// from a sibling shard — keeps it, boxed, so the queue's slots stay at the
/// compact size. Every reader goes through the accessors here, which read
/// a fresh entry as the [`ActiveRequest`] admission would build from it.
#[derive(Debug, Clone)]
pub(crate) enum Queued {
    Fresh(QueuedRequest),
    Started(Box<ActiveRequest>),
}

impl Queued {
    pub(crate) fn req(&self) -> &ServingRequest {
        match self {
            Self::Fresh(q) => &q.req,
            Self::Started(a) => &a.req,
        }
    }

    pub(crate) fn arrival_seq(&self) -> u64 {
        match self {
            Self::Fresh(q) => q.arrival_seq,
            Self::Started(a) => a.arrival_seq,
        }
    }

    /// Whether the request was never admitted.
    pub(crate) fn is_fresh(&self) -> bool {
        matches!(self, Self::Fresh(_))
    }

    /// The running state, if the request has been admitted before.
    pub(crate) fn started(&self) -> Option<&ActiveRequest> {
        match self {
            Self::Fresh(_) => None,
            Self::Started(a) => Some(a),
        }
    }

    pub(crate) fn started_mut(&mut self) -> Option<&mut ActiveRequest> {
        match self {
            Self::Fresh(_) => None,
            Self::Started(a) => Some(a),
        }
    }

    /// Context length when the request will retire.
    pub(crate) fn final_context(&self) -> usize {
        let req = self.req();
        req.prompt_len + req.max_new_tokens
    }

    /// The step its first token came out, if one has.
    pub(crate) fn first_token_at(&self) -> Option<usize> {
        self.started().and_then(|a| a.stats.first_token_at)
    }

    /// The step its stats record it as enqueued (schedulable).
    pub(crate) fn enqueued_at(&self) -> usize {
        match self {
            Self::Fresh(q) => q.schedulable_at,
            Self::Started(a) => a.stats.enqueued_at,
        }
    }

    pub(crate) fn page_keys(&self) -> &[u64] {
        match self {
            Self::Fresh(q) => &q.page_keys,
            Self::Started(a) => &a.page_keys,
        }
    }

    pub(crate) fn page_keys_mut(&mut self) -> &mut Vec<u64> {
        match self {
            Self::Fresh(q) => &mut q.page_keys,
            Self::Started(a) => &mut a.page_keys,
        }
    }

    /// A prefix pull landed `tokens` more of the prompt's KV for it.
    pub(crate) fn credit_shipped(&mut self, tokens: usize) {
        match self {
            Self::Fresh(q) => q.shipped_tokens += tokens,
            Self::Started(a) => a.kv.credit_shipped(tokens),
        }
    }

    /// The request's running state: built now if it was never admitted.
    pub(crate) fn into_active(self, prefill_priced: bool) -> ActiveRequest {
        match self {
            Self::Fresh(q) => q.into_active(prefill_priced),
            Self::Started(a) => *a,
        }
    }

    /// Whether the request is visible to the scheduler at `step`: it has
    /// arrived, and it was not evicted from the batch this very step (a
    /// one-step cooldown that prevents evict/re-admit livelock).
    fn is_visible(&self, step: usize) -> bool {
        self.req().arrival_step as usize <= step
            && self.started().and_then(|a| a.last_evicted_at) != Some(step)
    }

    /// The policy's view of the request at `step`.
    fn view(&self, step: usize) -> PendingView {
        let (wait_since, generated, last_token_at) = match self {
            Self::Fresh(q) => (q.schedulable_at, 0, None),
            Self::Started(a) => (a.wait_since, a.stats.generated, a.last_token_at),
        };
        let req = self.req();
        PendingView {
            id: req.id,
            priority: req.priority,
            client_id: req.client_id,
            arrival_seq: self.arrival_seq(),
            waited_steps: (step as u64).saturating_sub(wait_since as u64),
            remaining_tokens: req.max_new_tokens - generated,
            final_context: self.final_context(),
            enqueued_at: self.enqueued_at(),
            last_token_at,
            ttft_deadline: req.ttft_deadline,
            itl_deadline: req.itl_deadline,
        }
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
    slots: Vec<Option<Queued>>,
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
    pub(crate) fn push(&mut self, r: Queued) {
        let seq = r.arrival_seq();
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
    fn at(&self, slot: usize) -> &Queued {
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

    /// Whether any queued request is visible to the scheduler at `step`.
    pub(crate) fn has_visible(&self, step: usize) -> bool {
        self.iter().any(|e| e.is_visible(step))
    }

    /// The policy's view of every request visible at `step`, in arrival
    /// order.
    pub(crate) fn views(&self, step: usize) -> impl Iterator<Item = PendingView> + '_ {
        self.iter()
            .filter(move |e| e.is_visible(step))
            .map(move |e| e.view(step))
    }

    /// The policy's view at `step` of visible queued request `seq`.
    pub(crate) fn view_by_seq(&self, seq: u64, step: usize) -> Option<PendingView> {
        let (_, slot) = self.order[self.position_of(seq)?];
        let e = self.at(slot);
        e.is_visible(step).then(|| e.view(step))
    }

    /// The queued requests in arrival order (including not-yet-visible
    /// future arrivals); reversible, for youngest-first searches.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &Queued> + '_ {
        self.order.iter().map(|&(_, slot)| self.at(slot))
    }

    /// The queued arrival sequences in order, read from the index alone.
    pub(crate) fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.iter().map(|&(seq, _)| seq)
    }

    /// Mutable access to the request with arrival sequence `seq`, if
    /// queued (used to lend out a candidate's prompt-page hash chain
    /// during admission, to credit a prefix pull, and to restate a
    /// request's re-prefill debt when its retained KV pages are reclaimed
    /// under admission pressure). The request's `req` must stay as pushed:
    /// the token total counts it.
    pub(crate) fn get_mut_by_seq(&mut self, seq: u64) -> Option<&mut Queued> {
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
    pub(crate) fn remove_by_seq(&mut self, seq: u64) -> Queued {
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
                    .map(Queued::arrival_seq),
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
            self.iter().map(Queued::final_context).sum::<usize>(),
            "the pending token total disagrees with the queued requests"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::ServingEngine;
    use super::*;
    use crate::config::{AccelConfig, AccelMode};
    use proptest::prelude::*;

    /// A queued request with sequence `seq` whose arrival step (0–3),
    /// queue age, shipped tokens and prompt chain are drawn from `mix`; one
    /// in three has running state: evicted at some step, or shipped in
    /// from a sibling shard with no eviction cooldown.
    fn request(seq: u64, mix: u64) -> Queued {
        let req = ServingRequest::new(
            seq ^ 0x5A5A,
            16 + (mix % 17) as usize,
            1 + (mix >> 8) as usize % 3,
        )
        .with_priority((mix >> 12) as u8 % 8)
        .arriving_at((mix >> 16) % 4);
        let fresh = Queued::Fresh(QueuedRequest {
            req,
            arrival_seq: seq,
            schedulable_at: (mix >> 20) as usize % 4,
            shipped_tokens: (mix >> 36) as usize % 4,
            page_keys: vec![mix; (mix >> 32) as usize % 3],
        });
        if !(mix >> 24).is_multiple_of(3) {
            return fresh;
        }
        let mut e = evicted(fresh, (mix >> 28) as usize % 4, mix);
        if (mix >> 60) & 1 == 1 {
            e.started_mut().unwrap().last_evicted_at = None;
        }
        e
    }

    /// `e` re-entering the queue evicted at `step`, as preemption re-queues
    /// it: its queue age restarts at `step` while its stats keep their
    /// enqueue step, and the tokens it made and the step of its last one
    /// are drawn from `mix`.
    fn evicted(e: Queued, step: usize, mix: u64) -> Queued {
        let mut a = e.into_active(false);
        a.stats.admitted_at = a.stats.admitted_at.or(Some(a.stats.enqueued_at));
        a.stats.generated = (mix >> 44) as usize % a.req.max_new_tokens;
        a.last_token_at = (a.stats.generated > 0).then_some((mix >> 48) as usize % 5);
        a.wait_since = step;
        a.last_evicted_at = Some(step);
        Queued::Started(Box::new(a))
    }

    /// A request's sequence and whole state, as the differential compares
    /// them.
    fn state(e: &Queued) -> (u64, String) {
        (e.arrival_seq(), format!("{e:?}"))
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

    /// The running state enqueue built for a request before a queued
    /// request was compact, restated as it was written there: the
    /// reference for what admission builds from a fresh entry.
    fn enqueued_literal(
        req: ServingRequest,
        arrival_seq: u64,
        schedulable_at: usize,
        prefill_priced: bool,
        shipped_tokens: usize,
        page_keys: Vec<u64>,
    ) -> ActiveRequest {
        ActiveRequest {
            req,
            arrival_seq,
            wait_since: schedulable_at,
            last_admitted_at: None,
            last_evicted_at: None,
            kv: Residency::enqueued(req.prompt_len, prefill_priced, shipped_tokens),
            last_token_at: None,
            page_keys,
            kept_attention: KeptAttention::default(),
            stats: RequestStats::queued(&req, schedulable_at),
        }
    }

    #[test]
    fn a_queued_request_stays_compact() {
        // About a third of the 440-byte running state; a queue slot is no
        // larger than the compact record.
        let compact = std::mem::size_of::<QueuedRequest>();
        assert!(compact <= 160, "{compact} bytes");
        assert!(std::mem::size_of::<Option<Queued>>() <= compact);
    }

    /// The page-key chain as it was first written: one FNV-1a pass over
    /// every full page's tokens.
    fn reference_keys(req: &ServingRequest, page_size: usize) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for page in 0..req.prompt_len / page_size {
            for i in page * page_size..(page + 1) * page_size {
                h ^= req.token_at(i);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            keys.push(h);
        }
        keys
    }

    #[test]
    fn a_shared_prefix_is_hashed_once_per_tag() {
        let page = 16;
        // 130 shared tokens: 8 whole shared pages.
        let first = ServingRequest::new(1, 200, 1).with_shared_prefix(7, 130);
        let second = ServingRequest::new(2, 300, 1).with_shared_prefix(7, 130);
        let longer = ServingRequest::new(3, 300, 1).with_shared_prefix(7, 170);
        let mut memo = PrefixChains::new(1 << 10, page);
        assert_eq!(tokens_hashed_by(|| memo.page_keys(&first)), 12 * page);
        // The second request of the tag hashes only its own 10 pages; a
        // longer prefix extends the stored chain by its 2 further pages.
        assert_eq!(tokens_hashed_by(|| memo.page_keys(&second)), 10 * page);
        assert_eq!(tokens_hashed_by(|| memo.page_keys(&longer)), (2 + 8) * page);
        assert_eq!(memo.held, 10);
        // A memo too small for the shared run hashes it every time.
        let mut small = PrefixChains::new(7, page);
        for _ in 0..2 {
            assert_eq!(tokens_hashed_by(|| small.page_keys(&first)), 12 * page);
        }
        assert_eq!(small.held, 0);
        // One that must empty itself for a second tag hashes the first
        // tag's run again after that.
        let other = ServingRequest::new(4, 200, 1).with_shared_prefix(8, 130);
        let mut tight = PrefixChains::new(8, page);
        assert_eq!(tokens_hashed_by(|| tight.page_keys(&first)), 12 * page);
        assert_eq!(tokens_hashed_by(|| tight.page_keys(&other)), 12 * page);
        assert_eq!(tokens_hashed_by(|| tight.page_keys(&first)), 12 * page);
        assert_eq!(tight.held, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over any stream of requests — a few tags, unaligned shared
        /// prefixes up to 400 tokens, prompts from 0 tokens (so also below
        /// a page and below their prefix), a page size of 1–33 and a bound
        /// from none to plenty — the memo returns each request's own page
        /// keys, which equal the chain as first written, and never holds
        /// more keys than its bound.
        #[test]
        fn prefix_chains_return_every_requests_page_keys(
            seed in any::<u64>(),
            page_size in 1usize..=33,
            bound_bits in 0u32..12,
            prompts in prop::collection::vec(0usize..=500, 1..48),
        ) {
            let bound = (1usize << bound_bits) - 1 + (seed % 3) as usize;
            let mut memo = PrefixChains::new(bound, page_size);
            for (i, &prompt_len) in prompts.iter().enumerate() {
                let mix = splitmix64(seed ^ (i as u64).rotate_left(32));
                let req = ServingRequest::new(mix, prompt_len, 1)
                    .with_shared_prefix(mix % 3, (mix >> 8) as usize % 401);
                let expected = reference_keys(&req, page_size);
                prop_assert_eq!(req.page_keys(page_size), expected.clone());
                prop_assert_eq!(memo.page_keys(&req), expected);
                prop_assert!(memo.held <= bound);
                prop_assert_eq!(memo.held, memo.chains.values().map(Vec::len).sum::<usize>());
            }
        }

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
            let mut reference: Vec<Queued> = Vec::new();
            let mut removed: Vec<Queued> = Vec::new();
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
                        let r = removed.swap_remove(mix as usize % removed.len());
                        let r = evicted(r, (mix >> 8) as usize % 4, mix);
                        let at = reference.partition_point(|e| e.arrival_seq() < r.arrival_seq());
                        reference.insert(at, r.clone());
                        queue.push(r);
                    }
                    // An admission or a reject, from anywhere in the queue.
                    3..=5 if !reference.is_empty() => {
                        let expected = reference.remove(mix as usize % reference.len());
                        let got = queue.remove_by_seq(expected.arrival_seq());
                        prop_assert_eq!(state(&got), state(&expected));
                        removed.push(got);
                    }
                    // A steal: the youngest request arrived by some step,
                    // found by iterating in reverse.
                    6 => {
                        let step = mix as usize % 4;
                        let arrived = |e: &&Queued| e.req().arrival_step as usize <= step;
                        let seq = queue.iter().rev().find(arrived).map(Queued::arrival_seq);
                        let expected = reference.iter().rev().find(arrived).map(Queued::arrival_seq);
                        prop_assert_eq!(seq, expected);
                        if let Some(seq) = seq {
                            let at = reference.iter().position(|e| e.arrival_seq() == seq).unwrap();
                            reference.remove(at);
                            removed.push(queue.remove_by_seq(seq));
                        }
                    }
                    // An update in place by sequence, queued or not.
                    _ => {
                        let seq = mix % (next_seq + 1);
                        let got = queue.get_mut_by_seq(seq);
                        let expected = reference.iter_mut().find(|e| e.arrival_seq() == seq);
                        prop_assert_eq!(got.is_some(), expected.is_some());
                        if let (Some(got), Some(expected)) = (got, expected) {
                            for e in [got, expected] {
                                e.credit_shipped(1);
                                e.page_keys_mut().push(mix);
                                if let Some(a) = e.started_mut() {
                                    a.wait_since += 1;
                                }
                            }
                        }
                    }
                }
                queue.validate();
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.is_empty(), reference.is_empty());
                prop_assert_eq!(
                    queue.tokens(),
                    reference.iter().map(Queued::final_context).sum::<usize>()
                );
                prop_assert!(queue.seqs().eq(reference.iter().map(Queued::arrival_seq)));
                let got: Vec<_> = queue.iter().map(state).collect();
                let expected: Vec<_> = reference.iter().map(state).collect();
                prop_assert_eq!(got, expected);
                for step in 0..5 {
                    let views: Vec<PendingView> = queue.views(step).collect();
                    // A fresh entry is read as the state admission builds.
                    let expected: Vec<PendingView> = reference
                        .iter()
                        .map(|e| e.clone().into_active(false))
                        .filter(|e| {
                            e.req.arrival_step as usize <= step
                                && e.last_evicted_at != Some(step)
                        })
                        .map(|e| reference_view(&e, step))
                        .collect();
                    prop_assert_eq!(queue.has_visible(step), !expected.is_empty());
                    for v in &views {
                        prop_assert_eq!(queue.view_by_seq(v.arrival_seq, step), Some(*v));
                    }
                    prop_assert_eq!(views, expected);
                }
            }
        }

        /// Over any stream of requests — with and without the prefix cache
        /// and prefill pricing, shipped tokens at enqueue and credited by a
        /// later pull, TTFT and ITL deadlines, arrivals before and after
        /// the step they are enqueued at, steps run in between — every
        /// fresh queued entry builds the running state enqueue's literal
        /// built, field by field, and shows the policy that state's view
        /// at every step.
        #[test]
        fn admission_builds_what_enqueue_built(
            seed in any::<u64>(),
            prefix_cache in any::<bool>(),
            prefill_priced in any::<bool>(),
            n in 1usize..40,
        ) {
            let page_size = 8;
            let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
            let mut engine = ServingEngine::builder(accel)
                .heads(1)
                .max_batch(2)
                .page_size(page_size)
                .prefix_cache(prefix_cache)
                .prefill_factor(if prefill_priced { 1.0 } else { 0.0 })
                .build();
            let mut literals: HashMap<u64, ActiveRequest> = HashMap::new();
            for i in 0..n {
                let mix = splitmix64(seed ^ (i as u64).rotate_left(32));
                let bit = |at: u32| (mix >> at) & 1 == 1;
                let mut req = ServingRequest::new(
                    mix >> 48,
                    1 + (mix % 90) as usize,
                    1 + (mix >> 8) as usize % 4,
                )
                .with_priority((mix >> 12) as u8 % 4)
                .with_client((mix >> 14) % 3)
                .arriving_at((mix >> 16) % 6)
                .with_shared_prefix((mix >> 20) % 3, (mix >> 24) as usize % 64);
                if bit(30) {
                    req = req.with_ttft_deadline((mix >> 31) % 5);
                }
                if bit(34) {
                    req = req.with_itl_deadline((mix >> 35) % 5);
                }
                let shipped = (mix >> 38) as usize % 3 * page_size;
                let seq = engine.arrival_seq;
                let schedulable_at = engine.step_index().max(req.arrival_step as usize);
                prop_assert!(engine.enqueue_with_shipped(req, shipped, None).is_ok());
                let keys = if prefix_cache { req.page_keys(page_size) } else { Vec::new() };
                let mut literal =
                    enqueued_literal(req, seq, schedulable_at, prefill_priced, shipped, keys);
                if bit(40) {
                    engine.credit_shipped(seq, page_size);
                    literal.kv.credit_shipped(page_size);
                }
                literals.insert(seq, literal);
                if bit(41) {
                    prop_assert!(engine.step().is_ok());
                }
                for e in engine.pending.iter().filter(|e| e.is_fresh()) {
                    let literal = &literals[&e.arrival_seq()];
                    let built = e.clone().into_active(prefill_priced);
                    prop_assert_eq!(format!("{built:?}"), format!("{literal:?}"));
                    for step in 0..12 {
                        prop_assert_eq!(e.view(step), reference_view(literal, step));
                        prop_assert_eq!(
                            e.is_visible(step),
                            literal.req.arrival_step as usize <= step
                        );
                    }
                }
            }
        }
    }
}
