//! Multi-request serving with continuous batching — the paper's batched
//! generation motivation (§2.2.1) turned into an executable engine, with
//! the *scheduling* answers (who runs next, who gets evicted) factored out
//! behind a policy API.
//!
//! A [`ServingEngine`] owns an arrival queue and a running batch. Every
//! engine step models one batched decode iteration:
//!
//! 1. **Admission**: a [`PolicyKind`] picks queued requests to join
//!    the batch; the engine enforces the invariants — a free slot *and*
//!    enough free KV pages for the request's final context. The KV token
//!    budget ([`AdmissionConfig`]) is carved into fixed-size pages by a
//!    [`KvPager`], the same paged-allocation guardrail a production
//!    scheduler uses to bound KV-cache memory (fragmentation from
//!    partially-filled tail pages included). With
//!    [`prefix_cache`](AdmissionConfig::prefix_cache) on, a candidate
//!    whose prompt shares a full-page-aligned prefix with pages already
//!    resident adopts them copy-on-write instead of re-allocating, and
//!    prompt prefill ([`prefill_factor`](ServingConfig::prefill_factor))
//!    is charged only for the unshared suffix. Under pressure, and only
//!    when [`PreemptionConfig`] allows it, the policy may evict a running
//!    request back to the queue; a configurable [`RetentionPolicy`] keeps
//!    a prefix of the victim's pages allocated, so re-admission only
//!    re-prefills the dropped suffix — and the re-prefill charge to the
//!    step model scales with what was actually dropped, so eviction is
//!    never free but retention makes it cheaper. Shared pages are never
//!    reclaimed out from under a second owner.
//! 2. **Weight streaming**: the FC/FFN weights stream from DRAM once and
//!    are shared by every request in the batch, at the DRAM peak
//!    bandwidth.
//! 3. **Attention**: each request streams its own KV cache through the
//!    cycle-level simulator at its own context length — heterogeneous
//!    contexts batch together, exactly the regime where Token-Picker's
//!    pruning pays off hardest.
//! 4. **Retirement**: requests that reached their token target leave the
//!    batch, freeing budget for the queue at the *next* step — continuous
//!    batching rather than batch-synchronous scheduling.
//!
//! Progress is observable per token through a typed event stream
//! ([`ServeEvent`]) and per finished request through its
//! [`RequestStats`] (queue wait and time-to-first-token via
//! [`RequestStats::session`]), not only through the run totals of the
//! [`ServingReport`] that holds them.
//!
//! The per-request attention cost is measured (not modeled): one
//! cycle-level simulation per request per step on a synthetic instance of
//! the request's current context, scaled by the model's head count.

pub mod batch_state;
pub mod cluster;
pub mod error;
pub mod events;
mod helper;
pub mod kv_pager;
pub(crate) mod lend;
pub mod policy;
mod pricing;
pub mod queue;
mod residency;
pub mod router;
pub mod scenario;
pub mod stats;
pub mod token_backed;
pub mod trace;

pub use batch_state::AdmissionConfig;
pub use cluster::{
    ClusterEngine, ClusterEngineBuilder, ClusterEvent, ClusterReport, ClusterStepReport,
};
pub use error::ServeError;
pub use events::ServeEvent;
pub use kv_pager::KvPager;
pub use lend::LendingStats;
pub use policy::{PendingView, PolicyKind, PreemptionConfig, RetentionPolicy, RunningView};
pub use queue::ServingRequest;
pub use router::RoutingKind;
pub use scenario::{Scenario, ScenarioKind};
pub use stats::{RequestStats, ServingReport, SessionStats, StepReport};
pub use token_backed::{run_token_backed, TokenBackedBatch, TokenBackedRun};
pub use trace::{Trace, TraceError, TraceMeta, TraceRecorder};

use std::ops::RangeInclusive;
use std::sync::Mutex;

use topick_core::PruneStats;

use crate::config::AccelConfig;
use crate::engine::ToPickAccelerator;

use batch_state::{ActiveRequest, SimulatedStep};
use lend::{KeyScratch, Lender};
use policy::{due_step, slo_slack, AdmissionOrder};
use queue::{PendingQueue, PrefixChains, Queued, QueuedRequest};

/// Full configuration of the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Accelerator configuration each attention step runs under.
    pub accel: AccelConfig,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Preemption behavior (off by default).
    pub preemption: PreemptionConfig,
    /// Extra attention passes charged on a freshly admitted request's
    /// first decode step, modeling prompt prefill. The charge is
    /// proportional to the request's measured attention cost at its
    /// prompt, scaled by the share of the prompt the prefix cache did
    /// *not* serve. `0` (the default) prices prompts as free — the
    /// pre-prefill-model behavior, bit-identical to earlier engines.
    pub prefill_factor: f64,
    /// Chunked prefill: the KV pages' worth of prompt tokens the whole
    /// batch may prefill per step, consumed in slot order. A slot whose
    /// prompt is not fully built spends its step advancing the prefill
    /// frontier instead of decoding, so one long prompt no longer lands
    /// its entire prefill charge in a single step and stalls every
    /// co-resident decode (Sarathi-style chunked interleaving). The step
    /// that completes a prompt also decodes its first token, and the
    /// chunk charges telescope to exactly the one-lump charge. `0` (the
    /// default) means unlimited — whole-prompt prefill in one step,
    /// bit-identical to the lump engine.
    pub prefill_chunk_pages: usize,
    /// Host-memory swap tier capacity in KV pages (0 — the default —
    /// disables the tier, keeping eviction's drop-and-re-prefill behavior
    /// bit-identical to earlier engines). With a tier provisioned, pages
    /// reclaimed from preemption victims move their contents off-device
    /// instead of being dropped, and re-admission pays a priced copy-back
    /// ([`swap_cost_factor`](Self::swap_cost_factor)) instead of
    /// re-prefilling them.
    pub host_pages: usize,
    /// Cycles to copy one swapped token back from the host tier, as a
    /// fraction of the same token's measured re-prefill cost (the charge
    /// is `attention cycles × swap_cost_factor × swapped/context`,
    /// mirroring the re-prefill formula). Below the re-prefill factor
    /// (`REPREFILL_FACTOR` in `serve/pricing.rs`, 1) the swap tier wins;
    /// above it, dropping and re-prefilling is cheaper — the crossover
    /// the tiered bench sweeps.
    pub swap_cost_factor: f64,
    /// Cycles to ship one KV token between cluster shards, as a fraction
    /// of its prefill cost (same formula shape as
    /// [`swap_cost_factor`](Self::swap_cost_factor)). 0 — the default —
    /// disables cross-shard page shipping entirely, keeping cluster
    /// schedules bit-identical to earlier engines.
    pub ship_cost_factor: f64,
    /// Opt-in admission-time SLO rejection: refuse queued requests whose
    /// TTFT deadline has already elapsed before they produced a token —
    /// admitting them could only burn prefill on guaranteed-zero goodput.
    /// Rejected requests are reported with
    /// [`slo_violated`](RequestStats::slo_violated) set and still count
    /// in [`deadline_attainment`](ServingReport::deadline_attainment)'s
    /// denominator. Off by default (bit-identical schedules).
    pub reject_expired_ttft: bool,
    /// FC/FFN weight bytes streamed once per decode step.
    pub weight_bytes: u64,
    /// Attention heads per request per step (layers × heads of the model;
    /// the per-head cost is measured once per request and scaled).
    pub heads: usize,
    /// Accelerator clock in Hz, for cycles → seconds conversion.
    pub clock_hz: f64,
    /// Base seed of the synthetic per-request workloads.
    pub seed: u64,
}

impl ServingConfig {
    /// Default host-tier copy-back charge factor: copying a token's KV
    /// back from host costs a quarter of prefilling it, the ballpark of
    /// PCIe transfer vs recompute in production swap tiers.
    pub const DEFAULT_SWAP_COST_FACTOR: f64 = 0.25;

    /// The range every price factor (`prefill_factor`, `swap_cost_factor`,
    /// `ship_cost_factor`) is held to where one is read in: the CLI's
    /// flags and a trace's meta line refuse a factor outside it, or NaN.
    pub const FACTOR_RANGE: RangeInclusive<f64> = 0.0..=10.0;

    /// A configuration around an accelerator config with paper-flavoured
    /// defaults: 50 MB of weights, 16 heads, 500 MHz core clock.
    #[must_use]
    pub fn new(accel: AccelConfig) -> Self {
        Self {
            accel,
            admission: AdmissionConfig::default(),
            preemption: PreemptionConfig::default(),
            prefill_factor: 0.0,
            prefill_chunk_pages: 0,
            host_pages: 0,
            swap_cost_factor: Self::DEFAULT_SWAP_COST_FACTOR,
            ship_cost_factor: 0.0,
            reject_expired_ttft: false,
            weight_bytes: 50_000_000,
            heads: 16,
            clock_hz: 500e6,
            seed: 0,
        }
    }

    /// Refuses what no engine can price or record faithfully: `heads` 0, a
    /// `clock_hz` not finite and positive, a price factor outside
    /// [`FACTOR_RANGE`](Self::FACTOR_RANGE) (NaN included), a
    /// [`RetentionPolicy::Fraction`] outside `(0, 1)`, the grammar its
    /// `FromStr` reads back, and an admission `max_batch` or `page_size`
    /// of 0 (no request could ever run, or pages would be bent to 1 token).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the first field at fault.
    pub fn validate(&self) -> Result<(), ServeError> {
        let fraction_ok = match self.preemption.retention {
            RetentionPolicy::Fraction(f) => f > 0.0 && f < 1.0,
            _ => true,
        };
        let factor_ok = |factor| Self::FACTOR_RANGE.contains(&factor);
        [
            ("heads", self.heads > 0),
            ("clock_hz", self.clock_hz.is_finite() && self.clock_hz > 0.0),
            ("prefill_factor", factor_ok(self.prefill_factor)),
            ("swap_cost_factor", factor_ok(self.swap_cost_factor)),
            ("ship_cost_factor", factor_ok(self.ship_cost_factor)),
            ("retention", fraction_ok),
            ("max_batch", self.admission.max_batch > 0),
            ("page_size", self.admission.page_size > 0),
        ]
        .into_iter()
        .find(|&(_, ok)| !ok)
        .map_or(Ok(()), |(field, _)| {
            Err(ServeError::InvalidConfig { field })
        })
    }
}

/// Step-by-step construction of a [`ServingEngine`]: configuration knobs
/// and the scheduling policy.
///
/// # Examples
///
/// ```
/// use topick_accel::{AccelConfig, AccelMode, PolicyKind, ServingEngine, ServingRequest};
///
/// let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
/// let mut engine = ServingEngine::builder(accel)
///     .heads(2)
///     .max_batch(4)
///     .policy(PolicyKind::ShortestJobFirst)
///     .build();
/// engine.enqueue(ServingRequest::new(0, 32, 2).with_priority(3))?;
/// let report = engine.run_to_completion(16)?;
/// assert_eq!(report.policy, "shortest-job-first");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServingEngineBuilder {
    cfg: ServingConfig,
    policy: PolicyKind,
}

impl ServingEngineBuilder {
    /// Starts from paper-flavoured defaults around an accelerator config,
    /// with the FIFO policy and preemption off.
    #[must_use]
    pub fn new(accel: AccelConfig) -> Self {
        Self {
            cfg: ServingConfig::new(accel),
            policy: PolicyKind::Fifo,
        }
    }

    /// Replaces the whole serving configuration.
    #[must_use]
    pub fn config(mut self, cfg: ServingConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the batch slot limit.
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.cfg.admission.max_batch = max_batch;
        self
    }

    /// Sets the batch KV token budget.
    #[must_use]
    pub fn max_batch_tokens(mut self, max_batch_tokens: usize) -> Self {
        self.cfg.admission.max_batch_tokens = max_batch_tokens;
        self
    }

    /// Sets the KV page size in tokens (the granularity the token budget
    /// is carved into; admission rounds every request's footprint up to
    /// whole pages).
    #[must_use]
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.cfg.admission.page_size = page_size;
        self
    }

    /// Enables copy-on-write prefix caching over the KV pager: requests
    /// whose prompts share a full-page-aligned prefix with resident pages
    /// adopt them instead of re-allocating and re-prefilling, and pages
    /// of retired requests stay cached until pressure reclaims them.
    #[must_use]
    pub fn prefix_cache(mut self, enabled: bool) -> Self {
        self.cfg.admission.prefix_cache = enabled;
        self
    }

    /// Sets the prompt-prefill charge factor (see
    /// [`ServingConfig::prefill_factor`]; `0` keeps prompts free).
    #[must_use]
    pub fn prefill_factor(mut self, prefill_factor: f64) -> Self {
        self.cfg.prefill_factor = prefill_factor;
        self
    }

    /// Sets the chunked-prefill budget in KV pages per step (see
    /// [`ServingConfig::prefill_chunk_pages`]; `0` keeps prefill
    /// unchunked — whole prompts build in one step).
    #[must_use]
    pub fn prefill_chunk_pages(mut self, pages: usize) -> Self {
        self.cfg.prefill_chunk_pages = pages;
        self
    }

    /// Provisions the host-memory swap tier, in KV pages (see
    /// [`ServingConfig::host_pages`]; `0` keeps eviction dropping pages —
    /// bit-identical to earlier engines).
    #[must_use]
    pub fn host_pages(mut self, pages: usize) -> Self {
        self.cfg.host_pages = pages;
        self
    }

    /// Sets the attention head count per request per step.
    #[must_use]
    pub fn heads(mut self, heads: usize) -> Self {
        self.cfg.heads = heads;
        self
    }

    /// Sets the FC/FFN weight bytes streamed per step.
    #[must_use]
    pub fn weight_bytes(mut self, weight_bytes: u64) -> Self {
        self.cfg.weight_bytes = weight_bytes;
        self
    }

    /// Sets the base seed of the synthetic per-request workloads.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Selects a built-in scheduling policy.
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = kind;
        self
    }

    /// Enables preemption, keeping whatever retention is already
    /// configured (so the call order relative to
    /// [`retention`](Self::retention) does not matter).
    #[must_use]
    pub fn enable_preemption(mut self) -> Self {
        self.cfg.preemption.enabled = true;
        self
    }

    /// Sets how much of a preemption victim's paged KV cache survives the
    /// eviction (does not by itself enable preemption).
    #[must_use]
    pub fn retention(mut self, retention: RetentionPolicy) -> Self {
        self.cfg.preemption.retention = retention;
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(self) -> ServingEngine {
        ServingEngine::from_parts(self.cfg, self.policy)
    }
}

/// The continuous-batching serving engine.
///
/// # Examples
///
/// ```
/// use topick_accel::{AccelConfig, AccelMode, ServingConfig, ServingEngine, ServingRequest};
///
/// let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
/// let mut cfg = ServingConfig::new(accel);
/// cfg.heads = 2;
/// let mut engine = ServingEngine::new(cfg);
/// for id in 0..3 {
///     engine.enqueue(ServingRequest::new(id, 24 + 8 * id as usize, 2))?;
/// }
/// let report = engine.run_to_completion(64)?;
/// assert_eq!(report.tokens_generated, 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServingEngine {
    cfg: ServingConfig,
    accel: ToPickAccelerator,
    policy: PolicyKind,
    pending: PendingQueue,
    /// Admission's buffers, kept across steps.
    order: AdmissionOrder,
    /// The running batch, in slot order.
    running: Vec<ActiveRequest>,
    /// The KV page allocator: the batch's KV budget, including pages
    /// retained by preempted requests waiting in the queue.
    pager: KvPager,
    /// [`ServingConfig::validate`]'s verdict on `cfg`, taken once at build:
    /// the configuration never changes after it.
    config_check: Result<(), ServeError>,
    /// The run's one record: every step (so its length is the step
    /// index), every finished request and every counter.
    report: ServingReport,
    events: Vec<ServeEvent>,
    arrival_seq: u64,
    /// The stepping thread's key buffers, kept from one simulation to the
    /// next.
    scratch: KeyScratch,
    lending: LendingStats,
    /// Shared prompt prefixes' page keys, hashed once per tag.
    prefix_chains: PrefixChains,
    /// Cycle-level simulations run so far.
    #[cfg(test)]
    simulations: usize,
    /// Admission passes over the queue so far.
    #[cfg(test)]
    admission_passes: usize,
    /// Admission passes that grew the admission order's buffers.
    #[cfg(test)]
    rank_buffer_growths: usize,
}

/// What a slot does with its step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotWork {
    /// Its prompt cannot finish building this step: it advances the
    /// prefill frontier by `allowance` tokens instead of decoding.
    Prefill { allowance: usize },
    /// It decodes a token, settling whatever prefill it still owed.
    Decode,
}

impl SlotWork {
    /// Whether the slot's step needs its attention simulated: every one
    /// does but a prefill the step's budget left nothing for.
    fn simulates(self) -> bool {
        self != Self::Prefill { allowance: 0 }
    }
}

/// Chunked prefill: a step's prompt-building allowance in tokens, shared
/// by every slot still owing prefill and consumed in slot order
/// (admissions append, so head slots — the oldest work — always drain the
/// budget first and no frontier can starve). The one walk both the slot
/// loop and the pooled attention pass before it take, so they agree on
/// what every slot does.
#[derive(Debug)]
struct ChunkBudget(usize);

impl ChunkBudget {
    /// What the next slot in slot order does, owing `prefill_debt` prompt
    /// tokens.
    fn next(&mut self, prefill_debt: usize) -> SlotWork {
        if prefill_debt > self.0 {
            SlotWork::Prefill {
                allowance: std::mem::take(&mut self.0),
            }
        } else {
            self.0 -= prefill_debt;
            SlotWork::Decode
        }
    }
}

impl ServingEngine {
    /// Creates an idle engine with the FIFO policy (the pre-redesign
    /// behavior, bit-for-bit).
    #[must_use]
    pub fn new(cfg: ServingConfig) -> Self {
        Self::from_parts(cfg, PolicyKind::Fifo)
    }

    /// Starts a [`ServingEngineBuilder`] around an accelerator config.
    #[must_use]
    pub fn builder(accel: AccelConfig) -> ServingEngineBuilder {
        ServingEngineBuilder::new(accel)
    }

    fn from_parts(cfg: ServingConfig, policy: PolicyKind) -> Self {
        let report = ServingReport {
            policy: policy.name().to_string(),
            prune: PruneStats::new(0, cfg.accel.precision.num_chunks()),
            ..ServingReport::default()
        };
        let accel = ToPickAccelerator::new(cfg.accel.clone());
        let pager = KvPager::new(cfg.admission.page_size, cfg.admission.max_batch_tokens)
            .with_prefix_cache(cfg.admission.prefix_cache)
            .with_host_tier(cfg.host_pages);
        let prefix_chains = PrefixChains::new(
            pager.total_pages() + pager.host_capacity(),
            cfg.admission.page_size,
        );
        Self {
            config_check: cfg.validate(),
            cfg,
            accel,
            policy,
            pending: PendingQueue::default(),
            order: AdmissionOrder::default(),
            running: Vec::new(),
            pager,
            report,
            events: Vec::new(),
            arrival_seq: 0,
            scratch: KeyScratch::default(),
            lending: LendingStats::default(),
            prefix_chains,
            #[cfg(test)]
            simulations: 0,
            #[cfg(test)]
            admission_passes: 0,
            #[cfg(test)]
            rank_buffer_growths: 0,
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// How often this engine's own [`step`](Self::step)s have used the
    /// second core for their attention instances so far. A cluster pools
    /// its shards' steps itself and counts them in
    /// [`ClusterEngine::lending_stats`](cluster::ClusterEngine::lending_stats).
    #[must_use]
    pub fn lending_stats(&self) -> LendingStats {
        self.lending
    }

    /// Requests waiting for admission.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Requests currently decoding.
    #[must_use]
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Whether all enqueued work has completed.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// Final-context tokens of everything queued — the engine's backlog in
    /// KV terms, the load signal cluster routing and work stealing compare
    /// shards by.
    #[must_use]
    pub fn queued_tokens(&self) -> usize {
        self.pending.tokens()
    }

    /// Tokens' worth of KV pages mapped by *running* requests. Retained
    /// pages of queued preemption victims are deliberately excluded:
    /// their owners already count toward [`queued_tokens`](Self::queued_tokens)
    /// at full final context, so including their pages here would
    /// double-bill exactly the shards where retention paid off.
    #[must_use]
    pub fn running_kv_tokens(&self) -> usize {
        self.running
            .iter()
            .map(|r| self.pager.pages_of(r.arrival_seq))
            .sum::<usize>()
            * self.pager.page_size()
    }

    /// Records a zero-work step so an externally driven engine's clock can
    /// stay in lockstep with peers: a [`ClusterEngine`] ticks idle shards
    /// so every shard's step index equals the cluster step, keeping
    /// `arrival_step` semantics and event timestamps cluster-global. Shaped
    /// exactly like the engine's own waiting-on-future-arrivals idle tick.
    pub(crate) fn idle_tick(&mut self) {
        debug_assert!(self.is_idle(), "idle ticks are only for drained engines");
        self.report.steps.push(StepReport::idle(self.step_index()));
    }

    /// The index of the step about to run: one step report per step run.
    fn step_index(&self) -> usize {
        self.report.steps.len()
    }

    /// Whether the queue holds a request work stealing may migrate: one
    /// that has arrived and has never been admitted (no generated tokens,
    /// no retained KV pages — nothing that ties it to this engine).
    #[must_use]
    pub(crate) fn has_stealable_queued(&self) -> bool {
        self.pending.iter().any(|e| self.unstarted(e))
    }

    /// Whether queued request `e` has arrived and has never been admitted.
    fn unstarted(&self, e: &Queued) -> bool {
        e.is_fresh() && e.req().arrival_step as usize <= self.step_index()
    }

    /// Removes and returns the youngest queued request that has arrived
    /// and never been admitted — the request this engine would have served
    /// last, and the only kind that can move engines without a cross-shard
    /// KV transfer. Its lifecycle restarts on the thief (fresh enqueue,
    /// fresh queue age).
    pub(crate) fn steal_youngest_unstarted(&mut self) -> Option<ServingRequest> {
        let seq = self
            .pending
            .iter()
            .rev()
            .find(|e| self.unstarted(e))
            .map(Queued::arrival_seq)?;
        Some(*self.pending.remove_by_seq(seq).req())
    }

    /// The KV page allocator: page-granular accounting of the batch's KV
    /// budget, including pages retained by preempted requests waiting in
    /// the queue.
    #[must_use]
    pub fn kv_pager(&self) -> &KvPager {
        &self.pager
    }

    /// Checks every KV-residency invariant, panicking with a description
    /// of the first violation — the oracle the soak and property tests run
    /// after every step:
    ///
    /// * the pager's own invariants ([`KvPager::validate`]);
    /// * for every queued and running request: it owes prompt prefill or a
    ///   post-eviction rebuild, never both (the debt is one sum type); the
    ///   debt never exceeds its context, so the built prefix is
    ///   well-defined; only a rebuild debt has a host-tier holding, and
    ///   the holding is part of what the rebuild dropped;
    /// * the host tier holds exactly the pages those holdings need;
    /// * the queue's 16-byte arrival index is strictly increasing in
    ///   arrival sequence, which its lookups by sequence binary-search
    ///   on, and names exactly the slots that hold a queued request.
    ///
    /// A never-admitted queued request has no ledger yet: it owes at most
    /// its prompt and holds nothing in the host tier.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn validate(&self) {
        self.pending.validate();
        self.pager.validate();
        let mut host_pages = 0;
        let queued = self.pending.iter().filter_map(Queued::started);
        for r in queued.chain(&self.running) {
            r.kv.validate(r.context());
            host_pages += self.pager.pages_needed(r.kv.host_tokens());
        }
        assert_eq!(
            host_pages,
            self.pager.host_pages_used(),
            "host tier occupancy disagrees with the requests' holdings"
        );
    }

    /// Events recorded so far, in order.
    #[must_use]
    pub fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    /// Removes and returns all recorded events (subsequent calls see only
    /// newer ones) — the poll side of the event stream.
    pub fn drain_events(&mut self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.events)
    }

    fn emit(&mut self, event: ServeEvent) {
        self.events.push(event);
    }

    /// Checks whether `req` could ever be accepted by this engine — the
    /// validation [`enqueue`](Self::enqueue) applies before queueing,
    /// callable without side effects (the cluster front door uses it so a
    /// doomed request cannot advance routing state).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if the engine's configuration
    /// fails [`ServingConfig::validate`], and [`ServeError::InvalidRequest`]
    /// if the prompt or token target is zero, or if the request alone could
    /// never satisfy the admission budget.
    pub fn validate_request(&self, req: &ServingRequest) -> Result<(), ServeError> {
        self.config_check.clone()?;
        if req.prompt_len == 0 {
            return Err(ServeError::InvalidRequest("prompt_len must be positive"));
        }
        if req.max_new_tokens == 0 {
            return Err(ServeError::InvalidRequest(
                "max_new_tokens must be positive",
            ));
        }
        let pages = self.pager.pages_needed(req.prompt_len + req.max_new_tokens);
        if pages > self.pager.total_pages() {
            return Err(ServeError::InvalidRequest(
                "request exceeds the batch KV page budget even alone",
            ));
        }
        Ok(())
    }

    /// Whether admission charges a prompt's prefill: a never-admitted
    /// request starts owing its whole prompt.
    fn prefill_priced(&self) -> bool {
        self.cfg.prefill_factor > 0.0
    }

    /// Adds a request to the arrival queue.
    ///
    /// # Errors
    ///
    /// Returns the error [`validate_request`](Self::validate_request)
    /// would.
    pub fn enqueue(&mut self, req: ServingRequest) -> Result<(), ServeError> {
        self.enqueue_with_shipped(req, 0, None)
    }

    /// [`enqueue`](Self::enqueue) with `shipped_tokens` of the request's
    /// prompt KV already in flight from a sibling shard — the cluster's
    /// prefix-pull path marks how many tokens' pages it shipped so the
    /// first decode step charges the modeled transfer
    /// ([`ship_cost_factor`](ServingConfig::ship_cost_factor)) — and with
    /// the prompt's page keys when the caller has already hashed them at
    /// this engine's page size.
    pub(crate) fn enqueue_with_shipped(
        &mut self,
        req: ServingRequest,
        shipped_tokens: usize,
        page_keys: Option<Vec<u64>>,
    ) -> Result<(), ServeError> {
        self.validate_request(&req)?;
        // A request becomes schedulable when it both has been enqueued and
        // has arrived.
        let schedulable_at = self.step_index().max(req.arrival_step as usize);
        // The prompt-page hash chain is what admission matches against the
        // prefix index; only worth computing when the cache can use it.
        let page_keys = if self.cfg.admission.prefix_cache {
            page_keys.unwrap_or_else(|| self.prefix_chains.page_keys(&req))
        } else {
            Vec::new()
        };
        self.pending.push(Queued::Fresh(QueuedRequest {
            req,
            arrival_seq: self.arrival_seq,
            schedulable_at,
            shipped_tokens,
            page_keys,
        }));
        self.arrival_seq += 1;
        self.emit(ServeEvent::Enqueued {
            id: req.id,
            step: self.step_index(),
        });
        Ok(())
    }

    /// Removes and returns the youngest *running* request that is fully
    /// built (no outstanding prefill or re-prefill debt) for migration to
    /// a sibling shard, releasing its device pages and discarding any
    /// host-tier holding here. The returned state carries its whole built
    /// context as shipped KV; the receiver re-prices it at
    /// [`ship_cost_factor`](ServingConfig::ship_cost_factor) via
    /// [`receive_shipped`](Self::receive_shipped).
    pub(crate) fn ship_out_youngest_running(&mut self) -> Option<ActiveRequest> {
        let slot = self.running.iter().rposition(|r| r.kv.is_built())?;
        let mut shipped = self.running.remove(slot);
        self.pager.release(shipped.arrival_seq);
        shipped
            .kv
            .ship_out(shipped.context(), self.pager.host_mut());
        Some(shipped)
    }

    /// Lands a migrated running request from a sibling shard: it re-enters
    /// this engine's queue with a fresh arrival sequence, keeping its
    /// lifecycle stats (enqueue step, generated tokens, deadlines) so
    /// cluster-level accounting stays per-request truthful.
    pub(crate) fn receive_shipped(&mut self, mut active: ActiveRequest) {
        active.arrival_seq = self.arrival_seq;
        self.arrival_seq += 1;
        active.wait_since = self.step_index();
        // The eviction cooldown is per-engine; a migrant is admissible
        // immediately.
        active.last_evicted_at = None;
        let id = active.req.id;
        self.pending.push(Queued::Started(Box::new(active)));
        self.emit(ServeEvent::Enqueued {
            id,
            step: self.step_index(),
        });
    }

    /// Queued, never-admitted requests visible at the current step whose
    /// prompt hash chain a cluster prefix pull could still shorten, as
    /// `(id, arrival_seq, chain)` in arrival order — the deterministic
    /// order the cluster probes siblings in between step barriers.
    pub(crate) fn pull_candidates(&self) -> Vec<(u64, u64, Vec<u64>)> {
        self.pending
            .iter()
            .filter(|e| self.unstarted(e) && !e.page_keys().is_empty())
            .map(|e| (e.req().id, e.arrival_seq(), e.page_keys().to_vec()))
            .collect()
    }

    /// Credits `tokens` of shipped prompt KV to a queued request after a
    /// between-barriers prefix pull landed pages for it, so the decode
    /// step that admits it prices the transfer
    /// ([`ship_cost_factor`](ServingConfig::ship_cost_factor)) instead of
    /// prefill work for the covered prefix.
    pub(crate) fn credit_shipped(&mut self, seq: u64, tokens: usize) {
        if let Some(e) = self.pending.get_mut_by_seq(seq) {
            e.credit_shipped(tokens);
        }
    }

    /// Drops queued requests whose TTFT deadline has already elapsed while
    /// they waited — even an immediate admission could not produce an
    /// on-time first token, so prefilling them would only buy zero-goodput
    /// work that crowds out requests still able to meet their deadlines.
    /// Opt-in via [`reject_expired_ttft`](ServingConfig::reject_expired_ttft);
    /// a reject still counts against
    /// [`deadline_attainment`](ServingReport::deadline_attainment).
    fn reject_expired(&mut self) {
        let step = self.step_index();
        let expired: Vec<(u64, i64)> = self
            .pending
            .iter()
            .filter(|e| e.first_token_at().is_none())
            .filter_map(|e| {
                let due = due_step(e.enqueued_at(), None, e.req().ttft_deadline, None);
                let slack = slo_slack(due, step as u64);
                (slack < 0).then_some((e.arrival_seq(), slack))
            })
            .collect();
        for (seq, slack) in expired {
            let mut r = self
                .pending
                .remove_by_seq(seq)
                .into_active(self.prefill_priced());
            // A preempted-then-expired request may still hold retained
            // device pages or a host-tier holding; both go back to their
            // pools.
            self.pager.release(seq);
            r.kv.release_host(self.pager.host_mut());
            r.stats.slo_violated = true;
            r.stats.finished_at = Some(step);
            self.report.rejections += 1;
            let id = r.req.id;
            self.report.requests.push(r.stats);
            self.emit(ServeEvent::Rejected {
                id,
                step,
                overdue_steps: slack.unsigned_abs() as usize,
            });
        }
    }

    /// Admits queued requests under the policy's ordering while the batch
    /// has room, evicting victims for non-fitting candidates when
    /// preemption allows it.
    ///
    /// One pass over the queue fills the [`AdmissionOrder`] kept across
    /// calls, and each admission pops its least candidate. That is exact:
    /// within one call only slot counts, which the order tracks, change a
    /// candidate's key. Victims re-enter the queue evicted at this step,
    /// so they stay invisible until the next one, and reclaiming retained
    /// pages touches no field a view reads.
    fn admit(&mut self) {
        let step = self.step_index();
        let mut evictions_left = if self.cfg.preemption.enabled {
            policy::MAX_EVICTIONS_PER_STEP
        } else {
            0
        };
        let mut order = std::mem::take(&mut self.order);
        #[cfg(test)]
        let capacity = order.capacity();
        order.fill(self.policy, self.pending.views(step), step as u64);
        while let Some(cand) = order.pop(
            |seq| self.pending.view_by_seq(seq, step),
            |c| self.running.iter().filter(|r| r.req.client_id == c).count(),
        ) {
            // The candidate's prompt-page hash chain: pages the prefix
            // cache can serve reduce what admission must allocate. Taken
            // out of its slot for the pick and put back unless admitted;
            // nothing in between reads a queued request's chain.
            let chain = self
                .pending
                .get_mut_by_seq(cand.arrival_seq)
                .map(|e| std::mem::take(e.page_keys_mut()))
                .unwrap_or_default();
            if !self.fits(cand.arrival_seq, cand.final_context, &chain) {
                // Cheapest rescue first: when the candidate has a slot
                // and only lacks pages, reclaim queued requests' retained
                // pages — that costs no new preemption, so it must be
                // tried before evicting anyone who is actually running.
                self.reclaim_for(&cand, &chain);
                // Preemption rescue, planned transactionally in page
                // space: victims are chosen against a scratch view and
                // committed (pages freed/retained) only if the candidate
                // then fits, so a failed admission never charges anyone
                // re-prefill for nothing.
                if !self.fits(cand.arrival_seq, cand.final_context, &chain) && evictions_left > 0 {
                    let limits = self.cfg.admission;
                    let retention = self.cfg.preemption.retention;
                    let pager = &self.pager;
                    // Pages the candidate still needs, crediting any it
                    // retained across an earlier preemption and any the
                    // prefix cache can supply without allocation, against
                    // the pages available — cached ones count (reclaimable
                    // on demand) except those it is itself about to adopt.
                    let hit_pages = pager.adoptable_pages(cand.arrival_seq, &chain);
                    let (cand_need, mut avail) =
                        pager.admission_gap(cand.arrival_seq, cand.final_context, &chain);
                    let mut sim = self.running_views();
                    let fits_sim = |sim: &[policy::RunningView], avail: usize| {
                        sim.len() < limits.max_batch && cand_need <= avail
                    };
                    let mut victims: Vec<(u64, u64)> = Vec::new();
                    while victims.len() < evictions_left
                        && !sim.is_empty()
                        && !fits_sim(&sim, avail)
                    {
                        let Some(vi) = self.policy.pick_victim(&cand, &sim, step as u64) else {
                            break;
                        };
                        let victim = sim.remove(vi);
                        // Evicting returns the victim's dropped pages
                        // minus what retention keeps — and minus pages
                        // another resident request still maps (shared
                        // pages are never reclaimed out from under a
                        // second owner) or that the candidate will adopt.
                        // (Conservative: the eviction itself also caps
                        // retention at the victim's built prefix, so a
                        // victim with debt frees more than planned here.)
                        let occupied = pager.pages_needed(victim.context);
                        let kept = retention.retained_pages(occupied);
                        avail += pager.releasable_pages(victim.arrival_seq, kept, &hit_pages);
                        victims.push((victim.arrival_seq, victim.client_id));
                    }
                    if fits_sim(&sim, avail) {
                        evictions_left -= victims.len();
                        for (seq, client) in victims {
                            let slot = self
                                .running
                                .iter()
                                .position(|r| r.arrival_seq == seq)
                                .expect("planned victim is running");
                            self.evict(slot);
                            order.rekey(client);
                        }
                    }
                }
                // Combined pressure: a rescue eviction may have freed the
                // slot while pages are still short (retention keeps most
                // of the victims' pages allocated) — one more reclaim
                // pass covers that before declaring head-of-line
                // blocking.
                self.reclaim_for(&cand, &chain);
                if !self.fits(cand.arrival_seq, cand.final_context, &chain) {
                    // Head-of-line blocking: the policy's chosen candidate
                    // cannot run, so admission ends for this step.
                    if let Some(e) = self.pending.get_mut_by_seq(cand.arrival_seq) {
                        *e.page_keys_mut() = chain;
                    }
                    break;
                }
            }
            let mut active = self
                .pending
                .remove_by_seq(cand.arrival_seq)
                .into_active(self.prefill_priced());
            active.page_keys = chain;
            if active.stats.admitted_at.is_none() {
                active.stats.admitted_at = Some(step);
            }
            active.last_admitted_at = Some(step);
            let (id, context, prompt_len) =
                (active.req.id, active.context(), active.req.prompt_len);
            let cached_tokens = self.join_batch(active);
            // Admission-normalized hit accounting: every admission demands
            // the full prompt once, and `cached_tokens` of it came from
            // the cache — counting here (not at completion) keeps hit
            // rates in [0, 1] even on truncated runs with in-flight work.
            self.report.admitted_prompt_tokens += prompt_len;
            self.report.admitted_hit_tokens += cached_tokens;
            self.emit(ServeEvent::Admitted {
                id,
                step,
                context,
                cached_tokens,
            });
        }
        #[cfg(test)]
        {
            self.admission_passes += 1;
            self.rank_buffer_growths += usize::from(order.capacity() > capacity);
        }
        self.order = order;
    }

    /// Evicts the running request at `slot` back to the queue, retaining
    /// a prefix of its KV pages per the configured [`RetentionPolicy`].
    fn evict(&mut self, slot: usize) {
        let mut victim = self.running.remove(slot);
        let (retained_tokens, swapped_now) = victim.kv.evict(
            victim.context(),
            self.cfg.preemption.retention,
            self.pager.host_mut(),
        );
        let dropped_tokens = victim.context() - retained_tokens;
        // Free the dropped suffix and the unused reservation beyond the
        // current context; the retained prefix stays allocated while the
        // victim queues.
        self.pager
            .truncate(victim.arrival_seq, self.pager.pages_needed(retained_tokens));
        victim.stats.preemptions += 1;
        victim.stats.retained_tokens += retained_tokens;
        victim.last_evicted_at = Some(self.step_index());
        // Waiting restarts now: time spent running must not count as
        // queue age when policies apply starvation aging.
        victim.wait_since = self.step_index();
        self.report.preemptions += 1;
        let (id, generated) = (victim.req.id, victim.stats.generated);
        self.pending.push(Queued::Started(Box::new(victim)));
        self.emit(ServeEvent::Preempted {
            id,
            step: self.step_index(),
            generated,
            retained_tokens,
            dropped_tokens,
        });
        if swapped_now > 0 {
            self.emit(ServeEvent::SwappedOut {
                id,
                step: self.step_index(),
                tokens: swapped_now,
            });
        }
    }

    /// Pressure release for an admission candidate: retained pages are a
    /// cache, not a reservation, so while `cand` has a batch slot but not
    /// the pages, reclaim other queued requests' retained pages. A slot
    /// shortage is never a reason to reclaim — freeing pages cannot
    /// conjure a slot.
    fn reclaim_for(&mut self, cand: &PendingView, chain: &[u64]) {
        while self.running.len() < self.cfg.admission.max_batch
            && !self
                .pager
                .can_admit(cand.arrival_seq, cand.final_context, chain)
            && self.reclaim_retained(cand.arrival_seq, chain)
        {}
    }

    /// Reclaims one retained KV page from a queued request other than
    /// `exclude_seq` — a tail page of the holder with the deepest retained
    /// prefix (oldest first among equals), so retention degrades evenly
    /// and page-by-page instead of wiping whole victims. The holder's
    /// re-prefill debt grows by the tokens the lost page covered.
    /// Returns whether a page was reclaimed.
    ///
    /// Holders whose tail page would not actually free capacity for the
    /// candidate are skipped: a page shared with another owner stays
    /// resident for its other holders, and a page the candidate is itself
    /// about to adopt (it is in `cand_chain`'s hit set) merely moves into
    /// the LRU cache where the candidate's admission arithmetic already
    /// counts it — either way reclaiming would charge the queued victim
    /// re-prefill debt for zero gain. Reclamation is strictly tail-first
    /// (a retained prefix must stay a prefix), so an ineligible tail
    /// shields any deeper pages too; in the rare layout where a private
    /// page sits below a shared tail, that capacity is deliberately
    /// forgone rather than charging the holder debt for shared drops.
    fn reclaim_retained(&mut self, exclude_seq: u64, cand_chain: &[u64]) -> bool {
        let holder = {
            let pager = &self.pager;
            let cand_hits = pager.adoptable_pages(exclude_seq, cand_chain);
            self.pending
                .seqs()
                .filter(|&seq| seq != exclude_seq)
                .map(|seq| (pager.pages_of(seq), seq))
                .filter(|&(pages, seq)| {
                    pages > 0 && pager.releasable_pages(seq, pages - 1, &cand_hits) == 1
                })
                .max_by_key(|&(pages, seq)| (pages, std::cmp::Reverse(seq)))
                .map(|(_, seq)| seq)
        };
        let Some(seq) = holder else {
            return false;
        };
        let kept_pages = self.pager.pages_of(seq) - 1;
        self.pager.truncate(seq, kept_pages);
        let e = self
            .pending
            .get_mut_by_seq(seq)
            .and_then(Queued::started_mut)
            .expect("retained-page holder is queued, admitted before");
        let (lost_tokens, swapped_now) =
            e.kv.reclaim_tail_page(e.context(), kept_pages, self.pager.host_mut());
        e.stats.retained_tokens -= lost_tokens;
        let id = e.req.id;
        if swapped_now > 0 {
            self.emit(ServeEvent::SwappedOut {
                id,
                step: self.step_index(),
                tokens: swapped_now,
            });
        }
        true
    }

    /// Runs one batched decode step.
    ///
    /// Returns `Ok(None)` when the engine is idle (nothing pending or
    /// running). When requests are queued but none has arrived yet, the
    /// step is an idle tick: time advances with an all-zero [`StepReport`].
    ///
    /// # Errors
    ///
    /// Propagates simulation failures as [`ServeError::Core`], and
    /// reports a permanently unadmittable queue as
    /// [`ServeError::AdmissionStalled`].
    pub fn step(&mut self) -> Result<Option<StepReport>, ServeError> {
        self.step_lending_to(&lend::LENDER)
    }

    /// [`step`](Self::step), with the helper a step's pool of attention
    /// instances may be shared with. A step is three phases, and a cluster
    /// runs each over all its shards before the next: admission, the pooled
    /// attention pass over whatever was admitted, and the slot loop.
    fn step_lending_to(
        &mut self,
        lender: &Mutex<Lender>,
    ) -> Result<Option<StepReport>, ServeError> {
        self.begin_step();
        let lent = lend::pool_attention(std::slice::from_mut(self), lender);
        self.lending += lent;
        self.finish_step()
    }

    /// The first phase of a step: rejects what has expired and admits what
    /// fits, so the batch is the one this step's slot loop will walk.
    fn begin_step(&mut self) {
        if self.cfg.reject_expired_ttft {
            self.reject_expired();
        }
        self.admit();
    }

    /// The last phase of a step, after [`begin_step`](Self::begin_step) and
    /// the pooled attention pass: the idle and stalled checks, the slot loop
    /// and retirement. Returns what [`step`](Self::step) returns.
    fn finish_step(&mut self) -> Result<Option<StepReport>, ServeError> {
        if self.running.is_empty() {
            if self.pending.is_empty() {
                return Ok(None);
            }
            if self.pending.has_visible(self.step_index()) {
                // An empty batch that still cannot admit a schedulable
                // request means the limits (or the policy) exclude it
                // permanently. Erroring beats silently dropping the work.
                return Err(ServeError::AdmissionStalled {
                    pending: self.pending.len(),
                });
            }
            // Everything queued arrives later: tick time forward.
            let report = StepReport::idle(self.step_index());
            self.report.steps.push(report);
            return Ok(Some(report));
        }

        let step = self.step_index();
        let mut report = StepReport {
            batch: self.running.len(),
            weight_cycles: pricing::weight_stream_cycles(&self.cfg.accel, self.cfg.weight_bytes),
            ..StepReport::idle(step)
        };
        let mut chunk_budget = self.chunk_budget();
        for slot in 0..self.running.len() {
            match chunk_budget.next(self.running[slot].kv.prefill_owed()) {
                SlotWork::Prefill { allowance } => {
                    self.advance_prefill(slot, allowance, &mut report)?;
                }
                SlotWork::Decode => self.decode_slot(slot, &mut report)?,
            }
        }
        self.report.total_cycles += report.total_cycles();
        self.report.tokens_generated += report.decoded;
        self.report.steps.push(report);

        // Retire completed requests; freed budget admits queue at the next
        // step (continuous batching).
        for mut r in self.retire_finished() {
            r.stats.finished_at = Some(step);
            let (id, generated) = (r.req.id, r.stats.generated);
            self.report.requests.push(r.stats);
            self.emit(ServeEvent::Finished {
                id,
                step,
                generated,
            });
        }

        Ok(Some(report))
    }

    /// This step's chunked-prefill allowance, before any slot has drawn on
    /// it. 0 configured pages = unlimited, the one-lump path.
    fn chunk_budget(&self) -> ChunkBudget {
        ChunkBudget(if self.cfg.prefill_chunk_pages == 0 {
            usize::MAX
        } else {
            self.cfg.prefill_chunk_pages * self.pager.page_size()
        })
    }

    /// One step of a slot whose prompt is still building under chunked
    /// prefill: no token, no attention charge — the chunk's prefill charge
    /// *is* this slot's compute for the step. With no `allowance` left
    /// (earlier slots drained the step's budget) the frontier holds.
    fn advance_prefill(
        &mut self,
        slot: usize,
        allowance: usize,
        report: &mut StepReport,
    ) -> Result<(), ServeError> {
        let (id, ctx) = (self.running[slot].req.id, self.running[slot].context());
        if allowance == 0 {
            report.context_tokens += self.running[slot].built_tokens();
            return Ok(());
        }
        let attention = self.slot_attention(slot)?;
        let request_cycles = self.request_cycles(attention.head_cycles)?;
        let r = &mut self.running[slot];
        r.kept_attention.keep(attention);
        let (owed, remaining) = r.kv.advance_prefill(allowance);
        let charge = pricing::prefill_chunk(
            request_cycles,
            self.cfg.prefill_factor,
            owed,
            remaining,
            ctx,
        );
        r.stats.prefill_cycles += charge;
        // The chunk's pages now hold real KV: publish the covered full
        // prompt pages for prefix sharing right away.
        self.publish_prefix(slot);
        report.prefill_cycles += charge;
        report.context_tokens += ctx - remaining;
        self.emit(ServeEvent::PrefillChunk {
            id,
            step: report.index,
            built_tokens: ctx - remaining,
            remaining_tokens: remaining,
        });
        Ok(())
    }

    /// A request's attention cycles for one step: one head's, times the
    /// heads.
    fn request_cycles(&self, head_cycles: u64) -> Result<u64, ServeError> {
        head_cycles
            .checked_mul(self.cfg.heads as u64)
            .ok_or(ServeError::CycleOverflow { field: "heads" })
    }

    /// One step of a slot that decodes: measures its attention, settles
    /// whatever prefill / rebuild / copy-back / transfer debt it carried
    /// into the step, scores the token against the request's SLO and emits
    /// it.
    fn decode_slot(&mut self, slot: usize, report: &mut StepReport) -> Result<(), ServeError> {
        let step = report.index;
        let (id, ctx) = (self.running[slot].req.id, self.running[slot].context());
        let attention = self.slot_attention(slot)?;
        let request_cycles = self.request_cycles(attention.head_cycles)?;
        self.report.prune.merge(&attention.prune);
        let (r, host) = (&mut self.running[slot], self.pager.host_mut());
        let settled =
            r.kv.settle(ctx, &self.cfg, request_cycles, &mut r.stats, host);
        r.stats.attention_cycles += request_cycles;
        if r.stats.first_token_at.is_none() {
            r.stats.first_token_at = Some(step);
        }
        // SLO accounting: this token races TTFT (if it is the first) or
        // the inter-token deadline since the previous one — queue time
        // after a preemption counts against ITL, which is exactly what
        // SLO-aware eviction must weigh. A blown deadline ends the
        // good-token count for good.
        let (ttft, itl) = (r.req.ttft_deadline, r.req.itl_deadline);
        let due = due_step(r.stats.enqueued_at, r.last_token_at, ttft, itl);
        if slo_slack(due, step as u64) < 0 {
            r.stats.slo_violated = true;
        }
        if !r.stats.slo_violated {
            r.stats.good_tokens += 1;
        }
        r.last_token_at = Some(step);
        r.stats.generated += 1;
        let generated = r.stats.generated;
        if settled.built_kv {
            // The charge that just landed means the request's prompt KV
            // genuinely exists; its full pages may be published for sharing.
            self.publish_prefix(slot);
        }
        if settled.swapped_tokens > 0 {
            self.emit(ServeEvent::SwappedIn {
                id,
                step,
                tokens: settled.swapped_tokens,
            });
        }
        report.decoded += 1;
        report.context_tokens += ctx;
        report.attention_cycles += request_cycles;
        report.prefill_cycles += settled.prefill;
        report.reprefill_cycles += settled.reprefill;
        report.swap_cycles += settled.swap;
        report.ship_cycles += settled.ship;
        self.emit(ServeEvent::TokenGenerated {
            id,
            step,
            context: ctx,
            generated,
        });
        Ok(())
    }

    /// The attention step of the request at `slot` at its current context:
    /// the one kept on it at that context — by this step's pooled pass, by
    /// the last step's looking ahead, or by its last prefill chunk — a
    /// fresh simulation otherwise. The simulation is a pure function of
    /// `(engine seed, request id, context)` and every shard of a cluster
    /// shares the seed, so a kept step is valid wherever the request is
    /// queued, preempted to or shipped, and whichever thread simulated it.
    fn slot_attention(&mut self, slot: usize) -> Result<SimulatedStep, ServeError> {
        let r = &mut self.running[slot];
        let (id, context) = (r.req.id, r.context());
        match r.kept_attention.take(context) {
            Some(kept) => Ok(kept),
            None => {
                #[cfg(test)]
                {
                    self.simulations += 1;
                }
                lend::simulate_attention(&self.accel, self.cfg.seed, id, context, &mut self.scratch)
            }
        }
    }

    /// Drives the engine until every request finishes, bounded by
    /// `max_steps`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StepLimitExceeded`] if work remains after
    /// `max_steps`, or propagates simulation failures.
    pub fn run_to_completion(&mut self, max_steps: usize) -> Result<ServingReport, ServeError> {
        for _ in 0..max_steps {
            if self.step()?.is_none() {
                return Ok(self.report());
            }
        }
        if self.is_idle() {
            return Ok(self.report());
        }
        Err(ServeError::StepLimitExceeded {
            max_steps,
            unfinished: self.pending.len() + self.running.len(),
        })
    }

    /// The report accumulated so far (complete once the engine is idle).
    #[must_use]
    pub fn report(&self) -> ServingReport {
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelMode;

    fn small_cfg(mode: AccelMode) -> ServingConfig {
        let mut cfg = ServingConfig::new(AccelConfig::paper(mode, 1e-3).expect("thr"));
        cfg.heads = 2;
        cfg.weight_bytes = 1_000_000;
        cfg
    }

    fn mixed_requests(n: u64) -> Vec<ServingRequest> {
        (0..n)
            .map(|id| ServingRequest::new(id, 16 + (id as usize % 5) * 12, 2 + (id as usize % 3)))
            .collect()
    }

    #[test]
    fn admission_respects_batch_slot_limit() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 2,
            max_batch_tokens: 100_000,
            page_size: 16,
            prefix_cache: false,
        };
        let mut engine = ServingEngine::new(cfg);
        for r in mixed_requests(5) {
            engine.enqueue(r).unwrap();
        }
        engine.step().unwrap().unwrap();
        assert!(engine.running() <= 2);
        assert_eq!(engine.running() + engine.pending(), 5);
    }

    #[test]
    fn heads_that_overflow_a_steps_cycles_are_a_typed_error() {
        // Unchunked, the first step decodes; chunked, it prefills a chunk.
        for chunk_pages in [0, 1] {
            let mut cfg = small_cfg(AccelMode::OutOfOrder);
            cfg.prefill_chunk_pages = chunk_pages;
            let mut engine = ServingEngine::builder(cfg.accel.clone())
                .config(cfg)
                .heads(usize::MAX)
                .build();
            engine.enqueue(ServingRequest::new(0, 64, 2)).unwrap();
            assert_eq!(
                engine.step(),
                Err(ServeError::CycleOverflow { field: "heads" }),
                "chunk pages {chunk_pages}"
            );
        }
    }

    #[test]
    fn admission_respects_token_budget() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 16,
            max_batch_tokens: 100, // fits ~2 small requests' final contexts
            page_size: 16,
            prefix_cache: false,
        };
        let mut engine = ServingEngine::new(cfg);
        for id in 0..4 {
            engine.enqueue(ServingRequest::new(id, 30, 4)).unwrap();
        }
        let s = engine.step().unwrap().unwrap();
        // final_context = 34 each; budget 100 admits at most 2.
        assert_eq!(s.batch, 2);
    }

    #[test]
    fn oversized_request_rejected_up_front() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission.max_batch_tokens = 64;
        let mut engine = ServingEngine::new(cfg);
        let err = engine.enqueue(ServingRequest::new(0, 100, 10)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
    }

    #[test]
    fn zero_shapes_rejected() {
        let mut engine = ServingEngine::new(small_cfg(AccelMode::OutOfOrder));
        assert!(engine.enqueue(ServingRequest::new(0, 0, 1)).is_err());
        assert!(engine.enqueue(ServingRequest::new(0, 1, 0)).is_err());
    }

    /// `cfg` fails validation naming `field`, and an engine and a cluster
    /// built from it refuse their first request with that error.
    fn assert_config_refused(cfg: ServingConfig, field: &'static str) {
        let refused = Err(ServeError::InvalidConfig { field });
        assert_eq!(cfg.validate(), refused, "{field}");
        let mut engine = ServingEngine::new(cfg.clone());
        assert_eq!(engine.enqueue(ServingRequest::new(0, 32, 2)), refused);
        assert!(engine.is_idle());
        let mut cluster = ClusterEngine::builder(cfg.accel.clone())
            .config(cfg)
            .shards(2)
            .build();
        let enqueued = cluster.enqueue(ServingRequest::new(0, 32, 2)).map(drop);
        assert_eq!(enqueued, refused, "{field} on a cluster");
    }

    #[test]
    fn zero_heads_are_refused_at_enqueue() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.heads = 0;
        assert_config_refused(cfg, "heads");
    }

    #[test]
    fn a_clock_that_is_not_finite_and_positive_is_refused_at_enqueue() {
        for clock_hz in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = small_cfg(AccelMode::OutOfOrder);
            cfg.clock_hz = clock_hz;
            assert_config_refused(cfg, "clock_hz");
        }
    }

    #[test]
    fn a_price_factor_outside_its_range_is_refused_at_enqueue() {
        for bad in [f64::NAN, -1.0, 10.5, f64::INFINITY] {
            for field in ["prefill_factor", "swap_cost_factor", "ship_cost_factor"] {
                let mut cfg = small_cfg(AccelMode::OutOfOrder);
                *match field {
                    "prefill_factor" => &mut cfg.prefill_factor,
                    "swap_cost_factor" => &mut cfg.swap_cost_factor,
                    _ => &mut cfg.ship_cost_factor,
                } = bad;
                assert_config_refused(cfg, field);
            }
        }
        // The range's ends are in it.
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        (cfg.prefill_factor, cfg.ship_cost_factor) = (0.0, 10.0);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn a_retention_fraction_outside_zero_to_one_is_refused_at_enqueue() {
        // `Fraction(1.0)` would record as "1" and replay as `Pages(1)`.
        for f in [1.0, 0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let mut cfg = small_cfg(AccelMode::OutOfOrder);
            cfg.preemption =
                PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(f));
            assert_config_refused(cfg, "retention");
        }
    }

    #[test]
    fn a_zero_batch_limit_or_page_size_is_refused_at_enqueue() {
        // `max_batch` 0 could never admit the request, and `page_size` 0
        // would be bent to one token a page by the pager.
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission.max_batch = 0;
        assert_config_refused(cfg, "max_batch");
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission.page_size = 0;
        assert_config_refused(cfg, "page_size");
        let refused = ServeError::InvalidConfig { field: "page_size" };
        assert_eq!(refused.to_string(), "field 'page_size' must be at least 1");
    }

    #[test]
    fn chunked_prefill_simulates_once_per_decoded_token() {
        // 16-token chunks under 40-56-token prompts: every chunk of a
        // prompt and its first token run at one context, so they must
        // share one simulation rather than run one each.
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.prefill_factor = 1.0;
        cfg.prefill_chunk_pages = 1;
        let mut engine = ServingEngine::new(cfg);
        for id in 0..3 {
            let prompt = 40 + 8 * id as usize;
            engine.enqueue(ServingRequest::new(id, prompt, 3)).unwrap();
        }
        let report = engine.run_to_completion(64).unwrap();
        let chunks = engine
            .events()
            .iter()
            .filter(|e| matches!(e, ServeEvent::PrefillChunk { .. }))
            .count();
        assert!(chunks >= 6, "only {chunks} prefill chunks ran");
        assert_eq!(report.tokens_generated, 9);
        assert_eq!(engine.simulations, report.tokens_generated);
    }

    #[test]
    fn admission_passes_over_the_queue_once_per_step() {
        // Several picks per step and victims re-entering the queue
        // mid-step: still one pass over the queue per step, never one per
        // pick, under every policy.
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 4,
            max_batch_tokens: 256,
            page_size: 16,
            prefix_cache: false,
        };
        cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
        let mut preemptions = 0;
        for kind in PolicyKind::all() {
            let mut engine = ServingEngine::builder(cfg.accel.clone())
                .config(cfg.clone())
                .policy(kind)
                .build();
            for r in mixed_requests(24) {
                let r = r
                    .with_priority(r.id as u8 % 4)
                    .with_client(r.id % 3)
                    .arriving_at(r.id / 8);
                engine.enqueue(r).unwrap();
            }
            assert_eq!(engine.step().unwrap().unwrap().batch, 4, "{kind}");
            // Every `step` call admits once, the one that finds the
            // engine idle included.
            let mut calls = 1;
            loop {
                calls += 1;
                if engine.step().unwrap().is_none() {
                    break;
                }
            }
            assert_eq!(engine.admission_passes, calls, "{kind}");
            preemptions += engine.report().preemptions;
        }
        assert!(preemptions > 0, "no victim re-entered the queue");
    }

    /// The deep-queue pin's run (`tests/serving.rs`): a thousand requests,
    /// 800 queued at step 0 and four more per step, picked from
    /// mid-queue, preempted back into it and rejected from it.
    fn deep_queue_run() -> (ServingConfig, Vec<ServingRequest>) {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
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
        let requests: Vec<ServingRequest> = (0..1000u64)
            .map(|id| {
                let h = queue::splitmix64(id);
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
            .collect();
        (cfg, requests)
    }

    #[test]
    fn deep_queue_admission_recycles_its_rank_buffers() {
        // The deep-queue run under every policy. The same buffers carry
        // every step's admission order, so they grow only by doubling up
        // to the deepest queue.
        let (cfg, requests) = deep_queue_run();
        let (mut preemptions, mut rejections) = (0, 0);
        for kind in PolicyKind::all() {
            let mut engine = ServingEngine::builder(cfg.accel.clone())
                .config(cfg.clone())
                .policy(kind)
                .build();
            for &r in &requests {
                engine.enqueue(r).unwrap();
            }
            while engine.step().unwrap().is_some() {}
            let report = engine.report();
            preemptions += report.preemptions;
            rejections += report.rejections;
            let passes = engine.admission_passes;
            assert!(passes > 100, "{kind}: {passes} steps");
            assert!(
                engine.rank_buffer_growths <= 1000usize.ilog2() as usize + 2,
                "{kind}: the rank buffers grew {} times",
                engine.rank_buffer_growths
            );
        }
        assert!(preemptions > 0 && rejections > 0);
    }

    /// Runs `requests` to completion under `policy`; the report and the
    /// event stream.
    fn serve(
        cfg: &ServingConfig,
        policy: PolicyKind,
        requests: &[ServingRequest],
    ) -> (ServingReport, Vec<ServeEvent>) {
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg.clone())
            .policy(policy)
            .build();
        for &r in requests {
            engine.enqueue(r).unwrap();
        }
        while engine.step().unwrap().is_some() {}
        (engine.report(), engine.drain_events())
    }

    #[test]
    fn slo_aware_ranks_unrepresentable_deadlines_after_finite_ones() {
        // Deadlines past `i64::MAX` steps saturate instead of wrapping
        // to the front of the queue (or overflowing in debug builds).
        for huge in [i64::MAX as u64, 1 << 63, u64::MAX] {
            let mut cfg = small_cfg(AccelMode::OutOfOrder);
            cfg.admission.max_batch = 1;
            let requests = [
                ServingRequest::new(0, 16, 1).with_ttft_deadline(100),
                ServingRequest::new(1, 16, 1).with_ttft_deadline(huge),
                ServingRequest::new(2, 16, 1),
            ];
            let (_, events) = serve(&cfg, PolicyKind::SloAware, &requests);
            let admitted: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    ServeEvent::Admitted { id, .. } => Some(*id),
                    _ => None,
                })
                .collect();
            assert_eq!(admitted, [0, 1, 2], "TTFT deadline {huge}");
        }
    }

    #[test]
    fn continuous_batching_refills_from_queue() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 2,
            max_batch_tokens: 100_000,
            page_size: 16,
            prefix_cache: false,
        };
        let mut engine = ServingEngine::new(cfg);
        // Two short requests and one queued behind them.
        for (id, steps) in [(0u64, 1usize), (1, 1), (2, 2)] {
            engine.enqueue(ServingRequest::new(id, 16, steps)).unwrap();
        }
        engine.step().unwrap().unwrap(); // 0 and 1 run and finish
        assert_eq!(engine.pending(), 1);
        let s2 = engine.step().unwrap().unwrap(); // 2 admitted immediately
        assert_eq!(s2.batch, 1);
        let report = engine.run_to_completion(8).unwrap();
        assert_eq!(report.requests.len(), 3);
    }

    #[test]
    fn conservation_every_request_finishes_with_its_token_target() {
        let mut engine = ServingEngine::new(small_cfg(AccelMode::OutOfOrder));
        let reqs = mixed_requests(6);
        let expected_tokens: usize = reqs.iter().map(|r| r.max_new_tokens).sum();
        for r in &reqs {
            engine.enqueue(*r).unwrap();
        }
        let report = engine.run_to_completion(64).unwrap();
        assert_eq!(report.requests.len(), reqs.len());
        assert_eq!(report.tokens_generated, expected_tokens);
        let by_id: std::collections::HashMap<u64, &RequestStats> =
            report.requests.iter().map(|s| (s.id, s)).collect();
        for r in &reqs {
            let stats = by_id[&r.id];
            assert_eq!(stats.generated, r.max_new_tokens);
            assert!(stats.finished_at.is_some());
            assert!(stats.admitted_at.is_some());
            assert!(stats.attention_cycles > 0);
        }
        let step_total: u64 = report.steps.iter().map(StepReport::total_cycles).sum();
        assert_eq!(step_total, report.total_cycles);
    }

    #[test]
    fn stalled_admission_is_an_error_not_silent_completion() {
        // `max_batch` 0 is refused at enqueue, so the limit drops to 0
        // only after the request is queued.
        let mut engine = ServingEngine::new(small_cfg(AccelMode::OutOfOrder));
        engine.enqueue(ServingRequest::new(0, 16, 1)).unwrap();
        engine.cfg.admission.max_batch = 0;
        let err = engine.run_to_completion(4).unwrap_err();
        assert!(matches!(err, ServeError::AdmissionStalled { pending: 1 }));
    }

    #[test]
    fn step_limit_is_enforced() {
        let mut engine = ServingEngine::new(small_cfg(AccelMode::OutOfOrder));
        engine.enqueue(ServingRequest::new(0, 16, 50)).unwrap();
        let err = engine.run_to_completion(3).unwrap_err();
        assert!(matches!(err, ServeError::StepLimitExceeded { .. }));
    }

    #[test]
    fn future_arrivals_tick_idle_steps_then_run() {
        let mut engine = ServingEngine::new(small_cfg(AccelMode::OutOfOrder));
        engine
            .enqueue(ServingRequest::new(0, 16, 1).arriving_at(2))
            .unwrap();
        let s0 = engine.step().unwrap().unwrap();
        assert_eq!((s0.batch, s0.total_cycles()), (0, 0));
        let s1 = engine.step().unwrap().unwrap();
        assert_eq!(s1.batch, 0);
        let s2 = engine.step().unwrap().unwrap();
        assert_eq!(s2.batch, 1);
        let report = engine.run_to_completion(4).unwrap();
        // The step count is read off the report: idle ticks and busy steps
        // each record exactly one step at its own index.
        for (i, step) in report.steps.iter().enumerate() {
            assert_eq!(step.index, i);
        }
        let stats = report.requests[0];
        assert_eq!(stats.enqueued_at, 2);
        assert_eq!(stats.session().unwrap().queue_wait_steps, 0);
        assert_eq!(stats.session().unwrap().time_to_first_token_steps, 1);
    }

    #[test]
    fn event_stream_tracks_the_request_lifecycle() {
        let mut engine = ServingEngine::new(small_cfg(AccelMode::OutOfOrder));
        engine.enqueue(ServingRequest::new(7, 16, 2)).unwrap();
        let report = engine.run_to_completion(8).unwrap();
        let events = engine.drain_events();
        assert_eq!(
            events,
            vec![
                ServeEvent::Enqueued { id: 7, step: 0 },
                ServeEvent::Admitted {
                    id: 7,
                    step: 0,
                    context: 16,
                    cached_tokens: 0
                },
                ServeEvent::TokenGenerated {
                    id: 7,
                    step: 0,
                    context: 16,
                    generated: 1
                },
                ServeEvent::TokenGenerated {
                    id: 7,
                    step: 1,
                    context: 17,
                    generated: 2
                },
                ServeEvent::Finished {
                    id: 7,
                    step: 1,
                    generated: 2
                },
            ]
        );
        assert!(engine.drain_events().is_empty());
        assert_eq!(report.tokens_generated, 2);
    }

    #[test]
    fn priority_aging_admits_high_priority_first_and_ages_the_rest() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 1,
            max_batch_tokens: 100_000,
            page_size: 16,
            prefix_cache: false,
        };
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(PolicyKind::PriorityAging)
            .build();
        engine
            .enqueue(ServingRequest::new(0, 16, 2).with_priority(0))
            .unwrap();
        engine
            .enqueue(ServingRequest::new(1, 16, 2).with_priority(5))
            .unwrap();
        let report = engine.run_to_completion(16).unwrap();
        // Request 1 (higher priority) ran first despite arriving second.
        assert_eq!(report.requests[0].id, 1);
        assert_eq!(report.requests[1].id, 0);
    }

    #[test]
    fn shortest_job_first_prefers_fewer_remaining_tokens() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission.max_batch = 1;
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(PolicyKind::ShortestJobFirst)
            .build();
        engine.enqueue(ServingRequest::new(0, 16, 6)).unwrap();
        engine.enqueue(ServingRequest::new(1, 16, 1)).unwrap();
        let report = engine.run_to_completion(16).unwrap();
        assert_eq!(report.requests[0].id, 1);
    }

    #[test]
    fn fair_round_robin_balances_clients() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 2,
            max_batch_tokens: 100_000,
            page_size: 16,
            prefix_cache: false,
        };
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(PolicyKind::FairRoundRobin)
            .build();
        // Client 0 floods the queue; client 1 sends one request later.
        for id in 0..4 {
            engine
                .enqueue(ServingRequest::new(id, 16, 2).with_client(0))
                .unwrap();
        }
        engine
            .enqueue(ServingRequest::new(9, 16, 2).with_client(1))
            .unwrap();
        engine.step().unwrap().unwrap();
        // The first batch holds one request per client, not two of client 0.
        let admitted: Vec<u64> = engine
            .events()
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Admitted { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, vec![0, 9]);
    }

    #[test]
    fn fair_admission_rekeys_a_client_that_lost_a_slot_to_eviction() {
        // Clients 0 and 1 hold two slots each and every KV page. Client
        // 2's request goes first (no slots) and evicts client 0's long
        // request for its pages; client 0 then holds one slot to client
        // 1's two, so its request 5 is admitted before client 1's older
        // request 4 — which no pages are left for.
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 8,
            max_batch_tokens: 10 * 16,
            page_size: 16,
            prefix_cache: false,
        };
        cfg.preemption = PreemptionConfig::enabled();
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(PolicyKind::FairRoundRobin)
            .build();
        for (id, client, tokens) in [(0, 0, 40), (1, 0, 8), (2, 1, 8), (3, 1, 8)] {
            let r = ServingRequest::new(id, 16, tokens).with_client(client);
            engine.enqueue(r).unwrap();
        }
        assert_eq!(engine.step().unwrap().unwrap().batch, 4);
        for (id, client) in [(4, 1), (5, 0), (6, 2)] {
            let r = ServingRequest::new(id, 16, 1).with_client(client);
            engine.enqueue(r).unwrap();
        }
        engine.drain_events();
        engine.step().unwrap().unwrap();
        let events = engine.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::Preempted { id: 0, .. })));
        let admitted: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Admitted { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, [6, 5]);
    }

    #[test]
    fn preemption_evicts_and_charges_reprefill() {
        let mut cfg = small_cfg(AccelMode::OutOfOrder);
        cfg.admission = AdmissionConfig {
            max_batch: 1,
            max_batch_tokens: 100_000,
            page_size: 16,
            prefix_cache: false,
        };
        let mut engine = ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(PolicyKind::PriorityAging)
            .enable_preemption()
            .build();
        engine
            .enqueue(ServingRequest::new(0, 16, 6).with_priority(0))
            .unwrap();
        engine.step().unwrap().unwrap(); // request 0 occupies the only slot
        engine
            .enqueue(ServingRequest::new(1, 16, 1).with_priority(9))
            .unwrap();
        let report = engine.run_to_completion(32).unwrap();
        assert_eq!(report.preemptions, 1);
        // Request 1 finished before the preempted request 0.
        assert_eq!(report.requests[0].id, 1);
        let evicted = report.requests.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(evicted.preemptions, 1);
        assert_eq!(evicted.generated, 6, "kept its progress");
        assert!(evicted.reprefill_cycles > 0, "eviction is never free");
        let reprefill: u64 = report.steps.iter().map(|s| s.reprefill_cycles).sum();
        assert_eq!(reprefill, evicted.reprefill_cycles);
    }

    #[test]
    fn preemption_off_means_no_evictions_for_every_policy() {
        for kind in PolicyKind::all() {
            let cfg = small_cfg(AccelMode::OutOfOrder);
            let mut engine = ServingEngine::builder(cfg.accel.clone())
                .config(cfg)
                .policy(kind)
                .build();
            for r in mixed_requests(5) {
                engine.enqueue(r).unwrap();
            }
            let report = engine.run_to_completion(64).unwrap();
            assert_eq!(report.preemptions, 0, "{kind}");
            assert!(report.requests.iter().all(|r| r.preemptions == 0));
        }
    }

    #[test]
    fn all_policies_complete_the_mixed_workload() {
        for kind in PolicyKind::all() {
            let cfg = small_cfg(AccelMode::OutOfOrder);
            let mut engine = ServingEngine::builder(cfg.accel.clone())
                .config(cfg)
                .policy(kind)
                .enable_preemption()
                .build();
            for (i, mut r) in mixed_requests(8).into_iter().enumerate() {
                r.priority = (i % 4) as u8;
                r.client_id = (i % 3) as u64;
                engine.enqueue(r).unwrap();
            }
            let report = engine.run_to_completion(128).unwrap();
            assert_eq!(report.requests.len(), 8, "{kind}");
            assert_eq!(report.policy, kind.name());
        }
    }

    #[test]
    fn policy_kind_round_trips_through_names() {
        for kind in PolicyKind::all() {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("nope".parse::<PolicyKind>().is_err());
    }
}
