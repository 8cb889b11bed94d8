//! Multi-engine sharded serving: N independent [`ServingEngine`] shards
//! behind one admission front door.
//!
//! A [`ClusterEngine`] owns its shards outright — each shard is a complete
//! serving engine with its own scheduler, arrival queue, batch and
//! [`KvPager`](super::KvPager) — and adds exactly two cluster-level
//! decisions on top:
//!
//! 1. **Routing**: every [`enqueue`](ClusterEngine::enqueue) asks the
//!    configured router ([`RoutingKind`]) which shard the request lands
//!    on. Round-robin spreads blindly, least-loaded follows the backlog,
//!    and prefix affinity keys on the request's prompt-page hashes so
//!    requests sharing a prompt prefix land on the shard whose prefix
//!    cache already holds those pages — per-shard caches are independent,
//!    and affinity routing is what recovers the sharing a random split
//!    would destroy.
//! 2. **Work stealing** (optional): before each cluster step, queued
//!    requests that have *never run* migrate from the most-loaded shard to
//!    idle shards, with deterministic tie-breaking. With cross-shard page
//!    shipping priced
//!    ([`ship_cost_factor`](ServingConfig::ship_cost_factor) `> 0`),
//!    stealing may also migrate a *running* request to a fully idle shard
//!    when no queued work is movable: the donor releases the request's
//!    pages and its whole built context travels as shipped KV, re-priced
//!    on the receiver at the transfer cost instead of a re-prefill
//!    ([`ClusterEvent::Shipped`]). With shipping unpriced (the default),
//!    running requests never move and the schedule is unchanged.
//!
//! Shipping also serves routing: when prefix affinity (or any router)
//! lands a request on a shard whose cache misses its prompt prefix, the
//! front door pulls the shared full-prefix pages from the sibling shard
//! holding the longest resident run, at the same modeled transfer cost —
//! see [`enqueue`](ClusterEngine::enqueue).
//!
//! Shards step in **lockstep**: one cluster step steps every shard once
//! (idle shards record a zero-cycle tick so their clocks stay aligned),
//! and the cluster's cycle total is the *makespan* — the sum over cluster
//! steps of the busiest shard's cycles — because shards model engines
//! running in parallel, not serially.
//!
//! On the host a cluster step runs on the caller's thread, phase by phase
//! over all shards: every shard admits, the attention instances every
//! shard's slot loop is about to ask for are simulated as **one pool**
//! shared with the helper thread (`serve/lend.rs` — the one way this crate
//! uses a second core; [`LendingStats`] counts it), and every shard's slot
//! loop then finds its results. Shards share no state within a step, so
//! the order of phases cannot show in a schedule. Wall-clock time spent
//! stepping is accumulated alongside the modeled makespan and surfaces as
//! [`ClusterReport::wall_seconds`].

use std::sync::Mutex;

use super::error::ServeError;
use super::events::{wire_schema, EventSchema, ServeEvent, WireEvent, MAX_EVENT_FIELDS};
use super::lend::{self, Lender};
use super::policy::PolicyKind;
use super::queue::{PrefixChains, ServingRequest};
use super::router::{Router, RoutingKind, ShardView};
use super::stats::{RequestStats, ServingReport};
use super::{LendingStats, ServingConfig, ServingEngine};

use crate::config::AccelConfig;

/// One observable cluster-level event: a shard's own [`ServeEvent`] tagged
/// with the shard it happened on, or a work-steal migration between
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A shard recorded a serving event.
    Shard {
        /// The shard the event happened on.
        shard_id: usize,
        /// The event itself (steps are cluster steps — shards run in
        /// lockstep).
        event: ServeEvent,
    },
    /// Work stealing migrated a queued, never-admitted request between
    /// shards (it re-enqueues on `to`, so a second
    /// [`ServeEvent::Enqueued`] follows there).
    Stolen {
        /// The migrated request's id.
        id: u64,
        /// The shard it was queued on.
        from: usize,
        /// The shard it now queues on.
        to: usize,
        /// Cluster step of the migration.
        step: usize,
    },
    /// KV pages moved between shards at the modeled transfer cost
    /// ([`ship_cost_factor`](ServingConfig::ship_cost_factor)): a running
    /// request migrated with its whole built context, or shared
    /// full-prefix pages pulled at enqueue from the sibling whose cache
    /// holds them. The request pays the transfer on its first decode step
    /// on the receiving shard.
    Shipped {
        /// The request whose KV moved (or is being pulled for).
        id: u64,
        /// The shard the pages left.
        from: usize,
        /// The shard they landed on.
        to: usize,
        /// Cluster step of the transfer.
        step: usize,
        /// KV tokens' worth of pages shipped.
        tokens: usize,
    },
}

wire_schema! {
    ClusterEvent {
        Stolen { id, from, to, step } = (2, "stolen"),
        Shipped { id, from, to, step, tokens } = (3, "shipped"),
    }
    else {
        Self::Shard { shard_id, event } => WireEvent {
            shard: Some(shard_id),
            ..event.wire()
        },
    }
}

impl ClusterEvent {
    /// [`Shard`](Self::Shard)'s tag in the event digest; the shard id and
    /// the wrapped event's own tagged payload follow it.
    pub(crate) const SHARD_TAG: u64 = 1;

    /// The schema row whose `kind` string is `kind`, and whether it is a
    /// [`ServeEvent`] row (an event that happens on a shard).
    pub(crate) fn schema_of(kind: &str) -> Option<(&'static EventSchema, bool)> {
        let find = |rows: &'static [EventSchema]| rows.iter().find(|row| row.kind == kind);
        find(Self::SCHEMA)
            .map(|row| (row, false))
            .or_else(|| find(ServeEvent::SCHEMA).map(|row| (row, true)))
    }

    /// The event `wire` describes — the inverse of [`wire`](Self::wire);
    /// `None` if a payload value does not fit its field.
    pub(crate) fn from_wire(wire: &WireEvent) -> Option<Self> {
        match wire.shard {
            Some(shard_id) => Some(Self::Shard {
                shard_id,
                event: ServeEvent::from_flat(wire.schema, wire.payload())?,
            }),
            None => Self::from_flat(wire.schema, wire.payload()),
        }
    }
}

/// What one cluster step did, across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStepReport {
    /// Cluster step index (0-based; equals every shard's step index).
    pub index: usize,
    /// Requests decoded across all shards in this step.
    pub batch: usize,
    /// The busiest shard's cycles this step — the step's contribution to
    /// the cluster makespan, since shards run in parallel.
    pub critical_cycles: u64,
}

/// Outcome of a workload served across shards: every shard's own
/// [`ServingReport`] plus what no shard report holds — routing, steals,
/// ships, the makespan and the host's wall clock. Run-level aggregates
/// (throughput, goodput, hit rate, TTFT p99, ...) are read off the
/// [`pooled`](Self::pooled) report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Name of the routing policy that placed the requests.
    pub routing: String,
    /// Whether work stealing was enabled.
    pub stealing: bool,
    /// Queued-request migrations work stealing performed.
    pub steals: usize,
    /// Running-request migrations performed over priced page shipping
    /// (0 whenever [`ship_cost_factor`](ServingConfig::ship_cost_factor)
    /// leaves shipping unpriced).
    pub ships: usize,
    /// Cluster steps executed (shards run in lockstep, so this is also
    /// every shard's step count).
    pub cluster_steps: usize,
    /// Cluster makespan in cycles: the sum over cluster steps of the
    /// busiest shard's cycles, since shards run in parallel.
    pub total_cycles: u64,
    /// Measured wall-clock seconds spent inside
    /// [`step`](ClusterEngine::step) — the host-side cost of simulating
    /// the shards, reported next to the *modeled* cycle makespan so
    /// benches can show measured and modeled performance side by side.
    /// Unlike every other field, this varies run to run; schedule
    /// comparisons must ignore it.
    pub wall_seconds: f64,
    /// Per-shard serving reports, indexed by shard id.
    pub shards: Vec<ServingReport>,
}

impl ClusterReport {
    /// The shards' reports pooled into one [`ServingReport`], whose
    /// aggregates are the cluster's: counters summed, finished requests
    /// concatenated in shard order (so the TTFT p99 is taken over one
    /// pooled population), and the makespan as
    /// [`total_cycles`](ServingReport::total_cycles), so throughput and
    /// goodput are over the parallel run. A pooled step's cycles are the
    /// step's summed work across shards, not its critical path. A
    /// one-shard cluster's pooled report is the bare engine's report.
    #[must_use]
    pub fn pooled(&self) -> ServingReport {
        ServingReport::pool(&self.shards, self.total_cycles)
    }

    /// Finished requests across all shards, as `(shard_id, stats)`.
    pub fn requests(&self) -> impl Iterator<Item = (usize, &RequestStats)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(shard, s)| s.requests.iter().map(move |r| (shard, r)))
    }

    /// Load imbalance across shards: the busiest shard's total cycles over
    /// the mean shard's, `≥ 1.0` (1.0 = perfectly balanced; also 1.0 for a
    /// single shard or an idle cluster). Work stealing exists to push this
    /// toward 1.
    #[must_use]
    pub fn load_imbalance(&self) -> f64 {
        let max = self
            .shards
            .iter()
            .map(|s| s.total_cycles)
            .max()
            .unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let sum: u64 = self.shards.iter().map(|s| s.total_cycles).sum();
        max as f64 / (sum as f64 / self.shards.len() as f64)
    }
}

/// Step-by-step construction of a [`ClusterEngine`]: the per-shard serving
/// configuration and scheduler, plus the cluster-level knobs (shard count,
/// routing policy, work stealing). Per-shard options are the fields of the
/// [`ServingConfig`] passed to [`config`](Self::config) — the cluster
/// declares none of its own.
///
/// Every shard is built identically — same limits, same scheduler kind,
/// same workload seed — so a request costs the same cycles wherever it
/// lands, and routing/stealing choices change *placement*, never results.
///
/// # Examples
///
/// ```
/// use topick_accel::{
///     AccelConfig, AccelMode, ClusterEngine, RoutingKind, ServingConfig, ServingRequest,
/// };
///
/// let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
/// let mut cfg = ServingConfig::new(accel.clone());
/// cfg.heads = 2;
/// cfg.admission.max_batch = 2;
/// let mut cluster = ClusterEngine::builder(accel)
///     .config(cfg)
///     .shards(2)
///     .routing(RoutingKind::LeastLoaded)
///     .stealing(true)
///     .build();
/// for id in 0..4 {
///     cluster.enqueue(ServingRequest::new(id, 24, 2))?;
/// }
/// let report = cluster.run_to_completion(64)?;
/// assert_eq!(report.pooled().tokens_generated, 8);
/// assert_eq!(report.shards.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterEngineBuilder {
    cfg: ServingConfig,
    policy: PolicyKind,
    shards: usize,
    routing: RoutingKind,
    stealing: bool,
}

impl ClusterEngineBuilder {
    /// Starts from paper-flavoured defaults around an accelerator config:
    /// one shard, FIFO scheduling, round-robin routing, stealing off —
    /// the configuration whose schedule is bit-identical to a bare
    /// [`ServingEngine`].
    #[must_use]
    pub fn new(accel: AccelConfig) -> Self {
        Self {
            cfg: ServingConfig::new(accel),
            policy: PolicyKind::Fifo,
            shards: 1,
            routing: RoutingKind::RoundRobin,
            stealing: false,
        }
    }

    /// Replaces the whole per-shard serving configuration. Every shard
    /// shares it (workload seed included), so a request's attention cost
    /// is placement-independent.
    #[must_use]
    pub fn config(mut self, cfg: ServingConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the scheduling policy every shard runs.
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = kind;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Selects a built-in routing policy.
    #[must_use]
    pub fn routing(mut self, kind: RoutingKind) -> Self {
        self.routing = kind;
        self
    }

    /// Enables or disables work stealing between shards.
    #[must_use]
    pub fn stealing(mut self, stealing: bool) -> Self {
        self.stealing = stealing;
        self
    }

    /// Selects nothing: a cluster steps its shards on the caller's thread
    /// whatever `threads` says (see the [module docs](self)). The setter
    /// outlives the worker threads it once sized only because the frozen
    /// `benchmark/` package calls it, and goes when that package stops.
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Builds the cluster.
    #[must_use]
    pub fn build(self) -> ClusterEngine {
        let shards: Vec<ServingEngine> = (0..self.shards)
            .map(|_| ServingEngine::from_parts(self.cfg.clone(), self.policy))
            .collect();
        let pages = shards
            .iter()
            .map(|e| e.kv_pager().total_pages() + e.kv_pager().host_capacity())
            .sum();
        ClusterEngine {
            prefix_chains: PrefixChains::new(pages, self.cfg.admission.page_size),
            shards,
            router: self.routing.build(),
            routing: self.routing,
            stealing: self.stealing,
            steals: 0,
            ships: 0,
            total_cycles: 0,
            wall_nanos: 0,
            lending: LendingStats::default(),
            events: Vec::new(),
        }
    }
}

/// N independent serving engines behind one admission front door, with
/// request routing and optional work stealing between shards.
///
/// See the [module docs](self) for the model; see
/// [`ClusterEngineBuilder`] for construction.
#[derive(Debug)]
pub struct ClusterEngine {
    shards: Vec<ServingEngine>,
    router: Router,
    /// The policy `router` was built from; the report names it.
    routing: RoutingKind,
    stealing: bool,
    steals: usize,
    ships: usize,
    total_cycles: u64,
    wall_nanos: u64,
    lending: LendingStats,
    events: Vec<ClusterEvent>,
    /// Shared prompt prefixes' page keys, hashed once per tag; the keys
    /// routing reads are the ones the shard queues.
    prefix_chains: PrefixChains,
}

impl ClusterEngine {
    /// Starts a [`ClusterEngineBuilder`] around an accelerator config.
    #[must_use]
    pub fn builder(accel: AccelConfig) -> ClusterEngineBuilder {
        ClusterEngineBuilder::new(accel)
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How often the cluster's steps have used the second core for their
    /// attention instances: a cluster step pools every shard's instances
    /// once, so a pooled step is a cluster step.
    #[must_use]
    pub fn lending_stats(&self) -> LendingStats {
        self.lending
    }

    /// Shared access to shard `i` (panics if out of range) — per-shard
    /// observability, e.g. `cluster.shard(0).kv_pager().validate()`.
    #[must_use]
    pub fn shard(&self, i: usize) -> &ServingEngine {
        &self.shards[i]
    }

    /// The cluster step about to run: shard 0's, as every shard records
    /// one step per cluster step (an idle one an idle tick).
    fn step_index(&self) -> usize {
        self.shards[0].step_index()
    }

    /// Runs [`ServingEngine::validate`] on every shard.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn validate(&self) {
        self.shards.iter().for_each(ServingEngine::validate);
    }

    /// Whether cross-shard page shipping is active: a priced transfer
    /// (`ship_cost_factor > 0`) and more than one shard. Prefix pulling
    /// additionally needs a prefix cache to land pages in; running-request
    /// migration additionally needs stealing enabled.
    fn shipping_enabled(&self) -> bool {
        self.shards.len() > 1 && self.shards[0].config().ship_cost_factor > 0.0
    }

    /// Whether every shard has drained (nothing pending or running).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(ServingEngine::is_idle)
    }

    /// Requests waiting across all shards.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shards.iter().map(ServingEngine::pending).sum()
    }

    /// Requests decoding across all shards.
    #[must_use]
    pub fn running(&self) -> usize {
        self.shards.iter().map(ServingEngine::running).sum()
    }

    /// Cluster events recorded so far, in order: shard events are swept
    /// into the cluster log (tagged with their shard) after every enqueue
    /// and step, steal migrations as they happen.
    #[must_use]
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Removes and returns all recorded cluster events.
    pub fn drain_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    /// Load snapshots of every shard, indexed by shard id — what the
    /// routing policy (and work stealing) decide from. Occupied KV counts
    /// only *running* requests' pages: a queued preemption victim's
    /// retained pages must not bill its shard twice (its backlog already
    /// counts at full final context in `queued_tokens`).
    #[must_use]
    fn shard_views(&self) -> Vec<ShardView> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard_id, e)| ShardView {
                shard_id,
                pending: e.pending(),
                running: e.running(),
                queued_tokens: e.queued_tokens(),
                occupied_tokens: e.running_kv_tokens(),
                free_slots: e.config().admission.max_batch.saturating_sub(e.running()),
            })
            .collect()
    }

    /// Routes `req` to a shard and enqueues it there, returning the shard
    /// id the router chose.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] exactly as
    /// [`ServingEngine::enqueue`] would: zero shapes, or a request no
    /// shard could ever admit alone (shards are identically configured, so
    /// one shard's verdict is every shard's).
    pub fn enqueue(&mut self, req: ServingRequest) -> Result<usize, ServeError> {
        // Validate before consulting the router: a rejected request must
        // not advance routing state (round-robin's rotation, an affinity
        // binding) for work that never enters the cluster.
        self.shards[0].validate_request(&req)?;
        let admission = self.shards[0].config().admission;
        let wants_pull = self.shipping_enabled() && admission.prefix_cache;
        let wants_keys = self.router.wants_page_keys();
        // Hashed once: the shard queues these keys rather than hash again.
        let keys = if wants_keys || admission.prefix_cache {
            self.prefix_chains.page_keys(&req)
        } else {
            Vec::new()
        };
        let views = self.shard_views();
        let route_keys = if wants_keys { &keys[..] } else { &[] };
        let shard = self.router.route(route_keys, &views).min(
            self.shards.len() - 1, // a routing policy cannot route off the cluster
        );
        let pulled = if wants_pull {
            self.pull_prefix(shard, &keys)
        } else {
            None
        };
        let shipped = pulled.map_or(0, |(_, tokens)| tokens);
        self.shards[shard].enqueue_with_shipped(req, shipped, Some(keys))?;
        if let Some((donor, tokens)) = pulled {
            self.events.push(ClusterEvent::Shipped {
                id: req.id,
                from: donor,
                to: shard,
                step: self.step_index(),
                tokens,
            });
        }
        self.sweep_shard_events();
        Ok(shard)
    }

    /// Pulls the longest resident run of `keys` a sibling shard holds
    /// beyond what the landing shard already has, moving/copying the pages
    /// into the landing shard's prefix cache so admission can adopt them.
    /// Returns the donor and the tokens' worth of pages that actually
    /// landed (`None` on a local hit at least as long, no sibling hit, or
    /// a full free list). Deterministic: the donor is the sibling with the
    /// longest run, lowest shard id on ties.
    fn pull_prefix(&mut self, to: usize, keys: &[u64]) -> Option<(usize, usize)> {
        if keys.is_empty() {
            return None;
        }
        // `adoptable` with an unused owner counts the leading resident run
        // of the chain without touching any allocation state.
        const PROBE: u64 = u64::MAX;
        let own = self.shards[to].kv_pager().adoptable(PROBE, keys).0;
        let (donor, donor_run) = self
            .shards
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != to)
            .map(|(s, e)| (s, e.kv_pager().adoptable(PROBE, keys).0))
            .filter(|&(_, run)| run > own)
            .max_by_key(|&(s, run)| (run, std::cmp::Reverse(s)))?;
        debug_assert!(donor_run > own);
        // Only the suffix beyond the local run travels: re-shipping pages
        // the receiver already holds would evict the donor's cached copies
        // for nothing.
        let shipped = self.shards[donor].pager.export_prefix(&keys[own..]);
        let landed = self.shards[to].pager.import_prefix(&shipped);
        if landed == 0 {
            return None;
        }
        Some((donor, landed * self.shards[to].config().admission.page_size))
    }

    /// The between-barriers face of prefix pulling: a request enqueued
    /// before any sibling had *built* its prefix finds the pages only
    /// once they publish after the builder's prefill step, so every
    /// queued, never-admitted request re-probes the cluster each step
    /// until its prefix is local (then the local-run check makes further
    /// probes no-ops) or it admits. Deterministic — shards in index
    /// order, requests in arrival order, donor choice as
    /// [`pull_prefix`](Self::pull_prefix).
    fn pull_pending_prefixes(&mut self) {
        if !self.shards[0].config().admission.prefix_cache {
            return;
        }
        for to in 0..self.shards.len() {
            for (id, seq, keys) in self.shards[to].pull_candidates() {
                let Some((donor, tokens)) = self.pull_prefix(to, &keys) else {
                    continue;
                };
                self.shards[to].credit_shipped(seq, tokens);
                self.events.push(ClusterEvent::Shipped {
                    id,
                    from: donor,
                    to,
                    step: self.step_index(),
                    tokens,
                });
            }
        }
    }

    /// Migrates queued, never-admitted requests from the most-loaded shard
    /// to idle shards (no queue, free slots), one request per idle shard
    /// per step, youngest first, until no donor is meaningfully more
    /// loaded than any idle thief. Deterministic throughout: ties break by
    /// the lowest shard id, and the youngest queued request (largest
    /// arrival order) migrates — the one its own shard would have served
    /// last.
    fn steal(&mut self) {
        // A shard participates at most once per step (as thief or donor
        // once it has received): without this, a donor whose last queued
        // request was just stolen becomes the next thief and — at equal
        // occupied loads — the same request ping-pongs between two shards
        // forever within this call.
        let mut received = vec![false; self.shards.len()];
        loop {
            let views = self.shard_views();
            // A thief is a shard that would otherwise sit idle this step:
            // nothing queued and at least one free batch slot.
            let Some(thief) = views
                .iter()
                .filter(|v| v.pending == 0 && v.free_slots > 0 && !received[v.shard_id])
                .min_by_key(|v| (v.load(), v.shard_id))
                .map(|v| v.shard_id)
            else {
                break;
            };
            // A donor must have a migratable request AND keep work after
            // the steal — moving a lone request between two idle shards
            // rebalances nothing. Fresh recipients never donate back.
            let Some(donor) = views
                .iter()
                .filter(|v| {
                    v.shard_id != thief
                        && !received[v.shard_id]
                        && v.pending + v.running >= 2
                        && v.load() > views[thief].load()
                        && self.shards[v.shard_id].has_stealable_queued()
                })
                .max_by_key(|v| (v.load(), std::cmp::Reverse(v.shard_id)))
                .map(|v| v.shard_id)
            else {
                break;
            };
            received[thief] = true;
            let Some(req) = self.shards[donor].steal_youngest_unstarted() else {
                break;
            };
            self.shards[thief]
                .enqueue(req)
                .expect("a request one shard accepted fits any identically-configured shard");
            self.steals += 1;
            self.events.push(ClusterEvent::Stolen {
                id: req.id,
                from: donor,
                to: thief,
                step: self.step_index(),
            });
        }
        if self.shipping_enabled() {
            self.ship_running(&mut received);
        }
    }

    /// The priced escalation of work stealing: when a shard is *fully*
    /// idle (nothing queued, nothing running) and no donor has queued work
    /// to move cheaply, migrate the youngest fully-built *running* request
    /// from the most-loaded shard that can spare one. The donor frees its
    /// pages, the whole built context travels as shipped KV, and the
    /// receiver re-prices it at
    /// [`ship_cost_factor`](ServingConfig::ship_cost_factor) instead of a
    /// re-prefill. One migration per thief per step, each shard touched at
    /// most once — same determinism discipline as queued stealing.
    fn ship_running(&mut self, received: &mut [bool]) {
        loop {
            let views = self.shard_views();
            let Some(thief) = views
                .iter()
                .filter(|v| v.pending == 0 && v.running == 0 && !received[v.shard_id])
                .map(|v| v.shard_id)
                .min()
            else {
                break;
            };
            // A donor keeps decoding after the migration (≥ 2 running) and
            // has no queued request the cheap path could have moved.
            let Some(donor) = views
                .iter()
                .filter(|v| {
                    v.shard_id != thief
                        && !received[v.shard_id]
                        && v.running >= 2
                        && !self.shards[v.shard_id].has_stealable_queued()
                })
                .max_by_key(|v| (v.load(), std::cmp::Reverse(v.shard_id)))
                .map(|v| v.shard_id)
            else {
                break;
            };
            let Some(migrant) = self.shards[donor].ship_out_youngest_running() else {
                break;
            };
            received[thief] = true;
            // Donating a running request costs the donor a transfer; it
            // sits out the rest of this step's migrations.
            received[donor] = true;
            let (id, tokens) = (migrant.req.id, migrant.kv.shipped_tokens());
            self.shards[thief].receive_shipped(migrant);
            self.ships += 1;
            self.events.push(ClusterEvent::Shipped {
                id,
                from: donor,
                to: thief,
                step: self.step_index(),
                tokens,
            });
        }
    }

    /// Runs one cluster step: steals (when enabled), then steps every
    /// shard once in lockstep, phase by phase — every shard admits, the
    /// attention instances they are about to ask for are simulated as one
    /// pool, every shard runs its slot loop. Idle shards record a
    /// zero-cycle tick so all shard clocks stay equal to the cluster step
    /// index.
    ///
    /// Returns `Ok(None)` when every shard has drained.
    ///
    /// # Errors
    ///
    /// Propagates the failure ([`ServeError::Core`] or
    /// [`ServeError::AdmissionStalled`]) of the lowest-numbered failing
    /// shard; how far the other shards' steps got by then is unspecified.
    pub fn step(&mut self) -> Result<Option<ClusterStepReport>, ServeError> {
        self.step_lending_to(&lend::LENDER)
    }

    /// [`step`](Self::step), with the helper the cluster step's pool of
    /// attention instances may be shared with.
    fn step_lending_to(
        &mut self,
        lender: &Mutex<Lender>,
    ) -> Result<Option<ClusterStepReport>, ServeError> {
        if self.is_idle() {
            return Ok(None);
        }
        let start = std::time::Instant::now();
        let index = self.step_index();
        if self.stealing && self.shards.len() > 1 {
            self.steal();
        }
        if self.shipping_enabled() {
            self.pull_pending_prefixes();
        }
        self.shards.iter_mut().for_each(ServingEngine::begin_step);
        self.lending += lend::pool_attention(&mut self.shards, lender);
        let mut critical_cycles = 0u64;
        let mut batch = 0usize;
        for shard in &mut self.shards {
            match shard.finish_step()? {
                Some(r) => {
                    critical_cycles = critical_cycles.max(r.total_cycles());
                    batch += r.batch;
                }
                None => shard.idle_tick(),
            }
        }
        self.sweep_shard_events();
        self.wall_nanos = self
            .wall_nanos
            .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let report = ClusterStepReport {
            index,
            batch,
            critical_cycles,
        };
        self.total_cycles += critical_cycles;
        Ok(Some(report))
    }

    /// Drives the cluster until every shard drains, bounded by
    /// `max_steps`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StepLimitExceeded`] if work remains after
    /// `max_steps`, or propagates shard failures.
    pub fn run_to_completion(&mut self, max_steps: usize) -> Result<ClusterReport, ServeError> {
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
            unfinished: self.pending() + self.running(),
        })
    }

    /// The cluster report accumulated so far (complete once idle).
    #[must_use]
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            routing: self.routing.name().to_string(),
            stealing: self.stealing,
            steals: self.steals,
            ships: self.ships,
            cluster_steps: self.step_index(),
            total_cycles: self.total_cycles,
            wall_seconds: self.wall_nanos as f64 / 1e9,
            shards: self.shards.iter().map(ServingEngine::report).collect(),
        }
    }

    /// Pulls every shard's freshly recorded events into the cluster log,
    /// tagged with their shard, in shard order.
    fn sweep_shard_events(&mut self) {
        for (shard_id, shard) in self.shards.iter_mut().enumerate() {
            for event in shard.drain_events() {
                self.events.push(ClusterEvent::Shard { shard_id, event });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::policy::{PreemptionConfig, RetentionPolicy};
    use super::super::queue::tokens_hashed_by;
    use super::*;
    use crate::config::AccelMode;

    fn small_cfg() -> ServingConfig {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
        let mut cfg = ServingConfig::new(accel);
        cfg.heads = 2;
        cfg.weight_bytes = 1_000_000;
        cfg.admission.max_batch = 2;
        cfg.admission.max_batch_tokens = 640;
        cfg
    }

    fn builder_for(cfg: ServingConfig) -> ClusterEngineBuilder {
        ClusterEngine::builder(cfg.accel.clone()).config(cfg)
    }

    fn small_builder() -> ClusterEngineBuilder {
        builder_for(small_cfg())
    }

    impl ClusterEngine {
        /// Enqueues `req` on `shard`, past the router: how a test places
        /// work where no routing policy would. With the prefix cache off
        /// there is no page to pull, so this is all the front door does.
        fn enqueue_on(&mut self, shard: usize, req: ServingRequest) {
            assert!(!self.shards[shard].config().admission.prefix_cache);
            self.shards[shard].enqueue(req).expect("valid request");
            self.sweep_shard_events();
        }
    }

    /// A cluster request's prompt is hashed once, by the front door: the
    /// shard queues the keys routing and pulling read.
    #[test]
    fn a_cluster_enqueue_hashes_its_prompt_once() {
        let mut cfg = small_cfg();
        cfg.admission.prefix_cache = true;
        cfg.ship_cost_factor = 0.25;
        let mut cluster = builder_for(cfg)
            .shards(2)
            .routing(RoutingKind::PrefixAffinity)
            .build();
        let req = ServingRequest::new(1, 100, 4);
        let hashed = tokens_hashed_by(|| cluster.enqueue(req).expect("valid request"));
        assert_eq!(hashed, 100 / 16 * 16);
    }

    #[test]
    fn round_robin_spreads_requests_across_shards() {
        let mut cluster = small_builder().shards(3).build();
        let routed: Vec<usize> = (0..6)
            .map(|id| cluster.enqueue(ServingRequest::new(id, 16, 1)).unwrap())
            .collect();
        assert_eq!(routed, vec![0, 1, 2, 0, 1, 2]);
        let report = cluster.run_to_completion(16).unwrap();
        assert_eq!(report.pooled().tokens_generated, 6);
        for shard in &report.shards {
            assert_eq!(shard.requests.len(), 2);
        }
    }

    #[test]
    fn the_report_names_the_routing_policy() {
        for kind in RoutingKind::all() {
            let cluster = small_builder().shards(2).routing(kind).build();
            assert_eq!(cluster.report().routing, kind.name());
        }
    }

    #[test]
    fn least_loaded_follows_the_backlog() {
        let mut cluster = small_builder()
            .shards(2)
            .routing(RoutingKind::LeastLoaded)
            .build();
        // A heavy request loads shard 0; the next requests avoid it until
        // its backlog outweighs theirs.
        assert_eq!(cluster.enqueue(ServingRequest::new(0, 256, 8)).unwrap(), 0);
        assert_eq!(cluster.enqueue(ServingRequest::new(1, 16, 1)).unwrap(), 1);
        assert_eq!(cluster.enqueue(ServingRequest::new(2, 16, 1)).unwrap(), 1);
        let report = cluster.run_to_completion(64).unwrap();
        assert_eq!(report.pooled().tokens_generated, 10);
    }

    #[test]
    fn shard_clocks_stay_in_lockstep() {
        let mut cluster = small_builder().shards(2).build();
        // Only shard 0 gets work; shard 1 must tick along idle.
        cluster.enqueue(ServingRequest::new(0, 16, 3)).unwrap();
        while cluster.step().unwrap().is_some() {}
        let report = cluster.report();
        assert_eq!(report.cluster_steps, 3);
        assert_eq!(report.shards[0].steps.len(), 3);
        assert_eq!(report.shards[1].steps.len(), 3, "idle shard fell behind");
        for shard in &report.shards {
            assert_eq!(report.cluster_steps, shard.steps.len());
            for (i, step) in shard.steps.iter().enumerate() {
                assert_eq!(step.index, i, "a shard's step index is its step count");
            }
        }
        assert!(report.shards[1].steps.iter().all(|s| s.total_cycles() == 0));
        // Makespan equals the busy shard's cycles; imbalance is maximal.
        assert_eq!(report.total_cycles, report.shards[0].total_cycles);
        assert!((report.load_imbalance() - 2.0).abs() < 1e-9);
        assert!(report.wall_seconds > 0.0, "stepping took no measured time");
    }

    #[test]
    fn stealing_moves_queued_work_to_idle_shards() {
        // Skewing everything onto shard 0 leaves shard 1 idle; stealing
        // must migrate queued work over.
        let mut cluster = small_builder().shards(2).stealing(true).build();
        for id in 0..6 {
            cluster.enqueue_on(0, ServingRequest::new(id, 32, 2));
        }
        let report = cluster.run_to_completion(64).unwrap();
        assert!(report.steals > 0, "no work was stolen");
        assert!(
            !report.shards[1].requests.is_empty(),
            "the idle shard never got work"
        );
        assert_eq!(report.pooled().tokens_generated, 12);
        // Steal events and finish locations agree.
        let stolen: Vec<u64> = cluster
            .events()
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::Stolen {
                    id, from: 0, to: 1, ..
                } => Some(*id),
                _ => None,
            })
            .collect();
        for id in &stolen {
            assert!(report.shards[1].requests.iter().any(|r| r.id == *id));
        }
    }

    #[test]
    fn stealing_never_migrates_admitted_requests() {
        let mut cfg = small_cfg();
        cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
        let mut cluster = builder_for(cfg).shards(2).stealing(true).build();
        for id in 0..8 {
            cluster
                .enqueue(ServingRequest::new(id, 48, 3).with_priority((id % 3) as u8))
                .unwrap();
        }
        let report = cluster.run_to_completion(128).unwrap();
        // Every TokenGenerated event of a request comes from one shard.
        let mut shard_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for e in cluster.events() {
            if let ClusterEvent::Shard {
                shard_id,
                event: ServeEvent::TokenGenerated { id, .. },
            } = e
            {
                let prev = shard_of.insert(*id, *shard_id);
                assert!(
                    prev.is_none() || prev == Some(*shard_id),
                    "request {id} decoded on two shards"
                );
            }
        }
        assert_eq!(report.pooled().tokens_generated, 8 * 3);
    }

    #[test]
    fn single_shard_cluster_never_steals_and_matches_engine_counts() {
        let mut cluster = small_builder().stealing(true).build();
        for id in 0..4 {
            assert_eq!(cluster.enqueue(ServingRequest::new(id, 24, 2)).unwrap(), 0);
        }
        let report = cluster.run_to_completion(32).unwrap();
        assert_eq!(report.steals, 0);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.total_cycles, report.shards[0].total_cycles);
        assert_eq!(report.cluster_steps, report.shards[0].steps.len());
        assert!((report.load_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn everything_a_worker_thread_touches_is_send() {
        // The compile-time contract with applications: an engine or a
        // whole cluster may be moved to, and driven from, another thread
        // (`lend`'s `threaded_engines_sharing_the_step_helper_…` does), so
        // both — and everything they own transitively, pager and running
        // requests included — must be `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<ServingEngine>();
        assert_send::<ClusterEngine>();
        assert_send::<super::super::KvPager>();
    }

    type Run = (Result<ClusterReport, ServeError>, Vec<ClusterEvent>);

    /// Drives `cluster` to completion through `lender`: its report, less
    /// the measured wall clock, and its events.
    fn run(cluster: &mut ClusterEngine, lender: &Mutex<Lender>) -> Run {
        run_watching(cluster, lender, |_| {})
    }

    /// [`run`], handing the cluster to `watch` before every step.
    fn run_watching(
        cluster: &mut ClusterEngine,
        lender: &Mutex<Lender>,
        mut watch: impl FnMut(&ClusterEngine),
    ) -> Run {
        let result = loop {
            watch(cluster);
            match cluster.step_lending_to(lender) {
                Ok(Some(_)) => {}
                Ok(None) => break Ok(cluster.report()),
                Err(e) => break Err(e),
            }
        };
        let result = result.map(|report| ClusterReport {
            wall_seconds: 0.0,
            ..report
        });
        (result, cluster.drain_events())
    }

    fn simulations(cluster: &ClusterEngine) -> usize {
        cluster.shards.iter().map(|s| s.simulations).sum()
    }

    /// Four shards with one running request of about 100 tokens each: no
    /// shard has two instances to share, the cluster step has four holding
    /// 4 × 100 × 64 = 25 600 elements — a pool that exists only across
    /// shards.
    fn one_request_a_shard() -> ClusterEngine {
        let mut cluster = small_builder().shards(4).build();
        for id in 0..4usize {
            let request = ServingRequest::new(id as u64, 96 + 4 * id, 6);
            assert_eq!(cluster.enqueue(request).unwrap(), id);
        }
        cluster
    }

    #[test]
    fn a_pool_that_only_exists_across_shards_equals_its_serial_twin() {
        let (mut pooled, mut serial) = (one_request_a_shard(), one_request_a_shard());
        let pooled_run = run(&mut pooled, &Lender::private());
        assert_eq!(pooled_run, run(&mut serial, &Lender::absent()));
        let tokens = pooled_run.0.expect("completes").pooled().tokens_generated;
        let stats = pooled.lending_stats();
        assert!(stats.pooled_steps > 0 && stats.lent_instances >= stats.pooled_steps);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(serial.lending_stats().pooled_steps, 0);
        // The cluster owns the pool, so it does the counting.
        let counted_by_shards = |c: &ClusterEngine| {
            c.shards
                .iter()
                .any(|s| s.lending != LendingStats::default())
        };
        assert!(!counted_by_shards(&pooled) && !counted_by_shards(&serial));
        // One simulation per token, whichever thread ran it.
        assert_eq!(
            (simulations(&pooled), simulations(&serial)),
            (tokens, tokens)
        );
    }

    #[test]
    fn a_cluster_step_without_a_helper_leaves_every_shard_its_own_share() {
        let mut serial = one_request_a_shard();
        let serial_run = run(&mut serial, &Lender::absent());
        let tokens = serial_run
            .0
            .as_ref()
            .expect("completes")
            .pooled()
            .tokens_generated;
        // A helper that panics on its first job, and one another owner
        // holds for the whole run (`lock` would deadlock; `try_lock` falls
        // through at once).
        let panicking = Lender::with_helper(|_| panic!("helper down (expected by this test)"));
        let held = Lender::private();
        let holder = held.lock().unwrap();
        for lender in [&panicking, &held] {
            let mut degraded = one_request_a_shard();
            assert_eq!(run(&mut degraded, lender), serial_run);
            let stats = degraded.lending_stats();
            assert_eq!((stats.pooled_steps, stats.lent_instances), (0, 0));
            assert!(stats.fallbacks > 1);
            assert_eq!(simulations(&degraded), tokens);
        }
        drop(holder);
    }

    #[test]
    fn a_pooled_cluster_run_equals_its_serial_twin() {
        // One cluster, not two paths: a run whose steps hand part of every
        // pool to a helper thread against a run with no helper to hand to.
        // Shared prefixes, chunked priced prefill, preemption with paged
        // retention, a host tier, stealing and priced shipping cover every
        // way a kept step is made, carried and dropped: pooled ahead of its
        // slot, shared by a prompt's chunks, parked on a preempted request,
        // moved to another shard, and re-used or outgrown on re-admission.
        // Long documents ride among the chats, so pools also hold several
        // instances that are each past the pool's floor (16 384 elements:
        // 256 tokens at dim 64) on their own.
        use super::super::scenario::{Scenario, SharedPrefixChat};
        let scenario = SharedPrefixChat {
            tenants: 6,
            per_tenant: 8,
        };
        let cluster = || {
            let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("thr");
            let mut cfg = scenario.serving_config(accel);
            cfg.admission.max_batch = 8;
            cfg.admission.max_batch_tokens = 1280;
            cfg.prefill_chunk_pages = 8;
            cfg.preemption =
                PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
            cfg.host_pages = 256;
            cfg.ship_cost_factor = 0.25;
            let mut cluster = builder_for(cfg)
                .policy(PolicyKind::PriorityAging)
                .shards(2)
                .routing(RoutingKind::LeastLoaded)
                .stealing(true)
                .build();
            let documents = (0..6u64).map(|i| {
                ServingRequest::new(9_000 + i, 272 + 16 * (i as usize % 4), 10)
                    .with_priority(i as u8 % 2)
                    .arriving_at(i / 2)
            });
            for r in scenario.generate(23).into_iter().chain(documents) {
                cluster.enqueue(r).expect("valid request");
            }
            cluster
        };
        let (mut pooled, mut serial) = (cluster(), cluster());
        let (pooled_report, pooled_events) = run(&mut pooled, &Lender::private());
        let (serial_report, serial_events) = run(&mut serial, &Lender::absent());
        pooled.validate();
        let (report, serial_report) = (pooled_report.unwrap(), serial_report.unwrap());
        assert_eq!(report, serial_report, "reports, prune statistics included");
        assert_eq!(pooled_events, serial_events, "event streams");
        // The run went through what it claims to cover...
        let all = report.pooled();
        assert!(all.preemptions > 0, "no preemption");
        assert!(all.total_swap_cycles() > 0, "no host swap");
        assert!(all.total_prefix_hit_tokens() > 0, "no shared prefix");
        assert!(report.steals > 0, "no steal");
        assert!(all.total_ship_cycles() > 0, "no shipped pages");
        let saw = |wanted: fn(&ServeEvent) -> bool| {
            pooled_events
                .iter()
                .any(|e| matches!(e, ClusterEvent::Shard { event, .. } if wanted(event)))
        };
        assert!(
            saw(|e| matches!(e, ServeEvent::PrefillChunk { .. })),
            "no chunked prefill"
        );
        let mut large_decodes = std::collections::BTreeMap::new();
        for e in &pooled_events {
            if let ClusterEvent::Shard {
                event: ServeEvent::TokenGenerated { step, context, .. },
                ..
            } = e
            {
                if context * 64 >= 16 * 1024 {
                    *large_decodes.entry(*step).or_insert(0) += 1;
                }
            }
        }
        assert!(
            large_decodes.values().any(|&n| n >= 2),
            "no step decoded two documents"
        );
        // ...and the two sides differ in exactly what is being compared.
        let (lent, not_lent) = (pooled.lending_stats(), serial.lending_stats());
        assert!(lent.pooled_steps > 0 && lent.lent_instances >= lent.pooled_steps);
        assert_eq!(lent.fallbacks, 0);
        assert_eq!((not_lent.pooled_steps, not_lent.lent_instances), (0, 0));
        // Not one fallback per lent step: a lent step's next decode, taken
        // along to even out its pool, leaves the next step's pool smaller
        // than the serial twin's.
        assert!(not_lent.fallbacks > 0);
        assert_eq!(simulations(&pooled), simulations(&serial));
    }

    #[test]
    fn a_request_shipped_holding_its_next_decode_uses_it_on_the_receiving_shard() {
        // Two long requests on shard 0 and a short one on shard 1 make odd
        // pools of three, each taking along the next decode of request 1,
        // the largest. When shard 1 drains, priced shipping moves shard 0's
        // youngest running request, request 1, across, with its kept step.
        let cluster = || {
            let mut cfg = small_cfg();
            cfg.ship_cost_factor = 0.25;
            let mut cluster = builder_for(cfg).shards(2).stealing(true).build();
            for (shard, id, prompt, tokens) in [(0, 0, 280, 20), (0, 1, 300, 20), (1, 2, 290, 3)] {
                cluster.enqueue_on(shard, ServingRequest::new(id, prompt, tokens));
            }
            cluster
        };
        let (mut pooled, mut serial) = (cluster(), cluster());
        // `(step, id)` of each running request holding the step at its
        // context when the cluster step began.
        let mut holding = Vec::new();
        let pooled_run = run_watching(&mut pooled, &Lender::private(), |cluster| {
            let running = cluster.shards.iter().flat_map(|s| &s.running);
            holding.extend(
                running
                    .filter(|r| r.kept_attention.holds(r.context()))
                    .map(|r| (cluster.step_index(), r.req.id)),
            );
        });
        assert_eq!(pooled_run, run(&mut serial, &Lender::absent()));
        let shipped_holding = pooled_run.1.iter().any(|e| {
            matches!(e, ClusterEvent::Shipped { id, step, .. } if holding.contains(&(*step, *id)))
        });
        assert!(shipped_holding, "no request was shipped holding a step");
        let report = pooled_run.0.expect("completes");
        assert_eq!(report.ships, 1);
        // One simulation per token, whichever shard used it.
        let tokens = report.pooled().tokens_generated;
        assert_eq!(
            (simulations(&pooled), simulations(&serial)),
            (tokens, tokens)
        );
    }

    #[test]
    fn oversized_requests_are_rejected_at_the_front_door() {
        let mut cluster = small_builder().shards(2).build();
        let err = cluster
            .enqueue(ServingRequest::new(0, 10_000, 1))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
        assert!(cluster.is_idle());
    }

    /// A finished-request record with the given TTFT in steps and every
    /// other field inert, for synthesizing reports with known samples.
    fn request_with_ttft(id: u64, ttft_steps: usize) -> RequestStats {
        RequestStats {
            generated: 1,
            admitted_at: Some(0),
            first_token_at: Some(ttft_steps - 1),
            finished_at: Some(ttft_steps - 1),
            good_tokens: 1,
            ..RequestStats::queued(&ServingRequest::new(id, 16, 1), 0)
        }
    }

    fn shard_with_ttfts(ttfts: &[usize]) -> ServingReport {
        let mut shard = ServingEngine::new(small_cfg()).report();
        shard.requests = ttfts
            .iter()
            .enumerate()
            .map(|(i, &t)| request_with_ttft(i as u64, t))
            .collect();
        shard
    }

    #[test]
    fn cluster_ttft_p99_pools_samples_instead_of_aggregating_shard_p99s() {
        // 98 one-step TTFTs on shard 0, {500, 1000} on shard 1: the pooled
        // population is 100 samples, nearest-rank p99 = ceil(100 × 0.99)
        // = rank 99 = the 99th sorted sample = 500. Any per-shard
        // aggregation gets this wrong: shard 0's own p99 is 98, shard 1's
        // is 1000, so max reports 1000 and the mean 549.
        let p99 = |shards: Vec<ServingReport>| ServingReport::pool(&shards, 0).ttft_p99_steps();
        let many = shard_with_ttfts(&(1..=98).collect::<Vec<_>>());
        let few = shard_with_ttfts(&[500, 1000]);
        assert_eq!(many.ttft_p99_steps(), 98);
        assert_eq!(few.ttft_p99_steps(), 1000);
        assert_eq!(p99(vec![many, few]), 500);

        // Degenerate populations: a single sample is its own p99; no
        // samples at all report 0.
        assert_eq!(p99(vec![shard_with_ttfts(&[7]), shard_with_ttfts(&[])]), 7);
        assert_eq!(p99(vec![shard_with_ttfts(&[])]), 0);
    }

    #[test]
    fn priced_shipping_migrates_a_running_request_to_an_idle_shard() {
        // Two long requests run on shard 0 while shard 1 burns down one
        // short one. When shard 1 drains, shard 0 has *nothing queued* —
        // the shape queue-only stealing cannot fix. With shipping priced,
        // the cluster must move one admitted request across, charge
        // ship cycles for the move, and still deliver every token.
        let run = |ship: f64| {
            let mut cfg = small_cfg();
            cfg.ship_cost_factor = ship;
            let mut cluster = builder_for(cfg).shards(2).stealing(true).build();
            cluster.enqueue_on(0, ServingRequest::new(0, 64, 20));
            cluster.enqueue_on(0, ServingRequest::new(1, 64, 20));
            cluster.enqueue_on(1, ServingRequest::new(2, 64, 2));
            let report = cluster.run_to_completion(128).unwrap();
            let shipped: Vec<u64> = cluster
                .events()
                .iter()
                .filter_map(|e| match e {
                    ClusterEvent::Shipped { id, from, to, .. } => {
                        assert_eq!((*from, *to), (0, 1), "only shard 1 goes idle");
                        Some(*id)
                    }
                    _ => None,
                })
                .collect();
            (report, shipped)
        };

        let (unpriced, no_ships) = run(0.0);
        assert_eq!(unpriced.ships, 0, "unpriced shipping must stay off");
        assert!(no_ships.is_empty());
        assert_eq!(unpriced.steals, 0, "nothing was ever queued to steal");
        assert_eq!(
            unpriced.shards[1].requests.len(),
            1,
            "without shipping the drained shard keeps only its own request"
        );

        let (priced, shipped) = run(0.25);
        assert_eq!(priced.ships, 1, "exactly one resident moves");
        assert_eq!(priced.steals, 0, "the migration is a ship, not a steal");
        assert_eq!(shipped.len(), 1);
        assert_eq!(
            priced.pooled().tokens_generated,
            unpriced.pooled().tokens_generated,
            "shipping changes placement, not the work done"
        );
        // The migrated request finishes on the receiving shard and pays a
        // transfer bill there.
        let migrant = shipped[0];
        assert!(
            priced.pooled().total_ship_cycles() > 0,
            "the move must be priced"
        );
        let moved = priced.shards[1]
            .requests
            .iter()
            .find(|r| r.id == migrant)
            .expect("the migrant finishes on the receiving shard");
        assert!(moved.shipped_tokens > 0);
        assert!(moved.ship_cycles > 0);
    }
}
