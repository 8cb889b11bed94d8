//! Request routing across the shards of a [`ClusterEngine`]: the
//! front-door brain that decides *which* engine a request lands on, the
//! same way [`SchedulerPolicy`](super::SchedulerPolicy) decides *when* it
//! runs once there.
//!
//! [`ClusterEngine`]: super::ClusterEngine

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use super::queue::ServingRequest;

/// Snapshot of one shard's load, handed to routing policies per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardView {
    /// The shard's index in the cluster (stable for the cluster's life).
    pub(crate) shard_id: usize,
    /// Requests waiting in the shard's arrival queue.
    pub(crate) pending: usize,
    /// Requests currently decoding on the shard.
    pub(crate) running: usize,
    /// Final-context tokens of everything queued on the shard — the KV
    /// work admission has not placed yet.
    pub(crate) queued_tokens: usize,
    /// Tokens' worth of KV pages mapped by the shard's *running*
    /// requests. Retained pages of queued preemption victims are
    /// excluded — those owners already count toward
    /// [`queued_tokens`](Self::queued_tokens) at full final context, and
    /// billing their pages too would penalize exactly the shards where
    /// retention paid off.
    pub(crate) occupied_tokens: usize,
    /// Batch slots the shard still has free.
    pub(crate) free_slots: usize,
}

impl ShardView {
    /// The load metric the built-in policies compare shards by: queued
    /// tokens (backlog) plus occupied KV tokens (work already placed).
    #[must_use]
    pub(crate) fn load(&self) -> usize {
        self.queued_tokens + self.occupied_tokens
    }
}

/// A routing policy: picks the shard a request is enqueued on.
///
/// The cluster calls [`route`](Self::route) once per request, before the
/// request enters any shard's queue; the returned index is clamped to the
/// shard count, so a policy cannot route off the end of the cluster, only
/// route badly. Routing is the *only* placement decision a policy makes —
/// work stealing, when enabled, is the cluster's own deterministic
/// rebalancing and never consults the router.
///
/// Routers must be [`Send`] so an application can move a whole
/// [`ClusterEngine`](super::ClusterEngine) to another thread. Routing
/// itself always runs on the thread that calls
/// [`enqueue`](super::ClusterEngine::enqueue) — the router never crosses a
/// thread boundary mid-decision.
pub(crate) trait RoutingPolicy: fmt::Debug + Send {
    /// Stable, human-readable policy name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Whether [`route`](Self::route) wants the request's prompt-page hash
    /// chain. Computing the chain walks the whole prompt, so the cluster
    /// only does it for policies that return `true` here.
    fn wants_page_keys(&self) -> bool {
        false
    }

    /// The shard `req` should be enqueued on. `page_keys` is the request's
    /// position-chained prompt-page hash chain
    /// ([`ServingRequest::page_keys`]) when
    /// [`wants_page_keys`](Self::wants_page_keys) is `true`, empty
    /// otherwise. `shards` is never empty and is indexed by `shard_id`.
    fn route(&mut self, req: &ServingRequest, page_keys: &[u64], shards: &[ShardView]) -> usize;
}

/// Strict rotation: request `k` lands on shard `k % shards`. Ignores load
/// entirely — the baseline every smarter policy is measured against, and
/// (with one shard) the identity routing the cluster goldens pin.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundRobin {
    next: usize,
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _req: &ServingRequest, _keys: &[u64], shards: &[ShardView]) -> usize {
        let shard = self.next % shards.len();
        self.next = (self.next + 1) % shards.len();
        shard
    }
}

/// Least-loaded-first: route to the shard with the smallest
/// [`ShardView::load`] (queued tokens + occupied KV tokens), breaking ties
/// by the lowest shard id so placement is deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LeastLoaded;

impl LeastLoaded {
    /// The least-loaded shard, lowest id first among equals — shared with
    /// [`PrefixAffinity`]'s fallback so "least loaded" means one thing.
    pub(crate) fn pick(shards: &[ShardView]) -> usize {
        shards
            .iter()
            .min_by_key(|s| (s.load(), s.shard_id))
            .map_or(0, |s| s.shard_id)
    }
}

impl RoutingPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _req: &ServingRequest, _keys: &[u64], shards: &[ShardView]) -> usize {
        Self::pick(shards)
    }
}

/// Prefix-affinity routing: requests whose prompts share a leading page
/// land on the same shard, so each shard's *independent* prefix cache sees
/// every repeat of "its" prompts and the cluster recovers the sharing a
/// random split would destroy.
///
/// The routing key is the request's first prompt-page hash
/// (`page_keys[0]`): chained hashing makes two requests agree there
/// exactly when they share at least one full page of leading prompt
/// tokens — the same condition under which the
/// [`KvPager`](super::KvPager) could share pages between them. The first
/// request of a prefix binds it to the then-least-loaded shard; every
/// later request with that prefix follows. Requests with no full prompt
/// page fall back to least-loaded.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrefixAffinity {
    /// First-page hash → the shard its prefix is bound to.
    bindings: BTreeMap<u64, usize>,
}

impl RoutingPolicy for PrefixAffinity {
    fn name(&self) -> &'static str {
        "prefix-affinity"
    }

    fn wants_page_keys(&self) -> bool {
        true
    }

    fn route(&mut self, _req: &ServingRequest, keys: &[u64], shards: &[ShardView]) -> usize {
        let Some(&first) = keys.first() else {
            return LeastLoaded::pick(shards);
        };
        *self
            .bindings
            .entry(first)
            .or_insert_with(|| LeastLoaded::pick(shards))
    }
}

/// The built-in routing policies, nameable from CLI flags and bench
/// configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Strict rotation over the shards, blind to load.
    RoundRobin,
    /// The shard with the least queued plus occupied KV tokens.
    LeastLoaded,
    /// Requests sharing a first prompt page land on one shard, so its
    /// prefix cache sees every repeat; the rest go least-loaded.
    PrefixAffinity,
}

impl RoutingKind {
    /// Every built-in routing policy, in presentation order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::RoundRobin, Self::LeastLoaded, Self::PrefixAffinity]
    }

    /// The policy's stable name, as the CLI and the cluster report spell it.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.build().name()
    }

    /// Instantiates the policy with its defaults.
    #[must_use]
    pub(crate) fn build(self) -> Box<dyn RoutingPolicy> {
        match self {
            Self::RoundRobin => Box::new(RoundRobin::default()),
            Self::LeastLoaded => Box::new(LeastLoaded),
            Self::PrefixAffinity => Box::new(PrefixAffinity::default()),
        }
    }
}

impl fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RoutingKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(Self::RoundRobin),
            "least" | "least-loaded" => Ok(Self::LeastLoaded),
            "affinity" | "prefix-affinity" => Ok(Self::PrefixAffinity),
            other => Err(format!(
                "unknown routing '{other}' (expected rr | least | affinity)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(loads: &[(usize, usize)]) -> Vec<ShardView> {
        loads
            .iter()
            .enumerate()
            .map(|(shard_id, &(queued_tokens, occupied_tokens))| ShardView {
                shard_id,
                pending: usize::from(queued_tokens > 0),
                running: usize::from(occupied_tokens > 0),
                queued_tokens,
                occupied_tokens,
                free_slots: 1,
            })
            .collect()
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        let shards = views(&[(0, 0), (0, 0), (0, 0)]);
        let req = ServingRequest::new(0, 16, 1);
        let picks: Vec<usize> = (0..5).map(|_| rr.route(&req, &[], &shards)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_picks_min_load_lowest_id_first() {
        let mut ll = LeastLoaded;
        let req = ServingRequest::new(0, 16, 1);
        assert_eq!(
            ll.route(&req, &[], &views(&[(100, 0), (0, 40), (0, 90)])),
            1
        );
        // Ties go to the lowest shard id.
        assert_eq!(ll.route(&req, &[], &views(&[(50, 0), (0, 50), (0, 0)])), 2);
        assert_eq!(ll.route(&req, &[], &views(&[(0, 0), (0, 0)])), 0);
    }

    #[test]
    fn prefix_affinity_binds_first_page_keys_to_shards() {
        let mut pa = PrefixAffinity::default();
        assert!(pa.wants_page_keys());
        let req = ServingRequest::new(0, 32, 1);
        let shards = views(&[(80, 0), (0, 0)]);
        // First sight of a prefix binds it to the least-loaded shard...
        assert_eq!(pa.route(&req, &[7, 8], &shards), 1);
        // ...and repeats follow the binding even once that shard is busy.
        let busy = views(&[(0, 0), (500, 500)]);
        assert_eq!(pa.route(&req, &[7, 9], &busy), 1);
        // A different prefix binds independently; no keys falls back.
        assert_eq!(pa.route(&req, &[42], &busy), 0);
        assert_eq!(pa.route(&req, &[], &busy), 0);
    }

    #[test]
    fn routing_kind_round_trips_through_names() {
        for kind in RoutingKind::all() {
            assert_eq!(kind.name().parse::<RoutingKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("nope".parse::<RoutingKind>().is_err());
        assert_eq!("rr".parse::<RoutingKind>(), Ok(RoutingKind::RoundRobin));
        assert_eq!("least".parse::<RoutingKind>(), Ok(RoutingKind::LeastLoaded));
        assert_eq!(
            "affinity".parse::<RoutingKind>(),
            Ok(RoutingKind::PrefixAffinity)
        );
    }
}
