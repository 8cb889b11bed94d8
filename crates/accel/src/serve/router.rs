//! Request routing across the shards of a [`ClusterEngine`]: the
//! front-door brain that decides *which* engine a request lands on, the
//! same way [`PolicyKind`](super::PolicyKind) decides *when* it
//! runs once there. [`RoutingKind`] names a policy; the router it builds
//! holds the policy's state (round-robin's rotation, affinity's bindings)
//! and routes by `match` on the variant.
//!
//! [`ClusterEngine`]: super::ClusterEngine

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Snapshot of one shard's load, handed to the router per request.
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

/// A routing policy with its state: picks the shard a request is enqueued
/// on.
///
/// The cluster calls [`route`](Self::route) once per request, before the
/// request enters any shard's queue; the returned index is clamped to the
/// shard count, so a policy cannot route off the end of the cluster, only
/// route badly. Routing is the *only* placement decision a policy makes —
/// work stealing, when enabled, is the cluster's own deterministic
/// rebalancing and never consults the router.
#[derive(Debug, Clone)]
pub(crate) enum Router {
    /// Strict rotation: request `k` lands on shard `k % shards`, blind to
    /// load — the baseline every smarter policy is measured against, and
    /// (with one shard) the identity routing the cluster goldens pin.
    RoundRobin { next: usize },
    /// The shard with the smallest [`ShardView::load`], lowest shard id on
    /// ties so placement is deterministic.
    LeastLoaded,
    /// Requests whose prompts share a leading page land on one shard, so
    /// each shard's *independent* prefix cache sees every repeat of "its"
    /// prompts. The key is the first prompt-page hash (`page_keys[0]`):
    /// chained hashing makes two requests agree there exactly when the
    /// [`KvPager`](super::KvPager) could share a page between them. The
    /// first request of a prefix binds it to the then-least-loaded shard;
    /// later ones follow. Requests with no full prompt page go
    /// least-loaded.
    PrefixAffinity { bindings: BTreeMap<u64, usize> },
}

impl Router {
    /// Whether [`route`](Self::route) reads the request's prompt-page hash
    /// chain. Computing the chain walks the whole prompt, so the cluster
    /// only does it for a router that does.
    pub(crate) fn wants_page_keys(&self) -> bool {
        matches!(self, Self::PrefixAffinity { .. })
    }

    /// The shard a request should be enqueued on. `page_keys` is its
    /// position-chained prompt-page hash chain
    /// ([`ServingRequest::page_keys`](super::ServingRequest::page_keys))
    /// when [`wants_page_keys`](Self::wants_page_keys) is `true`, empty
    /// otherwise. `shards` is never empty and is indexed by `shard_id`.
    pub(crate) fn route(&mut self, page_keys: &[u64], shards: &[ShardView]) -> usize {
        let least_loaded = || {
            let least = shards.iter().min_by_key(|s| (s.load(), s.shard_id));
            least.map_or(0, |s| s.shard_id)
        };
        match self {
            Self::RoundRobin { next } => {
                let shard = *next % shards.len();
                *next = (*next + 1) % shards.len();
                shard
            }
            Self::LeastLoaded => least_loaded(),
            Self::PrefixAffinity { bindings } => match page_keys.first() {
                Some(&first) => *bindings.entry(first).or_insert_with(least_loaded),
                None => least_loaded(),
            },
        }
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
        match self {
            Self::RoundRobin => "round-robin",
            Self::LeastLoaded => "least-loaded",
            Self::PrefixAffinity => "prefix-affinity",
        }
    }

    /// The policy's router, in its initial state.
    #[must_use]
    pub(crate) fn build(self) -> Router {
        match self {
            Self::RoundRobin => Router::RoundRobin { next: 0 },
            Self::LeastLoaded => Router::LeastLoaded,
            Self::PrefixAffinity => Router::PrefixAffinity {
                bindings: BTreeMap::new(),
            },
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
        let mut rr = RoutingKind::RoundRobin.build();
        assert!(!rr.wants_page_keys());
        let shards = views(&[(0, 0), (0, 0), (0, 0)]);
        let picks: Vec<usize> = (0..5).map(|_| rr.route(&[], &shards)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_picks_min_load_lowest_id_first() {
        let mut ll = RoutingKind::LeastLoaded.build();
        assert!(!ll.wants_page_keys());
        assert_eq!(ll.route(&[], &views(&[(100, 0), (0, 40), (0, 90)])), 1);
        // Ties go to the lowest shard id.
        assert_eq!(ll.route(&[], &views(&[(50, 0), (0, 50), (0, 0)])), 2);
        assert_eq!(ll.route(&[], &views(&[(0, 0), (0, 0)])), 0);
    }

    #[test]
    fn prefix_affinity_binds_first_page_keys_to_shards() {
        let mut pa = RoutingKind::PrefixAffinity.build();
        assert!(pa.wants_page_keys());
        let shards = views(&[(80, 0), (0, 0)]);
        // First sight of a prefix binds it to the least-loaded shard...
        assert_eq!(pa.route(&[7, 8], &shards), 1);
        // ...and repeats follow the binding even once that shard is busy.
        let busy = views(&[(0, 0), (500, 500)]);
        assert_eq!(pa.route(&[7, 9], &busy), 1);
        // A different prefix binds independently; no keys falls back.
        assert_eq!(pa.route(&[42], &busy), 0);
        assert_eq!(pa.route(&[], &busy), 0);
    }

    #[test]
    fn routing_kind_round_trips_through_names() {
        for kind in RoutingKind::all() {
            assert_eq!(kind.name().parse::<RoutingKind>().unwrap(), kind);
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
