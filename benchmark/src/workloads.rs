//! The six workloads: what each one is, why it exists, its latency
//! limits, its seeded request stream and the engine it runs on.
//!
//! A stream is a pure function of `--seed`, and the engine's own
//! `cfg.seed` is set to the same number. Where a stream is small, its
//! sizes are *stratified*: every seed draws the same spread of prompt and
//! output lengths and only who gets which (and when) changes, so that the
//! amount of work does not swing with the seed while the schedule still
//! does. The open-loop workloads run under capacity, so that their tail
//! percentiles sit on the plateau of "no wait" instead of inside a queueing
//! tail, where a p99 is a whole number of steps and flips with the seed.

use topick_accel::serve::scenario::{AgenticToolLoops, Scenario};
use topick_accel::{
    AccelConfig, AccelMode, ClusterEngine, PolicyKind, PreemptionConfig, RetentionPolicy,
    RoutingKind, ServingConfig, ServingEngine, ServingRequest,
};
use topick_model::ModelSpec;

use crate::stats::{Fnv, Rng};

/// The accelerator every measured run uses: the paper's ToPick
/// configuration at threshold 1e-3.
pub fn topick_accel() -> AccelConfig {
    AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("1e-3 is a valid threshold")
}

/// Latency limits a request must meet for its tokens to count as goodput,
/// in modeled microseconds. Fixed per workload, never tuned per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    pub ttft_us: f64,
    pub itl_us: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LongDecode,
    PrefixChat,
    QueueDrain,
    ClusterAgentic,
    RealTokens,
    KernelSweep,
}

impl Workload {
    pub const ALL: [Self; 6] = [
        Self::LongDecode,
        Self::PrefixChat,
        Self::QueueDrain,
        Self::ClusterAgentic,
        Self::RealTokens,
        Self::KernelSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::LongDecode => "long-decode",
            Self::PrefixChat => "prefix-chat",
            Self::QueueDrain => "queue-drain",
            Self::ClusterAgentic => "cluster-agentic",
            Self::RealTokens => "real-tokens",
            Self::KernelSweep => "kernel-sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also the `why` in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Self::LongDecode => {
                "open loop, 12 unshared 1-2k-token prompts, one every 14 steps: per-token O(context) attention work dominates host time and the control plane cannot show"
            }
            Self::PrefixChat => {
                "open loop at 0.9 requests/step (capacity ~1.2), 600 requests sharing 8 tenant prefixes: prefix cache, copy-on-write, preemption and host swap all fire while queueing stays light"
            }
            Self::QueueDrain => {
                "offline batch of 6000 tiny requests all queued at step 0: the only shape where queue scans, policy picks and plain reserve/release are a large share of host time"
            }
            Self::ClusterAgentic => {
                "open loop under capacity, 96 agent sessions x 10 turns over 4 shards: the only workload through route, steal, ship, sweep and the scoped-thread barrier"
            }
            Self::RealTokens => {
                "28 shared-prefix requests decoded by a real toy transformer out of the paged KV store: the bypass for synthetic-instance gains and the guard for page-table work"
            }
            Self::KernelSweep => {
                "closed loop, one caller over 65 pre-built instances at contexts 256-4096: run_attention is the whole measured phase and instance generation is all set-up"
            }
        }
    }

    /// Load model in one phrase, printed with the results.
    pub fn load_model(self) -> &'static str {
        match self {
            Self::LongDecode => "open loop, one arrival every 14 steps",
            Self::PrefixChat => "open loop, 9 arrivals every 10 steps",
            Self::QueueDrain => "offline batch, everything arrives at step 0",
            Self::ClusterAgentic => "open loop, 4 sessions start every 10 steps, a turn every 6",
            Self::RealTokens => "open loop, 7 arrivals every 10 steps",
            Self::KernelSweep => "closed loop, 1 caller",
        }
    }

    pub fn limits(self) -> Limits {
        let (ttft_us, itl_us) = match self {
            Self::LongDecode => (1_200.0, 260.0),
            Self::PrefixChat | Self::RealTokens | Self::ClusterAgentic => (150.0, 100.0),
            Self::QueueDrain => (10_000.0, 60.0),
            Self::KernelSweep => (1.0, 1.0),
        };
        Limits { ttft_us, itl_us }
    }

    /// Upper bound on engine steps: about 50x what the workload takes at
    /// the commit that defined it. A run that hits it has failed (its
    /// unfinished requests count as failed operations), it has not hung.
    pub fn step_cap(self) -> usize {
        match self {
            Self::LongDecode => 10_000,
            Self::PrefixChat => 35_000,
            Self::QueueDrain => 20_000,
            Self::ClusterAgentic => 15_000,
            Self::RealTokens => 2_000,
            Self::KernelSweep => 0,
        }
    }
}

/// FNV-1a over every field of every generated request, in stream order.
pub fn stream_digest(requests: &[ServingRequest]) -> u64 {
    let mut h = Fnv::new();
    for r in requests {
        for v in [
            r.id,
            r.prompt_len as u64,
            r.max_new_tokens as u64,
            u64::from(r.priority),
            r.client_id,
            r.arrival_step,
            r.prefix_tag,
            r.prefix_len as u64,
            r.ttft_deadline.map_or(0, |d| d + 1),
            r.itl_deadline.map_or(0, |d| d + 1),
        ] {
            h.push(v);
        }
    }
    h.finish()
}

/// `n` values spread evenly over `lo..=hi`: stratum `k` of `n` yields one
/// value, jittered inside the stratum, and a seeded permutation decides
/// which request gets which stratum.
fn stratified(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = (hi - lo + 1) as u64;
    rng.permutation(n)
        .into_iter()
        .map(|k| {
            let start = span * k as u64 / n as u64;
            let end = (span * (k as u64 + 1) / n as u64).max(start + 1);
            lo + (start + rng.below(end - start)) as usize
        })
        .collect()
}

/// A small run drains for as long as its last arrival decodes, so who comes
/// last would set the step count (and with it modeled tokens/s) by several
/// percent. The last request therefore trades output lengths with the
/// longest of the final `window`: every seed ends on the same tail.
fn longest_output_last(requests: &mut [ServingRequest], window: usize) {
    let Some(last) = requests.len().checked_sub(1) else {
        return;
    };
    let from = requests.len().saturating_sub(window);
    let longest = (from..=last)
        .max_by_key(|&i| requests[i].max_new_tokens)
        .expect("the window holds the last request");
    let tokens = requests[longest].max_new_tokens;
    requests[longest].max_new_tokens = requests[last].max_new_tokens;
    requests[last].max_new_tokens = tokens;
}

/// Steps between two `long-decode` arrivals. A request lives at most 4
/// prefill + 40 decode steps, so at most four are ever in flight and
/// `max_batch` 4 never makes one wait: time to first token is the
/// request's own prefill, not its place in a queue of twelve.
pub const LONG_DECODE_ARRIVAL_EVERY: u64 = 14;

/// `long-decode`: 12 unshared requests, prompt 1024-2048, 24-40 new
/// tokens, one arrival every 14 steps.
pub fn long_decode_stream(seed: u64) -> Vec<ServingRequest> {
    const N: usize = 12;
    let mut rng = Rng::new(seed, 0x10D);
    let prompts = stratified(&mut rng, N, 1024, 2048);
    let outputs = stratified(&mut rng, N, 24, 40);
    let mut requests: Vec<ServingRequest> = (0..N)
        .map(|i| {
            ServingRequest::new(i as u64, prompts[i], outputs[i])
                .arriving_at(LONG_DECODE_ARRIVAL_EVERY * i as u64)
        })
        .collect();
    longest_output_last(&mut requests, N);
    requests
}

pub fn long_decode_engine(seed: u64, accel: AccelConfig) -> ServingEngine {
    ServingEngine::builder(accel)
        .policy(PolicyKind::Fifo)
        .heads(16)
        .weight_bytes(50_000_000)
        .max_batch(4)
        .max_batch_tokens(8800)
        .page_size(16)
        .prefill_factor(1.0)
        .prefill_chunk_pages(32)
        .seed(seed)
        .build()
}

/// The shared-prefix chat generator behind `prefix-chat` (600 requests,
/// 9 arrivals every 10 steps) and `real-tokens` (28 requests, 7 every 10
/// steps): 8 tenants with page-aligned 96-160-token system prompts, 8-63
/// private prompt tokens, 2-8 new tokens, priorities 0-3.
pub fn prefix_chat_stream(seed: u64, n: usize, arrivals_per_10_steps: u64) -> Vec<ServingRequest> {
    const TENANTS: usize = 8;
    let mut rng = Rng::new(seed, 0xC4A7);
    // Every seed sees the same multiset of system-prompt lengths.
    let prefix_lens: Vec<usize> = rng
        .permutation(TENANTS)
        .into_iter()
        .map(|k| 96 + 16 * (k % 5))
        .collect();
    let tags: Vec<u64> = (0..TENANTS).map(|_| rng.next()).collect();
    // Tenants, output lengths and priorities each take turns in a freshly
    // shuffled order per round (of 8, 7 and 4 requests), so every seed
    // carries the same demand at every point of the schedule and only the
    // fine interleaving changes.
    let mut rounds = [Vec::new(), Vec::new(), Vec::new()];
    let mut turn = |rng: &mut Rng, which: usize, len: usize, i: usize| {
        if i.is_multiple_of(len) {
            rounds[which] = rng.permutation(len);
        }
        rounds[which][i % len]
    };
    let mut requests: Vec<ServingRequest> = (0..n)
        .map(|i| {
            let tenant = turn(&mut rng, 0, TENANTS, i);
            let new_tokens = 2 + turn(&mut rng, 1, 7, i);
            let priority = turn(&mut rng, 2, 4, i) as u8;
            let prefix_len = prefix_lens[tenant];
            ServingRequest::new(i as u64, prefix_len + rng.range(8, 63), new_tokens)
                .with_priority(priority)
                .with_client(tenant as u64)
                .with_shared_prefix(tags[tenant], prefix_len)
                .arriving_at(i as u64 * 10 / arrivals_per_10_steps)
        })
        .collect();
    // Within the final round of output lengths, so the demand per round
    // stays what it was.
    longest_output_last(&mut requests, n.saturating_sub(1) % 7 + 1);
    requests
}

pub fn prefix_chat_engine(seed: u64, accel: AccelConfig) -> ServingEngine {
    ServingEngine::builder(accel)
        .policy(PolicyKind::PriorityAging)
        .enable_preemption()
        .retention(RetentionPolicy::Fraction(0.75))
        .prefix_cache(true)
        .host_pages(64)
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(6)
        .max_batch_tokens(1600)
        .page_size(16)
        .prefill_factor(1.0)
        .seed(seed)
        .build()
}

/// `queue-drain`: 6000 unshared requests all arriving at step 0, prompt
/// 16-32, 1-3 new tokens, 16 clients, priorities 0-7.
pub fn queue_drain_stream(seed: u64) -> Vec<ServingRequest> {
    let mut rng = Rng::new(seed, 0xD4A1);
    (0..6000u64)
        .map(|id| {
            ServingRequest::new(id, rng.range(16, 32), rng.range(1, 3))
                .with_priority(rng.below(8) as u8)
                .with_client(rng.below(16))
        })
        .collect()
}

pub fn queue_drain_engine(seed: u64, accel: AccelConfig) -> ServingEngine {
    ServingEngine::builder(accel)
        .policy(PolicyKind::ShortestJobFirst)
        .enable_preemption()
        .heads(4)
        .weight_bytes(10_000_000)
        .max_batch(32)
        .max_batch_tokens(1536)
        .page_size(16)
        .seed(seed)
        .build()
}

const AGENTIC: AgenticToolLoops = AgenticToolLoops {
    sessions: 96,
    turns: 10,
};

/// Steps between two groups of four `cluster-agentic` sessions starting.
/// A session lives 60 steps, so 24 are live at once and offer 4 requests
/// per step to four shards of six slots: under capacity at every seed. At
/// 8 steps a few requests per run wait and the 99th percentiles flip
/// between one step and two; at 3 (overload, 150 preemptions) they sit
/// inside the preemption tail and move 25 % with the seed.
pub const CLUSTER_SESSION_GROUP_EVERY: u64 = 10;

/// `cluster-agentic`: the repo's own `AgenticToolLoops` scenario at 96
/// sessions x 10 turns, session `s` delayed by `10 * (s / 4)` steps so the
/// sessions do not all start at once.
pub fn cluster_agentic_stream(seed: u64) -> Vec<ServingRequest> {
    AGENTIC
        .generate(seed)
        .into_iter()
        .map(|r| {
            let session = r.client_id;
            r.arriving_at(r.arrival_step + CLUSTER_SESSION_GROUP_EVERY * (session / 4))
        })
        .collect()
}

/// Worker threads of the cluster workload: 2 where the host has them.
pub fn cluster_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn cluster_agentic_config(seed: u64, accel: AccelConfig) -> ServingConfig {
    let mut cfg = AGENTIC.serving_config(accel);
    cfg.seed = seed;
    cfg.ship_cost_factor = 0.5;
    cfg.host_pages = 32;
    cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
    cfg
}

pub const CLUSTER_SHARDS: usize = 4;
pub const CLUSTER_POLICY: PolicyKind = PolicyKind::PriorityAging;
pub const CLUSTER_ROUTING: RoutingKind = RoutingKind::PrefixAffinity;

pub fn cluster_agentic_engine(seed: u64, accel: AccelConfig, threads: usize) -> ClusterEngine {
    let cfg = cluster_agentic_config(seed, accel);
    ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(CLUSTER_POLICY)
        .shards(CLUSTER_SHARDS)
        .routing(CLUSTER_ROUTING)
        .stealing(true)
        .threads(threads)
        .build()
}

/// Four rounds of output lengths: 140 tokens whatever the seed.
pub const REAL_TOKENS_REQUESTS: usize = 28;
/// `prefix-chat` offers 0.9 requests per step against a capacity near 1.2:
/// a few requests a run are preempted and swapped, yet fewer than 1 % wait
/// even one step, so the tail percentiles sit on a plateau instead of
/// flipping between k and k + 1 steps with the seed.
pub const PREFIX_CHAT_ARRIVALS_PER_10_STEPS: u64 = 9;
/// `real-tokens` stays well under capacity: its job is the host cost of
/// the mirror and byte-identical tokens, and with 28 requests a single
/// preemption would move its p99 (the maximum) by a whole step.
pub const REAL_TOKENS_ARRIVALS_PER_10_STEPS: u64 = 7;
pub const REAL_TOKENS_MODEL_SEED: u64 = 11;

/// The served model of `real-tokens`: toy-shaped, with a context window
/// long enough for a 160-token system prompt plus the private turn.
pub fn real_tokens_spec() -> ModelSpec {
    ModelSpec {
        max_context: 1024,
        ..ModelSpec::toy()
    }
}

/// Five contexts of thirteen instances each: the median call (rank 33 of
/// 65) is then the median of the 1024-token group. With four equal groups
/// it would be the slowest of a group, an extreme that moves 12 % with the
/// seed.
pub const KERNEL_CONTEXTS: [usize; 5] = [256, 512, 1024, 2048, 4096];
pub const KERNEL_SEEDS_PER_CONTEXT: usize = 13;
pub const KERNEL_ROUNDS: usize = 20;
pub const KERNEL_DIM: usize = 64;

/// `kernel-sweep`: the `(context, instance seed)` of every pool member,
/// context-major.
pub fn kernel_pool_spec(seed: u64) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed, 0x5EE9);
    KERNEL_CONTEXTS
        .iter()
        .flat_map(|&ctx| {
            (0..KERNEL_SEEDS_PER_CONTEXT)
                .map(|_| (ctx, rng.next()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The kernel pool's stream digest: FNV over its `(context, seed)` pairs.
pub fn kernel_pool_digest(spec: &[(usize, u64)]) -> u64 {
    let mut h = Fnv::new();
    for &(ctx, seed) in spec {
        h.push(ctx as u64);
        h.push(seed);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(seed: u64) -> Vec<u64> {
        vec![
            stream_digest(&long_decode_stream(seed)),
            stream_digest(&prefix_chat_stream(
                seed,
                600,
                PREFIX_CHAT_ARRIVALS_PER_10_STEPS,
            )),
            stream_digest(&queue_drain_stream(seed)),
            stream_digest(&cluster_agentic_stream(seed)),
            stream_digest(&prefix_chat_stream(
                seed,
                REAL_TOKENS_REQUESTS,
                REAL_TOKENS_ARRIVALS_PER_10_STEPS,
            )),
            kernel_pool_digest(&kernel_pool_spec(seed)),
        ]
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        assert_eq!(digests(1), digests(1));
        for (a, b) in digests(1).iter().zip(digests(2)) {
            assert_ne!(*a, b, "seed 2 must change every stream");
        }
    }

    #[test]
    fn streams_have_the_documented_shape() {
        let ld = long_decode_stream(3);
        assert_eq!(ld.len(), 12);
        assert!(ld.iter().all(|r| (1024..=2048).contains(&r.prompt_len)
            && (24..=40).contains(&r.max_new_tokens)
            && r.prefix_len == 0));
        assert_eq!(ld[11].arrival_step, 154);
        assert!(ld[11].max_new_tokens >= 39, "the longest output comes last");
        // Stratified: every seed spreads prompts over the whole range.
        let mut prompts: Vec<usize> = ld.iter().map(|r| r.prompt_len).collect();
        prompts.sort_unstable();
        assert!(prompts[0] < 1024 + 86 && prompts[11] > 2048 - 86);

        let pc = prefix_chat_stream(3, 600, PREFIX_CHAT_ARRIVALS_PER_10_STEPS);
        assert_eq!(pc.len(), 600);
        assert!(pc.iter().all(|r| r.prefix_len % 16 == 0
            && (96..=160).contains(&r.prefix_len)
            && (8..=63).contains(&(r.prompt_len - r.prefix_len))
            && (2..=8).contains(&r.max_new_tokens)
            && r.priority < 4
            && r.client_id < 8));
        assert_eq!(pc[599].arrival_step, 665);
        // 600 = 85 rounds of 7 output lengths + 5: the last of those five
        // asks for the most.
        let tail_max = pc[595..].iter().map(|r| r.max_new_tokens).max();
        assert_eq!(Some(pc[599].max_new_tokens), tail_max);

        let qd = queue_drain_stream(3);
        assert_eq!(qd.len(), 6000);
        assert!(qd.iter().all(|r| r.arrival_step == 0
            && (16..=32).contains(&r.prompt_len)
            && (1..=3).contains(&r.max_new_tokens)));

        let ca = cluster_agentic_stream(3);
        assert_eq!(ca.len(), 960);
        let mut ids: Vec<u64> = ca.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 960, "request ids must be unique");

        let pool = kernel_pool_spec(3);
        assert_eq!(pool.len(), 65);
        assert_eq!(pool.iter().filter(|(c, _)| *c == 4096).count(), 13);
    }
}
