//! Production-shaped workload scenarios: deterministic, seed-derived
//! open-loop request streams behind one [`Scenario`] abstraction, so
//! benches, tests and the CLI draw from a shared library instead of
//! hand-rolled generators.
//!
//! A scenario owns two things: the *request stream* ([`Scenario::generate`]
//! — a `Vec<ServingRequest>` whose `arrival_step`s model open-loop traffic)
//! and the *canonical engine sizing* that stream is shaped for
//! ([`Scenario::serving_config`]). [`ScenarioKind`] is the registry: every
//! scenario is nameable from CLI flags, bench configs and recorded traces,
//! following the [`PolicyKind`](super::PolicyKind) /
//! [`RoutingKind`](super::RoutingKind) idiom.
//!
//! Everything is deterministic in the seed (SplitMix64 streams, no global
//! RNG), which is what lets a recorded [`Trace`](super::trace::Trace)
//! name its scenario and replay to an identical schedule.

use std::fmt;
use std::str::FromStr;

use super::queue::{splitmix64, ServingRequest};
use super::ServingConfig;
use crate::config::AccelConfig;

/// Draws the next value of a SplitMix64 stream: mixes the advanced state
/// through the shared [`splitmix64`] and steps the counter.
pub(crate) fn next_rand(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// A deterministic serving workload: a seed-derived open-loop request
/// stream plus the canonical engine configuration it is shaped for.
///
/// Implementations must be pure functions of `(self, seed)`: the same
/// scenario parameters and seed always produce the byte-identical request
/// list. That determinism is what the trace record/replay fixed point
/// (`record → replay → record` yields the same digest) is built on.
pub trait Scenario: fmt::Debug + Send {
    /// Stable, human-readable scenario name (used by the CLI registry,
    /// bench records and recorded traces).
    fn name(&self) -> &'static str;

    /// One-line description for `--list-scenarios` style help output.
    fn description(&self) -> &'static str;

    /// The request stream: deterministic in `seed`, with `arrival_step`s
    /// modeling open-loop traffic (requests become schedulable over time,
    /// whether or not the engine has kept up).
    fn generate(&self, seed: u64) -> Vec<ServingRequest>;

    /// The canonical engine sizing this stream is shaped for (batch
    /// slots, KV budget, prefix caching, prefill pricing). Callers may
    /// still adjust scheduling knobs (policy, preemption, sharding) on
    /// top.
    fn serving_config(&self, accel: AccelConfig) -> ServingConfig;
}

/// The engine every scenario is sized around — 4 heads, 10 MB of weights,
/// 16-token pages, workload seed 7 — at the scenario's own batch limits.
fn sized_config(accel: AccelConfig, max_batch: usize, max_batch_tokens: usize) -> ServingConfig {
    let mut cfg = ServingConfig::new(accel);
    cfg.heads = 4;
    cfg.weight_bytes = 10_000_000;
    cfg.admission.max_batch = max_batch;
    cfg.admission.max_batch_tokens = max_batch_tokens;
    cfg.admission.page_size = 16;
    cfg.seed = 7;
    cfg
}

/// [`sized_config`] with the prefix cache on and prompt prefill priced at
/// full weight, so cache hits are visible in cycles. Callers comparing
/// cache on/off toggle `admission.prefix_cache` on the returned config.
fn priced_config(accel: AccelConfig, max_batch: usize, max_batch_tokens: usize) -> ServingConfig {
    let mut cfg = sized_config(accel, max_batch, max_batch_tokens);
    cfg.admission.prefix_cache = true;
    cfg.prefill_factor = 1.0;
    cfg
}

/// The canonical chat-shaped sizing shared by the prefix-heavy scenarios.
fn chat_shaped_config(accel: AccelConfig) -> ServingConfig {
    priced_config(accel, 6, 1600)
}

/// The skewed "elephant/mice" scenario: `elephants` long, low-priority
/// requests from one client arrive first and fill the batch, then `mice`
/// short, high-priority requests from three other clients trickle in
/// behind them — the canonical policy/preemption stress shape.
///
/// Both groups are heterogeneous — elephants differ in token targets (so
/// they retire at different steps) and mice differ in length, priority
/// and arrival (so admission *order* matters even without preemption, and
/// every scheduling policy produces a distinguishable schedule).
///
/// The stream is deliberately **seed-independent** (the arrival pattern
/// *is* the scenario); the schedule-digest goldens in `tests/serving.rs`
/// pin it byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedElephantMice {
    /// Long, early, low-priority requests (canonically 4).
    pub elephants: u64,
    /// Short, late, high-priority requests (canonically 12).
    pub mice: u64,
}

impl Default for SkewedElephantMice {
    fn default() -> Self {
        Self {
            elephants: 4,
            mice: 12,
        }
    }
}

impl Scenario for SkewedElephantMice {
    fn name(&self) -> &'static str {
        "skewed-elephant-mice"
    }

    fn description(&self) -> &'static str {
        "long elephants saturate the batch ahead of short high-priority mice (seed-independent)"
    }

    fn generate(&self, _seed: u64) -> Vec<ServingRequest> {
        let mut reqs: Vec<ServingRequest> = (0..self.elephants)
            .map(|id| ServingRequest::new(id, 480, 16 + id as usize * 6).with_client(0))
            .collect();
        reqs.extend((0..self.mice).map(|i| {
            ServingRequest::new(100 + i, 48 + (i as usize % 3) * 16, 2 + (i as usize % 5))
                .with_priority(3 + (i % 3) as u8 * 3)
                .with_client(1 + i % 3)
                .arriving_at(2 + i % 4)
        }));
        reqs
    }

    fn serving_config(&self, accel: AccelConfig) -> ServingConfig {
        // The canonical skewed engine: four elephants provision 2020
        // final-context tokens against a 2200-token budget, saturating
        // both slots and pages — and prompts are unshared, so the prefix
        // cache stays off and prefill unpriced (the pre-caching goldens).
        sized_config(accel, 4, 2200)
    }
}

/// The shared-prefix "chat" scenario: `tenants` tenants, each with its own
/// page-aligned system prompt (96–160 tokens), each sending `per_tenant`
/// requests that append a short unique user turn (8–63 tokens) — the
/// workload where prefix caching pays: with the cache on, only the first
/// request per tenant prefills its system prompt; the rest adopt those
/// pages copy-on-write and prefill only their unique suffix.
///
/// **Shape-stable**: each tenant draws from its own seed-derived stream
/// and request ids depend only on `(tenant, i)`, so a tenant's first `k`
/// requests are byte-identical however many tenants or requests per
/// tenant the caller asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefixChat {
    /// Independent tenants, each with its own system prompt (canonically 4).
    pub tenants: u64,
    /// Requests per tenant (canonically 6).
    pub per_tenant: u64,
}

impl Default for SharedPrefixChat {
    fn default() -> Self {
        Self {
            tenants: 4,
            per_tenant: 6,
        }
    }
}

impl Scenario for SharedPrefixChat {
    fn name(&self) -> &'static str {
        "shared-prefix-chat"
    }

    fn description(&self) -> &'static str {
        "tenants share page-aligned system prompts; short unique user turns ride behind them"
    }

    fn generate(&self, seed: u64) -> Vec<ServingRequest> {
        let mut reqs = Vec::with_capacity((self.tenants * self.per_tenant) as usize);
        for tenant in 0..self.tenants {
            let mut state = splitmix64(
                seed ^ 0xA076_1D64_78BD_642F ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let tag = next_rand(&mut state);
            // 6..=10 pages of 16 tokens: 96, 112, 128, 144 or 160.
            let prefix_len = 96 + 16 * (next_rand(&mut state) % 5) as usize;
            for i in 0..self.per_tenant {
                let mix = next_rand(&mut state);
                let suffix = 8 + (mix % 56) as usize;
                reqs.push(
                    ServingRequest::new(
                        tenant * 1000 + i,
                        prefix_len + suffix,
                        2 + (mix % 7) as usize,
                    )
                    .with_priority((mix >> 8) as u8 % 4)
                    .with_client(tenant)
                    .with_shared_prefix(tag, prefix_len)
                    .arriving_at(i / 2 + (mix >> 16) % 3),
                );
            }
        }
        reqs
    }

    fn serving_config(&self, accel: AccelConfig) -> ServingConfig {
        chat_shaped_config(accel)
    }
}

/// Arrivals per diurnal phase: a stylized day curve — a quiet trough, a
/// morning ramp, a midday peak, an evening tail — repeated per day.
const DIURNAL_ENVELOPE: [u64; 8] = [1, 0, 1, 2, 4, 3, 3, 2];

/// Engine steps each diurnal phase spans.
const DIURNAL_PHASE_STEPS: u64 = 4;

/// Diurnal open-loop arrivals: request intensity follows a day-shaped
/// envelope (trough → ramp → peak → tail), so the engine sees genuine
/// load swings — idle ticks at night, admission pressure at the peak —
/// instead of a flat arrival rate. Each request belongs to one of
/// `clients` "apps", every app with its own shared system prompt, and
/// carries interactive TTFT/inter-token deadlines that only get contended
/// during the peak phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiurnalArrivals {
    /// Distinct apps, each with its own shared system prompt (canonically 3).
    pub clients: u64,
    /// Day cycles to run the envelope for (canonically 1: 16 requests).
    pub days: u64,
}

impl Default for DiurnalArrivals {
    fn default() -> Self {
        Self {
            clients: 3,
            days: 1,
        }
    }
}

impl Scenario for DiurnalArrivals {
    fn name(&self) -> &'static str {
        "diurnal"
    }

    fn description(&self) -> &'static str {
        "open-loop arrivals follow a day-shaped intensity envelope (trough, ramp, peak, tail)"
    }

    fn generate(&self, seed: u64) -> Vec<ServingRequest> {
        let clients = self.clients.max(1);
        // Per-app system prompts, page-aligned (4..=7 pages of 16).
        let profiles: Vec<(u64, usize)> = (0..clients)
            .map(|c| {
                let mut s = splitmix64(
                    seed ^ 0x8CB9_2BA7_2F3D_8DD7 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let tag = next_rand(&mut s);
                let prefix_len = 64 + 16 * (next_rand(&mut s) % 4) as usize;
                (tag, prefix_len)
            })
            .collect();
        let mut state = splitmix64(seed ^ 0x2545_F491_4F6C_DD1D);
        let mut reqs = Vec::new();
        let mut id = 0u64;
        for day in 0..self.days.max(1) {
            for (phase, &arrivals) in DIURNAL_ENVELOPE.iter().enumerate() {
                let base =
                    (day * DIURNAL_ENVELOPE.len() as u64 + phase as u64) * DIURNAL_PHASE_STEPS;
                for _ in 0..arrivals {
                    let mix = next_rand(&mut state);
                    let client = mix % clients;
                    let (tag, prefix_len) = profiles[client as usize];
                    let suffix = 8 + ((mix >> 8) % 40) as usize;
                    reqs.push(
                        ServingRequest::new(
                            id,
                            prefix_len + suffix,
                            2 + ((mix >> 16) % 5) as usize,
                        )
                        .with_priority((mix >> 24) as u8 % 4)
                        .with_client(client)
                        .with_shared_prefix(tag, prefix_len)
                        .arriving_at(base + (mix >> 32) % DIURNAL_PHASE_STEPS)
                        // Day-curve traffic carries interactive SLOs; the
                        // peak phases are where they get contended.
                        .with_ttft_deadline(8 + (mix >> 40) % 8)
                        .with_itl_deadline(3 + (mix >> 48) % 4),
                    );
                    id += 1;
                }
            }
        }
        reqs
    }

    fn serving_config(&self, accel: AccelConfig) -> ServingConfig {
        chat_shaped_config(accel)
    }
}

/// Correlated multi-tenant bursts: every burst wave is fired by one shared
/// external trigger (a news event, a cron fan-out), so all tenants' bursts
/// *collide* within a couple of steps instead of interleaving politely —
/// the admission-pressure regime where scheduling policy and preemption
/// decide who waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiTenantBursts {
    /// Independent tenants, each with its own shared prefix (canonically 3).
    pub tenants: u64,
    /// Burst waves (canonically 2).
    pub bursts: u64,
    /// Requests per tenant per wave (canonically 3).
    pub burst_size: u64,
}

impl Default for MultiTenantBursts {
    fn default() -> Self {
        Self {
            tenants: 3,
            bursts: 2,
            burst_size: 3,
        }
    }
}

impl Scenario for MultiTenantBursts {
    fn name(&self) -> &'static str {
        "multi-tenant-bursts"
    }

    fn description(&self) -> &'static str {
        "one shared trigger per wave makes every tenant's burst collide in the same few steps"
    }

    fn generate(&self, seed: u64) -> Vec<ServingRequest> {
        let tenants = self.tenants.max(1);
        let burst_size = self.burst_size.max(1);
        // Per-tenant shared prefixes, burst-independent (5..=8 pages).
        let profiles: Vec<(u64, usize)> = (0..tenants)
            .map(|t| {
                let mut s = splitmix64(
                    seed ^ 0xE703_7ED1_A0B4_28DB ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let tag = next_rand(&mut s);
                let prefix_len = 80 + 16 * (next_rand(&mut s) % 4) as usize;
                (tag, prefix_len)
            })
            .collect();
        let mut state = splitmix64(seed ^ 0x94D0_49BB_1331_11EB);
        let mut reqs = Vec::new();
        for b in 0..self.bursts.max(1) {
            // The correlation: one trigger step per wave, shared by every
            // tenant, with at most ±2 steps of per-request jitter.
            let trigger = b * 10 + next_rand(&mut state) % 3;
            for tenant in 0..tenants {
                let (tag, prefix_len) = profiles[tenant as usize];
                for k in 0..burst_size {
                    let mix = next_rand(&mut state);
                    let suffix = 8 + (mix % 24) as usize;
                    reqs.push(
                        ServingRequest::new(
                            tenant * 1000 + b * burst_size + k,
                            prefix_len + suffix,
                            2 + ((mix >> 8) % 4) as usize,
                        )
                        .with_priority(tenant as u8 % 4)
                        .with_client(tenant)
                        .with_shared_prefix(tag, prefix_len)
                        .arriving_at(trigger + (mix >> 16) % 2),
                    );
                }
            }
        }
        reqs
    }

    fn serving_config(&self, accel: AccelConfig) -> ServingConfig {
        chat_shaped_config(accel)
    }
}

/// Agentic tool-call loops: each session is an agent that returns after
/// every tool call with its *whole history* as a grown, page-aligned
/// shared prefix — turn `t`'s prefix extends turn `t-1`'s, so consecutive
/// turns share all earlier prefix pages. This stresses the prefix cache
/// and [`PrefixAffinity`](super::RoutingKind::PrefixAffinity) routing in
/// a way one-shot chat never does: the payoff only materializes if every
/// turn of a session lands on the shard still holding the session's pages
/// (all turns share `page_keys[0]`, the affinity routing key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgenticToolLoops {
    /// Concurrent agent sessions (canonically 4).
    pub sessions: u64,
    /// Tool-call turns per session (canonically 4).
    pub turns: u64,
}

impl Default for AgenticToolLoops {
    fn default() -> Self {
        Self {
            sessions: 4,
            turns: 4,
        }
    }
}

impl Scenario for AgenticToolLoops {
    fn name(&self) -> &'static str {
        "agentic-tool-loops"
    }

    fn description(&self) -> &'static str {
        "agent sessions return after each tool call with a grown shared prefix (affinity bait)"
    }

    fn generate(&self, seed: u64) -> Vec<ServingRequest> {
        let mut reqs = Vec::new();
        for s in 0..self.sessions.max(1) {
            let mut state =
                splitmix64(seed ^ 0xBF58_476D_1CE4_E5B9 ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let tag = next_rand(&mut state);
            for t in 0..self.turns.max(1) {
                let mix = next_rand(&mut state);
                // The session's history so far, page-aligned: 64 tokens of
                // system prompt plus 32 per completed turn, all drawn from
                // the session's tag pool so turn t+1's prefix pages extend
                // turn t's.
                let prefix_len = 64 + 32 * t as usize;
                let suffix = 8 + (mix % 24) as usize;
                reqs.push(
                    ServingRequest::new(
                        s * 100 + t,
                        prefix_len + suffix,
                        2 + ((mix >> 8) % 3) as usize,
                    )
                    .with_priority((mix >> 24) as u8 % 3)
                    .with_client(s)
                    .with_shared_prefix(tag, prefix_len)
                    .arriving_at(t * 6 + (mix >> 16) % 3),
                );
            }
        }
        reqs
    }

    fn serving_config(&self, accel: AccelConfig) -> ServingConfig {
        chat_shaped_config(accel)
    }
}

/// Long-document summarization: prompts of 384–816 tokens with tiny token
/// targets and no shared prefixes — the prefill-dominated regime where
/// throughput is bounded by prompt processing, not decode, and the prefix
/// cache has nothing to adopt. Every request carries interactive TTFT and
/// inter-token deadlines, making this the canonical workload for chunked
/// prefill and the SLO-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LongDocSummarize {
    /// Documents to summarize (canonically 8).
    pub docs: u64,
}

impl Default for LongDocSummarize {
    fn default() -> Self {
        Self { docs: 8 }
    }
}

impl Scenario for LongDocSummarize {
    fn name(&self) -> &'static str {
        "long-doc-summarize"
    }

    fn description(&self) -> &'static str {
        "384-816 token documents with tiny targets: prefill-dominated, nothing to share"
    }

    fn generate(&self, seed: u64) -> Vec<ServingRequest> {
        let mut state = splitmix64(seed ^ 0x5851_F42D_4C95_7F2D);
        (0..self.docs.max(1))
            .map(|d| {
                let mix = next_rand(&mut state);
                let prompt = 384 + 48 * (mix % 10) as usize;
                ServingRequest::new(d, prompt, 2 + ((mix >> 8) % 4) as usize)
                    .with_priority((mix >> 16) as u8 % 2)
                    .with_client(d % 2)
                    .arriving_at(d * 3 + (mix >> 24) % 3)
                    // Interactive summarization SLOs: first tokens are due
                    // within a handful of steps despite the 384-816 token
                    // prefill bill — the regime chunked prefill and
                    // SLO-aware scheduling exist for.
                    .with_ttft_deadline(6 + (mix >> 32) % 6)
                    .with_itl_deadline(2 + (mix >> 40) % 3)
            })
            .collect()
    }

    fn serving_config(&self, accel: AccelConfig) -> ServingConfig {
        // Few slots, a deep KV budget (an 816-token document alone needs
        // 52 pages), prefill priced at full weight: the bill this scenario
        // exists to measure.
        priced_config(accel, 3, 2048)
    }
}

/// The built-in scenarios, nameable from CLI flags, bench configs and
/// recorded traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// [`SkewedElephantMice`].
    SkewedElephantMice,
    /// [`SharedPrefixChat`].
    SharedPrefixChat,
    /// [`DiurnalArrivals`].
    DiurnalArrivals,
    /// [`MultiTenantBursts`].
    MultiTenantBursts,
    /// [`AgenticToolLoops`].
    AgenticToolLoops,
    /// [`LongDocSummarize`].
    LongDocSummarize,
}

impl ScenarioKind {
    /// Every built-in scenario, in presentation order.
    #[must_use]
    pub fn all() -> [Self; 6] {
        [
            Self::SkewedElephantMice,
            Self::SharedPrefixChat,
            Self::DiurnalArrivals,
            Self::MultiTenantBursts,
            Self::AgenticToolLoops,
            Self::LongDocSummarize,
        ]
    }

    /// The scenario's stable name (matches [`Scenario::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.build().name()
    }

    /// Instantiates the scenario with its canonical parameters.
    #[must_use]
    pub fn build(self) -> Box<dyn Scenario> {
        match self {
            Self::SkewedElephantMice => Box::new(SkewedElephantMice::default()),
            Self::SharedPrefixChat => Box::new(SharedPrefixChat::default()),
            Self::DiurnalArrivals => Box::new(DiurnalArrivals::default()),
            Self::MultiTenantBursts => Box::new(MultiTenantBursts::default()),
            Self::AgenticToolLoops => Box::new(AgenticToolLoops::default()),
            Self::LongDocSummarize => Box::new(LongDocSummarize::default()),
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ScenarioKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "skewed" | "skewed-elephant-mice" => Ok(Self::SkewedElephantMice),
            "chat" | "shared-prefix-chat" => Ok(Self::SharedPrefixChat),
            "diurnal" => Ok(Self::DiurnalArrivals),
            "bursts" | "multi-tenant-bursts" => Ok(Self::MultiTenantBursts),
            "agentic" | "agentic-tool-loops" => Ok(Self::AgenticToolLoops),
            "long-doc" | "summarize" | "long-doc-summarize" => Ok(Self::LongDocSummarize),
            other => Err(format!(
                "unknown scenario '{other}' (expected skewed | chat | diurnal | bursts | agentic | long-doc)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelMode;
    use crate::serve::ServingEngine;

    #[test]
    fn scenario_kind_round_trips_through_names() {
        for kind in ScenarioKind::all() {
            assert_eq!(kind.name().parse::<ScenarioKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
            assert!(!kind.build().description().is_empty());
        }
        assert!("nope".parse::<ScenarioKind>().is_err());
        assert_eq!(
            "agentic".parse::<ScenarioKind>(),
            Ok(ScenarioKind::AgenticToolLoops)
        );
    }

    #[test]
    fn every_scenario_is_deterministic_in_its_seed() {
        for kind in ScenarioKind::all() {
            let s = kind.build();
            let a = s.generate(41);
            let b = s.generate(41);
            assert_eq!(a, b, "{kind}: same seed must reproduce the workload");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind}");
            assert!(!a.is_empty(), "{kind}: scenarios must produce work");
        }
        // The skewed stream is seed-independent by design; every other
        // scenario must actually vary with the seed.
        for kind in ScenarioKind::all() {
            let s = kind.build();
            let differs = s.generate(1) != s.generate(2);
            assert_eq!(
                differs,
                kind != ScenarioKind::SkewedElephantMice,
                "{kind}: unexpected seed sensitivity"
            );
        }
    }

    #[test]
    fn every_scenario_has_unique_ids_and_valid_shapes() {
        for kind in ScenarioKind::all() {
            let reqs = kind.build().generate(11);
            let ids: std::collections::BTreeSet<u64> = reqs.iter().map(|r| r.id).collect();
            assert_eq!(ids.len(), reqs.len(), "{kind}: duplicate request ids");
            assert!(reqs
                .iter()
                .all(|r| r.prompt_len > 0 && r.max_new_tokens > 0));
        }
    }

    #[test]
    fn every_request_fits_its_scenarios_canonical_engine() {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        for kind in ScenarioKind::all() {
            let s = kind.build();
            let cfg = s.serving_config(accel.clone());
            let engine = ServingEngine::new(cfg);
            for req in s.generate(11) {
                engine
                    .validate_request(&req)
                    .unwrap_or_else(|e| panic!("{kind}: request {} rejected: {e}", req.id));
            }
        }
    }

    #[test]
    fn four_elephants_saturate_the_canonical_budget() {
        let reqs = SkewedElephantMice::default().generate(0);
        assert_eq!(reqs.len(), 16);
        let elephant_final: usize = reqs[..4]
            .iter()
            .map(|r| r.prompt_len + r.max_new_tokens)
            .sum();
        assert_eq!(elephant_final, 2020);
        assert!(elephant_final <= 2200);
        // Mice are heterogeneous in every scheduling-relevant dimension.
        let mice = &reqs[4..];
        assert!(mice.iter().any(|m| m.priority != mice[0].priority));
        assert!(mice
            .iter()
            .any(|m| m.max_new_tokens != mice[0].max_new_tokens));
        assert!(mice.iter().any(|m| m.arrival_step != mice[0].arrival_step));
        assert!(mice.iter().all(|m| m.arrival_step >= 2));
    }

    fn chat(seed: u64, tenants: u64, per_tenant: u64) -> Vec<ServingRequest> {
        SharedPrefixChat {
            tenants,
            per_tenant,
        }
        .generate(seed)
    }

    #[test]
    fn tenant_streams_are_stable_across_workload_shapes() {
        // A tenant's requests (ids included) must not change when the
        // caller asks for more tenants or more requests per tenant — the
        // property that keeps multi-shard goldens reproducible when a
        // sweep widens the workload.
        let narrow = chat(9, 2, 3);
        let more_tenants = chat(9, 5, 3);
        for tenant in 0..2u64 {
            let a: Vec<_> = narrow.iter().filter(|r| r.client_id == tenant).collect();
            let b: Vec<_> = more_tenants
                .iter()
                .filter(|r| r.client_id == tenant)
                .collect();
            assert_eq!(a, b, "tenant {tenant} changed when tenants were added");
        }
        let deeper = chat(9, 2, 7);
        for tenant in 0..2u64 {
            let a: Vec<_> = narrow.iter().filter(|r| r.client_id == tenant).collect();
            let b: Vec<_> = deeper
                .iter()
                .filter(|r| r.client_id == tenant)
                .take(3)
                .collect();
            assert_eq!(a, b, "tenant {tenant} changed when the workload deepened");
        }
    }

    #[test]
    fn shared_prefix_chat_shares_within_and_not_across_tenants() {
        let reqs = chat(7, 3, 5);
        for tenant in 0..3u64 {
            let group: Vec<_> = reqs.iter().filter(|r| r.client_id == tenant).collect();
            assert_eq!(group.len(), 5);
            // One tag and one prefix length per tenant, page-aligned at
            // the canonical 16-token page size and inside every prompt.
            assert!(group.iter().all(|r| r.prefix_tag == group[0].prefix_tag));
            assert!(group.iter().all(|r| r.prefix_len == group[0].prefix_len));
            assert_eq!(group[0].prefix_len % 16, 0);
            assert!((96..=160).contains(&group[0].prefix_len));
            assert!(group.iter().all(|r| r.prompt_len > r.prefix_len));
            // Identical leading page hashes within the tenant, so the
            // prefix cache can actually adopt across its requests...
            let keys: Vec<_> = group.iter().map(|r| r.page_keys(16)).collect();
            let shared_pages = group[0].prefix_len / 16;
            for k in &keys[1..] {
                assert_eq!(k[..shared_pages], keys[0][..shared_pages]);
            }
        }
        // ...and nothing shared between tenants.
        let (a, b) = (
            reqs.iter().find(|r| r.client_id == 0).unwrap(),
            reqs.iter().find(|r| r.client_id == 1).unwrap(),
        );
        assert_ne!(a.page_keys(16)[0], b.page_keys(16)[0]);
    }

    #[test]
    fn agentic_turns_share_a_growing_prefix_within_each_session() {
        let reqs = AgenticToolLoops::default().generate(11);
        for session in 0..4u64 {
            let turns: Vec<_> = reqs.iter().filter(|r| r.client_id == session).collect();
            assert_eq!(turns.len(), 4);
            // One tag per session; the prefix grows by exactly one
            // conversation turn (32 tokens = 2 pages) each time.
            assert!(turns.iter().all(|r| r.prefix_tag == turns[0].prefix_tag));
            for (t, r) in turns.iter().enumerate() {
                assert_eq!(r.prefix_len, 64 + 32 * t);
                assert_eq!(r.prefix_len % 16, 0);
                assert!(r.prompt_len > r.prefix_len);
            }
            // Turn t+1's leading page hashes extend turn t's: every page
            // inside turn t's prefix is identical, so the prefix cache can
            // adopt the whole history — and all turns agree on keys[0],
            // the affinity routing key.
            let keys: Vec<Vec<u64>> = turns.iter().map(|r| r.page_keys(16)).collect();
            for t in 0..turns.len() - 1 {
                let shared_pages = turns[t].prefix_len / 16;
                assert_eq!(keys[t + 1][..shared_pages], keys[t][..shared_pages]);
            }
            assert!(keys.iter().all(|k| k[0] == keys[0][0]));
        }
        // Sessions do not share content with each other.
        let (a, b) = (
            reqs.iter().find(|r| r.client_id == 0).unwrap(),
            reqs.iter().find(|r| r.client_id == 1).unwrap(),
        );
        assert_ne!(a.page_keys(16)[0], b.page_keys(16)[0]);
    }

    #[test]
    fn diurnal_arrivals_follow_the_envelope() {
        let scenario = DiurnalArrivals::default();
        let reqs = scenario.generate(3);
        assert_eq!(reqs.len(), DIURNAL_ENVELOPE.iter().sum::<u64>() as usize);
        // Arrivals stay inside the day span and are non-decreasing per
        // phase block: the peak phases hold more arrivals than the trough.
        let day_steps = DIURNAL_ENVELOPE.len() as u64 * DIURNAL_PHASE_STEPS;
        assert!(reqs.iter().all(|r| r.arrival_step < day_steps));
        let peak_window = 4 * DIURNAL_PHASE_STEPS..6 * DIURNAL_PHASE_STEPS;
        let trough_window = 0..2 * DIURNAL_PHASE_STEPS;
        let peak = reqs
            .iter()
            .filter(|r| peak_window.contains(&r.arrival_step))
            .count();
        let trough = reqs
            .iter()
            .filter(|r| trough_window.contains(&r.arrival_step))
            .count();
        assert!(
            peak > trough,
            "peak window held {peak} arrivals vs {trough} in the trough"
        );
    }

    #[test]
    fn bursts_collide_across_tenants() {
        let reqs = MultiTenantBursts::default().generate(11);
        assert_eq!(reqs.len(), 18);
        // Every wave lands all tenants' requests within a 4-step window of
        // one shared trigger.
        for wave in 0..2u64 {
            let wave_reqs: Vec<_> = reqs.iter().filter(|r| (r.id % 1000) / 3 == wave).collect();
            assert_eq!(wave_reqs.len(), 9);
            let lo = wave_reqs.iter().map(|r| r.arrival_step).min().unwrap();
            let hi = wave_reqs.iter().map(|r| r.arrival_step).max().unwrap();
            assert!(hi - lo <= 3, "wave {wave} spread {lo}..{hi}");
            let tenants: std::collections::BTreeSet<u64> =
                wave_reqs.iter().map(|r| r.client_id).collect();
            assert_eq!(tenants.len(), 3, "every tenant bursts in every wave");
        }
    }

    #[test]
    fn long_doc_is_prefill_dominated_and_unshared() {
        let reqs = LongDocSummarize::default().generate(11);
        assert!(reqs.iter().all(|r| r.prompt_len >= 384));
        assert!(reqs.iter().all(|r| r.max_new_tokens <= 5));
        assert!(reqs.iter().all(|r| r.prefix_len == 0));
    }
}
