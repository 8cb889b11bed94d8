//! The pluggable scheduling surface: policies choose *which* request to
//! admit or evict; the engine enforces the admission invariants.

use std::fmt;
use std::str::FromStr;

/// Snapshot of one queued request, handed to policies during admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// The request's id.
    pub id: u64,
    /// Caller-assigned priority (higher is more urgent).
    pub priority: u8,
    /// Originating client.
    pub client_id: u64,
    /// Engine-assigned enqueue order — the universal tie-break.
    pub arrival_seq: u64,
    /// Steps the request has been schedulable without running.
    pub waited_steps: u64,
    /// Tokens still to generate (less than the target after a preemption).
    pub remaining_tokens: usize,
    /// Context length at retirement — what admission must budget for.
    pub final_context: usize,
    /// Step the request first became schedulable. Unlike
    /// [`waited_steps`](Self::waited_steps) (which resets on eviction so
    /// aging never credits time spent running), this is the fixed origin
    /// SLO deadlines are measured from.
    pub enqueued_at: usize,
    /// Step of the request's most recent generated token, if any (a
    /// preempted request re-queues with its decode history intact).
    pub last_token_at: Option<usize>,
    /// Time-to-first-token deadline in steps from
    /// [`enqueued_at`](Self::enqueued_at), if the request carries one.
    pub ttft_deadline: Option<u64>,
    /// Inter-token deadline: maximum steps between consecutive generated
    /// tokens, if the request carries one.
    pub itl_deadline: Option<u64>,
}

/// Snapshot of one running request, handed to policies when choosing
/// admissions and preemption victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningView {
    /// The request's id.
    pub id: u64,
    /// Caller-assigned priority (higher is more urgent).
    pub priority: u8,
    /// Originating client.
    pub client_id: u64,
    /// Engine-assigned enqueue order.
    pub arrival_seq: u64,
    /// Step of the request's (most recent) admission.
    pub admitted_at: usize,
    /// Tokens still to generate.
    pub remaining_tokens: usize,
    /// Current context length.
    pub context: usize,
    /// Context length at retirement.
    pub final_context: usize,
    /// Step the request first became schedulable — the origin SLO
    /// deadlines are measured from.
    pub enqueued_at: usize,
    /// Step of the request's most recent generated token, if any.
    pub last_token_at: Option<usize>,
    /// Time-to-first-token deadline in steps from
    /// [`enqueued_at`](Self::enqueued_at), if the request carries one.
    pub ttft_deadline: Option<u64>,
    /// Inter-token deadline: maximum steps between consecutive generated
    /// tokens, if the request carries one.
    pub itl_deadline: Option<u64>,
}

/// The deadline a request is currently racing, as an absolute engine step:
/// first-token requests race `enqueued_at + ttft − 1` (TTFT counts the
/// enqueue step itself), decoding requests race `last_token + itl`.
/// `None` means no applicable deadline — the request can wait forever.
///
/// Shared by both view types so pending and running requests compare on
/// one urgency scale; [`SloAware`] subtracts the current step to get
/// slack.
fn due_step(
    enqueued_at: usize,
    last_token_at: Option<usize>,
    ttft: Option<u64>,
    itl: Option<u64>,
) -> Option<i64> {
    match last_token_at {
        None => ttft.map(|d| enqueued_at as i64 + d as i64 - 1),
        Some(t) => itl.map(|d| t as i64 + d as i64),
    }
}

impl PendingView {
    /// Steps of slack until this request's next applicable deadline at
    /// `step` (negative once blown); `i64::MAX` when no deadline applies.
    #[must_use]
    pub fn slo_slack(&self, step: u64) -> i64 {
        due_step(
            self.enqueued_at,
            self.last_token_at,
            self.ttft_deadline,
            self.itl_deadline,
        )
        .map_or(i64::MAX, |due| due - step as i64)
    }
}

impl RunningView {
    /// Steps of slack until this request's next applicable deadline at
    /// `step` (negative once blown); `i64::MAX` when no deadline applies.
    #[must_use]
    pub fn slo_slack(&self, step: u64) -> i64 {
        due_step(
            self.enqueued_at,
            self.last_token_at,
            self.ttft_deadline,
            self.itl_deadline,
        )
        .map_or(i64::MAX, |due| due - step as i64)
    }
}

/// A scheduling policy: the ordering brain of the serving engine.
///
/// The engine asks the policy *which* queued request to admit next
/// ([`pick_next`](Self::pick_next)) and, when that candidate does not fit
/// and preemption is enabled, *which* running request to evict for it
/// ([`pick_victim`](Self::pick_victim)). The engine itself enforces the
/// invariants — the batch never exceeds its slot limit or its KV page
/// budget, and a candidate that still does not fit ends admission for the
/// step — so a policy cannot corrupt the batch, only order it badly.
///
/// Policies must be [`Send`]: an application may move an engine, or a
/// whole [`ClusterEngine`](super::ClusterEngine), to another thread, and
/// each engine's policy travels with it. Policies only ever run on one
/// thread at a time (the engine holds them by `&mut`), so `Send` — not
/// `Sync` — is the bound, and any policy made of owned data satisfies it
/// automatically.
///
/// # Example
///
/// A custom policy is any `Debug + Send` type implementing this trait;
/// install it with
/// [`ServingEngineBuilder::policy_boxed`](super::ServingEngineBuilder::policy_boxed).
/// Longest-job-first, in full:
///
/// ```
/// use topick_accel::{
///     AccelConfig, AccelMode, PendingView, RunningView, SchedulerPolicy, ServingEngine,
///     ServingRequest,
/// };
///
/// #[derive(Debug)]
/// struct LongestJobFirst;
///
/// impl SchedulerPolicy for LongestJobFirst {
///     fn name(&self) -> &'static str {
///         "longest-job-first"
///     }
///
///     fn pick_next(
///         &mut self,
///         pending: &[PendingView],
///         _running: &[RunningView],
///         _step: u64,
///     ) -> Option<usize> {
///         pending
///             .iter()
///             .enumerate()
///             .max_by_key(|(_, p)| (p.remaining_tokens, std::cmp::Reverse(p.arrival_seq)))
///             .map(|(i, _)| i)
///     }
/// }
///
/// let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
/// let mut engine = ServingEngine::builder(accel)
///     .heads(2)
///     .max_batch(1)
///     .policy_boxed(Box::new(LongestJobFirst))
///     .build();
/// engine.enqueue(ServingRequest::new(0, 16, 1))?;
/// engine.enqueue(ServingRequest::new(1, 16, 4))?;
/// let report = engine.run_to_completion(16)?;
/// // The longer request 1 ran (and finished) first.
/// assert_eq!(report.requests[0].id, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait SchedulerPolicy: fmt::Debug + Send {
    /// Stable, human-readable policy name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Index into `pending` of the request to admit next, or `None` to
    /// stop admitting for this step. `pending` is never empty and holds
    /// only schedulable requests, in arrival order.
    fn pick_next(
        &mut self,
        pending: &[PendingView],
        running: &[RunningView],
        step: u64,
    ) -> Option<usize>;

    /// Index into `running` of a victim to evict so `candidate` can be
    /// admitted, or `None` to decline preemption (the default). Called
    /// only when preemption is enabled and `candidate` does not fit.
    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        step: u64,
    ) -> Option<usize> {
        let _ = (candidate, running, step);
        None
    }
}

/// First-in-first-out with head-of-line blocking — bit-for-bit the
/// pre-redesign engine's schedule. Never preempts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulerPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        _running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        // Oldest arrival; pending is in arrival order, so index 0.
        (!pending.is_empty()).then_some(0)
    }
}

/// Highest effective priority first, where waiting raises priority: a
/// request's effective priority is `priority + waited_steps / aging_steps`,
/// so low-priority work cannot starve forever. Preempts strictly
/// lower-priority running requests when allowed.
#[derive(Debug, Clone, Copy)]
pub struct PriorityAging {
    /// Queue steps that add one effective priority level.
    pub aging_steps: u64,
}

impl PriorityAging {
    /// A policy where waiting `aging_steps` steps is worth one priority
    /// level (clamped to at least 1).
    #[must_use]
    pub fn new(aging_steps: u64) -> Self {
        Self {
            aging_steps: aging_steps.max(1),
        }
    }

    fn effective(&self, p: &PendingView) -> u64 {
        u64::from(p.priority) + p.waited_steps / self.aging_steps
    }
}

impl Default for PriorityAging {
    fn default() -> Self {
        Self::new(8)
    }
}

impl SchedulerPolicy for PriorityAging {
    fn name(&self) -> &'static str {
        "priority-aging"
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        _running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        // Max effective priority; ties go to the oldest arrival, which
        // `max_by_key` yields because pending is in arrival order and it
        // keeps the first of equals under a (key, Reverse(seq)) ordering.
        pending
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| (self.effective(p), std::cmp::Reverse(p.arrival_seq)))
            .map(|(i, _)| i)
    }

    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        // Evict the lowest-priority running request, youngest first among
        // equals, and only for a strictly higher-priority candidate (raw
        // priorities: aging gets work *into* the queue order, but must not
        // let an aged background job evict on-par foreground work).
        let (slot, victim) = running
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.priority, std::cmp::Reverse(r.arrival_seq)))?;
        (victim.priority < candidate.priority).then_some(slot)
    }
}

/// Shortest job first, by remaining tokens to generate. With preemption it
/// becomes shortest-remaining-processing-time: a long-running request may
/// be evicted for a strictly shorter newcomer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl SchedulerPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "shortest-job-first"
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        _running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.remaining_tokens, p.arrival_seq))
            .map(|(i, _)| i)
    }

    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        let (slot, victim) = running
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| (r.remaining_tokens, r.arrival_seq))?;
        (victim.remaining_tokens > candidate.remaining_tokens).then_some(slot)
    }
}

/// Fair slots per client: admit from the client holding the fewest batch
/// slots. Preemption rebalances only when it strictly improves fairness
/// (the victim's client holds at least two more slots than the
/// candidate's).
#[derive(Debug, Clone, Copy, Default)]
pub struct FairRoundRobin;

impl FairRoundRobin {
    fn client_slots(running: &[RunningView], client: u64) -> usize {
        running.iter().filter(|r| r.client_id == client).count()
    }
}

impl SchedulerPolicy for FairRoundRobin {
    fn name(&self) -> &'static str {
        "fair-round-robin"
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (Self::client_slots(running, p.client_id), p.arrival_seq))
            .map(|(i, _)| i)
    }

    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        // From the most-over-served client, evict the member with the most
        // work left; only worthwhile if it strictly improves fairness.
        let cand_slots = Self::client_slots(running, candidate.client_id);
        let (slot, victim) = running.iter().enumerate().max_by_key(|(_, r)| {
            (
                Self::client_slots(running, r.client_id),
                r.remaining_tokens,
                r.arrival_seq,
            )
        })?;
        (Self::client_slots(running, victim.client_id) >= cand_slots + 2).then_some(slot)
    }
}

/// Earliest-deadline-first admission with slack-based preemption: the
/// SLO-aware scheduler the deadline layer exists for.
///
/// Every request is placed on one urgency scale — steps of *slack* until
/// its next applicable deadline (TTFT before the first token, ITL after;
/// see [`PendingView::slo_slack`]). Admission picks the least-slack
/// queued request (oldest arrival among equals), so deadline-less
/// requests (infinite slack) degrade to FIFO and a mixed workload is
/// served EDF-first, FIFO-second. Eviction targets the *most*-slack
/// running request (most remaining work, then youngest, among equals) and
/// only fires when the victim has **strictly** more slack than the
/// candidate — a workload with no deadlines anywhere never preempts, and
/// two equally late requests never thrash by evicting each other.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloAware;

impl SchedulerPolicy for SloAware {
    fn name(&self) -> &'static str {
        "slo-aware"
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        _running: &[RunningView],
        step: u64,
    ) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.slo_slack(step), p.arrival_seq))
            .map(|(i, _)| i)
    }

    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        step: u64,
    ) -> Option<usize> {
        let (slot, victim) = running
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| (r.slo_slack(step), r.remaining_tokens, r.arrival_seq))?;
        (victim.slo_slack(step) > candidate.slo_slack(step)).then_some(slot)
    }
}

/// The built-in policies, nameable from CLI flags and bench configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Fifo`].
    Fifo,
    /// [`PriorityAging`] with its default aging rate.
    PriorityAging,
    /// [`ShortestJobFirst`].
    ShortestJobFirst,
    /// [`FairRoundRobin`].
    FairRoundRobin,
    /// [`SloAware`].
    SloAware,
}

impl PolicyKind {
    /// Every built-in policy, in presentation order.
    #[must_use]
    pub fn all() -> [Self; 5] {
        [
            Self::Fifo,
            Self::PriorityAging,
            Self::ShortestJobFirst,
            Self::FairRoundRobin,
            Self::SloAware,
        ]
    }

    /// The policy's stable name (matches [`SchedulerPolicy::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::PriorityAging => "priority-aging",
            Self::ShortestJobFirst => "shortest-job-first",
            Self::FairRoundRobin => "fair-round-robin",
            Self::SloAware => "slo-aware",
        }
    }

    /// Instantiates the policy with its defaults.
    #[must_use]
    pub fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            Self::Fifo => Box::new(Fifo),
            Self::PriorityAging => Box::new(PriorityAging::default()),
            Self::ShortestJobFirst => Box::new(ShortestJobFirst),
            Self::FairRoundRobin => Box::new(FairRoundRobin),
            Self::SloAware => Box::new(SloAware),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(Self::Fifo),
            "priority" | "priority-aging" => Ok(Self::PriorityAging),
            "sjf" | "shortest-job-first" => Ok(Self::ShortestJobFirst),
            "fair" | "fair-round-robin" => Ok(Self::FairRoundRobin),
            "slo" | "slo-aware" => Ok(Self::SloAware),
            other => Err(format!(
                "unknown policy '{other}' (expected fifo | priority | sjf | fair | slo)"
            )),
        }
    }
}

/// How much of a preemption victim's KV cache survives the eviction.
///
/// Retention operates on the victim's *occupied* pages (the pages its
/// current context actually fills) and always keeps a **prefix**: KV
/// entries are position-dependent, so a retained suffix would be useless
/// without everything before it. Retained pages stay allocated in the
/// [`KvPager`](super::kv_pager::KvPager) while the victim waits in the
/// queue, and re-admission only re-prefills the dropped suffix.
///
/// Retained pages are a *cache*, not a reservation: if an admission
/// candidate has a batch slot but not the pages, the engine reclaims
/// queued requests' retained pages one tail page at a time (growing
/// their re-prefill debt by the reclaimed tokens) rather than stalling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RetentionPolicy {
    /// Drop everything; re-admission pays a full re-prefill (the PR 2
    /// behavior, and the default).
    #[default]
    None,
    /// Retain up to this many pages of the victim's KV prefix.
    Pages(usize),
    /// Retain this fraction of the victim's occupied pages, rounded down
    /// (clamped to `[0, 1]`).
    Fraction(f64),
}

impl RetentionPolicy {
    /// Pages to retain from a victim currently occupying `occupied` pages.
    #[must_use]
    pub fn retained_pages(&self, occupied: usize) -> usize {
        match *self {
            Self::None => 0,
            Self::Pages(n) => n.min(occupied),
            Self::Fraction(f) => ((occupied as f64) * f.clamp(0.0, 1.0)).floor() as usize,
        }
    }
}

impl fmt::Display for RetentionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::None => f.write_str("none"),
            Self::Pages(n) => write!(f, "{n}"),
            Self::Fraction(x) => write!(f, "{x}"),
        }
    }
}

impl FromStr for RetentionPolicy {
    type Err = String;

    /// Parses `none` (full re-prefill), an integer page count, or a
    /// fraction in `(0, 1)` — the grammar of the `--retention` CLI flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" | "off" | "full" => Ok(Self::None),
            other => {
                if let Ok(pages) = other.parse::<usize>() {
                    return Ok(Self::Pages(pages));
                }
                match other.parse::<f64>() {
                    Ok(f) if f > 0.0 && f < 1.0 => Ok(Self::Fraction(f)),
                    _ => Err(format!(
                        "unknown retention '{other}' (expected none | <pages> | <fraction in (0,1)>)"
                    )),
                }
            }
        }
    }
}

/// Preemption behavior of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionConfig {
    /// Whether the policy may evict running requests at all. Off by
    /// default: the pre-redesign guarantee that an admitted request never
    /// leaves before finishing.
    pub enabled: bool,
    /// Extra attention passes charged on a re-admitted request's first
    /// decode step, modeling the KV-cache rebuild (re-prefill). The charge
    /// is proportional to the request's measured attention cost at its
    /// current context, scaled by the *dropped* fraction of that context
    /// under [`retention`](Self::retention), and floored at one cycle —
    /// eviction is never free.
    pub reprefill_factor: f64,
    /// Evictions allowed per engine step (bounds scheduling thrash).
    pub max_evictions_per_step: usize,
    /// How much of a victim's paged KV cache survives the eviction
    /// ([`RetentionPolicy::None`], i.e. full re-prefill, by default).
    pub retention: RetentionPolicy,
}

impl Default for PreemptionConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            reprefill_factor: 1.0,
            max_evictions_per_step: 2,
            retention: RetentionPolicy::None,
        }
    }
}

impl PreemptionConfig {
    /// Preemption on, with default cost and thrash bounds and full
    /// re-prefill (no retention).
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Replaces the retention policy.
    #[must_use]
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_policy_counts_pages() {
        assert_eq!(RetentionPolicy::None.retained_pages(10), 0);
        assert_eq!(RetentionPolicy::Pages(4).retained_pages(10), 4);
        assert_eq!(RetentionPolicy::Pages(4).retained_pages(2), 2);
        assert_eq!(RetentionPolicy::Fraction(0.5).retained_pages(5), 2);
        assert_eq!(RetentionPolicy::Fraction(2.0).retained_pages(5), 5);
        assert_eq!(RetentionPolicy::Fraction(-1.0).retained_pages(5), 0);
    }

    #[test]
    fn retention_policy_parses_the_cli_grammar() {
        assert_eq!("none".parse::<RetentionPolicy>(), Ok(RetentionPolicy::None));
        assert_eq!("full".parse::<RetentionPolicy>(), Ok(RetentionPolicy::None));
        assert_eq!(
            "8".parse::<RetentionPolicy>(),
            Ok(RetentionPolicy::Pages(8))
        );
        assert_eq!(
            "0.5".parse::<RetentionPolicy>(),
            Ok(RetentionPolicy::Fraction(0.5))
        );
        assert!("1.5".parse::<RetentionPolicy>().is_err());
        assert!("cows".parse::<RetentionPolicy>().is_err());
    }
}
