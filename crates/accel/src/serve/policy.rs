//! The scheduling surface: policies choose *which* request to admit or
//! evict; the engine enforces the admission invariants.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
/// Shared by both view types and the engine's own deadline checks, so
/// pending and running requests compare on one urgency scale and the
/// engine scores lateness on the same one. The arithmetic saturates, so a
/// deadline past `i64::MAX` steps is due later than every finite one
/// instead of wrapping negative.
pub(super) fn due_step(
    enqueued_at: usize,
    last_token_at: Option<usize>,
    ttft: Option<u64>,
    itl: Option<u64>,
) -> Option<i64> {
    let due = |at: usize, d: u64| saturating_i64(at as u64).saturating_add(saturating_i64(d));
    match last_token_at {
        None => ttft.map(|d| due(enqueued_at, d) - 1),
        Some(t) => itl.map(|d| due(t, d)),
    }
}

/// `x` as an `i64`, `i64::MAX` when it does not fit.
fn saturating_i64(x: u64) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

/// Steps of slack at `step` until the deadline `due` (negative once
/// blown); `i64::MAX` when no deadline applies.
pub(super) fn slo_slack(due: Option<i64>, step: u64) -> i64 {
    due.map_or(i64::MAX, |due| due.saturating_sub(saturating_i64(step)))
}

/// A scheduling policy: the ordering brain of the serving engine.
///
/// A policy states admission order by [`rank`](Self::rank)ing each queued
/// request: least rank first, oldest arrival among equals, after the
/// client's running slots if the policy
/// [balances clients](Self::balances_clients). When that candidate does
/// not fit and preemption is enabled, the engine asks *which* running
/// request to evict for it ([`pick_victim`](Self::pick_victim)). The
/// engine enforces the invariants — the batch never exceeds its slot
/// limit or its KV page budget, and a candidate that still does not fit
/// ends admission for the step — so a policy cannot corrupt the batch,
/// only order it badly.
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
/// The built-in policies are built from [`PolicyKind`]. Shortest job first
/// admits the queued request with the fewest tokens left to generate:
///
/// ```
/// use topick_accel::{PendingView, PolicyKind};
///
/// let queued = |id: u64, remaining_tokens: usize| PendingView {
///     id,
///     priority: 0,
///     client_id: 0,
///     arrival_seq: id,
///     waited_steps: 0,
///     remaining_tokens,
///     final_context: 64,
///     enqueued_at: 0,
///     last_token_at: None,
///     ttft_deadline: None,
///     itl_deadline: None,
/// };
/// let mut sjf = PolicyKind::ShortestJobFirst.build();
/// assert_eq!(sjf.name(), "shortest-job-first");
/// assert_eq!(sjf.pick_next(&[queued(0, 8), queued(1, 2)], &[], 0), Some(1));
/// ```
pub trait SchedulerPolicy: fmt::Debug + Send {
    /// Stable, human-readable policy name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// The queued request's place in admission order at `step`: lower
    /// ranks are admitted first, ties by arrival. The engine ranks the
    /// queue once per step, so a rank is fixed for the whole step and must
    /// not read the running batch, which admissions change.
    fn rank(&self, view: &PendingView, step: u64) -> i64;

    /// Whether admission orders by the running slots each request's
    /// client holds before rank and arrival (kept current as the step
    /// admits and evicts). `false` by default.
    fn balances_clients(&self) -> bool {
        false
    }

    /// Index into `pending` of the request admission takes next with
    /// `running` as the batch, found by brute force. The engine keeps the
    /// same order in a heap and never calls this reference.
    fn pick_next(
        &mut self,
        pending: &[PendingView],
        running: &[RunningView],
        step: u64,
    ) -> Option<usize> {
        let balances = self.balances_clients();
        let key = |p: &PendingView| {
            let held = balances.then(|| client_slots(running, p.client_id));
            (held, self.rank(p, step), p.arrival_seq)
        };
        (0..pending.len()).min_by_key(|&i| key(&pending[i]))
    }

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

/// Running slots `client` holds in `running`.
fn client_slots(running: &[RunningView], client: u64) -> usize {
    running.iter().filter(|r| r.client_id == client).count()
}

/// One step's admission order: a min-heap over every candidate's key,
/// filled by one pass over the queue. The key is `(rank, arrival_seq)`,
/// or `(client slots, rank, arrival_seq)` under a policy that
/// [balances clients](SchedulerPolicy::balances_clients); an entry is then
/// `(slots, at)`, `at` indexing `by_rank`, and `slots` a lower bound on the
/// client's count, which moves within a step. Entries go in at 0 (from
/// [`fill`](Self::fill), or [`rekey`](Self::rekey) after an eviction), and
/// a popped entry off the current count goes back with it, so the first
/// exact entry popped has the least key. Entries of requests no longer
/// candidates are skipped.
#[derive(Debug, Default)]
pub(super) struct AdmissionOrder {
    heap: BinaryHeap<Reverse<(i64, u64)>>,
    /// The candidates' `(rank, arrival_seq, client_id)`, ascending, under
    /// a policy that balances clients; empty under any other.
    by_rank: Vec<(i64, u64, u64)>,
}

impl AdmissionOrder {
    /// Orders `views`, the candidates at `step`, under `policy`.
    pub(super) fn fill(
        &mut self,
        policy: &dyn SchedulerPolicy,
        views: impl Iterator<Item = PendingView>,
        step: u64,
    ) {
        self.heap.clear();
        self.by_rank.clear();
        if policy.balances_clients() {
            let key = |v: PendingView| (policy.rank(&v, step), v.arrival_seq, v.client_id);
            self.by_rank.extend(views.map(key));
            self.by_rank.sort_unstable();
            self.heap
                .extend((0..self.by_rank.len() as u64).map(|at| Reverse((0, at))));
        } else {
            let entry = |v: PendingView| Reverse((policy.rank(&v, step), v.arrival_seq));
            self.heap.extend(views.map(entry));
        }
    }

    /// The candidate with the least key; `view` gives a request's view
    /// while it is a candidate, `slots` the running slots a client holds.
    pub(super) fn pop(
        &mut self,
        view: impl Fn(u64) -> Option<PendingView>,
        slots: impl Fn(u64) -> usize,
    ) -> Option<PendingView> {
        while let Some(Reverse((key, at))) = self.heap.pop() {
            if self.by_rank.is_empty() {
                return Some(view(at).expect("a ranked request is a candidate until popped"));
            }
            let Some(v) = view(self.by_rank[at as usize].1) else {
                continue; // admitted, or evicted back, through another entry
            };
            let held = slots(v.client_id) as i64;
            if held == key {
                return Some(v);
            }
            self.heap.push(Reverse((held, at)));
        }
        None
    }

    /// An eviction lowered `client`'s slot count: its candidates go back
    /// in at 0.
    pub(super) fn rekey(&mut self, client: u64) {
        let at = (0..).zip(&self.by_rank).filter(|(_, e)| e.2 == client);
        self.heap.extend(at.map(|(at, _)| Reverse((0, at))));
    }

    /// Elements the kept buffers hold room for.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.heap.capacity() + self.by_rank.capacity()
    }
}

/// First-in-first-out with head-of-line blocking — bit-for-bit the
/// pre-redesign engine's schedule. Never preempts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fifo;

impl SchedulerPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn rank(&self, _view: &PendingView, _step: u64) -> i64 {
        0 // arrival order alone decides
    }
}

/// Highest effective priority first, where waiting raises priority: a
/// request's effective priority is `priority + waited_steps /
/// AGING_STEPS`, so low-priority work cannot starve forever. Preempts
/// strictly lower-priority running requests when allowed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PriorityAging;

/// Queue steps that add one effective priority level under
/// [`PriorityAging`]. A scheduling choice of this engine, not a paper
/// figure; every golden schedule and digest under `priority` pins it.
const AGING_STEPS: u64 = 8;

impl SchedulerPolicy for PriorityAging {
    fn name(&self) -> &'static str {
        "priority-aging"
    }

    fn rank(&self, view: &PendingView, _step: u64) -> i64 {
        // Max effective priority first.
        -saturating_i64(u64::from(view.priority) + view.waited_steps / AGING_STEPS)
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
pub(crate) struct ShortestJobFirst;

impl SchedulerPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "shortest-job-first"
    }

    fn rank(&self, view: &PendingView, _step: u64) -> i64 {
        saturating_i64(view.remaining_tokens as u64)
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
/// slots, oldest arrival first among equals. Preemption rebalances only
/// when it strictly improves fairness (the victim's client holds at least
/// two more slots than the candidate's).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FairRoundRobin;

impl SchedulerPolicy for FairRoundRobin {
    fn name(&self) -> &'static str {
        "fair-round-robin"
    }

    fn rank(&self, _view: &PendingView, _step: u64) -> i64 {
        0 // the client's slots, then arrival order, decide
    }

    fn balances_clients(&self) -> bool {
        true
    }

    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        _step: u64,
    ) -> Option<usize> {
        // From the most-over-served client, evict the member with the most
        // work left; only worthwhile if it strictly improves fairness.
        let cand_slots = client_slots(running, candidate.client_id);
        let (slot, victim) = running.iter().enumerate().max_by_key(|(_, r)| {
            (
                client_slots(running, r.client_id),
                r.remaining_tokens,
                r.arrival_seq,
            )
        })?;
        (client_slots(running, victim.client_id) >= cand_slots + 2).then_some(slot)
    }
}

/// Earliest-deadline-first admission with slack-based preemption: the
/// SLO-aware scheduler the deadline layer exists for.
///
/// Every request is placed on one urgency scale — steps of *slack* until
/// its next applicable deadline (TTFT before the first token, ITL after;
/// see `due_step`). Admission picks the least-slack queued request
/// (oldest arrival among equals), so deadline-less requests (infinite
/// slack) degrade to FIFO and a mixed workload is served EDF-first,
/// FIFO-second. Eviction targets the *most*-slack running request (most
/// remaining work, then youngest, among equals) and only fires when the
/// victim has **strictly** more slack than the candidate — a workload
/// with no deadlines anywhere never preempts, and two equally late
/// requests never thrash by evicting each other.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SloAware;

impl SchedulerPolicy for SloAware {
    fn name(&self) -> &'static str {
        "slo-aware"
    }

    fn rank(&self, v: &PendingView, step: u64) -> i64 {
        let due = due_step(
            v.enqueued_at,
            v.last_token_at,
            v.ttft_deadline,
            v.itl_deadline,
        );
        slo_slack(due, step)
    }

    fn pick_victim(
        &mut self,
        candidate: &PendingView,
        running: &[RunningView],
        step: u64,
    ) -> Option<usize> {
        let slack = |r: &RunningView| {
            let due = due_step(
                r.enqueued_at,
                r.last_token_at,
                r.ttft_deadline,
                r.itl_deadline,
            );
            slo_slack(due, step)
        };
        let (slot, victim) = running
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| (slack(r), r.remaining_tokens, r.arrival_seq))?;
        (slack(victim) > self.rank(candidate, step)).then_some(slot)
    }
}

/// The built-in policies, nameable from CLI flags and bench configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First-in-first-out with head-of-line blocking; never preempts.
    Fifo,
    /// Highest priority first, raised by waiting; preempts strictly lower
    /// priorities.
    PriorityAging,
    /// Fewest remaining tokens first; preempts for a strictly shorter job.
    ShortestJobFirst,
    /// The client holding the fewest batch slots first; preempts only to
    /// even out slots.
    FairRoundRobin,
    /// Least slack to the next deadline first; preempts the request with
    /// strictly the most slack.
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
        self.build().name()
    }

    /// Instantiates the policy with its defaults.
    #[must_use]
    pub fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            Self::Fifo => Box::new(Fifo),
            Self::PriorityAging => Box::new(PriorityAging),
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

/// Evictions the engine allows per step when preemption is on: a bound
/// on scheduling thrash. A choice of this engine, not a paper figure;
/// trace format v1 carries it as `"max_evictions_per_step":2`.
pub(super) const MAX_EVICTIONS_PER_STEP: usize = 2;

/// Preemption behavior of the engine. A re-admitted victim pays a
/// re-prefill charge for the context it dropped under
/// [`retention`](Self::retention), floored at one cycle — eviction is
/// never free.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreemptionConfig {
    /// Whether the policy may evict running requests at all. Off by
    /// default: the pre-redesign guarantee that an admitted request never
    /// leaves before finishing.
    pub enabled: bool,
    /// How much of a victim's paged KV cache survives the eviction
    /// ([`RetentionPolicy::None`], i.e. full re-prefill, by default).
    pub retention: RetentionPolicy,
}

impl PreemptionConfig {
    /// Preemption on, with full re-prefill (no retention).
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
    use super::super::queue::splitmix64;
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A queued request's view with every field drawn from `mix`, deadlines
    /// up to `u64::MAX` included.
    fn view(arrival_seq: u64, mix: u64) -> PendingView {
        let deadline = |bits: u64| match bits % 4 {
            0 => None,
            1 => Some(u64::MAX - bits % 3),
            _ => Some(1 + bits % 64),
        };
        PendingView {
            id: arrival_seq ^ 0x5A5A,
            priority: (mix % 8) as u8,
            client_id: (mix >> 3) % 4,
            arrival_seq,
            waited_steps: (mix >> 5) % 40,
            remaining_tokens: 1 + (mix >> 11) as usize % 6,
            final_context: 64,
            enqueued_at: (mix >> 14) as usize % 32,
            last_token_at: (mix >> 19)
                .is_multiple_of(2)
                .then_some((mix >> 20) as usize % 48),
            ttft_deadline: deadline(mix >> 26),
            itl_deadline: deadline(mix >> 34),
        }
    }

    /// The running batch's view of queued request `v`, admitted.
    fn admitted(v: &PendingView) -> RunningView {
        RunningView {
            id: v.id,
            priority: v.priority,
            client_id: v.client_id,
            arrival_seq: v.arrival_seq,
            admitted_at: v.enqueued_at,
            remaining_tokens: v.remaining_tokens,
            context: 16,
            final_context: v.final_context,
            enqueued_at: v.enqueued_at,
            last_token_at: v.last_token_at,
            ttft_deadline: v.ttft_deadline,
            itl_deadline: v.itl_deadline,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Popping every view's `(rank, arrival_seq)` off a heap admits in
        /// the order that asking `pick_next` again after each admission
        /// does, for every policy, with no batch running.
        #[test]
        fn ranked_heap_pops_in_pick_next_order(
            seed in any::<u64>(),
            len in 1usize..48,
            step in 0u64..64,
        ) {
            let views: Vec<PendingView> = (0..len as u64)
                .map(|seq| view(seq * 3, splitmix64(seed ^ seq.rotate_left(29))))
                .collect();
            for kind in PolicyKind::all() {
                let mut policy = kind.build();
                let mut heap: BinaryHeap<_> = views
                    .iter()
                    .map(|v| Reverse((policy.rank(v, step), v.arrival_seq)))
                    .collect();
                let popped: Vec<u64> =
                    std::iter::from_fn(|| heap.pop().map(|Reverse((_, seq))| seq)).collect();
                let mut left = views.clone();
                let mut picked = Vec::new();
                while let Some(i) = policy.pick_next(&left, &[], step) {
                    picked.push(left.remove(i).arrival_seq);
                }
                prop_assert!(left.is_empty(), "{}: pick_next stopped early", kind);
                prop_assert_eq!(popped, picked);
            }
        }

        /// Every pop of the admission order is the request `pick_next`
        /// picks over the candidates left and the running batch, for every
        /// policy, while pops join a random batch and random running
        /// requests (clients from a set of four) are evicted between pops.
        #[test]
        fn ranked_admission_order_pops_what_pick_next_picks(
            seed in any::<u64>(),
            len in 0usize..40,
            batch in 0usize..10,
            step in 0u64..64,
        ) {
            let draw = |seq: u64| view(seq, splitmix64(seed ^ seq.rotate_left(29)));
            let views: Vec<PendingView> = (0..len as u64).map(|i| draw(2 * i)).collect();
            let batch: Vec<RunningView> =
                (0..batch as u64).map(|i| admitted(&draw(2 * i + 1))).collect();
            for kind in PolicyKind::all() {
                let mut policy = kind.build();
                let (mut live, mut running) = (views.clone(), batch.clone());
                let mut order = AdmissionOrder::default();
                order.fill(&*policy, live.iter().copied(), step);
                let mut mix = seed;
                loop {
                    let popped = order.pop(
                        |seq| live.iter().find(|v| v.arrival_seq == seq).copied(),
                        |c| client_slots(&running, c),
                    );
                    let picked = policy.pick_next(&live, &running, step).map(|i| live[i]);
                    prop_assert_eq!(popped, picked, "{}", kind);
                    let Some(v) = popped else {
                        break;
                    };
                    live.retain(|l| l.arrival_seq != v.arrival_seq);
                    running.push(admitted(&v));
                    for _ in 0..2 {
                        mix = splitmix64(mix);
                        if mix.is_multiple_of(3) && !running.is_empty() {
                            let victim = running.remove((mix >> 8) as usize % running.len());
                            order.rekey(victim.client_id);
                        }
                    }
                }
                prop_assert!(live.is_empty(), "{}: candidates left over", kind);
            }
        }
    }

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
