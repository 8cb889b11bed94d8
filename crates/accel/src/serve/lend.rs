//! Attention work shared by two cores: one pool of work, either one
//! step's attention instances or one attention batch of the real-token
//! model.
//!
//! Whoever owns the engines — an engine stepping itself, a cluster
//! stepping its shards, which share one accelerator and seed — lets each
//! admit, then pools the instances their slot loops are about to ask for
//! ([`pool_attention`]) and, when those are odd in number, the largest
//! instance a slot loop will ask for one step later ([`lookahead`]), each
//! a pure function of `(accelerator, engine seed, request id, context)`
//! ([`simulate_attention`]). A
//! [`SimulatedAttention`] batch — one layer's `tokens × heads` calls of a
//! forward run ([`AttendBatch`]) — is a pool of calls ([`attend_batch`]).
//! Either pool is one list of [`Work`], ordered largest first and handed
//! whole to the helper thread as one owned [`Job`] with one claim cursor:
//! the calling thread starts on the largest item and the helper on the
//! second, and each then claims the next unclaimed item until none is
//! left ([`Claims`]; longest-job-first self-scheduling, Graham 1969), so
//! neither thread idles while the other still has an item to start, and
//! the last to start are the smallest. What comes back is applied in item
//! order — a step kept on its request for a slot loop to find, a call's
//! output and costs added to the backend where the calls one after
//! another would leave them — so which thread ran an item cannot show,
//! and shared and serial are one construction with permanent differential
//! tests, not two paths.
//!
//! The helper is [`helper`](super::helper)'s: one thread, lazily started,
//! absent on one core, `try_lock` only, owned jobs whose buffers come back
//! for the next job of either kind. With no helper to be had — busy with
//! another owner's pool, absent, dead — nothing is shared: each slot loop
//! simulates its instances where it always has, and a batch runs its calls
//! in order on the calling thread. An item a helper claimed and died
//! holding is run the same way.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use topick_core::{QuantBuffer, Rows};
use topick_model::{AttendBatch, CodeScratch, KvView, SynthProfile};

use super::batch_state::{ActiveRequest, SimulatedStep};
use super::helper::HelperSlot;
use super::{ServeError, ServingEngine, SlotWork};
use crate::backend::{simulate, Attended, SimulatedAttention};
use crate::engine::ToPickAccelerator;

// The smallest pools worth sharing, in key elements. A handoff is two
// channel hops — the job to the helper, the job back — and with both ends
// polling each hop takes about 1 µs at the median on a 2-core x86-64 Xeon
// host, but 25–55 µs in the slowest tenth of `long-decode`'s, whose pools
// can be milliseconds apart (blocking on both ends, a handoff measured
// 40–70 µs). A pool pays the one handoff it gets, so the floors are sized
// on that tail: sharing `n` elements saves about half their cost less one
// handoff, and a floor is where that saving also pays a measured margin
// of handoffs more. Derived and checked, not tuned, and not options.
// - An instance element costs ≥ 11.7 ns there (as clocked at ≈ 0.83 of
//   the benchmark's reference speed): synthesis 6.5–7.5 ns (the sampler's
//   AVX-512 copy; 18.5–23 baseline), quantization and `attention_cost`
//   5.2–6.6 at dim 64 from 256 tokens up (the quantizer's AVX-512 copy;
//   9–15 at 16–64). With one handoff of margin, `n · 5.85 ns ≥ (1 + 1) ·
//   25…55 µs` gives 8 500–18 800: 256 tokens × 64 stays. Drawing key
//   codes (`SynthProfile::generate_codes`) cut synthesis and quantization to
//   about 6 ns an element on the same host: `n · 5 ns` gives 10 000–22 000,
//   and the floor still stays. Floors of 4 096,
//   8 192 and 16 384 shared the same steps of `prefix-chat`, `queue-drain`
//   and `long-decode` (each pool these lend is one instance or past all
//   three) and timed the same within noise. Twice this floor (32 768) cost
//   `prefix-chat` ×0.973 (8 of 10 pairs slower) and `cluster-agentic`
//   ×0.991 in `wall_tokens_per_s` over ten alternating benchmark pairs,
//   measured with blocking waits: their pools of 16 000–32 000 elements
//   are worth lending.
// - A call costs 11 µs + 12 ns per element at the real-token model's head
//   width of 16, and a lent batch also copies in every query and the rows
//   its calls read (25 KB for 200 rows of 16, a few µs). With three
//   handoffs of margin, `n · 6 ns ≥ (1 + 3) · 25…55 µs` gives
//   16 700–36 700: 32 768 stays. A decode at 200 tokens (4 heads × 200 ×
//   16 = 12 800) stays under it.
const SHARE_MIN_ELEMS: usize = 16 * 1024;
const BATCH_SHARE_MIN_ELEMS: usize = 32 * 1024;

/// How often steps used the second core for their attention instances, of
/// every size — whether a run that could have been spread over two cores
/// was. A step is a step of whatever owns the engines: a cluster step, all
/// shards in one pool, when a cluster does. Host-side bookkeeping only: it
/// depends on the machine and on what else the process is doing, so it is
/// no part of [`ServingReport`](super::ServingReport),
/// [`Trace`](super::Trace) or any digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LendingStats {
    /// Steps whose pool of instances was shared with the helper thread.
    pub pooled_steps: usize,
    /// Instances the helper thread simulated in those steps.
    pub lent_instances: usize,
    /// Steps whose pool was large enough to share but ran on the stepping
    /// thread alone, or lost the helper's items to its death: the helper
    /// was busy with another engine or cluster, absent (one core, or its
    /// spawn failed) or died.
    pub fallbacks: usize,
}

impl std::ops::AddAssign for LendingStats {
    fn add_assign(&mut self, other: Self) {
        self.pooled_steps += other.pooled_steps;
        self.lent_instances += other.lent_instances;
        self.fallbacks += other.fallbacks;
    }
}

/// One item of a pool, weighing the key elements it reads.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// The request at `slot` of `shard`, at `context`.
    Instance {
        shard: usize,
        slot: usize,
        id: u64,
        context: usize,
    },
    /// Call `call` of a batch: one query over the first `rows` rows of
    /// `head`.
    Call {
        call: usize,
        head: usize,
        rows: usize,
    },
}

impl Work {
    fn call(batch: &AttendBatch<'_>, call: usize) -> Self {
        let (head, rows) = batch.shape(call);
        Self::Call { call, head, rows }
    }

    fn elements(self, dim: usize) -> usize {
        dim * match self {
            Self::Instance { context, .. } => context,
            Self::Call { rows, .. } => rows,
        }
    }
}

/// Whether a pool of items weighing `elems` is worth a handoff: two or
/// more items of `floor` elements together.
fn worth_lending(elems: impl Iterator<Item = usize>, floor: usize) -> bool {
    let (items, total) = elems.fold((0, 0), |(n, sum), e| (n + 1, sum + e));
    items >= 2 && total >= floor
}

/// `pool` ordered largest first, ties in pool order.
fn largest_first(pool: impl Iterator<Item = Work>, dim: usize) -> Vec<Work> {
    let mut order: Vec<Work> = pool.collect();
    order.sort_by_key(|item| Reverse(item.elements(dim)));
    order
}

/// Where the caller and the helper start in a pool ordered largest first.
const CALLER_FIRST: usize = 0;
const HELPER_FIRST: usize = 1;

/// The positions one thread runs of a pool of `len` items: its own first
/// item, then each next unclaimed one, taken from the cursor both threads
/// share, until none is left. Each position goes to exactly one thread:
/// `fetch_add` is one atomic step at any ordering. `Relaxed` suffices
/// because the cursor publishes nothing — what an item reads travels to
/// the helper with the job and its result comes back with it, over
/// channels that order both.
#[derive(Debug)]
struct Claims {
    cursor: Arc<AtomicUsize>,
    first: Option<usize>,
    len: usize,
}

impl Iterator for Claims {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let pos = self
            .first
            .take()
            .unwrap_or_else(|| self.cursor.fetch_add(1, Ordering::Relaxed));
        (pos < self.len).then_some(pos)
    }
}

/// What one item left: an instance's step (`None` if it failed, which its
/// slot loop meets again), or a call's output and costs.
#[derive(Debug)]
enum Done {
    Instance(Option<SimulatedStep>),
    Call(Attended),
}

/// A whole pool for the helper, with everything its items read owned — a
/// batch's queries (`dim` wide, back to back in call order) and its heads'
/// rows — and the result of each item the helper ran. Kept for its
/// buffers from one job to the next, of either kind.
#[derive(Debug)]
pub(crate) struct Job {
    accel: ToPickAccelerator,
    seed: u64,
    dim: usize,
    /// The pool, largest item first.
    work: Vec<Work>,
    /// The position in `work` of the next unclaimed item.
    cursor: Arc<AtomicUsize>,
    queries: Vec<f32>,
    rows: Vec<(Vec<f32>, Vec<f32>)>,
    /// The helper's items, by position in `work`, in the order it ran them.
    done: Vec<(usize, Done)>,
    /// The helper thread's own key buffers.
    scratch: KeyScratch,
}

impl Job {
    /// What the helper thread runs on each job.
    fn run(&mut self) {
        self.done.clear();
        for pos in self.claims(HELPER_FIRST) {
            let done = self.item(pos);
            self.done.push((pos, done));
        }
    }

    /// The positions of this job's pool a thread starting at `first` runs.
    fn claims(&self, first: usize) -> Claims {
        Claims {
            cursor: Arc::clone(&self.cursor),
            first: Some(first),
            len: self.work.len(),
        }
    }

    /// Runs the item at `pos`.
    fn item(&mut self, pos: usize) -> Done {
        match self.work[pos] {
            Work::Instance { id, context, .. } => Done::Instance(
                simulate_attention(&self.accel, self.seed, id, context, &mut self.scratch).ok(),
            ),
            Work::Call { call, head, rows } => {
                let dim = self.dim;
                let q = &self.queries[call * dim..(call + 1) * dim];
                let (keys, values) = &self.rows[head];
                let kv = KvView::new(
                    Rows::new(&keys[..rows * dim], dim),
                    Rows::new(&values[..rows * dim], dim),
                );
                Done::Call(simulate(&self.accel, &mut self.scratch.codes, q, kv))
            }
        }
    }

    /// Fills the job with `batch`, whose calls `order` lists: every call's
    /// query, and every head's rows as far as the last call, the furthest,
    /// reads.
    fn calls(&mut self, batch: &AttendBatch<'_>, order: &[Work]) {
        self.dim = batch.dim();
        self.work.extend_from_slice(order);
        for i in 0..batch.len() {
            self.queries.extend_from_slice(batch.call(i).0);
        }
        let rows = batch.shape(batch.len() - 1).1;
        self.rows.resize_with(batch.heads().len(), Default::default);
        for (kv, (keys, values)) in batch.heads().iter().zip(&mut self.rows) {
            let kv = kv.prefix(rows);
            keys.clear();
            keys.extend_from_slice(kv.keys().data());
            values.clear();
            values.extend_from_slice(kv.values().data());
        }
    }
}

/// The key buffers a thread keeps from one simulation to the next: what
/// drawing an instance's key codes works in and the codes of an
/// instance's or a call's keys. Freed and re-allocated per instance on two
/// threads at once, the 300–500 KB buffers of long contexts raise the
/// process's peak memory by a fifth (measured; CHANGES has the runs);
/// kept, each thread holds one of each, as large as its largest instance
/// so far.
#[derive(Debug, Default)]
pub(super) struct KeyScratch {
    draw: CodeScratch,
    codes: QuantBuffer,
}

/// The one helper, with the last job back.
pub(crate) type Lender = HelperSlot<Job>;

#[cfg(test)]
impl Lender {
    /// A helper of the test's own, shared with even where [`LENDER`] would
    /// not start (one core) or is taken by a parallel test.
    pub(super) fn with_helper(work: fn(&mut Job)) -> Mutex<Self> {
        let helper = super::helper::Helper::spawn("test-attention", work).expect("spawn");
        Mutex::new(Self::Running(helper))
    }

    /// [`with_helper`](Self::with_helper) doing the real work.
    pub(super) fn private() -> Mutex<Self> {
        Self::with_helper(Job::run)
    }

    /// What [`LENDER`] is on one core: the serial twin's.
    pub(super) fn absent() -> Mutex<Self> {
        Mutex::new(Self::Absent)
    }
}

/// The process-wide helper. Only ever `try_lock`ed: a pool that finds it
/// taken runs serially, so two engines or models on two threads never
/// wait on each other; a poisoned lock (a pool panicked while shared,
/// possibly leaving a job in flight) reads as taken forever.
pub(crate) static LENDER: Mutex<Lender> = Mutex::new(HelperSlot::Unstarted {
    name: "topick-attention",
    work: Job::run,
});

/// The one lend sequence: hands `lender`'s helper, when it is free, the
/// job `fill` writes — a pool ordered largest first — into the buffers of
/// the last job back, on `accel` with `seed`. Returns the helper holding
/// it and the positions the caller claims, for the caller to run before it
/// [`collect`](HelperSlot::collect)s. `None`: no helper took the job.
fn lend<'l>(
    lender: &'l Mutex<Lender>,
    accel: ToPickAccelerator,
    seed: u64,
    fill: impl FnOnce(&mut Job),
) -> Option<(MutexGuard<'l, Lender>, Claims)> {
    let mut helper = lender.try_lock().ok()?;
    let mut claims = None;
    let lent = helper.lend(|spare| {
        let mut job = match spare {
            Some(spare) => Job {
                accel,
                seed,
                ..spare
            },
            None => Job {
                accel,
                seed,
                dim: 0,
                work: Vec::new(),
                cursor: Arc::default(),
                queries: Vec::new(),
                rows: Vec::new(),
                done: Vec::new(),
                scratch: KeyScratch::default(),
            },
        };
        job.work.clear();
        job.queries.clear();
        fill(&mut job);
        // The two first items are taken; the cursor hands out the rest.
        job.cursor.store(HELPER_FIRST + 1, Ordering::Relaxed);
        claims = Some(job.claims(CALLER_FIRST));
        job
    });
    let claims = claims.filter(|_| lent)?;
    Some((helper, claims))
}
/// One cycle-level attention simulation of request `req_id` at `context`.
/// The synthetic workload is deterministic in `(seed, req_id, context)`,
/// so the result is a pure function of its arguments — `scratch` only
/// lends its allocations. Serving keeps only what the step costs, so
/// neither the value matrix nor the output vector is ever produced.
pub(super) fn simulate_attention(
    accel: &ToPickAccelerator,
    seed: u64,
    req_id: u64,
    context: usize,
    scratch: &mut KeyScratch,
) -> Result<SimulatedStep, ServeError> {
    let dim = accel.config().dim;
    let pc = accel.config().precision;
    let seed = seed
        .wrapping_add(req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((context as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    let profile = SynthProfile::realistic(context, dim);
    let (q, keys) = profile.generate_codes(seed, pc, &mut scratch.draw, &mut scratch.codes);
    let result = accel.attention_cost(&q, &keys);
    scratch.codes.reclaim(keys);
    let cost = result?;
    Ok(SimulatedStep {
        context,
        head_cycles: cost.cycles,
        prune: cost.prune,
    })
}

impl ServingEngine {
    /// Leaves `step` on the request at `slot` for its
    /// [`slot_attention`](Self::slot_attention) to find.
    fn keep_attention(&mut self, slot: usize, step: SimulatedStep) {
        #[cfg(test)]
        {
            self.simulations += 1;
        }
        self.running[slot].kept_attention.keep(step);
    }
}

/// What every slot of `shards` does this step, in `(shard, slot)` order:
/// the walk each slot loop takes under its
/// [`ChunkBudget`](super::ChunkBudget).
fn slot_work(
    shards: &[ServingEngine],
) -> impl Iterator<Item = (usize, usize, &ActiveRequest, SlotWork)> + '_ {
    shards.iter().enumerate().flat_map(|(shard, engine)| {
        let mut budget = engine.chunk_budget();
        engine
            .running
            .iter()
            .enumerate()
            .map(move |(slot, r)| (shard, slot, r, budget.next(r.kv.prefill_owed())))
    })
}

/// This step's pool: every instance the slot loops of `shards` will ask
/// for, in `(shard, slot)` order — each slot that will simulate and has no
/// kept step at its context.
fn pool(shards: &[ServingEngine]) -> impl Iterator<Item = Work> + '_ {
    slot_work(shards)
        .filter(|(_, _, r, work)| work.simulates() && !r.kept_attention.holds(r.context()))
        .map(|(shard, slot, r, _)| Work::Instance {
            shard,
            slot,
            id: r.req.id,
            context: r.context(),
        })
}

/// The instance that evens out an odd pool: of the slots this step gives a
/// token, that have another token to generate after it and whose next
/// decode is not kept yet, the largest next decode — the instance its next
/// token runs at, one past its context now — ties in pool order. Every
/// instance a step simulates is one a token consumes: this one, the next
/// step's slot loop.
fn lookahead(shards: &[ServingEngine], dim: usize) -> Option<Work> {
    slot_work(shards)
        .filter(|(_, _, r, work)| {
            *work == SlotWork::Decode
                && r.req.max_new_tokens - r.stats.generated >= 2
                && !r.kept_attention.holds(r.context() + 1)
        })
        .map(|(shard, slot, r, _)| Work::Instance {
            shard,
            slot,
            id: r.req.id,
            context: r.context() + 1,
        })
        .min_by_key(|item| Reverse(item.elements(dim)))
}

/// This step's pool, evened out: with an odd number of instances, one
/// thread would run the last alone while the other idles, so the pool
/// takes its [`lookahead`], if there is one, too.
fn even_pool(shards: &[ServingEngine], dim: usize) -> Vec<Work> {
    let mut items: Vec<Work> = pool(shards).collect();
    if items.len() % 2 == 1 {
        items.extend(lookahead(shards, dim));
    }
    items
}

/// Simulates the [`even_pool`] of one step of `shards` — engines sharing
/// one accelerator configuration and seed, each between admission and its
/// slot loop — on two cores when that is worth a handoff and `lender` has
/// a helper free, leaving each result as a kept step
/// [`slot_attention`](ServingEngine::slot_attention) consumes, this step or
/// the next. An instance that fails, or that a helper died holding, is not
/// kept: its slot loop simulates it, meeting the same error at the same
/// slot, after the same earlier slots. A pool that is not lent simulates
/// nothing, so it never looks ahead. Returns what the step adds to its
/// owner's [`LendingStats`].
pub(super) fn pool_attention(shards: &mut [ServingEngine], lender: &Mutex<Lender>) -> LendingStats {
    let (accel, seed) = (&shards[0].accel, shards[0].cfg.seed);
    // The helper runs every shard's instances on the first's accelerator.
    debug_assert!(shards
        .iter()
        .all(|s| s.cfg.seed == seed && s.accel.config() == accel.config()));
    let dim = accel.config().dim;
    let items = even_pool(shards, dim);
    if !worth_lending(items.iter().map(|item| item.elements(dim)), SHARE_MIN_ELEMS) {
        return LendingStats::default();
    }
    let fallback = LendingStats {
        fallbacks: 1,
        ..LendingStats::default()
    };
    let order = largest_first(items.into_iter(), dim);
    let fill = |job: &mut Job| job.work.extend_from_slice(&order);
    let Some((mut helper, claims)) = lend(lender, accel.clone(), seed, fill) else {
        return fallback;
    };
    for pos in claims {
        if let Work::Instance {
            shard,
            slot,
            id,
            context,
        } = order[pos]
        {
            let engine = &mut shards[shard];
            let step = simulate_attention(&engine.accel, seed, id, context, &mut engine.scratch);
            if let Ok(step) = step {
                engine.keep_attention(slot, step);
            }
        }
    }
    let mut lent_instances = 0;
    let collected = helper.collect(|job| {
        for (pos, done) in job.done.drain(..) {
            if let (Work::Instance { shard, slot, .. }, Done::Instance(Some(step))) =
                (order[pos], done)
            {
                shards[shard].keep_attention(slot, step);
                lent_instances += 1;
            }
        }
    });
    if !collected {
        // The helper died holding its items: those slots have no kept
        // step and their slot loops simulate them.
        return fallback;
    }
    LendingStats {
        pooled_steps: 1,
        lent_instances,
        fallbacks: 0,
    }
}

/// Runs `batch` on `sim` — shared with `lender`'s helper when the batch is
/// worth a handoff and the helper is free, on the calling thread otherwise
/// — and returns the outputs in call order. Each call's output and costs
/// are added to `sim` in call order, whichever thread ran it, so the
/// outputs and `sim`'s cycles, statistics and energy (whose float sum
/// depends on the order) are those of the calls one after another. A call
/// the helper died holding is run by the caller.
pub(crate) fn attend_batch(
    sim: &mut SimulatedAttention,
    batch: &AttendBatch<'_>,
    lender: &Mutex<Lender>,
) -> Vec<f32> {
    let (dim, calls) = (batch.dim(), batch.len());
    // Calls run before their turn to be added, by call: none unless lent.
    let mut ran: Vec<Option<Attended>> = Vec::new();
    let elems = (0..calls).map(|i| Work::call(batch, i).elements(dim));
    if worth_lending(elems, BATCH_SHARE_MIN_ELEMS) {
        let order = largest_first((0..calls).map(|i| Work::call(batch, i)), dim);
        let accel = ToPickAccelerator::new(sim.config().clone());
        let fill = |job: &mut Job| job.calls(batch, &order);
        if let Some((mut helper, claims)) = lend(lender, accel, 0, fill) {
            ran.resize_with(calls, || None);
            for pos in claims {
                if let Work::Call { call, .. } = order[pos] {
                    let (q, kv) = batch.call(call);
                    ran[call] = Some(sim.run(q, kv));
                }
            }
            helper.collect(|job| {
                for (pos, done) in job.done.drain(..) {
                    if let (Work::Call { call, .. }, Done::Call(done)) = (order[pos], done) {
                        ran[call] = Some(done);
                    }
                }
            });
        }
    }
    let mut out = Vec::with_capacity(calls * dim);
    for i in 0..calls {
        let call = match ran.get_mut(i).and_then(Option::take) {
            Some(call) => call,
            None => {
                let (q, kv) = batch.call(i);
                sim.run(q, kv)
            }
        };
        out.extend(sim.record(call));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use topick_model::AttentionBackend;

    use super::*;
    use crate::config::{AccelConfig, AccelMode};
    use crate::serve::helper::Helper;
    use crate::serve::queue::Queued;
    use crate::serve::{
        PolicyKind, PreemptionConfig, RetentionPolicy, ServeEvent, ServingConfig, ServingReport,
        ServingRequest,
    };

    /// Shared prefixes, priced and chunked prefill, preemption with paged
    /// retention and a host tier: every way a kept step is made, handed
    /// over and dropped.
    fn idle_engine(seed: u64) -> ServingEngine {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        let mut cfg = ServingConfig::new(accel);
        cfg.heads = 2;
        cfg.weight_bytes = 1_000_000;
        cfg.seed = seed;
        cfg.admission.max_batch = 6;
        cfg.admission.max_batch_tokens = 1536;
        cfg.admission.prefix_cache = true;
        cfg.prefill_factor = 1.0;
        cfg.prefill_chunk_pages = 12;
        cfg.host_pages = 64;
        cfg.preemption = PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.5));
        ServingEngine::builder(cfg.accel.clone())
            .config(cfg)
            .policy(PolicyKind::PriorityAging)
            .build()
    }

    /// [`idle_engine`] with contexts of 48–144 tokens (3–9 k elements
    /// each) around three of 272–300 that are past the pool's floor each
    /// on their own. Six patient requests fill the batch and build their
    /// prompts; urgent ones then arrive one a step and evict them
    /// mid-decode.
    fn engine(seed: u64) -> ServingEngine {
        let mut engine = idle_engine(seed);
        for id in 0..14u64 {
            let urgent = id >= 6;
            let prompt = match id {
                4 => 288,
                5 => 300,
                9 => 272,
                _ => 48 + (id as usize % 5) * 32,
            };
            let request = ServingRequest::new(id, prompt, if urgent { 3 } else { 8 })
                .with_priority(if urgent { 9 } else { 0 })
                .with_shared_prefix(id % 2, 32)
                .arriving_at(if urgent { id - 2 } else { 0 });
            engine.enqueue(request).expect("valid request");
        }
        engine
    }

    type Run = (Result<ServingReport, ServeError>, Vec<ServeEvent>);

    fn run(engine: &mut ServingEngine, lender: &Mutex<Lender>) -> Run {
        run_watching(engine, lender, |_| {})
    }

    /// [`run`], handing the engine to `watch` after every step.
    fn run_watching(
        engine: &mut ServingEngine,
        lender: &Mutex<Lender>,
        mut watch: impl FnMut(&ServingEngine),
    ) -> Run {
        let result = loop {
            let step = engine.step_lending_to(lender);
            watch(engine);
            match step {
                Ok(Some(_)) => {}
                Ok(None) => break Ok(engine.report()),
                Err(e) => break Err(e),
            }
        };
        (result, engine.drain_events())
    }

    /// The run of `engine(seed)` with no helper to lend to.
    fn serial(seed: u64) -> Run {
        let mut serial = engine(seed);
        let run = run(&mut serial, &Lender::absent());
        let stats = serial.lending_stats();
        assert_eq!((stats.pooled_steps, stats.lent_instances), (0, 0));
        if let Ok(report) = &run.0 {
            let saw = |wanted: fn(&ServeEvent) -> bool| run.1.iter().any(wanted);
            assert!(saw(|e| matches!(e, ServeEvent::PrefillChunk { .. })));
            assert!(saw(|e| matches!(e, ServeEvent::Preempted { .. })));
            assert!(saw(|e| matches!(e, ServeEvent::SwappedIn { .. })));
            assert_eq!(serial.simulations, report.tokens_generated);
        }
        run
    }

    #[test]
    fn a_pooled_run_equals_its_serial_twin() {
        let lender = Lender::private();
        for seed in 0..3 {
            let mut pooled = engine(seed);
            assert_eq!(run(&mut pooled, &lender), serial(seed), "seed {seed}");
            let stats = pooled.lending_stats();
            assert!(stats.pooled_steps > 0 && stats.lent_instances >= stats.pooled_steps);
            assert_eq!(stats.fallbacks, 0);
            // One simulation per token, whichever thread ran it.
            assert_eq!(pooled.simulations, pooled.report().tokens_generated);
        }
        assert!(matches!(*lender.lock().unwrap(), HelperSlot::Running(_)));
    }

    #[test]
    fn a_request_evicted_holding_its_next_decode_uses_it_when_readmitted() {
        // Three whole prompts decode from the first step, a pool of three
        // that takes along request 2's next decode, the largest. At step 1
        // an urgent arrival evicts request 2, the lowest priority, before
        // its slot loop uses the kept step; re-admitted, it uses it then.
        let runs = [Lender::private(), Lender::absent()].map(|lender| {
            let mut engine = idle_engine(5);
            engine.cfg.prefill_chunk_pages = 0;
            engine.cfg.admission.max_batch = 3;
            for (id, prompt, priority, arrival) in [
                (0, 100, 1, 0),
                (1, 100, 1, 0),
                (2, 300, 0, 0),
                (3, 100, 9, 1),
            ] {
                let request = ServingRequest::new(id, prompt, 6)
                    .with_priority(priority)
                    .arriving_at(arrival);
                engine.enqueue(request).expect("valid request");
            }
            let mut evicted_holding = Vec::new();
            let run = run_watching(&mut engine, &lender, |engine| {
                // A queued request that has decoded was evicted; holding
                // the step at its context, it took it along.
                let holding = engine
                    .pending
                    .iter()
                    .filter_map(Queued::started)
                    .filter(|r| r.stats.generated > 0 && r.kept_attention.holds(r.context()));
                evicted_holding.extend(holding.map(|r| r.req.id));
            });
            // Every kept step was used: one simulation per token.
            assert_eq!(engine.simulations, engine.report().tokens_generated);
            (run, evicted_holding)
        });
        let [(pooled, evicted_holding), (serial, _)] = runs;
        assert!(pooled.0.is_ok());
        assert_eq!(pooled, serial);
        assert!(evicted_holding.contains(&2), "{evicted_holding:?}");
    }

    /// [`idle_engine`] serving `(prompt, new tokens)` requests, all
    /// arrived, pooled through `lender` and serially, and the pooled run's
    /// lending.
    fn pooled_and_serial(
        lender: Mutex<Lender>,
        requests: &[(usize, usize)],
    ) -> (Run, Run, LendingStats) {
        let runs = [lender, Lender::absent()].map(|lender| {
            let mut engine = idle_engine(5);
            for (id, &(prompt, tokens)) in requests.iter().enumerate() {
                let request = ServingRequest::new(id as u64, prompt, tokens);
                engine.enqueue(request).expect("valid request");
            }
            let run = run(&mut engine, &lender);
            assert_eq!(engine.simulations, engine.report().tokens_generated);
            (run, engine.lending_stats())
        });
        let [(pooled, lending), (serial, _)] = runs;
        (pooled, serial, lending)
    }

    /// The contexts of each pool [`recording`] was handed, in pool order.
    static RECORDED: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());

    /// A helper that records the contexts of its job's instances, then
    /// runs it.
    fn recording(job: &mut Job) {
        let contexts = job.work.iter().map(|item| match *item {
            Work::Instance { context, .. } => context,
            Work::Call { rows, .. } => rows,
        });
        RECORDED.lock().unwrap().push(contexts.collect());
        job.run();
    }

    #[test]
    fn a_lone_request_is_lent_in_pairs_of_its_current_and_next_context() {
        // 400 tokens × 64 is past the floor. Its prompt builds in chunks at
        // context 400, whose kept step its first token reuses; each later
        // pool of one then takes the next decode along, and the step after
        // it finds its token kept and pools nothing. The last token has no
        // next one, so its pool of one is not lent.
        let (pooled, serial, lending) =
            pooled_and_serial(Lender::with_helper(recording), &[(400, 6)]);
        assert!(pooled.0.is_ok());
        assert_eq!(pooled, serial);
        assert_eq!(*RECORDED.lock().unwrap(), [[402, 401], [404, 403]]);
        let pairs = LendingStats {
            pooled_steps: 2,
            lent_instances: 2,
            fallbacks: 0,
        };
        assert_eq!(lending, pairs);
    }

    #[test]
    fn a_request_on_its_last_token_never_looks_ahead() {
        // The same request with two tokens: its first reuses the prompt's
        // kept step, its last is a pool of one with nothing to take along.
        let (pooled, serial, lending) = pooled_and_serial(
            Lender::with_helper(|_| panic!("touched the helper")),
            &[(400, 2)],
        );
        assert!(pooled.0.is_ok());
        assert_eq!(pooled, serial);
        assert_eq!(lending, LendingStats::default());
    }

    #[test]
    fn an_even_pool_takes_nothing_and_an_odd_pool_its_largest_next_decode() {
        // Whole prompts, all decoding from the first step: `(prompt, new
        // tokens)` per request, and the pool as `(slot, context)`.
        type Case = (&'static [(usize, usize)], &'static [(usize, usize)]);
        let cases: [Case; 5] = [
            (&[(100, 4), (300, 4)], &[(0, 100), (1, 300)]),
            (
                &[(100, 4), (300, 4), (200, 4)],
                &[(0, 100), (1, 300), (2, 200), (1, 301)],
            ),
            // Ties go to the first in pool order.
            (
                &[(300, 4), (100, 4), (300, 4)],
                &[(0, 300), (1, 100), (2, 300), (0, 301)],
            ),
            // A request on its last token is no candidate, even the
            // largest.
            (
                &[(300, 1), (100, 4), (200, 4)],
                &[(0, 300), (1, 100), (2, 200), (2, 201)],
            ),
            (&[(300, 1)], &[(0, 300)]),
        ];
        for (requests, pool) in cases {
            let mut engine = idle_engine(5);
            engine.cfg.prefill_chunk_pages = 0;
            for (id, &(prompt, tokens)) in requests.iter().enumerate() {
                let request = ServingRequest::new(id as u64, prompt, tokens);
                engine.enqueue(request).expect("valid request");
            }
            engine.begin_step();
            let items: Vec<(usize, usize)> = even_pool(std::slice::from_ref(&engine), 64)
                .into_iter()
                .map(|item| match item {
                    Work::Instance { slot, context, .. } => (slot, context),
                    Work::Call { .. } => unreachable!("a step pools instances"),
                })
                .collect();
            assert_eq!(items, pool, "{requests:?}");
        }
    }

    #[test]
    fn two_large_instances_go_one_to_each_thread() {
        let (pooled, serial, lending) = pooled_and_serial(Lender::private(), &[(400, 6), (300, 6)]);
        assert!(pooled.0.is_ok());
        assert_eq!(pooled, serial);
        // Chunked prefill builds one prompt at a time; every step both
        // requests decode in is a pool of two.
        assert!(lending.pooled_steps > 0);
        assert_eq!(lending.lent_instances, lending.pooled_steps);
        assert_eq!(lending.fallbacks, 0);
    }

    #[test]
    fn a_simulation_that_fails_in_the_pool_is_not_kept() {
        let broken = |seed| {
            let mut engine = engine(seed);
            // `attention_cost` refuses an accelerator without lanes, on
            // either thread.
            let mut accel = engine.cfg.accel.clone();
            accel.lanes = 0;
            engine.accel = ToPickAccelerator::new(accel);
            // Whole prompts in one step, so the first step's four arrivals
            // all ask for a simulation and make a pool.
            engine.cfg.prefill_chunk_pages = 0;
            engine
        };
        let mut pooled = broken(4);
        let mut serial = broken(4);
        let pooled_run = run(&mut pooled, &Lender::private());
        let serial_run = run(&mut serial, &Lender::absent());
        assert!(matches!(pooled_run.0, Err(ServeError::Core(_))));
        // Same error, after the same events: the failing slot was reached
        // by the slot loop, not short-cut by the pool.
        assert_eq!(pooled_run, serial_run);
        assert_eq!(pooled.lending_stats().pooled_steps, 1);
        assert_eq!(pooled.lending_stats().lent_instances, 0);
        let kept = |r: &ActiveRequest| {
            r.kept_attention.holds(r.context()) || r.kept_attention.holds(r.context() + 1)
        };
        assert!(!pooled.running.iter().any(kept));
    }

    #[test]
    fn threaded_engines_sharing_the_step_helper_report_what_their_serial_twins_report() {
        const THREADS: u64 = 4;
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..3 {
                        let seed = 10 + t * 3 + round;
                        let mut pooled = engine(seed);
                        assert_eq!(
                            run(&mut pooled, &LENDER),
                            serial(seed),
                            "thread {t}, seed {seed}"
                        );
                    }
                });
            }
        });
    }

    /// `f` of a batch of `tokens` tokens after `context` cached ones, with
    /// synthetic rows and queries from `seed`.
    fn with_batch<R>(
        seed: u64,
        heads: usize,
        dim: usize,
        context: usize,
        tokens: usize,
        f: impl FnOnce(&AttendBatch<'_>) -> R,
    ) -> R {
        let instance = |rows, seed| {
            topick_model::SynthInstance::generate(&SynthProfile::realistic(rows, dim), seed)
        };
        let rows: Vec<_> = (0..heads)
            .map(|h| instance(context + tokens, seed ^ h as u64))
            .collect();
        let views: Vec<_> = rows
            .iter()
            .map(|h| KvView::new(h.keys(), h.values()))
            .collect();
        let queries = instance(tokens * heads, !seed);
        f(&AttendBatch::new(&views, queries.keys().data(), context))
    }

    /// A batch well past the floor: a 24-token run after 120 tokens over
    /// four heads of 16.
    fn with_large_batch<R>(f: impl FnOnce(&AttendBatch<'_>) -> R) -> R {
        with_batch(7, 4, 16, 120, 24, f)
    }

    /// Everything a batch leaves: the outputs' bits and the backend's
    /// cycles, statistics and energy bits.
    type Outcome = (Vec<u32>, u64, topick_core::PruneStats, u64);

    /// Runs `batch` twice on one fresh simulator, the second on top of the
    /// first's accumulators, through `lender` or as the calls in order.
    fn attend_twice(batch: &AttendBatch<'_>, lender: Option<&Mutex<Lender>>) -> Outcome {
        let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        cfg.dim = batch.dim();
        let mut sim = SimulatedAttention::new(cfg);
        let mut out = Vec::new();
        for _ in 0..2 {
            match lender {
                Some(lender) => out.extend(attend_batch(&mut sim, batch, lender)),
                None => out.extend((0..batch.len()).flat_map(|i| {
                    let (q, kv) = batch.call(i);
                    sim.attend(q, kv)
                })),
            }
        }
        let stats = sim.accumulated_stats().expect("tracked").clone();
        let bits = out.iter().map(|x| x.to_bits()).collect();
        (bits, sim.cycles(), stats, sim.energy_pj().to_bits())
    }

    /// Whether [`attend_batch`] shares `batch` with a free helper.
    fn batch_worth_lending(batch: &AttendBatch<'_>) -> bool {
        let elems = (0..batch.len()).map(|i| Work::call(batch, i).elements(batch.dim()));
        worth_lending(elems, BATCH_SHARE_MIN_ELEMS)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// A batch shared with a helper whenever it is past the floor, or
        /// run through a lender without one, leaves exactly what the calls
        /// one after another leave, energy's float sum included.
        #[test]
        fn a_lent_batch_equals_its_serial_twin(
            seed in proptest::prelude::any::<u64>(),
            heads in 1usize..=4,
            dim_idx in 0usize..3,
            context in 0usize..=160,
            tokens in 1usize..=12,
        ) {
            with_batch(seed, heads, [8, 16, 32][dim_idx], context, tokens, |batch| {
                let serial = attend_twice(batch, None);
                let private = Lender::private();
                assert_eq!(attend_twice(batch, Some(&private)), serial);
                // A job came back exactly when the batch was worth one.
                let kept = spare(&private.lock().unwrap()).is_some();
                assert_eq!(kept, batch_worth_lending(batch));
                assert_eq!(attend_twice(batch, Some(&Lender::absent())), serial);
            });
        }
    }

    /// A helper that starts only once the caller has claimed every item
    /// but its own first, so it runs that one alone: one end of the claim
    /// race.
    fn late(job: &mut Job) {
        while job.cursor.load(Ordering::Relaxed) < job.work.len() {
            std::thread::yield_now();
        }
        job.run();
    }

    /// A helper that claims every item left the moment it starts, before
    /// running any: with the caller still on the largest item, the other
    /// end of the race, where the helper runs everything else.
    fn eager(job: &mut Job) {
        job.done.clear();
        let claimed: Vec<usize> = job.claims(HELPER_FIRST).collect();
        for pos in claimed {
            let done = job.item(pos);
            job.done.push((pos, done));
        }
    }

    /// A helper that takes its own first item and the next from the cursor,
    /// then dies holding both.
    fn claims_then_panics(job: &mut Job) {
        let mut claims = job.claims(HELPER_FIRST);
        assert_eq!(claims.next(), Some(HELPER_FIRST));
        claims.next();
        panic!("helper down after claiming (expected by this test)");
    }

    #[test]
    fn a_helper_that_starts_late_runs_only_its_own_first_item() {
        let lender = Lender::with_helper(late);
        let mut pooled = engine(6);
        assert_eq!(run(&mut pooled, &lender), serial(6));
        let stats = pooled.lending_stats();
        assert!(stats.pooled_steps > 0);
        assert_eq!(
            (stats.lent_instances, stats.fallbacks),
            (stats.pooled_steps, 0)
        );
        // One simulation per token, whichever thread ran it.
        assert_eq!(pooled.simulations, pooled.report().tokens_generated);
        let serial = with_large_batch(|batch| attend_twice(batch, None));
        assert_eq!(
            with_large_batch(|batch| attend_twice(batch, Some(&lender))),
            serial
        );
    }

    #[test]
    fn a_helper_claims_the_rest_while_the_caller_runs_one_very_large_item() {
        // 1200 tokens × 64 (77 k elements) next to four of 3–6 k, each
        // prompt built in one step, so that every step's pool is all five.
        let runs = [Lender::with_helper(eager), Lender::absent()].map(|lender| {
            let mut engine = idle_engine(5);
            engine.cfg.prefill_chunk_pages = 0;
            for (id, prompt) in [1200, 48, 64, 80, 96].into_iter().enumerate() {
                let request = ServingRequest::new(id as u64, prompt, 6);
                engine.enqueue(request).expect("valid request");
            }
            let run = run(&mut engine, &lender);
            assert_eq!(engine.simulations, engine.report().tokens_generated);
            (run, engine.lending_stats())
        });
        let [(pooled, lending), (serial, _)] = runs;
        assert!(pooled.0.is_ok());
        assert_eq!(pooled, serial);
        assert!(lending.pooled_steps > 0);
        assert_eq!(lending.fallbacks, 0);
        // Eight calls over 2001–2002 rows of 16.
        with_batch(9, 4, 16, 2000, 2, |batch| {
            let lender = Lender::with_helper(eager);
            assert_eq!(
                attend_twice(batch, Some(&lender)),
                attend_twice(batch, None)
            );
        });
    }

    /// Every way a pool can find no helper: the helper panics on its first
    /// job, at once or after claiming items, its channel is closed (as a
    /// thread that ended unseen leaves it), another owner holds the lender
    /// (`lock` would deadlock; `try_lock` falls through at once), or there
    /// is none.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        Panics,
        PanicsAfterClaiming,
        Closed,
        Held,
        Absent,
    }

    /// Runs a step pool (`Some(seed)`: `engine(seed)`) or a large batch
    /// (`None`) through a lender with `fault`, against its serial twin,
    /// and checks that the lender keeps its helper only when it was held.
    fn degrades_to_the_serial_twin(fault: Fault, steps: Option<u64>) {
        let lender = match fault {
            Fault::Panics => Lender::with_helper(|_| panic!("helper down (expected by this test)")),
            Fault::PanicsAfterClaiming => Lender::with_helper(claims_then_panics),
            Fault::Closed => {
                let helper = Helper::spawn("test-attention", Job::run).expect("spawn");
                Mutex::new(HelperSlot::Running(helper.ended()))
            }
            Fault::Held => Lender::private(),
            Fault::Absent => Lender::absent(),
        };
        let held = (fault == Fault::Held).then(|| lender.lock().unwrap());
        match steps {
            Some(seed) => {
                // A pool that loses its items to a dead helper leaves them to
                // their slot loops; every later pool finds no helper.
                let mut pooled = engine(seed);
                assert_eq!(run(&mut pooled, &lender), serial(seed), "{fault:?}");
                let stats = pooled.lending_stats();
                assert_eq!((stats.pooled_steps, stats.lent_instances), (0, 0));
                assert!(stats.fallbacks > 1, "{fault:?}");
            }
            None => {
                // A batch that loses its calls to a dead helper runs them
                // itself.
                let serial = with_large_batch(|batch| attend_twice(batch, None));
                let lent = with_large_batch(|batch| attend_twice(batch, Some(&lender)));
                assert_eq!(lent, serial, "{fault:?}");
            }
        }
        drop(held);
        let running = matches!(*lender.lock().unwrap(), HelperSlot::Running(_));
        assert_eq!(running, fault == Fault::Held, "{fault:?}, steps: {steps:?}");
    }

    #[test]
    fn a_helper_that_panics_degrades_to_the_stepping_thread() {
        degrades_to_the_serial_twin(Fault::Panics, Some(1));
    }

    #[test]
    fn a_helper_that_panics_after_claiming_leaves_its_items_to_the_slot_loops() {
        degrades_to_the_serial_twin(Fault::PanicsAfterClaiming, Some(5));
    }

    #[test]
    fn a_helper_whose_channel_is_closed_degrades_to_the_stepping_thread() {
        degrades_to_the_serial_twin(Fault::Closed, Some(2));
    }

    #[test]
    fn a_taken_helper_is_not_waited_for() {
        degrades_to_the_serial_twin(Fault::Held, Some(3));
    }

    #[test]
    fn a_batch_whose_helper_panics_runs_on_the_calling_thread() {
        degrades_to_the_serial_twin(Fault::Panics, None);
    }

    #[test]
    fn a_batch_whose_helper_panics_after_claiming_runs_its_calls_on_the_calling_thread() {
        degrades_to_the_serial_twin(Fault::PanicsAfterClaiming, None);
    }

    #[test]
    fn a_batch_whose_helper_channel_is_closed_runs_on_the_calling_thread() {
        degrades_to_the_serial_twin(Fault::Closed, None);
    }

    #[test]
    fn a_batch_whose_lender_is_held_is_not_waited_for() {
        degrades_to_the_serial_twin(Fault::Held, None);
    }

    #[test]
    fn a_lender_without_a_helper_degrades_to_the_serial_twin() {
        degrades_to_the_serial_twin(Fault::Absent, Some(4));
        degrades_to_the_serial_twin(Fault::Absent, None);
    }

    /// The job `slot` keeps, if its helper runs and has one.
    fn spare(slot: &Lender) -> Option<&Job> {
        match slot {
            HelperSlot::Running(helper) => helper.spare.as_ref(),
            _ => None,
        }
    }

    /// The bytes the job `lender` keeps holds for drawing instances, and
    /// where its heads' rows are.
    fn kept_buffers(lender: &Mutex<Lender>) -> (usize, Vec<*const f32>) {
        let slot = lender.lock().unwrap();
        let job = spare(&slot).expect("the job is kept");
        let rows = job.rows.iter().flat_map(|(k, v)| [k.as_ptr(), v.as_ptr()]);
        (job.scratch.draw.footprint(), rows.collect())
    }

    #[test]
    fn a_kept_job_lends_its_buffers_to_the_next_whatever_its_kind() {
        let lender = Lender::private();
        // The same step of two instances past the floor both times, so the
        // helper's instance buffers never outgrow what they hold.
        let step = || {
            let mut engine = idle_engine(5);
            engine.cfg.prefill_chunk_pages = 0;
            for (id, prompt) in [(0, 400), (1, 300)] {
                let request = ServingRequest::new(id, prompt, 6);
                engine.enqueue(request).expect("valid request");
            }
            engine.begin_step();
            let lending = pool_attention(std::slice::from_mut(&mut engine), &lender);
            assert_eq!(lending.pooled_steps, 1);
        };
        step();
        let (drawn, no_rows) = kept_buffers(&lender);
        assert!(drawn > 0 && no_rows.is_empty());
        with_large_batch(|batch| attend_twice(batch, Some(&lender)));
        let (batch_drawn, rows) = kept_buffers(&lender);
        assert_eq!((batch_drawn, rows.len()), (drawn, 8));
        step();
        assert_eq!(kept_buffers(&lender), (drawn, rows));
    }

    #[test]
    fn a_batch_under_the_floor_never_touches_the_helper() {
        // A single-token decode at 200 tokens of context over four heads
        // of 16: 12 800 elements.
        with_batch(3, 4, 16, 199, 1, |batch| {
            assert!(!batch_worth_lending(batch));
            let lender = Lender::with_helper(|_| panic!("touched the helper"));
            assert_eq!(
                attend_twice(batch, Some(&lender)),
                attend_twice(batch, None)
            );
            assert!(matches!(*lender.lock().unwrap(), HelperSlot::Running(_)));
        });
    }
}
