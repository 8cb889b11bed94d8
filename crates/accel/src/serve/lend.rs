//! Attention work split over two cores: one pool of work, either one
//! step's attention instances or one attention batch of the real-token
//! model.
//!
//! Whoever owns the engines — an engine stepping itself, a cluster
//! stepping its shards, which share one accelerator and seed — lets each
//! admit, then pools the instances their slot loops are about to ask for
//! ([`pool_attention`]), each a pure function of `(accelerator, engine
//! seed, request id, context)` ([`simulate_attention`]). A
//! [`SimulatedAttention`] batch — one layer's `tokens × heads` calls of a
//! forward run ([`AttendBatch`]) — is a pool of calls ([`attend_batch`]).
//! Either pool is one list of [`Work`], [`split`] once: the calling thread
//! runs the front and the helper thread the back, as one owned [`Job`].
//! What comes back is applied in item order — a step kept on its request
//! for its slot loop to find, a call's output and costs added to the
//! backend where the calls one after another would leave them — so which
//! thread ran an item cannot show, and split and serial are one
//! construction with permanent differential tests, not two paths.
//!
//! The helper is [`helper`](super::helper)'s: one thread, lazily started,
//! absent on one core, `try_lock` only, owned jobs whose buffers come back
//! for the next job of either kind. With no helper to be had — busy with
//! another owner's pool, absent, dead — nothing is split: each slot loop
//! simulates its instances where it always has, and a batch runs its calls
//! in order on the calling thread.

use std::mem;
use std::sync::{Mutex, MutexGuard};

use topick_core::{QVector, QuantBuffer, Rows};
use topick_model::{AttendBatch, AttentionBackend, KvView, SynthKeys, SynthProfile};

use super::batch_state::SimulatedStep;
use super::helper::HelperSlot;
use super::{ChunkBudget, ServeError, ServingEngine};
use crate::backend::{simulate, Attended, SimulatedAttention};
use crate::engine::ToPickAccelerator;

// The smallest pools worth splitting, in key elements. A handoff — two
// channel hops and a wake-up — measures 40–70 µs on a 2-core x86-64 Xeon
// host; lending half of `n` elements saves half their cost less one
// handoff, and a floor is where that saving also pays a measured margin
// of handoffs more. Derived and checked, not tuned, and not options.
// - An instance element costs ≥ 11.7 ns there (as clocked at ≈ 0.83 of
//   the benchmark's reference speed): synthesis 6.5–7.5 ns (the sampler's
//   AVX-512 copy; 18.5–23 baseline), quantization and `attention_cost`
//   5.2–6.6 at dim 64 from 256 tokens up (the quantizer's AVX-512 copy;
//   9–15 at 16–64). With one handoff of margin, `n · 5.85 ns ≥ (1 + 1) ·
//   40…70 µs` gives 13 700–23 900: 256 tokens × 64. Three (32 768) cost
//   `prefix-chat` ×0.973 (8 of 10 pairs slower) and `cluster-agentic`
//   ×0.991 in `wall_tokens_per_s` over ten alternating benchmark pairs:
//   their pools of 16 000–32 000 elements are worth lending.
// - A call costs 11 µs + 12 ns per element at the real-token model's head
//   width of 16, and a lent call also copies in the rows it reads (25 KB
//   for 200 rows of 16, a few µs). With three handoffs of margin, `n · 6 ns
//   ≥ (1 + 3) · 40…70 µs` gives 27 000–47 000; no run has measured one.
//   A decode at 200 tokens (4 heads × 200 × 16 = 12 800) stays under it.
const SPLIT_MIN_ELEMS: usize = 16 * 1024;
const BATCH_SPLIT_MIN_ELEMS: usize = 32 * 1024;

/// How often steps used the second core for their attention instances, of
/// every size — whether a run that could have been spread over two cores
/// was. A step is a step of whatever owns the engines: a cluster step, all
/// shards in one pool, when a cluster does. Host-side bookkeeping only: it
/// depends on the machine and on what else the process is doing, so it is
/// no part of [`ServingReport`](super::ServingReport),
/// [`Trace`](super::Trace) or any digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LendingStats {
    /// Steps whose pool of instances was split with the helper thread.
    pub pooled_steps: usize,
    /// Instances the helper thread simulated in those steps.
    pub lent_instances: usize,
    /// Steps whose pool was large enough to split but ran on the stepping
    /// thread alone: the helper was busy with another engine or cluster,
    /// absent (one core, or its spawn failed) or died.
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
    /// One query over the first `rows` rows of `head`.
    Call { head: usize, rows: usize },
}

impl Work {
    fn call(batch: &AttendBatch<'_>, i: usize) -> Self {
        let (head, rows) = batch.shape(i);
        Self::Call { head, rows }
    }

    fn elements(self, dim: usize) -> usize {
        dim * match self {
            Self::Instance { context, .. } => context,
            Self::Call { rows, .. } => rows,
        }
    }
}

/// What one item left: an instance's step (`None` if it failed, which its
/// slot loop meets again), or a call's output and costs.
#[derive(Debug)]
enum Done {
    Instance(Option<SimulatedStep>),
    Call(Attended),
}

/// The helper's share of a pool, with everything it reads owned — a
/// call's query (`dim` wide, back to back) and its head's rows — and one
/// result per item, in order. Kept for its buffers from one job to the
/// next, of either kind.
#[derive(Debug)]
pub(crate) struct Job {
    accel: ToPickAccelerator,
    seed: u64,
    dim: usize,
    work: Vec<Work>,
    queries: Vec<f32>,
    rows: Vec<(Vec<f32>, Vec<f32>)>,
    done: Vec<Done>,
    /// The helper thread's own key buffers.
    scratch: KeyScratch,
}

impl Job {
    /// What the helper thread runs on each job.
    fn run(&mut self) {
        self.done.clear();
        let dim = self.dim;
        for (i, item) in self.work.iter().enumerate() {
            self.done.push(match *item {
                Work::Instance { id, context, .. } => Done::Instance(
                    simulate_attention(&self.accel, self.seed, id, context, &mut self.scratch).ok(),
                ),
                Work::Call { head, rows } => {
                    // A job of calls holds nothing else: call `i` has query `i`.
                    let q = &self.queries[i * dim..(i + 1) * dim];
                    let (keys, values) = &self.rows[head];
                    let kv = KvView::new(
                        Rows::new(&keys[..rows * dim], dim),
                        Rows::new(&values[..rows * dim], dim),
                    );
                    Done::Call(simulate(&self.accel, &mut self.scratch.codes, q, kv))
                }
            });
        }
    }

    /// Fills the job with `batch`'s calls from `first` on: their queries,
    /// and every head's rows as far as the last call, the furthest, reads.
    fn calls(&mut self, batch: &AttendBatch<'_>, first: usize) {
        self.dim = batch.dim();
        for i in first..batch.len() {
            self.work.push(Work::call(batch, i));
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

/// The key buffers a thread keeps from one simulation to the next: an
/// instance's float keys and the codes of an instance's or a call's keys.
/// Freed and re-allocated per instance on two threads at once, the
/// 300–500 KB float buffers of long contexts raise the process's peak
/// memory by a fifth (measured, `docs/ARCHITECTURE.md`); kept, each thread
/// holds one of each, as large as its largest instance so far.
#[derive(Debug, Default)]
pub(super) struct KeyScratch {
    floats: Vec<f32>,
    codes: QuantBuffer,
}

/// The one helper, with the last job back.
pub(crate) type Lender = HelperSlot<Job>;

#[cfg(test)]
impl Lender {
    /// A helper of the test's own, split with even where [`LENDER`] would
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
/// wait on each other; a poisoned lock (a pool panicked mid-split,
/// possibly leaving a job in flight) reads as taken forever.
pub(crate) static LENDER: Mutex<Lender> = Mutex::new(HelperSlot::Unstarted {
    name: "topick-attention",
    work: Job::run,
});

/// The first item of the helper's share of a pool of items weighing
/// `elems`, the caller keeping those before it, if the pool is worth a
/// handoff (two or more items of `floor` elements together): of the
/// boundaries that leave the helper something, the one whose larger share
/// is smallest, a tie going to the caller, which pays the handoff.
fn split(elems: impl Iterator<Item = usize> + Clone, floor: usize) -> Option<usize> {
    let (items, total) = elems.clone().fold((0, 0), |(n, sum), e| (n + 1, sum + e));
    if items < 2 || total < floor {
        return None;
    }
    let (mut front, mut best) = (0, (usize::MAX, 0));
    for (i, e) in elems.take(items - 1).enumerate() {
        front += e;
        let larger = front.max(total - front);
        if larger <= best.0 {
            best = (larger, i + 1);
        }
    }
    Some(best.1)
}

/// The one lend sequence: hands `lender`'s helper, when it is free, the
/// job `fill` writes into the buffers of the last job back, on `accel` with
/// `seed`, and returns the helper holding it for the caller to run its own
/// share and then [`collect`](HelperSlot::collect). `None`: no helper took
/// the job.
fn lend(
    lender: &Mutex<Lender>,
    accel: ToPickAccelerator,
    seed: u64,
    fill: impl FnOnce(&mut Job),
) -> Option<MutexGuard<'_, Lender>> {
    let mut helper = lender.try_lock().ok()?;
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
                queries: Vec::new(),
                rows: Vec::new(),
                done: Vec::new(),
                scratch: KeyScratch::default(),
            },
        };
        job.work.clear();
        job.queries.clear();
        fill(&mut job);
        job
    });
    lent.then_some(helper)
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
    let inst = SynthKeys::generate_into(&profile, seed, mem::take(&mut scratch.floats));
    let q = QVector::quantize(&inst.query, pc);
    let quantized = scratch.codes.quantize(inst.keys().data(), dim, pc);
    scratch.floats = inst.into_keys();
    let keys = quantized.map_err(ServeError::Core)?;
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
        self.running[slot].kept_attention = Some(Box::new(step));
    }
}

/// A walk over a step's pool: the slots of engines whose slot loops will
/// ask for a fresh simulation, in `(shard, slot)` order, under each
/// loop's [`ChunkBudget`]. It holds no borrow between items, so a caller
/// can keep each item's step as it goes.
#[derive(Debug, Clone, Default)]
struct Walk {
    shard: usize,
    slot: usize,
    budget: Option<ChunkBudget>,
}

impl Walk {
    fn next(&mut self, shards: &[ServingEngine]) -> Option<Work> {
        loop {
            let engine = shards.get(self.shard)?;
            let budget = self.budget.get_or_insert_with(|| engine.chunk_budget());
            let Some(r) = engine.running.get(self.slot) else {
                (self.shard, self.slot, self.budget) = (self.shard + 1, 0, None);
                continue;
            };
            self.slot += 1;
            let fresh = r
                .kept_attention
                .as_ref()
                .is_none_or(|k| k.context != r.context());
            if budget.next(r.kv.prefill_owed()).simulates() && fresh {
                let (shard, slot, id, context) = (self.shard, self.slot - 1, r.req.id, r.context());
                return Some(Work::Instance {
                    shard,
                    slot,
                    id,
                    context,
                });
            }
        }
    }
}

/// This step's pool: every instance the slot loops of `shards` will ask
/// for, in `(shard, slot)` order.
fn pool(shards: &[ServingEngine]) -> impl Iterator<Item = Work> + Clone + '_ {
    let mut walk = Walk::default();
    std::iter::from_fn(move || walk.next(shards))
}

/// Simulates the pool of one step of `shards` — engines sharing one
/// accelerator configuration and seed, each between admission and its slot
/// loop — on two cores when that is worth a handoff and `lender` has a
/// helper free, leaving each result as the kept step
/// [`slot_attention`](ServingEngine::slot_attention) consumes. An instance
/// that fails is not kept: its slot loop meets the same error at the same
/// slot, after the same earlier slots. Returns what the step adds to its
/// owner's [`LendingStats`].
pub(super) fn pool_attention(shards: &mut [ServingEngine], lender: &Mutex<Lender>) -> LendingStats {
    let (accel, seed) = (&shards[0].accel, shards[0].cfg.seed);
    // The helper runs every shard's instances on the first's accelerator.
    debug_assert!(shards
        .iter()
        .all(|s| s.cfg.seed == seed && s.accel.config() == accel.config()));
    let dim = accel.config().dim;
    let Some(first) = split(pool(shards).map(|item| item.elements(dim)), SPLIT_MIN_ELEMS) else {
        return LendingStats::default();
    };
    let fallback = LendingStats {
        fallbacks: 1,
        ..LendingStats::default()
    };
    let fill = |job: &mut Job| job.work.extend(pool(shards).skip(first));
    let Some(mut helper) = lend(lender, accel.clone(), seed, fill) else {
        return fallback;
    };
    let mut walk = Walk::default();
    for _ in 0..first {
        if let Some(Work::Instance {
            shard,
            slot,
            id,
            context,
        }) = walk.next(shards)
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
        for (item, done) in job.work.iter().zip(job.done.drain(..)) {
            if let (&Work::Instance { shard, slot, .. }, Done::Instance(Some(step))) = (item, done)
            {
                shards[shard].keep_attention(slot, step);
                lent_instances += 1;
            }
        }
    });
    if !collected {
        // The helper died holding its share: those slots have no kept
        // step and their slot loops simulate them.
        return fallback;
    }
    LendingStats {
        pooled_steps: 1,
        lent_instances,
        fallbacks: 0,
    }
}

/// Runs `batch` on `sim` — its back share on `lender`'s helper when the
/// batch is worth a handoff and the helper is free, the rest on the calling
/// thread — and returns the outputs in call order. Each call's output and
/// costs are added to `sim` in call order, whichever thread ran it, so the
/// outputs and `sim`'s cycles, statistics and energy (whose float sum
/// depends on the order) are those of the calls one after another. If the
/// helper dies holding its share, the caller runs that share itself.
pub(crate) fn attend_batch(
    sim: &mut SimulatedAttention,
    batch: &AttendBatch<'_>,
    lender: &Mutex<Lender>,
) -> Vec<f32> {
    let run = |sim: &mut SimulatedAttention, calls: std::ops::Range<usize>, out: &mut Vec<f32>| {
        for i in calls {
            let (q, kv) = batch.call(i);
            out.extend(sim.attend(q, kv));
        }
    };
    let (dim, calls) = (batch.dim(), batch.len());
    let mut out = Vec::with_capacity(calls * dim);
    // The first call not yet run.
    let mut next = 0;
    let elems = (0..calls).map(|i| Work::call(batch, i).elements(dim));
    if let Some(first) = split(elems, BATCH_SPLIT_MIN_ELEMS) {
        let accel = ToPickAccelerator::new(sim.config().clone());
        if let Some(mut helper) = lend(lender, accel, 0, |job| job.calls(batch, first)) {
            run(sim, 0..first, &mut out);
            next = first;
            helper.collect(|job| {
                for done in job.done.drain(..) {
                    if let Done::Call(call) = done {
                        out.extend(sim.record(call));
                    }
                }
                next = calls;
            });
        }
    }
    run(sim, next..calls, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::config::{AccelConfig, AccelMode};
    use crate::serve::helper::Helper;
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
        let result = loop {
            match engine.step_lending_to(lender) {
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

    /// [`idle_engine`] serving `prompts`, all arrived, pooled and serially,
    /// and the pooled run's lending.
    fn pooled_and_serial(prompts: &[usize]) -> (Run, Run, LendingStats) {
        let runs = [Lender::private(), Lender::absent()].map(|lender| {
            let mut engine = idle_engine(5);
            for (id, &prompt) in prompts.iter().enumerate() {
                let request = ServingRequest::new(id as u64, prompt, 6);
                engine.enqueue(request).expect("valid request");
            }
            let run = run(&mut engine, &lender);
            assert_eq!(engine.simulations, engine.report().tokens_generated);
            (run, engine.lending_stats())
        });
        let [(pooled, lending), (serial, _)] = runs;
        (pooled, serial, lending)
    }

    #[test]
    fn a_lone_large_instance_is_not_lent_and_not_a_fallback() {
        // 400 tokens × 64 is past the floor, but a pool of one has nothing
        // to hand over: no helper is asked for, so none can be missed.
        let (pooled, serial, lending) = pooled_and_serial(&[400]);
        assert!(pooled.0.is_ok());
        assert_eq!(pooled, serial);
        assert_eq!(lending, LendingStats::default());
    }

    #[test]
    fn two_large_instances_go_one_to_each_thread() {
        let (pooled, serial, lending) = pooled_and_serial(&[400, 300]);
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
        assert!(pooled.running.iter().all(|r| r.kept_attention.is_none()));
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

    /// Where [`attend_batch`] splits `batch`.
    fn batch_first(batch: &AttendBatch<'_>) -> Option<usize> {
        let elems = (0..batch.len()).map(|i| Work::call(batch, i).elements(batch.dim()));
        split(elems, BATCH_SPLIT_MIN_ELEMS)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// A batch split with a helper whenever it is past the floor, or
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
                assert_eq!(kept, batch_first(batch).is_some());
                assert_eq!(attend_twice(batch, Some(&Lender::absent())), serial);
            });
        }

        /// Over any weights and either kind's floor: `None` exactly under
        /// two items or under the floor; otherwise a boundary — the front
        /// every item before it, the back every item from it on, so both
        /// shares are contiguous — that leaves each share something and
        /// whose larger share no other boundary beats.
        #[test]
        fn the_split_is_the_boundary_whose_larger_share_is_smallest(
            elems in proptest::collection::vec(0usize..9000, 0..12),
            calls in proptest::prelude::any::<bool>(),
        ) {
            let floor = if calls { BATCH_SPLIT_MIN_ELEMS } else { SPLIT_MIN_ELEMS };
            let total: usize = elems.iter().sum();
            let larger = |first: usize| {
                let front: usize = elems[..first].iter().sum();
                front.max(total - front)
            };
            match split(elems.iter().copied(), floor) {
                None => proptest::prop_assert!(elems.len() < 2 || total < floor),
                Some(first) => {
                    proptest::prop_assert!(elems.len() >= 2 && total >= floor);
                    proptest::prop_assert!(0 < first && first < elems.len());
                    proptest::prop_assert!((0..elems.len()).all(|b| larger(first) <= larger(b)));
                }
            }
        }
    }

    /// Every way a pool can find no helper: the helper panics on its first
    /// job, its channel is closed (as a thread that ended unseen leaves
    /// it), another owner holds the lender (`lock` would deadlock;
    /// `try_lock` falls through at once), or there is none.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        Panics,
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
                // A pool that loses its share to a dead helper leaves it to
                // its slot loops; every later pool finds no helper.
                let mut pooled = engine(seed);
                assert_eq!(run(&mut pooled, &lender), serial(seed), "{fault:?}");
                let stats = pooled.lending_stats();
                assert_eq!((stats.pooled_steps, stats.lent_instances), (0, 0));
                assert!(stats.fallbacks > 1, "{fault:?}");
            }
            None => {
                // A batch that loses its back share runs it itself.
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

    /// Where the job `lender` keeps has its float keys and its heads' rows.
    fn kept_buffers(lender: &Mutex<Lender>) -> (*const f32, Vec<*const f32>) {
        let slot = lender.lock().unwrap();
        let job = spare(&slot).expect("the job is kept");
        let rows = job.rows.iter().flat_map(|(k, v)| [k.as_ptr(), v.as_ptr()]);
        (job.scratch.floats.as_ptr(), rows.collect())
    }

    #[test]
    fn a_kept_job_lends_its_buffers_to_the_next_whatever_its_kind() {
        let lender = Lender::private();
        // The same step of two instances past the floor both times, so the
        // helper's float keys never outgrow their buffer.
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
        let (floats, no_rows) = kept_buffers(&lender);
        assert!(no_rows.is_empty());
        with_large_batch(|batch| attend_twice(batch, Some(&lender)));
        let (batch_floats, rows) = kept_buffers(&lender);
        assert_eq!((batch_floats, rows.len()), (floats, 8));
        step();
        assert_eq!(kept_buffers(&lender), (floats, rows));
    }

    #[test]
    fn a_batch_under_the_floor_never_touches_the_helper() {
        // A single-token decode at 200 tokens of context over four heads
        // of 16: 12 800 elements.
        with_batch(3, 4, 16, 199, 1, |batch| {
            assert!(batch_first(batch).is_none());
            let lender = Lender::with_helper(|_| panic!("touched the helper"));
            assert_eq!(
                attend_twice(batch, Some(&lender)),
                attend_twice(batch, None)
            );
            assert!(matches!(*lender.lock().unwrap(), HelperSlot::Running(_)));
        });
    }
}
