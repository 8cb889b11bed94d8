//! Attention work split over two cores: one step's attention instances,
//! and one attention batch of the real-token model.
//!
//! A step is a batch of independent per-request attention passes, each a
//! pure function of `(accelerator, engine seed, request id, context)`
//! ([`simulate_attention`]) — and every shard of a cluster shares the
//! accelerator and the seed, so a step of a cluster is one such batch over
//! all its shards. So whoever owns the engines — an engine stepping
//! itself, a cluster stepping its shards — lets each admit, then pools the
//! instances their slot loops are about to ask for
//! ([`pool_attention`]), hands about half of them — by elements — to a
//! persistent helper thread as one owned job, simulates the rest itself,
//! and leaves every result on its request as a kept step, which the slot
//! loop then finds instead of simulating. Which thread ran an instance
//! cannot show in its result, so pooled and serial stepping are one engine
//! with a permanent differential test, not two paths.
//!
//! A [`SimulatedAttention`] batch — one layer's `tokens × heads` calls of
//! a forward run ([`AttendBatch`]) — is split the same way
//! ([`attend_batch`]): its back half, by elements, goes to the same helper
//! as one owned job carrying its queries and the K/V rows its calls read,
//! the caller runs the front half, and every call's output, cycles, pruning
//! statistics and energy are added back in call order, so the backend ends
//! where the calls one after another would leave it.
//!
//! The helper is [`helper`](super::helper)'s: one thread, lazily started,
//! absent on one core, `try_lock` only, owned jobs whose buffers come back
//! with them. Whenever there is no helper to be had — busy with another
//! owner's step or batch, absent, dead — nothing is split: each slot loop
//! simulates its instances where it always has, and a batch runs its calls
//! in order on the calling thread.

use std::mem;
use std::sync::Mutex;

use topick_core::{QVector, QuantBuffer, Rows};
use topick_model::{AttendBatch, AttentionBackend, KvView, SynthKeys, SynthProfile};

use super::batch_state::SimulatedStep;
use super::helper::HelperSlot;
use super::{ServeError, ServingEngine};
use crate::backend::{simulate, Attended, SimulatedAttention};
use crate::engine::ToPickAccelerator;

/// Smallest pool — a step's, all shards of a cluster step — in key elements
/// (`context · dim` summed over its instances) worth splitting between the
/// stepping thread and the helper.
/// A handoff — two channel hops and a wake-up — measures 40–70 µs on a
/// 2-core x86-64 Xeon host, and an element costs at least ≈ 20 ns there,
/// all of which a lent instance takes with it: its synthesis (one
/// Box–Muller normal, its logarithm and cosine polynomials, plus its share
/// of the projection: `SynthKeys::generate_into` at 1536 × 64 takes 16–18
/// ns per element at the benchmark's reference host speed), its
/// quantization (≈ 2.5 ns) and its share of `attention_cost` (≈ 5 ns at
/// dim 64, more at smaller heads), so lending half of `n` elements saves
/// at least `n · 10 ns` less one handoff: break-even at
/// 4 000–7 000 elements. The floor is where the saving is worth several
/// handoffs more, `n · 10 ns ≥ (1 + 3) · 40…70 µs`, i.e. 16 000–28 000
/// elements: 256 tokens × 64. Derived, not tuned, and deliberately not an
/// option: below it — a step of 16–32 token contexts is a few thousand
/// elements — the helper is never touched.
const SPLIT_MIN_ELEMS: usize = 16 * 1024;

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

/// One instance of a step's pool: the request at `slot` of `shard`, at
/// `context`.
#[derive(Debug, Clone, Copy)]
pub(super) struct PoolItem {
    shard: usize,
    slot: usize,
    id: u64,
    context: usize,
}

/// The helper's share of one step's pool: everything
/// [`simulate_attention`] reads, owned — the one accelerator and seed every
/// pooled engine shares — and the results it leaves.
#[derive(Debug)]
pub(super) struct StepJob {
    accel: ToPickAccelerator,
    seed: u64,
    work: Vec<PoolItem>,
    /// Every instance that simulated, with its step; one that failed is
    /// left for its slot loop to fail on.
    done: Vec<(PoolItem, SimulatedStep)>,
    /// The helper thread's own key buffers.
    scratch: KeyScratch,
}

/// The key buffers a thread keeps from one simulation to the next: an
/// instance's float keys and their quantized codes. Freed and re-allocated
/// per instance on two threads at once, the 300–500 KB float buffers of
/// long contexts raise the process's peak memory by a fifth (measured,
/// `docs/ARCHITECTURE.md`); kept, each thread holds one of each, as large
/// as its largest instance so far.
#[derive(Debug, Default)]
pub(super) struct KeyScratch {
    floats: Vec<f32>,
    codes: QuantBuffer,
}

impl StepJob {
    fn run(&mut self) {
        self.done.clear();
        for item in &self.work {
            let step = simulate_attention(
                &self.accel,
                self.seed,
                item.id,
                item.context,
                &mut self.scratch,
            );
            if let Ok(step) = step {
                self.done.push((*item, step));
            }
        }
    }
}

/// Smallest attention batch, in key elements (`rows · dim` summed over its
/// calls), worth splitting between the calling thread and the helper.
/// The handoff is the step pool's 40–70 µs, plus copying in what the lent
/// calls read (each head's rows at most once: 25 KB for 200 rows of 16,
/// a few µs). A call costs 11 µs plus 12 ns per element, measured on the
/// 2-core development host at the real-token model's head width of 16
/// (53 µs at 200 rows), so lending half of `n` elements saves at least
/// `n · 6 ns` less one handoff: break-even at 7 000–12 000 elements. The
/// floor is where the saving is worth several handoffs more, `n · 6 ns ≥
/// (1 + 3) · 40…70 µs`, i.e. 27 000–47 000 elements. Derived like
/// [`SPLIT_MIN_ELEMS`], and likewise not an option: a single-token decode
/// at 200 tokens of context is 4 heads × 200 × 16 = 12 800 elements and
/// never touches the helper; a layer of a 100-token prompt is 323 000.
const BATCH_SPLIT_MIN_ELEMS: usize = 32 * 1024;

/// The helper's share of an attention batch: the calls from some point to
/// the end, with everything they read copied in, and their results.
#[derive(Debug)]
pub(super) struct BatchJob {
    accel: ToPickAccelerator,
    dim: usize,
    /// Each lent call's head and the number of its rows it reads, in call
    /// order.
    shapes: Vec<(usize, usize)>,
    /// The lent calls' queries, back to back.
    queries: Vec<f32>,
    /// Per head of the batch, the keys and values of the longest prefix a
    /// lent call reads — nothing for a head no lent call reads.
    rows: Vec<(Vec<f32>, Vec<f32>)>,
    /// The helper thread's own key-code buffer.
    key_buf: QuantBuffer,
    /// One result per lent call, in call order.
    done: Vec<Attended>,
}

impl BatchJob {
    /// The job of `batch`'s calls from `first` on, in the buffers of
    /// `spare` when that is a batch job.
    fn fill(
        spare: Option<HelperJob>,
        cfg: &crate::config::AccelConfig,
        batch: &AttendBatch<'_>,
        first: usize,
    ) -> Self {
        let accel = ToPickAccelerator::new(cfg.clone());
        let mut job = match spare {
            Some(HelperJob::Batch(spare)) => Self { accel, ..spare },
            _ => Self {
                accel,
                dim: 0,
                shapes: Vec::new(),
                queries: Vec::new(),
                rows: Vec::new(),
                key_buf: QuantBuffer::new(),
                done: Vec::new(),
            },
        };
        job.dim = batch.dim();
        job.shapes.clear();
        job.queries.clear();
        for i in first..batch.len() {
            job.shapes.push(batch.shape(i));
            job.queries.extend_from_slice(batch.call(i).0);
        }
        let heads = batch.heads();
        job.rows.resize_with(heads.len(), Default::default);
        for (head, (kv, (keys, values))) in heads.iter().zip(&mut job.rows).enumerate() {
            let read = job.shapes.iter().filter(|s| s.0 == head).map(|s| s.1);
            let prefix = kv.prefix(read.max().unwrap_or(0));
            keys.clear();
            keys.extend_from_slice(prefix.keys().data());
            values.clear();
            values.extend_from_slice(prefix.values().data());
        }
        job
    }

    fn run(&mut self) {
        self.done.clear();
        let dim = self.dim;
        for (&(head, rows), q) in self.shapes.iter().zip(self.queries.chunks_exact(dim)) {
            let (keys, values) = &self.rows[head];
            let kv = KvView::new(
                Rows::new(&keys[..rows * dim], dim),
                Rows::new(&values[..rows * dim], dim),
            );
            self.done
                .push(simulate(&self.accel, &mut self.key_buf, q, kv));
        }
    }
}

/// What the one helper thread works on: a share of a step's pool, or the
/// back half of an attention batch.
#[derive(Debug)]
pub(super) enum HelperJob {
    /// A share of a serving step's attention instances.
    Step(StepJob),
    /// The back half of a [`SimulatedAttention`] batch.
    Batch(BatchJob),
}

/// What the helper thread runs on each job.
fn run_job(job: &mut HelperJob) {
    match job {
        HelperJob::Step(job) => job.run(),
        HelperJob::Batch(job) => job.run(),
    }
}

/// The helper and the stepping thread's scratch list, under one lock:
/// whoever holds it owns both for one step or one batch.
#[derive(Debug)]
pub(crate) struct Lender {
    helper: HelperSlot<HelperJob>,
    /// The holder's own share of a step's pool.
    mine: Vec<PoolItem>,
}

impl Lender {
    pub(super) const fn new(helper: HelperSlot<HelperJob>) -> Self {
        Self {
            helper,
            mine: Vec::new(),
        }
    }

    /// A lender with a helper thread of its own running `work`, so a
    /// test's pools are split even where the shared helper would not start
    /// (one core) or is taken by a parallel test.
    #[cfg(test)]
    pub(super) fn with_helper(work: fn(&mut HelperJob)) -> Mutex<Self> {
        let helper = super::helper::Helper::spawn("test-attention", work).expect("spawn");
        Mutex::new(Self::new(HelperSlot::Running(helper)))
    }

    /// [`with_helper`](Self::with_helper) doing the real work.
    #[cfg(test)]
    pub(super) fn private() -> Mutex<Self> {
        Self::with_helper(run_job)
    }

    /// A lender without a helper — what [`LENDER`] is on one core:
    /// every step through it runs serially, the twin a pooled run is
    /// compared against.
    #[cfg(test)]
    pub(super) fn absent() -> Mutex<Self> {
        Mutex::new(Self::new(HelperSlot::Absent))
    }
}

/// The process-wide helper. Only ever `try_lock`ed: a step or batch that
/// finds it taken runs serially, so two engines or models on two threads
/// never wait on each other; a poisoned lock (a step or batch panicked
/// mid-split, possibly leaving a job in flight) reads as taken forever.
pub(crate) static LENDER: Mutex<Lender> = Mutex::new(Lender::new(HelperSlot::Unstarted {
    name: "topick-attention",
    work: run_job,
}));

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
    /// The slots whose step will ask for a fresh simulation, in slot
    /// order, as instances of shard `shard`: the walk of the slot loop
    /// ([`ChunkBudget`](super::ChunkBudget)), so nothing is simulated that
    /// the loop would not simulate.
    fn pool(&self, shard: usize) -> impl Iterator<Item = PoolItem> + '_ {
        let mut budget = self.chunk_budget();
        self.batch
            .slots()
            .iter()
            .enumerate()
            .filter_map(move |(slot, r)| {
                let simulates = budget.next(r.kv.prefill_owed()).simulates();
                let fresh = r
                    .kept_attention
                    .as_ref()
                    .is_none_or(|kept| kept.context != r.context);
                (simulates && fresh).then_some(PoolItem {
                    shard,
                    slot,
                    id: r.req.id,
                    context: r.context,
                })
            })
    }

    /// Leaves `step` on the request at `slot` for its
    /// [`slot_attention`](Self::slot_attention) to find.
    fn keep_attention(&mut self, slot: usize, step: SimulatedStep) {
        #[cfg(test)]
        {
            self.simulations += 1;
        }
        self.batch.slots_mut()[slot].kept_attention = Some(Box::new(step));
    }
}

/// This step's pool: every instance the slot loops of `shards` will ask
/// for, in `(shard, slot)` order.
fn pool(shards: &[ServingEngine]) -> impl Iterator<Item = PoolItem> + '_ {
    shards
        .iter()
        .enumerate()
        .flat_map(|(shard, engine)| engine.pool(shard))
}

/// Simulates the pool of one step of `shards` — one or more engines sharing
/// one accelerator configuration and seed, each past its step's admission
/// and before its slot loop — on two cores when that is worth a handoff — two
/// or more instances of [`SPLIT_MIN_ELEMS`] elements together — and
/// `lender` has a helper free, leaving each result on its request as the
/// kept step [`slot_attention`](ServingEngine::slot_attention) consumes.
/// The pool is split by a greedy pass in `(shard, slot)` order, each
/// instance going to the share with fewer elements so far. An instance
/// that fails to simulate is not kept: its slot loop meets the same error
/// at the same slot, after the same earlier slots have advanced.
///
/// Returns what the step adds to its owner's [`LendingStats`].
pub(super) fn pool_attention(shards: &mut [ServingEngine], lender: &Mutex<Lender>) -> LendingStats {
    let not_pooled = LendingStats::default();
    let fallback = LendingStats {
        fallbacks: 1,
        ..not_pooled
    };
    let (dim, seed) = (shards[0].cfg.accel.dim, shards[0].cfg.seed);
    debug_assert!(shards.iter().all(|s| s.cfg.seed == seed));
    let (instances, elems) = pool(shards).fold((0, 0), |(n, elems), item| {
        (n + 1, elems + item.context * dim)
    });
    if instances < 2 || elems < SPLIT_MIN_ELEMS {
        return not_pooled;
    }
    let Ok(mut lender) = lender.try_lock() else {
        return fallback;
    };
    let Lender { helper, mine } = &mut *lender;
    mine.clear();
    let lent = helper.lend(|spare| {
        let accel = shards[0].accel.clone();
        let mut job = match spare {
            Some(HelperJob::Step(spare)) => StepJob {
                accel,
                seed,
                ..spare
            },
            _ => StepJob {
                accel,
                seed,
                work: Vec::new(),
                done: Vec::new(),
                scratch: KeyScratch::default(),
            },
        };
        job.work.clear();
        // Tokens stand for elements: every instance is `dim` wide.
        let (mut my_tokens, mut lent_tokens) = (0, 0);
        for item in pool(shards) {
            if lent_tokens < my_tokens {
                lent_tokens += item.context;
                job.work.push(item);
            } else {
                my_tokens += item.context;
                mine.push(item);
            }
        }
        HelperJob::Step(job)
    });
    if !lent {
        return fallback;
    }
    for item in mine.iter() {
        let engine = &mut shards[item.shard];
        let step = simulate_attention(
            &engine.accel,
            seed,
            item.id,
            item.context,
            &mut engine.scratch,
        );
        if let Ok(step) = step {
            engine.keep_attention(item.slot, step);
        }
    }
    let mut returned = 0;
    let collected = helper.collect(|job| {
        if let HelperJob::Step(job) = job {
            for (item, step) in job.done.drain(..) {
                shards[item.shard].keep_attention(item.slot, step);
                returned += 1;
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
        lent_instances: returned,
        ..not_pooled
    }
}

/// The first call of `batch`'s back half — the calls after the caller's
/// first half of its elements — when the batch is worth a handoff: two or
/// more calls of [`BATCH_SPLIT_MIN_ELEMS`] elements together, of which the
/// back half is not empty.
fn batch_split(batch: &AttendBatch<'_>) -> Option<usize> {
    let rows = |i| batch.shape(i).1;
    let total: usize = (0..batch.len()).map(rows).sum();
    if batch.len() < 2 || total * batch.dim() < BATCH_SPLIT_MIN_ELEMS {
        return None;
    }
    let mut front = 0;
    let last_mine = (0..batch.len()).find(|&i| {
        front += rows(i);
        2 * front >= total
    })?;
    Some(last_mine + 1).filter(|&first| first < batch.len())
}

/// Runs `batch` on `sim` — its back half on `lender`'s helper when the
/// batch is worth a handoff and the helper is free, the rest on the calling
/// thread — and returns the outputs in call order. Each call's output and
/// costs are added to `sim` in call order, whichever thread ran it, so the
/// outputs and `sim`'s cycles, statistics and energy (whose float sum
/// depends on the order) are those of the calls one after another. If the
/// helper dies holding its half, the caller runs that half itself.
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
    let mut out = Vec::with_capacity(batch.len() * batch.dim());
    // The first call not yet run.
    let mut next = 0;
    if let Some(first) = batch_split(batch) {
        if let Ok(mut lender) = lender.try_lock() {
            let helper = &mut lender.helper;
            let cfg = sim.config();
            if helper.lend(|spare| HelperJob::Batch(BatchJob::fill(spare, cfg, batch, first))) {
                run(sim, 0..first, &mut out);
                next = first;
                helper.collect(|job| {
                    if let HelperJob::Batch(job) = job {
                        for done in job.done.drain(..) {
                            out.extend(sim.record(done));
                        }
                        next = batch.len();
                    }
                });
            }
        }
    }
    run(sim, next..batch.len(), &mut out);
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
        let lender = lender.lock().unwrap();
        assert!(matches!(lender.helper, HelperSlot::Running(_)));
    }

    /// [`idle_engine`] serving `prompts`, all arrived, pooled through a
    /// private helper and serially: the two runs, and the pooled one's
    /// lending.
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
    fn a_helper_that_panics_degrades_to_the_stepping_thread() {
        let lender = Lender::with_helper(|_| panic!("helper down (expected by this test)"));
        let mut pooled = engine(1);
        // The first pool loses its lent share to the panic and the slot
        // loop simulates it; every later pool finds no helper.
        assert_eq!(run(&mut pooled, &lender), serial(1));
        let stats = pooled.lending_stats();
        assert_eq!((stats.pooled_steps, stats.lent_instances), (0, 0));
        assert!(stats.fallbacks > 1);
        assert!(matches!(lender.lock().unwrap().helper, HelperSlot::Absent));
    }

    #[test]
    fn a_helper_whose_channel_is_closed_degrades_to_the_stepping_thread() {
        let helper = Helper::spawn("test-attention", run_job).expect("spawn");
        let lender = Mutex::new(Lender::new(HelperSlot::Running(helper.ended())));
        let mut pooled = engine(2);
        assert_eq!(run(&mut pooled, &lender), serial(2));
        assert_eq!(pooled.lending_stats().pooled_steps, 0);
        assert!(pooled.lending_stats().fallbacks > 1);
        assert!(matches!(lender.lock().unwrap().helper, HelperSlot::Absent));
    }

    #[test]
    fn a_taken_helper_is_not_waited_for() {
        let lender = Lender::private();
        let taken = lender.lock().unwrap();
        let mut pooled = engine(3);
        // Would deadlock on `lock`; `try_lock` falls through at once.
        assert_eq!(run(&mut pooled, &lender), serial(3));
        assert_eq!(pooled.lending_stats().pooled_steps, 0);
        assert!(pooled.lending_stats().fallbacks > 1);
        drop(taken);
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
        assert!(pooled
            .batch
            .slots()
            .iter()
            .all(|r| r.kept_attention.is_none()));
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

    /// A batch of `tokens` tokens after `context` cached ones, over `heads`
    /// heads of width `dim`, with synthetic rows and queries from `seed`.
    struct BatchData {
        heads: Vec<topick_model::SynthInstance>,
        queries: topick_model::SynthInstance,
        context: usize,
    }

    impl BatchData {
        fn new(seed: u64, heads: usize, dim: usize, context: usize, tokens: usize) -> Self {
            let instance = |rows, seed| {
                topick_model::SynthInstance::generate(&SynthProfile::realistic(rows, dim), seed)
            };
            Self {
                heads: (0..heads)
                    .map(|h| instance(context + tokens, seed ^ h as u64))
                    .collect(),
                queries: instance(tokens * heads, !seed),
                context,
            }
        }

        fn views(&self) -> Vec<KvView<'_>> {
            self.heads
                .iter()
                .map(|h| KvView::new(h.keys(), h.values()))
                .collect()
        }
    }

    /// Everything a batch leaves: the outputs' bits and the backend's
    /// cycles, statistics and energy bits.
    type Outcome = (Vec<u32>, u64, topick_core::PruneStats, u64);

    /// Runs `batch` twice on one fresh simulator — the second time on top
    /// of the first's accumulators — through `lender`, or (`None`) as the
    /// calls one after another.
    fn attend_twice(batch: &AttendBatch<'_>, lender: Option<&Mutex<Lender>>) -> Outcome {
        let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).expect("valid threshold");
        cfg.dim = batch.dim();
        let mut sim = SimulatedAttention::new(cfg);
        let mut out = Vec::new();
        for _ in 0..2 {
            match lender {
                Some(lender) => out.extend(attend_batch(&mut sim, batch, lender)),
                None => {
                    for i in 0..batch.len() {
                        let (q, kv) = batch.call(i);
                        out.extend(sim.attend(q, kv));
                    }
                }
            }
        }
        let stats = sim.accumulated_stats().expect("tracked").clone();
        (
            out.iter().map(|x| x.to_bits()).collect(),
            sim.cycles(),
            stats,
            sim.energy_pj().to_bits(),
        )
    }

    /// Batches the helper below has worked on.
    static LENT_BATCHES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    fn counting(job: &mut HelperJob) {
        if matches!(job, HelperJob::Batch(_)) {
            LENT_BATCHES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        run_job(job);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// A batch split with a helper — whenever it is past the floor —
        /// and a batch run through a lender without one each leave exactly
        /// what the calls one after another leave, energy's float sum
        /// included.
        #[test]
        fn a_lent_batch_equals_its_serial_twin(
            seed in proptest::prelude::any::<u64>(),
            heads in 1usize..=4,
            dim_idx in 0usize..3,
            context in 0usize..=160,
            tokens in 1usize..=12,
        ) {
            let dim = [8, 16, 32][dim_idx];
            let data = BatchData::new(seed, heads, dim, context, tokens);
            let views = data.views();
            let batch = AttendBatch::new(&views, data.queries.keys().data(), data.context);
            let serial = attend_twice(&batch, None);
            let private = Lender::with_helper(counting);
            let before = LENT_BATCHES.load(std::sync::atomic::Ordering::SeqCst);
            proptest::prop_assert_eq!(&attend_twice(&batch, Some(&private)), &serial);
            let lent = LENT_BATCHES.load(std::sync::atomic::Ordering::SeqCst) - before;
            proptest::prop_assert_eq!(lent, if batch_split(&batch).is_some() { 2 } else { 0 });
            proptest::prop_assert_eq!(&attend_twice(&batch, Some(&Lender::absent())), &serial);
        }
    }

    /// A batch well past the floor: a 24-token run after 120 tokens over
    /// four heads of 16.
    fn large_batch() -> BatchData {
        BatchData::new(7, 4, 16, 120, 24)
    }

    #[test]
    fn a_lent_batch_is_split_by_elements_with_the_caller_taking_the_front() {
        let data = large_batch();
        let views = data.views();
        let batch = AttendBatch::new(&views, data.queries.keys().data(), data.context);
        let first = batch_split(&batch).expect("past the floor");
        let rows =
            |calls: std::ops::Range<usize>| -> usize { calls.map(|i| batch.shape(i).1).sum() };
        // The caller's front is the shortest that reaches half the rows.
        let total = rows(0..batch.len());
        assert!(2 * rows(0..first) >= total && 2 * rows(0..first - 1) < total);
    }

    #[test]
    fn a_batch_whose_helper_panics_runs_on_the_calling_thread() {
        let data = large_batch();
        let views = data.views();
        let batch = AttendBatch::new(&views, data.queries.keys().data(), data.context);
        let lender = Lender::with_helper(|_| panic!("helper down (expected by this test)"));
        // The first batch loses its lent half to the panic and the caller
        // runs it; the second finds no helper.
        assert_eq!(
            attend_twice(&batch, Some(&lender)),
            attend_twice(&batch, None)
        );
        assert!(matches!(lender.lock().unwrap().helper, HelperSlot::Absent));
    }

    #[test]
    fn a_batch_whose_lender_is_held_is_not_waited_for() {
        let data = large_batch();
        let views = data.views();
        let batch = AttendBatch::new(&views, data.queries.keys().data(), data.context);
        let lender = Lender::private();
        let held = lender.lock().unwrap();
        // Would deadlock on `lock`; `try_lock` falls through at once.
        assert_eq!(
            attend_twice(&batch, Some(&lender)),
            attend_twice(&batch, None)
        );
        drop(held);
    }

    #[test]
    fn a_batch_under_the_floor_never_touches_the_helper() {
        // A single-token decode at 200 tokens of context over four heads
        // of 16: 12 800 elements.
        let data = BatchData::new(3, 4, 16, 199, 1);
        let views = data.views();
        let batch = AttendBatch::new(&views, data.queries.keys().data(), data.context);
        assert!(batch_split(&batch).is_none());
        let lender = Lender::with_helper(|_| panic!("touched the helper"));
        assert_eq!(
            attend_twice(&batch, Some(&lender)),
            attend_twice(&batch, None)
        );
        assert!(matches!(
            lender.lock().unwrap().helper,
            HelperSlot::Running(_)
        ));
    }
}
