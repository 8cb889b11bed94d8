//! The outside-in layer trace: everything the traced repetition measures
//! *around* the program, since nothing inside it may change.
//!
//! * [`Shadow`] re-executes, right after each engine step, the attention
//!   work that step did (`SynthInstance::generate` → quantize →
//!   `run_attention` per decoded or prefilled request), under spans. The
//!   step's own cost minus the shadow's is the control-plane estimate.
//! * The `*_ops` functions time direct calls on private instances (a
//!   pager, the policies, the trace format, the paged store, the model)
//!   that replay the run's own requests and events.

use std::collections::HashMap;
use std::time::Instant;

use topick_accel::serve::trace::{Trace, TraceMeta, TraceRecorder};
use topick_accel::{
    run_prompt_phase, AccelConfig, AttentionStepResult, ClusterEvent, KvPager, PendingView,
    PolicyKind, ServeEvent, ServingConfig, ServingRequest, SimulatedAttention, ToPickAccelerator,
};
use topick_core::{
    ProgressivePruner, PruneStats, PrunerConfig, PrunerScratch, QMatrix, QVector, QuantBuffer,
};
use topick_model::{
    argmax_token, KvCache, ModelSpec, PagedKvStore, SynthInstance, SynthProfile, TransformerModel,
};

use crate::spans::Tracer;

/// Accumulated cost of direct calls to one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTimer {
    pub calls: u64,
    pub ns: u64,
}

impl OpTimer {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        out
    }

    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    pub fn busy_s(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// What a set of `run_attention` calls did on the modeled side: cycles,
/// DRAM traffic and energy, summed.
#[derive(Debug, Clone, Default)]
pub struct AttentionTotals {
    pub calls: u64,
    pub ctx_tokens: u64,
    pub sim_cycles: u64,
    pub read_bytes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub dram_requests: u64,
    pub dram_latency_cycles: u64,
    pub dram_pj: f64,
    pub total_pj: f64,
    pub prune: Option<PruneStats>,
}

impl AttentionTotals {
    pub fn add(&mut self, cfg: &AccelConfig, r: &AttentionStepResult) {
        self.calls += 1;
        self.ctx_tokens += r.prune.tokens as u64;
        self.sim_cycles += r.cycles;
        self.read_bytes += r.dram_stats.read_bytes(&cfg.dram);
        self.row_hits += r.dram_stats.row_hits;
        self.row_misses += r.dram_stats.row_misses;
        self.dram_requests += r.dram_stats.reads + r.dram_stats.writes;
        self.dram_latency_cycles += r.dram_stats.total_latency;
        self.dram_pj += r.energy.dram_pj;
        self.total_pj += r.energy.total_pj();
        match &mut self.prune {
            Some(p) => p.merge(&r.prune),
            None => self.prune = Some(r.prune.clone()),
        }
    }
}

/// `num / den`, or 0 where there was nothing to divide by (a layer that
/// did not run reports 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(name, value)` pairs of the layer metrics the traced child reports.
pub type Layers = Vec<(&'static str, f64)>;

/// The `dram.*` and `energy.*` metrics plus the modeled half of
/// `accel.engine.*`, from the ToPick calls and the same calls under the
/// Baseline accelerator.
pub fn modeled_attention_layers(
    out: &mut Layers,
    topick: &AttentionTotals,
    base: &AttentionTotals,
) {
    let calls = topick.calls as f64;
    let ctx = topick.ctx_tokens as f64;
    out.extend([
        (
            "accel.engine.sim_cycles_per_call",
            ratio(topick.sim_cycles as f64, calls),
        ),
        (
            "dram.read_bytes_per_ctx_token",
            ratio(topick.read_bytes as f64, ctx),
        ),
        (
            "dram.row_hit_rate",
            ratio(
                topick.row_hits as f64,
                (topick.row_hits + topick.row_misses) as f64,
            ),
        ),
        (
            "dram.mean_latency_cycles",
            ratio(
                topick.dram_latency_cycles as f64,
                topick.dram_requests as f64,
            ),
        ),
        (
            "dram.bytes_reduction_vs_baseline",
            ratio(base.read_bytes as f64, topick.read_bytes as f64),
        ),
        ("energy.pj_per_call", ratio(topick.total_pj, calls)),
        ("energy.dram_share", ratio(topick.dram_pj, topick.total_pj)),
        (
            "energy.gain_vs_baseline",
            ratio(base.total_pj, topick.total_pj),
        ),
    ]);
}

/// Re-executes the attention work of engine steps from outside.
pub struct Shadow {
    seed: u64,
    cfg: AccelConfig,
    accel: ToPickAccelerator,
    baseline_cfg: AccelConfig,
    baseline: ToPickAccelerator,
    key_buf: QuantBuffer,
    prompt_len: HashMap<u64, usize>,
    pub topick: AttentionTotals,
    pub base: AttentionTotals,
}

impl Shadow {
    /// `serving` is the configuration of the engine being shadowed: the
    /// shadow derives each instance seed exactly as the engine does, from
    /// `(cfg.seed, request id, context)`.
    pub fn new(serving: &ServingConfig, requests: &[ServingRequest]) -> Self {
        let baseline_cfg = AccelConfig::baseline();
        Self {
            seed: serving.seed,
            cfg: serving.accel.clone(),
            accel: ToPickAccelerator::new(serving.accel.clone()),
            baseline: ToPickAccelerator::new(baseline_cfg.clone()),
            baseline_cfg,
            key_buf: QuantBuffer::new(),
            prompt_len: requests.iter().map(|r| (r.id, r.prompt_len)).collect(),
            topick: AttentionTotals::default(),
            base: AttentionTotals::default(),
        }
    }

    /// Shadows every attention simulation the step behind `events` ran:
    /// one per generated token (at the token's context) and one per
    /// prefill chunk (at the request's prompt length).
    pub fn replay_step(&mut self, tracer: &mut Tracer, step: usize, events: &[ServeEvent]) {
        let span = tracer.begin("shadow", step as u64);
        for e in events {
            let (id, ctx) = match *e {
                ServeEvent::TokenGenerated { id, context, .. } => (id, context),
                ServeEvent::PrefillChunk { id, .. } => match self.prompt_len.get(&id) {
                    Some(&len) => (id, len),
                    None => continue,
                },
                _ => continue,
            };
            self.replay_one(tracer, id, ctx);
        }
        tracer.end(span);
    }

    fn replay_one(&mut self, tracer: &mut Tracer, id: u64, ctx: usize) {
        let dim = self.cfg.dim;
        let pc = self.cfg.precision;
        let seed = self
            .seed
            .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((ctx as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let inst = tracer.time("model.synth.generate", id, || {
            SynthInstance::generate(&SynthProfile::realistic(ctx, dim), seed)
        });
        let q = tracer.time("core.quant.query", id, || {
            QVector::quantize(&inst.query, pc)
        });
        let key_buf = &mut self.key_buf;
        let keys = tracer
            .time("core.quant.keys", id, || {
                key_buf.quantize(inst.keys().data(), dim, pc)
            })
            .expect("a generated instance is never empty");
        let accel = &self.accel;
        let r = tracer
            .time("accel.engine.run_attention", id, || {
                accel.run_attention(&q, &keys, inst.values())
            })
            .expect("shapes come from one instance");
        self.topick.add(&self.cfg, &r);
        // The same call under the Baseline accelerator: what the traffic
        // and energy would have been without pruning. Not part of the
        // shadow's cost (the engine never does this).
        let baseline = &self.baseline;
        let b = tracer
            .time("shadow.baseline_attention", id, || {
                baseline.run_attention(&q, &keys, inst.values())
            })
            .expect("shapes come from one instance");
        self.base.add(&self.baseline_cfg, &b);
        self.key_buf.reclaim(keys);
    }
}

/// Spans whose time the shadow charges against the engine step.
pub const SHADOW_COST_SPANS: [&str; 4] = [
    "model.synth.generate",
    "core.quant.query",
    "core.quant.keys",
    "accel.engine.run_attention",
];

/// Cost of each pager operation, from replaying the run's admissions,
/// preemptions and retirements onto a private pager of the same shape.
#[derive(Debug, Default)]
pub struct PagerOps {
    pub reserve: OpTimer,
    pub adopt: OpTimer,
    pub register: OpTimer,
    pub truncate: OpTimer,
    pub release: OpTimer,
    pub validate: OpTimer,
    /// Admissions the private pager could not fit (the engine made room
    /// by reclaiming retained pages, which leaves no event to replay).
    pub skipped: u64,
}

pub fn pager_ops(
    cfg: &ServingConfig,
    requests: &[ServingRequest],
    events: &[ServeEvent],
) -> PagerOps {
    let adm = cfg.admission;
    let mut pager = KvPager::new(adm.page_size, adm.max_batch_tokens)
        .with_prefix_cache(adm.prefix_cache)
        .with_host_tier(cfg.host_pages);
    let by_id: HashMap<u64, &ServingRequest> = requests.iter().map(|r| (r.id, r)).collect();
    let chains: HashMap<u64, Vec<u64>> = if adm.prefix_cache {
        requests
            .iter()
            .map(|r| (r.id, r.page_keys(adm.page_size)))
            .collect()
    } else {
        HashMap::new()
    };
    let no_chain = Vec::new();
    let mut ops = PagerOps::default();
    for (i, e) in events.iter().enumerate() {
        let owner = e.id();
        let Some(req) = by_id.get(&owner) else {
            continue;
        };
        match *e {
            ServeEvent::Admitted { .. } => {
                let chain = chains.get(&owner).unwrap_or(&no_chain);
                let final_context = req.prompt_len + req.max_new_tokens;
                if !pager.can_admit(owner, final_context, chain) {
                    ops.skipped += 1;
                    continue;
                }
                if adm.prefix_cache {
                    ops.adopt.time(|| pager.adopt_prefix(owner, chain));
                }
                ops.reserve.time(|| pager.reserve(owner, final_context));
                if adm.prefix_cache {
                    ops.register.time(|| pager.register_prefix(owner, chain));
                }
            }
            ServeEvent::Preempted {
                retained_tokens, ..
            } => {
                let keep = pager.pages_needed(retained_tokens);
                ops.truncate.time(|| pager.truncate(owner, keep));
            }
            ServeEvent::Finished { .. } => {
                ops.release.time(|| pager.release(owner));
            }
            _ => {}
        }
        if i % 64 == 0 {
            ops.validate.time(|| pager.validate());
        }
    }
    ops
}

/// Host nanoseconds of one `pick_next` over `depth` queued requests, for
/// every built-in policy.
pub fn policy_pick_ns(requests: &[ServingRequest], depth: usize) -> Vec<(PolicyKind, f64)> {
    let views: Vec<PendingView> = requests
        .iter()
        .take(depth.max(1))
        .enumerate()
        .map(|(i, r)| PendingView {
            id: r.id,
            priority: r.priority,
            client_id: r.client_id,
            arrival_seq: i as u64,
            waited_steps: 3,
            remaining_tokens: r.max_new_tokens,
            final_context: r.prompt_len + r.max_new_tokens,
            enqueued_at: 0,
            last_token_at: None,
            ttft_deadline: None,
            itl_deadline: None,
        })
        .collect();
    PolicyKind::all()
        .into_iter()
        .map(|kind| {
            let mut policy = kind.build();
            let mut t = OpTimer::default();
            // At least 16 picks, then until 5 ms have been measured.
            while t.calls < 16 || (t.ns < 5_000_000 && t.calls < 100_000) {
                let step = 3 + t.calls;
                std::hint::black_box(t.time(|| policy.pick_next(&views, &[], step)));
            }
            (kind, t.ns_per_call())
        })
        .collect()
}

/// Cost of the serve-trace format on the run's own event stream.
#[derive(Debug, Default)]
pub struct TraceOps {
    pub events: usize,
    pub record: OpTimer,
    pub render: OpTimer,
    pub render_bytes: usize,
    pub parse: OpTimer,
    pub replay: OpTimer,
    pub replay_digest_match: bool,
}

pub fn trace_ops(
    meta: TraceMeta,
    requests: &[ServingRequest],
    events: &[ClusterEvent],
) -> TraceOps {
    let mut ops = TraceOps {
        events: events.len(),
        ..TraceOps::default()
    };
    let trace = ops.record.time(|| {
        let mut rec = TraceRecorder::new(meta);
        for r in requests {
            rec.request(r);
        }
        rec.events(events.iter().copied());
        rec.finish()
    });
    let text = ops.render.time(|| trace.render());
    ops.render_bytes = text.len();
    let parsed = ops.parse.time(|| Trace::parse(&text));
    let replayed = ops.replay.time(|| trace.replay());
    ops.replay_digest_match = parsed.is_ok_and(|p| p.digest == trace.digest)
        && replayed.is_ok_and(|(t, _)| t.digest == trace.digest);
    ops
}

/// Cost of the paged KV store's row operations on a private store of the
/// served model's shape: 8 sequences of 256 rows.
#[derive(Debug, Default)]
pub struct PagedOps {
    pub push_rows: OpTimer,
    pub gather_rows: OpTimer,
    pub fork: OpTimer,
}

pub fn paged_ops(head_dim: usize, page_size: usize) -> PagedOps {
    const SEQS: usize = 8;
    const ROWS: usize = 256;
    let mut store = PagedKvStore::new(head_dim, page_size);
    let row: Vec<f32> = (0..head_dim).map(|i| i as f32 * 0.01).collect();
    let mut ops = PagedOps::default();
    let mut seqs: Vec<_> = (0..SEQS).map(|_| store.new_seq()).collect();
    for seq in &mut seqs {
        for _ in 0..ROWS {
            ops.push_rows.time(|| store.push(seq, &row, &row));
        }
    }
    let (mut keys, mut values) = (Vec::new(), Vec::new());
    for seq in &seqs {
        ops.gather_rows
            .time(|| store.gather_into(seq, &mut keys, &mut values));
        std::hint::black_box((&keys, &values));
    }
    // One gather moves ROWS rows: count rows, not calls.
    ops.gather_rows.calls *= ROWS as u64;
    let mut forks = Vec::new();
    for seq in &seqs {
        forks.push(ops.fork.time(|| store.fork(seq, ROWS / 2)));
    }
    let live: Vec<_> = seqs.iter().chain(&forks).collect();
    store.validate(&live);
    ops
}

/// The verification sample's reference generation, with prompt ingestion
/// and decode steps timed apart. Produces exactly what
/// `TokenBackedBatch::reference_generate` produces.
#[derive(Debug, Default)]
pub struct TransformerOps {
    pub prefill_tokens: OpTimer,
    pub decode_steps: OpTimer,
}

pub struct ReferenceModel {
    model: TransformerModel,
    kernel_cfg: AccelConfig,
    pub ops: TransformerOps,
}

impl ReferenceModel {
    pub fn new(spec: ModelSpec, model_seed: u64, accel: &AccelConfig) -> Self {
        let mut kernel_cfg = accel.clone();
        kernel_cfg.dim = spec.head_dim();
        Self {
            model: TransformerModel::new_random(spec, model_seed),
            kernel_cfg,
            ops: TransformerOps::default(),
        }
    }

    pub fn generate(&mut self, prompt: &[usize], steps: usize) -> Vec<usize> {
        let spec = self.model.spec().clone();
        let mut kernel = SimulatedAttention::new(self.kernel_cfg.clone());
        let mut cache = KvCache::new(spec.n_layers, spec.n_heads, spec.head_dim());
        let model = &self.model;
        let mut logits = self
            .ops
            .prefill_tokens
            .time(|| model.prefill(prompt, &mut cache, &mut kernel));
        // One prefill call ingests the whole prompt: count tokens.
        self.ops.prefill_tokens.calls += prompt.len() as u64 - 1;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = argmax_token(&logits);
            out.push(next);
            logits = self
                .ops
                .decode_steps
                .time(|| model.decode_step(next, &mut cache, &mut kernel));
        }
        out
    }
}

/// One pool member of `kernel-sweep`, generated and quantized in set-up.
pub struct PoolInstance {
    pub ctx: usize,
    pub inst: SynthInstance,
    pub query: QVector,
    pub keys: QMatrix,
}

/// The step-0 pruner run directly over the pool, once.
pub fn pruner_ops(pool: &[PoolInstance], threshold: f64) -> (OpTimer, PruneStats) {
    let pruner = ProgressivePruner::new(PrunerConfig::new(threshold).expect("valid threshold"));
    let mut scratch = PrunerScratch::new();
    let mut t = OpTimer::default();
    let mut total: Option<PruneStats> = None;
    for p in pool {
        let outcome = t
            .time(|| pruner.run_with_scratch(&p.query, &p.keys, &mut scratch))
            .expect("pool shapes are consistent");
        match &mut total {
            Some(s) => s.merge(&outcome.stats),
            None => total = Some(outcome.stats),
        }
    }
    (t, total.expect("the pool is never empty"))
}

/// The prompt phase over the pool's two shortest contexts (the engine
/// never calls it today; this is the baseline for deriving prices from
/// it). Returns `(timer, simulated cycles, prompt tokens)`.
pub fn prompt_ops(cfg: &AccelConfig, pool: &[PoolInstance]) -> (OpTimer, u64, u64) {
    let mut t = OpTimer::default();
    let (mut cycles, mut tokens) = (0u64, 0u64);
    for ctx in [512, 1024] {
        let Some(p) = pool.iter().find(|p| p.ctx == ctx) else {
            continue;
        };
        // Every prompt position queries the causal prefix; the key rows
        // double as the queries.
        let queries: Vec<QVector> = (0..p.ctx)
            .map(|i| QVector::quantize(p.inst.key_row(i), cfg.precision))
            .collect();
        let r = t
            .time(|| run_prompt_phase(cfg, &queries, &p.keys, p.inst.values()))
            .expect("pool shapes are consistent");
        cycles += r.cycles;
        tokens += p.ctx as u64;
    }
    (t, cycles, tokens)
}
