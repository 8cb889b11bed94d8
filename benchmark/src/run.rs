//! One repetition of one workload, as the child process runs it:
//! set-up → the measured loop → checks, plus (traced repetition only) the
//! layer trace around it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use topick_accel::serve::trace::{digest_events, TraceMeta};
use topick_accel::{
    AccelConfig, ClusterEngine, ClusterEvent, KvPager, RequestStats, ServeError, ServeEvent,
    ServingConfig, ServingEngine, ServingReport, ServingRequest, ToPickAccelerator,
    TokenBackedBatch,
};
use topick_core::{exact_probabilities, PruneStats, QMatrix, QVector};
use topick_model::{SynthInstance, SynthProfile};

use crate::latency::{reconstruct, summarize, LatencySummary, RequestLatency};
use crate::layers::{
    modeled_attention_layers, paged_ops, pager_ops, policy_pick_ns, prompt_ops, pruner_ops, ratio,
    trace_ops, AttentionTotals, Layers, PoolInstance, ReferenceModel, Shadow, SHADOW_COST_SPANS,
};
use crate::metrics::PAGER_OP_METRICS;
use crate::probe::SpeedProbe;
use crate::spans::{totals_by_name, NameTotals, Span, Tracer};
use crate::stats::{median, percentile, Fnv};
use crate::workloads::{self as wl, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A measured repetition under the ToPick accelerator, tracing off.
    Topick,
    /// The comparison run under `AccelConfig::baseline()`; not timed.
    Baseline,
    /// The traced repetition under ToPick.
    Traced,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Self::Topick => "topick",
            Self::Baseline => "baseline",
            Self::Traced => "traced",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        [Self::Topick, Self::Baseline, Self::Traced]
            .into_iter()
            .find(|m| m.name() == name)
    }

    fn accel(self) -> AccelConfig {
        match self {
            Self::Baseline => AccelConfig::baseline(),
            Self::Topick | Self::Traced => wl::topick_accel(),
        }
    }
}

/// Everything one repetition reports to the parent process.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub setup_s: f64,
    pub setup_builds: usize,
    /// Host speed against the reference while the set-ups were sampled.
    pub setup_speed: f64,
    /// Host seconds of the measured loop (traced: shadow included).
    pub loop_s: f64,
    /// Host speed against the reference during the loop: `loop_s` times
    /// this is the loop's seconds at the reference speed.
    pub loop_speed: f64,
    pub tokens: usize,
    pub steps: usize,
    pub requests: usize,
    pub total_cycles: u64,
    pub clock_hz: f64,
    pub stream_digest: u64,
    pub event_digest: u64,
    pub latency: LatencySummary,
    pub kv_access_reduction: f64,
    pub peak_rss_mb: f64,
    pub ops_attempted: usize,
    pub ops_failed: usize,
    pub failures: Vec<String>,
    /// Run facts worth printing next to the metrics (counts, rates).
    pub notes: Vec<(&'static str, f64)>,
    /// Traced repetition only.
    pub traced: Option<TracedOutcome>,
}

#[derive(Debug, Clone)]
pub struct TracedOutcome {
    pub layers: Layers,
    /// Host seconds the shadow re-execution took inside `loop_s`.
    pub shadow_s: f64,
    /// `cluster-agentic` only: the plain loop again on one thread, in
    /// seconds at the reference speed.
    pub one_thread_loop_s: Option<f64>,
    pub spans: Vec<Span>,
}

/// `VmHWM` of this process in MB (0 where `/proc` does not offer it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug, Clone, Copy)]
struct SetupTiming {
    median_s: f64,
    /// Set-ups run, over all samples.
    builds: usize,
    /// Host speed against the reference while they ran.
    speed: f64,
}

/// A measured repetition samples its set-up at least this often...
const SETUP_MIN_SAMPLES: usize = 3;
/// ...and until this many seconds of set-up were sampled: most set-ups are
/// sub-millisecond, one sample of that is noise, and the window should be
/// long enough to see both of the host's speed states...
const SETUP_SAMPLE_SECONDS: f64 = 0.25;
/// ...but never more often than this.
const SETUP_MAX_SAMPLES: usize = 2500;
/// A set-up of a few microseconds is timed in batches about this long (a
/// sample is the batch's time per build): one clock reading per build
/// would be a visible part of it, and 2500 of them would span a few
/// milliseconds, one speed state of the host.
const SETUP_BATCH_SECONDS: f64 = 100e-6;
const SETUP_MAX_BATCH: usize = 256;

/// Runs `build` and returns what it built with the median host seconds
/// of building it. Every earlier build is dropped before the next starts,
/// so peak memory is one build's.
fn timed_setup<T>(
    probe: &mut SpeedProbe,
    repeat: bool,
    mut build: impl FnMut() -> T,
) -> (T, SetupTiming) {
    probe.burst();
    let mut samples = Vec::new();
    let mut total = 0.0;
    let mut builds = 0;
    let mut batch = 1;
    loop {
        let start = Instant::now();
        for _ in 1..batch {
            drop(build());
        }
        let built = build();
        let elapsed = start.elapsed().as_secs_f64();
        samples.push(elapsed / batch as f64);
        total += elapsed;
        builds += batch;
        let enough = samples.len() >= SETUP_MIN_SAMPLES && total >= SETUP_SAMPLE_SECONDS;
        if !repeat || enough || samples.len() >= SETUP_MAX_SAMPLES {
            let timing = SetupTiming {
                median_s: median(&samples),
                builds,
                speed: probe.finish(),
            };
            return (built, timing);
        }
        drop(built);
        probe.poll();
        if samples.len() == 1 {
            // Sized by the first, cold build: a batch never runs short.
            batch = ((SETUP_BATCH_SECONDS / elapsed.max(1e-9)) as usize).clamp(1, SETUP_MAX_BATCH);
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn spanned<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    subject: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, subject, f),
        None => f(),
    }
}

/// A serving system the measured loop can step: one engine, an engine
/// with its token-backed mirror, or a cluster.
trait Target {
    /// One step; the step's modeled cycles, or `None` once drained.
    fn step(
        &mut self,
        tracer: Option<&mut Tracer>,
        index: usize,
    ) -> Result<Option<u64>, ServeError>;
    /// Serve events recorded since the last call (traced loop only).
    fn fresh_events(&mut self) -> Vec<ServeEvent>;
    /// Every pager in the system, for occupancy sampling.
    fn pagers(&self) -> Vec<&KvPager>;
    /// Pages in use in the real KV store, where there is one.
    fn store_pages(&self) -> usize {
        0
    }
}

struct EngineTarget {
    engine: ServingEngine,
    seen: usize,
}

impl Target for EngineTarget {
    fn step(
        &mut self,
        tracer: Option<&mut Tracer>,
        index: usize,
    ) -> Result<Option<u64>, ServeError> {
        let engine = &mut self.engine;
        let r = spanned(tracer, "serve.engine.step", index as u64, || engine.step())?;
        Ok(r.map(|s| s.total_cycles()))
    }

    fn fresh_events(&mut self) -> Vec<ServeEvent> {
        let fresh = self.engine.events()[self.seen..].to_vec();
        self.seen = self.engine.events().len();
        fresh
    }

    fn pagers(&self) -> Vec<&KvPager> {
        vec![self.engine.kv_pager()]
    }
}

/// The loop body of `run_token_backed`, written out so that `step`,
/// the event drain and the mirror's `apply_all` can be timed apart. The
/// Baseline comparison runs the bare engine (`batch` is `None`).
struct TokenTarget {
    engine: ServingEngine,
    batch: Option<TokenBackedBatch>,
    events: Vec<ServeEvent>,
    seen: usize,
}

impl Target for TokenTarget {
    fn step(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        index: usize,
    ) -> Result<Option<u64>, ServeError> {
        let engine = &mut self.engine;
        let r = spanned(
            tracer.as_deref_mut(),
            "serve.engine.step",
            index as u64,
            || engine.step(),
        )?;
        let fresh = spanned(
            tracer.as_deref_mut(),
            "serve.engine.drain_events",
            index as u64,
            || engine.drain_events(),
        );
        if let Some(batch) = &mut self.batch {
            spanned(tracer, "serve.token_backed.apply", index as u64, || {
                batch.apply_all(&fresh);
            });
        }
        self.events.extend(fresh);
        Ok(r.map(|s| s.total_cycles()))
    }

    fn fresh_events(&mut self) -> Vec<ServeEvent> {
        let fresh = self.events[self.seen..].to_vec();
        self.seen = self.events.len();
        fresh
    }

    fn pagers(&self) -> Vec<&KvPager> {
        vec![self.engine.kv_pager()]
    }

    fn store_pages(&self) -> usize {
        self.batch
            .as_ref()
            .map_or(0, |b| b.store().allocated_pages())
    }
}

struct ClusterTarget {
    cluster: ClusterEngine,
    seen: usize,
}

impl Target for ClusterTarget {
    fn step(
        &mut self,
        tracer: Option<&mut Tracer>,
        index: usize,
    ) -> Result<Option<u64>, ServeError> {
        let cluster = &mut self.cluster;
        let r = spanned(tracer, "serve.cluster.step", index as u64, || {
            cluster.step()
        })?;
        Ok(r.map(|s| s.critical_cycles))
    }

    fn fresh_events(&mut self) -> Vec<ServeEvent> {
        let fresh = serve_events(&self.cluster.events()[self.seen..], None);
        self.seen = self.cluster.events().len();
        fresh
    }

    fn pagers(&self) -> Vec<&KvPager> {
        (0..self.cluster.shard_count())
            .map(|i| self.cluster.shard(i).kv_pager())
            .collect()
    }
}

/// What the traced loop gathers step by step.
struct Observer {
    tracer: Tracer,
    shadow: Shadow,
    shadow_ns: u64,
    peak_allocated_pages: usize,
    peak_cached_pages: usize,
    fragmented_tokens_sum: usize,
    samples: usize,
    peak_store_pages: usize,
}

impl Observer {
    fn new(tracer: Tracer, serving: &ServingConfig, requests: &[ServingRequest]) -> Self {
        Self {
            tracer,
            shadow: Shadow::new(serving, requests),
            shadow_ns: 0,
            peak_allocated_pages: 0,
            peak_cached_pages: 0,
            fragmented_tokens_sum: 0,
            samples: 0,
            peak_store_pages: 0,
        }
    }

    fn after_step(&mut self, step: usize, target: &mut impl Target) {
        let start = Instant::now();
        let fresh = target.fresh_events();
        self.shadow.replay_step(&mut self.tracer, step, &fresh);
        self.shadow_ns += elapsed_ns(start);
        let pagers = target.pagers();
        let sum = |f: fn(&KvPager) -> usize| pagers.iter().map(|p| f(p)).sum::<usize>();
        self.peak_allocated_pages = self.peak_allocated_pages.max(sum(KvPager::allocated_pages));
        self.peak_cached_pages = self.peak_cached_pages.max(sum(KvPager::cached_pages));
        self.fragmented_tokens_sum += sum(KvPager::fragmented_tokens);
        self.samples += 1;
        self.peak_store_pages = self.peak_store_pages.max(target.store_pages());
    }

    fn finish(self, layers: Layers, one_thread_loop_s: Option<f64>) -> TracedOutcome {
        TracedOutcome {
            layers,
            shadow_s: self.shadow_ns as f64 / 1e9,
            one_thread_loop_s,
            spans: self.tracer.into_spans(),
        }
    }
}

struct Driven {
    /// Host seconds of the loop, the probe's bursts left out.
    loop_s: f64,
    /// Host speed against the reference while it ran.
    speed: f64,
    step_cycles: Vec<u64>,
    /// The step cap was hit or a step failed: the run did not drain.
    aborted: Option<String>,
}

/// The measured loop: step until drained. In the traced repetition every
/// step is followed at once by its shadow, so that slow drift of the
/// host's speed hits both alike.
fn drive(
    target: &mut impl Target,
    cap: usize,
    mut observer: Option<&mut Observer>,
    probe: &mut SpeedProbe,
) -> Driven {
    probe.burst();
    let before = probe.spent();
    let start = Instant::now();
    let mut step_cycles = Vec::new();
    let mut aborted = None;
    loop {
        let index = step_cycles.len();
        if index >= cap {
            aborted = Some(format!("still busy at the cap of {cap} steps"));
            break;
        }
        match target.step(observer.as_deref_mut().map(|o| &mut o.tracer), index) {
            Ok(Some(cycles)) => step_cycles.push(cycles),
            Ok(None) => break,
            Err(e) => {
                aborted = Some(format!("step {index} failed: {e}"));
                break;
            }
        }
        if let Some(o) = observer.as_deref_mut() {
            o.after_step(index, target);
        }
        probe.poll();
    }
    let elapsed = start.elapsed();
    let inside = probe.spent() - before;
    Driven {
        loop_s: (elapsed - inside).as_secs_f64(),
        speed: probe.finish(),
        step_cycles,
        aborted,
    }
}

/// Sums over the step and request records of one or more engine reports.
#[derive(Debug, Default)]
struct Totals {
    tokens: usize,
    rejections: usize,
    preemptions: usize,
    prompt_tokens: usize,
    hit_tokens: usize,
    reprefilled_tokens: usize,
    swapped_tokens: usize,
    busy_steps: usize,
    idle_steps: usize,
    batch_sum: usize,
    cycles: [u64; 6],
    queue_wait_steps: Vec<usize>,
    prune: Option<PruneStats>,
}

impl Totals {
    fn of(reports: &[ServingReport]) -> Self {
        let mut t = Self::default();
        for r in reports {
            t.tokens += r.tokens_generated;
            t.rejections += r.rejections;
            t.preemptions += r.preemptions;
            t.prompt_tokens += r.admitted_prompt_tokens;
            t.hit_tokens += r.admitted_hit_tokens;
            t.reprefilled_tokens += r.total_reprefilled_tokens();
            t.swapped_tokens += r.total_swapped_tokens();
            for s in &r.steps {
                if s.batch == 0 {
                    t.idle_steps += 1;
                } else {
                    t.busy_steps += 1;
                    t.batch_sum += s.batch;
                }
                for (sum, c) in t.cycles.iter_mut().zip([
                    s.weight_cycles,
                    s.attention_cycles,
                    s.prefill_cycles,
                    s.reprefill_cycles,
                    s.swap_cycles,
                    s.ship_cycles,
                ]) {
                    *sum += c;
                }
            }
            t.queue_wait_steps.extend(
                r.requests
                    .iter()
                    .filter_map(RequestStats::session)
                    .map(|s| s.queue_wait_steps),
            );
            match &mut t.prune {
                Some(p) => p.merge(&r.prune),
                None => t.prune = Some(r.prune.clone()),
            }
        }
        t.queue_wait_steps.sort_unstable();
        t
    }

    fn hit_rate(&self) -> f64 {
        ratio(self.hit_tokens as f64, self.prompt_tokens as f64)
    }
}

fn validates(check: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(check)).is_ok()
}

/// Largest number of arrived, not-running requests at the start of any
/// step, from the arrival schedule and the admission/preemption events.
fn pending_depth_max(requests: &[ServingRequest], events: &[ServeEvent], steps: usize) -> usize {
    let mut delta = vec![0i64; steps + 2];
    for r in requests {
        delta[(r.arrival_step as usize).min(steps)] += 1;
    }
    for e in events {
        // An admission or rejection at step s empties a queue slot from
        // step s + 1 on; a preemption fills one.
        let at = (e.step() + 1).min(steps + 1);
        match e {
            ServeEvent::Admitted { .. } | ServeEvent::Rejected { .. } => delta[at] -= 1,
            ServeEvent::Preempted { .. } => delta[at] += 1,
            _ => {}
        }
    }
    let mut depth = 0i64;
    let mut max = 0i64;
    for d in delta {
        depth += d;
        max = max.max(depth);
    }
    usize::try_from(max).unwrap_or(0)
}

/// Common tail of every serving repetition: digests, modeled latency and
/// the checks that every request finished and every pager is consistent.
struct Served<'a> {
    workload: Workload,
    requests: &'a [ServingRequest],
    enqueue_errors: usize,
    events: Vec<ClusterEvent>,
    reports: Vec<ServingReport>,
    driven: Driven,
    pagers_valid: bool,
    clock_hz: f64,
    dim: usize,
}

impl Served<'_> {
    fn outcome(&self, setup: SetupTiming, peak_rss_mb: f64) -> (Outcome, Totals) {
        let totals = Totals::of(&self.reports);
        let serve_events = serve_events(&self.events, None);
        let latencies = reconstruct(self.requests, &serve_events, &self.driven.step_cycles);
        let total_cycles: u64 = self.driven.step_cycles.iter().sum();
        let latency = summarize(
            &latencies,
            self.workload.limits(),
            total_cycles,
            self.clock_hz,
        );
        let unfinished = latencies.iter().filter(|l| !l.complete).count();

        let mut failures = Vec::new();
        if self.enqueue_errors > 0 {
            failures.push(format!(
                "{} requests refused at enqueue",
                self.enqueue_errors
            ));
        }
        if let Some(why) = &self.driven.aborted {
            failures.push(why.clone());
        }
        if unfinished > 0 {
            failures.push(format!(
                "{unfinished} requests did not finish with generated == max_new_tokens ({} rejected)",
                totals.rejections
            ));
        }
        if !self.pagers_valid {
            failures.push("a KV pager failed validate() after the drain".to_string());
        }
        // Operations: every request, plus the pager check. A refused
        // enqueue also shows up as an unfinished request; count it once.
        let ops_failed = unfinished + usize::from(!self.pagers_valid);
        let pc = wl::topick_accel().precision;
        let outcome = Outcome {
            setup_s: setup.median_s,
            setup_builds: setup.builds,
            setup_speed: setup.speed,
            loop_s: self.driven.loop_s,
            loop_speed: self.driven.speed,
            tokens: totals.tokens,
            steps: self.driven.step_cycles.len(),
            requests: self.requests.len(),
            total_cycles,
            clock_hz: self.clock_hz,
            stream_digest: wl::stream_digest(self.requests),
            event_digest: digest_events(&self.events),
            latency,
            kv_access_reduction: totals
                .prune
                .as_ref()
                .map_or(0.0, |p| p.total_reduction(self.dim, &pc)),
            peak_rss_mb,
            ops_attempted: self.requests.len() + 1,
            ops_failed,
            failures,
            notes: vec![
                ("prefix_hit_rate", totals.hit_rate()),
                ("preemptions", totals.preemptions as f64),
                ("swapped_tokens", totals.swapped_tokens as f64),
                ("good_requests", latency.good_requests as f64),
            ],
            traced: None,
        };
        (outcome, totals)
    }
}

/// The host-side cost of attention work from its spans: instance
/// generation and key quantization per context token generated
/// (`generated_ctx`), `run_attention` per context token and per simulated
/// cycle it attended over (`attended`).
fn host_attention_layers(
    out: &mut Layers,
    by_name: &BTreeMap<&'static str, NameTotals>,
    generated_ctx: u64,
    attended: &AttentionTotals,
) {
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let per = |t: NameTotals, n: u64| ratio(t.busy_ns as f64, n as f64);
    let generate = get("model.synth.generate");
    let keys = get("core.quant.keys");
    let query = get("core.quant.query");
    let attn = get("accel.engine.run_attention");
    out.extend([
        ("model.synth.generate_calls", generate.calls as f64),
        ("model.synth.generate_busy_s", generate.busy_s()),
        (
            "model.synth.generate_ns_per_ctx_token",
            per(generate, generated_ctx),
        ),
        ("core.quant.keys_calls", keys.calls as f64),
        ("core.quant.keys_busy_s", keys.busy_s()),
        ("core.quant.keys_ns_per_ctx_token", per(keys, generated_ctx)),
        ("core.quant.query_calls", query.calls as f64),
        ("core.quant.query_busy_s", query.busy_s()),
        ("core.quant.query_ns", per(query, query.calls)),
        ("accel.engine.attn_calls", attn.calls as f64),
        ("accel.engine.attn_busy_s", attn.busy_s()),
        (
            "accel.engine.attn_ns_per_ctx_token",
            per(attn, attended.ctx_tokens),
        ),
        (
            "accel.engine.host_ns_per_sim_cycle",
            per(attn, attended.sim_cycles),
        ),
    ]);
}

/// The `serve.engine.*` and `serve.kv_pager.*` metrics every traced
/// serving repetition reports, plus the shadow's attention layers.
fn serving_layers(
    served: &Served<'_>,
    totals: &Totals,
    observer: &Observer,
    step_span: &'static str,
    serving: &ServingConfig,
) -> (Layers, BTreeMap<&'static str, NameTotals>) {
    let by_name = totals_by_name(observer.tracer.spans());
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let serve_events = serve_events(&served.events, None);
    let mut out = Layers::new();

    // Attention work, as the shadow re-executed it.
    let shadowed = &observer.shadow.topick;
    host_attention_layers(&mut out, &by_name, shadowed.ctx_tokens, shadowed);
    modeled_attention_layers(&mut out, &observer.shadow.topick, &observer.shadow.base);

    // The step loop.
    let step = get(step_span);
    let mut step_ns: Vec<u64> = observer
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == step_span)
        .map(Span::duration_ns)
        .collect();
    step_ns.sort_unstable();
    let shadow_cost_ns: u64 = SHADOW_COST_SPANS.iter().map(|n| get(n).busy_ns).sum();
    let self_est_s = (step.busy_ns as f64 - shadow_cost_ns as f64) / 1e9;
    let cycle_sum: u64 = totals.cycles.iter().sum();
    let share = |c: u64| ratio(c as f64, cycle_sum as f64);
    let max_batch = serving.admission.max_batch.max(1);
    let depth = pending_depth_max(
        served.requests,
        &serve_events,
        served.driven.step_cycles.len(),
    );
    out.extend([
        (
            "serve.engine.enqueue_busy_s",
            get("serve.engine.enqueue").busy_s(),
        ),
        ("serve.engine.step_calls", step.calls as f64),
        ("serve.engine.step_busy_s", step.busy_s()),
        (
            "serve.engine.step_us_p50",
            percentile(&step_ns, 50.0).map_or(0.0, |ns| ns as f64 / 1e3),
        ),
        (
            "serve.engine.step_us_p99",
            percentile(&step_ns, 99.0).map_or(0.0, |ns| ns as f64 / 1e3),
        ),
        ("serve.engine.step_self_est_s", self_est_s),
        (
            "serve.engine.step_self_share",
            ratio(self_est_s, step.busy_s()),
        ),
        (
            "serve.engine.drain_events_busy_s",
            get("serve.engine.drain_events").busy_s(),
        ),
        (
            "serve.engine.report_busy_s",
            get("serve.engine.report").busy_s(),
        ),
        ("serve.engine.events", serve_events.len() as f64),
        ("serve.engine.idle_steps", totals.idle_steps as f64),
        (
            "serve.engine.batch_occupancy_mean",
            ratio(
                totals.batch_sum as f64,
                (totals.busy_steps * max_batch) as f64,
            ),
        ),
        ("serve.engine.pending_depth_max", depth as f64),
        (
            "serve.engine.queue_wait_steps_p50",
            percentile(&totals.queue_wait_steps, 50.0).unwrap_or(0) as f64,
        ),
        (
            "serve.engine.queue_wait_steps_p99",
            percentile(&totals.queue_wait_steps, 99.0).unwrap_or(0) as f64,
        ),
        ("serve.engine.cycles_weight_share", share(totals.cycles[0])),
        (
            "serve.engine.cycles_attention_share",
            share(totals.cycles[1]),
        ),
        ("serve.engine.cycles_prefill_share", share(totals.cycles[2])),
        (
            "serve.engine.cycles_reprefill_share",
            share(totals.cycles[3]),
        ),
        ("serve.engine.cycles_swap_share", share(totals.cycles[4])),
        ("serve.engine.cycles_ship_share", share(totals.cycles[5])),
    ]);

    // The pager: what the run did with it, then what each operation costs.
    // (A cluster's shards have one pager each: shard 0 stands for them.)
    let ops = pager_ops(
        serving,
        served.requests,
        &self::serve_events(&served.events, Some(0)),
    );
    out.extend([
        ("serve.kv_pager.prefix_hit_rate", totals.hit_rate()),
        ("serve.kv_pager.preemptions", totals.preemptions as f64),
        (
            "serve.kv_pager.reprefilled_tokens",
            totals.reprefilled_tokens as f64,
        ),
        (
            "serve.kv_pager.swapped_tokens",
            totals.swapped_tokens as f64,
        ),
        (
            "serve.kv_pager.peak_allocated_pages",
            observer.peak_allocated_pages as f64,
        ),
        (
            "serve.kv_pager.peak_cached_pages",
            observer.peak_cached_pages as f64,
        ),
        (
            "serve.kv_pager.fragmented_tokens_mean",
            ratio(
                observer.fragmented_tokens_sum as f64,
                observer.samples as f64,
            ),
        ),
    ]);
    for (names, t) in PAGER_OP_METRICS.iter().zip([
        ops.reserve,
        ops.adopt,
        ops.register,
        ops.truncate,
        ops.release,
        ops.validate,
    ]) {
        out.extend([
            (names[0], t.calls as f64),
            (names[1], t.busy_s()),
            (names[2], t.ns_per_call()),
        ]);
    }

    // Every built-in policy's pick over a queue as deep as this run's
    // deepest.
    out.push(("serve.policy.depth", depth as f64));
    for (kind, ns) in policy_pick_ns(served.requests, depth) {
        out.push((policy_metric(kind), ns));
    }
    (out, by_name)
}

/// The shards' own serve events out of a cluster event stream: of one
/// shard, or of all of them in stream order.
fn serve_events(events: &[ClusterEvent], shard: Option<usize>) -> Vec<ServeEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::Shard { shard_id, event } if shard.is_none_or(|s| s == *shard_id) => {
                Some(*event)
            }
            _ => None,
        })
        .collect()
}

fn as_shard0(events: Vec<ServeEvent>) -> Vec<ClusterEvent> {
    events
        .into_iter()
        .map(|event| ClusterEvent::Shard { shard_id: 0, event })
        .collect()
}

/// `long-decode`, `prefix-chat`, `queue-drain`: one `ServingEngine`.
fn run_engine(workload: Workload, seed: u64, mode: Mode) -> Outcome {
    let accel = mode.accel();
    let mut probe = SpeedProbe::new();
    let mut setup_tracer = (mode == Mode::Traced).then(Tracer::new);
    let build = || {
        let requests = match workload {
            Workload::LongDecode => wl::long_decode_stream(seed),
            Workload::PrefixChat => {
                wl::prefix_chat_stream(seed, 600, wl::PREFIX_CHAT_ARRIVALS_PER_10_STEPS)
            }
            _ => wl::queue_drain_stream(seed),
        };
        let mut engine = match workload {
            Workload::LongDecode => wl::long_decode_engine(seed, accel.clone()),
            Workload::PrefixChat => wl::prefix_chat_engine(seed, accel.clone()),
            _ => wl::queue_drain_engine(seed, accel.clone()),
        };
        let errors = spanned(setup_tracer.as_mut(), "serve.engine.enqueue", 0, || {
            requests
                .iter()
                .filter(|r| engine.enqueue(**r).is_err())
                .count()
        });
        (engine, requests, errors)
    };
    let ((engine, requests, enqueue_errors), setup) =
        timed_setup(&mut probe, mode == Mode::Topick, build);
    let serving = engine.config().clone();
    let mut observer = setup_tracer.map(|t| Observer::new(t, &serving, &requests));
    let mut target = EngineTarget { engine, seen: 0 };
    let driven = drive(
        &mut target,
        workload.step_cap(),
        observer.as_mut(),
        &mut probe,
    );
    let mut tracer = observer.as_mut().map(|o| &mut o.tracer);
    let engine = &mut target.engine;
    let report = spanned(tracer.as_deref_mut(), "serve.engine.report", 0, || {
        engine.report()
    });
    let events = spanned(tracer, "serve.engine.drain_events", 0, || {
        engine.drain_events()
    });
    let rss = peak_rss_mb();
    let served = Served {
        workload,
        requests: &requests,
        enqueue_errors,
        events: as_shard0(events),
        reports: vec![report],
        driven,
        pagers_valid: validates(|| target.engine.kv_pager().validate()),
        clock_hz: serving.clock_hz,
        dim: serving.accel.dim,
    };
    let (mut outcome, totals) = served.outcome(setup, rss);
    if let Some(o) = observer {
        let (layers, _) = serving_layers(&served, &totals, &o, "serve.engine.step", &serving);
        outcome.traced = Some(o.finish(layers, None));
    }
    outcome
}

fn policy_metric(kind: topick_accel::PolicyKind) -> &'static str {
    use topick_accel::PolicyKind as K;
    match kind {
        K::Fifo => "serve.policy.pick_next_ns_at_depth.fifo",
        K::PriorityAging => "serve.policy.pick_next_ns_at_depth.priority-aging",
        K::ShortestJobFirst => "serve.policy.pick_next_ns_at_depth.shortest-job-first",
        K::FairRoundRobin => "serve.policy.pick_next_ns_at_depth.fair-round-robin",
        K::SloAware => "serve.policy.pick_next_ns_at_depth.slo-aware",
    }
}

/// Set-up of the token-backed loop, as `run_token_backed` does it:
/// register and enqueue every request, then apply the enqueue events to
/// the mirror. Returns the target and how many requests were refused.
fn token_target(
    mut engine: ServingEngine,
    requests: &[ServingRequest],
    with_mirror: bool,
) -> (TokenTarget, usize) {
    let mut batch = with_mirror.then(|| {
        TokenBackedBatch::new(
            wl::real_tokens_spec(),
            wl::REAL_TOKENS_MODEL_SEED,
            engine.config(),
        )
    });
    let refused = requests
        .iter()
        .filter(|r| {
            batch.as_mut().is_some_and(|b| b.register(r).is_err()) || engine.enqueue(**r).is_err()
        })
        .count();
    let events = engine.drain_events();
    if let Some(b) = &mut batch {
        b.apply_all(&events);
    }
    let seen = events.len();
    (
        TokenTarget {
            engine,
            batch,
            events,
            seen,
        },
        refused,
    )
}

/// `real-tokens`: the prefix-chat engine with a token-backed mirror.
fn run_real_tokens(seed: u64, mode: Mode) -> Outcome {
    let workload = Workload::RealTokens;
    let accel = mode.accel();
    let mut probe = SpeedProbe::new();
    let build = || {
        let requests = wl::prefix_chat_stream(
            seed,
            wl::REAL_TOKENS_REQUESTS,
            wl::REAL_TOKENS_ARRIVALS_PER_10_STEPS,
        );
        let engine = wl::prefix_chat_engine(seed, accel.clone());
        let (target, refused) = token_target(engine, &requests, mode != Mode::Baseline);
        (target, requests, refused)
    };
    let ((mut target, requests, enqueue_errors), setup) =
        timed_setup(&mut probe, mode == Mode::Topick, build);
    let serving = target.engine.config().clone();
    let mut observer =
        (mode == Mode::Traced).then(|| Observer::new(Tracer::new(), &serving, &requests));
    let driven = drive(
        &mut target,
        workload.step_cap(),
        observer.as_mut(),
        &mut probe,
    );
    let report = spanned(
        observer.as_mut().map(|o| &mut o.tracer),
        "serve.engine.report",
        0,
        || target.engine.report(),
    );
    let rss = peak_rss_mb();
    let served = Served {
        workload,
        requests: &requests,
        enqueue_errors,
        events: as_shard0(std::mem::take(&mut target.events)),
        reports: vec![report],
        driven,
        pagers_valid: validates(|| target.engine.kv_pager().validate()),
        clock_hz: serving.clock_hz,
        dim: serving.accel.dim,
    };
    let (mut outcome, totals) = served.outcome(setup, rss);

    // Output check: the served tokens of every 4th request must equal an
    // unsharded per-request generation, and the store must be consistent.
    let mut reference = (mode == Mode::Traced).then(|| {
        ReferenceModel::new(
            wl::real_tokens_spec(),
            wl::REAL_TOKENS_MODEL_SEED,
            &serving.accel,
        )
    });
    if let Some(batch) = &target.batch {
        for req in requests.iter().step_by(4) {
            let expected = match &mut reference {
                Some(m) => m.generate(batch.prompt(req.id).unwrap_or(&[0]), req.max_new_tokens),
                None => batch.reference_generate(req),
            };
            outcome.ops_attempted += 1;
            if batch.generated(req.id) != Some(expected.as_slice()) {
                outcome.ops_failed += 1;
                outcome.failures.push(format!(
                    "request {}: served tokens differ from reference_generate",
                    req.id
                ));
            }
        }
        outcome.ops_attempted += 1;
        if !validates(|| batch.validate()) {
            outcome.ops_failed += 1;
            outcome
                .failures
                .push("the paged KV store failed validate()".to_string());
        }
        outcome
            .notes
            .push(("peak_shared_pages", batch.peak_shared_pages() as f64));
    }

    if let (Some(o), Some(batch)) = (observer, &target.batch) {
        let (mut layers, by_name) =
            serving_layers(&served, &totals, &o, "serve.engine.step", &serving);
        let charged = served.reports[0].total_attention_cycles()
            + served.reports[0].total_prefill_cycles()
            + served.reports[0].total_reprefill_cycles();
        let measured = batch.measured_cycles();
        layers.extend([
            (
                "serve.token_backed.apply_busy_s",
                by_name
                    .get("serve.token_backed.apply")
                    .map_or(0.0, NameTotals::busy_s),
            ),
            ("serve.token_backed.measured_cycles", measured as f64),
            (
                "serve.token_backed.cycle_ratio",
                ratio(charged as f64, measured as f64),
            ),
            (
                "serve.token_backed.peak_shared_pages",
                batch.peak_shared_pages() as f64,
            ),
        ]);
        let m = reference.expect("built for the traced repetition").ops;
        layers.extend([
            (
                "model.transformer.prefill_calls",
                m.prefill_tokens.calls as f64,
            ),
            (
                "model.transformer.prefill_busy_s",
                m.prefill_tokens.busy_s(),
            ),
            (
                "model.transformer.prefill_ns_per_token",
                m.prefill_tokens.ns_per_call(),
            ),
            (
                "model.transformer.decode_step_calls",
                m.decode_steps.calls as f64,
            ),
            (
                "model.transformer.decode_step_busy_s",
                m.decode_steps.busy_s(),
            ),
            (
                "model.transformer.decode_step_ns",
                m.decode_steps.ns_per_call(),
            ),
        ]);
        let p = paged_ops(
            wl::real_tokens_spec().head_dim(),
            serving.admission.page_size,
        );
        layers.extend([
            ("model.paged.push_ns_per_row", p.push_rows.ns_per_call()),
            ("model.paged.gather_ns_per_row", p.gather_rows.ns_per_call()),
            ("model.paged.fork_ns", p.fork.ns_per_call()),
            ("model.paged.pages_in_use_peak", o.peak_store_pages as f64),
        ]);
        outcome.traced = Some(o.finish(layers, None));
    }
    outcome
}

struct ClusterSetup {
    cluster: ClusterEngine,
    requests: Vec<ServingRequest>,
    enqueue_errors: usize,
    /// Requests routed to a shard that had already been given their
    /// first prompt page.
    affinity_hits: usize,
}

fn cluster_setup(
    seed: u64,
    accel: &AccelConfig,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
) -> ClusterSetup {
    let requests = wl::cluster_agentic_stream(seed);
    let mut cluster = wl::cluster_agentic_engine(seed, accel.clone(), threads);
    let page_size = cluster.shard(0).config().admission.page_size;
    let mut served_by: HashMap<u64, HashSet<usize>> = HashMap::new();
    let (mut enqueue_errors, mut affinity_hits) = (0, 0);
    for r in &requests {
        let routed = spanned(tracer.as_deref_mut(), "serve.cluster.enqueue", r.id, || {
            cluster.enqueue(*r)
        });
        let Ok(shard) = routed else {
            enqueue_errors += 1;
            continue;
        };
        if let Some(&first) = r.page_keys(page_size).first() {
            if !served_by.entry(first).or_default().insert(shard) {
                affinity_hits += 1;
            }
        }
    }
    ClusterSetup {
        cluster,
        requests,
        enqueue_errors,
        affinity_hits,
    }
}

/// `cluster-agentic`: four shards behind prefix-affinity routing.
fn run_cluster(seed: u64, mode: Mode) -> Outcome {
    let workload = Workload::ClusterAgentic;
    let accel = mode.accel();
    let mut probe = SpeedProbe::new();
    let threads = wl::cluster_threads();
    let mut setup_tracer = (mode == Mode::Traced).then(Tracer::new);
    let (built, setup) = timed_setup(&mut probe, mode == Mode::Topick, || {
        cluster_setup(seed, &accel, threads, setup_tracer.as_mut())
    });
    let ClusterSetup {
        cluster,
        requests,
        enqueue_errors,
        affinity_hits,
    } = built;
    let serving = cluster.shard(0).config().clone();
    let mut observer = setup_tracer.map(|t| Observer::new(t, &serving, &requests));
    let mut target = ClusterTarget { cluster, seen: 0 };
    let driven = drive(
        &mut target,
        workload.step_cap(),
        observer.as_mut(),
        &mut probe,
    );
    let cluster = &mut target.cluster;
    let report = cluster.report();
    let events = cluster.drain_events();
    let rss = peak_rss_mb();
    let pagers_valid = validates(|| {
        for i in 0..cluster.shard_count() {
            cluster.shard(i).kv_pager().validate();
        }
    });
    let served = Served {
        workload,
        requests: &requests,
        enqueue_errors,
        events,
        reports: report.shards.clone(),
        driven,
        pagers_valid,
        clock_hz: serving.clock_hz,
        dim: serving.accel.dim,
    };
    let (mut outcome, totals) = served.outcome(setup, rss);
    outcome.notes.extend([
        ("steals", report.steals as f64),
        ("ships", report.ships as f64),
        ("threads", threads as f64),
    ]);
    if let Some(o) = observer {
        let (mut layers, by_name) =
            serving_layers(&served, &totals, &o, "serve.cluster.step", &serving);
        let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
        layers.extend([
            (
                "serve.cluster.enqueue_busy_s",
                get("serve.cluster.enqueue").busy_s(),
            ),
            (
                "serve.cluster.step_busy_s",
                get("serve.cluster.step").busy_s(),
            ),
            ("serve.cluster.steals", report.steals as f64),
            ("serve.cluster.ships", report.ships as f64),
            ("serve.cluster.load_imbalance", report.load_imbalance()),
            (
                "serve.cluster.affinity_hit_share",
                affinity_hits as f64 / requests.len().max(1) as f64,
            ),
        ]);
        let meta = TraceMeta::new(&serving, wl::CLUSTER_POLICY.name())
            .for_cluster(
                wl::CLUSTER_SHARDS,
                wl::CLUSTER_ROUTING.name(),
                true,
                threads,
            )
            .with_max_steps(workload.step_cap());
        let t = trace_ops(meta, &requests, &served.events);
        let per_event = |ns: u64| ns as f64 / t.events.max(1) as f64;
        layers.extend([
            ("serve.trace.record_busy_s", t.record.busy_s()),
            ("serve.trace.render_ns_per_event", per_event(t.render.ns)),
            ("serve.trace.render_bytes", t.render_bytes as f64),
            ("serve.trace.parse_ns_per_event", per_event(t.parse.ns)),
            ("serve.trace.replay_busy_s", t.replay.busy_s()),
            (
                "serve.trace.replay_digest_match",
                f64::from(u8::from(t.replay_digest_match)),
            ),
        ]);
        // The same stream once more on one thread, plain: what the
        // thread barrier buys is this over the untraced repetitions.
        let one_thread_loop_s = (threads > 1).then(|| {
            let setup = cluster_setup(seed, &accel, 1, None);
            let mut target = ClusterTarget {
                cluster: setup.cluster,
                seen: 0,
            };
            let driven = drive(&mut target, workload.step_cap(), None, &mut probe);
            driven.loop_s * driven.speed
        });
        outcome.traced = Some(o.finish(layers, one_thread_loop_s));
    }
    outcome
}

/// `kernel-sweep`: `run_attention` over a pre-built pool, closed loop.
fn run_kernel(seed: u64, mode: Mode) -> Outcome {
    let cfg = mode.accel();
    let mut probe = SpeedProbe::new();
    let pc = cfg.precision;
    let spec = wl::kernel_pool_spec(seed);
    let mut tracer = (mode == Mode::Traced).then(Tracer::new);
    let build = |mut tracer: Option<&mut Tracer>| -> Vec<PoolInstance> {
        spec.iter()
            .enumerate()
            .map(|(i, &(ctx, inst_seed))| {
                let i = i as u64;
                let inst = spanned(tracer.as_deref_mut(), "model.synth.generate", i, || {
                    SynthInstance::generate(
                        &SynthProfile::realistic(ctx, wl::KERNEL_DIM),
                        inst_seed,
                    )
                });
                let query = spanned(tracer.as_deref_mut(), "core.quant.query", i, || {
                    QVector::quantize(&inst.query, pc)
                });
                let keys = spanned(tracer.as_deref_mut(), "core.quant.keys", i, || {
                    QMatrix::quantize_flat(inst.keys().data(), wl::KERNEL_DIM, pc)
                })
                .expect("a generated instance is never empty");
                PoolInstance {
                    ctx,
                    inst,
                    query,
                    keys,
                }
            })
            .collect()
    };
    let (pool, setup) = timed_setup(&mut probe, mode == Mode::Topick, || build(tracer.as_mut()));
    let accel = ToPickAccelerator::new(cfg.clone());
    // Baseline needs one round: its cycles repeat exactly.
    let rounds = if mode == Mode::Baseline {
        1
    } else {
        wl::KERNEL_ROUNDS
    };

    let mut call_cycles: Vec<Vec<u64>> = vec![Vec::new(); pool.len()];
    let mut first_kept: Vec<Vec<usize>> = vec![Vec::new(); pool.len()];
    let mut totals = AttentionTotals::default();
    let mut digest = Fnv::new();
    let mut errors = 0usize;
    probe.burst();
    let before = probe.spent();
    let start = Instant::now();
    for round in 0..rounds {
        for (i, p) in pool.iter().enumerate() {
            let result = spanned(
                tracer.as_mut(),
                "accel.engine.run_attention",
                i as u64,
                || accel.run_attention(&p.query, &p.keys, p.inst.values()),
            );
            match result {
                Ok(r) => {
                    call_cycles[i].push(r.cycles);
                    digest.push(r.cycles);
                    digest.push(r.kept.len() as u64);
                    totals.add(&cfg, &r);
                    if round == 0 {
                        first_kept[i] = r.kept;
                    }
                }
                Err(_) => errors += 1,
            }
            probe.poll();
        }
    }
    let loop_s = (start.elapsed() - (probe.spent() - before)).as_secs_f64();
    let loop_speed = probe.finish();
    let rss = peak_rss_mb();

    let calls = rounds * pool.len();
    let total_cycles = totals.sim_cycles;
    let clock_hz = 500e6;
    let latencies: Vec<RequestLatency> = call_cycles
        .iter()
        .map(|c| RequestLatency {
            ttft_cycles: c.first().copied(),
            gap_cycles: c.iter().skip(1).copied().collect(),
            tokens: c.len(),
            complete: c.len() == rounds,
        })
        .collect();
    let latency = summarize(
        &latencies,
        Workload::KernelSweep.limits(),
        total_cycles,
        clock_hz,
    );

    // Output check, the paper's guarantee: no token whose exact softmax
    // probability exceeds the threshold may have been pruned.
    let mut failures = Vec::new();
    let mut unsound = 0usize;
    let mut worst_pruned = 0.0f64;
    if mode != Mode::Baseline {
        for (p, kept) in pool.iter().zip(&first_kept) {
            let kept: HashSet<usize> = kept.iter().copied().collect();
            let worst = exact_probabilities(&p.query, &p.keys)
                .into_iter()
                .enumerate()
                .filter(|(t, _)| !kept.contains(t))
                .map(|(_, prob)| prob)
                .fold(0.0, f64::max);
            worst_pruned = worst_pruned.max(worst);
            if worst > cfg.threshold {
                unsound += 1;
            }
        }
        if unsound > 0 {
            failures.push(format!(
                "{unsound} instances pruned a token with probability above {} (worst {worst_pruned:e})",
                cfg.threshold
            ));
        }
    }
    if errors > 0 {
        failures.push(format!("{errors} run_attention calls failed"));
    }

    let mut outcome = Outcome {
        setup_s: setup.median_s,
        setup_builds: setup.builds,
        setup_speed: setup.speed,
        loop_s,
        loop_speed,
        tokens: calls - errors,
        steps: calls,
        requests: pool.len(),
        total_cycles,
        clock_hz,
        stream_digest: wl::kernel_pool_digest(&spec),
        event_digest: digest.finish(),
        latency,
        kv_access_reduction: totals
            .prune
            .as_ref()
            .map_or(0.0, |p| p.total_reduction(wl::KERNEL_DIM, &pc)),
        peak_rss_mb: rss,
        ops_attempted: calls + pool.len(),
        ops_failed: errors + unsound,
        failures,
        notes: vec![
            ("worst_pruned_probability", worst_pruned),
            ("good_requests", latency.good_requests as f64),
        ],
        traced: None,
    };

    if let Some(mut tracer) = tracer {
        // The same pool under the Baseline accelerator, one round.
        let base_cfg = AccelConfig::baseline();
        let base_accel = ToPickAccelerator::new(base_cfg.clone());
        let mut base = AttentionTotals::default();
        for (i, p) in pool.iter().enumerate() {
            if let Ok(r) = tracer.time("shadow.baseline_attention", i as u64, || {
                base_accel.run_attention(&p.query, &p.keys, p.inst.values())
            }) {
                base.add(&base_cfg, &r);
            }
        }
        // Traffic and energy ratios compare like with like: one round.
        let mut one_round = AttentionTotals::default();
        for p in &pool {
            if let Ok(r) = accel.run_attention(&p.query, &p.keys, p.inst.values()) {
                one_round.add(&cfg, &r);
            }
        }
        let by_name = totals_by_name(tracer.spans());
        let pool_ctx: u64 = pool.iter().map(|p| p.ctx as u64).sum();
        let mut layers = Layers::new();
        // Generation and key quantization ran once over the pool, in
        // set-up; attention ran `rounds` times over it.
        host_attention_layers(&mut layers, &by_name, pool_ctx, &totals);
        modeled_attention_layers(&mut layers, &one_round, &base);
        let (pruner, prune) = pruner_ops(&pool, cfg.threshold);
        let fetches: u64 = prune.chunk_fetches.iter().sum();
        layers.extend([
            ("core.pruner.run_calls", pruner.calls as f64),
            ("core.pruner.run_busy_s", pruner.busy_s()),
            (
                "core.pruner.run_ns_per_ctx_token",
                pruner.ns as f64 / pool_ctx as f64,
            ),
            (
                "core.pruner.kept_share",
                prune.kept as f64 / prune.tokens.max(1) as f64,
            ),
            (
                "core.pruner.chunks_per_token",
                fetches as f64 / prune.tokens.max(1) as f64,
            ),
        ]);
        let (prompt, prompt_cycles, prompt_tokens) = prompt_ops(&cfg, &pool);
        layers.extend([
            ("accel.prompt.calls", prompt.calls as f64),
            ("accel.prompt.busy_s", prompt.busy_s()),
            (
                "accel.prompt.sim_cycles_per_token",
                prompt_cycles as f64 / prompt_tokens.max(1) as f64,
            ),
        ]);
        outcome.traced = Some(TracedOutcome {
            layers,
            shadow_s: 0.0,
            one_thread_loop_s: None,
            spans: tracer.into_spans(),
        });
    }
    outcome
}

pub fn run(workload: Workload, seed: u64, mode: Mode) -> Outcome {
    match workload {
        Workload::LongDecode | Workload::PrefixChat | Workload::QueueDrain => {
            run_engine(workload, seed, mode)
        }
        Workload::ClusterAgentic => run_cluster(seed, mode),
        Workload::RealTokens => run_real_tokens(seed, mode),
        Workload::KernelSweep => run_kernel(seed, mode),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topick_accel::run_token_backed;

    /// The benchmark's own token-backed loop must be `run_token_backed`:
    /// same tokens, same report.
    #[test]
    fn hand_written_token_backed_loop_matches_run_token_backed() {
        let requests = wl::prefix_chat_stream(5, 4, 9);
        let (mut ours, refused) = token_target(
            wl::prefix_chat_engine(5, wl::topick_accel()),
            &requests,
            true,
        );
        assert_eq!(refused, 0);
        assert!(drive(&mut ours, 500, None, &mut SpeedProbe::new())
            .aborted
            .is_none());
        let our_batch = ours.batch.expect("built with a mirror");

        let mut engine = wl::prefix_chat_engine(5, wl::topick_accel());
        let theirs = run_token_backed(
            &mut engine,
            requests.clone(),
            wl::real_tokens_spec(),
            wl::REAL_TOKENS_MODEL_SEED,
            500,
        )
        .expect("run_token_backed drains");
        assert_eq!(ours.engine.report(), theirs.report);
        for r in &requests {
            let got = our_batch.generated(r.id).expect("served");
            assert_eq!(got.len(), r.max_new_tokens);
            assert_eq!(Some(got), theirs.batch.generated(r.id));
        }
        assert_eq!(our_batch.measured_cycles(), theirs.batch.measured_cycles());
    }

    #[test]
    fn pending_depth_counts_arrived_and_not_running() {
        let requests = [
            ServingRequest::new(0, 8, 1),
            ServingRequest::new(1, 8, 1),
            ServingRequest::new(2, 8, 1).arriving_at(2),
        ];
        let admitted = |id, step| ServeEvent::Admitted {
            id,
            step,
            context: 8,
            cached_tokens: 0,
        };
        // Both early requests wait at step 0; one is admitted there, the
        // other at step 1; the third arrives at 2 and waits one step.
        let events = [admitted(0, 0), admitted(1, 1), admitted(2, 3)];
        assert_eq!(pending_depth_max(&requests, &events, 4), 2);
        assert_eq!(pending_depth_max(&requests[2..], &events[2..], 4), 1);
    }

    #[test]
    fn setup_repeats_until_steady_and_keeps_the_last_build() {
        let mut builds = 0;
        let mut probe = SpeedProbe::new();
        let (last, timing) = timed_setup(&mut probe, true, || {
            builds += 1;
            builds
        });
        // One cold build alone, then batches up to the sample cap.
        assert!(
            timing.builds >= SETUP_MAX_SAMPLES,
            "an instant build repeats up to the cap"
        );
        assert!(timing.builds <= 1 + (SETUP_MAX_SAMPLES - 1) * SETUP_MAX_BATCH);
        assert_eq!(last, timing.builds, "the last build is the one kept");
        assert!(timing.median_s >= 0.0);
        let (_, once) = timed_setup(&mut probe, false, || ());
        assert_eq!(once.builds, 1);
    }
}
