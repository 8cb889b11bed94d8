//! Serve-trace record/replay: freeze any serving run — single engine or
//! sharded cluster — into a line-oriented JSON artifact, and replay it to
//! a bit-identical schedule.
//!
//! A [`Trace`] holds three things: a [`TraceMeta`] snapshot of everything
//! that shaped the schedule (engine sizing, scheduling policy, preemption
//! and retention, sharding, routing, stealing, step bound — plus a thread
//! count that shapes nothing and is carried only for format v1), the
//! originating [`ServingRequest`]s in enqueue order, and the typed
//! [`ClusterEvent`] stream the run emitted (single-engine events are
//! wrapped as shard 0). Because every layer of the engine is
//! deterministic, that snapshot is sufficient: rebuilding the engine from
//! the meta and re-enqueueing the recorded requests in recorded order
//! reproduces routing, admission, preemption and stealing decision for
//! decision.
//!
//! The correctness anchor is the **fixed point**: record a run, replay
//! it, record the replay — the two traces' digests (an FNV-1a over the
//! typed event stream) are identical. `tests/serving.rs` pins this across
//! scenarios, policies, routers, stealing and retention, and a checked-in
//! golden trace under `tests/data/` keeps it honest against format drift.
//!
//! The on-disk format is line-oriented JSON (one flat object per line:
//! one meta line, one line per request, one per event, one digest
//! footer), hand-rolled — no serde, no crates.io. Line orientation keeps
//! traces diffable, greppable and appendable, the same shape production
//! serving stacks use for request logs.

use std::fmt::{self, Write as _};
use std::path::Path;

use super::cluster::{ClusterEngine, ClusterEvent, ClusterReport};
use super::events::{WireEvent, MAX_EVENT_FIELDS};
use super::policy::{PolicyKind, MAX_EVICTIONS_PER_STEP};
use super::pricing::REPREFILL_FACTOR;
use super::queue::ServingRequest;
use super::router::RoutingKind;
use super::{AdmissionConfig, LendingStats, PreemptionConfig, ServingConfig};
use crate::config::{AccelConfig, AccelMode};

/// Errors from recording, serializing, parsing or replaying a trace.
#[derive(Debug)]
pub enum TraceError {
    /// The trace text could not be parsed (message includes the line).
    Parse(String),
    /// Reading or writing the trace file failed.
    Io(String),
    /// Rebuilding or driving the engine during record/replay failed.
    Serve(super::ServeError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(msg) => write!(f, "trace parse error: {msg}"),
            Self::Io(msg) => write!(f, "trace io error: {msg}"),
            Self::Serve(e) => write!(f, "traced run error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<super::ServeError> for TraceError {
    fn from(e: super::ServeError) -> Self {
        Self::Serve(e)
    }
}

/// Everything that shaped a recorded run's schedule, snapshotted so the
/// run can be rebuilt from the trace alone: the engine's whole
/// [`ServingConfig`] plus what sits outside it — the scheduling policy,
/// the cluster shape, the scenario provenance and the step bound.
///
/// The accelerator is rendered as `(mode, threshold)` and rebuilt through
/// [`AccelConfig::paper`] — traces snapshot the paper hardware
/// configuration, which is what every engine in this workspace runs. The
/// config is private so [`new`](Self::new) is the only way in and that
/// condition is checked once.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Originating scenario name, when the workload came from the
    /// scenario registry (informational; replay uses the recorded
    /// requests, never regenerates).
    pub scenario: Option<String>,
    /// The seed the scenario was generated with.
    pub scenario_seed: u64,
    config: ServingConfig,
    /// Scheduler policy name ([`PolicyKind::name`]).
    pub policy: String,
    /// Shard count (a cluster of `1` is a bare
    /// [`ServingEngine`](super::ServingEngine)).
    pub shards: usize,
    /// Routing policy name (meaningful when `shards > 1`).
    pub routing: String,
    /// Whether work stealing was on.
    pub stealing: bool,
    /// A number format v1 records and replays byte for byte; it selects
    /// nothing (it once sized the worker threads a cluster stepped on).
    pub threads: usize,
    /// The `run_to_completion` step bound.
    pub max_steps: usize,
}

impl TraceMeta {
    /// Snapshots a serving configuration plus the policy driving it, for
    /// a single-engine run (`shards = 1`). Layer cluster shape on with
    /// [`for_cluster`](Self::for_cluster) and scenario provenance with
    /// [`for_scenario`](Self::for_scenario).
    #[must_use]
    pub fn new(cfg: &ServingConfig, policy: &str) -> Self {
        debug_assert_eq!(
            Some(&cfg.accel),
            AccelConfig::paper(cfg.accel.mode, cfg.accel.threshold)
                .ok()
                .as_ref(),
            "traces snapshot the paper accelerator configuration"
        );
        Self {
            scenario: None,
            scenario_seed: 0,
            config: cfg.clone(),
            policy: policy.to_string(),
            shards: 1,
            routing: RoutingKind::RoundRobin.name().to_string(),
            stealing: false,
            threads: 1,
            max_steps: 10_000,
        }
    }

    /// Records the cluster shape of the run (shard count, routing,
    /// stealing) and the `threads` number format v1 carries beside it,
    /// which selects nothing.
    #[must_use]
    pub fn for_cluster(
        mut self,
        shards: usize,
        routing: &str,
        stealing: bool,
        threads: usize,
    ) -> Self {
        self.shards = shards.max(1);
        self.routing = routing.to_string();
        self.stealing = stealing;
        self.threads = threads.max(1);
        self
    }

    /// Records which scenario (and seed) generated the workload.
    #[must_use]
    pub fn for_scenario(mut self, name: &str, seed: u64) -> Self {
        self.scenario = Some(name.to_string());
        self.scenario_seed = seed;
        self
    }

    /// Overrides the `run_to_completion` step bound.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The serving configuration this meta snapshotted.
    #[must_use]
    pub fn serving_config(&self) -> &ServingConfig {
        &self.config
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// FNV-1a digest over the *typed* event stream — every variant tag and
/// field, not the rendered text — so two traces agree on the digest
/// exactly when they describe the same schedule. A shard's event hashes
/// as the shard wrapper's tag, the shard id, then the event's own tag and
/// payload; a cluster-level event as its tag and payload.
#[must_use]
pub fn digest_events(events: &[ClusterEvent]) -> u64 {
    let mut h = FNV_OFFSET;
    for event in events {
        let wire = event.wire();
        if let Some(shard) = wire.shard {
            h = fnv(fnv(h, ClusterEvent::SHARD_TAG), shard as u64);
        }
        h = fnv(h, wire.schema.tag);
        for &value in wire.payload() {
            h = fnv(h, value);
        }
    }
    h
}

/// Accumulates a run into a [`Trace`]: the meta up front, then the
/// originating requests in enqueue order, then the event stream.
#[derive(Debug)]
pub struct TraceRecorder {
    meta: TraceMeta,
    requests: Vec<ServingRequest>,
    events: Vec<ClusterEvent>,
}

impl TraceRecorder {
    /// Starts a recorder for a run described by `meta`.
    #[must_use]
    pub fn new(meta: TraceMeta) -> Self {
        Self {
            meta,
            requests: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Records one originating request (call in enqueue order — replay
    /// re-enqueues in recorded order, which is what reproduces routing).
    pub fn request(&mut self, req: &ServingRequest) {
        self.requests.push(*req);
    }

    /// Records a batch of cluster events.
    pub fn events(&mut self, events: impl IntoIterator<Item = ClusterEvent>) {
        self.events.extend(events);
    }

    /// Seals the recording into a digested [`Trace`].
    #[must_use]
    pub fn finish(self) -> Trace {
        let digest = digest_events(&self.events);
        Trace {
            meta: self.meta,
            requests: self.requests,
            events: self.events,
            digest,
        }
    }
}

/// A frozen serving run: meta, requests, events and the event digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The configuration snapshot the run can be rebuilt from.
    pub meta: TraceMeta,
    /// Originating requests, in enqueue order.
    pub requests: Vec<ServingRequest>,
    /// The typed event stream (single-engine events appear as shard 0).
    pub events: Vec<ClusterEvent>,
    /// [`digest_events`] over [`events`](Self::events) — the schedule
    /// fingerprint record/replay is compared by.
    pub digest: u64,
}

/// Builds the cluster `meta` describes — `meta.shards` shards, where a
/// cluster of one *is* the bare [`ServingEngine`](super::ServingEngine),
/// event for event — enqueues `requests` in order, runs to completion and
/// seals the whole run into a [`Trace`].
///
/// This is the one code path both *record* and *replay* go through —
/// replay is literally re-recording from the same inputs, which is what
/// makes the fixed point (`record → replay → record`, identical digests)
/// an invariant rather than a coincidence.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] if the meta's policy/routing strings
/// don't name built-ins, or [`TraceError::Serve`] if the run
/// itself fails (invalid request, stalled admission, step limit).
pub fn run_recorded(
    meta: &TraceMeta,
    requests: &[ServingRequest],
) -> Result<(Trace, ClusterReport), TraceError> {
    run_recorded_with_lending(meta, requests).map(|(trace, report, _)| (trace, report))
}

/// [`run_recorded`], plus how often the run's steps used the second core
/// ([`ClusterEngine::lending_stats`]) — a fact about the host the run was
/// made on, which is why it travels beside the trace and the report
/// rather than in them.
///
/// # Errors
///
/// As [`run_recorded`].
pub fn run_recorded_with_lending(
    meta: &TraceMeta,
    requests: &[ServingRequest],
) -> Result<(Trace, ClusterReport, LendingStats), TraceError> {
    let cfg = meta.config.clone();
    let policy: PolicyKind = meta
        .policy
        .parse()
        .map_err(|e: String| TraceError::Parse(format!("invalid policy '{}': {e}", meta.policy)))?;
    let routing: RoutingKind = meta.routing.parse().map_err(|e: String| {
        TraceError::Parse(format!("invalid routing '{}': {e}", meta.routing))
    })?;
    let mut cluster = ClusterEngine::builder(cfg.accel.clone())
        .config(cfg)
        .policy(policy)
        .shards(meta.shards)
        .routing(routing)
        .stealing(meta.stealing)
        .build();
    let mut recorder = TraceRecorder::new(meta.clone());
    for req in requests {
        recorder.request(req);
        cluster.enqueue(*req)?;
    }
    let report = cluster.run_to_completion(meta.max_steps)?;
    recorder.events(cluster.drain_events());
    Ok((recorder.finish(), report, cluster.lending_stats()))
}

/// Minimal flat-JSON line writer (writer side of the trace format):
/// appends one `{"type":…}` object and its newline to a shared buffer.
struct JsonLine<'a>(&'a mut String);

impl<'a> JsonLine<'a> {
    fn new(out: &'a mut String, ty: &str) -> Self {
        write!(out, "{{\"type\":\"{ty}\"").expect("writing to a String cannot fail");
        Self(out)
    }

    fn str_field(self, key: &str, value: &str) -> Self {
        debug_assert!(
            !value.contains(['"', '\\']),
            "trace strings are registry names and never need escaping"
        );
        self.field(key, format_args!("\"{value}\""))
    }

    /// A number or bool. Rust's `Display` for `f64` is the shortest
    /// round-trip form: it parses back to the same `f64`.
    fn field(self, key: &str, value: impl fmt::Display) -> Self {
        write!(self.0, ",\"{key}\":{value}").expect("writing to a String cannot fail");
        self
    }

    fn finish(self) {
        self.0.push_str("}\n");
    }
}

/// One `"key":value` pair of a trace line, borrowed from the line.
type Pair<'a> = (&'a str, &'a str);

/// The string `text` opens with, and what follows its closing quote.
fn quoted<'a>(text: &'a str, what: &str) -> Result<(&'a str, &'a str), String> {
    let body = text
        .strip_prefix('"')
        .ok_or_else(|| format!("expected '\"' to open a {what}"))?;
    match body.find(['"', '\\']) {
        Some(end) if body.as_bytes()[end] == b'"' => Ok((&body[..end], &body[end + 1..])),
        Some(_) => Err("escape sequences are not supported".to_string()),
        None => Err(format!("unterminated {what}")),
    }
}

/// Splits the leading `"key":value` pair off `rest` (`None` at the end of
/// the line), in place: a value is a quoted string or runs to the next
/// comma.
fn next_pair(rest: &str) -> Result<Option<(Pair<'_>, &str)>, String> {
    let rest = rest.trim_start_matches(',');
    if rest.is_empty() {
        return Ok(None);
    }
    let (key, rest) = quoted(rest, "key")?;
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| format!("expected ':' after key '{key}'"))?;
    let (value, rest) = if rest.starts_with('"') {
        quoted(rest, "string value")?
    } else {
        let (value, rest) = rest.split_at(rest.find(',').unwrap_or(rest.len()));
        (value.trim(), rest)
    };
    Ok(Some(((key, value), rest)))
}

/// One parsed line's fields, with typed accessors that blame the line.
/// The line is checked once and then read in place — an accessor scans
/// its few dozen bytes for the key — so parsing allocates nothing per
/// line.
struct Fields<'a> {
    line_no: usize,
    inner: &'a str,
}

impl<'a> Fields<'a> {
    fn parse(line_no: usize, line: &'a str) -> Result<Self, TraceError> {
        let err = |msg: String| TraceError::Parse(format!("line {line_no}: {msg}"));
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| err("expected a {{...}} object".to_string()))?;
        let fields = Self { line_no, inner };
        for pair in fields.pairs() {
            pair.map_err(err)?;
        }
        Ok(fields)
    }

    /// The line's pairs in order, ending at the first syntax error.
    fn pairs(&self) -> impl Iterator<Item = Result<Pair<'a>, String>> {
        let mut rest = self.inner;
        std::iter::from_fn(move || {
            let (pair, tail) = match next_pair(rest) {
                Ok(next) => next.map(|(pair, tail)| (Ok(pair), tail))?,
                Err(msg) => (Err(msg), ""),
            };
            rest = tail;
            Some(pair)
        })
    }

    fn err(&self, msg: String) -> TraceError {
        TraceError::Parse(format!("line {}: {msg}", self.line_no))
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs()
            .filter_map(Result::ok)
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<&'a str, TraceError> {
        self.get(key)
            .ok_or_else(|| self.err(format!("missing field '{key}'")))
    }

    fn parse_field<T: std::str::FromStr>(&self, key: &str) -> Result<T, TraceError> {
        self.str_field(key)?
            .parse()
            .map_err(|_| self.err(format!("field '{key}' is not a valid value")))
    }

    /// A field format v1 carries for a value the engine fixes, refused at
    /// any other value: it would replay another schedule than it names.
    fn fixed_field<T>(&self, key: &str, fixed: T) -> Result<(), TraceError>
    where
        T: std::str::FromStr + PartialEq + fmt::Display,
    {
        if self.parse_field::<T>(key)? == fixed {
            Ok(())
        } else {
            Err(self.err(format!("field '{key}' must be {fixed} in format v1")))
        }
    }

    /// A count no run can use at zero, refused there.
    fn count_field(&self, key: &str) -> Result<usize, TraceError> {
        match self.parse_field(key)? {
            0 => Err(self.err(format!("field '{key}' must be at least 1"))),
            count => Ok(count),
        }
    }

    /// A field the writer renders only when it left its default.
    fn opt_field<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, TraceError> {
        self.get(key).map(|_| self.parse_field(key)).transpose()
    }
}

impl Trace {
    /// Renders the trace as line-oriented JSON: one meta line, one line
    /// per request, one per event, one digest footer.
    #[must_use]
    pub fn render(&self) -> String {
        let m = &self.meta;
        let c = &m.config;
        let mut out = String::new();
        let mut line = JsonLine::new(&mut out, "meta").field("version", 1);
        if let Some(scenario) = &m.scenario {
            line = line
                .str_field("scenario", scenario)
                .field("scenario_seed", m.scenario_seed);
        }
        line = line
            .str_field("mode", c.accel.mode.name())
            .field("threshold", c.accel.threshold)
            .str_field("policy", &m.policy)
            .field("max_batch", c.admission.max_batch)
            .field("max_batch_tokens", c.admission.max_batch_tokens)
            .field("page_size", c.admission.page_size)
            .field("prefix_cache", c.admission.prefix_cache)
            .field("preemption", c.preemption.enabled)
            // Constants, kept on the line as v1 keeps `threads`.
            .field("reprefill_factor", REPREFILL_FACTOR)
            .field("max_evictions_per_step", MAX_EVICTIONS_PER_STEP)
            .str_field("retention", &c.preemption.retention.to_string())
            .field("prefill_factor", c.prefill_factor);
        // Chunking, tiered-KV and rejection knobs render only when they
        // left their defaults, so traces recorded before each knob existed
        // (and the checked-in goldens) keep their exact bytes.
        if c.prefill_chunk_pages != 0 {
            line = line.field("prefill_chunk_pages", c.prefill_chunk_pages);
        }
        if c.host_pages != 0 {
            line = line.field("host_pages", c.host_pages);
        }
        if c.host_pages != 0 || c.swap_cost_factor != ServingConfig::DEFAULT_SWAP_COST_FACTOR {
            line = line.field("swap_cost_factor", c.swap_cost_factor);
        }
        if c.ship_cost_factor != 0.0 {
            line = line.field("ship_cost_factor", c.ship_cost_factor);
        }
        if c.reject_expired_ttft {
            line = line.field("reject_expired_ttft", true);
        }
        line.field("heads", c.heads)
            .field("weight_bytes", c.weight_bytes)
            .field("seed", c.seed)
            .field("clock_hz", c.clock_hz)
            .field("shards", m.shards)
            .str_field("routing", &m.routing)
            .field("stealing", m.stealing)
            .field("threads", m.threads)
            .field("max_steps", m.max_steps)
            .finish();
        for r in &self.requests {
            let mut line = JsonLine::new(&mut out, "request")
                .field("id", r.id)
                .field("prompt_len", r.prompt_len)
                .field("max_new_tokens", r.max_new_tokens)
                .field("priority", r.priority)
                .field("client_id", r.client_id)
                .field("arrival_step", r.arrival_step)
                .field("prefix_tag", r.prefix_tag)
                .field("prefix_len", r.prefix_len);
            // Deadlines render only when declared, keeping deadline-free
            // traces byte-identical to the pre-SLO format.
            if let Some(d) = r.ttft_deadline {
                line = line.field("ttft_deadline", d);
            }
            if let Some(d) = r.itl_deadline {
                line = line.field("itl_deadline", d);
            }
            line.finish();
        }
        for event in &self.events {
            render_event(event, &mut out);
        }
        JsonLine::new(&mut out, "digest")
            .field("requests", self.requests.len())
            .field("events", self.events.len())
            .field("value", self.digest)
            .finish();
        out
    }

    /// Parses a trace rendered by [`render`](Self::render), verifying the
    /// digest footer against the recomputed event digest.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] on malformed lines, unknown kinds,
    /// missing meta/footer, or a digest/count mismatch (a truncated or
    /// edited trace).
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut meta: Option<TraceMeta> = None;
        let mut requests = Vec::new();
        let mut events = Vec::new();
        let mut footer: Option<(u64, u64, u64)> = None;
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let line_no = idx + 1;
            if footer.is_some() {
                return Err(TraceError::Parse(format!(
                    "line {line_no}: content after the digest footer"
                )));
            }
            let fields = Fields::parse(line_no, line)?;
            match fields.str_field("type")? {
                "meta" => {
                    if meta.is_some() {
                        return Err(fields.err("duplicate meta line".to_string()));
                    }
                    meta = Some(parse_meta(&fields)?);
                }
                ty @ ("request" | "event") if meta.is_none() => {
                    return Err(fields.err(format!("{ty} before the meta line")));
                }
                "request" => requests.push(parse_request(&fields)?),
                "event" => events.push(parse_event(&fields)?),
                "digest" => {
                    footer = Some((
                        fields.parse_field("requests")?,
                        fields.parse_field("events")?,
                        fields.parse_field("value")?,
                    ));
                }
                other => {
                    return Err(fields.err(format!("unknown line type '{other}'")));
                }
            }
        }
        let meta = meta.ok_or_else(|| TraceError::Parse("missing meta line".to_string()))?;
        let (req_count, event_count, digest) =
            footer.ok_or_else(|| TraceError::Parse("missing digest footer".to_string()))?;
        if req_count != requests.len() as u64 || event_count != events.len() as u64 {
            return Err(TraceError::Parse(format!(
                "footer counts ({req_count} requests, {event_count} events) do not match the \
                 trace body ({} requests, {} events) — truncated trace?",
                requests.len(),
                events.len()
            )));
        }
        let recomputed = digest_events(&events);
        if recomputed != digest {
            return Err(TraceError::Parse(format!(
                "digest mismatch: footer says {digest}, events hash to {recomputed}"
            )));
        }
        Ok(Self {
            meta,
            requests,
            events,
            digest,
        })
    }

    /// Writes the rendered trace to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path.as_ref(), self.render())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))
    }

    /// Loads and parses a trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be read, or
    /// [`TraceError::Parse`] as [`parse`](Self::parse) would.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::parse(&text)
    }

    /// Replays the trace: rebuilds the run from the meta, re-enqueues the
    /// recorded requests in recorded order, runs to completion and
    /// re-records. The returned trace's digest equals this trace's digest
    /// — the fixed point the subsystem is anchored on.
    ///
    /// # Errors
    ///
    /// As [`run_recorded`].
    pub fn replay(&self) -> Result<(Trace, ClusterReport), TraceError> {
        run_recorded(&self.meta, &self.requests)
    }

    /// [`replay`](Self::replay), verifying the fixed point: the fresh
    /// trace's digest must equal the recorded digest.
    ///
    /// # Errors
    ///
    /// As [`run_recorded`], plus [`TraceError::Parse`] if the replayed
    /// schedule diverges from the recording (an engine behavior change —
    /// exactly what the golden-trace regression exists to catch).
    pub fn replay_verified(&self) -> Result<(Trace, ClusterReport), TraceError> {
        let (trace, report) = self.replay()?;
        if trace.digest != self.digest {
            let detail = self
                .diff(&trace)
                .unwrap_or_else(|| "(event streams compare equal; digest scheme drift?)".into());
            return Err(TraceError::Parse(format!(
                "replay diverged from the recording: recorded digest {}, replayed {}\n{detail}",
                self.digest, trace.digest
            )));
        }
        Ok((trace, report))
    }

    /// Localizes the first schedule divergence between two traces:
    /// `None` when the event streams are identical, otherwise a
    /// human-readable report quoting the first differing event with a few
    /// events of leading context. This is what `topick trace diff` prints
    /// and what digest-mismatch failure messages embed, so a bare "digests
    /// differ" names the exact scheduling decision that moved.
    #[must_use]
    pub fn diff(&self, other: &Trace) -> Option<String> {
        if self.events == other.events {
            return None;
        }
        let mut out = String::new();
        if self.meta != other.meta {
            out.push_str("note: trace metas differ — the runs were configured differently\n");
        }
        if self.requests.len() != other.requests.len() {
            out.push_str(&format!(
                "note: request counts differ ({} vs {})\n",
                self.requests.len(),
                other.requests.len()
            ));
        }
        let idx = self
            .events
            .iter()
            .zip(&other.events)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| self.events.len().min(other.events.len()));
        out.push_str(&format!(
            "event streams diverge at event {idx} ({} vs {} events total)\n",
            self.events.len(),
            other.events.len()
        ));
        const CONTEXT: usize = 3;
        let mut quote = |mark: char, i: usize, event: Option<&ClusterEvent>| {
            out.push_str(&format!("  {mark} [{i}] "));
            match event {
                Some(event) => render_event(event, &mut out),
                None => out.push_str("(stream ends)\n"),
            }
        };
        for i in idx.saturating_sub(CONTEXT)..idx {
            quote('=', i, self.events.get(i));
        }
        quote('<', idx, self.events.get(idx));
        quote('>', idx, other.events.get(idx));
        Some(out)
    }
}

/// Appends one event line: the variant's `kind`, the shard for an event
/// that happened on one, then the payload under the schema's field names.
fn render_event(event: &ClusterEvent, out: &mut String) {
    let wire = event.wire();
    let mut line = JsonLine::new(out, "event").str_field("kind", wire.schema.kind);
    if let Some(shard) = wire.shard {
        line = line.field("shard", shard);
    }
    for (name, value) in wire.schema.fields.iter().zip(wire.payload()) {
        line = line.field(name, value);
    }
    line.finish();
}

fn parse_meta(f: &Fields) -> Result<TraceMeta, TraceError> {
    let version: u64 = f.parse_field("version")?;
    if version != 1 {
        return Err(f.err(format!("unsupported trace version {version}")));
    }
    let mode: AccelMode = f.str_field("mode")?.parse().map_err(|e: String| f.err(e))?;
    let accel = AccelConfig::paper(mode, f.parse_field("threshold")?)
        .map_err(|e| f.err(format!("invalid accel snapshot: {e}")))?;
    let retention = f.str_field("retention")?;
    // Fields the writer omits at their defaults keep the engine defaults
    // `ServingConfig::new` sets, so rebuild → snapshot round-trips.
    let mut config = ServingConfig::new(accel);
    config.admission = AdmissionConfig {
        max_batch: f.count_field("max_batch")?,
        max_batch_tokens: f.parse_field("max_batch_tokens")?,
        page_size: f.count_field("page_size")?,
        prefix_cache: f.parse_field("prefix_cache")?,
    };
    config.preemption = PreemptionConfig {
        enabled: f.parse_field("preemption")?,
        retention: retention
            .parse()
            .map_err(|e| f.err(format!("invalid retention '{retention}': {e}")))?,
    };
    f.fixed_field("reprefill_factor", REPREFILL_FACTOR)?;
    f.fixed_field("max_evictions_per_step", MAX_EVICTIONS_PER_STEP)?;
    config.prefill_factor = f.parse_field("prefill_factor")?;
    if let Some(pages) = f.opt_field("prefill_chunk_pages")? {
        config.prefill_chunk_pages = pages;
    }
    if let Some(pages) = f.opt_field("host_pages")? {
        config.host_pages = pages;
    }
    if let Some(factor) = f.opt_field("swap_cost_factor")? {
        config.swap_cost_factor = factor;
    }
    if let Some(factor) = f.opt_field("ship_cost_factor")? {
        config.ship_cost_factor = factor;
    }
    if let Some(reject) = f.opt_field("reject_expired_ttft")? {
        config.reject_expired_ttft = reject;
    }
    config.heads = f.count_field("heads")?;
    config.weight_bytes = f.parse_field("weight_bytes")?;
    config.seed = f.parse_field("seed")?;
    config.clock_hz = f.parse_field("clock_hz")?;
    config.validate().map_err(|e| f.err(e.to_string()))?;
    Ok(TraceMeta {
        scenario: f.get("scenario").map(str::to_string),
        scenario_seed: match f.get("scenario") {
            Some(_) => f.parse_field("scenario_seed")?,
            None => 0,
        },
        config,
        policy: f.str_field("policy")?.to_string(),
        shards: f.count_field("shards")?,
        routing: f.str_field("routing")?.to_string(),
        stealing: f.parse_field("stealing")?,
        threads: f.parse_field("threads")?,
        max_steps: f.parse_field("max_steps")?,
    })
}

fn parse_request(f: &Fields) -> Result<ServingRequest, TraceError> {
    Ok(ServingRequest {
        id: f.parse_field("id")?,
        prompt_len: f.parse_field("prompt_len")?,
        max_new_tokens: f.parse_field("max_new_tokens")?,
        priority: f.parse_field("priority")?,
        client_id: f.parse_field("client_id")?,
        arrival_step: f.parse_field("arrival_step")?,
        prefix_tag: f.parse_field("prefix_tag")?,
        prefix_len: f.parse_field("prefix_len")?,
        ttft_deadline: f.opt_field("ttft_deadline")?,
        itl_deadline: f.opt_field("itl_deadline")?,
    })
}

fn parse_event(f: &Fields) -> Result<ClusterEvent, TraceError> {
    let kind = f.str_field("kind")?;
    let (schema, on_shard) = ClusterEvent::schema_of(kind)
        .ok_or_else(|| f.err(format!("unknown event kind '{kind}'")))?;
    let mut wire = WireEvent {
        shard: None,
        schema,
        values: [0; MAX_EVENT_FIELDS],
    };
    if on_shard {
        wire.shard = Some(f.parse_field("shard")?);
    }
    for (value, name) in wire.values.iter_mut().zip(schema.fields) {
        *value = f.parse_field(name)?;
    }
    ClusterEvent::from_wire(&wire).ok_or_else(|| f.err(format!("a '{kind}' field is out of range")))
}

#[cfg(test)]
mod tests {
    use super::super::events::ServeEvent;
    use super::super::policy::RetentionPolicy;
    use super::super::scenario::{Scenario, SharedPrefixChat};
    use super::*;

    fn sample_meta() -> TraceMeta {
        let accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        let cfg = SharedPrefixChat::default().serving_config(accel);
        TraceMeta::new(&cfg, "fifo").for_scenario("shared-prefix-chat", 11)
    }

    /// One event of every variant, generated from the schema tables so a
    /// new variant cannot be left out: the [`ServeEvent`] rows on shards
    /// 0, 1, 2, …, then the cluster-level rows, with field `k` of event
    /// `i` holding `10 × (i + 1) + k`.
    fn one_of_each_variant() -> Vec<ClusterEvent> {
        let on_shards = ServeEvent::SCHEMA.iter().map(|row| (row, true));
        let cluster_level = ClusterEvent::SCHEMA.iter().map(|row| (row, false));
        on_shards
            .chain(cluster_level)
            .enumerate()
            .map(|(i, (schema, on_shard))| {
                let mut values = [0; MAX_EVENT_FIELDS];
                for (k, value) in values.iter_mut().enumerate() {
                    *value = (10 * (i + 1) + k) as u64;
                }
                let wire = WireEvent {
                    shard: on_shard.then_some(i),
                    schema,
                    values,
                };
                ClusterEvent::from_wire(&wire).expect("small values fit every field")
            })
            .collect()
    }

    /// The wire format's absolute bytes: every variant's rendered line
    /// and the digest of the whole stream, so a tag, `kind` string, field
    /// name or field order cannot move unnoticed — including on the
    /// variants the checked-in golden trace never emits.
    #[test]
    fn every_event_variant_has_pinned_wire_bytes_and_digest() {
        const LINES: [&str; 11] = [
            r#"{"type":"event","kind":"enqueued","shard":0,"id":10,"step":11}"#,
            r#"{"type":"event","kind":"admitted","shard":1,"id":20,"step":21,"context":22,"cached_tokens":23}"#,
            r#"{"type":"event","kind":"prefill_chunk","shard":2,"id":30,"step":31,"built_tokens":32,"remaining_tokens":33}"#,
            r#"{"type":"event","kind":"token","shard":3,"id":40,"step":41,"context":42,"generated":43}"#,
            r#"{"type":"event","kind":"preempted","shard":4,"id":50,"step":51,"generated":52,"retained_tokens":53,"dropped_tokens":54}"#,
            r#"{"type":"event","kind":"finished","shard":5,"id":60,"step":61,"generated":62}"#,
            r#"{"type":"event","kind":"rejected","shard":6,"id":70,"step":71,"overdue_steps":72}"#,
            r#"{"type":"event","kind":"swapped_out","shard":7,"id":80,"step":81,"tokens":82}"#,
            r#"{"type":"event","kind":"swapped_in","shard":8,"id":90,"step":91,"tokens":92}"#,
            r#"{"type":"event","kind":"stolen","id":100,"from":101,"to":102,"step":103}"#,
            r#"{"type":"event","kind":"shipped","id":110,"from":111,"to":112,"step":113,"tokens":114}"#,
        ];
        const DIGEST: u64 = 0xa2a1_b04d_b914_8613;
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_variant());
        let trace = recorder.finish();
        assert_eq!(trace.digest, DIGEST);
        assert_eq!(digest_events(&trace.events), DIGEST);
        let text = trace.render();
        let rendered: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with(r#"{"type":"event""#))
            .collect();
        assert_eq!(rendered, LINES);
        assert_eq!(Trace::parse(&text).unwrap(), trace);
    }

    #[test]
    fn every_event_variant_round_trips_through_the_line_format() {
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.request(
            &ServingRequest::new(7, 128, 5)
                .with_priority(3)
                .with_client(2)
                .with_shared_prefix(0xDEAD_BEEF, 96)
                .arriving_at(4)
                .with_ttft_deadline(20)
                .with_itl_deadline(4),
        );
        recorder.events(one_of_each_variant());
        let trace = recorder.finish();
        let text = trace.render();
        let parsed = Trace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        // Serialize → parse → serialize is byte-stable, not merely
        // structurally equal.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn meta_round_trips_including_retention_and_cluster_shape() {
        let accel = AccelConfig::paper(AccelMode::Blocking, 0.125).unwrap();
        let mut cfg = SharedPrefixChat::default().serving_config(accel);
        cfg.preemption =
            PreemptionConfig::enabled().with_retention(RetentionPolicy::Fraction(0.75));
        cfg.prefill_chunk_pages = 2;
        let meta = TraceMeta::new(&cfg, "priority-aging")
            .for_cluster(4, "prefix-affinity", true, 4)
            .with_max_steps(2048);
        let trace = TraceRecorder::new(meta.clone()).finish();
        let parsed = Trace::parse(&trace.render()).unwrap();
        assert_eq!(parsed.meta, meta);
        // The rebuilt serving config matches the one we snapshotted.
        assert_eq!(parsed.meta.serving_config(), &cfg);
    }

    #[test]
    fn diff_localizes_the_first_diverging_event() {
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_variant());
        let a = recorder.finish();
        // Identical streams: no diff.
        assert_eq!(a.diff(&a), None);
        // Perturb one event mid-stream: the token generation's context.
        let mut events = one_of_each_variant();
        let mut wire = events[3].wire();
        assert_eq!(wire.schema.fields[2], "context");
        wire.values[2] += 1;
        events[3] = ClusterEvent::from_wire(&wire).unwrap();
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(events);
        let b = recorder.finish();
        assert_ne!(a.digest, b.digest);
        let report = a.diff(&b).unwrap();
        assert!(report.contains("diverge at event 3"), "{report}");
        assert!(report.contains("< [3]"), "{report}");
        assert!(report.contains("> [3]"), "{report}");
        assert!(report.contains("\"context\":42"), "{report}");
        assert!(report.contains("\"context\":43"), "{report}");
        // A strict prefix diverges where the shorter stream ends.
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_variant().into_iter().take(2));
        let short = recorder.finish();
        let report = a.diff(&short).unwrap();
        assert!(report.contains("diverge at event 2"), "{report}");
        assert!(report.contains("> [2] (stream ends)"), "{report}");
    }

    #[test]
    fn tampered_traces_are_rejected() {
        let mut recorder = TraceRecorder::new(sample_meta());
        recorder.events(one_of_each_variant());
        let trace = recorder.finish();
        let text = trace.render();
        // Dropping an event line breaks the footer counts.
        let truncated: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("\"kind\":\"stolen\""))
            .collect();
        assert!(Trace::parse(&truncated.join("\n")).is_err());
        // Editing an event field breaks the digest.
        let edited = text.replace("\"retained_tokens\":53", "\"retained_tokens\":64");
        assert!(matches!(
            Trace::parse(&edited),
            Err(TraceError::Parse(msg)) if msg.contains("digest mismatch")
        ));
        // Garbage and missing pieces are parse errors, not panics.
        assert!(Trace::parse("not json").is_err());
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("{\"type\":\"meta\",\"version\":9}").is_err());
        // A clock that is not finite and positive names its field.
        let clock = format!("\"clock_hz\":{}", sample_meta().config.clock_hz);
        assert!(text.contains(&clock), "{clock}");
        for bad in ["-1", "0", "inf", "NaN"] {
            let edited = text.replace(&clock, &format!("\"clock_hz\":{bad}"));
            assert!(
                matches!(Trace::parse(&edited), Err(TraceError::Parse(msg)) if msg.contains("clock_hz")),
                "clock_hz {bad}"
            );
        }
    }

    #[test]
    fn a_meta_line_editing_a_fixed_preemption_value_is_refused() {
        let text = TraceRecorder::new(sample_meta()).finish().render();
        for (field, fixed, other) in [
            ("reprefill_factor", "1", "0.5"),
            ("max_evictions_per_step", "2", "3"),
        ] {
            let pair = |value: &str| format!("\"{field}\":{value},");
            assert!(text.contains(&pair(fixed)), "{field}");
            let edited = text.replacen(&pair(fixed), &pair(other), 1);
            assert!(
                matches!(Trace::parse(&edited), Err(TraceError::Parse(msg)) if msg.contains(field)),
                "{field} {other}"
            );
        }
    }

    #[test]
    fn record_replay_record_is_a_fixed_point_on_a_small_run() {
        let requests = SharedPrefixChat::default().generate(11);
        let meta = sample_meta();
        let (first, _) = run_recorded(&meta, &requests).unwrap();
        let (second, report) = first.replay().unwrap();
        assert_eq!(first.digest, second.digest);
        assert_eq!(first.events, second.events);
        assert_eq!(report.shards.len(), 1);
        assert!(report.pooled().tokens_generated > 0);
        // And the parsed form replays identically too.
        let reparsed = Trace::parse(&first.render()).unwrap();
        let (third, _) = reparsed.replay_verified().unwrap();
        assert_eq!(third.digest, first.digest);
    }
}
