//! Real-token serving: a transformer decode batch physically backed by
//! the paged KV store, mirroring the serving engine's schedule.
//!
//! The engine itself is a *cost model*: it schedules, charges cycles and
//! raises [`ServeEvent`]s, but no model runs and no KV bytes exist. This
//! module closes that gap. A [`TokenBackedBatch`] consumes the engine's
//! event stream and maintains, per request, a bundle of
//! [`PagedSeq`] rows inside one shared
//! [`PagedKvStore`] — so every scheduling decision becomes a physical
//! storage operation:
//!
//! * admission-time prefix adoption becomes a real
//!   [`fork`](PagedKvStore::fork) of the donor's pages (copy-on-write,
//!   zero rows copied for page-aligned prefixes);
//! * preemption retention becomes a real
//!   [`truncate`](PagedKvStore::truncate) down to the retained tokens;
//! * host swap-out/in becomes a real release (the retention truncate
//!   already dropped the device rows) followed by a rebuild: the next
//!   decode forwards the missing tokens again, reproducing identical
//!   rows because KV content is a pure function of the token prefix.
//!
//! Tokens are sampled greedily from a deterministic
//! [`TransformerModel`] whose per-head reads go through
//! [`PagedKvBinding`] behind the ordinary `AttentionBackend` trait, with
//! [`SimulatedAttention`] as the kernel — so the run also *measures*
//! cycles, which [`TokenBackedRun::cycle_ratio`] cross-checks against
//! the engine's charged prefill/attention cycles. Every gap between the
//! rows built and the rows an event needs — a prompt, a chunk, a rebuild
//! plus the decode after it — is one [`TransformerModel::prefill`] run,
//! whose attention calls reach the kernel one layer at a time and are
//! shared by two cores when there are enough of them.
//!
//! Because KV rows depend only on the token prefix (not on when or how
//! often they were rebuilt), the mirror's tokens are byte-identical to
//! an unsharded per-request [`TransformerModel::generate`] on the same
//! prompt — the equivalence the acceptance tests pin.

use std::collections::HashMap;

use topick_model::{
    argmax_token, ModelSpec, PagedKvBinding, PagedKvStore, PagedSeq, TransformerModel,
};

use super::queue::ServingRequest;
use super::stats::ServingReport;
use super::{ServeError, ServeEvent, ServingConfig, ServingEngine};
use crate::backend::SimulatedAttention;
use crate::config::AccelConfig;

/// One request's mirror: its row sequences in the shared store plus the
/// token history needed to (re)build any frontier the engine schedules.
#[derive(Debug)]
struct SeqState {
    /// Layer-major `(layer, head)` sequences: entry `layer * n_heads +
    /// head`, all of one length. Empty until the first admission
    /// materialises them.
    seqs: Vec<PagedSeq>,
    /// The token history: the prompt's ids (`ServingRequest::token_at`
    /// folded into vocab), then every token generated so far.
    tokens: Vec<usize>,
    /// How many of `tokens` are the prompt.
    prompt_len: usize,
    /// Content chain keys of the full prompt pages
    /// ([`ServingRequest::page_keys`]), for donor lookup.
    page_keys: Vec<u64>,
}

impl SeqState {
    /// Rows materialised per head: every sequence's length.
    fn built(&self) -> usize {
        self.seqs.first().map_or(0, PagedSeq::len)
    }
}

/// A transformer decode batch physically backed by one shared
/// [`PagedKvStore`], driven by the serving engine's event stream (see
/// the [module docs](self)).
///
/// Feed it every event the engine emits, in order
/// ([`apply`](Self::apply) / [`apply_all`](Self::apply_all)); or use
/// [`run_token_backed`] which drives a whole run. Finished requests keep
/// their sequences mapped so they stay fork donors — which is also why
/// [`shared_pages`](Self::shared_pages) stays positive after a
/// shared-prefix run drains.
#[derive(Debug)]
pub struct TokenBackedBatch {
    model: TransformerModel,
    kernel: SimulatedAttention,
    kernel_cfg: AccelConfig,
    store: PagedKvStore,
    states: HashMap<u64, SeqState>,
    /// Content chain key → latest request whose built rows cover it.
    registry: HashMap<u64, u64>,
    peak_shared_pages: usize,
}

impl TokenBackedBatch {
    /// A batch serving `spec`-shaped requests with a model seeded by
    /// `model_seed`, mirroring an engine configured by `cfg`. The
    /// attention kernel is a [`SimulatedAttention`] over the engine's
    /// accelerator config with its datapath width set to the model's
    /// head dimension (the engine's synthetic attention measures whole
    /// `d_model`-wide queries; the real model attends per head).
    #[must_use]
    pub fn new(spec: ModelSpec, model_seed: u64, cfg: &ServingConfig) -> Self {
        let mut kernel_cfg = cfg.accel.clone();
        kernel_cfg.dim = spec.head_dim();
        Self {
            store: PagedKvStore::new(spec.head_dim(), cfg.admission.page_size),
            model: TransformerModel::new_random(spec, model_seed),
            kernel: SimulatedAttention::new(kernel_cfg.clone()),
            kernel_cfg,
            states: HashMap::new(),
            registry: HashMap::new(),
            peak_shared_pages: 0,
        }
    }

    /// Registers a request before it is enqueued, deriving its prompt
    /// tokens and page content keys. Must be called once per request the
    /// engine will serve.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] if prompt plus token target cannot
    /// fit the model's maximum context, or if a request with the same id
    /// is already registered — events carry only the id, so the mirror
    /// could not tell the two apart.
    pub fn register(&mut self, req: &ServingRequest) -> Result<(), ServeError> {
        if req.prompt_len + req.max_new_tokens > self.model.spec().max_context {
            return Err(ServeError::InvalidRequest(
                "prompt plus token target exceeds the model's max context",
            ));
        }
        if self.states.contains_key(&req.id) {
            return Err(ServeError::InvalidRequest("duplicate request id"));
        }
        self.states.insert(
            req.id,
            SeqState {
                seqs: Vec::new(),
                tokens: self.prompt_tokens(req),
                prompt_len: req.prompt_len,
                page_keys: req.page_keys(self.store.page_size()),
            },
        );
        Ok(())
    }

    /// The request's prompt as model token ids
    /// ([`ServingRequest::token_at`] folded into the vocabulary).
    fn prompt_tokens(&self, req: &ServingRequest) -> Vec<usize> {
        let vocab = self.model.spec().vocab as u64;
        (0..req.prompt_len)
            .map(|i| usize::try_from(req.token_at(i) % vocab).expect("vocab fits usize"))
            .collect()
    }

    /// Applies one engine event to the mirror. Events must arrive in the
    /// order the engine emitted them; unknown request ids are ignored.
    pub fn apply(&mut self, event: &ServeEvent) {
        match *event {
            ServeEvent::Admitted {
                id, cached_tokens, ..
            } => self.on_admitted(id, cached_tokens),
            ServeEvent::PrefillChunk {
                id, built_tokens, ..
            } => {
                // Chunked prefill: advance the frontier to the absolute
                // built-token count the engine just charged for.
                self.ensure_built(id, built_tokens);
                self.publish(id);
            }
            ServeEvent::TokenGenerated {
                id,
                context,
                generated,
                ..
            } => self.on_token(id, context, generated),
            ServeEvent::Preempted {
                id,
                retained_tokens,
                ..
            } => self.on_preempted(id, retained_tokens),
            // Swap-out is already physical: the retention truncate above
            // dropped the device rows. Swap-in restores engine-side KV
            // without recompute; the mirror rebuilds those rows at the
            // next decode instead (identical contents — KV is a pure
            // function of the token prefix), so both are no-ops here.
            ServeEvent::SwappedOut { .. } | ServeEvent::SwappedIn { .. } => {}
            // Finished requests keep their sequences mapped as fork
            // donors for later admissions of the same prefix.
            ServeEvent::Enqueued { .. }
            | ServeEvent::Finished { .. }
            | ServeEvent::Rejected { .. } => {}
        }
    }

    /// [`apply`](Self::apply) for a drained event batch, in order.
    pub fn apply_all(&mut self, events: &[ServeEvent]) {
        for e in events {
            self.apply(e);
        }
    }

    /// The tokens generated for a request so far (`None` if never
    /// registered).
    #[must_use]
    pub fn generated(&self, id: u64) -> Option<&[usize]> {
        self.states.get(&id).map(|s| &s.tokens[s.prompt_len..])
    }

    /// The prompt token ids the mirror derived for a request.
    #[must_use]
    pub fn prompt(&self, id: u64) -> Option<&[usize]> {
        self.states.get(&id).map(|s| &s.tokens[..s.prompt_len])
    }

    /// What an *unsharded* per-request run would generate: a fresh
    /// contiguous cache and a fresh kernel, via the byte-identical
    /// [`TransformerModel::generate`] wrapper. The served tokens must
    /// equal this exactly — the token-equivalence acceptance criterion.
    #[must_use]
    pub fn reference_generate(&self, req: &ServingRequest) -> Vec<usize> {
        let mut kernel = SimulatedAttention::new(self.kernel_cfg.clone());
        self.model.generate(
            &self.prompt_tokens(req),
            req.max_new_tokens,
            0.0,
            0,
            &mut kernel,
        )
    }

    /// The shared paged store backing every request's rows.
    #[must_use]
    pub fn store(&self) -> &PagedKvStore {
        &self.store
    }

    /// Pages currently mapped by more than one sequence.
    #[must_use]
    pub fn shared_pages(&self) -> usize {
        self.store.shared_pages()
    }

    /// Check the store's refcount/mapping invariants against every
    /// sequence this batch still holds (finished requests included —
    /// they stay resident as fork donors). Panics on corruption.
    pub fn validate(&self) {
        let live: Vec<&PagedSeq> = self
            .states
            .values()
            .flat_map(|state| state.seqs.iter())
            .collect();
        self.store.validate(&live);
    }

    /// The maximum [`shared_pages`](Self::shared_pages) observed across
    /// the run — proof the batch physically shared prompt KV while
    /// requests were resident, even if later copy-on-writes or releases
    /// unshared some pages.
    #[must_use]
    pub fn peak_shared_pages(&self) -> usize {
        self.peak_shared_pages
    }

    /// Total kernel cycles measured across the run: every row the mirror
    /// (re)builds and every decode forward goes through the one kernel.
    #[must_use]
    pub fn measured_cycles(&self) -> u64 {
        self.kernel.cycles()
    }

    /// Fresh admission: materialise the request's sequences, forking the
    /// donor that published the adopted prefix's content key when the
    /// engine reported a cache hit. Re-admissions keep their retained
    /// rows (the adoption gap, if any, is rebuilt by forwarding).
    fn on_admitted(&mut self, id: u64, cached_tokens: usize) {
        let fork_key = {
            let Some(state) = self.states.get(&id) else {
                return;
            };
            if !state.seqs.is_empty() {
                return;
            }
            let pages = cached_tokens / self.store.page_size();
            if pages >= 1 {
                state.page_keys.get(pages - 1).copied()
            } else {
                None
            }
        };
        let donor_id = fork_key
            .and_then(|k| self.registry.get(&k).copied())
            .filter(|d| *d != id);
        let spec = self.model.spec();
        let heads_total = spec.n_layers * spec.n_heads;
        let mut seqs: Vec<PagedSeq> = Vec::new();
        if let Some(donor) = donor_id {
            if let Some(donor_state) = self.states.get(&donor) {
                // fork clamps to the donor's current length: a donor
                // truncated below the adopted prefix just means the
                // shortfall is rebuilt by forwarding.
                seqs = donor_state
                    .seqs
                    .iter()
                    .map(|s| self.store.fork(s, cached_tokens))
                    .collect();
            }
        }
        if seqs.is_empty() {
            seqs = (0..heads_total).map(|_| self.store.new_seq()).collect();
        }
        self.states.get_mut(&id).expect("checked above").seqs = seqs;
        self.publish(id);
    }

    /// One generated token. `context` is the engine's pre-increment
    /// context — the model forwards tokens `0..context` and the argmax
    /// of the final logits is generated token number `generated`.
    fn on_token(&mut self, id: u64, context: usize, generated: usize) {
        {
            let Some(state) = self.states.get_mut(&id) else {
                return;
            };
            if state.seqs.is_empty() || context == 0 {
                return;
            }
            debug_assert_eq!(
                state.tokens.len() - state.prompt_len + 1,
                generated,
                "mirror desynced from engine token count for request {id}"
            );
            // Full-retention re-admissions arrive with every row already
            // built; pop the last row so re-forwarding it recovers the
            // logits (identical rows — appends are deterministic).
            if state.built() >= context {
                for seq in &mut state.seqs {
                    self.store.truncate(seq, context - 1);
                }
            }
        }
        // One run: catch-up rows (reprefill / swap rebuild) first, and its
        // last token is the decode step itself.
        let logits = self
            .ensure_built(id, context)
            .expect("decode forwards at least one token");
        let next = argmax_token(&logits);
        let state = self.states.get_mut(&id).expect("present above");
        state.tokens.push(next);
        self.publish(id);
    }

    /// Preemption retention, physically: truncate every head sequence to
    /// the retained token count, unmapping (or unsharing) dropped pages.
    fn on_preempted(&mut self, id: u64, retained_tokens: usize) {
        let Some(state) = self.states.get_mut(&id) else {
            return;
        };
        for seq in &mut state.seqs {
            self.store.truncate(seq, retained_tokens);
        }
    }

    /// Forwards the history's tokens until `target` rows exist (clamped to
    /// the known history) as one prefill run, returning its logits if
    /// there was a gap to forward.
    fn ensure_built(&mut self, id: u64, target: usize) -> Option<Vec<f32>> {
        let state = self.states.get_mut(&id)?;
        let (built, target) = (state.built(), target.min(state.tokens.len()));
        if state.seqs.is_empty() || built >= target {
            return None;
        }
        let mut binding =
            PagedKvBinding::new(&mut self.store, &mut state.seqs, self.model.spec().n_heads);
        let tokens = &state.tokens[built..target];
        Some(self.model.prefill(tokens, &mut binding, &mut self.kernel))
    }

    /// Publishes the content keys the request's built rows now cover (so
    /// later admissions can fork them) and tracks peak sharing.
    fn publish(&mut self, id: u64) {
        if let Some(state) = self.states.get(&id) {
            let covered = (state.built() / self.store.page_size()).min(state.page_keys.len());
            for j in 0..covered {
                self.registry.insert(state.page_keys[j], id);
            }
        }
        self.peak_shared_pages = self.peak_shared_pages.max(self.store.shared_pages());
    }
}

/// Outcome of [`run_token_backed`]: the engine's cost-model report side
/// by side with the token-backed mirror that actually generated tokens.
#[derive(Debug)]
pub struct TokenBackedRun {
    /// The engine's aggregate report for the run (charged cycles,
    /// schedules, hit rates).
    pub report: ServingReport,
    /// The mirror, holding per-request tokens, the shared store and the
    /// measured kernel cycles.
    pub batch: TokenBackedBatch,
}

impl TokenBackedRun {
    /// The engine's charged prefill + re-prefill + attention cycles —
    /// the cost-model side of the cross-check.
    #[must_use]
    pub fn charged_cycles(&self) -> u64 {
        self.report.total_attention_cycles()
            + self.report.total_prefill_cycles()
            + self.report.total_reprefill_cycles()
    }

    /// Charged over measured cycles. The engine charges one synthetic
    /// `d_model`-wide attention per request-step scaled by `heads`,
    /// while the model measures `n_layers × n_heads` per-head attends —
    /// so the ratio is not 1, but on a fixed workload and config it is a
    /// deterministic constant, which the acceptance tests pin within a
    /// tolerance. A schedule/measurement drift between the two layers
    /// moves this ratio and trips the pin.
    #[must_use]
    pub fn cycle_ratio(&self) -> f64 {
        let measured = self.batch.measured_cycles();
        if measured == 0 {
            return 0.0;
        }
        self.charged_cycles() as f64 / measured as f64
    }
}

/// Serves `requests` on `engine` while a [`TokenBackedBatch`] mirrors
/// every scheduling decision into real paged-KV-backed token generation.
///
/// # Errors
///
/// Propagates engine errors; [`ServeError::StepLimitExceeded`] if the
/// workload does not drain within `max_steps`;
/// [`ServeError::InvalidRequest`] if a request cannot fit the model's
/// context window or repeats an earlier request's id.
pub fn run_token_backed(
    engine: &mut ServingEngine,
    requests: Vec<ServingRequest>,
    spec: ModelSpec,
    model_seed: u64,
    max_steps: usize,
) -> Result<TokenBackedRun, ServeError> {
    let mut batch = TokenBackedBatch::new(spec, model_seed, engine.config());
    for req in requests {
        batch.register(&req)?;
        engine.enqueue(req)?;
    }
    batch.apply_all(&engine.drain_events());
    let mut steps = 0usize;
    loop {
        let step = engine.step()?;
        let events = engine.drain_events();
        batch.apply_all(&events);
        if step.is_none() {
            break;
        }
        steps += 1;
        if steps > max_steps {
            return Err(ServeError::StepLimitExceeded {
                max_steps,
                unfinished: engine.pending() + engine.running(),
            });
        }
    }
    Ok(TokenBackedRun {
        report: engine.report(),
        batch,
    })
}
