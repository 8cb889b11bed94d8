//! The typed event stream: every scheduling decision and generated token,
//! observable per step instead of only through the final report.

/// One observable scheduling or generation event.
///
/// Events are recorded in the order they happen; within one step the order
/// is admissions/preemptions first, then token generations, then
/// completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// A request entered the arrival queue.
    Enqueued {
        /// The request's id.
        id: u64,
        /// Engine step at enqueue time.
        step: usize,
    },
    /// A request joined the running batch.
    Admitted {
        /// The request's id.
        id: u64,
        /// Engine step of the admission.
        step: usize,
        /// The request's context length at admission.
        context: usize,
        /// Prompt tokens served out of the shared-prefix cache at this
        /// admission: their KV pages were adopted copy-on-write from a
        /// resident request (or the retained cache) instead of being
        /// allocated and prefilled (0 with prefix caching disabled).
        cached_tokens: usize,
    },
    /// A step advanced a request's chunked-prefill frontier without
    /// producing a token. Only emitted while a finite
    /// [`prefill_chunk_pages`](super::ServingConfig::prefill_chunk_pages)
    /// budget splits a prompt across steps — the step that *completes* the
    /// prompt emits its [`TokenGenerated`](Self::TokenGenerated) instead,
    /// so unlimited chunking (the default) never emits this.
    PrefillChunk {
        /// The request's id.
        id: u64,
        /// Engine step that built the chunk.
        step: usize,
        /// Prompt tokens whose KV exists after this chunk (the frontier).
        built_tokens: usize,
        /// Prompt tokens still to prefill after this chunk.
        remaining_tokens: usize,
    },
    /// A decode step produced one token for a request.
    TokenGenerated {
        /// The request's id.
        id: u64,
        /// Engine step that produced the token.
        step: usize,
        /// Context length the token was generated at.
        context: usize,
        /// Tokens generated so far, including this one.
        generated: usize,
    },
    /// The scheduler evicted a running request back to the queue.
    Preempted {
        /// The request's id.
        id: u64,
        /// Engine step of the eviction.
        step: usize,
        /// Tokens it had generated when evicted (kept; only the dropped
        /// part of the KV cache must be rebuilt on re-admission).
        generated: usize,
        /// KV tokens whose pages survived the eviction (a prefix of the
        /// context, per the configured
        /// [`RetentionPolicy`](super::RetentionPolicy); 0 under full
        /// re-prefill).
        retained_tokens: usize,
        /// KV tokens whose pages were freed — what re-admission will
        /// re-prefill.
        dropped_tokens: usize,
    },
    /// A request reached its token target and left the batch.
    Finished {
        /// The request's id.
        id: u64,
        /// Engine step after which it completed.
        step: usize,
        /// Total tokens it generated.
        generated: usize,
    },
    /// Admission refused a queued request whose TTFT deadline had already
    /// elapsed — prefilling it could only produce zero-goodput tokens.
    /// Only emitted under the opt-in
    /// [`reject_expired_ttft`](super::ServingConfig::reject_expired_ttft)
    /// flag; the request still counts against
    /// [`deadline_attainment`](super::ServingReport::deadline_attainment).
    Rejected {
        /// The request's id.
        id: u64,
        /// Engine step of the rejection.
        step: usize,
        /// Steps the request had waited past its TTFT deadline.
        overdue_steps: usize,
    },
    /// Reclaimed KV pages moved to the modeled host tier instead of being
    /// dropped: re-admission will pay a priced copy-back
    /// ([`SwappedIn`](Self::SwappedIn)) for these tokens instead of
    /// re-prefilling them. Only emitted with a host tier provisioned
    /// ([`host_pages`](super::ServingConfig::host_pages) > 0).
    SwappedOut {
        /// The request's id.
        id: u64,
        /// Engine step of the swap-out.
        step: usize,
        /// KV tokens whose contents moved to the host tier.
        tokens: usize,
    },
    /// A re-admitted request copied its swapped KV back from the host
    /// tier, charged at
    /// [`swap_cost_factor`](super::ServingConfig::swap_cost_factor) of the
    /// equivalent prefill instead of the full re-prefill price.
    SwappedIn {
        /// The request's id.
        id: u64,
        /// Engine step of the copy-back.
        step: usize,
        /// KV tokens copied back from the host tier.
        tokens: usize,
    },
}

impl ServeEvent {
    /// The id of the request the event concerns.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.wire().values[0]
    }

    /// The engine step the event happened in.
    #[must_use]
    pub fn step(&self) -> usize {
        // Came from a `usize` field, so the cast is lossless.
        self.wire().values[1] as usize
    }
}

/// The most payload fields any event variant carries.
pub(crate) const MAX_EVENT_FIELDS: usize = 5;

/// One event variant's wire shape: the single declaration the trace
/// digest, the line renderer and the line parser all walk.
#[derive(Debug)]
pub(crate) struct EventSchema {
    /// The variant's tag in the event digest.
    pub(crate) tag: u64,
    /// The variant's `kind` string in the trace line format.
    pub(crate) kind: &'static str,
    /// The payload field names, in digest and line order.
    pub(crate) fields: &'static [&'static str],
}

/// An event flattened to its wire form: the shard it happened on (cluster
/// level events have none), its variant's schema row, and the payload
/// values in the row's field order.
#[derive(Debug)]
pub(crate) struct WireEvent {
    pub(crate) shard: Option<usize>,
    pub(crate) schema: &'static EventSchema,
    pub(crate) values: [u64; MAX_EVENT_FIELDS],
}

impl WireEvent {
    /// The payload values the schema names, in order.
    pub(crate) fn payload(&self) -> &[u64] {
        &self.values[..self.schema.fields.len()]
    }
}

/// Declares the wire shape of an event enum's flat variants — one row per
/// variant: its fields in wire order, its digest tag and its `kind`
/// string — and generates from the rows the `SCHEMA` table, `wire`
/// (event → [`WireEvent`]; the match is exhaustive, so a variant without
/// a row does not compile) and `from_flat` (schema row + payload →
/// event). A variant that wraps another event instead of carrying flat
/// fields passes its `wire` arm after `else`. The call site imports
/// [`EventSchema`], [`WireEvent`] and [`MAX_EVENT_FIELDS`].
macro_rules! wire_schema {
    (
        $event:ident {
            $($variant:ident { $($field:ident),* } = ($tag:literal, $kind:literal)),* $(,)?
        }
        $(else { $($nested:tt)* })?
    ) => {
        // One fieldless twin per row, so a variant names its row's index.
        #[allow(clippy::enum_variant_names)]
        enum Row { $($variant),* }

        impl $event {
            /// Every flat variant's wire shape, in declaration order.
            pub(crate) const SCHEMA: &'static [EventSchema] = &[$(
                EventSchema {
                    tag: $tag,
                    kind: $kind,
                    fields: &[$(stringify!($field)),*],
                }
            ),*];

            /// The event in wire form.
            #[allow(clippy::unnecessary_cast)]
            pub(crate) fn wire(&self) -> WireEvent {
                match *self {
                    $(Self::$variant { $($field),* } => {
                        let mut values = [0; MAX_EVENT_FIELDS];
                        let payload = [$($field as u64),*];
                        values[..payload.len()].copy_from_slice(&payload);
                        WireEvent {
                            shard: None,
                            schema: &Self::SCHEMA[Row::$variant as usize],
                            values,
                        }
                    })*
                    $($($nested)*)?
                }
            }

            /// The flat variant `schema` (a row of [`SCHEMA`](Self::SCHEMA))
            /// declares, carrying `values`; `None` if a value does not fit
            /// its field.
            #[allow(clippy::useless_conversion)]
            pub(crate) fn from_flat(
                schema: &EventSchema,
                values: &[u64],
            ) -> Option<Self> {
                $(if schema.tag == $tag {
                    let mut values = values.iter().copied();
                    return Some(Self::$variant {
                        $($field: values.next()?.try_into().ok()?),*
                    });
                })*
                None
            }
        }
    };
}
pub(crate) use wire_schema;

wire_schema! {
    ServeEvent {
        Enqueued { id, step } = (1, "enqueued"),
        Admitted { id, step, context, cached_tokens } = (2, "admitted"),
        PrefillChunk { id, step, built_tokens, remaining_tokens } = (6, "prefill_chunk"),
        TokenGenerated { id, step, context, generated } = (3, "token"),
        Preempted { id, step, generated, retained_tokens, dropped_tokens } = (4, "preempted"),
        Finished { id, step, generated } = (5, "finished"),
        Rejected { id, step, overdue_steps } = (7, "rejected"),
        SwappedOut { id, step, tokens } = (8, "swapped_out"),
        SwappedIn { id, step, tokens } = (9, "swapped_in"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_serve_event_leads_with_id_and_step() {
        // `id()` and `step()` read payload slots 0 and 1.
        for schema in ServeEvent::SCHEMA {
            assert_eq!(schema.fields[..2], ["id", "step"], "{}", schema.kind);
            assert!(schema.fields.len() <= MAX_EVENT_FIELDS, "{}", schema.kind);
        }
    }
}
