//! # topick-model
//!
//! The transformer substrate for the Token-Picker reproduction: a
//! from-scratch decoder-only language model with KV caching and pluggable
//! attention backends, the paper's model zoo shapes, synthetic attention
//! workloads with controlled score distributions, perplexity evaluation,
//! and the analytic memory-traffic model behind Fig. 2.
//!
//! ## The `AttentionBackend` trait
//!
//! [`AttentionBackend`] is the single interface every attention
//! implementation in the workspace plugs into. A backend receives the
//! query and a borrowed, zero-copy [`KvView`] of one head's contiguous
//! KV cache ([`HeadCache::view`]) — no backend ever clones cache rows.
//! Implementations span three crates:
//!
//! * here: [`ExactAttention`], [`QuantizedExactAttention`],
//!   [`TokenPickerAttention`], [`OracleAttention`];
//! * `topick-spatten`: the fixed-ratio `TopKAttention` baseline;
//! * `topick-accel`: `SimulatedAttention`, which runs every call through
//!   the cycle-level accelerator and accumulates cycles and energy.
//!
//! ## Example: pruned vs exact generation
//!
//! ```
//! use topick_core::PrunerConfig;
//! use topick_model::{
//!     AttentionBackend, ExactAttention, ModelSpec, TokenPickerAttention, TransformerModel,
//! };
//!
//! let model = TransformerModel::new_random(ModelSpec::toy(), 42);
//! let mut exact = ExactAttention::new();
//! let mut pruned = TokenPickerAttention::new(PrunerConfig::new(1e-5)?);
//! let a = model.generate(&[1, 2, 3], 4, 0.0, 0, &mut exact);
//! let b = model.generate(&[1, 2, 3], 4, 0.0, 0, &mut pruned);
//! assert_eq!(a, b); // tight threshold: outputs unchanged
//! let stats = pruned.accumulated_stats().expect("token-picker tracks stats");
//! println!("kept {}/{} tokens", stats.kept, stats.tokens);
//! # Ok::<(), topick_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod kvcache;
pub mod layers;
pub mod memory;
pub mod model;
pub mod paged;
pub mod perplexity;
pub mod rng;
pub mod specs;
pub mod synth;
pub mod tensor;

pub use attention::{
    AttentionBackend, ExactAttention, OracleAttention, QuantizedExactAttention,
    TokenPickerAttention,
};
pub use kvcache::{HeadCache, KvCache, KvView};
pub use memory::TrafficBreakdown;
pub use model::{argmax_token, sample_token, DecodeKv, TransformerModel};
pub use paged::{PagedKvBinding, PagedKvStore, PagedSeq};
pub use perplexity::{
    delta_ppl, evaluate_perplexity, nll_from_logits, teacher_corpus,
    teacher_corpus_with_temperature, PerplexityReport,
};
pub use specs::ModelSpec;
pub use synth::{InstanceSampler, SynthInstance, SynthKeys, SynthProfile};
