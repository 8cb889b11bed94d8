//! # topick-core
//!
//! The core algorithm of **Token-Picker** (Park et al., DAC 2024):
//! adaptive attention-token pruning via *conservative probability
//! estimation* over bit-chunked fixed-point key vectors.
//!
//! In autoregressive text generation, attention is memory-bound: every
//! generated token streams the whole KV cache from DRAM. Most tokens end up
//! with near-zero softmax probability, so their value vectors never matter —
//! but you only know that *after* computing all scores. Token-Picker breaks
//! the circularity: it bounds each token's final probability from above
//! using only the most-significant bit chunks of its key, and prunes a token
//! the moment the bound drops below a threshold. The bound is *sound*
//! (a pruned token provably had probability ≤ `thr`), so no fine-tuning is
//! needed.
//!
//! ## Pipeline
//!
//! 1. Quantize Q/K/V to 12-bit fixed point ([`QVector`], [`QMatrix`],
//!    [`PrecisionConfig`]).
//! 2. Derive per-chunk-depth margin pairs from the query alone
//!    ([`MarginTable`]).
//! 3. Probe keys chunk-by-chunk in a locality-aware order ([`ScanOrder`]),
//!    maintaining a running softmax denominator ([`LogDenominator`]) and
//!    pruning with [`should_prune`] — one [`Estimator::evaluate`] per probe,
//!    scheduled by [`ProgressivePruner`] (or, in `topick-accel`, by DRAM
//!    arrival order).
//! 4. Softmax over survivors and weighted-sum their values
//!    ([`softmax()`], [`weighted_value_sum`]).
//!
//! ## Example
//!
//! ```
//! use topick_core::{
//!     weighted_value_sum, PrecisionConfig, ProgressivePruner, PrunerConfig, QMatrix, QVector,
//!     Rows,
//! };
//!
//! let pc = PrecisionConfig::paper();
//! let query = QVector::quantize(&[0.8, -0.4, 0.2, 0.6], pc);
//! let keys = QMatrix::quantize_flat(
//!     &[
//!         0.8, -0.4, 0.2, 0.6, //
//!         -0.8, 0.4, -0.2, -0.6, //
//!         0.7, -0.3, 0.1, 0.5,
//!     ],
//!     4,
//!     pc,
//! )?;
//! let values = [1.0, 0.0, 0.0, 1.0, 0.5, 0.5];
//!
//! let pruner = ProgressivePruner::new(PrunerConfig::new(1e-3)?);
//! let outcome = pruner.run(&query, &keys)?;
//! let output = weighted_value_sum(&outcome.probability_pairs(), Rows::new(&values, 2));
//! assert_eq!(output.len(), 2);
//! println!(
//!     "kept {}/{} tokens; V reduction {:.1}x",
//!     outcome.stats.kept,
//!     outcome.stats.tokens,
//!     outcome.stats.v_reduction()
//! );
//! # Ok::<(), topick_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod estimate;
pub mod fixexp;
pub mod margin;
pub mod order;
pub mod pruner;
pub mod quant;
pub mod rows;
pub mod softmax;
pub mod stats;
pub mod trace;
pub mod vprune;

pub use config::{PrecisionConfig, PrunerConfig};
pub use error::CoreError;
pub use estimate::{estimated_probability, should_prune, Decision, Estimator, LogDenominator};
pub use fixexp::FixExp;
pub use margin::{MarginPair, MarginTable};
pub use order::{ScanIndices, ScanOrder};
pub use pruner::{KeptToken, OraclePruner, ProgressivePruner, PruneOutcome, PrunerScratch};
pub use quant::{QMatrix, QVector, QuantBuffer};
pub use rows::Rows;
pub use softmax::{exact_probabilities, exact_scores, score_scale, softmax, weighted_value_sum};
pub use stats::PruneStats;
pub use trace::{summarize, trace_pruning, DecisionEvent, TraceSummary};
pub use vprune::{truncated_weighted_sum, ValuePlan};
