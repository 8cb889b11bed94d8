//! # topick-accel
//!
//! A cycle-level simulator of the **ToPick** accelerator (paper §4) and its
//! no-pruning baseline: 16 PE lanes fed by 8-channel HBM2, with the Margin
//! Generator, Scoreboard, RPDU, PEC and DAG modules implementing
//! probability estimation and out-of-order score calculation.
//!
//! Four pipeline variants are modeled (see [`AccelMode`]):
//!
//! | mode | K traffic | V traffic | latency hiding |
//! |---|---|---|---|
//! | `Baseline` | full | full | n/a |
//! | `EstimateOnly` | full | pruned | n/a (no on-demand requests) |
//! | `OutOfOrder` | chunked on-demand | pruned | out-of-order scoreboard |
//! | `Blocking` | chunked on-demand | pruned | none (ablation) |
//!
//! ## Example
//!
//! ```
//! use topick_accel::{AccelConfig, AccelMode, ToPickAccelerator};
//! use topick_core::{PrecisionConfig, QMatrix, QVector, Rows};
//!
//! let pc = PrecisionConfig::paper();
//! let query = QVector::quantize(&vec![0.4; 64], pc);
//! let rows: Vec<f32> = (0..64).flat_map(|i| vec![(i as f32 - 32.0) / 40.0; 64]).collect();
//! let keys = QMatrix::quantize_flat(&rows, 64, pc)?;
//! let values = vec![0.5f32; 64 * 64];
//!
//! let baseline = ToPickAccelerator::new(AccelConfig::baseline())
//!     .run_attention(&query, &keys, Rows::new(&values, 64))?;
//! let topick = ToPickAccelerator::new(AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?)
//!     .run_attention(&query, &keys, Rows::new(&values, 64))?;
//! println!("speedup: {:.2}x", topick.speedup_vs(&baseline));
//! # Ok::<(), topick_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod config;
pub mod engine;
pub mod layout;
pub mod prompt;
pub mod result;
pub mod serve;

pub use backend::SimulatedAttention;
pub use config::{AccelConfig, AccelMode};
pub use engine::ToPickAccelerator;
pub use layout::KvLayout;
pub use prompt::{run_prompt_phase, PromptPhaseResult};
pub use result::{AttentionCost, AttentionStepResult};
pub use serve::{
    run_token_backed, AdmissionConfig, ClusterEngine, ClusterEngineBuilder, ClusterEvent,
    ClusterReport, ClusterStepReport, FairRoundRobin, Fifo, KvPager, LendingStats, PendingView,
    PolicyKind, PreemptionConfig, PriorityAging, RequestStats, RetentionPolicy, RoutingKind,
    RoutingPolicy, RunningView, Scenario, ScenarioKind, SchedulerPolicy, ServeError, ServeEvent,
    ServingConfig, ServingEngine, ServingEngineBuilder, ServingReport, ServingRequest,
    SessionStats, ShardView, ShortestJobFirst, SloAware, StepReport, TokenBackedBatch,
    TokenBackedRun, Trace, TraceError, TraceMeta, TraceRecorder,
};
