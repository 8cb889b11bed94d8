//! # topick-spatten
//!
//! A reimplementation of SpAtten's cascade token pruning (Wang et al.,
//! HPCA 2021) — the fixed-ratio baseline Token-Picker is compared against
//! in Fig. 9.
//!
//! Two views of the same mechanism are provided:
//!
//! * [`simulate_generation`] — a generation-phase access simulator with
//!   cumulative-importance ranking and a cascaded per-layer keep-ratio
//!   schedule, used for bit-level K/V traffic comparison.
//! * [`TopKAttention`] — a fixed-ratio top-k attention kernel implementing
//!   [`topick_model::AttentionBackend`], used for ΔPPL calibration on the
//!   same footing as Token-Picker's kernel.
//!
//! ## Example
//!
//! ```
//! use topick_spatten::{simulate_generation, SpattenConfig};
//!
//! let cfg = SpattenConfig::new(0.4, 3);
//! let access = simulate_generation(&cfg, 64, 8, 4, 2, 16, |_, _, _, toks| {
//!     toks.iter().map(|&t| (t as f64).sin()).collect()
//! });
//! assert!(access.normalized() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod cascade;
pub mod kernel;

pub use cascade::{simulate_generation, CascadeState, SpattenAccess, SpattenConfig};
pub use kernel::TopKAttention;
