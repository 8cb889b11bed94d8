//! # topick-dram
//!
//! A cycle-level HBM2 DRAM simulator — the DRAMsim3-style substrate the
//! Token-Picker reproduction uses to model on-demand off-chip access
//! latency and energy (paper §5.1.2: "To get the number of cycle and energy
//! of off-chip accesses, we use DRAMsim3 with trace files generated in RTL
//! simulation").
//!
//! The model captures what the out-of-order score engine exploits:
//!
//! * 8 independent channels with per-channel FR-FCFS queues,
//! * bank row-buffer state (hits vs activates),
//! * realistic activate/CAS timing and a shared data bus per channel,
//! * per-bit I/O energy, per-activate energy, and background power.
//!
//! ## Example
//!
//! ```
//! use topick_dram::{DramConfig, DramSim};
//!
//! let mut sim = DramSim::new(DramConfig::hbm2());
//! for i in 0..32u64 {
//!     assert!(sim.try_enqueue(i, i * 32));
//! }
//! let done = sim.run_until_idle(100_000);
//! assert_eq!(done.len(), 32);
//! println!("mean latency: {:.1} cycles", sim.stats().mean_latency());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod config;
pub mod controller;
pub mod stats;

pub use address::{AddressMap, Location};
pub use config::DramConfig;
pub use controller::{Completion, DramSim};
pub use stats::DramStats;
