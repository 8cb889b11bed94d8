//! # topick-bench
//!
//! Experiment harnesses that regenerate every figure and table in the
//! Token-Picker paper's evaluation (§5), plus the ablation studies listed
//! in DESIGN.md. Each `fig*`/`table*` module exposes a `run(...)` entry
//! point used both by the per-figure binaries (`cargo run -p topick-bench
//! --bin fig8_access_ppl`) and by the `figures` bench target
//! (`cargo bench -p topick-bench --bench figures`).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod calibrate;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod util;

pub use calibrate::Calibration;
