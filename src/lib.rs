//! Facade crate re-exporting the Token-Picker reproduction workspace.

#![warn(unreachable_pub)]

pub use topick_accel as accel;
pub use topick_core as core;
pub use topick_dram as dram;
pub use topick_energy as energy;
pub use topick_model as model;
pub use topick_spatten as spatten;
