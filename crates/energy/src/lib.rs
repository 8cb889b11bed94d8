//! # topick-energy
//!
//! Area, power and energy models for the Token-Picker reproduction:
//!
//! * a CACTI-style SRAM scaling law ([`SramModel`]) standing in for the
//!   paper's CACTI 7 usage,
//! * an analytical 65 nm module inventory ([`AreaPowerModel`]) that
//!   regenerates Table 2 and the §5.2.3 overhead percentages,
//! * per-event on-chip energies ([`EventEnergies`], [`EventCounts`]) that
//!   the accelerator simulator turns into the Fig. 10(b) breakdown
//!   ([`EnergyBreakdown`]).
//!
//! ## Example
//!
//! ```
//! use topick_energy::AreaPowerModel;
//!
//! let table = AreaPowerModel::paper().table2();
//! let total = table.last().expect("total row");
//! println!("modeled total: {:.3} mm2, {:.1} mW", total.area_mm2, total.power_mw);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod areapower;
pub mod events;
pub mod sram;

pub use areapower::{AreaPowerModel, ModuleReport};
pub use events::{EnergyBreakdown, EventCounts, EventEnergies};
pub use sram::{SramFigures, SramModel};
