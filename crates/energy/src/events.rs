//! Per-event energies used by the accelerator simulator to produce the
//! Fig. 10(b) energy breakdown.
//!
//! The DRAM side (pJ/bit, activate energy, background power) lives in
//! `topick-dram`; this module covers on-chip compute and buffer events.

use crate::sram::SramModel;

/// Energy cost of the on-chip event types, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventEnergies {
    /// One 12×4-bit multiply-accumulate (chunk-mode step 0).
    pub mac_12x4_pj: f64,
    /// One 12×12-bit multiply-accumulate (step 1 / prompt mode).
    pub mac_12x12_pj: f64,
    /// One fixed-point EXP evaluation.
    pub exp_pj: f64,
    /// One scoreboard entry read or write (67 bits).
    pub scoreboard_access_pj: f64,
    /// One byte read from the K/V SRAM buffers.
    pub buffer_read_pj_per_byte: f64,
    /// One byte written to the K/V SRAM buffers.
    pub buffer_write_pj_per_byte: f64,
}

impl EventEnergies {
    /// The 65 nm calibration, derived from the same primitives as the
    /// area/power model.
    #[must_use]
    pub fn node_65nm() -> Self {
        let sram = SramModel::node_65nm().figures(192 * 1024, 0.0);
        // A 12x12 multiplier at 0.25 mW / 500 MHz = 0.5 pJ per operation;
        // a 12x4 operation toggles a third of the partial products.
        Self {
            mac_12x4_pj: 0.18,
            mac_12x12_pj: 0.5,
            exp_pj: 1.8,
            scoreboard_access_pj: 0.35,
            buffer_read_pj_per_byte: sram.read_pj_per_byte,
            buffer_write_pj_per_byte: sram.write_pj_per_byte,
        }
    }
}

impl Default for EventEnergies {
    fn default() -> Self {
        Self::node_65nm()
    }
}

/// Event counts accumulated by an accelerator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// 12×4-bit MACs executed.
    pub mac_12x4: u64,
    /// 12×12-bit MACs executed.
    pub mac_12x12: u64,
    /// EXP evaluations.
    pub exp: u64,
    /// Scoreboard accesses.
    pub scoreboard: u64,
    /// Bytes read from on-chip buffers.
    pub buffer_read_bytes: u64,
    /// Bytes written to on-chip buffers.
    pub buffer_write_bytes: u64,
}

impl EventCounts {
    /// Total on-chip compute energy (MACs + EXP + scoreboard), picojoules.
    #[must_use]
    pub fn compute_energy_pj(&self, e: &EventEnergies) -> f64 {
        self.mac_12x4 as f64 * e.mac_12x4_pj
            + self.mac_12x12 as f64 * e.mac_12x12_pj
            + self.exp as f64 * e.exp_pj
            + self.scoreboard as f64 * e.scoreboard_access_pj
    }

    /// On-chip buffer energy, picojoules.
    #[must_use]
    pub fn buffer_energy_pj(&self, e: &EventEnergies) -> f64 {
        self.buffer_read_bytes as f64 * e.buffer_read_pj_per_byte
            + self.buffer_write_bytes as f64 * e.buffer_write_pj_per_byte
    }
}

/// A three-way energy breakdown matching Fig. 10(b)'s stacked bars.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Off-chip DRAM energy (pJ).
    pub dram_pj: f64,
    /// On-chip buffer energy (pJ).
    pub buffer_pj: f64,
    /// Compute energy (pJ).
    pub compute_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.buffer_pj + self.compute_pj
    }

    /// Fractions `(dram, buffer, compute)` of the total.
    #[must_use]
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total_pj();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.dram_pj / t, self.buffer_pj / t, self.compute_pj / t)
    }
}

impl std::ops::AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, other: Self) {
        self.dram_pj += other.dram_pj;
        self.buffer_pj += other.buffer_pj;
        self.compute_pj += other.compute_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdowns_add_component_wise() {
        let mut sum = EnergyBreakdown {
            dram_pj: 1.0,
            buffer_pj: 2.0,
            compute_pj: 3.0,
        };
        sum += EnergyBreakdown {
            dram_pj: 10.0,
            buffer_pj: 20.0,
            compute_pj: 30.0,
        };
        assert_eq!(
            (sum.dram_pj, sum.buffer_pj, sum.compute_pj),
            (11.0, 22.0, 33.0)
        );
    }

    #[test]
    fn energies_positive_and_ordered() {
        let e = EventEnergies::node_65nm();
        assert!(e.mac_12x4_pj > 0.0);
        assert!(e.mac_12x4_pj < e.mac_12x12_pj, "4-bit MAC must be cheaper");
        assert!(e.buffer_write_pj_per_byte > e.buffer_read_pj_per_byte);
    }

    #[test]
    fn counts_to_energy() {
        let e = EventEnergies::node_65nm();
        let c = EventCounts {
            mac_12x4: 100,
            mac_12x12: 10,
            exp: 5,
            scoreboard: 20,
            buffer_read_bytes: 1000,
            buffer_write_bytes: 100,
        };
        let compute = c.compute_energy_pj(&e);
        let expect = 100.0 * e.mac_12x4_pj
            + 10.0 * e.mac_12x12_pj
            + 5.0 * e.exp_pj
            + 20.0 * e.scoreboard_access_pj;
        assert!((compute - expect).abs() < 1e-9);
        assert!(c.buffer_energy_pj(&e) > 0.0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = EnergyBreakdown {
            dram_pj: 70.0,
            buffer_pj: 20.0,
            compute_pj: 10.0,
        };
        let (d, s, c) = b.fractions();
        assert!((d + s + c - 1.0).abs() < 1e-12);
        assert!((d - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = EnergyBreakdown::default();
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0));
    }
}
