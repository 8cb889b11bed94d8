//! Module-level area/power inventory of the ToPick accelerator — the
//! reproduction of Table 2 (Synopsys DC @ Samsung 65 nm LP, 500 MHz).
//!
//! We cannot run synthesis, so every module is modeled analytically from
//! primitive constants (a 12×12 multiplier, a register bit, a fixed-point
//! EXP unit, a bit of mux), calibrated at 65 nm so the derived figures track
//! the published table. The harness prints model-vs-paper side by side.

use crate::sram::SramModel;

/// Primitive area/power constants at 65 nm LP, 500 MHz.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Primitives {
    /// Area of a 12×12-bit multiplier (mm²).
    mult12_area: f64,
    /// Power of a 12×12-bit multiplier at full toggle (mW).
    mult12_power: f64,
    /// Area of one adder-tree 24-bit adder (mm²).
    adder_area: f64,
    /// Power of one adder-tree adder (mW).
    adder_power: f64,
    /// Area of a 32-bit fixed-point EXP unit (mm²).
    exp_area: f64,
    /// Power of a 32-bit EXP unit (mW).
    exp_power: f64,
    /// Area of one register (flip-flop) bit (mm²).
    reg_bit_area: f64,
    /// Power of one register bit (mW).
    reg_bit_power: f64,
    /// Area of one mux-network bit slice (mm²).
    mux_bit_area: f64,
    /// Power of one mux-network bit slice (mW).
    mux_bit_power: f64,
}

impl Primitives {
    /// The 65 nm calibration.
    #[must_use]
    fn node_65nm() -> Self {
        Self {
            mult12_area: 1.25e-3,
            mult12_power: 0.25,
            adder_area: 2.4e-4,
            adder_power: 0.031,
            exp_area: 0.013,
            exp_power: 0.9,
            reg_bit_area: 1.0e-5,
            reg_bit_power: 2.05e-3,
            mux_bit_area: 9.9e-5,
            mux_bit_power: 4.1e-3,
        }
    }
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleReport {
    /// Module name as printed in the paper.
    pub name: &'static str,
    /// Modeled area (mm²).
    pub area_mm2: f64,
    /// Modeled power (mW).
    pub power_mw: f64,
    /// Paper's synthesized area, for side-by-side printing.
    pub paper_area_mm2: f64,
    /// Paper's synthesized power.
    pub paper_power_mw: f64,
}

/// Which optimization family a module belongs to, for the overhead
/// accounting of §5.2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModuleRole {
    /// Present in the no-pruning baseline accelerator.
    Baseline,
    /// Added to reduce V accesses (Margin Generator, DAG, PEC).
    VSaving,
    /// Added to reduce K accesses (Scoreboard, RPDU).
    KSaving,
}

/// The full ToPick area/power model.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    prims: Primitives,
    sram: SramModel,
    lanes: usize,
    lane_dim: usize,
}

impl AreaPowerModel {
    /// The paper's configuration: 16 lanes, 64-wide multiplier trees.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            prims: Primitives::node_65nm(),
            sram: SramModel::node_65nm(),
            lanes: 16,
            lane_dim: 64,
        }
    }

    /// Per-lane module rows (the indented section of Table 2).
    #[must_use]
    fn lane_breakdown(&self) -> Vec<(ModuleReport, ModuleRole)> {
        let p = &self.prims;
        let d = self.lane_dim as f64;
        let mult_adder = ModuleReport {
            name: "Multipliers & Adder-Tree 12b",
            area_mm2: d * p.mult12_area + (d - 1.0) * p.adder_area,
            power_mw: d * p.mult12_power + (d - 1.0) * p.adder_power,
            paper_area_mm2: 0.095,
            paper_power_mw: 17.94,
        };
        // Probability Generator: 2 EXP units + a 16-entry x 36-bit FIFO.
        let fifo_bits = 16.0 * 36.0;
        let prob_gen = ModuleReport {
            name: "Prob Gen",
            area_mm2: 2.0 * p.exp_area + fifo_bits * p.reg_bit_area,
            power_mw: 2.0 * p.exp_power + fifo_bits * p.reg_bit_power * 0.5,
            paper_area_mm2: 0.032,
            paper_power_mw: 2.22,
        };
        // PEC: a shift-add EXP-difference approximation (a third of a full
        // EXP unit).
        let pec = ModuleReport {
            name: "PEC",
            area_mm2: 0.3 * p.exp_area,
            power_mw: 0.8 * p.exp_power,
            paper_area_mm2: 0.004,
            paper_power_mw: 0.73,
        };
        // Scoreboard: 32 entries x 67 bits (Table 1).
        let sb_bits = 32.0 * 67.0;
        let scoreboard = ModuleReport {
            name: "Scoreboard",
            area_mm2: sb_bits * p.reg_bit_area * 1.12,
            power_mw: sb_bits * p.reg_bit_power,
            paper_area_mm2: 0.024,
            paper_power_mw: 4.69,
        };
        // RPDU: one comparator + request mux control.
        let rpdu = ModuleReport {
            name: "RPDU",
            area_mm2: 80.0 * p.reg_bit_area,
            power_mw: 80.0 * p.reg_bit_power,
            paper_area_mm2: 0.001,
            paper_power_mw: 0.17,
        };
        // MUX network: 64 x 12-bit slices between step-0 and step-1 paths.
        let mux_bits = d * 12.0;
        let mux = ModuleReport {
            name: "Mux Network",
            area_mm2: mux_bits * p.mux_bit_area,
            power_mw: mux_bits * p.mux_bit_power,
            paper_area_mm2: 0.076,
            paper_power_mw: 3.13,
        };
        vec![
            (mult_adder, ModuleRole::Baseline),
            (prob_gen, ModuleRole::Baseline),
            (pec, ModuleRole::VSaving),
            (scoreboard, ModuleRole::KSaving),
            (rpdu, ModuleRole::KSaving),
            (mux, ModuleRole::Baseline),
        ]
    }

    /// Shared (non-lane) module rows.
    #[must_use]
    fn shared_breakdown(&self) -> Vec<(ModuleReport, ModuleRole)> {
        let p = &self.prims;
        let d = self.lane_dim as f64;
        // Margin Generator: sign-split accumulators over the query plus
        // shifted margin registers.
        let margin = ModuleReport {
            name: "Margin Generator",
            area_mm2: (d - 1.0) * p.adder_area * 2.0 + 800.0 * p.reg_bit_area * 0.6,
            power_mw: (d - 1.0) * p.adder_power * 2.0 * 0.4 + 800.0 * p.reg_bit_power * 1.4,
            paper_area_mm2: 0.014,
            paper_power_mw: 3.78,
        };
        // DAG: 16-input adder tree + ln unit + denominator register.
        let dag = ModuleReport {
            name: "DAG",
            area_mm2: 15.0 * p.adder_area + 0.35 * p.exp_area + 120.0 * p.reg_bit_area,
            power_mw: 15.0 * p.adder_power + 1.8 * p.exp_power + 120.0 * p.reg_bit_power,
            paper_area_mm2: 0.010,
            paper_power_mw: 2.49,
        };
        // On-chip buffers: 2 x 192 KB K/V + 512 B operand buffer, streaming
        // 512 B/cycle to the 16 lanes.
        let kv = self.sram.figures(192 * 1024, 512.0);
        let operand = self.sram.figures(512, 2.0);
        let buffer = ModuleReport {
            name: "On-chip buffer",
            area_mm2: 2.0 * kv.area_mm2 + operand.area_mm2,
            power_mw: 2.0 * kv.power_mw + operand.power_mw,
            paper_area_mm2: 5.968,
            paper_power_mw: 1053.32,
        };
        vec![
            (margin, ModuleRole::VSaving),
            (dag, ModuleRole::VSaving),
            (buffer, ModuleRole::Baseline),
        ]
    }

    /// The aggregated table: per-lane rows, the ×16 lane total, shared
    /// modules, and the grand total (model and paper columns).
    #[must_use]
    pub fn table2(&self) -> Vec<ModuleReport> {
        let lane = self.lane_breakdown();
        let lane_area: f64 = lane.iter().map(|(m, _)| m.area_mm2).sum();
        let lane_power: f64 = lane.iter().map(|(m, _)| m.power_mw).sum();
        let mut rows = vec![ModuleReport {
            name: "PE Lane x 16",
            area_mm2: lane_area * self.lanes as f64,
            power_mw: lane_power * self.lanes as f64,
            paper_area_mm2: 2.518,
            paper_power_mw: 426.76,
        }];
        rows.extend(lane.into_iter().map(|(m, _)| m));
        let shared = self.shared_breakdown();
        let shared_area: f64 = shared.iter().map(|(m, _)| m.area_mm2).sum();
        let shared_power: f64 = shared.iter().map(|(m, _)| m.power_mw).sum();
        rows.extend(shared.into_iter().map(|(m, _)| m));
        rows.push(ModuleReport {
            name: "Total",
            area_mm2: lane_area * self.lanes as f64 + shared_area,
            power_mw: lane_power * self.lanes as f64 + shared_power,
            paper_area_mm2: 8.593,
            paper_power_mw: 1492.78,
        });
        rows
    }

    /// Area/power overhead of the pruning modules over the baseline
    /// accelerator, as percentages `(v_area, v_power, k_area, k_power)` —
    /// the §5.2.3 numbers (paper: 1.0%, 1.3%, 4.9%, 5.6%).
    #[must_use]
    pub fn overheads(&self) -> (f64, f64, f64, f64) {
        let mut base_area = 0.0;
        let mut base_power = 0.0;
        let mut v_area = 0.0;
        let mut v_power = 0.0;
        let mut k_area = 0.0;
        let mut k_power = 0.0;
        let lanes = self.lanes as f64;
        for (m, role) in self.lane_breakdown() {
            let (a, p) = (m.area_mm2 * lanes, m.power_mw * lanes);
            match role {
                ModuleRole::Baseline => {
                    base_area += a;
                    base_power += p;
                }
                ModuleRole::VSaving => {
                    v_area += a;
                    v_power += p;
                }
                ModuleRole::KSaving => {
                    k_area += a;
                    k_power += p;
                }
            }
        }
        for (m, role) in self.shared_breakdown() {
            match role {
                ModuleRole::Baseline => {
                    base_area += m.area_mm2;
                    base_power += m.power_mw;
                }
                ModuleRole::VSaving => {
                    v_area += m.area_mm2;
                    v_power += m.power_mw;
                }
                ModuleRole::KSaving => {
                    k_area += m.area_mm2;
                    k_power += m.power_mw;
                }
            }
        }
        (
            100.0 * v_area / base_area,
            100.0 * v_power / base_power,
            100.0 * k_area / base_area,
            100.0 * k_power / base_power,
        )
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_modules_track_paper_values() {
        let model = AreaPowerModel::paper();
        for (m, _) in model.lane_breakdown() {
            let da = (m.area_mm2 - m.paper_area_mm2).abs() / m.paper_area_mm2;
            let dp = (m.power_mw - m.paper_power_mw).abs() / m.paper_power_mw;
            assert!(
                da < 0.5,
                "{}: area {:.4} vs {:.4}",
                m.name,
                m.area_mm2,
                m.paper_area_mm2
            );
            assert!(
                dp < 0.5,
                "{}: power {:.3} vs {:.3}",
                m.name,
                m.power_mw,
                m.paper_power_mw
            );
        }
    }

    #[test]
    fn totals_track_paper() {
        let model = AreaPowerModel::paper();
        let rows = model.table2();
        let total = rows.last().unwrap();
        assert_eq!(total.name, "Total");
        assert!(
            (total.area_mm2 - 8.593).abs() / 8.593 < 0.35,
            "{}",
            total.area_mm2
        );
        assert!(
            (total.power_mw - 1492.78).abs() / 1492.78 < 0.35,
            "{}",
            total.power_mw
        );
    }

    #[test]
    fn overheads_are_small_like_the_paper() {
        // Paper: V modules ~1.0% area / 1.3% power; K modules ~4.9% / 5.6%.
        let (va, vp, ka, kp) = AreaPowerModel::paper().overheads();
        assert!(va > 0.1 && va < 4.0, "v area overhead {va}%");
        assert!(vp > 0.3 && vp < 6.0, "v power overhead {vp}%");
        assert!(ka > 0.5 && ka < 10.0, "k area overhead {ka}%");
        assert!(kp > 1.0 && kp < 12.0, "k power overhead {kp}%");
    }

    #[test]
    fn table_has_all_paper_rows() {
        let names: Vec<&str> = AreaPowerModel::paper()
            .table2()
            .iter()
            .map(|m| m.name)
            .collect();
        for expect in [
            "PE Lane x 16",
            "Multipliers & Adder-Tree 12b",
            "Prob Gen",
            "PEC",
            "Scoreboard",
            "RPDU",
            "Mux Network",
            "Margin Generator",
            "DAG",
            "On-chip buffer",
            "Total",
        ] {
            assert!(names.contains(&expect), "missing row {expect}");
        }
    }
}
