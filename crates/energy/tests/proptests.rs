//! Property tests of the energy models: monotonicity and unit sanity.

use proptest::prelude::*;
use topick_energy::{EnergyBreakdown, EventCounts, EventEnergies, SramModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SRAM area and leakage grow monotonically with capacity.
    #[test]
    fn sram_monotone_in_capacity(kb_a in 1u64..512, kb_b in 1u64..512) {
        let m = SramModel::node_65nm();
        let (small, large) = (kb_a.min(kb_b), kb_a.max(kb_b));
        let fa = m.figures(small * 1024, 32.0);
        let fb = m.figures(large * 1024, 32.0);
        prop_assert!(fb.area_mm2 >= fa.area_mm2);
        prop_assert!(fb.leakage_mw >= fa.leakage_mw);
        prop_assert!(fb.read_pj_per_byte >= fa.read_pj_per_byte);
    }

    /// Dynamic power scales linearly with streamed bytes per cycle.
    #[test]
    fn sram_power_linear_in_bandwidth(bpc in 1.0f64..1024.0) {
        let m = SramModel::node_65nm();
        let base = m.figures(64 * 1024, 0.0);
        let loaded = m.figures(64 * 1024, bpc);
        let dyn_mw = loaded.power_mw - base.power_mw;
        let expect = base.read_pj_per_byte * bpc * 0.5; // 500 MHz
        prop_assert!((dyn_mw - expect).abs() < 1e-9);
    }

    /// Event energy is additive: summed counts cost the summed energies.
    #[test]
    fn event_energy_additive(
        a in 0u64..10_000, b in 0u64..10_000, c in 0u64..10_000,
    ) {
        let e = EventEnergies::node_65nm();
        let x = EventCounts { mac_12x4: a, exp: b, buffer_read_bytes: c, ..Default::default() };
        let y = EventCounts { mac_12x4: c, exp: a, buffer_read_bytes: b, ..Default::default() };
        let merged = EventCounts {
            mac_12x4: a + c,
            exp: b + a,
            buffer_read_bytes: c + b,
            ..Default::default()
        };
        let sum = x.compute_energy_pj(&e) + y.compute_energy_pj(&e);
        prop_assert!((merged.compute_energy_pj(&e) - sum).abs() < 1e-6);
        let bsum = x.buffer_energy_pj(&e) + y.buffer_energy_pj(&e);
        prop_assert!((merged.buffer_energy_pj(&e) - bsum).abs() < 1e-6);
    }

    /// Breakdown fractions always sum to one for non-empty breakdowns.
    #[test]
    fn fractions_normalize(
        d in 0.0f64..1e9, s in 0.0f64..1e9, c in 0.0f64..1e9,
    ) {
        prop_assume!(d + s + c > 0.0);
        let b = EnergyBreakdown { dram_pj: d, buffer_pj: s, compute_pj: c };
        let (fd, fs, fc) = b.fractions();
        prop_assert!((fd + fs + fc - 1.0).abs() < 1e-9);
        prop_assert!(fd >= 0.0 && fs >= 0.0 && fc >= 0.0);
    }
}
