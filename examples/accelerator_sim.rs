//! Cycle-level accelerator comparison: run the same attention step on the
//! baseline accelerator and on ToPick, and compare cycles, DRAM traffic and
//! energy.
//!
//! ```sh
//! cargo run --release --example accelerator_sim
//! ```

use token_picker::accel::{AccelConfig, AccelMode, ToPickAccelerator};
use token_picker::core::PrecisionConfig;
use token_picker::model::InstanceSampler;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let context = 1024;
    let dim = 64;
    let (query, keys) =
        InstanceSampler::realistic(context, dim).sample_codes(3, PrecisionConfig::paper());

    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "mode", "cycles", "kept", "DRAM MB", "energy uJ", "vs baseline"
    );
    let mut baseline_cycles = 0u64;
    for (name, mode, thr) in [
        ("Baseline", AccelMode::Baseline, 0.5),
        ("EstimateOnly", AccelMode::EstimateOnly, 1e-3),
        ("ToPick (OoO)", AccelMode::OutOfOrder, 1e-3),
        ("ToPick-0.3", AccelMode::OutOfOrder, 4e-3),
        ("Blocking", AccelMode::Blocking, 1e-3),
    ] {
        let accel = ToPickAccelerator::new(AccelConfig::paper(mode, thr)?);
        let r = accel.attention_cost(&query, &keys)?;
        if name == "Baseline" {
            baseline_cycles = r.cycles;
        }
        println!(
            "{:<14} {:>8} {:>8} {:>10.3} {:>12.2} {:>11.2}x",
            name,
            r.cycles,
            r.kept.len(),
            r.dram_stats.bytes(&accel.config().dram) as f64 / 1e6,
            r.energy.total_pj() / 1e6,
            baseline_cycles as f64 / r.cycles as f64,
        );
    }
    println!();
    println!("(out-of-order hides on-demand DRAM latency; blocking shows what happens without it)");
    Ok(())
}
