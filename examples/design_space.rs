//! Design-space exploration: how the ToPick speedup responds to the
//! architectural knobs — PE lane count, scoreboard depth, DRAM channels —
//! summing the attention cost of a fixed set of instances.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use token_picker::accel::{AccelConfig, AccelMode, ToPickAccelerator};
use token_picker::core::{PrecisionConfig, QMatrix, QVector};
use token_picker::model::InstanceSampler;

/// Two generation steps of two heads at context 512: the query and keys
/// of every (step, head) pair.
fn instances() -> Vec<(QVector, QMatrix)> {
    let pc = PrecisionConfig::paper();
    let mut out = Vec::new();
    for step in 0..2usize {
        for head in 0..2u64 {
            let sampler = InstanceSampler::realistic(512 + step, 64);
            out.push(sampler.sample_codes(11 + step as u64 * 101 + head, pc));
        }
    }
    out
}

fn run_with(
    instances: &[(QVector, QMatrix)],
    mutate: impl FnOnce(&mut AccelConfig),
) -> Result<u64, Box<dyn std::error::Error>> {
    let mut cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
    mutate(&mut cfg);
    let accel = ToPickAccelerator::new(cfg);
    let mut cycles = 0;
    for (q, keys) in instances {
        cycles += accel.attention_cost(q, keys)?.cycles;
    }
    Ok(cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instances = instances();
    println!("knob sweeps (attention cycles of a 2-step, 2-head run at context 512)\n");

    println!("PE lanes:");
    for lanes in [4usize, 8, 16, 32] {
        let cycles = run_with(&instances, |c| c.lanes = lanes)?;
        println!("  {lanes:>3} lanes      -> {cycles:>7} cycles");
    }

    println!("scoreboard entries per lane:");
    for sb in [1usize, 4, 8, 32] {
        let cycles = run_with(&instances, |c| c.scoreboard_entries = sb)?;
        println!("  {sb:>3} entries    -> {cycles:>7} cycles");
    }

    println!("DRAM channels:");
    for ch in [2usize, 4, 8] {
        let cycles = run_with(&instances, |c| c.dram.channels = ch)?;
        println!("  {ch:>3} channels   -> {cycles:>7} cycles");
    }

    println!();
    println!("(the paper's 16 lanes saturate 8 HBM2 channels; fewer channels starve the lanes)");
    Ok(())
}
