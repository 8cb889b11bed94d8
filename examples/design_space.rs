//! Design-space exploration: how the ToPick speedup responds to the
//! architectural knobs — PE lane count, scoreboard depth, DRAM channels —
//! using the generation-phase simulator.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use token_picker::accel::{AccelConfig, AccelMode, GenerationConfig, GenerationSimulator};
use token_picker::core::{PrecisionConfig, QMatrix, QVector};
use token_picker::model::{InstanceSampler, SynthKeys};

fn factory(seed: u64) -> impl FnMut(usize, usize, usize) -> (QVector, QMatrix) {
    move |step, head, ctx| {
        let pc = PrecisionConfig::paper();
        let inst: SynthKeys =
            InstanceSampler::realistic(ctx, 64).sample_keys(seed + step as u64 * 101 + head as u64);
        (
            QVector::quantize(&inst.query, pc),
            QMatrix::quantize_flat(inst.keys().data(), 64, pc).expect("non-empty"),
        )
    }
}

fn run_with(mutate: impl FnOnce(&mut AccelConfig)) -> Result<u64, Box<dyn std::error::Error>> {
    let mut accel = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
    mutate(&mut accel);
    let cfg = GenerationConfig {
        accel,
        prompt_len: 512,
        steps: 2,
        heads: 2,
        model_kv_writes: true,
    };
    Ok(GenerationSimulator::new(cfg).run(factory(11))?.cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("knob sweeps (total cycles for a 2-step, 2-head run at context 512)\n");

    println!("PE lanes:");
    for lanes in [4usize, 8, 16, 32] {
        let cycles = run_with(|c| c.lanes = lanes)?;
        println!("  {lanes:>3} lanes      -> {cycles:>7} cycles");
    }

    println!("scoreboard entries per lane:");
    for sb in [1usize, 4, 8, 32] {
        let cycles = run_with(|c| c.scoreboard_entries = sb)?;
        println!("  {sb:>3} entries    -> {cycles:>7} cycles");
    }

    println!("DRAM channels:");
    for ch in [2usize, 4, 8] {
        let cycles = run_with(|c| c.dram.channels = ch)?;
        println!("  {ch:>3} channels   -> {cycles:>7} cycles");
    }

    println!();
    println!("(the paper's 16 lanes saturate 8 HBM2 channels; fewer channels starve the lanes)");
    Ok(())
}
