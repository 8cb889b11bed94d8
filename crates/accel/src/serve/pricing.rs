//! The serving cost model's prices, in one place: the step's shared
//! weight stream, and every prefill, re-prefill, host-swap and
//! cross-shard-ship charge — the request's measured attention cost scaled
//! by a configured factor and by the share of its context the work
//! covers. [`ServingEngine::step`](super::ServingEngine::step) decides
//! *what* a step and its slots owe; this module decides what that costs.

use crate::config::AccelConfig;

/// Accelerator cycles spent streaming `weight_bytes` of FC/FFN weights at
/// the DRAM peak bandwidth — the per-step cost every request in a batch
/// shares (paper §2.2.1), and the best case for the baseline.
pub(super) fn weight_stream_cycles(accel_cfg: &AccelConfig, weight_bytes: u64) -> u64 {
    // Weights stream at peak DRAM bandwidth: bytes / (bytes-per-accel-cycle).
    let bytes_per_dram_cycle = f64::from(accel_cfg.dram.bus_bits) / 8.0
        * accel_cfg.dram.channels as f64
        / accel_cfg.dram.t_burst as f64
        * 2.0; // two transfer clocks per burst move access_bytes
    let bytes_per_accel_cycle = bytes_per_dram_cycle * accel_cfg.clock_ratio as f64;
    (weight_bytes as f64 / bytes_per_accel_cycle).ceil() as u64
}

/// A price factor as the engine uses it: negative and NaN configurations
/// price the work as free rather than poisoning the cycle totals.
pub(super) fn clamp_factor(factor: f64) -> f64 {
    factor.max(0.0)
}

/// Cycles to (re)build, copy back or ship `tokens` of a request's
/// `context`, given its measured per-step attention cost: `ceil((cycles ×
/// factor) × (tokens ÷ context))`. The operation order is part of the
/// contract — every golden schedule pins these charges to the cycle.
pub(super) fn share(request_cycles: u64, factor: f64, tokens: usize, context: usize) -> u64 {
    (request_cycles as f64 * factor * (tokens as f64 / context.max(1) as f64)).ceil() as u64
}

/// The charge for advancing a chunked-prefill frontier from `before` to
/// `after` tokens of remaining debt. Each chunk pays the difference of two
/// cumulative [`share`]s, so the chunks of a prompt telescope to exactly
/// its one-lump charge — chunking moves prefill work across steps without
/// ever repricing it.
pub(super) fn prefill_chunk(
    request_cycles: u64,
    factor: f64,
    before: usize,
    after: usize,
    context: usize,
) -> u64 {
    share(request_cycles, factor, before, context) - share(request_cycles, factor, after, context)
}

/// The final prefill chunk's charge: a prompt that still `owed` tokens
/// never builds for free, so when everything `charged` so far plus the
/// `marginal` chunk rounds to zero the chunk costs one cycle. The floor
/// applies to the prompt's *total*, keeping chunk charges summing to the
/// lump; a full cache hit (`owed == 0`) genuinely costs nothing.
pub(super) fn floor_prefill(owed: usize, charged: u64, marginal: u64) -> u64 {
    if owed > 0 && charged + marginal == 0 {
        1
    } else {
        marginal
    }
}

/// The rebuild charge of a re-admitted request: eviction is never free,
/// so a rebuild whose recompute, copy-back and transfer all round to zero
/// costs one cycle. With any off-device charge in play the transfer
/// already paid and the recompute price stands.
pub(super) fn floor_reprefill(rebuild: u64, swap: u64, ship: u64) -> u64 {
    if rebuild + swap + ship == 0 {
        1
    } else {
        rebuild
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bills `owed` tokens of a `context`-token prompt chunk by chunk the
    /// way the engine does: telescoping charges, the floor on the last.
    fn chunked_bill(cycles: u64, factor: f64, chunks: &[usize], context: usize) -> u64 {
        let mut remaining: usize = chunks.iter().sum();
        let mut charged = 0;
        for (i, &chunk) in chunks.iter().enumerate() {
            let marginal = prefill_chunk(cycles, factor, remaining, remaining - chunk, context);
            charged += if i + 1 == chunks.len() {
                floor_prefill(remaining, charged, marginal)
            } else {
                marginal
            };
            remaining -= chunk;
        }
        charged
    }

    #[test]
    fn every_split_of_a_prompt_sums_to_the_one_lump_charge() {
        const OWED: usize = 9;
        // (cycles, factor): an ordinary price, a fractional one whose
        // chunks each round up, an unpriced prompt, and a zero-cost one —
        // the last two round to 0 and must hit the floor exactly once.
        for (cycles, factor) in [(1000, 1.0), (7, 0.3), (1000, 0.0), (0, 1.0)] {
            let lump = floor_prefill(OWED, 0, share(cycles, factor, OWED, 12));
            assert!(lump >= 1, "a prompt that owes prefill is never free");
            // Each bit of `cuts` decides whether a chunk ends after that
            // token: all 2^(OWED-1) compositions of OWED.
            for cuts in 0u32..1 << (OWED - 1) {
                let mut chunks = vec![1];
                for bit in 0..OWED - 1 {
                    if cuts & (1 << bit) != 0 {
                        chunks.push(1);
                    } else {
                        *chunks.last_mut().unwrap() += 1;
                    }
                }
                assert_eq!(
                    chunked_bill(cycles, factor, &chunks, 12),
                    lump,
                    "cycles {cycles} factor {factor} chunks {chunks:?}"
                );
            }
        }
        assert_eq!(floor_prefill(0, 0, 0), 0, "a full cache hit is free");
    }

    #[test]
    fn share_rounds_up_and_scales_with_the_covered_share() {
        assert_eq!(share(1000, 1.0, 12, 12), 1000);
        assert_eq!(share(1000, 0.5, 3, 12), 125);
        assert_eq!(share(10, 1.0, 1, 3), 4, "3.33 rounds up");
        assert_eq!(share(1000, 1.0, 0, 12), 0);
        assert_eq!(share(1000, clamp_factor(-2.0), 12, 12), 0);
        assert_eq!(share(1000, clamp_factor(f64::NAN), 12, 12), 0);
    }

    #[test]
    fn weight_streaming_cost_scales_with_bytes() {
        let cfg = AccelConfig::baseline();
        let small = weight_stream_cycles(&cfg, 1_000_000);
        let large = weight_stream_cycles(&cfg, 10_000_000);
        assert!(small > 0);
        assert!(large > 9 * small, "{large} vs {small}");
        assert_eq!(weight_stream_cycles(&cfg, 0), 0);
    }

    #[test]
    fn reprefill_floor_fires_only_when_the_whole_rebuild_is_free() {
        assert_eq!(floor_reprefill(0, 0, 0), 1);
        assert_eq!(floor_reprefill(0, 3, 0), 0, "the copy-back already paid");
        assert_eq!(floor_reprefill(0, 0, 2), 0, "the transfer already paid");
        assert_eq!(floor_reprefill(5, 0, 0), 5);
        assert_eq!(floor_reprefill(5, 3, 2), 5);
    }
}
