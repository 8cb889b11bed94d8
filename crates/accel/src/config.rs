//! Accelerator configuration.

use topick_core::{CoreError, PrecisionConfig, ScanOrder};
use topick_dram::DramConfig;

use std::fmt;
use std::str::FromStr;

/// Which pipeline the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelMode {
    /// No pruning: stream all K, compute all scores, stream all V
    /// (the paper's baseline accelerator, §5.1.3).
    Baseline,
    /// Probability estimation for V only: all K is streamed at full
    /// precision, scores are exact, and V rows of negligible tokens are
    /// skipped (the "ToPick-V" intermediate configuration of Fig. 10).
    EstimateOnly,
    /// Full Token-Picker: chunked on-demand K with out-of-order score
    /// calculation plus V pruning.
    OutOfOrder,
    /// Ablation: chunked on-demand K but *blocking* — each lane waits for
    /// its token's next chunk instead of processing other arrivals.
    /// Same traffic as [`OutOfOrder`](Self::OutOfOrder), lower utilization.
    Blocking,
}

impl AccelMode {
    /// Stable, human-readable mode name — the token serve traces and CLI
    /// flags round-trip the mode through.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::EstimateOnly => "estimate-only",
            Self::OutOfOrder => "out-of-order",
            Self::Blocking => "blocking",
        }
    }
}

impl fmt::Display for AccelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AccelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "baseline" => Ok(Self::Baseline),
            "estimate" | "estimate-only" => Ok(Self::EstimateOnly),
            "ooo" | "out-of-order" => Ok(Self::OutOfOrder),
            "blocking" => Ok(Self::Blocking),
            other => Err(format!(
                "unknown accel mode '{other}' (expected baseline | estimate-only | out-of-order | blocking)"
            )),
        }
    }
}

/// Full configuration of the ToPick accelerator simulator.
///
/// # Examples
///
/// ```
/// use topick_accel::{AccelConfig, AccelMode};
///
/// let cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3)?;
/// assert_eq!(cfg.lanes, 16);
/// assert_eq!(cfg.clock_ratio, 4); // 2 GHz DRAM / 500 MHz core
/// # Ok::<(), topick_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// Number of PE lanes (paper: 16).
    pub lanes: usize,
    /// Head dimension each lane's multiplier tree covers per cycle
    /// (paper: 64).
    pub dim: usize,
    /// Operand precision / chunking.
    pub precision: PrecisionConfig,
    /// Pruning probability threshold (ignored in `Baseline` mode).
    pub threshold: f64,
    /// Pipeline variant.
    pub mode: AccelMode,
    /// Token scan order for step 0.
    pub order: ScanOrder,
    /// DRAM device model.
    pub dram: DramConfig,
    /// DRAM clock cycles per accelerator clock cycle (2 GHz / 500 MHz = 4).
    pub clock_ratio: u64,
    /// Scoreboard entries per lane (paper: 32).
    pub scoreboard_entries: usize,
    /// Fixed pipeline latency of the Margin Generator before step 0 starts,
    /// in accelerator cycles.
    pub margin_gen_latency: u64,
}

impl AccelConfig {
    /// The paper's hardware configuration (Table 1) in the given mode with
    /// the given pruning threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidThreshold`] if `threshold` is not in
    /// `(0, 1)`.
    pub fn paper(mode: AccelMode, threshold: f64) -> Result<Self, CoreError> {
        let cfg = Self {
            lanes: 16,
            dim: 64,
            precision: PrecisionConfig::paper(),
            threshold,
            mode,
            order: ScanOrder::FirstAndReverse,
            dram: DramConfig::hbm2(),
            clock_ratio: 4,
            scoreboard_entries: 32,
            margin_gen_latency: 4,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Rejects field values the simulator cannot run with (the fields are
    /// public, so any of them may have been assigned after construction).
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if !(self.threshold > 0.0 && self.threshold < 1.0) {
            return Err(CoreError::InvalidThreshold(self.threshold));
        }
        if self.lanes == 0 {
            return Err(CoreError::InvalidConfig("lanes must be positive"));
        }
        if self.clock_ratio == 0 {
            return Err(CoreError::InvalidConfig("clock_ratio must be positive"));
        }
        // Every first chunk that survives needs an entry to wait in.
        let chunked = matches!(self.mode, AccelMode::OutOfOrder | AccelMode::Blocking);
        if chunked && self.scoreboard_entries == 0 {
            return Err(CoreError::InvalidConfig(
                "a chunked mode needs at least one scoreboard entry per lane",
            ));
        }
        Ok(())
    }

    /// The baseline accelerator (threshold is irrelevant but kept valid).
    #[must_use]
    pub fn baseline() -> Self {
        Self::paper(AccelMode::Baseline, 0.5).expect("0.5 is a valid threshold")
    }

    /// Bytes of one K chunk of one token.
    #[must_use]
    pub fn k_chunk_bytes(&self) -> u64 {
        self.precision.chunk_bytes(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        let cfg = AccelConfig::paper(AccelMode::OutOfOrder, 1e-3).unwrap();
        assert_eq!(cfg.k_chunk_bytes(), 32); // 64 dims x 4 bits
        assert_eq!(cfg.scoreboard_entries, 32);
    }

    #[test]
    fn invalid_threshold_rejected() {
        assert!(AccelConfig::paper(AccelMode::OutOfOrder, 0.0).is_err());
        assert!(AccelConfig::paper(AccelMode::OutOfOrder, 1.0).is_err());
    }

    #[test]
    fn accel_mode_round_trips_through_names() {
        for mode in [
            AccelMode::Baseline,
            AccelMode::EstimateOnly,
            AccelMode::OutOfOrder,
            AccelMode::Blocking,
        ] {
            assert_eq!(mode.name().parse::<AccelMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
        }
        assert!("nope".parse::<AccelMode>().is_err());
        assert_eq!("ooo".parse::<AccelMode>(), Ok(AccelMode::OutOfOrder));
    }
}
