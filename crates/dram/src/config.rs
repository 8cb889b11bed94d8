//! HBM2 device and timing configuration.
//!
//! Defaults match the paper's setup (Table 1): "HBM2; 8 channels × 128-bit
//! at 2 GHz; each channel provides 32 GB/s bandwidth". Timing parameters are
//! typical HBM2 values in memory-clock cycles, in the spirit of DRAMsim3's
//! HBM2 config files.

/// DRAM device geometry, timing and energy constants.
///
/// # Examples
///
/// ```
/// use topick_dram::DramConfig;
///
/// let cfg = DramConfig::hbm2();
/// assert_eq!(cfg.channels, 8);
/// // 8 channels x 128-bit bus at 2 GT/s -> 256 GB/s.
/// assert!((cfg.total_bandwidth_gbps() - 256.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Data bus width per channel in bits.
    pub bus_bits: u32,
    /// Transfer clock in GT/s (the paper's "2 GHz" is the data rate).
    pub clock_ghz: f64,
    /// Bytes transferred by one read/write transaction (one burst).
    pub access_bytes: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// RAS-to-CAS delay (activate → column command), cycles.
    pub t_rcd: u64,
    /// Row precharge time, cycles.
    pub t_rp: u64,
    /// CAS (column access) latency, cycles.
    pub t_cl: u64,
    /// Burst duration on the data bus, cycles.
    pub t_burst: u64,
    /// Minimum activate-to-precharge time, cycles.
    pub t_ras: u64,
    /// Per-channel request queue depth.
    pub queue_depth: usize,
    /// Average refresh interval (tREFI) in cycles; 0 disables refresh.
    pub t_refi: u64,
    /// Refresh duration (tRFC) in cycles, during which a channel's banks
    /// are unavailable.
    pub t_rfc: u64,
    /// I/O + array energy per transferred bit, picojoules.
    pub pj_per_bit: f64,
    /// Energy per row activation (activate + precharge), picojoules.
    pub act_energy_pj: f64,
    /// Static background power per channel, milliwatts.
    pub background_mw: f64,
}

impl DramConfig {
    /// The paper's HBM2 stack.
    #[must_use]
    pub fn hbm2() -> Self {
        Self {
            channels: 8,
            banks_per_channel: 16,
            bus_bits: 128,
            clock_ghz: 2.0,
            access_bytes: 32,
            row_bytes: 1024,
            t_rcd: 14,
            t_rp: 14,
            t_cl: 14,
            t_burst: 2, // 128-bit bus moves 16 B per transfer clock -> 32 B in two
            t_ras: 34,
            queue_depth: 32,
            t_refi: 7800, // 3.9 us at 2 GT/s
            t_rfc: 520,   // 260 ns
            pj_per_bit: 3.9,
            act_energy_pj: 1700.0,
            background_mw: 55.0,
        }
    }

    /// A tiny single-channel configuration for fast unit tests.
    #[must_use]
    pub fn test_tiny() -> Self {
        Self {
            channels: 1,
            banks_per_channel: 2,
            queue_depth: 4,
            ..Self::hbm2()
        }
    }

    /// Peak aggregate transfer in bytes per memory-clock cycle: each
    /// channel's bus moves two transfers (`2 × bus_bits / 8` bytes, one
    /// burst) every `t_burst` cycles. The serving model streams weights at
    /// this rate.
    #[must_use]
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        f64::from(self.bus_bits) / 8.0 * self.channels as f64 / self.t_burst as f64 * 2.0
    }

    /// Peak aggregate bandwidth in GB/s:
    /// [`peak_bytes_per_cycle`](Self::peak_bytes_per_cycle) at `clock_ghz`
    /// cycles per nanosecond.
    #[must_use]
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.peak_bytes_per_cycle() * self.clock_ghz
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::hbm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2_matches_table1() {
        let c = DramConfig::hbm2();
        assert_eq!(c.channels, 8);
        assert_eq!(c.bus_bits, 128);
        assert_eq!(c.peak_bytes_per_cycle(), 128.0);
        assert!((c.total_bandwidth_gbps() - 256.0).abs() < 1e-9);
    }
}
