//! Physical address decomposition: channel / bank / row / column.
//!
//! Low-order interleaving: consecutive bursts rotate across channels, then
//! banks, maximizing parallelism for the streaming KV traffic the
//! accelerator generates.

use crate::config::DramConfig;

/// A decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (burst) index within the row.
    pub column: u64,
}

/// Maps byte addresses to DRAM locations for a given configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressMap {
    burst_shift: u32,
    channels: usize,
    banks: usize,
    columns_per_row: u64,
}

impl AddressMap {
    /// Builds the mapper for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `access_bytes` is not a power of two or the row holds no
    /// whole bursts.
    #[must_use]
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(
            cfg.access_bytes.is_power_of_two(),
            "access_bytes must be a power of two"
        );
        let columns_per_row = u64::from(cfg.row_bytes) / u64::from(cfg.access_bytes);
        assert!(columns_per_row > 0, "row smaller than one burst");
        Self {
            burst_shift: cfg.access_bytes.trailing_zeros(),
            channels: cfg.channels,
            banks: cfg.banks_per_channel,
            columns_per_row,
        }
    }

    /// Decodes a byte address.
    #[must_use]
    #[inline]
    pub fn decode(&self, addr: u64) -> Location {
        let burst = addr >> self.burst_shift;
        let channel = (burst % self.channels as u64) as usize;
        let rest = burst / self.channels as u64;
        let bank = (rest % self.banks as u64) as usize;
        let rest = rest / self.banks as u64;
        let column = rest % self.columns_per_row;
        let row = rest / self.columns_per_row;
        Location {
            channel,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_bursts_rotate_channels() {
        let cfg = DramConfig::hbm2();
        let map = AddressMap::new(&cfg);
        let step = u64::from(cfg.access_bytes);
        for i in 0..16u64 {
            let loc = map.decode(i * step);
            assert_eq!(loc.channel, (i % 8) as usize, "burst {i}");
        }
    }

    #[test]
    fn same_row_for_nearby_addresses_same_bank() {
        let cfg = DramConfig::hbm2();
        let map = AddressMap::new(&cfg);
        // Two addresses landing on channel 0, bank 0, adjacent columns.
        let a = map.decode(0);
        let b = map.decode(32 * 8 * 16); // next column on ch0 bank0
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn row_changes_after_columns_exhausted() {
        let cfg = DramConfig::hbm2();
        let map = AddressMap::new(&cfg);
        let cols = u64::from(cfg.row_bytes) / u64::from(cfg.access_bytes);
        let stride = 32 * 8 * 16; // one column step on a fixed channel/bank
        let last = map.decode((cols - 1) * stride);
        let next = map.decode(cols * stride);
        assert_eq!(last.row, 0);
        assert_eq!(next.row, 1);
        assert_eq!(next.column, 0);
    }
}
