//! Memory-system configuration (paper Table 2).

use obfusmem_sim::time::Duration;

use crate::addr::AddressMapping;

/// How the device issues decoded requests onto its channel datapaths.
///
/// The paper's Table 2 machine is an FR-FCFS, open-adaptive controller;
/// the *reservation* policy approximates it (each request issues onto
/// its channel at arrival, so banks and lanes are reserved in arrival
/// order), while the *queued* policy runs the real per-channel FR-FCFS
/// schedulers from [`crate::scheduler`]. Both drive the same
/// [`crate::channel::Channel`]. EXPERIMENTS.md quantifies where the two
/// diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Issue at arrival, in arrival order (the historical model).
    #[default]
    Reservation,
    /// Sharded per-channel FR-FCFS controllers with the open-adaptive
    /// page policy; posted writes queue and demand reads may jump them.
    Queued,
}

impl BackendKind {
    /// Every backend, in canonical sweep order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reservation, BackendKind::Queued];

    /// Stable CLI / JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reservation => "reservation",
            BackendKind::Queued => "queued",
        }
    }

    /// Parses a CLI / spec-file name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An internally inconsistent [`MemConfig`].
///
/// The decoder derives field widths with `trailing_zeros()`, so any
/// non-power-of-two axis would silently alias: with `channels = 3` every
/// address decodes to channel 0 while capacity still counts three
/// channels, breaking decode injectivity. Validation turns that silent
/// corruption into a loud, typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemConfigError {
    /// A geometry axis that must be a power of two is not.
    NotPowerOfTwo {
        /// Which field (`channels`, `banks_per_rank`, ...).
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Capacity and geometry imply zero rows per bank.
    ZeroRows,
    /// The row buffer cannot hold even one 64-byte block.
    RowBufferTooSmall,
}

impl std::fmt::Display for MemConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemConfigError::NotPowerOfTwo { field, value } => write!(
                f,
                "{field} must be a power of two (got {value}): non-power-of-two \
                 geometries alias in the trailing_zeros address decode"
            ),
            MemConfigError::ZeroRows => {
                write!(
                    f,
                    "geometry implies zero rows per bank (capacity too small)"
                )
            }
            MemConfigError::RowBufferTooSmall => write!(f, "row buffer smaller than a block"),
        }
    }
}

impl std::error::Error for MemConfigError {}

/// Full configuration of the simulated PCM main memory.
///
/// [`MemConfig::table2`] reproduces the paper's machine; builder-style
/// `with_*` methods derive variants (the channel sweep of Figure 5 uses
/// `with_channels`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Total capacity in bytes (Table 2: 8 GB).
    pub capacity_bytes: u64,
    /// Number of independent channels (Table 2: 1 base; 2/4/8 in Figure 5).
    pub channels: usize,
    /// Ranks per channel (Table 2: 2).
    pub ranks_per_channel: usize,
    /// Banks per rank (Table 2: 8).
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes (Table 2: 1 KB).
    pub row_buffer_bytes: u64,
    /// PCM array read latency — row activation into the row buffer
    /// (Table 2: tRCD 60 ns).
    pub t_rcd: Duration,
    /// PCM array write latency — writing a dirty row buffer back to cells
    /// (Table 2: tRP 150 ns; PCM writes happen on dirty-row eviction).
    pub t_rp: Duration,
    /// Column access latency from an open row (Table 2: tCL 13.75 ns).
    pub t_cl: Duration,
    /// Data-bus occupancy per 64-byte burst (Table 2: tBURST 5 ns, which
    /// matches 12.8 GB/s on a 64-bit 800 MHz DDR bus).
    pub t_burst: Duration,
    /// How physical addresses map onto channel/rank/bank/row/column.
    pub mapping: AddressMapping,
    /// Which controller model services requests.
    pub backend: BackendKind,
}

impl MemConfig {
    /// The paper's Table 2 configuration.
    pub fn table2() -> Self {
        MemConfig {
            capacity_bytes: 8 << 30,
            channels: 1,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            row_buffer_bytes: 1024,
            t_rcd: Duration::from_ns(60),
            t_rp: Duration::from_ns(150),
            t_cl: Duration::from_ns_f64(13.75),
            t_burst: Duration::from_ns(5),
            mapping: AddressMapping::RoRaBaChCo,
            backend: BackendKind::Reservation,
        }
    }

    /// Same machine with a different channel count (Figure 5 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or not a power of two.
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(
            channels > 0 && channels.is_power_of_two(),
            "channels must be a power of two"
        );
        self.channels = channels;
        self
    }

    /// Same machine with a different controller model.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Same machine with a different address mapping (ablation).
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Blocks (64 B) per row buffer.
    pub fn blocks_per_row(&self) -> u64 {
        self.row_buffer_bytes / crate::request::BLOCK_BYTES as u64
    }

    /// Total banks across the device.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Rows per bank implied by capacity and geometry.
    pub fn rows_per_bank(&self) -> u64 {
        self.capacity_bytes / (self.total_banks() as u64 * self.row_buffer_bytes)
    }

    /// Validates internal consistency, returning a typed error.
    ///
    /// Every axis the address decoder width-derives must be a power of
    /// two; anything else would alias silently (see [`MemConfigError`]).
    pub fn try_validate(&self) -> Result<(), MemConfigError> {
        let pow2 = |field: &'static str, value: u64| {
            if value > 0 && value.is_power_of_two() {
                Ok(())
            } else {
                Err(MemConfigError::NotPowerOfTwo { field, value })
            }
        };
        pow2("capacity_bytes", self.capacity_bytes)?;
        pow2("row_buffer_bytes", self.row_buffer_bytes)?;
        pow2("channels", self.channels as u64)?;
        pow2("ranks_per_channel", self.ranks_per_channel as u64)?;
        pow2("banks_per_rank", self.banks_per_rank as u64)?;
        if self.rows_per_bank() < 1 {
            return Err(MemConfigError::ZeroRows);
        }
        if self.blocks_per_row() < 1 {
            return Err(MemConfigError::RowBufferTooSmall);
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on an inconsistent geometry; called by
    /// the device constructor. Fallible callers use
    /// [`MemConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometry() {
        let c = MemConfig::table2();
        c.validate();
        assert_eq!(c.blocks_per_row(), 16);
        assert_eq!(c.total_banks(), 16);
        // 8 GB / (16 banks * 1 KB rows) = 512 Ki rows per bank.
        assert_eq!(c.rows_per_bank(), 512 * 1024);
    }

    #[test]
    fn channel_sweep_preserves_capacity() {
        for n in [1usize, 2, 4, 8] {
            let c = MemConfig::table2().with_channels(n);
            c.validate();
            assert_eq!(c.capacity_bytes, 8 << 30);
            assert_eq!(c.channels, n);
        }
    }

    #[test]
    fn burst_matches_bandwidth() {
        // 64 B / 5 ns = 12.8 GB/s, the paper's channel bandwidth.
        let c = MemConfig::table2();
        let bytes_per_sec = 64.0 / (c.t_burst.as_ns_f64() * 1e-9);
        assert!((bytes_per_sec - 12.8e9).abs() < 1e6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_channel_counts() {
        let _ = MemConfig::table2().with_channels(3);
    }

    #[test]
    fn try_validate_rejects_aliasing_geometries() {
        // channels = 3 would put every address on channel 0 while
        // capacity still counts three channels — decode injectivity gone.
        let cfg = MemConfig {
            channels: 3,
            ..MemConfig::table2()
        };
        assert_eq!(
            cfg.try_validate(),
            Err(MemConfigError::NotPowerOfTwo {
                field: "channels",
                value: 3
            })
        );
        for (field, cfg) in [
            (
                "banks_per_rank",
                MemConfig {
                    banks_per_rank: 6,
                    ..MemConfig::table2()
                },
            ),
            (
                "ranks_per_channel",
                MemConfig {
                    ranks_per_channel: 0,
                    ..MemConfig::table2()
                },
            ),
            (
                "row_buffer_bytes",
                MemConfig {
                    row_buffer_bytes: 1000,
                    ..MemConfig::table2()
                },
            ),
        ] {
            match cfg.try_validate() {
                Err(MemConfigError::NotPowerOfTwo { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{field}: expected NotPowerOfTwo, got {other:?}"),
            }
        }
        assert!(MemConfig::table2().try_validate().is_ok());
    }

    #[test]
    fn backend_kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("warp-drive"), None);
        assert_eq!(BackendKind::default(), BackendKind::Reservation);
        let cfg = MemConfig::table2().with_backend(BackendKind::Queued);
        assert_eq!(cfg.backend, BackendKind::Queued);
        cfg.validate();
    }
}
