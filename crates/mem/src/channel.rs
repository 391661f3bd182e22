//! The channel datapath: banks behind a shared data bus.
//!
//! Each channel owns `ranks × banks` [`Bank`] state machines and one data
//! bus. A request's completion time is bank-ready time plus a tBURST bus
//! reservation; bus contention serializes transfers even when they target
//! different banks, which is what throttles ObfusMem's dummy traffic on a
//! loaded channel.
//!
//! This is the only datapath: both issue policies of
//! [`crate::device::PcmMemory`] put their requests onto a [`Channel`],
//! the synchronous one at arrival and the FR-FCFS controller of
//! [`crate::scheduler`] when its pick issues.

use obfusmem_sim::stats::Counter;
use obfusmem_sim::time::Time;

use crate::addr::DecodedAddr;
use crate::bank::{Bank, RowBufferOutcome};
use crate::config::MemConfig;
use crate::request::AccessKind;

/// Which link lane a packet travels on. Packetized stacked-memory
/// interfaces (HMC/HBM-class, the paper's §2.2 context) have separate
/// request (processor→memory) and response (memory→processor) lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Processor → memory (requests, write data, dummy packets).
    Request,
    /// Memory → processor (read replies, dummy-read replies).
    Response,
}

/// Statistics one channel accumulates.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Reads serviced (including ObfusMem dummy reads — they occupy the
    /// bus like any other read).
    pub reads: Counter,
    /// Writes serviced and applied.
    pub writes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses with clean eviction.
    pub row_misses_clean: Counter,
    /// Row-buffer misses that wrote dirty data to PCM cells.
    pub row_misses_dirty: Counter,
    /// Total bus busy time (ps) for utilization reporting.
    pub bus_busy_ps: Counter,
}

/// Per-bank row-buffer statistics — the bank-scheduler view the channel
/// aggregate hides. Locality (and therefore obfuscation-induced row
/// thrashing) is a per-bank phenomenon, so the observability snapshot
/// reports these alongside [`ChannelStats`].
#[derive(Debug, Clone, Default)]
pub struct BankStats {
    /// Accesses serviced by this bank (reads + writes).
    pub accesses: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses with clean eviction.
    pub row_misses_clean: Counter,
    /// Row-buffer misses that wrote dirty data to PCM cells.
    pub row_misses_dirty: Counter,
}

/// Result of a channel access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelAccess {
    /// When the data transfer completes.
    pub complete_at: Time,
    /// Row-buffer outcome at the target bank.
    pub outcome: RowBufferOutcome,
    /// Row whose PCM cells were written by a dirty eviction, if any.
    pub evicted_row: Option<u64>,
}

/// One memory channel.
#[derive(Debug)]
pub struct Channel {
    banks: Vec<Bank>,
    request_lane_free: Time,
    response_lane_free: Time,
    stats: ChannelStats,
    bank_stats: Vec<BankStats>,
}

impl Channel {
    /// Creates a channel for `cfg` (banks = ranks × banks_per_rank).
    pub fn new(cfg: &MemConfig) -> Self {
        Channel {
            banks: (0..cfg.ranks_per_channel * cfg.banks_per_rank)
                .map(|_| Bank::new())
                .collect(),
            request_lane_free: Time::ZERO,
            response_lane_free: Time::ZERO,
            stats: ChannelStats::default(),
            bank_stats: vec![BankStats::default(); cfg.ranks_per_channel * cfg.banks_per_rank],
        }
    }

    /// True if the channel has no transfer in flight on either lane.
    pub fn is_idle_at(&self, now: Time) -> bool {
        self.request_lane_free <= now && self.response_lane_free <= now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Per-bank row-buffer statistics, indexed by flat bank index
    /// (`rank * banks_per_rank + bank`).
    pub fn bank_stats(&self) -> &[BankStats] {
        &self.bank_stats
    }

    /// The bank at channel-local flat index `index` (`rank *
    /// banks_per_rank + bank`).
    pub(crate) fn bank(&self, index: usize) -> &Bank {
        &self.banks[index]
    }

    /// Precharges bank `index` at `at` (the open-adaptive early close),
    /// returning the row whose cells a dirty close wrote back.
    pub(crate) fn close_bank(&mut self, cfg: &MemConfig, index: usize, at: Time) -> Option<u64> {
        let bank = &mut self.banks[index];
        bank.close(cfg, at);
        bank.take_evicted_row()
    }

    /// Occupies a link lane for a transfer of `bytes` (packetized smart
    /// interfaces put commands on the data path, so request packets have
    /// real wire time; tBURST corresponds to one 64-byte block).
    pub fn bus_transfer_bytes(
        &mut self,
        cfg: &MemConfig,
        at: Time,
        bytes: u64,
        lane: Lane,
    ) -> Time {
        let occupancy_ps =
            (cfg.t_burst.as_ps() * bytes).div_ceil(crate::request::BLOCK_BYTES as u64);
        let lane_free = match lane {
            Lane::Request => &mut self.request_lane_free,
            Lane::Response => &mut self.response_lane_free,
        };
        let start = at.max(*lane_free);
        let done = start + obfusmem_sim::time::Duration::from_ps(occupancy_ps);
        *lane_free = done;
        self.stats.bus_busy_ps.add(occupancy_ps);
        done
    }

    /// Services an access whose decoded address targets this channel.
    ///
    /// # Panics
    ///
    /// Panics if the decoded bank index is out of range for the channel
    /// (can only happen if `decoded` came from a different configuration).
    pub fn access(
        &mut self,
        cfg: &MemConfig,
        at: Time,
        decoded: DecodedAddr,
        kind: AccessKind,
    ) -> ChannelAccess {
        let bank_index = decoded.rank * cfg.banks_per_rank + decoded.bank;
        let bank = self
            .banks
            .get_mut(bank_index)
            .unwrap_or_else(|| panic!("bank index {bank_index} out of range"));
        let (bank_done, outcome) = bank.access(cfg, at, decoded.row, kind);
        let evicted_row = bank.take_evicted_row();

        // The data transfer needs its lane: read data returns on the
        // response lane, write data arrives on the request lane.
        let lane_free = match kind {
            AccessKind::Read => &mut self.response_lane_free,
            AccessKind::Write => &mut self.request_lane_free,
        };
        let transfer_start = bank_done.max(*lane_free);
        let complete_at = transfer_start + cfg.t_burst;
        *lane_free = complete_at;

        match kind {
            AccessKind::Read => self.stats.reads.incr(),
            AccessKind::Write => self.stats.writes.incr(),
        }
        let per_bank = &mut self.bank_stats[bank_index];
        per_bank.accesses.incr();
        match outcome {
            RowBufferOutcome::Hit => {
                self.stats.row_hits.incr();
                per_bank.row_hits.incr();
            }
            RowBufferOutcome::MissClean => {
                self.stats.row_misses_clean.incr();
                per_bank.row_misses_clean.incr();
            }
            RowBufferOutcome::MissDirty => {
                self.stats.row_misses_dirty.incr();
                per_bank.row_misses_dirty.incr();
            }
        }
        self.stats.bus_busy_ps.add(cfg.t_burst.as_ps());

        ChannelAccess {
            complete_at,
            outcome,
            evicted_row,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::decode;

    fn cfg() -> MemConfig {
        MemConfig::table2()
    }

    #[test]
    fn sequential_same_row_accesses_hit() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let d0 = decode(&c, 0);
        let d1 = decode(&c, 64);
        let a = ch.access(&c, Time::ZERO, d0, AccessKind::Read);
        let b = ch.access(&c, a.complete_at, d1, AccessKind::Read);
        assert_eq!(a.outcome, RowBufferOutcome::MissClean);
        assert_eq!(b.outcome, RowBufferOutcome::Hit);
        assert!(b.complete_at.since(a.complete_at) < a.complete_at.since(Time::ZERO));
    }

    #[test]
    fn bus_serializes_different_banks() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        // Two different banks, both issued at time zero: the second
        // transfer must wait for the bus.
        let d0 = decode(&c, 0); // bank 0
        let d1 = decode(&c, c.row_buffer_bytes * c.channels as u64); // next bank
        assert_ne!(
            d0.rank * c.banks_per_rank + d0.bank,
            d1.rank * c.banks_per_rank + d1.bank,
            "test addresses must target different banks"
        );
        let a = ch.access(&c, Time::ZERO, d0, AccessKind::Read);
        let b = ch.access(&c, Time::ZERO, d1, AccessKind::Read);
        assert!(
            b.complete_at >= a.complete_at,
            "bus must serialize transfers"
        );
        assert_eq!(b.complete_at.since(a.complete_at), c.t_burst);
    }

    #[test]
    fn idle_detection() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        assert!(ch.is_idle_at(Time::ZERO));
        let a = ch.access(&c, Time::ZERO, decode(&c, 0), AccessKind::Read);
        assert!(!ch.is_idle_at(Time::ZERO));
        assert!(ch.is_idle_at(a.complete_at));
    }

    #[test]
    fn stats_accumulate() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        ch.access(&c, Time::ZERO, decode(&c, 0), AccessKind::Read);
        ch.access(
            &c,
            Time::from_ps(200_000),
            decode(&c, 64),
            AccessKind::Write,
        );
        assert_eq!(ch.stats().reads.get(), 1);
        assert_eq!(ch.stats().writes.get(), 1);
        assert_eq!(ch.stats().row_hits.get(), 1);
        assert_eq!(ch.stats().row_misses_clean.get(), 1);
    }

    #[test]
    fn bank_stats_track_row_buffer_outcomes() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let d0 = decode(&c, 0);
        let a = ch.access(&c, Time::ZERO, d0, AccessKind::Read);
        ch.access(&c, a.complete_at, decode(&c, 64), AccessKind::Read);
        let flat = d0.rank * c.banks_per_rank + d0.bank;
        let bank = &ch.bank_stats()[flat];
        assert_eq!(bank.accesses.get(), 2);
        assert_eq!(bank.row_misses_clean.get(), 1);
        assert_eq!(bank.row_hits.get(), 1);
        let untouched = ch
            .bank_stats()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != flat);
        for (_, s) in untouched {
            assert_eq!(s.accesses.get(), 0);
        }
    }

    #[test]
    fn dirty_eviction_reports_cell_write() {
        let c = cfg();
        let mut ch = Channel::new(&c);
        let w = ch.access(&c, Time::ZERO, decode(&c, 0), AccessKind::Write);
        // Different row, same bank: row N of bank 0 is at stride
        // row_buffer_bytes * channels * ranks * banks... easiest to decode a
        // far-away address and check it shares the bank.
        let far = decode(&c, 1 << 24);
        let near = decode(&c, 0);
        assert_eq!(far.flat_bank(&c), near.flat_bank(&c));
        let r = ch.access(&c, w.complete_at, far, AccessKind::Read);
        assert_eq!(r.outcome, RowBufferOutcome::MissDirty);
        assert!(r.evicted_row.is_some());
    }
}
