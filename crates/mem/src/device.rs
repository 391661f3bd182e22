//! The top-level PCM memory device.
//!
//! [`PcmMemory`] combines the timing model (address decode → channel →
//! bank) with a functional backing store of 64-byte blocks, wear tracking,
//! and energy counters. Upper layers use it three ways:
//!
//! * the **plain (unprotected) system** sends LLC misses straight here;
//! * **ObfusMem's memory-side engine** decrypts bus packets, drops dummy
//!   writes before they reach [`PcmMemory::access`], and forwards real
//!   requests;
//! * **Path ORAM** reads and evicts whole tree paths through it.
//!
//! One datapath, two issue policies. Every channel is one
//! [`crate::channel::Channel`] (banks, both lanes, the counters), owned
//! by that channel's queue in the one FR-FCFS controller, a
//! [`ShardedFrFcfs`].
//! [`MemConfig::backend`] picks only how requests reach it:
//!
//! * [`BackendKind::Reservation`] — every request, posted ones too,
//!   issues straight onto its channel at arrival, in arrival order.
//! * [`BackendKind::Queued`] — requests enqueue on the FR-FCFS
//!   controller at class 0. Demand accesses drive their channel until they
//!   complete (other queued work may legally jump them);
//!   [`PcmMemory::access_posted`] work merely enqueues, opening the
//!   reorder window a real controller has. Call
//!   [`PcmMemory::drain_queued`] at end of run to flush posted work.

use obfusmem_sim::hash::FoldMap;
use obfusmem_sim::time::Time;

use obfusmem_obs::metrics::{MetricsNode, Observable};

use crate::addr::{decode, DecodedAddr};
use crate::bank::RowBufferOutcome;
use crate::channel::{BankStats, ChannelAccess, ChannelStats, Lane};
use crate::config::{BackendKind, MemConfig};
use crate::energy::{EnergyModel, WearTracker};
use crate::fault::{DeviceFaultKind, DeviceFaultPlan, DeviceFaultState};
use crate::request::{AccessKind, BlockAddr, BlockData, BLOCK_BYTES};
use crate::scheduler::{Completion, ShardedFrFcfs};

/// Result of a device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// When the access completes (data on the bus / write accepted).
    pub complete_at: Time,
    /// Which channel serviced it.
    pub channel: usize,
    /// Whether the row buffer hit.
    pub row_hit: bool,
}

/// The device-wide flat bank of `channel`'s channel-local bank `bank`
/// (`rank * banks_per_rank + bank`): the bank key of wear and activation
/// accounting, equal to [`DecodedAddr::flat_bank`].
fn flat_bank(cfg: &MemConfig, channel: usize, bank: usize) -> usize {
    channel * cfg.ranks_per_channel * cfg.banks_per_rank + bank
}

/// What the PCM arrays have done: row-granular reads and writes, wear
/// and activations by (device-wide flat bank, row).
#[derive(Debug, Default)]
struct ArrayLedger {
    /// Row activations per (flat bank, row) — the signal a thermal side
    /// channel integrates (ObfusMem paper §6.2).
    activations: FoldMap<(usize, u64), u64>,
    wear: WearTracker,
    reads: u64,
    writes: u64,
}

impl ArrayLedger {
    /// Folds in one serviced access to `row` of flat bank `bank`: a dirty
    /// eviction writes the evicted row's cells, and a row miss activates
    /// (reads) the row.
    fn serviced(
        &mut self,
        bank: usize,
        row: u64,
        outcome: RowBufferOutcome,
        evicted_row: Option<u64>,
    ) {
        if let Some(evicted) = evicted_row {
            self.cell_write(bank, evicted);
        }
        if outcome != RowBufferOutcome::Hit {
            self.reads += 1;
            *self.activations.entry((bank, row)).or_insert(0) += 1;
        }
    }

    /// Folds in one write-back of `row`'s cells in flat bank `bank`.
    fn cell_write(&mut self, bank: usize, row: u64) {
        self.wear.record_write(bank, row);
        self.writes += 1;
    }
}

/// The simulated PCM main memory.
#[derive(Debug)]
pub struct PcmMemory {
    cfg: MemConfig,
    /// Every channel's datapath, behind its FR-FCFS controller; the
    /// reservation policy issues onto the datapaths directly.
    channels: ShardedFrFcfs,
    store: FoldMap<BlockAddr, BlockData>,
    /// Device-fault overlay; `None` (the fault-free default) keeps every
    /// read on the pristine path, byte-identical to pre-fault builds.
    faults: Option<DeviceFaultState>,
    array: ArrayLedger,
    energy: EnergyModel,
}

impl PcmMemory {
    /// Builds the device for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// (see [`MemConfig::validate`]).
    pub fn new(cfg: MemConfig) -> Self {
        PcmMemory {
            channels: ShardedFrFcfs::new(cfg.clone()),
            cfg,
            store: FoldMap::default(),
            faults: None,
            array: ArrayLedger::default(),
            energy: EnergyModel::paper_relative(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Decodes an address under this device's mapping.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        decode(&self.cfg, addr)
    }

    /// Timing access: returns completion time and updates all state.
    ///
    /// Under the queued backend this is a *demand* access: it enqueues
    /// and then drives its channel's scheduler until this request
    /// completes — FR-FCFS may legally service other queued work first.
    pub fn access(&mut self, at: Time, addr: u64, kind: AccessKind) -> AccessResult {
        if self.cfg.backend == BackendKind::Queued {
            return self.access_queued(at, addr, kind);
        }
        let decoded = self.decode(addr);
        let ChannelAccess {
            complete_at,
            outcome,
            evicted_row,
        } = self
            .channels
            .shard_mut(decoded.channel)
            .datapath_mut()
            .access(&self.cfg, at, decoded, kind);
        self.array.serviced(
            decoded.flat_bank(&self.cfg),
            decoded.row,
            outcome,
            evicted_row,
        );
        AccessResult {
            complete_at,
            channel: decoded.channel,
            row_hit: outcome == RowBufferOutcome::Hit,
        }
    }

    /// Batched demand access: issues every address at `at` and returns
    /// each request's completion, index-aligned with `addrs`.
    ///
    /// Reservation backend: equivalent to calling [`PcmMemory::access`]
    /// per address (arrival order). Queued backend: the whole batch is
    /// enqueued *before* any request is driven, so the per-channel
    /// FR-FCFS shards see it at once and exploit bank-level parallelism
    /// — the issue model a co-designed ORAM controller needs (a serial
    /// caller would enqueue-and-drain one request at a time).
    pub fn access_batch(&mut self, at: Time, addrs: &[u64], kind: AccessKind) -> Vec<AccessResult> {
        if self.cfg.backend == BackendKind::Reservation {
            return addrs.iter().map(|&a| self.access(at, a, kind)).collect();
        }
        let q = &mut self.channels;
        let mut members = vec![0usize; self.cfg.channels];
        let mut first = None;
        for &a in addrs {
            let (channel, id) = q.enqueue(at, a, kind, 0);
            first.get_or_insert(id);
            members[channel] += 1;
        }
        let Some(first) = first else {
            return Vec::new();
        };
        // Drive each channel until its batch members complete. Nothing
        // is enqueued meanwhile, so a channel's picks do not depend on
        // when it runs, and each stops at its last member's completion.
        for (channel, &count) in members.iter().enumerate() {
            q.shard_mut(channel).run_until_batch_completed(first, count);
        }
        // The batch's ids are consecutive, so a completion's offset from
        // the first id is its result slot; posted work from other ids
        // falls outside the table (its accounting still happens here).
        let unset = AccessResult {
            complete_at: Time::ZERO,
            channel: usize::MAX,
            row_hit: false,
        };
        let mut results = vec![unset; addrs.len()];
        let mut filled = 0;
        self.collect_queued_events(|channel, c| {
            if let Some(r) = c.id.offset_from(first).and_then(|k| results.get_mut(k)) {
                *r = AccessResult {
                    complete_at: c.at,
                    channel,
                    row_hit: c.row_hit,
                };
                filled += 1;
            }
        });
        assert_eq!(
            filled,
            addrs.len(),
            "a batch request was serviced without a completion record"
        );
        results
    }

    /// Fire-and-forget timing access whose completion nobody waits on
    /// (write-backs, dummy services, posted stores).
    ///
    /// Reservation backend: performed synchronously, bit-identical to
    /// calling [`PcmMemory::access`] and dropping the result. Queued
    /// backend: the request only *enqueues* — later demand accesses may
    /// jump it, which is the reorder window a real FR-FCFS controller
    /// has. Posted work still queued at end of run is flushed by
    /// [`PcmMemory::drain_queued`].
    pub fn access_posted(&mut self, at: Time, addr: u64, kind: AccessKind) {
        if self.cfg.backend == BackendKind::Reservation {
            self.access(at, addr, kind);
        } else {
            self.channels.enqueue(at, addr, kind, 0);
        }
    }

    /// Completes all posted work still queued. No-op on the reservation
    /// backend (nothing is ever left pending there).
    pub fn drain_queued(&mut self) {
        self.channels.run_until(Time::from_ps(u64::MAX));
        self.collect_queued_events(|_, _| {});
    }

    /// Pending queued-backend requests (0 on the reservation backend).
    pub fn pending_requests(&self) -> usize {
        self.channels.queue_depth()
    }

    fn access_queued(&mut self, at: Time, addr: u64, kind: AccessKind) -> AccessResult {
        let (channel, id) = self.channels.enqueue(at, addr, kind, 0);
        self.channels.run_until_completed(channel, id);
        let mut done = None;
        self.collect_queued_events(|_, c| {
            if c.id == id {
                done = Some(c);
            }
        });
        let done =
            done.unwrap_or_else(|| panic!("request {id:?} serviced without a completion record"));
        AccessResult {
            complete_at: done.at,
            channel,
            row_hit: done.row_hit,
        }
    }

    /// Drains scheduler completions and adaptive-close cell writes in
    /// place, folding them into wear, activation, and array-op
    /// accounting and handing each completion to `each`.
    fn collect_queued_events(&mut self, mut each: impl FnMut(usize, Completion)) {
        let (cfg, array) = (&self.cfg, &mut self.array);
        self.channels.drain_completions(|channel, c| {
            array.serviced(
                c.decoded.flat_bank(cfg),
                c.decoded.row,
                c.outcome,
                c.evicted_row,
            );
            each(channel, c);
        });
        self.channels.drain_cell_writes(|channel, bank, row| {
            array.cell_write(flat_bank(cfg, channel, bank), row);
        });
    }

    /// Occupies `channel`'s `lane` for `bytes` of packet traffic.
    pub fn bus_transfer_bytes(&mut self, at: Time, channel: usize, bytes: u64, lane: Lane) -> Time {
        self.channels
            .shard_mut(channel)
            .datapath_mut()
            .bus_transfer_bytes(&self.cfg, at, bytes, lane)
    }

    /// Functional read of a block (zero-filled if never written).
    ///
    /// This is the *corrected* readout: what the array cells hold, after
    /// the ECC margin read a controller performs during recovery. The
    /// fault overlay never touches it — [`PcmMemory::read_block_faulty`]
    /// is the raw, corruptible path demand fills take.
    pub fn read_block(&self, addr: BlockAddr) -> BlockData {
        self.store.get(&addr).copied().unwrap_or([0u8; BLOCK_BYTES])
    }

    /// Functional write of a block.
    pub fn write_block(&mut self, addr: BlockAddr, data: BlockData) {
        self.store.insert(addr, data);
    }

    /// Drops a block from the functional store. Migration and block
    /// retirement evacuate slots with this: a stale copy left behind
    /// would be re-enumerated by a later quarantine walk and migrated
    /// over the live mapping as if it were current data.
    pub fn remove_block(&mut self, addr: BlockAddr) {
        self.store.remove(&addr);
    }

    /// Engages the device-fault overlay. An inactive plan is a no-op, so
    /// unconditional callers stay byte-identical when fault-free.
    pub fn with_fault_plan(mut self, plan: DeviceFaultPlan) -> Self {
        if plan.is_active() {
            self.faults = Some(DeviceFaultState::new(plan));
        }
        self
    }

    /// The fault overlay, when engaged.
    pub fn fault_state(&self) -> Option<&DeviceFaultState> {
        self.faults.as_ref()
    }

    /// Functional read through the fault overlay: the bytes a demand
    /// fill actually observes, plus the fault process that corrupted
    /// them (if any). Without an engaged overlay this is exactly
    /// [`PcmMemory::read_block`].
    pub fn read_block_faulty(&mut self, addr: BlockAddr) -> (BlockData, Option<DeviceFaultKind>) {
        let mut data = self.read_block(addr);
        let kind = match &mut self.faults {
            None => None,
            Some(f) => {
                let d = decode(&self.cfg, addr.as_u64());
                f.corrupt(addr, d.flat_bank(&self.cfg) as u64, d.row, &mut data)
            }
        };
        (data, kind)
    }

    /// Every block address the functional store holds, sorted — the
    /// deterministic enumeration quarantine migration walks (HashMap
    /// iteration order would make migration order, and thus re-encrypt
    /// counters, nondeterministic).
    pub fn stored_addrs(&self) -> Vec<BlockAddr> {
        let mut addrs: Vec<BlockAddr> = self.store.keys().copied().collect();
        addrs.sort_unstable_by_key(|a| a.as_u64());
        addrs
    }

    /// Per-channel statistics: the counters of `channel`'s datapath.
    pub fn channel_stats(&self, channel: usize) -> &ChannelStats {
        self.channels.shard(channel).channel_stats()
    }

    /// Per-bank row-buffer statistics for `channel`, indexed by flat
    /// bank index (`rank * banks_per_rank + bank`).
    pub fn bank_stats(&self, channel: usize) -> &[BankStats] {
        self.channels.shard(channel).bank_stats()
    }

    /// Scheduler statistics when running the queued backend.
    pub fn scheduler_stats(&self) -> Option<crate::scheduler::SchedulerStats> {
        (self.cfg.backend == BackendKind::Queued).then(|| self.channels.stats())
    }

    /// True if `channel` is idle at `now` (no transfer in flight; under
    /// the queued backend also nothing pending).
    pub fn channel_idle_at(&self, channel: usize, now: Time) -> bool {
        self.channels.shard(channel).is_idle_at(now)
    }

    /// Wear tracker (PCM array writes by row).
    pub fn wear(&self) -> &WearTracker {
        &self.array.wear
    }

    /// PCM array operations so far: `(reads, writes)` at row granularity.
    pub fn array_ops(&self) -> (u64, u64) {
        (self.array.reads, self.array.writes)
    }

    /// Array energy consumed so far, under the paper's relative model.
    pub fn array_energy(&self) -> f64 {
        self.energy
            .array_energy(self.array.reads, self.array.writes)
    }

    /// Per-row activation counts (unordered) — input to thermal-channel
    /// analyses: a row activated often runs hot, and ObfusMem does not
    /// relocate data to hide that (paper §6.2).
    pub fn activation_counts(&self) -> Vec<u64> {
        self.array.activations.values().copied().collect()
    }

    /// Number of distinct blocks ever written (functional footprint).
    pub fn blocks_stored(&self) -> usize {
        self.store.len()
    }
}

impl Observable for PcmMemory {
    /// Reports device-level counters (array ops and energy, footprint,
    /// the most-written row's cell writes) plus, per channel, the bus/row-buffer
    /// aggregates and the per-bank row-buffer breakdown (`ch<N>.bank<M>`).
    /// The queued backend additionally reports a `queued` subtree with
    /// the scheduler's reorder/adaptive-close counters and per-channel
    /// queue-depth histograms.
    fn observe(&self, out: &mut MetricsNode) {
        let (array_reads, array_writes) = self.array_ops();
        out.set_counter("array_reads", array_reads);
        out.set_counter("array_writes", array_writes);
        out.set_gauge("array_energy", self.array_energy());
        out.set_counter("blocks_stored", self.blocks_stored() as u64);
        out.set_counter("max_row_writes", self.wear().max_row_writes());
        for ch_index in 0..self.cfg.channels {
            let node = out.child(&format!("ch{ch_index}"));
            let s = self.channel_stats(ch_index);
            node.set_counter("reads", s.reads.get());
            node.set_counter("writes", s.writes.get());
            node.set_counter("row_hits", s.row_hits.get());
            node.set_counter("row_misses_clean", s.row_misses_clean.get());
            node.set_counter("row_misses_dirty", s.row_misses_dirty.get());
            node.set_counter("bus_busy_ps", s.bus_busy_ps.get());
            for (bank_index, b) in self.bank_stats(ch_index).iter().enumerate() {
                // Idle banks stay out of the snapshot so wide geometries
                // don't bury the active ones.
                if b.accesses.get() == 0 {
                    continue;
                }
                let bank = node.child(&format!("bank{bank_index}"));
                bank.set_counter("accesses", b.accesses.get());
                bank.set_counter("row_hits", b.row_hits.get());
                bank.set_counter("row_misses_clean", b.row_misses_clean.get());
                bank.set_counter("row_misses_dirty", b.row_misses_dirty.get());
            }
        }
        if let Some(total) = self.scheduler_stats() {
            let node = out.child("queued");
            node.set_counter("serviced", total.serviced.get());
            node.set_counter("reordered", total.reordered.get());
            node.set_counter("adaptive_closes", total.adaptive_closes.get());
            node.set_counter("row_hits", total.row_hits.get());
            node.set_counter("starvation_promotions", total.starvation_promotions.get());
            for shard in self.channels.shards() {
                let ch = node.child(&format!("ch{}", shard.channel()));
                ch.set_counter("reordered", shard.stats().reordered.get());
                ch.set_counter("adaptive_closes", shard.stats().adaptive_closes.get());
                ch.set_histogram("queue_depth", shard.depth_histogram());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RequestId;
    use obfusmem_testkit as proptest;
    use std::collections::HashMap;

    fn mem() -> PcmMemory {
        PcmMemory::new(MemConfig::table2())
    }

    fn queued_mem() -> PcmMemory {
        PcmMemory::new(MemConfig::table2().with_backend(BackendKind::Queued))
    }

    #[test]
    fn read_latency_matches_table2() {
        let mut m = mem();
        let r = m.access(Time::ZERO, 0, AccessKind::Read);
        // Cold: tRCD + tCL + tBURST = 60 + 13.75 + 5 = 78.75 ns.
        assert_eq!(r.complete_at.as_ps(), 78_750);
        assert!(!r.row_hit);
    }

    #[test]
    fn row_hit_is_fast() {
        let mut m = mem();
        let a = m.access(Time::ZERO, 0, AccessKind::Read);
        let b = m.access(a.complete_at, 64, AccessKind::Read);
        assert!(b.row_hit);
        // Hit: tCL + tBURST = 18.75 ns.
        assert_eq!(b.complete_at.since(a.complete_at).as_ps(), 18_750);
    }

    #[test]
    fn functional_store_round_trips() {
        let mut m = mem();
        let addr = BlockAddr::containing(0x1240);
        assert_eq!(m.read_block(addr), [0u8; 64]);
        let mut data = [0u8; 64];
        data[0] = 0xAB;
        m.write_block(addr, data);
        assert_eq!(m.read_block(addr), data);
    }

    #[test]
    fn batch_issue_overlaps_across_banks() {
        // One batch spanning distinct banks through the queued fabric
        // must finish sooner than the same requests driven one at a time
        // — the bank-level parallelism the ORAM co-design leans on.
        // Table 2 row buffers are 1 KiB, so a 1 KiB stride walks banks.
        let addrs: Vec<u64> = (0..16u64).map(|i| i * 1024).collect();

        let mut batched = queued_mem();
        let results = batched.access_batch(Time::ZERO, &addrs, AccessKind::Read);
        assert_eq!(results.len(), addrs.len());
        let batch_end = results.iter().map(|r| r.complete_at).max().unwrap();

        let mut serial = queued_mem();
        let mut t = Time::ZERO;
        for &a in &addrs {
            t = serial.access(t, a, AccessKind::Read).complete_at;
        }
        assert!(
            batch_end < t,
            "batched issue must overlap banks: {batch_end:?} vs {t:?}"
        );
    }

    #[test]
    fn batch_matches_reservation_fabric_per_request() {
        // On the reservation fabric a batch is defined as the per-address
        // access sequence — exact equivalence, no queue semantics.
        let addrs = [0u64, 64, 1 << 24, (1 << 24) + 64];
        let mut a = mem();
        let batch = a.access_batch(Time::ZERO, &addrs, AccessKind::Read);
        let mut b = mem();
        for (i, &addr) in addrs.iter().enumerate() {
            let r = b.access(Time::ZERO, addr, AccessKind::Read);
            assert_eq!(batch[i].complete_at, r.complete_at);
            assert_eq!(batch[i].row_hit, r.row_hit);
        }
    }

    #[test]
    fn dirty_evictions_accumulate_wear() {
        let mut m = mem();
        let mut t = Time::ZERO;
        // Alternate writes between two rows of the same bank, forcing
        // dirty evictions.
        for i in 0..10 {
            let addr = if i % 2 == 0 { 0u64 } else { 1 << 24 };
            let r = m.access(t, addr, AccessKind::Write);
            t = r.complete_at;
        }
        assert!(
            m.wear().total_writes() >= 8,
            "alternating dirty rows must wear the array"
        );
        let (_, writes) = m.array_ops();
        assert_eq!(writes, m.wear().total_writes());
    }

    #[test]
    fn reads_do_not_wear() {
        let mut m = mem();
        let mut t = Time::ZERO;
        for i in 0..10u64 {
            let r = m.access(t, i * (1 << 24), AccessKind::Read);
            t = r.complete_at;
        }
        assert_eq!(m.wear().total_writes(), 0);
    }

    #[test]
    fn multi_channel_requests_proceed_in_parallel() {
        let cfg = MemConfig::table2().with_channels(4);
        let mut m = PcmMemory::new(cfg);
        // Addresses 0 and 1024 land on channels 0 and 1.
        let a = m.access(Time::ZERO, 0, AccessKind::Read);
        let b = m.access(Time::ZERO, 1024, AccessKind::Read);
        assert_ne!(a.channel, b.channel);
        assert_eq!(
            a.complete_at, b.complete_at,
            "independent channels don't serialize"
        );
    }

    #[test]
    fn channel_idle_tracking() {
        let mut m = mem();
        assert!(m.channel_idle_at(0, Time::ZERO));
        let r = m.access(Time::ZERO, 0, AccessKind::Read);
        assert!(!m.channel_idle_at(0, Time::ZERO));
        assert!(m.channel_idle_at(0, r.complete_at));
    }

    #[test]
    fn snapshot_reports_per_bank_row_buffer_counters() {
        let mut m = mem();
        let a = m.access(Time::ZERO, 0, AccessKind::Read);
        m.access(a.complete_at, 64, AccessKind::Read);
        let mut snap = MetricsNode::new();
        m.observe(&mut snap);
        assert_eq!(snap.counter("ch0.reads"), Some(2));
        assert_eq!(snap.counter("ch0.row_hits"), Some(1));
        let flat = {
            let d = m.decode(0);
            d.rank * m.config().banks_per_rank + d.bank
        };
        assert_eq!(snap.counter(&format!("ch0.bank{flat}.accesses")), Some(2));
        assert_eq!(snap.counter(&format!("ch0.bank{flat}.row_hits")), Some(1));
        assert_eq!(snap.counter("array_reads"), Some(1));
    }

    #[test]
    fn queued_demand_access_matches_reservation_latency() {
        let mut q = queued_mem();
        let r = q.access(Time::ZERO, 0, AccessKind::Read);
        assert_eq!(r.complete_at.as_ps(), 78_750);
        let hit = q.access(r.complete_at, 64, AccessKind::Read);
        assert!(hit.row_hit);
        assert_eq!(hit.complete_at.since(r.complete_at).as_ps(), 18_750);
    }

    #[test]
    fn posted_writes_stay_queued_until_drained() {
        let mut q = queued_mem();
        q.access_posted(Time::ZERO, 0, AccessKind::Write);
        q.access_posted(Time::ZERO, 1 << 24, AccessKind::Write);
        assert_eq!(q.pending_requests(), 2);
        assert_eq!(q.channel_stats(0).writes.get(), 0, "nothing serviced yet");
        q.drain_queued();
        assert_eq!(q.pending_requests(), 0);
        assert_eq!(q.channel_stats(0).writes.get(), 2);
        // The second write evicted the first's dirty row: one cell write.
        assert_eq!(q.wear().total_writes(), 1);
    }

    #[test]
    fn demand_read_can_jump_posted_writes() {
        // Open ROW_A with a demand read; while the bank is busy, post a
        // ROW_B write (older) and then demand-read ROW_A again (newer).
        // When the bank frees both can start at the same instant, so
        // FR-FCFS gives the row hit priority: the demand read jumps the
        // posted write — the reorder window the reservation model lacks.
        let mut q = queued_mem();
        let opener = q.access(Time::ZERO, 0, AccessKind::Read);
        assert_eq!(opener.complete_at.as_ps(), 78_750);
        q.access_posted(Time::from_ps(10_000), 1 << 24, AccessKind::Write);
        let hit = q.access(Time::from_ps(11_000), 64, AccessKind::Read);
        assert!(hit.row_hit, "demand hit must jump the posted miss");
        assert_eq!(q.pending_requests(), 1, "posted write still queued");
        q.drain_queued();
        let stats = q.scheduler_stats().unwrap();
        assert_eq!(stats.reordered.get(), 1);
        assert_eq!(stats.serviced.get(), 3);
    }

    #[test]
    fn queued_observe_reports_scheduler_subtree() {
        let mut q = queued_mem();
        let a = q.access(Time::ZERO, 0, AccessKind::Read);
        q.access(a.complete_at, 64, AccessKind::Read);
        q.drain_queued();
        let mut snap = MetricsNode::new();
        q.observe(&mut snap);
        assert_eq!(snap.counter("queued.serviced"), Some(2));
        assert_eq!(snap.counter("queued.row_hits"), Some(1));
        assert_eq!(snap.counter("queued.reordered"), Some(0));
        assert_eq!(snap.counter("ch0.reads"), Some(2));
        assert!(
            matches!(
                snap.value("queued.ch0.queue_depth"),
                Some(obfusmem_obs::metrics::MetricValue::Histogram(h)) if h.count() == 2
            ),
            "queue-depth histogram must sample each enqueue"
        );
    }

    #[test]
    fn reservation_has_no_queued_subtree() {
        let mut m = mem();
        m.access(Time::ZERO, 0, AccessKind::Read);
        let mut snap = MetricsNode::new();
        m.observe(&mut snap);
        assert!(snap.get_child("queued").is_none());
        assert_eq!(m.pending_requests(), 0);
        assert!(m.scheduler_stats().is_none());
    }

    #[test]
    fn fault_overlay_corrupts_reads_but_not_the_array() {
        let mut m = PcmMemory::new(MemConfig::table2()).with_fault_plan(DeviceFaultPlan::single(
            DeviceFaultKind::BankFail,
            1.0,
            5,
        ));
        let addr = BlockAddr::containing(0x400);
        let data = [0x3Cu8; 64];
        m.write_block(addr, data);
        let (seen, kind) = m.read_block_faulty(addr);
        assert_eq!(kind, Some(DeviceFaultKind::BankFail));
        assert_ne!(seen, data, "dead bank must read as garbage");
        assert_eq!(m.read_block(addr), data, "corrected readout stays pristine");
        let (again, _) = m.read_block_faulty(addr);
        assert_eq!(seen, again, "persistent corruption is stable");
        assert_eq!(m.fault_state().unwrap().injected(), 2);
    }

    #[test]
    fn inactive_plan_leaves_the_device_untouched() {
        let mut m = PcmMemory::new(MemConfig::table2()).with_fault_plan(DeviceFaultPlan::default());
        assert!(m.fault_state().is_none());
        let addr = BlockAddr::containing(0x80);
        m.write_block(addr, [9u8; 64]);
        assert_eq!(m.read_block_faulty(addr), ([9u8; 64], None));
    }

    #[test]
    fn stored_addrs_enumerate_sorted() {
        let mut m = mem();
        for a in [0x1000u64, 0x40, 0x8000, 0x0] {
            m.write_block(BlockAddr::containing(a), [1u8; 64]);
        }
        let addrs: Vec<u64> = m.stored_addrs().iter().map(|a| a.as_u64()).collect();
        assert_eq!(addrs, vec![0x0, 0x40, 0x1000, 0x8000]);
    }

    /// Regression: wear and activations were keyed by `channel * 100 +
    /// rank * banks_per_rank + bank`, so with more than 100 banks per
    /// channel channel 0's rank 6 bank 4 and channel 1's rank 0 bank 0
    /// both got key 100 and shared rows. Keys are now flat banks.
    #[test]
    fn wear_and_activations_keep_wide_channels_apart() {
        for backend in [BackendKind::Reservation, BackendKind::Queued] {
            let cfg = MemConfig {
                ranks_per_channel: 8,
                banks_per_rank: 16,
                ..MemConfig::table2().with_channels(2)
            }
            .with_backend(backend);
            let mut m = PcmMemory::new(cfg.clone());
            let addr = |channel, rank, bank, row| {
                let d = DecodedAddr {
                    channel,
                    rank,
                    bank,
                    row,
                    column: 0,
                };
                crate::addr::encode(&cfg, &d)
            };
            let mut t = Time::ZERO;
            for (channel, rank, bank) in [(0, 6, 4), (1, 0, 0)] {
                // Dirty row 7, then evict it by opening row 9.
                t = m
                    .access(t, addr(channel, rank, bank, 7), AccessKind::Write)
                    .complete_at;
                t = m
                    .access(t, addr(channel, rank, bank, 9), AccessKind::Read)
                    .complete_at;
            }
            assert_eq!(m.wear().total_writes(), 2, "{backend:?}");
            assert_eq!(m.wear().rows_touched(), 2, "{backend:?}");
            assert_eq!(m.wear().max_row_writes(), 1, "{backend:?}");
            assert_eq!(m.activation_counts(), vec![1; 4], "{backend:?}");
        }
    }

    /// Posted work from other ids completes mid-batch: each batch result
    /// must carry its own id's completion, and the posted completions
    /// (and adaptive-close write-backs) must still reach the wear and
    /// activation accounting. The reference drives a bare
    /// [`ShardedFrFcfs`] through the same enqueue/drive sequence.
    #[test]
    fn batch_results_match_their_own_ids_amid_posted_completions() {
        let cfg = MemConfig::table2()
            .with_channels(2)
            .with_backend(BackendKind::Queued);
        // Posted writes dirty four rows across six banks; the read batch
        // then hits some of those rows and conflicts with the others.
        let posted: Vec<u64> = (0..28u64)
            .map(|i| (i % 4) * (1 << 24) + (i % 6) * 1024)
            .collect();
        let batch: Vec<u64> = (0..40u64)
            .map(|i| ((i % 3) + 2) * (1 << 24) / 2 + (i % 8) * 1024 + (i % 5) * 64)
            .collect();
        let at = Time::from_ps(7_000);

        let mut m = PcmMemory::new(cfg.clone());
        let mut reference = ShardedFrFcfs::new(cfg.clone());
        // Four more posted writes arrive long after the batch: they must
        // stay queued, not be dragged through by the batch's driving.
        let late = Time::from_ps(1_000_000_000);
        let posted_at = |i: usize| if i < 24 { Time::ZERO } else { late };
        for (i, &a) in posted.iter().enumerate() {
            m.access_posted(posted_at(i), a, AccessKind::Write);
            reference.enqueue(posted_at(i), a, AccessKind::Write, 0);
        }
        let results = m.access_batch(at, &batch, AccessKind::Read);

        let tags: Vec<_> = batch
            .iter()
            .map(|&a| reference.enqueue(at, a, AccessKind::Read, 0))
            .collect();
        let mut done: HashMap<RequestId, Completion> = HashMap::new();
        let (mut wear, mut activations, mut posted_done) = (0u64, 0u64, 0usize);
        for &(channel, id) in &tags {
            if done.contains_key(&id) {
                continue;
            }
            reference.run_until_completed(channel, id);
            reference.drain_completions(|_, c| {
                wear += u64::from(c.evicted_row.is_some());
                activations += u64::from(c.outcome != RowBufferOutcome::Hit);
                posted_done += usize::from(c.kind == AccessKind::Write);
                done.insert(c.id, c);
            });
            reference.drain_cell_writes(|_, _, _| wear += 1);
        }
        for (r, &(channel, id)) in results.iter().zip(&tags) {
            let c = done[&id];
            assert_eq!(
                *r,
                AccessResult {
                    complete_at: c.at,
                    channel,
                    row_hit: c.row_hit
                },
                "result for {id:?} carries another request's completion"
            );
        }
        assert!(posted_done > 0, "posted writes must complete mid-batch");
        assert_eq!(m.pending_requests(), reference.queue_depth());
        assert_eq!(m.wear().total_writes(), wear);
        assert_eq!(m.activation_counts().iter().sum::<u64>(), activations);
        assert_eq!(m.array_ops(), (activations, wear));
        // Known answers recorded from the full-scan picker.
        assert_eq!(
            (posted_done, wear, activations, m.pending_requests()),
            (24, 12, 30, 4)
        );
    }

    /// Row stride for channel-0/rank-0/bank-0 addresses under Table 2:
    /// 10 column bits + 0 channel bits + 3 bank bits + 1 rank bit.
    const ROW_STRIDE: u64 = 1 << 14;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Differential: on a single-bank, in-order, demand-only
        /// workload the queued backend must be *bit-identical* to the
        /// reservation backend — the queue never holds more than the one
        /// request being serviced, so FR-FCFS degenerates to FCFS, the
        /// adaptive close never fires, and the lane math matches.
        #[test]
        fn queued_matches_reservation_single_bank_in_order(
            ops in proptest::collection::vec((0u64..4, 0u64..16, proptest::bool::ANY), 1..50)
        ) {
            let mut res = PcmMemory::new(MemConfig::table2());
            let mut que = queued_mem();
            let mut t_res = Time::ZERO;
            let mut t_que = Time::ZERO;
            for (row, col, is_write) in ops {
                let addr = row * ROW_STRIDE + col * 64;
                let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                let a = res.access(t_res, addr, kind);
                let b = que.access(t_que, addr, kind);
                proptest::prop_assert_eq!(a, b);
                t_res = a.complete_at;
                t_que = b.complete_at;
            }
            que.drain_queued();
            proptest::prop_assert_eq!(res.array_ops(), que.array_ops());
            proptest::prop_assert_eq!(res.wear().total_writes(), que.wear().total_writes());
            let (rs, qs) = (res.channel_stats(0), que.channel_stats(0));
            proptest::prop_assert_eq!(rs.reads.get(), qs.reads.get());
            proptest::prop_assert_eq!(rs.writes.get(), qs.writes.get());
            proptest::prop_assert_eq!(rs.row_hits.get(), qs.row_hits.get());
            proptest::prop_assert_eq!(rs.row_misses_dirty.get(), qs.row_misses_dirty.get());
        }

        /// Conservation: on arbitrary mixed demand/posted workloads both
        /// backends service every request exactly once — same read and
        /// write counts per channel even when timings diverge.
        #[test]
        fn both_backends_service_every_request_exactly_once(
            ops in proptest::collection::vec(
                (0u64..(1 << 26), proptest::bool::ANY, proptest::bool::ANY, 0u64..2000),
                1..50
            )
        ) {
            let cfg = MemConfig::table2().with_channels(2);
            let mut res = PcmMemory::new(cfg.clone());
            let mut que = PcmMemory::new(cfg.with_backend(BackendKind::Queued));
            for &(addr, is_write, is_posted, at_ns) in &ops {
                let addr = addr & !63;
                let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                let at = Time::from_ps(at_ns * 1000);
                for m in [&mut res, &mut que] {
                    if is_posted {
                        m.access_posted(at, addr, kind);
                    } else {
                        m.access(at, addr, kind);
                    }
                }
            }
            res.drain_queued();
            que.drain_queued();
            proptest::prop_assert_eq!(que.pending_requests(), 0);
            for ch in 0..2 {
                let (rs, qs) = (res.channel_stats(ch), que.channel_stats(ch));
                proptest::prop_assert_eq!(rs.reads.get(), qs.reads.get());
                proptest::prop_assert_eq!(rs.writes.get(), qs.writes.get());
            }
        }

        #[test]
        fn store_behaves_like_a_map(ops in proptest::collection::vec((0u64..1 << 20, 0u8..), 1..64)) {
            let mut m = mem();
            let mut oracle: std::collections::HashMap<u64, [u8; 64]> = Default::default();
            for (addr, byte) in ops {
                let block = BlockAddr::containing(addr);
                let data = [byte; 64];
                m.write_block(block, data);
                oracle.insert(block.as_u64(), data);
            }
            for (addr, data) in oracle {
                proptest::prop_assert_eq!(m.read_block(BlockAddr::containing(addr)), data);
            }
        }
    }
}
