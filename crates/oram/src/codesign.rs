//! Palermo-style ORAM / memory-controller co-design.
//!
//! The serial baseline ([`crate::detailed::DetailedOram`]) pushes a
//! path's `(L+1)·Z` bucket slots through a single controller port and
//! charges everything — bucket reads, write-backs, and (with the chain
//! enabled) every position-map recursion level — to the critical path.
//! That is the strawman the paper's Table 3 compares against.
//!
//! [`CodesignOram`] rebuilds the same access on top of the sharded
//! FR-FCFS backend ([`obfusmem_mem::scheduler::ShardedFrFcfs`], selected
//! via `BackendKind::Queued`) the way Palermo co-designs the protocol
//! with the controller:
//!
//! * **batched issue** — the whole path (data tree *and* every posmap
//!   recursion level) is enqueued as one batch via
//!   [`PcmMemory::access_batch`], so the per-channel/per-bank queues
//!   schedule the slots with bank-level parallelism instead of one
//!   port-serialized request at a time;
//! * **recursion overlap** — posmap levels live in disjoint address
//!   regions (distinct rows/banks), so their path reads overlap the
//!   data-path reads instead of serializing in front of them;
//! * **posted write-backs** — phase-2 eviction writes are posted at the
//!   read barrier and drain in the background, overlapping the *next*
//!   access's reads;
//! * **read barrier before commit** — the barrier is the latest read
//!   completion (a max-fold over the batch's results), and the
//!   functional stash commit/eviction happens only there, so an
//!   out-of-order bucket read can never evict against a stale stash
//!   snapshot. Functionally the controller drives the *same*
//!   [`PathOram`] the serial oracle drives, consuming the same
//!   randomness — logical results are bit-identical by construction.
//!
//! [`CodesignRing`] applies the same treatment to Ring ORAM and adds
//! **early-reshuffle scheduling**: buckets that exhaust their dummy
//! budget are reshuffled as posted background batches overlapping
//! foreground accesses (`overlap = true`), or charged to the critical
//! path (`overlap = false`, the serial strawman) for the A/B the
//! harness and bench report.

use obfusmem_cpu::core::MemoryBackend;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::device::PcmMemory;
use obfusmem_mem::request::{AccessKind, BlockAddr};
use obfusmem_sim::stats::RunningStats;
use obfusmem_sim::time::Time;

use crate::path_oram::{OramConfig, PathOram};
use crate::recursion::{ENTRIES_PER_BLOCK, ON_CHIP_LIMIT};
use crate::ring_oram::{RingConfig, RingOram};
use crate::OramError;

/// Harness-selectable ORAM backend mode (`--oram-mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OramMode {
    /// The paper's fixed 2500 ns model ([`crate::model::OramModel`]) —
    /// the historical default; rows carry no mode id segment.
    #[default]
    Fixed,
    /// The functional Path ORAM through the single-port serialized
    /// controller ([`crate::detailed::DetailedOram`]) with the posmap
    /// recursion chain serialized in front of the data path.
    Serial,
    /// The co-designed controller ([`CodesignOram`]): batched issue
    /// into the sharded FR-FCFS queues, recursion overlap, posted
    /// write-backs.
    Codesign,
}

impl OramMode {
    /// Every mode, in canonical sweep order.
    pub const ALL: [OramMode; 3] = [OramMode::Fixed, OramMode::Serial, OramMode::Codesign];

    /// Stable lowercase name (used in job ids and CLI grids).
    pub fn name(self) -> &'static str {
        match self {
            OramMode::Fixed => "fixed",
            OramMode::Serial => "serial",
            OramMode::Codesign => "codesign",
        }
    }

    /// Parses a mode name as written on the CLI.
    pub fn parse(s: &str) -> Option<OramMode> {
        match s {
            "fixed" => Some(OramMode::Fixed),
            "serial" => Some(OramMode::Serial),
            "codesign" => Some(OramMode::Codesign),
            _ => None,
        }
    }
}

/// The Freecursive-style position-map recursion chain implied by a data
/// geometry: each level packs 16 leaf labels per 64-byte block and the
/// chain shrinks 16× per level until the outermost map fits on chip
/// (mirrors [`crate::recursion::RecursiveOram`]'s construction).
/// Innermost (largest) level first; empty when the data map itself fits
/// on chip.
pub fn posmap_chain(cfg: &OramConfig) -> Vec<OramConfig> {
    let mut chain = Vec::new();
    let mut map_entries = cfg.blocks;
    while map_entries > ON_CHIP_LIMIT {
        let map_blocks = map_entries.div_ceil(ENTRIES_PER_BLOCK);
        let levels = (64 - (map_blocks / 2).max(1).leading_zeros()).max(3);
        chain.push(OramConfig {
            levels,
            bucket_size: 4,
            blocks: map_blocks,
        });
        map_entries = map_blocks;
    }
    chain
}

/// Root-to-leaf node indices of `leaf`'s path in a tree of `levels`
/// edge-levels (standalone so the timing overlay can walk posmap-level
/// trees that exist only as geometry).
pub(crate) fn path_nodes(levels: u32, leaf: u64) -> Vec<u64> {
    let mut nodes = Vec::with_capacity(levels as usize + 1);
    let mut node = (1u64 << levels) - 1 + leaf;
    loop {
        nodes.push(node);
        if node == 0 {
            break;
        }
        node = (node - 1) / 2;
    }
    nodes.reverse();
    nodes
}

/// Disjoint physical base addresses for the data tree and each posmap
/// level, row-aligned so recursion levels land in their own rows/banks.
pub(crate) fn region_bases(data: &OramConfig, chain: &[OramConfig]) -> Vec<u64> {
    const ROW: u64 = 1024;
    let mut bases = Vec::with_capacity(chain.len() + 1);
    let mut next = 0u64;
    let push = |cfg: &OramConfig, next: &mut u64| {
        let base = *next;
        let bytes = cfg.physical_slots() * 64;
        *next = (*next + bytes).div_ceil(ROW) * ROW;
        base
    };
    bases.push(push(data, &mut next));
    for cfg in chain {
        bases.push(push(cfg, &mut next));
    }
    bases
}

/// Path ORAM over the sharded FR-FCFS backend, co-designed with the
/// controller (see the module docs for the four mechanisms).
#[derive(Debug)]
pub struct CodesignOram {
    oram: PathOram,
    mem: PcmMemory,
    chain: Vec<OramConfig>,
    /// `bases[0]` is the data tree; `bases[1..]` the posmap levels.
    bases: Vec<u64>,
    /// The stash/commit port: the functional update serializes here,
    /// but it frees at the *read* barrier — write-backs are posted.
    port_free: Time,
    latency: RunningStats,
    reads_issued: u64,
    writes_posted: u64,
}

impl CodesignOram {
    /// Builds the co-designed controller. The memory configuration is
    /// forced onto the queued backend — batched issue into per-bank
    /// queues is the point of the co-design.
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::BadConfig`] from the ORAM geometry.
    pub fn new(cfg: OramConfig, mem_cfg: MemConfig, seed: u64) -> Result<Self, OramError> {
        let chain = posmap_chain(&cfg);
        let bases = region_bases(&cfg, &chain);
        Ok(CodesignOram {
            oram: PathOram::new(cfg, seed)?,
            mem: PcmMemory::new(mem_cfg.with_backend(BackendKind::Queued)),
            chain,
            bases,
            port_free: Time::ZERO,
            latency: RunningStats::new(),
            reads_issued: 0,
            writes_posted: 0,
        })
    }

    /// The functional ORAM (metrics, stash, invariants) — the same type
    /// the serial oracle drives.
    pub fn oram(&self) -> &PathOram {
        &self.oram
    }

    /// The PCM device (wear, energy, scheduler stats).
    pub fn memory(&self) -> &PcmMemory {
        &self.mem
    }

    /// Posmap recursion levels overlapped with the data path.
    pub fn chain_depth(&self) -> usize {
        self.chain.len()
    }

    /// Mean measured latency of a logical access, ns (the read barrier;
    /// write-backs drain in the background).
    pub fn mean_access_ns(&self) -> f64 {
        self.latency.mean()
    }

    /// Latency distribution statistics.
    pub fn latency_stats(&self) -> &RunningStats {
        &self.latency
    }

    /// Physical reads issued / write-backs posted so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads_issued, self.writes_posted)
    }

    /// Flushes write-backs still posted in the queues (end of run, or
    /// before reading wear/energy off the device).
    pub fn drain_posted(&mut self) {
        self.mem.drain_queued();
    }

    /// Performs one timed logical access; returns when the data is
    /// served (the phase-1 read barrier).
    fn timed_access(&mut self, at: Time, logical_block: u64) -> Time {
        let start = at.max(self.port_free);

        // Functional access (remap, path read, serve, evict) — atomic at
        // the barrier, same randomness as the serial oracle. Callers
        // reduce ids modulo `blocks`, so a failure can only mean stash
        // overflow under a hard bound — degrade to an untimed no-op.
        let Ok(batch) = self.oram.access_path_concurrent(logical_block, None) else {
            return start;
        };

        // Assemble the whole batch: data path plus one path per posmap
        // recursion level (the level's leaf is derived from the observed
        // data leaf, so the overlay is deterministic).
        let mut addrs = batch.slot_addrs;
        for (k, ccfg) in self.chain.iter().enumerate() {
            let base = self.bases[k + 1];
            let leaf = batch.leaf % (1u64 << ccfg.levels);
            for node in path_nodes(ccfg.levels, leaf) {
                for slot in 0..ccfg.bucket_size {
                    addrs.push(base + (node * ccfg.bucket_size as u64 + slot as u64) * 64);
                }
            }
        }

        // Phase 1: batched issue into the per-bank queues; the latest
        // read completion is the barrier the stash commit waits on.
        let reads_done = self
            .mem
            .access_batch(start, &addrs, AccessKind::Read)
            .iter()
            .fold(start, |t, r| t.max(r.complete_at));
        self.reads_issued += addrs.len() as u64;

        // Phase 2: write-backs are posted at the barrier and drain in
        // the background — the next access's reads overlap them in the
        // queues.
        for &a in &addrs {
            self.mem.access_posted(reads_done, a, AccessKind::Write);
        }
        self.writes_posted += addrs.len() as u64;

        self.port_free = reads_done;
        self.latency.record(reads_done.since(start).as_ns_f64());
        reads_done
    }
}

impl MemoryBackend for CodesignOram {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        let id = addr.index() % self.oram.config().blocks;
        self.timed_access(at, id)
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        let id = addr.index() % self.oram.config().blocks;
        self.timed_access(at, id);
    }

    fn label(&self) -> String {
        format!(
            "path-oram codesign (L={}, Z={}, {} posmap levels overlapped)",
            self.oram.config().levels,
            self.oram.config().bucket_size,
            self.chain.len()
        )
    }
}

/// Ring ORAM with co-designed scheduling: online reads are batched into
/// the queues, and early reshuffles / amortized evictions either overlap
/// foreground accesses as posted background batches (`overlap = true`)
/// or serialize on the port (`overlap = false`, the strawman).
#[derive(Debug)]
pub struct CodesignRing {
    ring: RingOram,
    mem: PcmMemory,
    overlap: bool,
    port_free: Time,
    latency: RunningStats,
    background_blocks: u64,
}

impl CodesignRing {
    /// Builds the timed Ring controller (queued fabric either way — the
    /// A/B isolates the *scheduling* of reshuffles, not the backend).
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::BadConfig`] from the Ring geometry.
    pub fn new(
        cfg: RingConfig,
        mem_cfg: MemConfig,
        seed: u64,
        overlap: bool,
    ) -> Result<Self, OramError> {
        Ok(CodesignRing {
            ring: RingOram::new(cfg, seed)?,
            mem: PcmMemory::new(mem_cfg.with_backend(BackendKind::Queued)),
            overlap,
            port_free: Time::ZERO,
            latency: RunningStats::new(),
            background_blocks: 0,
        })
    }

    /// The functional Ring ORAM.
    pub fn ring(&self) -> &RingOram {
        &self.ring
    }

    /// Mean measured foreground latency of a logical access, ns.
    pub fn mean_access_ns(&self) -> f64 {
        self.latency.mean()
    }

    /// Slots moved by background (reshuffle + eviction) batches.
    pub fn background_blocks(&self) -> u64 {
        self.background_blocks
    }

    /// Performs one timed logical read; returns the data and its serve
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates functional errors ([`OramError::BlockOutOfRange`],
    /// [`OramError::StashOverflow`]).
    pub fn timed_read(
        &mut self,
        at: Time,
        id: u64,
    ) -> Result<(obfusmem_mem::request::BlockData, Time), OramError> {
        let start = at.max(self.port_free);
        let accesses = self.ring.metrics().accesses as usize;
        let batch = self.ring.access_path_concurrent(id, None)?;
        let span = self.ring.config().z + self.ring.config().s;

        // Online phase: one slot per bucket (the slot rotates with the
        // access counter — deterministic, spread over the bucket's rows).
        let online: Vec<u64> = batch
            .online_nodes
            .iter()
            .map(|&n| self.ring.slot_address(n, (accesses + n as usize) % span))
            .collect();
        let mut barrier = start;
        for r in self.mem.access_batch(start, &online, AccessKind::Read) {
            barrier = barrier.max(r.complete_at);
        }

        // Background work: every reshuffled bucket rewrites z + s slots;
        // every evicted path sweeps z + s slots per bucket.
        let mut bg = Vec::new();
        for &node in &batch.reshuffled_nodes {
            for slot in 0..span {
                bg.push(self.ring.slot_address(node, slot));
            }
        }
        for &leaf in &batch.evicted_leaves {
            for node in self.ring.tree().path_nodes(leaf) {
                for slot in 0..span {
                    bg.push(self.ring.slot_address(node, slot));
                }
            }
        }
        self.background_blocks += 2 * bg.len() as u64;

        let port_free = if self.overlap {
            // Early-reshuffle scheduling: post the batch at the barrier;
            // it contends in the queues but never holds the port.
            for &a in &bg {
                self.mem.access_posted(barrier, a, AccessKind::Read);
            }
            for &a in &bg {
                self.mem.access_posted(barrier, a, AccessKind::Write);
            }
            barrier
        } else {
            // Serial strawman: the port blocks until the reshuffle and
            // eviction sweeps complete.
            let mut reads_done = barrier;
            for r in self.mem.access_batch(barrier, &bg, AccessKind::Read) {
                reads_done = reads_done.max(r.complete_at);
            }
            let mut writes_done = reads_done;
            for r in self.mem.access_batch(reads_done, &bg, AccessKind::Write) {
                writes_done = writes_done.max(r.complete_at);
            }
            writes_done
        };

        self.port_free = port_free;
        self.latency.record(port_free.since(start).as_ns_f64());
        Ok((batch.data, barrier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detailed::DetailedOram;
    use obfusmem_sim::rng::SplitMix64;

    fn cfg(levels: u32) -> OramConfig {
        OramConfig {
            levels,
            bucket_size: 4,
            blocks: (4u64 << levels) / 4,
        }
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in OramMode::ALL {
            assert_eq!(OramMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(OramMode::parse("bogus"), None);
        assert_eq!(OramMode::default(), OramMode::Fixed);
    }

    #[test]
    fn posmap_chain_shrinks_to_on_chip() {
        let chain = posmap_chain(&cfg(12)); // 4096 blocks
        assert!(!chain.is_empty(), "4096-entry map cannot fit on chip");
        for w in chain.windows(2) {
            assert!(w[1].blocks < w[0].blocks, "chain must shrink");
        }
        assert!(chain.last().unwrap().blocks <= ON_CHIP_LIMIT);
        // A tiny map needs no off-chip recursion at all.
        assert!(posmap_chain(&OramConfig {
            levels: 6,
            bucket_size: 4,
            blocks: 200,
        })
        .is_empty());
    }

    #[test]
    fn regions_are_disjoint() {
        let data = cfg(12);
        let chain = posmap_chain(&data);
        let bases = region_bases(&data, &chain);
        let mut prev_end = 0u64;
        for (i, &base) in bases.iter().enumerate() {
            assert!(base >= prev_end, "region {i} overlaps its predecessor");
            let c = if i == 0 { &data } else { &chain[i - 1] };
            prev_end = base + c.physical_slots() * 64;
        }
    }

    /// The acceptance criterion's differential: the co-designed
    /// controller drives the same functional ORAM as the serial oracle,
    /// so the same seed and access stream yield bit-identical logical
    /// state (stash, posmap, tree — compared via the metrics and a full
    /// read-back).
    #[test]
    fn codesign_is_bit_identical_to_serial_oracle() {
        let geometry = cfg(10);
        let mem = MemConfig::table2();
        let mut serial = DetailedOram::new(geometry, mem.clone(), 42).unwrap();
        let mut codesign = CodesignOram::new(geometry, mem, 42).unwrap();
        let mut rng = SplitMix64::new(9);
        let mut ts = Time::ZERO;
        let mut tc = Time::ZERO;
        for _ in 0..300 {
            let id = rng.below(geometry.blocks);
            ts = MemoryBackend::read(&mut serial, ts, BlockAddr::from_index(id));
            tc = MemoryBackend::read(&mut codesign, tc, BlockAddr::from_index(id));
        }
        let (a, b) = (serial.oram().metrics(), codesign.oram().metrics());
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.blocks_read, b.blocks_read);
        assert_eq!(a.blocks_written, b.blocks_written);
        assert_eq!(a.dummy_writes, b.dummy_writes);
        assert_eq!(a.stash_high_water, b.stash_high_water);
        serial.oram().check_invariants().unwrap();
        codesign.oram().check_invariants().unwrap();
    }

    /// Ordering invariance: however the queued fabric reorders the
    /// phase-1 bucket reads (different channel counts produce different
    /// physical orders), the functional result is identical because the
    /// stash commit happens at the barrier.
    #[test]
    fn out_of_order_reads_never_evict_against_stale_stash() {
        let geometry = cfg(10);
        let runs: Vec<u64> = [1usize, 2, 4]
            .into_iter()
            .map(|channels| {
                let mem = MemConfig::table2().with_channels(channels);
                let mut o = CodesignOram::new(geometry, mem, 77).unwrap();
                let mut rng = SplitMix64::new(5);
                let mut t = Time::ZERO;
                for _ in 0..200 {
                    t = MemoryBackend::read(&mut o, t, BlockAddr::from_index(rng.below(1024)));
                }
                o.oram().check_invariants().unwrap();
                // Functional fingerprint: stash high water + blocks moved.
                o.oram().metrics().blocks_read
                    + o.oram().metrics().blocks_written * 1_000_003
                    + o.oram().metrics().stash_high_water as u64 * 1_000_000_007
            })
            .collect();
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "physical reorder must not leak into functional state: {runs:?}"
        );
    }

    #[test]
    fn codesign_is_faster_than_serial_on_the_same_stream() {
        let geometry = cfg(12);
        let mem = MemConfig::table2().with_channels(2);
        let mut serial = DetailedOram::new(geometry, mem.clone(), 3)
            .unwrap()
            .with_posmap_chain();
        let mut codesign = CodesignOram::new(geometry, mem, 3).unwrap();
        let mut rng = SplitMix64::new(11);
        let mut ts = Time::ZERO;
        let mut tc = Time::ZERO;
        for _ in 0..100 {
            let id = rng.below(4096);
            ts = MemoryBackend::read(&mut serial, ts, BlockAddr::from_index(id));
            tc = MemoryBackend::read(&mut codesign, tc, BlockAddr::from_index(id));
        }
        assert!(
            codesign.mean_access_ns() * 1.2 < serial.mean_access_ns(),
            "co-design must beat the serialized port: {} vs {} ns",
            codesign.mean_access_ns(),
            serial.mean_access_ns()
        );
    }

    #[test]
    fn codesign_timing_is_deterministic() {
        let run = || {
            let mut o = CodesignOram::new(cfg(10), MemConfig::table2(), 21).unwrap();
            let mut rng = SplitMix64::new(2);
            let mut t = Time::ZERO;
            for _ in 0..120 {
                t = MemoryBackend::read(&mut o, t, BlockAddr::from_index(rng.below(1024)));
            }
            (t, o.mean_access_ns().to_bits())
        };
        assert_eq!(run(), run());
    }

    /// Everything a co-designed run leaves behind that depends on the
    /// controller's picks: timing, traffic, device accounting, and the
    /// scheduler counters.
    fn codesign_fingerprint(channels: usize) -> [u64; 13] {
        let mem = MemConfig::table2().with_channels(channels);
        let mut o = CodesignOram::new(cfg(12), mem, 1234).unwrap();
        let mut rng = SplitMix64::new(99);
        let mut t = Time::ZERO;
        for i in 0..400u64 {
            let addr = BlockAddr::from_index(rng.below(4096));
            if i % 3 == 2 {
                MemoryBackend::write(&mut o, t, addr);
            } else {
                t = MemoryBackend::read(&mut o, t, addr);
            }
        }
        o.drain_posted();
        let (reads, writes) = o.traffic();
        let m = o.memory();
        let (array_reads, array_writes) = m.array_ops();
        let s = m.scheduler_stats().unwrap();
        [
            t.as_ps(),
            o.mean_access_ns().to_bits(),
            reads,
            writes,
            array_reads,
            array_writes,
            m.wear().total_writes(),
            m.activation_counts().iter().sum(),
            s.serviced.get(),
            s.reordered.get(),
            s.adaptive_closes.get(),
            s.row_hits.get(),
            s.starvation_promotions.get(),
        ]
    }

    /// Known answers recorded from the full-scan FR-FCFS picker at L=12:
    /// a faster picker must reproduce every pick, so every completion
    /// time, device count and scheduler counter stays put.
    #[test]
    fn codesign_known_answers_at_l12() {
        assert_eq!(
            codesign_fingerprint(1),
            [
                561_470_000,
                4_653_888_243_382_825_783,
                35_200,
                35_200,
                9_384,
                7_031,
                7_031,
                9_384,
                70_400,
                3_432,
                8_246,
                61_016,
                0,
            ]
        );
        assert_eq!(
            codesign_fingerprint(2),
            [
                394_832_500,
                4_651_893_674_314_458_720,
                35_200,
                35_200,
                8_103,
                6_541,
                6_541,
                8_103,
                70_400,
                1_432,
                6_093,
                62_297,
                0,
            ]
        );
    }

    use obfusmem_testkit as proptest;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        /// Differential: the concurrent entry point must return the same
        /// logical read/write results as the plain serial API for any
        /// op stream, leaving the position map consistent after every
        /// reshuffle (checked via invariants + full read-back).
        #[test]
        fn concurrent_path_matches_serial_functional_oram(
            seed: u64,
            ops in proptest::collection::vec(
                (0u64..100, proptest::option::of(0u8..)), 1..120)
        ) {
            let geometry = OramConfig { levels: 5, bucket_size: 4, blocks: 100 };
            let mut serial = PathOram::new(geometry, seed).unwrap();
            let mut concurrent = PathOram::new(geometry, seed).unwrap();
            for (id, write) in ops {
                let data = write.map(|b| [b; 64]);
                let batch = concurrent.access_path_concurrent(id, data).unwrap();
                let want = match data {
                    Some(d) => {
                        serial.write(id, d).unwrap();
                        continue;
                    }
                    None => serial.read(id).unwrap(),
                };
                proptest::prop_assert_eq!(batch.data, want);
                proptest::prop_assert_eq!(
                    batch.slot_addrs.len(),
                    (geometry.levels as usize + 1) * geometry.bucket_size
                );
            }
            serial.check_invariants().unwrap();
            concurrent.check_invariants().unwrap();
            for id in 0..100 {
                proptest::prop_assert_eq!(serial.read(id).unwrap(), concurrent.read(id).unwrap());
            }
        }

        /// Differential: the timed co-designed Ring controller serves the
        /// same data as the untimed serial Ring ORAM for the same seed,
        /// across early reshuffles and amortized evictions.
        #[test]
        fn codesign_ring_matches_serial_ring(
            seed: u64,
            ids in proptest::collection::vec(0u64..200, 1..150)
        ) {
            let rcfg = RingConfig {
                levels: 6,
                z: 4,
                s: 5,
                a: 4,
                blocks: 200,
                xor_technique: true,
            };
            let mut serial = RingOram::new(rcfg, seed).unwrap();
            let mut timed = CodesignRing::new(rcfg, MemConfig::table2(), seed, true).unwrap();
            let mut t = Time::ZERO;
            for id in ids {
                let want = serial.read(id).unwrap();
                let (got, at) = timed.timed_read(t, id).unwrap();
                proptest::prop_assert_eq!(got, want);
                t = at;
            }
            proptest::prop_assert_eq!(
                serial.metrics().reshuffle_blocks,
                timed.ring().metrics().reshuffle_blocks
            );
            serial.check_invariants().unwrap();
            timed.ring().check_invariants().unwrap();
        }
    }

    #[test]
    fn ring_overlap_beats_serial_reshuffles() {
        let rcfg = RingConfig {
            levels: 8,
            z: 4,
            s: 6,
            a: 4,
            blocks: 500,
            xor_technique: true,
        };
        let mem = MemConfig::table2().with_channels(2);
        let mut serial = CodesignRing::new(rcfg, mem.clone(), 7, false).unwrap();
        let mut overlap = CodesignRing::new(rcfg, mem, 7, true).unwrap();
        let mut rng = SplitMix64::new(13);
        let mut ts = Time::ZERO;
        let mut to = Time::ZERO;
        for _ in 0..300 {
            let id = rng.below(500);
            let (ds, ns) = serial.timed_read(ts, id).unwrap();
            let (do_, no) = overlap.timed_read(to, id).unwrap();
            assert_eq!(ds, do_, "functional results must match");
            ts = ns;
            to = no;
        }
        assert!(
            serial.background_blocks() > 0,
            "the stream must trigger reshuffles/evictions"
        );
        assert!(
            overlap.mean_access_ns() * 1.5 < serial.mean_access_ns(),
            "early-reshuffle overlap must pay: {} vs {} ns",
            overlap.mean_access_ns(),
            serial.mean_access_ns()
        );
    }
}
