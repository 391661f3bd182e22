//! The ObfusMem memory back end: functional crypto + timing, end to end.
//!
//! Implements [`MemoryBackend`] for the trace-driven core at every
//! security level (Figure 4's configurations share this one type):
//!
//! * **Unprotected** — requests go straight to the PCM device; the bus
//!   trace shows plaintext headers and data.
//! * **EncryptOnly** — data at rest is counter-mode encrypted; reads may
//!   pay a counter-cache miss (an extra memory access for the counter
//!   block); addresses still cross the bus in plaintext.
//! * **Obfuscate** — adds the full ObfusMem path: per-channel session
//!   crypto, paired dummies, inter-channel injection. The engines run
//!   *functionally* (real AES on real bytes) for every simulated request,
//!   so the recorded bus trace is genuine ciphertext.
//! * **ObfuscateAuth** — adds MAC generation/verification latency per the
//!   configured scheme.

use obfusmem_cpu::core::MemoryBackend;
use obfusmem_mem::channel::Lane;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::device::{AccessResult, PcmMemory};
use obfusmem_mem::request::{AccessKind, BlockAddr, BlockData};
use obfusmem_obs::metrics::{MetricsNode, Observable};
use obfusmem_obs::trace::{TraceHandle, Track};
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::time::{Duration, Time};

use crate::busmsg::{BusEvent, BusPacket, Direction, GroundTruth, RequestHeader};
use crate::channels::ChannelObfuscator;
use crate::config::{DummyAddressPolicy, MacScheme, ObfusMemConfig, PairingOrder, TypeHiding};
use crate::engine::{ObfuscatedPair, ProcessorEngine};
use crate::link::{DeliveryOutcome, FaultyLink, LinkStats};
use crate::memenc::MemoryEncryption;
use crate::memside::MemoryEngine;
use crate::recovery::{
    IntegrityFault, MigrationRecord, RecoveryArray, RecoveryController, RecoveryError,
};
use crate::session::{ChannelSession, SessionKeyTable};
use crate::tap::BusTapHandle;
use crate::window::{self, Delivery, INJECTED_HEADERS};
use crate::ObfusMemError;

/// Counter-cache hit latency: 5 cycles at 2 GHz (Table 2).
const COUNTER_CACHE_HIT: Duration = Duration::from_ps(2500);

/// Traffic and stall accounting for one run.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Demand fills serviced.
    pub real_reads: u64,
    /// Write-backs serviced.
    pub real_writes: u64,
    /// Paired (same-channel) dummies generated.
    pub paired_dummies: u64,
    /// Inter-channel dummy pairs injected (§3.4).
    pub channel_dummies: u64,
    /// Counter-cache misses (each cost an extra memory access).
    pub counter_misses: u64,
    /// Total pad-buffer stall time, ps.
    pub pad_stall_ps: u64,
    /// Dummy array writes performed (nonzero only for the
    /// original/random dummy-address ablations).
    pub dummy_array_writes: u64,
    /// Read pairs whose dummy-write slot carried a substituted real
    /// write-back (§3.3's bandwidth optimization).
    pub substituted_pairs: u64,
    /// Dirty counter blocks written back to memory.
    pub counter_writebacks: u64,
}

/// The configurable protected-memory back end.
pub struct ObfusMemBackend {
    cfg: ObfusMemConfig,
    mem: PcmMemory,
    memenc: MemoryEncryption,
    proc: ProcessorEngine,
    mem_engines: Vec<MemoryEngine>,
    chan_obf: ChannelObfuscator,
    stats: BackendStats,
    rng: SplitMix64,
    /// Write-backs waiting for a read to ride with (substitution mode).
    pending_writes: std::collections::VecDeque<BlockAddr>,
    /// Fault-injecting link + recovery protocol. `None` when the fault
    /// plan is all-zero: the engines then talk directly and every code
    /// path is byte-identical to the pre-link backend.
    link: Option<FaultyLink>,
    /// Device-fault recovery controller (retry → resync → bank
    /// quarantine + spare remap). `None` when the device fault plan is
    /// all-zero: reads then skip the ladder entirely and stay
    /// byte-identical to pre-recovery builds.
    recovery: Option<RecoveryController>,
    /// Session-plane steering: `steer[home]` is the channel whose
    /// engines carry `home`'s traffic. Identity until a quarantine
    /// re-steers a channel's traffic onto a healthy one.
    steer: Vec<usize>,
    /// Simulated-time span recorder. Disabled by default; recording is
    /// passive (spans reuse times the timing model already computed),
    /// so traced and untraced runs are bit-identical.
    obs: TraceHandle,
    /// The one bus observer: a streaming tap (the leakage observatory)
    /// or the buffered trace. Disabled by default; when disabled, event
    /// construction is skipped entirely. Observing changes no simulated
    /// state, so results are byte-identical either way.
    tap: BusTapHandle,
}

impl std::fmt::Debug for ObfusMemBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObfusMemBackend")
            .field("security", &self.cfg.security)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ObfusMemBackend {
    /// Builds a backend whose per-channel session keys are derived from
    /// `seed` (the fast path for performance runs; the examples show the
    /// full §3.1 bootstrap producing the same table).
    pub fn new(cfg: ObfusMemConfig, mem_cfg: MemConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0BF5_BACC_E11D_0001);
        let keys: Vec<([u8; 16], u64)> = (0..mem_cfg.channels)
            .map(|_| {
                let mut k = [0u8; 16];
                for chunk in k.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                (k, rng.next_u64())
            })
            .collect();
        Self::with_session_keys(cfg, mem_cfg, keys, rng.next_u64())
    }

    /// Builds a backend from explicitly established channel keys (e.g.
    /// from [`crate::trust::bootstrap_platform`]).
    pub fn with_session_keys(
        cfg: ObfusMemConfig,
        mem_cfg: MemConfig,
        keys: Vec<([u8; 16], u64)>,
        seed: u64,
    ) -> Self {
        assert_eq!(keys.len(), mem_cfg.channels, "one session key per channel");
        let mut rng = SplitMix64::new(seed);
        let proc = ProcessorEngine::new(cfg, SessionKeyTable::new(keys.clone()), rng.next_u64());
        let mem_engines = keys
            .iter()
            .map(|&(k, n)| {
                // One draw per channel, unused: every pinned ciphertext
                // depends on where `enc_key` falls in the stream.
                rng.next_u64();
                MemoryEngine::new(cfg, ChannelSession::new(k, n))
            })
            .collect();
        let mut enc_key = [0u8; 16];
        for chunk in enc_key.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let channels = mem_cfg.channels;
        let link = cfg
            .faults
            .is_active()
            .then(|| FaultyLink::new(cfg.link, cfg.faults, channels));
        let recovery = cfg
            .device_faults
            .is_active()
            .then(|| RecoveryController::new(cfg.recovery, mem_cfg.clone()));
        ObfusMemBackend {
            chan_obf: ChannelObfuscator::new(cfg.channel_strategy),
            cfg,
            mem: PcmMemory::new(mem_cfg).with_fault_plan(cfg.device_faults),
            memenc: MemoryEncryption::new(enc_key),
            proc,
            mem_engines,
            stats: BackendStats::default(),
            rng,
            pending_writes: std::collections::VecDeque::new(),
            link,
            recovery,
            steer: (0..channels).collect(),
            obs: TraceHandle::disabled(),
            tap: BusTapHandle::disabled(),
        }
    }

    /// Installs a span recorder for simulated-time tracing.
    pub fn set_trace_handle(&mut self, obs: TraceHandle) {
        self.obs = obs;
    }

    /// Installs a streaming bus-event tap (the leakage observatory).
    /// Events flow to the tap as they are recorded. The backend has one
    /// bus observer, so this replaces a buffered trace started by
    /// [`Self::enable_trace`].
    pub fn set_bus_tap(&mut self, tap: BusTapHandle) {
        self.tap = tap;
    }

    /// Whether bus events need to be constructed at all.
    fn tracing(&self) -> bool {
        self.tap.is_enabled()
    }

    /// Starts recording bus events into a buffer (for the security
    /// analyses). This replaces any tap installed by
    /// [`Self::set_bus_tap`].
    pub fn enable_trace(&mut self) {
        self.tap = BusTapHandle::buffered();
    }

    /// Takes the recorded trace, leaving recording enabled. Empty when
    /// no buffered trace is attached.
    pub fn take_trace(&mut self) -> Vec<BusEvent> {
        self.tap.take_buffered()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// The underlying memory device (wear, energy, channel stats).
    pub fn memory(&self) -> &PcmMemory {
        &self.mem
    }

    /// Counter-cache hit ratio so far.
    pub fn counter_cache_hit_ratio(&self) -> f64 {
        self.memenc.counter_cache_hit_ratio()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ObfusMemConfig {
        &self.cfg
    }

    /// Link recovery counters, when the fault-injecting link is active.
    pub fn link_stats(&self) -> Option<LinkStats> {
        self.link.as_ref().map(|l| l.stats())
    }

    /// The fault-injecting link itself (health/quarantine diagnostics).
    pub fn link(&self) -> Option<&FaultyLink> {
        self.link.as_ref()
    }

    /// The device-fault recovery controller, when the device fault plan
    /// is active (quarantine/remap/journal diagnostics).
    pub fn recovery(&self) -> Option<&RecoveryController> {
        self.recovery.as_ref()
    }

    /// Channels whose traffic was re-steered away from their home
    /// (nonzero only after a quarantine).
    pub fn resteered_channels(&self) -> usize {
        self.steer
            .iter()
            .enumerate()
            .filter(|&(h, &s)| h != s)
            .count()
    }

    /// True when every healthy channel's processor- and memory-side CTR
    /// counters agree — the shared-counter discipline re-converged
    /// after whatever faults the link injected and repaired.
    ///
    /// Quarantined channels are skipped: they are abandoned
    /// mid-escalation (counters frozen wherever the failure left them)
    /// and carry no traffic, so their divergence is expected.
    pub fn counters_converged(&self) -> bool {
        (0..self.mem_engines.len()).all(|ch| {
            if self.link.as_ref().is_some_and(|l| l.is_quarantined(ch)) {
                return true;
            }
            self.proc
                .counter(ch)
                .is_ok_and(|c| self.mem_engines[ch].counter(0) == Ok(c))
        })
    }

    /// Snapshots every counter in the backend — obfuscation engine,
    /// crypto plane, memory device, and (when active) the
    /// fault-injecting link — into one deterministic metrics tree.
    pub fn observe_metrics(&self, out: &mut MetricsNode) {
        let engine = out.child("engine");
        engine.set_counter("real_reads", self.stats.real_reads);
        engine.set_counter("real_writes", self.stats.real_writes);
        engine.set_counter("paired_dummies", self.stats.paired_dummies);
        engine.set_counter("channel_dummies", self.stats.channel_dummies);
        engine.set_counter("substituted_pairs", self.stats.substituted_pairs);
        engine.set_counter("dummy_array_writes", self.stats.dummy_array_writes);
        engine.set_counter("resteered_channels", self.resteered_channels() as u64);
        let crypto = out.child("crypto");
        crypto.set_counter("pad_stall_ps", self.stats.pad_stall_ps);
        crypto.set_counter("counter_misses", self.stats.counter_misses);
        crypto.set_counter("counter_writebacks", self.stats.counter_writebacks);
        crypto.set_gauge("counter_cache_hit_ratio", self.counter_cache_hit_ratio());
        self.mem.observe(out.child("mem"));
        if let Some(link) = &self.link {
            let node = out.child("link");
            link.observe(node);
            node.set_counter("counters_converged", self.counters_converged() as u64);
        }
        if let Some(rc) = &self.recovery {
            rc.observe(out.child("recovery"));
        }
    }

    /// The bank-level track an address's array accesses land on. Bank
    /// indices are flattened rank-major to match
    /// [`PcmMemory::bank_stats`].
    fn bank_track(&self, addr: u64) -> Track {
        let d = self.mem.decode(addr);
        Track::Bank {
            channel: d.channel,
            bank: d.rank * self.mem.config().banks_per_rank + d.bank,
        }
    }

    fn record(&self, event: BusEvent) {
        self.tap.deliver(&event);
    }

    /// Latency the processor side adds to an outgoing request: the
    /// memory side's XOR + MAC plus any pad-buffer stall.
    fn proc_side_latency(&self, pad_stall_ps: u64) -> Duration {
        self.mem_side_latency() + Duration::from_ps(pad_stall_ps)
    }

    /// Latency the memory side adds before servicing (verify + decrypt).
    fn mem_side_latency(&self) -> Duration {
        let l = &self.cfg.latencies;
        let mut d = l.xor;
        if self.cfg.security.authenticates() {
            d += match self.cfg.mac_scheme {
                MacScheme::EncryptAndMac => l.mac_overlapped_residual,
                MacScheme::EncryptThenMac => l.mac_serialized,
            };
        }
        d
    }

    /// Rounds an issue time up to the next timing slot when the §6.2
    /// fixed-cadence mode is active; identity otherwise.
    fn align_to_slot(&self, t: Time) -> Time {
        match self.cfg.timing {
            crate::config::TimingMode::AsReady => t,
            crate::config::TimingMode::FixedSlots => {
                let slot = crate::config::TIMING_SLOT.as_ps();
                let rem = t.as_ps() % slot;
                if rem == 0 {
                    t
                } else {
                    Time::from_ps(t.as_ps() + slot - rem)
                }
            }
        }
    }

    /// Resolves the counter for `addr`: returns when the decryption *pad*
    /// is available. On a counter-cache hit the pad was pregenerated in
    /// parallel with the data fetch and only the XOR remains (§2.4). On a
    /// miss the counter block must be fetched from memory first and the
    /// AES pipeline can only then start filling — the pad arrives a full
    /// pipeline latency after the counter does.
    fn counter_ready(&mut self, at: Time, addr: u64) -> Time {
        self.counter_ready_op(at, addr, obfusmem_cache::cache::CacheOp::Read)
    }

    fn counter_ready_op(
        &mut self,
        at: Time,
        addr: u64,
        op: obfusmem_cache::cache::CacheOp,
    ) -> Time {
        let lookup = self.memenc.lookup_counter_op(addr, op);
        if let Some(victim) = lookup.victim_writeback {
            // Dirty counter block spills to memory: posted write traffic.
            self.mem.access_posted(at, victim, AccessKind::Write);
            self.stats.counter_writebacks += 1;
        }
        if lookup.hit {
            at + COUNTER_CACHE_HIT
        } else {
            self.stats.counter_misses += 1;
            let fetched = self
                .mem
                .access(at, lookup.counter_block_addr, AccessKind::Read)
                .complete_at;
            fetched + self.cfg.latencies.aes_fill
        }
    }

    /// Services the paired dummy's *array* consequences (§3.3): fixed
    /// dummies were dropped at the memory side (their wire time is already
    /// charged with the request packets); original/random dummies reach
    /// the array — and wear it when the dummy is a write.
    fn service_paired_dummy(&mut self, at: Time, dummy: &RequestHeader) {
        self.stats.paired_dummies += 1;
        match self.cfg.dummy_policy {
            DummyAddressPolicy::Fixed => {}
            DummyAddressPolicy::Original | DummyAddressPolicy::Random => {
                self.mem.access_posted(at, dummy.addr, dummy.kind);
                if dummy.kind == AccessKind::Write {
                    self.stats.dummy_array_writes += 1;
                }
            }
        }
    }

    /// Issues an array write nobody on the critical path waits for.
    ///
    /// Under the reservation backend the write completes synchronously
    /// and its [`AccessResult`] feeds the observability span — byte-for-
    /// byte the historical behavior. Under the queued backend the write
    /// is posted into the per-channel FR-FCFS controller where demand
    /// reads may jump it; its completion time is unknown at issue, so no
    /// span can be recorded (tracing must never change timing).
    fn post_array_write(&mut self, at: Time, addr: u64) -> Option<AccessResult> {
        match self.mem.config().backend {
            BackendKind::Reservation => Some(self.mem.access(at, addr, AccessKind::Write)),
            BackendKind::Queued => {
                self.mem.access_posted(at, addr, AccessKind::Write);
                None
            }
        }
    }

    /// Flushes writes still parked in the queued controller. A no-op for
    /// the reservation backend. [`crate::system::System`] calls this after
    /// the trace-driven core retires so the wear/energy/stat totals cover
    /// every posted write.
    pub fn drain_posted(&mut self) {
        self.mem.drain_queued();
    }

    /// Cross-channel injection (§3.4): dummy pairs are always of the
    /// droppable fixed-address kind. Each pair costs its wire bytes on the
    /// target channel (read packet + write packet + random-data reply).
    fn inject_channels(&mut self, at: Time, real_channel: usize) {
        let idle: Vec<bool> = (0..self.mem.config().channels)
            .map(|c| self.mem.channel_idle_at(c, at))
            .collect();
        // Quarantined channels carry no traffic, dummies included; the
        // all-true mask of the fault-free case reduces to plain `plan`.
        let healthy = match &self.link {
            Some(link) => link.healthy_mask(),
            None => vec![true; idle.len()],
        };
        let plan = self
            .chan_obf
            .plan_with_health(real_channel, &idle, &healthy);
        for ch in plan.inject {
            self.stats.channel_dummies += 1;
            // 24 B dummy-read packet + 88 B dummy-write packet out;
            // 72 B random reply for the dummy read back.
            self.mem.bus_transfer_bytes(at, ch, 24 + 88, Lane::Request);
            self.mem.bus_transfer_bytes(at, ch, 72, Lane::Response);
            self.inject_dummy_pair(at, ch);
        }
    }

    /// Runs an injected dummy pair through both engines. Like any pair it
    /// is encrypted (§3.4), so it uses up a request's pads and both ends'
    /// counters whether or not anyone watches the bus; its packets are
    /// built only for an observer, from the pair's base counter, which
    /// changes no state. Injected dummies bypass the fault-injecting
    /// link: campaigns target demand traffic, and the health-aware
    /// planner never injects on a quarantined channel, so the engines
    /// stay synchronized on this direct path.
    fn inject_dummy_pair(&mut self, at: Time, channel: usize) {
        let pair = self
            .proc
            .inject(at, channel)
            .expect("channel index validated by planner");
        self.mem_engines[channel].drop_injected();
        if !self.tracing() {
            return;
        }
        let packets = self
            .proc
            .injected_packets(channel, &pair)
            .expect("channel index validated by planner");
        for (packet, header) in packets.into_iter().zip(INJECTED_HEADERS) {
            self.record(BusEvent {
                at,
                channel,
                direction: Direction::ToMemory,
                packet,
                truth: GroundTruth {
                    real: false,
                    kind: header.kind,
                    addr: header.addr,
                },
            });
        }
    }

    /// Plaintext-bus trace events for the unprotected/encrypt-only levels.
    fn record_plain(&mut self, at: Time, header: RequestHeader, data: Option<BlockData>) {
        if !self.tracing() {
            return;
        }
        let packet = BusPacket {
            header_ct: header.to_bytes(), // plaintext on the wire
            data_ct: data,
            tag: None,
        };
        self.record(BusEvent {
            at,
            channel: self.mem.decode(header.addr).channel,
            direction: Direction::ToMemory,
            packet,
            truth: GroundTruth {
                real: true,
                kind: header.kind,
                addr: header.addr,
            },
        });
    }

    /// Functional store read through the device-fault recovery ladder.
    ///
    /// With recovery inactive this is exactly `read_block` (byte- and
    /// state-identical to pre-recovery builds). With it active, the
    /// demand readout goes through the fault overlay and is checked
    /// against the block's expected at-rest digest; a mismatch raises a
    /// typed [`IntegrityFault`] and runs the ladder. Returns the
    /// recovered bytes plus the simulated recovery time that extends the
    /// fill's critical path (zero on clean reads).
    fn load_block(&mut self, addr: BlockAddr) -> (BlockData, Duration) {
        if self.recovery.is_none() {
            return (self.mem.read_block(addr), Duration::ZERO);
        }
        let logical = addr.as_u64();
        let rc = self.recovery.as_mut().expect("checked above");
        if rc.is_degraded(logical) {
            // Already declared unrecoverable: serve the corrected
            // readout directly. Re-entering the ladder would re-detect
            // the same permanent fault and re-pay retries + resync on
            // every access while inflating the counters.
            let phys = rc.remap_mut().translate(logical).unwrap_or(logical);
            return (
                self.mem.read_block(BlockAddr::containing(phys)),
                Duration::ZERO,
            );
        }
        let rc = self.recovery.as_mut().expect("checked above");
        let phys = match rc.remap_mut().translate(logical) {
            Ok(p) => p,
            Err(_) => {
                // Spare region exhausted: the untranslated slot sits in
                // a quarantined bank, so the demand path can never
                // verify again. Degrade this block permanently and
                // serve the corrected readout.
                rc.give_up(logical);
                return (
                    self.mem.read_block(BlockAddr::containing(logical)),
                    Duration::ZERO,
                );
            }
        };
        let phys_addr = BlockAddr::containing(phys);
        let (data, observed) = self.mem.read_block_faulty(phys_addr);
        // The corrected (ECC-margin) readout is the detection oracle and
        // recovery ground truth: per-block digests say what the array
        // *should* hold. They stand in for the Merkle tree the paper
        // assumes, which this repo does not model.
        let corrected = self.mem.read_block(phys_addr);
        let rc = self.recovery.as_mut().expect("checked above");
        if rc.verify(logical, &data, &corrected) {
            return (data, Duration::ZERO);
        }
        let flat_bank = {
            let d = self.mem.decode(phys);
            d.flat_bank(self.mem.config()) as u64
        };
        let fault = IntegrityFault {
            addr: logical,
            phys,
            flat_bank,
            observed,
        };
        // An unrecoverable fault degrades to the corrected readout (the
        // run continues, mirroring the link layer's `force_clean`).
        let (rc, mut store) = self.ladder(corrected);
        let delay = rc.recover(&mut store, fault);
        (store.readout, delay)
    }

    /// The recovery controller and the functional store it walks the
    /// ladder over, seeded with the faulting block's corrected readout.
    fn ladder(&mut self, corrected: BlockData) -> (&mut RecoveryController, StoreArray<'_>) {
        let rc = self.recovery.as_mut().expect("recovery active");
        let store = StoreArray {
            mem: &mut self.mem,
            memenc: &mut self.memenc,
            encrypts: self.cfg.security.encrypts_memory(),
            readout: corrected,
        };
        (rc, store)
    }

    /// Functional store write through the quarantine remap (identity
    /// when recovery is inactive), keeping the at-rest digest current.
    fn store_block(&mut self, addr: BlockAddr, data: BlockData) {
        match &mut self.recovery {
            None => self.mem.write_block(addr, data),
            Some(rc) => {
                let logical = addr.as_u64();
                let phys = match rc.remap_mut().translate(logical) {
                    Ok(p) => p,
                    Err(_) => {
                        rc.give_up(logical);
                        logical
                    }
                };
                rc.note_write(logical, &data);
                self.mem.write_block(BlockAddr::containing(phys), data);
            }
        }
    }

    /// Ladder-free translated read of the current stored bytes (trace
    /// bookkeeping only — never advances the fault overlay).
    fn peek_block(&mut self, addr: BlockAddr) -> BlockData {
        match &mut self.recovery {
            None => self.mem.read_block(addr),
            Some(rc) => {
                let phys = rc
                    .remap_mut()
                    .translate(addr.as_u64())
                    .unwrap_or(addr.as_u64());
                self.mem.read_block(BlockAddr::containing(phys))
            }
        }
    }

    /// Memory-encrypts a (synthetic) dirty block for `addr`. The counter
    /// bump dirties the counter block (a write-op lookup).
    fn encrypt_dirty_block(&mut self, at: Time, addr: BlockAddr) -> BlockData {
        let plaintext = window::random_block(&mut self.rng);
        let (at_rest, _) = self.memenc.encrypt_block(addr.as_u64(), &plaintext);
        let _ = self.counter_ready_op(at, addr.as_u64(), obfusmem_cache::cache::CacheOp::Write);
        at_rest
    }

    /// Carries one request from the processor engine to the memory engine
    /// serving `home`. With the fault-injecting link active the delivery
    /// runs the full recovery protocol, re-steering and re-issuing on
    /// quarantine; otherwise the engines talk directly and the outcome's
    /// recovery delay is zero. Returns the channel that carried the
    /// request plus the outcome.
    ///
    /// Termination: each quarantine shrinks the healthy set, and the last
    /// healthy channel refuses quarantine, so the loop is bounded by the
    /// channel count.
    fn deliver(
        &mut self,
        at: Time,
        home: usize,
        delivery: Delivery<'_>,
    ) -> (usize, DeliveryOutcome) {
        let Some(link) = self.link.as_mut() else {
            let pair = self
                .proc
                .obfuscate(at, home, delivery)
                .expect("valid channel");
            let (decoded, companion) = self.mem_engines[home]
                .receive(0, &pair.real, pair.dummy.as_ref())
                .expect("engines synchronized");
            let out = DeliveryOutcome {
                pair,
                decoded,
                companion,
                delay: Duration::ZERO,
            };
            return (home, out);
        };
        let mut ch = self.steer[home];
        loop {
            match link.deliver(at, ch, &mut self.proc, &mut self.mem_engines[ch], delivery) {
                Ok(out) => return (ch, out),
                Err(ObfusMemError::ChannelQuarantined { .. }) => {
                    let healthy = link
                        .first_healthy()
                        .expect("the last healthy channel refuses quarantine");
                    for slot in self.steer.iter_mut() {
                        if link.is_quarantined(*slot) {
                            *slot = healthy;
                        }
                    }
                    ch = self.steer[home];
                }
                Err(e) => unreachable!("link delivery on a valid channel cannot fail: {e}"),
            }
        }
    }

    /// A read reply's round trip: the memory side reads the stored
    /// ciphertext through the device recovery ladder and seals the reply
    /// for whoever reads it. The link carries it back and has the
    /// processor open it; a bus tap records it. With neither, nothing
    /// reads the reply, so it is not sealed (its wire time is charged
    /// all the same). Returns the sealed reply, the device-recovery delay
    /// and the link-recovery delay.
    fn reply(
        &mut self,
        at: Time,
        channel: usize,
        addr: BlockAddr,
        base_counter: u64,
    ) -> (Option<BusPacket>, Duration, Duration) {
        let (at_rest, dev_delay) = self.load_block(addr);
        if self.link.is_none() && !self.tracing() {
            return (None, dev_delay, Duration::ZERO);
        }
        let reply = self.mem_engines[channel]
            .seal_reply(0, base_counter, &at_rest)
            .expect("lane 0");
        let (opened, link_delay) = match self.link.as_mut() {
            Some(link) => link.deliver_reply(at, channel, &self.proc, base_counter, &reply),
            // Only a debug build has the processor open a tapped reply.
            None if cfg!(debug_assertions) => self
                .proc
                .open_reply(channel, base_counter, &reply)
                .map(|block| (block, Duration::ZERO)),
            None => Ok((at_rest, Duration::ZERO)),
        }
        .expect("valid channel");
        debug_assert_eq!(opened, at_rest, "bus round trip must be lossless");
        (Some(reply), dev_delay, link_delay)
    }

    /// The companion half's array step (§3.3), run between the real
    /// array access and injection: a paired dummy is serviced (or
    /// dropped), and a substituted write-back is posted to the array,
    /// returning its address and result for the span.
    fn service_companion(
        &mut self,
        delivery: Delivery<'_>,
        dummy: &RequestHeader,
        at: Time,
    ) -> Option<(u64, AccessResult)> {
        match delivery {
            Delivery::Pair { .. } => {
                self.service_paired_dummy(at, dummy);
                None
            }
            Delivery::Substituted { write, .. } => self
                .post_array_write(at, write.addr)
                .map(|result| (write.addr, result)),
            Delivery::Uniform { .. } => None,
        }
    }

    /// Bus events for one protected request, stamped with its wire time:
    /// the real packet and its companion (a dummy, or a substituted
    /// write), then a read's reply. A write's dummy read goes first (§3.3
    /// read-then-write), so packet order carries no type information.
    fn record_request(
        &mut self,
        at: Time,
        channel: usize,
        delivery: Delivery<'_>,
        pair: &ObfuscatedPair,
        reply: Option<BusPacket>,
    ) {
        let (header, companion) = match delivery {
            Delivery::Pair { header, .. } => (
                header,
                Some(GroundTruth {
                    real: false,
                    kind: pair.dummy_header.kind,
                    addr: pair.dummy_header.addr,
                }),
            ),
            Delivery::Substituted { read, write, .. } => (
                read,
                Some(GroundTruth {
                    real: true,
                    kind: write.kind,
                    addr: write.addr,
                }),
            ),
            Delivery::Uniform { header, .. } => (header, None),
        };
        let truth = GroundTruth {
            real: true,
            kind: header.kind,
            addr: header.addr,
        };
        let event = |direction, packet, truth| BusEvent {
            at,
            channel,
            direction,
            packet,
            truth,
        };
        let real = event(Direction::ToMemory, pair.real.clone(), truth);
        match companion.zip(pair.dummy.clone()) {
            None => self.record(real),
            Some((companion, packet)) => {
                let dummy = event(Direction::ToMemory, packet, companion);
                let (first, second) = match header.kind {
                    AccessKind::Read => (real, dummy),
                    AccessKind::Write => (dummy, real),
                };
                self.record(first);
                self.record(second);
            }
        }
        if let Some(reply) = reply {
            self.record(event(Direction::ToProcessor, reply, truth));
        }
    }

    /// The spans every protected request opens with: the processor-side
    /// encrypt and any pad-buffer stall.
    fn span_issue(&self, at: Time, proc_lat: Duration, pad_stall_ps: u64) {
        self.obs.span(Track::Engine, "encrypt", at, at + proc_lat);
        if pad_stall_ps > 0 {
            let stall = Duration::from_ps(pad_stall_ps);
            self.obs.span(Track::Crypto, "pad-stall", at, at + stall);
        }
    }

    /// One protected read, in any of §3.3's three shapes: deliver →
    /// reply → wire by shape → array → companion → inject → counter.
    ///
    /// Functionally the memory side decodes the request, reads the stored
    /// ciphertext and replies. In time, the request and its companion
    /// cross the bus as packets (their wire bytes occupy the channel), the
    /// memory side verifies/decrypts, the array answers, and the reply's
    /// header/tag overhead rides back alongside the data burst.
    fn protected_read(&mut self, at: Time, addr: BlockAddr, delivery: Delivery<'_>) -> Time {
        let home = self.mem.decode(addr.as_u64()).channel;
        let (channel, out) = self.deliver(at, home, delivery);
        self.stats.pad_stall_ps += out.pair.pad_stall_ps;
        let proc_lat = self.proc_side_latency(out.pair.pad_stall_ps);
        let mem_lat = self.mem_side_latency();
        debug_assert_eq!(out.decoded.header.addr, addr.as_u64());
        if let Delivery::Substituted { write, .. } = delivery {
            // The parked write-back rode in the dummy slot: store it.
            let companion = out
                .companion
                .as_ref()
                .expect("substituted write must surface");
            debug_assert_eq!(companion.header, write);
            let data = companion.data.expect("write carries data");
            self.store_block(BlockAddr::containing(write.addr), data);
        }
        let base_counter = out.decoded.base_counter;
        let (reply, dev_delay, reply_delay) = self.reply(at, channel, addr, base_counter);
        let DeliveryOutcome {
            pair,
            delay: req_delay,
            ..
        } = out;

        let send_at = self.align_to_slot(at + proc_lat);
        if self.tracing() {
            self.record_request(send_at, channel, delivery, &pair, reply);
        }
        // Wire order (§3.3). Returns when the real read has arrived (it
        // gates the array access) and when the request's wire time ends.
        // Read-then-write (the paper's choice): the real read packet goes
        // first; the paired dummy write's 88 bytes follow on the request
        // lane, off the critical path. Write-then-read (the rejected
        // alternative): every fill waits behind its 88-byte companion. A
        // substituted write follows the read and issues on arrival; a
        // uniform request is one packet.
        let real = pair.real.wire_bytes() as u64;
        let dummy = pair.dummy.as_ref().map_or(0, BusPacket::wire_bytes) as u64;
        let mut wire = |t, bytes| {
            self.mem
                .bus_transfer_bytes(t, channel, bytes, Lane::Request)
        };
        let (real_arrived, wire_done) = match delivery {
            Delivery::Pair { .. } => match self.cfg.pairing {
                PairingOrder::ReadThenWrite => {
                    let arrived = wire(send_at, real);
                    wire(arrived, dummy);
                    (arrived, arrived)
                }
                PairingOrder::WriteThenRead => {
                    let dummy_done = wire(send_at, dummy);
                    let arrived = wire(dummy_done, real);
                    (arrived, arrived)
                }
            },
            Delivery::Substituted { .. } => {
                let arrived = wire(send_at, real);
                (arrived, wire(arrived, dummy))
            }
            Delivery::Uniform { .. } => {
                let arrived = wire(send_at, real);
                (arrived, arrived)
            }
        };
        let request_at = real_arrived + mem_lat;
        let array = self.mem.access(request_at, addr.as_u64(), AccessKind::Read);
        let companion_at = wire_done + mem_lat;
        let companion = self.service_companion(delivery, &pair.dummy_header, companion_at);
        self.inject_channels(request_at, channel);
        // The 64 B data burst is the array's; the reply's header and tag
        // ride back after it.
        let reply_overhead = window::reply_wire_bytes(&self.cfg) - 64;
        let reply_done =
            self.mem
                .bus_transfer_bytes(array.complete_at, channel, reply_overhead, Lane::Response);
        let counter_done = self.counter_ready(at, addr.as_u64());
        let fill_done = reply_done.max(counter_done) + self.cfg.latencies.xor + mem_lat;
        if self.obs.is_enabled() {
            self.span_issue(at, proc_lat, pair.pad_stall_ps);
            self.obs
                .span(Track::Channel(channel), "request-wire", send_at, wire_done);
            let bank = self.bank_track(addr.as_u64());
            self.obs
                .span(bank, "array-read", request_at, array.complete_at);
            if let Some((wb, wb_array)) = companion {
                let wb_bank = self.bank_track(wb);
                self.obs
                    .span(wb_bank, "array-write", companion_at, wb_array.complete_at);
            }
            if reply_done > array.complete_at {
                self.obs.span(
                    Track::Channel(channel),
                    "reply-wire",
                    array.complete_at,
                    reply_done,
                );
            }
            if counter_done > at + COUNTER_CACHE_HIT {
                self.obs
                    .span(Track::Crypto, "counter-fetch", at, counter_done);
            }
            let recovery = req_delay + reply_delay;
            if recovery.as_ps() > 0 {
                self.obs.span(
                    Track::Link(channel),
                    "recovery",
                    fill_done,
                    fill_done + recovery,
                );
            }
            if dev_delay.as_ps() > 0 {
                self.obs
                    .span(bank, "recovery", request_at, request_at + dev_delay);
            }
        }
        // Link and device recovery time (retransmits, resyncs, re-keys,
        // re-reads, migrations) extends the fill's critical path; zero
        // on clean deliveries.
        fill_done + req_delay + reply_delay + dev_delay
    }

    /// One protected write, as a split pair or a uniform packet: deliver
    /// → wire → array → companion → inject → response lane. The caller
    /// has already encrypted the data (and bumped its counter).
    fn protected_write(&mut self, at: Time, addr: BlockAddr, delivery: Delivery<'_>) {
        let home = self.mem.decode(addr.as_u64()).channel;
        let (channel, out) = self.deliver(at, home, delivery);
        let DeliveryOutcome {
            pair,
            decoded,
            delay: req_delay,
            ..
        } = out;
        self.stats.pad_stall_ps += pair.pad_stall_ps;
        let proc_lat = self.proc_side_latency(pair.pad_stall_ps);
        let mem_lat = self.mem_side_latency();
        if let Delivery::Pair { data, .. } | Delivery::Uniform { data, .. } = delivery {
            debug_assert_eq!(decoded.data.as_ref(), data);
        }
        self.store_block(addr, decoded.data.expect("write carries data"));

        // Recovery time delays the write's arrival on the wire.
        let aligned = self.align_to_slot(at + proc_lat);
        let send_at = aligned + req_delay;
        if self.tracing() {
            self.record_request(send_at, channel, delivery, &pair, None);
        }
        // Both halves of a pair cross the request lane before the write is
        // serviced; a uniform request is one packet.
        let wire = pair.real.wire_bytes() + pair.dummy.as_ref().map_or(0, BusPacket::wire_bytes);
        let arrived = self
            .mem
            .bus_transfer_bytes(send_at, channel, wire as u64, Lane::Request);
        let request_at = arrived + mem_lat;
        let array = self.post_array_write(request_at, addr.as_u64());
        self.service_companion(delivery, &pair.dummy_header, request_at);
        self.inject_channels(request_at, channel);
        // The response lane carries the paired dummy read's random-data
        // reply (72 B), or the uniform write's mandatory shape-matching
        // reply (88 B): the uniform scheme's inescapable bandwidth tax.
        let reply_bytes = match delivery {
            Delivery::Uniform { .. } => 88,
            _ => 72,
        };
        self.mem
            .bus_transfer_bytes(request_at, channel, reply_bytes, Lane::Response);
        if self.obs.is_enabled() {
            self.span_issue(at, proc_lat, pair.pad_stall_ps);
            if req_delay.as_ps() > 0 {
                self.obs
                    .span(Track::Link(channel), "recovery", aligned, send_at);
            }
            self.obs
                .span(Track::Channel(channel), "request-wire", send_at, arrived);
            if let Some(array) = array {
                let bank = self.bank_track(addr.as_u64());
                self.obs
                    .span(bank, "array-write", request_at, array.complete_at);
            }
        }
    }

    /// The unprotected and encrypt-only read: plaintext on the bus, the
    /// at-rest integrity check (modeled ECC; zero cost when recovery is
    /// off) and, when memory is encrypted, the counter lookup and the pad
    /// XOR.
    fn plain_read(&mut self, at: Time, addr: BlockAddr) -> Time {
        self.record_plain(
            at,
            RequestHeader {
                kind: AccessKind::Read,
                addr: addr.as_u64(),
            },
            None,
        );
        let (_at_rest, dev_delay) = self.load_block(addr);
        let array = self.mem.access(at, addr.as_u64(), AccessKind::Read);
        let counter_done = self
            .cfg
            .security
            .encrypts_memory()
            .then(|| self.counter_ready(at, addr.as_u64()));
        if self.obs.is_enabled() {
            let bank = self.bank_track(addr.as_u64());
            self.obs.span(bank, "array-read", at, array.complete_at);
            if let Some(counter_done) = counter_done.filter(|&c| c > at + COUNTER_CACHE_HIT) {
                self.obs
                    .span(Track::Crypto, "counter-fetch", at, counter_done);
            }
            if dev_delay.as_ps() > 0 {
                self.obs.span(
                    bank,
                    "recovery",
                    array.complete_at,
                    array.complete_at + dev_delay,
                );
            }
        }
        let done = match counter_done {
            Some(counter_done) => array.complete_at.max(counter_done) + self.cfg.latencies.xor,
            None => array.complete_at,
        };
        done + dev_delay
    }

    /// The unprotected and encrypt-only write: the block crosses the bus
    /// in the clear (as stored ciphertext when memory is encrypted).
    fn plain_write(&mut self, at: Time, addr: BlockAddr) {
        let data = if self.cfg.security.encrypts_memory() {
            let at_rest = self.encrypt_dirty_block(at, addr);
            self.store_block(addr, at_rest);
            at_rest
        } else {
            self.peek_block(addr)
        };
        self.record_plain(
            at,
            RequestHeader {
                kind: AccessKind::Write,
                addr: addr.as_u64(),
            },
            Some(data),
        );
        let array = self.post_array_write(at, addr.as_u64());
        if let Some(array) = array.filter(|_| self.obs.is_enabled()) {
            let bank = self.bank_track(addr.as_u64());
            self.obs.span(bank, "array-write", at, array.complete_at);
        }
    }
}

impl MemoryBackend for ObfusMemBackend {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        self.stats.real_reads += 1;
        if !self.cfg.security.obfuscates() {
            return self.plain_read(at, addr);
        }
        let header = RequestHeader {
            kind: AccessKind::Read,
            addr: addr.as_u64(),
        };
        match self.cfg.type_hiding {
            TypeHiding::UniformPackets => {
                self.protected_read(at, addr, Delivery::Uniform { header, data: None })
            }
            TypeHiding::SplitDummyWithSubstitution => {
                // A write-back parked for this read's channel rides in the
                // dummy slot (§3.3's bandwidth optimization).
                let channel = self.mem.decode(addr.as_u64()).channel;
                let parked = self
                    .pending_writes
                    .iter()
                    .position(|wb| self.mem.decode(wb.as_u64()).channel == channel);
                let Some(pos) = parked else {
                    return self.protected_read(at, addr, Delivery::Pair { header, data: None });
                };
                let wb = self.pending_writes.remove(pos).expect("position valid");
                let data = self.encrypt_dirty_block(at, wb);
                self.stats.substituted_pairs += 1;
                self.stats.real_writes += 1; // the parked write is serviced here
                let write = RequestHeader {
                    kind: AccessKind::Write,
                    addr: wb.as_u64(),
                };
                let delivery = Delivery::Substituted {
                    read: header,
                    write,
                    data: &data,
                };
                self.protected_read(at, addr, delivery)
            }
            TypeHiding::SplitDummy => {
                self.protected_read(at, addr, Delivery::Pair { header, data: None })
            }
        }
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        self.stats.real_writes += 1;
        if !self.cfg.security.obfuscates() {
            return self.plain_write(at, addr);
        }
        let addr = match self.cfg.type_hiding {
            TypeHiding::SplitDummyWithSubstitution => {
                // Park the write-back to ride with a future read on its
                // channel; overflow services the oldest normally.
                self.pending_writes.push_back(addr);
                if self.pending_writes.len() <= 8 {
                    return;
                }
                self.pending_writes.pop_front().expect("nonempty")
            }
            TypeHiding::SplitDummy | TypeHiding::UniformPackets => addr,
        };
        let at_rest = self.encrypt_dirty_block(at, addr);
        let header = RequestHeader {
            kind: AccessKind::Write,
            addr: addr.as_u64(),
        };
        let data = Some(&at_rest);
        let delivery = match self.cfg.type_hiding {
            TypeHiding::UniformPackets => Delivery::Uniform { header, data },
            _ => Delivery::Pair { header, data },
        };
        self.protected_write(at, addr, delivery);
    }

    fn label(&self) -> String {
        format!(
            "{} ({:?} channels)",
            self.cfg.security,
            self.mem.config().channels
        )
    }
}

/// The backend's functional store as the recovery ladder sees it.
struct StoreArray<'a> {
    mem: &'a mut PcmMemory,
    memenc: &'a mut MemoryEncryption,
    encrypts: bool,
    /// The faulting block's corrected readout until a re-read verifies,
    /// then that readout: what the demand fill returns.
    readout: BlockData,
}

impl StoreArray<'_> {
    /// Re-encrypts `logical`'s corrected bytes with a fresh counter bump,
    /// so a block's new slot never reuses its old slot's pad stream.
    fn reencrypt(&mut self, logical: u64, corrected: BlockData) -> BlockData {
        if !self.encrypts {
            return corrected;
        }
        let plaintext = self.memenc.decrypt_block(logical, &corrected);
        self.memenc.encrypt_block(logical, &plaintext).0
    }
}

impl RecoveryArray for StoreArray<'_> {
    fn reread(&mut self, rc: &mut RecoveryController, addr: u64, phys: u64) -> bool {
        let (data, _) = self.mem.read_block_faulty(BlockAddr::containing(phys));
        let ok = rc.verify(addr, &data, &self.readout);
        if ok {
            self.readout = data;
        }
        ok
    }

    fn neighbour_flagged(&mut self, phys: u64) -> bool {
        self.mem
            .read_block_faulty(BlockAddr::containing(phys))
            .1
            .is_some()
    }

    /// Journaled re-encrypt of the corrected readout into the spare; the
    /// retired slot is evacuated, since a stale copy would be
    /// re-enumerated by a later quarantine of its bank.
    fn retire(&mut self, rc: &mut RecoveryController, addr: u64, from: u64, to: u64) {
        let moved = self.reencrypt(addr, self.readout);
        rc.note_write(addr, &moved);
        rc.record_migration(MigrationRecord {
            logical: addr,
            from,
            to,
        });
        self.mem.write_block(BlockAddr::containing(to), moved);
        self.mem.remove_block(BlockAddr::containing(from));
    }

    /// Journals a re-encrypt-and-migrate of every surviving stored block
    /// of the bank: corrected readout → decrypt under the logical address
    /// → re-encrypt with a fresh counter bump → write to a spare slot in
    /// a healthy bank.
    fn quarantine(
        &mut self,
        rc: &mut RecoveryController,
        flat_bank: u64,
    ) -> Result<usize, RecoveryError> {
        rc.remap_mut().quarantine(flat_bank)?;
        let victims: Vec<BlockAddr> = self
            .mem
            .stored_addrs()
            .into_iter()
            .filter(|a| {
                let d = self.mem.decode(a.as_u64());
                d.flat_bank(self.mem.config()) as u64 == flat_bank
            })
            .collect();
        let mut migrated = 0usize;
        for phys in victims {
            let (logical, live) = {
                let r = rc.remap();
                (
                    r.logical_of(phys.as_u64()),
                    r.is_current_home(phys.as_u64()),
                )
            };
            // Only migrate a block's *current* home. A stale identity
            // copy (left by a retirement before stale-slot evacuation
            // existed) would otherwise be mistaken for live data:
            // retarget() would drop the live logical→spare mapping and
            // the dead bytes would silently replace the block.
            if !live {
                self.mem.remove_block(phys);
                continue;
            }
            // The dead bank's demand path reads garbage; the corrected
            // (ECC-margin) readout recovers the true stored bytes.
            let corrected = self.mem.read_block(phys);
            let moved = self.reencrypt(logical, corrected);
            let to = match rc.remap_mut().retarget(logical) {
                Ok(t) => t,
                Err(_) => {
                    rc.give_up(logical);
                    continue;
                }
            };
            rc.note_write(logical, &moved);
            rc.record_migration(MigrationRecord {
                logical,
                from: phys.as_u64(),
                to,
            });
            self.mem.write_block(BlockAddr::containing(to), moved);
            self.mem.remove_block(phys);
            migrated += 1;
        }
        Ok(migrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityLevel;
    use obfusmem_mem::request::BLOCK_BYTES;
    use obfusmem_testkit as proptest;

    fn backend(security: SecurityLevel) -> ObfusMemBackend {
        let cfg = ObfusMemConfig {
            security,
            ..ObfusMemConfig::paper_default()
        };
        ObfusMemBackend::new(cfg, MemConfig::table2(), 42)
    }

    #[test]
    fn unprotected_matches_raw_device_latency() {
        let mut b = backend(SecurityLevel::Unprotected);
        let done = b.read(Time::ZERO, BlockAddr::containing(0x40));
        assert_eq!(done.as_ps(), 78_750); // tRCD + tCL + tBURST
    }

    #[test]
    fn protection_levels_strictly_add_latency() {
        let addr = BlockAddr::containing(0x1_0000);
        let mut results = Vec::new();
        for level in [
            SecurityLevel::Unprotected,
            SecurityLevel::EncryptOnly,
            SecurityLevel::Obfuscate,
            SecurityLevel::ObfuscateAuth,
        ] {
            let mut b = backend(level);
            results.push((level, b.read(Time::ZERO, addr)));
        }
        for pair in results.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "{} ({}) should not beat {} ({})",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1
            );
        }
    }

    #[test]
    fn obfuscated_reads_record_real_dummy_and_reply() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        b.enable_trace();
        b.read(Time::ZERO, BlockAddr::containing(0x40));
        let trace = b.take_trace();
        assert_eq!(trace.len(), 3);
        assert!(trace[0].truth.real);
        assert!(!trace[1].truth.real);
        assert_eq!(trace[2].direction, Direction::ToProcessor);
    }

    #[test]
    fn dummy_writes_do_not_wear_the_array() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let mut t = Time::ZERO;
        for i in 0..100u64 {
            t = b.read(t, BlockAddr::containing(i * 64));
        }
        assert_eq!(
            b.memory().wear().total_writes(),
            0,
            "fixed dummies must be dropped"
        );
        assert_eq!(b.stats().paired_dummies, 100);
        assert_eq!(b.stats().dummy_array_writes, 0);
    }

    #[test]
    fn original_policy_dummies_do_wear_the_array() {
        let cfg = ObfusMemConfig {
            dummy_policy: DummyAddressPolicy::Original,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let mut t = Time::ZERO;
        for i in 0..50u64 {
            t = b.read(t, BlockAddr::containing(i * (1 << 24)));
        }
        assert!(b.stats().dummy_array_writes > 0);
        assert!(
            b.memory().wear().total_writes() > 0,
            "original-address dummies hit cells"
        );
    }

    #[test]
    fn functional_data_round_trips_through_protection() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let addr = BlockAddr::containing(0x2000);
        b.write(Time::ZERO, addr);
        // The at-rest block is ciphertext, not zeros.
        assert_ne!(b.memory().read_block(addr), [0u8; 64]);
        // And the read path decrypts it without desync (debug asserts
        // inside protected_read verify the round trip).
        b.read(Time::from_ps(10_000_000), addr);
    }

    fn device_backend(
        security: SecurityLevel,
        plan: obfusmem_mem::fault::DeviceFaultPlan,
    ) -> ObfusMemBackend {
        let cfg = ObfusMemConfig {
            security,
            device_faults: plan,
            ..ObfusMemConfig::paper_default()
        };
        ObfusMemBackend::new(cfg, MemConfig::table2(), 42)
    }

    #[test]
    fn inactive_device_plan_builds_no_recovery_state() {
        use crate::recovery::RecoveryConfig;
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        assert!(b.recovery().is_none());
        assert!(b.memory().fault_state().is_none());
        // Recovery knobs are inert while the plan is inactive: fills are
        // time-identical whatever the ladder costs are set to.
        let cfg = ObfusMemConfig {
            recovery: RecoveryConfig {
                max_retries: 99,
                ..RecoveryConfig::default()
            },
            ..ObfusMemConfig::paper_default()
        };
        let mut tweaked = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let mut t_a = Time::ZERO;
        let mut t_b = Time::ZERO;
        for i in 0..50u64 {
            let addr = BlockAddr::containing(i * (1 << 20));
            t_a = b.read(t_a, addr);
            t_b = tweaked.read(t_b, addr);
            assert_eq!(t_a, t_b);
        }
        let mut m = MetricsNode::new();
        b.observe_metrics(&mut m);
        assert!(
            m.get_child("recovery").is_none(),
            "subtree only when active"
        );
    }

    #[test]
    fn transient_flips_heal_by_retry() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::BitFlip, 0.05, 7),
        );
        let mut t = Time::ZERO;
        for i in 0..200u64 {
            let addr = BlockAddr::containing(i * (1 << 18));
            b.write(t, addr);
            t = b.read(t, addr);
        }
        let stats = b.recovery().expect("active plan").stats;
        assert!(stats.detected > 0, "some reads must flip");
        assert!(stats.retried > 0);
        assert_eq!(stats.quarantined, 0, "transients never escalate");
        assert_eq!(stats.unrecovered, 0);
        let mut m = MetricsNode::new();
        b.observe_metrics(&mut m);
        assert_eq!(m.counter("recovery.detected"), Some(stats.detected));
        assert_eq!(m.counter("recovery.unrecovered"), Some(0));
    }

    #[test]
    fn dead_banks_quarantine_and_migrate_survivors() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan, DeviceFaultState};
        let banks = MemConfig::table2().total_banks() as u64;
        // Fault draws are pure functions of (seed, location): scan for a
        // seed where some banks fail and at least one stays healthy.
        let seed = (1..200u64)
            .find(|&s| {
                let st = DeviceFaultState::new(DeviceFaultPlan::single(
                    DeviceFaultKind::BankFail,
                    0.25,
                    s,
                ));
                let failed = (0..banks).filter(|&f| st.bank_failed(f)).count() as u64;
                failed >= 1 && failed < banks
            })
            .expect("a quarter-rate plan fails some bank for some seed");
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::BankFail, 0.25, seed),
        );
        let total_banks = b.memory().config().total_banks();
        let mut t = Time::ZERO;
        // Stride of one row buffer walks the bank bits, touching every
        // flat bank (RoRaBaChCo puts bank/rank just above the column).
        let addrs: Vec<BlockAddr> = (0..64u64)
            .map(|i| BlockAddr::containing(i * 1024))
            .collect();
        for &addr in &addrs {
            b.write(t, addr);
        }
        for &addr in &addrs {
            t = b.read(t, addr);
        }
        // Re-read everything: remapped blocks must stay stable.
        for &addr in &addrs {
            t = b.read(t, addr);
        }
        let rc = b.recovery().expect("active plan");
        let stats = rc.stats;
        assert!(stats.detected > 0, "dead banks must surface");
        assert!(stats.resynced > 0, "persistent faults pass through resync");
        assert!(stats.quarantined > 0, "dead banks get fused out");
        assert!(stats.migrated > 0, "stored blocks evacuate");
        assert_eq!(stats.unrecovered, 0, "every fault must resolve");
        assert_eq!(rc.journal().len() as u64, stats.migrated);
        assert!(rc.remap().healthy_banks() < total_banks);
        assert!(rc.remap().remapped_blocks() > 0);
    }

    #[test]
    fn stuck_cells_escalate_past_retry() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 0.10, 11),
        );
        let mut t = Time::ZERO;
        for i in 0..128u64 {
            let addr = BlockAddr::containing(i * (1 << 19));
            b.write(t, addr);
            t = b.read(t, addr);
        }
        let stats = b.recovery().expect("active plan").stats;
        assert!(stats.detected > 0, "stuck cells must surface");
        assert!(stats.quarantined > 0, "retries cannot heal a frozen bit");
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn isolated_stuck_blocks_retire_without_bank_quarantine() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        // Scan seeds for a map where the demand block is stuck but its
        // neighbourhood reads clean; fault draws are pure in (seed,
        // location), so the scan is deterministic.
        let addr = BlockAddr::containing(0x40);
        let mut hit = None;
        for seed in 1..200u64 {
            let mut b = device_backend(
                SecurityLevel::ObfuscateAuth,
                DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 0.05, seed),
            );
            b.write(Time::ZERO, addr);
            b.read(Time::from_ps(1_000_000), addr);
            let stats = b.recovery().expect("active plan").stats;
            assert_eq!(stats.unrecovered, 0, "seed {seed}");
            if stats.detected > 0 && stats.quarantined == 0 && stats.migrated > 0 {
                let rc = b.recovery().expect("active plan");
                assert_eq!(rc.journal().len() as u64, stats.migrated);
                // The retired slot keeps serving: a re-read is clean.
                b.read(Time::from_ps(2_000_000), addr);
                let after = b.recovery().expect("active plan").stats;
                assert_eq!(after.detected, stats.detected, "retired slot is clean");
                assert_eq!(after.quarantined, 0, "no bank was fused");
                hit = Some(seed);
                break;
            }
        }
        assert!(
            hit.is_some(),
            "some seed must exercise pure block retirement"
        );
    }

    #[test]
    fn quarantine_walk_skips_stale_identity_copies() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        // Active-but-quiet plan: the recovery machinery is live, but no
        // fault ever fires, so every store/remap move below is ours.
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 1e-12, 1),
        );
        let cfg = b.mem.config().clone();
        let logical = (0..1u64 << 20)
            .step_by(64)
            .find(|&a| {
                let d = b.mem.decode(a);
                d.flat_bank(&cfg) as u64 == 1
            })
            .expect("some block decodes into bank 1");
        // Reconstruct the pre-fix hazard: a block retired to a spare
        // slot (in bank 0 — the cursor's first candidate) whose stale
        // identity copy was left behind in bank 1.
        let stale = [0xDEu8; BLOCK_BYTES];
        let live = [0xABu8; BLOCK_BYTES];
        b.mem.write_block(BlockAddr::containing(logical), stale);
        let rc = b.recovery.as_mut().expect("active plan");
        let spare = rc.remap_mut().retarget(logical).expect("spare available");
        assert_ne!(
            b.mem.decode(spare).flat_bank(&cfg) as u64,
            1,
            "spare must land outside the bank under test"
        );
        rc.note_write(logical, &live);
        b.mem.write_block(BlockAddr::containing(spare), live);
        // Quarantining bank 1 must not treat the stale identity copy as
        // a victim: doing so would drop the live logical→spare mapping
        // and silently serve dead bytes.
        let (rc, mut store) = b.ladder(live);
        assert_eq!(store.quarantine(rc, 1), Ok(0), "nothing live in bank 1");
        let rc = b.recovery.as_mut().expect("active plan");
        assert_eq!(
            rc.remap_mut().translate(logical).expect("still mapped"),
            spare,
            "live mapping survives the quarantine walk"
        );
        assert_eq!(
            b.mem.read_block(BlockAddr::containing(spare)),
            live,
            "live bytes untouched"
        );
        assert_eq!(
            b.mem.read_block(BlockAddr::containing(logical)),
            [0u8; BLOCK_BYTES],
            "stale copy evacuated from the store"
        );
        let stats = b.recovery.as_ref().expect("active plan").stats;
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn unprotected_scheme_still_detects_and_recovers() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        let mut b = device_backend(
            SecurityLevel::Unprotected,
            DeviceFaultPlan::single(DeviceFaultKind::BitFlip, 0.10, 13),
        );
        let mut t = Time::ZERO;
        for i in 0..100u64 {
            t = b.read(t, BlockAddr::containing(i * (1 << 18)));
        }
        let stats = b.recovery().expect("active plan").stats;
        assert!(stats.detected > 0, "modeled ECC sees flips without crypto");
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn multi_channel_injection_follows_strategy() {
        for (strategy, expect_some) in [
            (crate::config::ChannelStrategy::None, false),
            (crate::config::ChannelStrategy::Unopt, true),
            (crate::config::ChannelStrategy::Opt, true),
        ] {
            let cfg = ObfusMemConfig {
                channel_strategy: strategy,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(4), 1);
            let mut t = Time::ZERO;
            for i in 0..20u64 {
                t = b.read(t, BlockAddr::containing(i * 64));
            }
            assert_eq!(
                b.stats().channel_dummies > 0,
                expect_some,
                "strategy {strategy:?}"
            );
        }
    }

    #[test]
    fn unopt_injects_more_than_opt() {
        let mut counts = Vec::new();
        for strategy in [
            crate::config::ChannelStrategy::Unopt,
            crate::config::ChannelStrategy::Opt,
        ] {
            let cfg = ObfusMemConfig {
                channel_strategy: strategy,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(8), 1);
            // Closely spaced issue times (as a 4-core mix produces) keep
            // channels busy with in-flight traffic so OPT can suppress.
            for i in 0..200u64 {
                b.read(Time::from_ps(i * 2_000), BlockAddr::containing(i * 1024));
            }
            counts.push(b.stats().channel_dummies);
        }
        assert!(
            counts[0] > counts[1],
            "UNOPT {} !> OPT {}",
            counts[0],
            counts[1]
        );
    }

    #[test]
    fn counter_misses_generate_extra_memory_traffic() {
        let mut b = backend(SecurityLevel::EncryptOnly);
        let mut t = Time::ZERO;
        // Touch thousands of distinct pages to defeat the counter cache.
        for i in 0..8000u64 {
            t = b.read(t, BlockAddr::containing(i * 4096));
        }
        assert!(b.stats().counter_misses > 4000);
        assert!(b.counter_cache_hit_ratio() < 0.5);
    }

    #[test]
    fn substitution_replaces_dummies_with_parked_writes() {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::SplitDummyWithSubstitution,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let mut t = Time::ZERO;
        for i in 0..20u64 {
            b.write(t, BlockAddr::containing(0x10_0000 + i * 64)); // parked
            t = b.read(t, BlockAddr::containing(i * 64)); // picks one up
        }
        assert!(
            b.stats().substituted_pairs >= 15,
            "got {}",
            b.stats().substituted_pairs
        );
        // Substituted pairs generate no dummy at all on their slot.
        assert!(
            b.stats().paired_dummies < 5,
            "dummies should be rare with writes available: {}",
            b.stats().paired_dummies
        );
        // Functional store must contain the parked writes that rode along.
        assert_ne!(
            b.memory().read_block(BlockAddr::containing(0x10_0000)),
            [0u8; 64]
        );
    }

    #[test]
    fn substitution_preserves_read_correctness() {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::SplitDummyWithSubstitution,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 7);
        let mut t = Time::ZERO;
        // Interleave writes and reads over the same small set; debug
        // asserts inside the read paths verify every bus round trip.
        for i in 0..50u64 {
            b.write(t, BlockAddr::containing((i % 8) * 64));
            t = b.read(t, BlockAddr::containing((i % 8) * 64));
        }
    }

    #[test]
    fn uniform_packets_round_trip_and_shape_match() {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::UniformPackets,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 9);
        b.enable_trace();
        let mut t = Time::ZERO;
        for i in 0..10u64 {
            b.write(t, BlockAddr::containing(i * 64));
            t = b.read(t, BlockAddr::containing(i * 64));
        }
        let trace = b.take_trace();
        let to_mem: Vec<_> = trace
            .iter()
            .filter(|e| e.direction == Direction::ToMemory)
            .collect();
        assert_eq!(to_mem.len(), 20, "one packet per request, no dummies");
        assert!(
            to_mem.iter().all(|e| e.packet.data_ct.is_some()),
            "every uniform packet must carry data"
        );
        let wires: std::collections::HashSet<usize> =
            to_mem.iter().map(|e| e.packet.wire_bytes()).collect();
        assert_eq!(wires.len(), 1, "reads and writes must be shape-identical");
    }

    #[test]
    fn uniform_packets_cost_more_bus_than_substitution() {
        // The §3.3 bandwidth argument: under a read+write mix, the split
        // scheme with substitution moves fewer bytes than uniform packets.
        let run = |type_hiding| {
            let cfg = ObfusMemConfig {
                type_hiding,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 11);
            let mut t = Time::ZERO;
            for i in 0..200u64 {
                b.write(t, BlockAddr::containing(0x40_0000 + i * 64));
                t = b.read(t, BlockAddr::containing(i * 64));
            }
            b.memory().channel_stats(0).bus_busy_ps.get()
        };
        let uniform = run(TypeHiding::UniformPackets);
        let subst = run(TypeHiding::SplitDummyWithSubstitution);
        assert!(
            subst < uniform,
            "substitution ({subst} ps) must beat uniform packets ({uniform} ps)"
        );
    }

    #[test]
    fn fixed_slot_timing_quantizes_issue_times() {
        let cfg = ObfusMemConfig {
            timing: crate::config::TimingMode::FixedSlots,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        b.enable_trace();
        let mut t = Time::from_ps(1); // deliberately unaligned
        for i in 0..20u64 {
            t = b.read(t, BlockAddr::containing(i * 64));
        }
        let slot = crate::config::TIMING_SLOT.as_ps();
        for event in b.take_trace() {
            if event.direction == Direction::ToMemory {
                assert_eq!(
                    event.at.as_ps() % slot,
                    0,
                    "packet at {} not slot-aligned",
                    event.at
                );
            }
        }
    }

    #[test]
    fn fixed_slot_timing_costs_latency() {
        let addr = BlockAddr::containing(0x40);
        let mut normal = backend(SecurityLevel::ObfuscateAuth);
        let cfg = ObfusMemConfig {
            timing: crate::config::TimingMode::FixedSlots,
            ..ObfusMemConfig::paper_default()
        };
        let mut shielded = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let a = normal.read(Time::from_ps(1), addr);
        let b = shielded.read(Time::from_ps(1), addr);
        assert!(b >= a, "slot alignment cannot be free");
    }

    #[test]
    fn write_then_read_pairing_slows_fills() {
        let addr = BlockAddr::containing(0x40);
        let mut rtw = backend(SecurityLevel::ObfuscateAuth);
        let cfg = ObfusMemConfig {
            pairing: crate::config::PairingOrder::WriteThenRead,
            ..ObfusMemConfig::paper_default()
        };
        let mut wtr = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let a = rtw.read(Time::ZERO, addr);
        let b = wtr.read(Time::ZERO, addr);
        assert!(
            b > a,
            "write-then-read must delay fills behind the dummy write (§3.3): {a:?} vs {b:?}"
        );
    }

    #[test]
    fn tracing_is_passive_and_covers_the_request_path() {
        let drive = |traced: bool| {
            let mut b = backend(SecurityLevel::ObfuscateAuth);
            let obs = if traced {
                TraceHandle::recording()
            } else {
                TraceHandle::disabled()
            };
            b.set_trace_handle(obs.clone());
            let mut t = Time::ZERO;
            for i in 0..40u64 {
                b.write(t, BlockAddr::containing(0x20_0000 + i * 64));
                t = b.read(t, BlockAddr::containing(i * 4096));
            }
            (t, obs.finish())
        };
        let (untraced_t, none) = drive(false);
        let (traced_t, events) = drive(true);
        assert!(none.is_empty());
        assert_eq!(untraced_t, traced_t, "recording must not perturb timing");
        let names: std::collections::HashSet<String> = crate::backend::tests::track_names(&events);
        assert!(names.contains("engine"), "tracks: {names:?}");
        assert!(names.contains("bus.ch0"));
        assert!(names.iter().any(|n| n.starts_with("bank.ch0.b")));
        assert!(
            events.iter().any(|e| matches!(
                e,
                obfusmem_obs::trace::TraceEvent::Span {
                    name: "array-read",
                    ..
                }
            )),
            "bank service spans must be present"
        );
    }

    fn track_names(
        events: &[obfusmem_obs::trace::TraceEvent],
    ) -> std::collections::HashSet<String> {
        events.iter().map(|e| e.track().name()).collect()
    }

    #[test]
    fn metrics_snapshot_carries_engine_crypto_and_per_bank_counters() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let mut t = Time::ZERO;
        for i in 0..100u64 {
            t = b.read(t, BlockAddr::containing(i * 4096));
        }
        let mut snap = MetricsNode::new();
        b.observe_metrics(&mut snap);
        assert_eq!(snap.counter("engine.real_reads"), Some(100));
        assert_eq!(snap.counter("engine.paired_dummies"), Some(100));
        assert!(snap.counter("crypto.counter_misses").is_some());
        assert!(
            snap.counter("mem.ch0.reads").unwrap_or(0) > 0,
            "per-channel device counters must be present"
        );
        let ch0 = snap.get_child("mem").and_then(|m| m.get_child("ch0"));
        assert!(
            ch0.is_some_and(|c| c.children().any(|(name, _)| name.starts_with("bank"))),
            "per-bank counters must be present"
        );
        // Fault-free backends carry no link subtree at all.
        assert!(snap.get_child("link").is_none());
    }

    #[test]
    fn encrypt_then_mac_is_slower_than_encrypt_and_mac() {
        let addr = BlockAddr::containing(0x40);
        let mut and_mac = backend(SecurityLevel::ObfuscateAuth);
        let cfg = ObfusMemConfig {
            mac_scheme: MacScheme::EncryptThenMac,
            ..ObfusMemConfig::paper_default()
        };
        let mut then_mac = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let a = and_mac.read(Time::ZERO, addr);
        let b = then_mac.read(Time::ZERO, addr);
        assert!(
            b > a,
            "encrypt-then-MAC must serialize MAC latency (Observation 4)"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        /// Re-encrypt-and-migrate must be lossless at the plaintext level:
        /// for random engine seeds and random bank-failure maps, every
        /// stored block decrypts to exactly the bytes it held before the
        /// quarantine — while migrated blocks change address *and*
        /// ciphertext (the spare slot never reuses the dead slot's pad).
        #[test]
        fn migration_re_encrypts_yet_round_trips_plaintext_bit_exactly(
            engine_seed: u64,
            fault_salt in 0u64..500
        ) {
            use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan, DeviceFaultState};
            let banks = MemConfig::table2().total_banks() as u64;
            // Fault draws are pure in (seed, location): scan from the
            // drawn salt for a map that kills some banks but not all.
            let fault_seed = (0..400u64)
                .map(|d| fault_salt * 400 + d + 1)
                .find(|&s| {
                    let st = DeviceFaultState::new(DeviceFaultPlan::single(
                        DeviceFaultKind::BankFail,
                        0.25,
                        s,
                    ));
                    let failed = (0..banks).filter(|&f| st.bank_failed(f)).count() as u64;
                    failed >= 1 && failed < banks
                })
                .expect("a quarter-rate plan fails some bank for some seed");
            let cfg = ObfusMemConfig {
                device_faults: DeviceFaultPlan::single(DeviceFaultKind::BankFail, 0.25, fault_seed),
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), engine_seed);

            // Row-buffer stride walks every flat bank (RoRaBaChCo).
            let addrs: Vec<BlockAddr> = (0..64u64)
                .map(|i| BlockAddr::containing(i * 1024))
                .collect();
            let mut t = Time::ZERO;
            for &addr in &addrs {
                b.write(t, addr);
            }
            // Pre-quarantine snapshot: at-rest ciphertext and the
            // plaintext it protects, per logical block.
            let mut pre_ct = std::collections::HashMap::new();
            let mut pre_pt = std::collections::HashMap::new();
            for &addr in &addrs {
                let ct = b.peek_block(addr);
                pre_pt.insert(addr.as_u64(), b.memenc.decrypt_block(addr.as_u64(), &ct));
                pre_ct.insert(addr.as_u64(), ct);
            }

            // Demand reads hit the dead banks and run the full ladder.
            for &addr in &addrs {
                t = b.read(t, addr);
            }
            let rc = b.recovery().expect("active plan");
            proptest::prop_assert!(rc.stats.quarantined > 0, "dead banks must fuse out");
            proptest::prop_assert!(rc.stats.migrated > 0, "stored blocks must evacuate");
            proptest::prop_assert_eq!(rc.stats.unrecovered, 0, "every fault must resolve");
            let moves: Vec<MigrationRecord> = rc.journal().to_vec();
            proptest::prop_assert_eq!(moves.len() as u64, rc.stats.migrated);

            // Bit-exact round trip: every logical block still decrypts to
            // its pre-quarantine plaintext through the new mapping.
            for &addr in &addrs {
                let ct = b.peek_block(addr);
                let pt = b.memenc.decrypt_block(addr.as_u64(), &ct);
                proptest::prop_assert_eq!(
                    pt,
                    pre_pt[&addr.as_u64()],
                    "block {:#x} plaintext must survive migration",
                    addr.as_u64()
                );
            }
            // Migrated blocks moved and were freshly encrypted: same
            // plaintext, different slot, different ciphertext.
            for m in &moves {
                proptest::prop_assert_ne!(m.from, m.to, "migration must relocate");
                if let Some(old_ct) = pre_ct.get(&m.logical) {
                    let new_ct = b.peek_block(BlockAddr::containing(m.logical));
                    proptest::prop_assert_ne!(
                        &new_ct,
                        old_ct,
                        "spare slot must not reuse the dead slot's pad"
                    );
                }
            }
        }
    }
}
