//! Device-fault recovery: typed integrity faults, the one retry →
//! resync → retire → quarantine escalation ladder, and a spare-region
//! remap table.
//!
//! `link::FaultyLink`'s ARQ hardens the *bus*; this module handles faults
//! *inside* the module's trust boundary — the stored array bytes
//! themselves (`obfusmem_mem::fault::DeviceFaultPlan`). Two arrays walk
//! the same ladder: the backend's functional store and the tenant
//! fabric's modelled shared array. Each implements [`RecoveryArray`] —
//! re-read, flag a neighbour, retire a block, quarantine a bank — and
//! [`RecoveryController::recover`] sequences the rungs over it, charging
//! every cost and bumping every counter. The controller is pure
//! bookkeeping over simulated time:
//!
//! * [`IntegrityFault`] — the typed event a failed at-rest integrity
//!   check raises (instead of the panic it used to be);
//! * [`RecoveryConfig`] — retry count, exponential simulated-time
//!   backoff, and the modeled costs of resync, quarantine, and per-block
//!   migration;
//! * [`SpareRemap`] — per-bank quarantine flags plus a logical→spare
//!   block remap. Spare slots are carved from the *top rows* of healthy
//!   banks (workloads live at the bottom of the address space), assigned
//!   round-robin so a quarantined bank's load spreads across survivors.
//!   Assignment is monotone — a spare slot is never reused — so the map
//!   is a bijection over live addresses by construction;
//! * [`RecoveryController`] — the ladder, plus per-block SHA-1 digests
//!   of the at-rest bytes (the backend's detection oracle for schemes
//!   without a bus MAC, and a cross-check for those with one), a
//!   [`MigrationRecord`] journal, and the degraded set of blocks the
//!   ladder gave up on, which are served without climbing it again.
//!
//! Everything here is `Option`-gated by its callers: a run with an
//! inactive `DeviceFaultPlan` never constructs a controller and stays
//! byte-identical to pre-fault builds.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use obfusmem_crypto::sha1::{Sha1, DIGEST_LEN};
use obfusmem_mem::addr::{decode, encode, DecodedAddr};
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::fault::DeviceFaultKind;
use obfusmem_mem::request::{BlockData, BLOCK_BYTES};
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_sim::time::Duration;

/// A typed at-rest integrity failure: the readout of `phys` did not
/// match the expected digest for logical block `addr`. Flows through the
/// recovery ladder instead of killing the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityFault {
    /// Logical (pre-remap) block address whose readout failed.
    pub addr: u64,
    /// Physical (post-remap) address that was actually read.
    pub phys: u64,
    /// Flat bank index of the failing physical address.
    pub flat_bank: u64,
    /// The injected fault kind, when the device overlay reported one.
    /// `None` means the corruption was observed only via the digest
    /// (e.g. a stuck cell planted by an earlier read).
    pub observed: Option<DeviceFaultKind>,
}

/// Costs and bounds of the recovery ladder, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Re-read attempts before escalating to resync.
    pub max_retries: u32,
    /// Backoff before retry `n`: `retry_backoff << min(n, backoff_cap)`.
    pub retry_backoff: Duration,
    /// Exponent cap for the backoff shift.
    pub backoff_cap: u32,
    /// Modeled cost of a counter resync: the link's escalation step,
    /// applied to the at-rest counters. The Merkle tree the paper assumes
    /// over them is not modelled; this flat cost stands in for it.
    pub resync_latency: Duration,
    /// Fixed cost of quarantining a bank (fusing it out of the decoder).
    pub quarantine_latency: Duration,
    /// Per-block cost of re-encrypt-and-migrate to a spare slot.
    pub migrate_per_block: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 4,
            retry_backoff: Duration::from_ns(50),
            backoff_cap: 4,
            resync_latency: Duration::from_ns(200),
            quarantine_latency: Duration::from_ns(2000),
            migrate_per_block: Duration::from_ns(300),
        }
    }
}

impl RecoveryConfig {
    /// Simulated-time backoff before retry `attempt` (0-based).
    pub fn retry_delay(&self, attempt: u32) -> Duration {
        let shift = attempt.min(self.backoff_cap);
        Duration::from_ps(self.retry_backoff.as_ps() << shift)
    }
}

/// Per-phase counters for the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Integrity faults detected (digest mismatches on readout).
    pub detected: u64,
    /// Re-read attempts issued.
    pub retried: u64,
    /// Counter resyncs performed.
    pub resynced: u64,
    /// Banks quarantined.
    pub quarantined: u64,
    /// Blocks re-encrypted and migrated to spare slots.
    pub migrated: u64,
    /// Faults the ladder could not clear (run continues on the
    /// corrected ECC-margin readout, mirroring `link`'s `force_clean`).
    pub unrecovered: u64,
}

impl RecoveryStats {
    /// Emits the counters into `out` (the `recovery.*` subtree).
    pub fn observe(&self, out: &mut MetricsNode) {
        out.set_counter("detected", self.detected);
        out.set_counter("retried", self.retried);
        out.set_counter("resynced", self.resynced);
        out.set_counter("quarantined", self.quarantined);
        out.set_counter("migrated", self.migrated);
        out.set_counter("unrecovered", self.unrecovered);
    }
}

/// Why a recovery step was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// Quarantining `bank` would leave no healthy bank to remap into.
    LastHealthyBank {
        /// The bank whose quarantine was refused.
        bank: u64,
    },
    /// The spare region of every healthy bank is exhausted.
    SpareExhausted {
        /// The logical address that could not be remapped.
        addr: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::LastHealthyBank { bank } => {
                write!(f, "refusing to quarantine bank {bank}: last healthy bank")
            }
            RecoveryError::SpareExhausted { addr } => {
                write!(f, "no spare slot left for block {addr:#x}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// One journaled re-encrypt-and-migrate of a surviving block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Logical block address.
    pub logical: u64,
    /// Physical slot the block was evacuated from.
    pub from: u64,
    /// Spare slot it now lives in.
    pub to: u64,
}

/// Bank-quarantine state plus the logical→spare block remap.
///
/// Spare slots are enumerated by a monotone cursor: slot `s` lands in
/// bank `s % total_banks` (skipping quarantined banks), filling rows
/// from the top of the bank downward. The cursor never rewinds, so no
/// spare slot is handed out twice and the map stays injective. A spare
/// target can itself be quarantined later; migration then retargets the
/// block to a fresh slot.
///
/// Spares are carved from the top rows on the *assumption* that
/// workloads live at the bottom of the address space — but the remap
/// does not trust it: every identity translation is recorded, the
/// cursor skips slots that collide with an identity-served address, and
/// an identity address that aliases an already-assigned spare is
/// displaced to a spare of its own. Injectivity holds for any workload
/// footprint, not just low addresses.
#[derive(Debug, Clone)]
pub struct SpareRemap {
    cfg: MemConfig,
    quarantined: Vec<bool>,
    healthy: usize,
    /// logical → spare physical.
    map: BTreeMap<u64, u64>,
    /// spare physical → logical (the inverse, for migration walks).
    rev: BTreeMap<u64, u64>,
    /// Addresses served at identity at least once — slots the spare
    /// cursor must never hand out (a workload block can legitimately
    /// decode into the spare region).
    identity_live: BTreeSet<u64>,
    next_spare: u64,
}

impl SpareRemap {
    /// A remap with every bank healthy and no blocks displaced.
    pub fn new(cfg: MemConfig) -> Self {
        let banks = cfg.total_banks();
        SpareRemap {
            cfg,
            quarantined: vec![false; banks],
            healthy: banks,
            map: BTreeMap::new(),
            rev: BTreeMap::new(),
            identity_live: BTreeSet::new(),
            next_spare: 0,
        }
    }

    /// True when `flat_bank` is fused out.
    pub fn is_quarantined(&self, flat_bank: u64) -> bool {
        self.quarantined
            .get(flat_bank as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of banks still healthy.
    pub fn healthy_banks(&self) -> usize {
        self.healthy
    }

    /// Number of blocks currently displaced to spare slots.
    pub fn remapped_blocks(&self) -> usize {
        self.map.len()
    }

    /// Fuses out `flat_bank`. Returns `Ok(true)` when newly quarantined,
    /// `Ok(false)` when it already was, and refuses to take down the
    /// last healthy bank (the caller records the fault as unrecovered
    /// and the run continues on corrected readouts).
    pub fn quarantine(&mut self, flat_bank: u64) -> Result<bool, RecoveryError> {
        let i = flat_bank as usize;
        if self.quarantined[i] {
            return Ok(false);
        }
        if self.healthy <= 1 {
            return Err(RecoveryError::LastHealthyBank { bank: flat_bank });
        }
        self.quarantined[i] = true;
        self.healthy -= 1;
        Ok(true)
    }

    /// Physical address logical block `addr` lives at: its spare slot if
    /// displaced, a freshly assigned slot if its bank is quarantined,
    /// identity otherwise. A spare whose own bank has since been fused
    /// out is reassigned on the spot — that arises only for spares the
    /// cohort migration skipped (blocks that were never stored), so no
    /// data moves with it. This keeps the invariant that `translate`
    /// never returns a slot in a quarantined bank, which bounds the
    /// caller's cascading-quarantine loop.
    pub fn translate(&mut self, addr: u64) -> Result<u64, RecoveryError> {
        if let Some(&t) = self.map.get(&addr) {
            let d = decode(&self.cfg, t);
            if !self.quarantined[d.flat_bank(&self.cfg)] {
                return Ok(t);
            }
            return self.retarget(addr);
        }
        let d = decode(&self.cfg, addr);
        // Identity home — unless this address was already handed out as
        // another block's spare (a workload block can decode into the
        // spare region): sharing the slot would break injectivity and
        // cross-corrupt the two blocks' digests, so displace this block
        // to a spare of its own instead.
        if !self.quarantined[d.flat_bank(&self.cfg)] && !self.rev.contains_key(&addr) {
            self.identity_live.insert(addr);
            return Ok(addr);
        }
        self.assign_spare(addr)
    }

    /// The logical block stored at physical slot `phys` (identity unless
    /// `phys` is an assigned spare).
    pub fn logical_of(&self, phys: u64) -> u64 {
        self.rev.get(&phys).copied().unwrap_or(phys)
    }

    /// True when physical slot `phys` is the *current* home of the block
    /// it holds: either an assigned spare, or an identity slot whose
    /// block has not been displaced. False for the stale identity slot
    /// of a block that was retired/migrated to a spare — migration walks
    /// must skip those rather than resurrect their dead bytes.
    pub fn is_current_home(&self, phys: u64) -> bool {
        self.rev.contains_key(&phys) || !self.map.contains_key(&phys)
    }

    /// Drops `logical`'s current spare (if any) and assigns a fresh one —
    /// used when the bank holding its spare slot is itself quarantined.
    pub fn retarget(&mut self, logical: u64) -> Result<u64, RecoveryError> {
        if let Some(old) = self.map.remove(&logical) {
            self.rev.remove(&old);
        }
        self.assign_spare(logical)
    }

    /// Hands out the next unused spare slot in a healthy bank, skipping
    /// slots whose address is live at identity. Terminates because at
    /// least one bank is always healthy (quarantine refuses the last
    /// one) and that bank's candidate rows run out at `row_back >=
    /// rows`; the cap is a defensive backstop at the full slot space.
    fn assign_spare(&mut self, logical: u64) -> Result<u64, RecoveryError> {
        let banks = self.cfg.total_banks() as u64;
        let per_row = self.cfg.blocks_per_row();
        let rows = self.cfg.rows_per_bank();
        let scanned_cap = banks.saturating_mul(per_row.saturating_mul(rows)) + banks;
        let mut scanned = 0;
        loop {
            let seq = self.next_spare;
            self.next_spare += 1;
            scanned += 1;
            if scanned > scanned_cap {
                return Err(RecoveryError::SpareExhausted { addr: logical });
            }
            let fb = seq % banks;
            if self.quarantined[fb as usize] {
                continue;
            }
            let slot = seq / banks;
            let row_back = slot / per_row;
            if row_back >= rows {
                return Err(RecoveryError::SpareExhausted { addr: logical });
            }
            let d = DecodedAddr {
                channel: (fb as usize) / (self.cfg.ranks_per_channel * self.cfg.banks_per_rank),
                rank: (fb as usize / self.cfg.banks_per_rank) % self.cfg.ranks_per_channel,
                bank: fb as usize % self.cfg.banks_per_rank,
                row: rows - 1 - row_back,
                column: (slot % per_row) * BLOCK_BYTES as u64,
            };
            let phys = encode(&self.cfg, &d);
            if self.identity_live.contains(&phys) {
                continue;
            }
            self.map.insert(logical, phys);
            self.rev.insert(phys, logical);
            return Ok(phys);
        }
    }
}

/// Block-retirement attempts before a confined fault is reclassified as
/// wide damage and escalated to bank quarantine. A retirement landing on
/// another bad slot is rare (the spare cursor moves monotonically), so a
/// streak this long is stronger evidence of a sick region than bad luck.
const MAX_RETIREMENTS: usize = 4;

/// An array the recovery ladder walks: the backend's functional store,
/// or the tenant fabric's modelled shared array. The ladder
/// ([`RecoveryController::recover`]) owns the rung order, every cost and
/// every counter; an array only reads, moves and fuses its own blocks.
pub trait RecoveryArray {
    /// Re-reads logical block `addr` at physical slot `phys` through the
    /// fault overlay; true when the readout verifies.
    fn reread(&mut self, rc: &mut RecoveryController, addr: u64, phys: u64) -> bool;

    /// True when the fault overlay flags a readout of neighbour slot
    /// `phys`.
    fn neighbour_flagged(&mut self, phys: u64) -> bool;

    /// Moves logical block `addr` from slot `from` to `to`, the spare
    /// slot [`SpareRemap::retarget`] just assigned it.
    fn retire(&mut self, rc: &mut RecoveryController, addr: u64, from: u64, to: u64);

    /// Quarantines `flat_bank` (the ladder only passes a bank that
    /// [`SpareRemap::translate`] just served from, so a healthy one) and
    /// migrates the blocks it holds to spare slots. Returns how many
    /// moved, or the remap's refusal.
    fn quarantine(
        &mut self,
        rc: &mut RecoveryController,
        flat_bank: u64,
    ) -> Result<usize, RecoveryError>;
}

/// Bookkeeping half of the recovery subsystem: remap + at-rest digests +
/// migration journal + per-phase counters, and the one ladder
/// ([`RecoveryController::recover`]) that walks a [`RecoveryArray`].
#[derive(Debug)]
pub struct RecoveryController {
    cfg: RecoveryConfig,
    remap: SpareRemap,
    /// Expected SHA-1 of the at-rest bytes, keyed by *logical* address.
    /// Lazily seeded from the corrected (ECC-margin) readout on first
    /// check, updated on every store and migration.
    digests: HashMap<u64, [u8; DIGEST_LEN]>,
    journal: Vec<MigrationRecord>,
    /// Logical blocks the ladder permanently failed (spare region
    /// exhausted or last healthy bank refused): served from the
    /// corrected readout without re-entering the ladder, so one
    /// unrecoverable fault counts once instead of re-detecting (and
    /// re-paying retries + resync + a refused quarantine) on every
    /// subsequent access.
    degraded: BTreeSet<u64>,
    /// Per-phase counters (`recovery.*`).
    pub stats: RecoveryStats,
}

impl RecoveryController {
    /// A controller over `mem_cfg`'s geometry with ladder costs `cfg`.
    pub fn new(cfg: RecoveryConfig, mem_cfg: MemConfig) -> Self {
        RecoveryController {
            cfg,
            remap: SpareRemap::new(mem_cfg),
            digests: HashMap::new(),
            journal: Vec::new(),
            degraded: BTreeSet::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// The quarantine/remap table.
    pub fn remap(&self) -> &SpareRemap {
        &self.remap
    }

    /// Mutable access for translate/quarantine/retarget.
    pub fn remap_mut(&mut self) -> &mut SpareRemap {
        &mut self.remap
    }

    /// The migration journal, in commit order.
    pub fn journal(&self) -> &[MigrationRecord] {
        &self.journal
    }

    /// Records a store of `data` at logical `addr` (digest update).
    pub fn note_write(&mut self, addr: u64, data: &BlockData) {
        self.digests.insert(addr, Sha1::digest(data));
    }

    /// Expected at-rest digest for logical `addr`, lazily seeded from
    /// the corrected readout `corrected` when the block has never been
    /// written through the controller.
    pub fn expected_digest(&mut self, addr: u64, corrected: &BlockData) -> [u8; DIGEST_LEN] {
        *self
            .digests
            .entry(addr)
            .or_insert_with(|| Sha1::digest(corrected))
    }

    /// True when `data` matches the expected at-rest digest for `addr`.
    pub fn verify(&mut self, addr: u64, data: &BlockData, corrected: &BlockData) -> bool {
        Sha1::digest(data) == self.expected_digest(addr, corrected)
    }

    /// Journals one migration (the ladder counts it).
    pub fn record_migration(&mut self, rec: MigrationRecord) {
        self.journal.push(rec);
    }

    /// True when logical `addr` was declared unrecoverable and degraded
    /// to direct corrected readouts.
    pub fn is_degraded(&self, addr: u64) -> bool {
        self.degraded.contains(&addr)
    }

    /// Gives up on logical `addr`: marks it permanently degraded, to be
    /// served from corrected readouts without re-entering the ladder,
    /// and counts it `unrecovered` once per block, not once per access.
    pub fn give_up(&mut self, addr: u64) {
        if self.degraded.insert(addr) {
            self.stats.unrecovered += 1;
        }
    }

    /// Runs the recovery ladder for `fault`, a readout of `array` that
    /// failed to verify, and returns the simulated time it took:
    ///
    /// 1. bounded re-reads with exponential backoff (transient flips
    ///    redraw per read and clear);
    /// 2. a counter resync, then one more re-read;
    /// 3. when neither neighbour of the slot reads corrupt twice running,
    ///    the damage is confined to the block: retire it to a spare slot,
    ///    up to `MAX_RETIREMENTS` times;
    /// 4. otherwise, or after a streak of bad spares, quarantine the bank
    ///    and migrate its blocks. A spare can sit in a bank that is dead
    ///    but not yet discovered, so the quarantine cascades to each bank
    ///    a re-read still fails in. It terminates because every step
    ///    fuses a distinct bank (`translate` never serves a quarantined
    ///    one) and the remap refuses to fuse the last healthy bank.
    ///
    /// A fault no rung clears is given up on ([`Self::give_up`]).
    /// Every re-read and neighbour probe draws from the fault overlay,
    /// so the order of probes here is part of every pinned result.
    pub fn recover(&mut self, array: &mut impl RecoveryArray, fault: IntegrityFault) -> Duration {
        let cfg = self.cfg;
        let addr = fault.addr;
        self.stats.detected += 1;
        let mut delay = Duration::ZERO;
        for attempt in 0..cfg.max_retries {
            delay += cfg.retry_delay(attempt);
            self.stats.retried += 1;
            if array.reread(self, addr, fault.phys) {
                return delay;
            }
        }
        delay += cfg.resync_latency;
        self.stats.resynced += 1;
        if array.reread(self, addr, fault.phys) {
            return delay;
        }
        if !self.neighbourhood_corrupt(array, fault.phys) {
            let mut from = fault.phys;
            for _ in 0..MAX_RETIREMENTS {
                let Ok(to) = self.remap.retarget(addr) else {
                    self.give_up(addr);
                    return delay;
                };
                array.retire(self, addr, from, to);
                self.stats.migrated += 1;
                delay += cfg.migrate_per_block;
                if array.reread(self, addr, to) {
                    return delay;
                }
                from = to;
            }
        }
        let mut bad_bank = fault.flat_bank;
        loop {
            let Ok(migrated) = array.quarantine(self, bad_bank) else {
                self.give_up(addr);
                return delay;
            };
            self.stats.quarantined += 1;
            self.stats.migrated += migrated as u64;
            delay = delay
                + cfg.quarantine_latency
                + Duration::from_ps(cfg.migrate_per_block.as_ps() * migrated as u64);
            let Ok(phys) = self.remap.translate(addr) else {
                self.give_up(addr);
                return delay;
            };
            if array.reread(self, addr, phys) {
                return delay;
            }
            bad_bank = decode(&self.remap.cfg, phys).flat_bank(&self.remap.cfg) as u64;
        }
    }

    /// Probes the two nearest neighbours of `phys` — the next column of
    /// its row and the next row of its bank — and reports whether either
    /// reads corrupt. Only a corrupt readout that repeats counts: a
    /// transient flip on the probe itself redraws per read and must not
    /// escalate a confined stuck cell straight to bank quarantine.
    fn neighbourhood_corrupt(&self, array: &mut impl RecoveryArray, phys: u64) -> bool {
        let cfg = &self.remap.cfg;
        let d = decode(cfg, phys);
        let row_bytes = cfg.blocks_per_row() * BLOCK_BYTES as u64;
        let sibling = DecodedAddr {
            column: (d.column + BLOCK_BYTES as u64) % row_bytes,
            ..d
        };
        let next_row = DecodedAddr {
            row: (d.row + 1) % cfg.rows_per_bank(),
            ..d
        };
        [sibling, next_row].iter().any(|n| {
            let a = encode(cfg, n);
            array.neighbour_flagged(a) && array.neighbour_flagged(a)
        })
    }

    /// Emits the `recovery.*` metrics subtree.
    pub fn observe(&self, out: &mut MetricsNode) {
        self.stats.observe(out);
        out.set_counter(
            "quarantined_banks",
            (self.remap.cfg.total_banks() - self.remap.healthy) as u64,
        );
        out.set_counter("remapped_blocks", self.remap.remapped_blocks() as u64);
        out.set_counter("journal_len", self.journal.len() as u64);
        out.set_counter("degraded_blocks", self.degraded.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn small_cfg() -> MemConfig {
        // 2 channels × 2 ranks × 2 banks = 8 flat banks; small rows so
        // tests can exhaust the spare region quickly.
        let mut cfg = MemConfig::table2();
        cfg.channels = 2;
        cfg.capacity_bytes = 1 << 24; // 16 MiB → 2 Ki rows/bank
        cfg
    }

    #[test]
    fn translate_is_identity_until_quarantine() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        for a in [0u64, 0x40, 0x1000, 0x2_0000] {
            assert_eq!(r.translate(a).unwrap(), a);
        }
        assert_eq!(r.healthy_banks(), cfg.total_banks());
    }

    #[test]
    fn quarantine_remaps_into_healthy_banks_only() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        // Find an address in bank 0 and quarantine that bank.
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        assert!(r.quarantine(0).unwrap());
        assert!(!r.quarantine(0).unwrap(), "second quarantine is a no-op");
        let t = r.translate(victim).unwrap();
        assert_ne!(t, victim);
        assert_ne!(decode(&cfg, t).flat_bank(&cfg), 0, "spare must be healthy");
        // Stable: same logical → same spare.
        assert_eq!(r.translate(victim).unwrap(), t);
        assert_eq!(r.logical_of(t), victim);
    }

    #[test]
    fn last_healthy_bank_is_refused() {
        let cfg = small_cfg();
        let banks = cfg.total_banks() as u64;
        let mut r = SpareRemap::new(cfg);
        for b in 0..banks - 1 {
            assert!(r.quarantine(b).unwrap());
        }
        assert_eq!(
            r.quarantine(banks - 1),
            Err(RecoveryError::LastHealthyBank { bank: banks - 1 })
        );
        assert_eq!(r.healthy_banks(), 1);
    }

    #[test]
    fn retarget_moves_off_a_newly_dead_spare_bank() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        r.quarantine(0).unwrap();
        let first = r.translate(victim).unwrap();
        let spare_bank = decode(&cfg, first).flat_bank(&cfg) as u64;
        r.quarantine(spare_bank).unwrap();
        let second = r.retarget(victim).unwrap();
        assert_ne!(second, first);
        assert!(!r.is_quarantined(decode(&cfg, second).flat_bank(&cfg) as u64));
        assert_eq!(r.logical_of(second), victim);
        assert_eq!(r.logical_of(first), first, "old spare slot is released");
    }

    /// Regression: `translate` must never return a slot in a quarantined
    /// bank — not even for a spare assigned before that bank was fused
    /// out. (Never-stored spares are skipped by the cohort migration, so
    /// without the in-place reassignment a caller's cascading-quarantine
    /// loop would re-probe the same dead slot forever.)
    #[test]
    fn translate_reassigns_spares_stranded_in_fused_banks() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        r.quarantine(0).unwrap();
        let first = r.translate(victim).unwrap();
        let spare_bank = decode(&cfg, first).flat_bank(&cfg) as u64;
        r.quarantine(spare_bank).unwrap();
        // No retarget call: plain translate must notice and move.
        let second = r.translate(victim).unwrap();
        assert_ne!(second, first);
        assert!(!r.is_quarantined(decode(&cfg, second).flat_bank(&cfg) as u64));
        assert_eq!(r.translate(victim).unwrap(), second, "then stays stable");
        assert_eq!(r.logical_of(second), victim);
    }

    /// First slot the spare cursor would hand out in `flat_bank` (top
    /// row, column 0) — the collision point for workload addresses that
    /// decode into the spare region.
    fn first_spare_slot(cfg: &MemConfig, flat_bank: usize) -> u64 {
        let d = DecodedAddr {
            channel: flat_bank / (cfg.ranks_per_channel * cfg.banks_per_rank),
            rank: (flat_bank / cfg.banks_per_rank) % cfg.ranks_per_channel,
            bank: flat_bank % cfg.banks_per_rank,
            row: cfg.rows_per_bank() - 1,
            column: 0,
        };
        encode(cfg, &d)
    }

    #[test]
    fn assign_spare_skips_identity_live_addresses() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        // Serve the cursor's first candidate slot (top row of bank 0)
        // at identity *before* any spare is handed out.
        let top = first_spare_slot(&cfg, 0);
        assert_eq!(r.translate(top).unwrap(), top);
        // Quarantine a different bank and displace one of its blocks:
        // the spare must skip the identity-live slot.
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 1)
            .unwrap();
        r.quarantine(1).unwrap();
        let spare = r.translate(victim).unwrap();
        assert_ne!(spare, top, "spare cursor must not reuse a live slot");
        assert_eq!(r.translate(top).unwrap(), top, "identity block unmoved");
        assert_eq!(r.logical_of(spare), victim);
    }

    #[test]
    fn identity_address_aliasing_an_assigned_spare_is_displaced() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 1)
            .unwrap();
        r.quarantine(1).unwrap();
        let spare = r.translate(victim).unwrap();
        // A workload block whose address *is* the handed-out spare slot
        // arrives afterwards: it must not share the slot.
        let t = r.translate(spare).unwrap();
        assert_ne!(t, spare, "identity alias of a spare must be displaced");
        assert_eq!(r.logical_of(t), spare);
        assert_eq!(r.logical_of(spare), victim, "original mapping intact");
        assert_eq!(r.translate(victim).unwrap(), spare);
    }

    #[test]
    fn stale_identity_slots_are_not_current_homes() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        r.quarantine(0).unwrap();
        let spare = r.translate(victim).unwrap();
        assert!(r.is_current_home(spare), "assigned spare is the home");
        assert!(
            !r.is_current_home(victim),
            "displaced block's identity slot is stale"
        );
        assert!(r.is_current_home(victim + 64 * 1024), "untouched identity");
    }

    #[test]
    fn giving_up_counts_each_block_once() {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        assert!(!rc.is_degraded(0x40));
        rc.give_up(0x40);
        rc.give_up(0x40);
        assert!(rc.is_degraded(0x40));
        assert_eq!(rc.stats.unrecovered, 1, "only the first give-up counts");
    }

    /// A scripted array for driving the ladder: which slots read
    /// corrupt, and a log of what the ladder asked of it.
    #[derive(Default)]
    struct Scripted {
        cfg: MemConfig,
        /// Re-reads that fail, whatever the slot, before the script's
        /// other rules apply.
        transient: u32,
        /// Slots that read corrupt every time.
        dead_slots: BTreeSet<u64>,
        /// Banks whose every slot reads corrupt.
        dead_banks: BTreeSet<u64>,
        /// The spare region's top row reads corrupt until the first
        /// quarantine.
        bad_spares: bool,
        /// Blocks each quarantine reports migrated.
        cohort: usize,
        retired: Vec<(u64, u64)>,
        quarantined: Vec<u64>,
    }

    impl Scripted {
        fn new() -> Self {
            Scripted {
                cfg: small_cfg(),
                ..Scripted::default()
            }
        }

        fn corrupt(&self, phys: u64) -> bool {
            let d = decode(&self.cfg, phys);
            self.dead_slots.contains(&phys)
                || self.dead_banks.contains(&(d.flat_bank(&self.cfg) as u64))
                || (self.bad_spares
                    && self.quarantined.is_empty()
                    && d.row == self.cfg.rows_per_bank() - 1)
        }
    }

    impl RecoveryArray for Scripted {
        fn reread(&mut self, _rc: &mut RecoveryController, _addr: u64, phys: u64) -> bool {
            if self.transient > 0 {
                self.transient -= 1;
                return false;
            }
            !self.corrupt(phys)
        }

        fn neighbour_flagged(&mut self, phys: u64) -> bool {
            self.corrupt(phys)
        }

        fn retire(&mut self, _rc: &mut RecoveryController, _addr: u64, from: u64, to: u64) {
            self.retired.push((from, to));
        }

        fn quarantine(
            &mut self,
            rc: &mut RecoveryController,
            flat_bank: u64,
        ) -> Result<usize, RecoveryError> {
            rc.remap_mut().quarantine(flat_bank)?;
            self.quarantined.push(flat_bank);
            Ok(self.cohort)
        }
    }

    /// The block every scripted fault strikes: the first one in bank 0.
    fn demand_block() -> u64 {
        let cfg = small_cfg();
        (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap()
    }

    /// Runs the ladder once for a fault on [`demand_block`]; returns the
    /// controller and the delay.
    fn climb(array: &mut Scripted) -> (RecoveryController, Duration) {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        let addr = demand_block();
        let phys = rc.remap_mut().translate(addr).unwrap();
        let fault = IntegrityFault {
            addr,
            phys,
            flat_bank: 0,
            observed: None,
        };
        let delay = rc.recover(array, fault);
        (rc, delay)
    }

    /// `[detected, retried, resynced, quarantined, migrated, unrecovered]`.
    fn counts(rc: &RecoveryController) -> [u64; 6] {
        let s = rc.stats;
        [
            s.detected,
            s.retried,
            s.resynced,
            s.quarantined,
            s.migrated,
            s.unrecovered,
        ]
    }

    /// Default costs: retries back off 50 + 100 + 200 + 400 ns, resync
    /// 200 ns, quarantine 2000 ns, 300 ns per migrated block.
    const ALL_RETRIES_NS: u64 = 750;

    #[test]
    fn ladder_clears_a_transient_on_retry_k() {
        let mut a = Scripted::new();
        a.transient = 2;
        let (rc, delay) = climb(&mut a);
        assert_eq!(counts(&rc), [1, 3, 0, 0, 0, 0]);
        assert_eq!(delay, Duration::from_ns(50 + 100 + 200));
    }

    #[test]
    fn ladder_clears_a_fault_by_resync() {
        let mut a = Scripted::new();
        a.transient = 4;
        let (rc, delay) = climb(&mut a);
        assert_eq!(counts(&rc), [1, 4, 1, 0, 0, 0]);
        assert_eq!(delay, Duration::from_ns(ALL_RETRIES_NS + 200));
    }

    #[test]
    fn ladder_retires_a_confined_fault_to_a_spare() {
        let mut a = Scripted::new();
        a.dead_slots.insert(demand_block());
        let (mut rc, delay) = climb(&mut a);
        let spare = rc.remap_mut().translate(demand_block()).unwrap();
        assert_eq!(a.retired, vec![(demand_block(), spare)]);
        assert!(a.quarantined.is_empty());
        assert_eq!(counts(&rc), [1, 4, 1, 0, 1, 0]);
        assert_eq!(delay, Duration::from_ns(ALL_RETRIES_NS + 200 + 300));
    }

    #[test]
    fn ladder_quarantines_after_a_streak_of_bad_spares() {
        let mut a = Scripted::new();
        a.dead_slots.insert(demand_block());
        a.bad_spares = true;
        a.cohort = 3;
        let (rc, delay) = climb(&mut a);
        assert_eq!(a.retired.len(), MAX_RETIREMENTS);
        assert_eq!(a.quarantined, vec![0]);
        assert_eq!(counts(&rc), [1, 4, 1, 1, 4 + 3, 0]);
        assert_eq!(
            delay,
            Duration::from_ns(ALL_RETRIES_NS + 200 + 4 * 300 + 2000 + 3 * 300)
        );
    }

    #[test]
    fn ladder_cascades_quarantine_across_two_banks() {
        let mut a = Scripted::new();
        a.dead_banks.extend([0, 1]);
        let (mut rc, delay) = climb(&mut a);
        assert!(
            a.retired.is_empty(),
            "a dead neighbourhood skips retirement"
        );
        assert_eq!(a.quarantined, vec![0, 1]);
        assert_eq!(counts(&rc), [1, 4, 1, 2, 0, 0]);
        assert_eq!(delay, Duration::from_ns(ALL_RETRIES_NS + 200 + 2 * 2000));
        let home = rc.remap_mut().translate(demand_block()).unwrap();
        assert_eq!(decode(&a.cfg, home).flat_bank(&a.cfg), 2);
    }

    #[test]
    fn ladder_gives_up_when_the_last_healthy_bank_is_refused() {
        let mut a = Scripted::new();
        let banks = a.cfg.total_banks() as u64;
        a.dead_banks.extend(0..banks);
        a.cohort = 1;
        let (rc, delay) = climb(&mut a);
        assert_eq!(a.quarantined, (0..banks - 1).collect::<Vec<_>>());
        assert_eq!(counts(&rc), [1, 4, 1, banks - 1, banks - 1, 1]);
        assert_eq!(
            delay,
            Duration::from_ns(ALL_RETRIES_NS + 200 + (banks - 1) * (2000 + 300))
        );
        assert!(
            rc.is_degraded(demand_block()),
            "served degraded from now on"
        );
    }

    #[test]
    fn retry_delay_backs_off_exponentially_and_caps() {
        let cfg = RecoveryConfig::default();
        assert_eq!(cfg.retry_delay(0), Duration::from_ns(50));
        assert_eq!(cfg.retry_delay(1), Duration::from_ns(100));
        assert_eq!(cfg.retry_delay(3), Duration::from_ns(400));
        assert_eq!(cfg.retry_delay(4), Duration::from_ns(800));
        assert_eq!(cfg.retry_delay(40), Duration::from_ns(800), "capped");
    }

    #[test]
    fn digests_seed_lazily_and_update_on_write() {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        let clean = [7u8; 64];
        assert!(rc.verify(0x40, &clean, &clean));
        let mut bad = clean;
        bad[0] ^= 1;
        assert!(!rc.verify(0x40, &bad, &clean));
        rc.note_write(0x40, &bad);
        assert!(rc.verify(0x40, &bad, &clean), "write moves the expectation");
    }

    #[test]
    fn observe_emits_phase_counters() {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        rc.stats.detected = 3;
        rc.stats.unrecovered = 1;
        rc.stats.migrated = 1;
        rc.remap_mut().quarantine(2).unwrap();
        rc.record_migration(MigrationRecord {
            logical: 0x40,
            from: 0x40,
            to: 0x80,
        });
        let mut m = MetricsNode::new();
        rc.observe(&mut m);
        assert_eq!(m.counter("detected"), Some(3));
        assert_eq!(m.counter("unrecovered"), Some(1));
        assert_eq!(m.counter("quarantined_banks"), Some(1));
        assert_eq!(m.counter("migrated"), Some(1));
        assert_eq!(m.counter("journal_len"), Some(1));
    }

    proptest::proptest! {
        #[test]
        fn remap_is_a_bijection_off_quarantined_banks(
            dead in proptest::collection::vec(0u64..8, 4),
            // Spans the whole address space — including the top rows the
            // spare cursor carves from, so identity blocks colliding
            // with the spare region are exercised, not just the
            // "workloads live at the bottom" happy path.
            blocks in proptest::collection::vec(0u64..(1u64 << 18), 64)
        ) {
            let cfg = small_cfg();
            let mut r = SpareRemap::new(cfg.clone());
            for b in dead {
                // Refusal of the last healthy bank is fine; everything
                // else must succeed.
                let _ = r.quarantine(b);
            }
            let live: Vec<u64> = blocks.iter().map(|b| b * 64).collect();
            let mut targets = std::collections::BTreeMap::new();
            for &a in &live {
                let t = r.translate(a).unwrap();
                // Never lands in a quarantined bank.
                let fb = decode(&cfg, t).flat_bank(&cfg) as u64;
                proptest::prop_assert!(!r.is_quarantined(fb));
                // Stable under re-translation.
                proptest::prop_assert_eq!(r.translate(a).unwrap(), t);
                // Injective: distinct logical addresses never share a
                // physical slot.
                if let Some(prev) = targets.insert(t, a) {
                    proptest::prop_assert_eq!(prev, a, "two blocks mapped to one slot");
                }
                // Round trip through the inverse.
                proptest::prop_assert_eq!(r.logical_of(t), if t == a { t } else { a });
            }
        }
    }
}
