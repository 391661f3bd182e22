//! Seeded device-fault processes for the PCM array (chaos campaigns).
//!
//! The link layer (`obfusmem_core::link`'s `FaultyLink`) hardens the
//! *bus*; this module injects faults *inside the module's trust
//! boundary*: the stored array bytes themselves. Four processes model the
//! classic DRAM/PCM failure taxonomy:
//!
//! * **transient bit flips** — a random bit of a block reads wrong once;
//!   a re-read returns the correct value (retry heals);
//! * **stuck-at cells** — one bit of a block is frozen at a fixed value;
//!   every read of that block corrupts the same bit (persistent);
//! * **row failures** — a whole row reads as deterministic garbage;
//! * **bank failures** — every row of a bank reads as garbage.
//!
//! All processes are *keyed* draws from [`SplitMix64`] streams derived
//! from `(seed, salt, location)` — never from call order — so a fault
//! campaign is a pure function of the plan: the same bank is dead in
//! every replay, the same cell is stuck, and a transient flip on read
//! *n* of a block reproduces exactly. Mirroring `FaultPlan`'s
//! discipline, an all-zero plan (the default) never constructs any
//! runtime state and fault-free runs stay byte-identical.

use std::collections::HashMap;

use obfusmem_sim::rng::SplitMix64;

use crate::request::{BlockAddr, BlockData, BLOCK_BYTES};

/// One device-fault process (the chaos-campaign axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFaultKind {
    /// Transient single-bit flip: wrong on this read, clean on re-read.
    BitFlip,
    /// Persistent stuck-at cell: one bit of the block is frozen.
    StuckCell,
    /// Persistent whole-row failure: the row reads as garbage.
    RowFail,
    /// Persistent whole-bank failure: every row of the bank is garbage.
    BankFail,
}

/// Every device fault kind, in canonical campaign order.
pub const ALL_DEVICE_FAULT_KINDS: [DeviceFaultKind; 4] = [
    DeviceFaultKind::BitFlip,
    DeviceFaultKind::StuckCell,
    DeviceFaultKind::RowFail,
    DeviceFaultKind::BankFail,
];

impl DeviceFaultKind {
    /// Stable CLI / JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceFaultKind::BitFlip => "bit-flip",
            DeviceFaultKind::StuckCell => "stuck-cell",
            DeviceFaultKind::RowFail => "row-fail",
            DeviceFaultKind::BankFail => "bank-fail",
        }
    }

    /// Parses a CLI / spec-file name.
    pub fn parse(s: &str) -> Option<DeviceFaultKind> {
        ALL_DEVICE_FAULT_KINDS.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for DeviceFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Device-fault processes injected into stored array bytes. Rates are
/// Bernoulli probabilities over the relevant population: `bit_flip` is
/// per *read*, `stuck_cell` per *block*, `row_fail` per *row*, and
/// `bank_fail` per *bank*. All-zero rates (the default) keep the device
/// fault-free and bit-identical to pre-fault builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFaultPlan {
    /// Probability a block read suffers a transient single-bit flip.
    pub bit_flip: f64,
    /// Probability a block contains a stuck-at cell.
    pub stuck_cell: f64,
    /// Probability a row has failed outright.
    pub row_fail: f64,
    /// Probability a whole bank has failed.
    pub bank_fail: f64,
    /// Seed for the keyed fault streams.
    pub seed: u64,
}

impl Default for DeviceFaultPlan {
    fn default() -> Self {
        DeviceFaultPlan {
            bit_flip: 0.0,
            stuck_cell: 0.0,
            row_fail: 0.0,
            bank_fail: 0.0,
            seed: 0,
        }
    }
}

impl DeviceFaultPlan {
    /// True when any fault process can fire (the overlay engages).
    pub fn is_active(&self) -> bool {
        self.bit_flip > 0.0 || self.stuck_cell > 0.0 || self.row_fail > 0.0 || self.bank_fail > 0.0
    }

    /// A plan with a single fault process at `rate` (campaign helper).
    pub fn single(kind: DeviceFaultKind, rate: f64, seed: u64) -> Self {
        let mut plan = DeviceFaultPlan {
            seed,
            ..DeviceFaultPlan::default()
        };
        match kind {
            DeviceFaultKind::BitFlip => plan.bit_flip = rate,
            DeviceFaultKind::StuckCell => plan.stuck_cell = rate,
            DeviceFaultKind::RowFail => plan.row_fail = rate,
            DeviceFaultKind::BankFail => plan.bank_fail = rate,
        }
        plan
    }
}

// Domain-separation salts for the keyed draw streams. Distinct salts
// guarantee the per-bank, per-row, per-cell, and per-read processes are
// independent even when their location keys coincide.
const SALT_BANK: u64 = 0xD4A7_FA11_BA4E_0001;
const SALT_ROW: u64 = 0xD4A7_FA11_BA4E_0002;
const SALT_CELL: u64 = 0xD4A7_FA11_BA4E_0003;
const SALT_TRANSIENT: u64 = 0xD4A7_FA11_BA4E_0004;
const SALT_GARBAGE: u64 = 0xD4A7_FA11_BA4E_0005;

/// A keyed stream: a pure function of `(seed, salt, keys)`, independent
/// of draw order — the property that makes campaigns replayable.
fn keyed(seed: u64, salt: u64, keys: &[u64]) -> SplitMix64 {
    let mut rng = SplitMix64::new(seed).split(salt);
    for &k in keys {
        rng = rng.split(k);
    }
    rng
}

/// Runtime fault overlay for one device. Only constructed when the plan
/// [`DeviceFaultPlan::is_active`]; a fault-free device carries `None`
/// and never touches this code.
#[derive(Debug)]
pub struct DeviceFaultState {
    plan: DeviceFaultPlan,
    /// Reads observed per block, keying the transient-flip redraw: read
    /// *n* of a block always draws the same outcome, and a retry is a
    /// fresh draw — exactly how a transient flip heals in hardware.
    read_seq: HashMap<u64, u64>,
    injected: u64,
}

impl DeviceFaultState {
    /// Builds the overlay for `plan`.
    pub fn new(plan: DeviceFaultPlan) -> Self {
        DeviceFaultState {
            plan,
            read_seq: HashMap::new(),
            injected: 0,
        }
    }

    /// The plan this overlay runs.
    pub fn plan(&self) -> &DeviceFaultPlan {
        &self.plan
    }

    /// Total corruptions applied so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// True when `flat_bank` has failed outright (a location-keyed draw;
    /// stable for the life of the campaign).
    pub fn bank_failed(&self, flat_bank: u64) -> bool {
        self.plan.bank_fail > 0.0
            && keyed(self.plan.seed, SALT_BANK, &[flat_bank]).chance(self.plan.bank_fail)
    }

    /// True when `(flat_bank, row)` has failed outright.
    pub fn row_failed(&self, flat_bank: u64, row: u64) -> bool {
        self.plan.row_fail > 0.0
            && keyed(self.plan.seed, SALT_ROW, &[flat_bank, row]).chance(self.plan.row_fail)
    }

    /// Applies the fault processes to `data` as read from `addr` (which
    /// decodes to `flat_bank`/`row`). Returns the dominant fault kind
    /// applied, if any. Each call counts as one array read of the block,
    /// advancing the transient-flip draw sequence.
    ///
    /// Persistent corruption (bank/row/cell) is keyed by location alone,
    /// so re-reading returns the *same* wrong bytes; only the transient
    /// process redraws per read.
    pub fn corrupt(
        &mut self,
        addr: BlockAddr,
        flat_bank: u64,
        row: u64,
        data: &mut BlockData,
    ) -> Option<DeviceFaultKind> {
        let a = addr.as_u64();
        let seq = {
            let c = self.read_seq.entry(a).or_insert(0);
            *c += 1;
            *c
        };
        if self.bank_failed(flat_bank) {
            garbage_into(self.plan.seed, &[1, flat_bank, a], data);
            self.injected += 1;
            return Some(DeviceFaultKind::BankFail);
        }
        if self.row_failed(flat_bank, row) {
            garbage_into(self.plan.seed, &[2, flat_bank, row, a], data);
            self.injected += 1;
            return Some(DeviceFaultKind::RowFail);
        }
        if self.plan.stuck_cell > 0.0 {
            let mut cell = keyed(self.plan.seed, SALT_CELL, &[a]);
            if cell.chance(self.plan.stuck_cell) {
                let bit = cell.below(BLOCK_BYTES as u64 * 8);
                let stuck_high = cell.chance(0.5);
                let (byte, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
                let is_high = data[byte] & mask != 0;
                // A stuck cell only corrupts when the stored bit differs
                // from the frozen value.
                if is_high != stuck_high {
                    data[byte] ^= mask;
                    self.injected += 1;
                    return Some(DeviceFaultKind::StuckCell);
                }
            }
        }
        if self.plan.bit_flip > 0.0 {
            let mut flip = keyed(self.plan.seed, SALT_TRANSIENT, &[a, seq]);
            if flip.chance(self.plan.bit_flip) {
                let bit = flip.below(BLOCK_BYTES as u64 * 8);
                data[(bit / 8) as usize] ^= 1u8 << (bit % 8);
                self.injected += 1;
                return Some(DeviceFaultKind::BitFlip);
            }
        }
        None
    }
}

/// Deterministic garbage for failed rows/banks: keyed by location so the
/// same dead region reads the same wrong bytes on every access.
fn garbage_into(seed: u64, keys: &[u64], data: &mut BlockData) {
    let mut rng = keyed(seed, SALT_GARBAGE, keys);
    for chunk in data.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in ALL_DEVICE_FAULT_KINDS {
            assert_eq!(DeviceFaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DeviceFaultKind::parse("gamma-ray"), None);
    }

    #[test]
    fn default_plan_is_inactive_and_single_activates_one_process() {
        assert!(!DeviceFaultPlan::default().is_active());
        for kind in ALL_DEVICE_FAULT_KINDS {
            let p = DeviceFaultPlan::single(kind, 0.25, 7);
            assert!(p.is_active());
            assert_eq!(p.seed, 7);
        }
        assert_eq!(
            DeviceFaultPlan::single(DeviceFaultKind::RowFail, 0.5, 1).row_fail,
            0.5
        );
    }

    #[test]
    fn transient_flips_redraw_per_read() {
        // At rate 1.0 every read flips exactly one bit, but *which* bit
        // depends on the read sequence number — so two reads of the same
        // block generally corrupt differently (retry gets a fresh draw).
        let mut s =
            DeviceFaultState::new(DeviceFaultPlan::single(DeviceFaultKind::BitFlip, 1.0, 3));
        let addr = BlockAddr::containing(0x40);
        let clean = [0u8; 64];
        let mut a = clean;
        let mut b = clean;
        assert_eq!(
            s.corrupt(addr, 0, 0, &mut a),
            Some(DeviceFaultKind::BitFlip)
        );
        assert_eq!(
            s.corrupt(addr, 0, 0, &mut b),
            Some(DeviceFaultKind::BitFlip)
        );
        assert_ne!(a, clean);
        assert_ne!(b, clean);
        assert_ne!(a, b, "seq-keyed draws must differ across reads");
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn persistent_faults_are_stable_across_rereads() {
        let mut s =
            DeviceFaultState::new(DeviceFaultPlan::single(DeviceFaultKind::BankFail, 1.0, 9));
        let addr = BlockAddr::containing(0x1000);
        let mut a = [0x5Au8; 64];
        let mut b = [0x5Au8; 64];
        s.corrupt(addr, 4, 2, &mut a);
        s.corrupt(addr, 4, 2, &mut b);
        assert_eq!(a, b, "dead-bank garbage must be location-keyed");
        assert_ne!(a, [0x5Au8; 64]);
        // A different bank draws different garbage... if that bank also
        // failed (rate 1.0 fails every bank).
        let mut c = [0x5Au8; 64];
        s.corrupt(addr, 5, 2, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn stuck_cell_only_fires_when_the_stored_bit_differs() {
        let plan = DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 1.0, 11);
        let mut s = DeviceFaultState::new(plan);
        let addr = BlockAddr::containing(0x80);
        let mut first = [0u8; 64];
        let kind = s.corrupt(addr, 0, 0, &mut first);
        // Whichever way the draw went, applying the corruption again to
        // the *corrupted* data is a no-op: the bit now matches the stuck
        // value.
        let mut again = first;
        let second = s.corrupt(addr, 0, 0, &mut again);
        match kind {
            Some(DeviceFaultKind::StuckCell) => {
                assert_eq!(second, None, "stuck bit already matches");
                assert_eq!(again, first);
            }
            None => {
                // Stuck-low cell over all-zero data: flipping every bit
                // must now trigger it.
                let mut ones = [0xFFu8; 64];
                assert_eq!(
                    s.corrupt(addr, 0, 0, &mut ones),
                    Some(DeviceFaultKind::StuckCell)
                );
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn fault_draws_are_order_independent() {
        let plan = DeviceFaultPlan {
            bit_flip: 0.5,
            stuck_cell: 0.5,
            row_fail: 0.5,
            bank_fail: 0.5,
            seed: 42,
        };
        let run = |addrs: &[u64]| -> Vec<[u8; 64]> {
            let mut s = DeviceFaultState::new(plan);
            addrs
                .iter()
                .map(|&a| {
                    let mut d = [0xA5u8; 64];
                    s.corrupt(BlockAddr::containing(a), a % 16, a / 16, &mut d);
                    d
                })
                .collect()
        };
        let forward = run(&[0, 64, 128, 192]);
        let mut reverse = run(&[192, 128, 64, 0]);
        reverse.reverse();
        assert_eq!(forward, reverse, "location-keyed draws ignore call order");
    }

    #[test]
    fn bank_failure_rate_controls_population() {
        let s = DeviceFaultState::new(DeviceFaultPlan::single(
            DeviceFaultKind::BankFail,
            0.25,
            1234,
        ));
        let failed = (0..1000u64).filter(|&b| s.bank_failed(b)).count();
        assert!(
            (150..350).contains(&failed),
            "~25% of banks should fail, got {failed}"
        );
    }
}
