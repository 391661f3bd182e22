//! PCM energy and wear (endurance) accounting — substrate for §5.2.
//!
//! The paper's energy argument uses two constants: a PCM cell **write
//! costs 6.8× the energy of a read** (Lee et al.), and PCM cells endure a
//! few hundred million writes. ORAM's ~100-block path read/evict per
//! access then costs `(1 + 6.8) × 100 = 780×` the read energy, while
//! ObfusMem's read-then-write pair averages `(1 + 6.8)/2 = 3.9×` — and
//! ObfusMem's dropped fixed-address dummy writes cost no endurance at all.
//!
//! [`EnergyModel`] turns array-operation counts into energy; [`WearTracker`]
//! tracks per-row write counts and projects lifetime.

use std::collections::HashMap;

/// Relative (or absolute, if you pass Joules) energy costs of PCM array
/// operations at block granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one block read from the array.
    pub read_energy: f64,
    /// Energy of one block write to the array (paper: 6.8 × read).
    pub write_energy: f64,
}

impl EnergyModel {
    /// The paper's relative model: read = 1, write = 6.8.
    pub fn paper_relative() -> Self {
        EnergyModel {
            read_energy: 1.0,
            write_energy: 6.8,
        }
    }

    /// Energy for a batch of array operations.
    pub fn array_energy(&self, block_reads: u64, block_writes: u64) -> f64 {
        block_reads as f64 * self.read_energy + block_writes as f64 * self.write_energy
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper_relative()
    }
}

/// Tracks writes per (bank, row) and projects device lifetime.
///
/// Real PCM controllers level wear; the comparison the paper makes is
/// about *total* and *maximum* write counts, which this captures directly.
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    writes: HashMap<(usize, u64), u64>,
    total_writes: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a PCM array write to `row` of `bank`.
    pub fn record_write(&mut self, bank: usize, row: u64) {
        *self.writes.entry((bank, row)).or_insert(0) += 1;
        self.total_writes += 1;
    }

    /// Total array writes observed.
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// The most-written row's write count (0 when nothing written).
    pub fn max_row_writes(&self) -> u64 {
        self.writes.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct rows ever written.
    pub fn rows_touched(&self) -> usize {
        self.writes.len()
    }

    /// Projects lifetime as a fraction: with cells enduring
    /// `endurance_writes`, returns the fraction of endurance consumed by
    /// the hottest row (1.0 = worn out).
    pub fn endurance_consumed(&self, endurance_writes: u64) -> f64 {
        assert!(endurance_writes > 0, "endurance must be nonzero");
        self.max_row_writes() as f64 / endurance_writes as f64
    }

    /// Lifetime ratio versus another run: how many times longer this
    /// device lasts than `other` under the same endurance budget.
    /// `None` when this tracker saw no writes (infinite relative lifetime).
    pub fn lifetime_ratio_vs(&self, other: &WearTracker) -> Option<f64> {
        let mine = self.max_row_writes();
        let theirs = other.max_row_writes();
        if mine == 0 {
            None
        } else {
            Some(theirs as f64 / mine as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_energy_ratios() {
        let m = EnergyModel::paper_relative();
        // ORAM: read + write 100 blocks per access.
        let oram = m.array_energy(100, 100);
        assert!((oram - 780.0).abs() < 1e-9);
        // ObfusMem: one read or one write per access, 50:50 mix.
        let obfus = m.array_energy(1, 1) / 2.0;
        assert!((obfus - 3.9).abs() < 1e-9);
        // The 200× reduction quoted in §5.2.
        assert!((oram / obfus - 200.0).abs() < 1e-9);
    }

    #[test]
    fn wear_tracks_hottest_row() {
        let mut w = WearTracker::new();
        for _ in 0..5 {
            w.record_write(0, 1);
        }
        w.record_write(0, 2);
        w.record_write(3, 1);
        assert_eq!(w.total_writes(), 7);
        assert_eq!(w.max_row_writes(), 5);
        assert_eq!(w.rows_touched(), 3);
    }

    #[test]
    fn endurance_projection() {
        let mut w = WearTracker::new();
        for _ in 0..100 {
            w.record_write(0, 0);
        }
        assert!((w.endurance_consumed(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn lifetime_ratio() {
        let mut obfus = WearTracker::new();
        let mut oram = WearTracker::new();
        for _ in 0..10 {
            obfus.record_write(0, 0);
        }
        for _ in 0..1000 {
            oram.record_write(0, 0);
        }
        assert_eq!(obfus.lifetime_ratio_vs(&oram), Some(100.0));
        assert_eq!(WearTracker::new().lifetime_ratio_vs(&oram), None);
    }

    #[test]
    fn empty_tracker_is_sane() {
        let w = WearTracker::new();
        assert_eq!(w.max_row_writes(), 0);
        assert_eq!(w.endurance_consumed(100), 0.0);
    }
}
