//! Per-bank row-buffer state machine with PCM timing.
//!
//! Following Lee et al. (the paper's PCM parameter source), each bank
//! fronts its PCM array with a row buffer:
//!
//! * **row hit** — data served from the buffer in tCL.
//! * **row miss, clean buffer** — activate the new row (tRCD, the 60 ns
//!   PCM array read) then tCL.
//! * **row miss, dirty buffer** — first write the dirty buffer back to the
//!   PCM cells (tRP, the 150 ns PCM array write), then activate + tCL.
//!
//! PCM cell writes therefore happen **only on dirty-row eviction** — the
//! property ObfusMem's fixed-address dummy design leans on (dropping dummy
//! writes before they dirty anything costs no endurance).

use obfusmem_sim::time::{Duration, Time};

use crate::config::MemConfig;
use crate::request::AccessKind;

/// Outcome category of a bank access, for stats and energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBufferOutcome {
    /// The target row was already open.
    Hit,
    /// A different (or no) row was open and the buffer was clean.
    MissClean,
    /// A different row was open and dirty: a PCM array write occurred.
    MissDirty,
}

/// One bank's state.
#[derive(Debug, Clone)]
pub struct Bank {
    open_row: Option<u64>,
    dirty: bool,
    busy_until: Time,
    /// Row whose cells absorbed the most recent dirty eviction (for wear
    /// accounting by the caller).
    last_evicted_row: Option<u64>,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A bank with no open row.
    pub fn new() -> Self {
        Bank {
            open_row: None,
            dirty: false,
            busy_until: Time::ZERO,
            last_evicted_row: None,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Whether the open row buffer holds unwritten data.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// When the bank next becomes available.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Row written back to the array by the most recent access, if that
    /// access evicted a dirty row.
    pub fn take_evicted_row(&mut self) -> Option<u64> {
        self.last_evicted_row.take()
    }

    /// Performs an access to `row` arriving at `at`, returning when the
    /// bank finishes its part (excluding data-bus transfer) and the
    /// row-buffer outcome.
    pub fn access(
        &mut self,
        cfg: &MemConfig,
        at: Time,
        row: u64,
        kind: AccessKind,
    ) -> (Time, RowBufferOutcome) {
        let start = at.max(self.busy_until);
        self.last_evicted_row = None;
        let (latency, outcome) = match self.open_row {
            Some(open) if open == row => (cfg.t_cl, RowBufferOutcome::Hit),
            Some(open) => {
                if self.dirty {
                    // Write dirty buffer to cells, then activate new row.
                    self.last_evicted_row = Some(open);
                    (cfg.t_rp + cfg.t_rcd + cfg.t_cl, RowBufferOutcome::MissDirty)
                } else {
                    (cfg.t_rcd + cfg.t_cl, RowBufferOutcome::MissClean)
                }
            }
            None => (cfg.t_rcd + cfg.t_cl, RowBufferOutcome::MissClean),
        };
        if outcome != RowBufferOutcome::Hit {
            self.open_row = Some(row);
            self.dirty = false;
        }
        if kind == AccessKind::Write {
            self.dirty = true;
        }
        let done = start + latency;
        self.busy_until = done;
        (done, outcome)
    }

    /// Open-adaptive page policy hook: close the row (writing it back if
    /// dirty) when the scheduler predicts no more hits. A dirty close
    /// keeps the bank busy `t_rp` longer.
    pub fn close(&mut self, cfg: &MemConfig, at: Time) {
        let start = at.max(self.busy_until);
        let cost = if self.dirty {
            self.last_evicted_row = self.open_row;
            cfg.t_rp
        } else {
            Duration::ZERO
        };
        self.open_row = None;
        self.dirty = false;
        self.busy_until = start + cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig::table2()
    }

    #[test]
    fn first_access_is_a_clean_miss() {
        let mut b = Bank::new();
        let (done, outcome) = b.access(&cfg(), Time::ZERO, 5, AccessKind::Read);
        assert_eq!(outcome, RowBufferOutcome::MissClean);
        // tRCD 60 ns + tCL 13.75 ns
        assert_eq!(done.as_ps(), 73_750);
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut b = Bank::new();
        let (t1, _) = b.access(&cfg(), Time::ZERO, 5, AccessKind::Read);
        let (t2, outcome) = b.access(&cfg(), t1, 5, AccessKind::Read);
        assert_eq!(outcome, RowBufferOutcome::Hit);
        assert_eq!(t2.since(t1), cfg().t_cl);
    }

    #[test]
    fn dirty_eviction_pays_pcm_write() {
        let mut b = Bank::new();
        let (t1, _) = b.access(&cfg(), Time::ZERO, 5, AccessKind::Write);
        assert!(b.is_dirty());
        let (t2, outcome) = b.access(&cfg(), t1, 9, AccessKind::Read);
        assert_eq!(outcome, RowBufferOutcome::MissDirty);
        assert_eq!(t2.since(t1), cfg().t_rp + cfg().t_rcd + cfg().t_cl);
        assert_eq!(b.take_evicted_row(), Some(5));
        assert_eq!(b.take_evicted_row(), None, "evicted row is consumed once");
    }

    #[test]
    fn clean_eviction_skips_pcm_write() {
        let mut b = Bank::new();
        let (t1, _) = b.access(&cfg(), Time::ZERO, 5, AccessKind::Read);
        let (t2, outcome) = b.access(&cfg(), t1, 9, AccessKind::Read);
        assert_eq!(outcome, RowBufferOutcome::MissClean);
        assert_eq!(t2.since(t1), cfg().t_rcd + cfg().t_cl);
        assert_eq!(b.take_evicted_row(), None);
    }

    #[test]
    fn read_after_write_same_row_stays_dirty() {
        let mut b = Bank::new();
        b.access(&cfg(), Time::ZERO, 5, AccessKind::Write);
        b.access(&cfg(), Time::from_ps(1_000_000), 5, AccessKind::Read);
        assert!(b.is_dirty(), "reading an open dirty row must not clean it");
    }

    #[test]
    fn busy_bank_queues_requests() {
        let mut b = Bank::new();
        let (t1, _) = b.access(&cfg(), Time::ZERO, 5, AccessKind::Read);
        // Arrives while the bank is still busy: starts at t1.
        let (t2, _) = b.access(&cfg(), Time::from_ps(10), 5, AccessKind::Read);
        assert_eq!(t2, t1 + cfg().t_cl);
    }

    #[test]
    fn close_clean_is_free_close_dirty_pays() {
        let mut b = Bank::new();
        b.access(&cfg(), Time::ZERO, 5, AccessKind::Read);
        let (at, busy) = (Time::from_ps(100_000), b.busy_until());
        b.close(&cfg(), at);
        assert_eq!(b.busy_until(), at.max(busy));
        b.access(&cfg(), Time::from_ps(200_000), 6, AccessKind::Write);
        let (at, busy) = (Time::from_ps(400_000), b.busy_until());
        b.close(&cfg(), at);
        assert_eq!(b.busy_until(), at.max(busy) + cfg().t_rp);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.take_evicted_row(), Some(6));
    }
}
