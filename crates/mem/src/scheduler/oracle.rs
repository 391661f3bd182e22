//! The full-scan FR-FCFS picker, kept as a test oracle for the lane
//! picker in [`super::FrFcfsScheduler`].
//!
//! Every pick rescans every pending request of every bank, then applies
//! starvation aging, the reorder check, the bank access, and the
//! open-adaptive close by scanning the picked bank's whole queue. It
//! shares only the bank state machine and the result types with the
//! production controller, so a differential test against it checks the
//! lanes, the tournament, and the cached oldest arrivals.

use obfusmem_sim::stats::Histogram;
use obfusmem_sim::time::Time;

use super::{Completion, RequestId, SchedulerStats};
use crate::addr::DecodedAddr;
use crate::bank::{Bank, RowBufferOutcome};
use crate::channel::{BankStats, ChannelStats};
use crate::config::MemConfig;
use crate::request::AccessKind;

/// The FR-FCFS priority `(start, !row_hit, class, arrival, id)`.
type Priority = (Time, bool, u8, Time, RequestId);

#[derive(Debug, Clone)]
struct Entry {
    id: RequestId,
    decoded: DecodedAddr,
    kind: AccessKind,
    arrival: Time,
    class: u8,
    bypassed: u32,
}

/// One channel's controller with a full-scan picker.
#[derive(Debug)]
pub(crate) struct FullScan {
    cfg: MemConfig,
    banks: Vec<(Bank, Vec<Entry>)>,
    request_lane_free: Time,
    response_lane_free: Time,
    pub(crate) completions: Vec<Completion>,
    pub(crate) cell_writes: Vec<(usize, u64)>,
    pub(crate) stats: SchedulerStats,
    pub(crate) channel_stats: ChannelStats,
    pub(crate) bank_stats: Vec<BankStats>,
    pub(crate) depth_hist: Histogram,
    pending: usize,
    starvation_limit: u32,
}

impl FullScan {
    pub(crate) fn new(cfg: MemConfig, starvation_limit: u32) -> Self {
        let count = cfg.ranks_per_channel * cfg.banks_per_rank;
        FullScan {
            cfg,
            banks: (0..count).map(|_| (Bank::new(), Vec::new())).collect(),
            request_lane_free: Time::ZERO,
            response_lane_free: Time::ZERO,
            completions: Vec::new(),
            cell_writes: Vec::new(),
            stats: SchedulerStats::default(),
            channel_stats: ChannelStats::default(),
            bank_stats: vec![BankStats::default(); count],
            depth_hist: Histogram::new(),
            pending: 0,
            starvation_limit: starvation_limit.max(1),
        }
    }

    pub(crate) fn enqueue(
        &mut self,
        id: RequestId,
        at: Time,
        decoded: DecodedAddr,
        kind: AccessKind,
        class: u8,
    ) {
        let index = decoded.rank * self.cfg.banks_per_rank + decoded.bank;
        let pending = &mut self.banks[index].1;
        let pos = pending.partition_point(|e| (e.arrival, e.id) <= (at, id));
        pending.insert(
            pos,
            Entry {
                id,
                decoded,
                kind,
                arrival: at,
                class,
                bypassed: 0,
            },
        );
        self.pending += 1;
        self.depth_hist.record(self.pending as u64);
    }

    pub(crate) fn run_until(&mut self, until: Time) {
        while self.service_next(until).is_some() {}
    }

    pub(crate) fn run_until_completed(&mut self, id: RequestId) {
        while let Some(serviced) = self.service_next(Time::from_ps(u64::MAX)) {
            if serviced == id {
                return;
            }
        }
        panic!("request {id:?} was not pending");
    }

    fn service_next(&mut self, until: Time) -> Option<RequestId> {
        // The minimum priority over every pending entry, with its place.
        let mut best: Option<(Priority, usize, usize)> = None;
        for (b, (bank, pending)) in self.banks.iter().enumerate() {
            for (slot, e) in pending.iter().enumerate() {
                let start = e.arrival.max(bank.busy_until());
                if start > until {
                    continue;
                }
                let key = (
                    start,
                    bank.open_row() != Some(e.decoded.row),
                    e.class,
                    e.arrival,
                    e.id,
                );
                if best.is_none_or(|(k, _, _)| key < k) {
                    best = Some((key, b, slot));
                }
            }
        }
        let ((start, ..), b, slot) = best?;
        let entry = self.banks[b].1.remove(slot);
        self.pending -= 1;

        let limit = self.starvation_limit;
        for e in self.banks[b].1.iter_mut() {
            if e.class > 0 && (e.arrival, e.id) < (entry.arrival, entry.id) {
                e.bypassed += 1;
                if e.bypassed >= limit {
                    e.class = 0;
                    self.stats.starvation_promotions.incr();
                }
            }
        }
        if self
            .banks
            .iter()
            .any(|(_, p)| p.iter().any(|e| e.arrival < entry.arrival))
        {
            self.stats.reordered.incr();
        }

        let bank = &mut self.banks[b].0;
        let (bank_done, outcome) = bank.access(&self.cfg, start, entry.decoded.row, entry.kind);
        let evicted_row = bank.take_evicted_row();
        let lane_free = match entry.kind {
            AccessKind::Read => &mut self.response_lane_free,
            AccessKind::Write => &mut self.request_lane_free,
        };
        let complete = bank_done.max(*lane_free) + self.cfg.t_burst;
        *lane_free = complete;

        let row_hit = outcome == RowBufferOutcome::Hit;
        self.stats.serviced.incr();
        match entry.kind {
            AccessKind::Read => self.channel_stats.reads.incr(),
            AccessKind::Write => self.channel_stats.writes.incr(),
        }
        let per_bank = &mut self.bank_stats[b];
        per_bank.accesses.incr();
        match outcome {
            RowBufferOutcome::Hit => {
                self.stats.row_hits.incr();
                self.channel_stats.row_hits.incr();
                per_bank.row_hits.incr();
            }
            RowBufferOutcome::MissClean => {
                self.channel_stats.row_misses_clean.incr();
                per_bank.row_misses_clean.incr();
            }
            RowBufferOutcome::MissDirty => {
                self.channel_stats.row_misses_dirty.incr();
                per_bank.row_misses_dirty.incr();
            }
        }
        self.channel_stats.bus_busy_ps.add(self.cfg.t_burst.as_ps());
        self.completions.push(Completion {
            id: entry.id,
            at: complete,
            row_hit,
            kind: entry.kind,
            decoded: entry.decoded,
            outcome,
            evicted_row,
        });

        let (bank, pending) = &mut self.banks[b];
        let open_row = bank.open_row();
        let same_row = pending.iter().any(|e| Some(e.decoded.row) == open_row);
        let other_row = pending.iter().any(|e| Some(e.decoded.row) != open_row);
        if !same_row && other_row {
            bank.close(&self.cfg, complete);
            if let Some(row) = bank.take_evicted_row() {
                self.cell_writes.push((b, row));
            }
            self.stats.adaptive_closes.incr();
        }
        Some(entry.id)
    }
}
