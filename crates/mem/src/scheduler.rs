//! The queued memory controller, with FR-FCFS scheduling and the
//! open-adaptive page policy (both named in the paper's Table 2).
//!
//! The resource-reservation model in [`crate::device`] services requests
//! in arrival order; real controllers *reorder*: First-Ready FCFS picks
//! row-buffer hits over older misses, which is what makes streaming
//! workloads fast and what ObfusMem's fixed-address dummies deliberately
//! avoid disturbing. Selecting [`crate::config::BackendKind::Queued`]
//! routes the full system through this module; EXPERIMENTS.md quantifies
//! where the two models diverge.
//!
//! [`ShardedFrFcfs`] is the one public controller. It decodes each
//! address once, allocates a device-global [`RequestId`], and files the
//! request in the queue of the channel it decodes to.
//! [`crate::device::PcmMemory`] holds one whatever its issue policy, and
//! the tenant fabric holds another.
//!
//! Behind it, each channel has one crate-private queue. A bank's pending
//! requests are split into lanes keyed by `(row, class)`, whose fronts
//! are the only possible picks, and a tournament over the banks
//! re-evaluates only the banks a change touched. The queue keeps only
//! these lanes: the banks, link lanes and counters are the channel's one
//! [`Channel`] datapath, and a pick issues through [`Channel::access`].
//! One queue per channel is also the channel-aliasing fix: the old
//! single-queue controller dropped [`DecodedAddr::channel`] from its bank
//! index, so same-bank rows on *different* channels shared one row
//! buffer and falsely row-hit.
//!
//! **Open-adaptive policy**: after issuing a request, the row is left
//! open if another queued request targets it; if a queued request wants a
//! *different* row of the same bank, the controller precharges early
//! (adaptive close) to hide the PCM write-back behind queueing time.

use std::collections::VecDeque;
use std::hint::select_unpredictable;

use obfusmem_sim::stats::{Counter, Histogram};
use obfusmem_sim::time::Time;

use crate::addr::{decode, DecodedAddr};
use crate::bank::{Bank, RowBufferOutcome};
use crate::channel::{BankStats, Channel, ChannelAccess, ChannelStats};
use crate::config::MemConfig;
use crate::request::AccessKind;

#[cfg(test)]
mod oracle;

/// Identifier for a queued request, allocated by [`ShardedFrFcfs`] in
/// enqueue order and unique across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// How many ids after `first` this one was allocated (`None` if
    /// before it). A batch enqueued back to back gets consecutive ids,
    /// so this indexes a per-batch result table.
    pub(crate) fn offset_from(self, first: RequestId) -> Option<usize> {
        self.0
            .checked_sub(first.0)
            .and_then(|d| usize::try_from(d).ok())
    }
}

/// Same-bank bypass budget before a low-class request is promoted to
/// class 0.
pub const STARVATION_LIMIT: u32 = 16;

/// Sentinel arrival for "nothing pending" in the cached oldest arrivals.
const NEVER: Time = Time::from_ps(u64::MAX);

#[derive(Debug, Clone)]
struct QueueEntry {
    id: RequestId,
    decoded: DecodedAddr,
    kind: AccessKind,
    arrival: Time,
    /// Times a same-bank pick bypassed this entry (starvation aging).
    bypassed: u32,
}

/// A completed request, with everything the device needs to account for
/// it (stats, wear, activations) at service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request.
    pub id: RequestId,
    /// When its data transfer finished.
    pub at: Time,
    /// Whether it hit an open row.
    pub row_hit: bool,
    /// What the request was.
    pub kind: AccessKind,
    /// Where it went.
    pub decoded: DecodedAddr,
    /// Row-buffer outcome at the bank.
    pub outcome: RowBufferOutcome,
    /// Row whose PCM cells absorbed a dirty eviction during this access.
    pub evicted_row: Option<u64>,
}

/// Scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Requests serviced.
    pub serviced: Counter,
    /// Requests issued out of arrival order (the FR-FCFS reorders).
    pub reordered: Counter,
    /// Adaptive early precharges performed.
    pub adaptive_closes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Low-class requests promoted to class 0 after being bypassed
    /// [`STARVATION_LIMIT`] times (QoS anti-starvation).
    pub starvation_promotions: Counter,
}

impl SchedulerStats {
    fn absorb(&mut self, other: &SchedulerStats) {
        self.serviced.add(other.serviced.get());
        self.reordered.add(other.reordered.get());
        self.adaptive_closes.add(other.adaptive_closes.get());
        self.row_hits.add(other.row_hits.get());
        self.starvation_promotions
            .add(other.starvation_promotions.get());
    }
}

/// A bank's FR-FCFS issue choice: the front of one of its lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    start: Time,
    arrival: Time,
    id: RequestId,
    lane: u32,
    /// The two middle priority keys in one: `!row_hit` above the class.
    tie: u16,
}

impl Candidate {
    /// Stands for "nothing pending": loses to every real candidate,
    /// whose `tie` is at most `0x1FF`.
    const NONE: Candidate = Candidate {
        start: NEVER,
        arrival: NEVER,
        id: RequestId(u64::MAX),
        lane: u32::MAX,
        tie: u16::MAX,
    };

    fn is_some(&self) -> bool {
        self.tie != u16::MAX
    }

    /// FR-FCFS priority, the tuple `(start, !row_hit, class, arrival,
    /// id)`: earlier start wins; ties prefer row hits, then higher
    /// traffic class (lower number), then age, then enqueue order (ids
    /// are allocated in enqueue order). Ids are unique, so this is a
    /// strict total order and any correct minimum is the same pick. With
    /// every request at class 0 — all legacy call sites — the class key
    /// is inert and the order is exactly the classic FR-FCFS one.
    ///
    /// Every key is compared without short-circuiting: which key
    /// decides depends on the data, so a branch per key would mispredict.
    fn beats(&self, other: &Candidate) -> bool {
        let (s, o) = (self, other);
        (s.start < o.start)
            | ((s.start == o.start)
                & ((s.tie < o.tie)
                    | ((s.tie == o.tie)
                        & ((s.arrival < o.arrival) | ((s.arrival == o.arrival) & (s.id < o.id))))))
    }
}

/// One bank's pending requests that share a row and a traffic class,
/// sorted by `(arrival, id)`.
///
/// Row-hit status and class are equal across a lane, and a request's
/// start `max(arrival, busy_until)` rises with its arrival, so the
/// lane's front is its best request under [`Candidate::beats`].
#[derive(Debug)]
struct RowLane {
    row: u64,
    class: u8,
    entries: VecDeque<QueueEntry>,
}

/// One bank's pending requests, split into non-empty lanes (in no
/// particular order: `beats` is a total order).
#[derive(Debug)]
struct BankQueue {
    lanes: Vec<RowLane>,
    /// Whether the bank waits in the scheduler's stale list.
    stale: bool,
}

impl BankQueue {
    fn new() -> Self {
        BankQueue {
            lanes: Vec::new(),
            stale: false,
        }
    }

    /// Files `entry` into its `(row, class)` lane, opening the lane with
    /// a recycled buffer from `spare` if it has none.
    fn insert(&mut self, entry: QueueEntry, class: u8, spare: &mut Vec<VecDeque<QueueEntry>>) {
        let row = entry.decoded.row;
        let lane = match self
            .lanes
            .iter()
            .position(|l| l.row == row && l.class == class)
        {
            Some(i) => &mut self.lanes[i],
            None => {
                self.lanes.push(RowLane {
                    row,
                    class,
                    entries: spare.pop().unwrap_or_default(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        let key = (entry.arrival, entry.id);
        let pos = lane.entries.partition_point(|e| (e.arrival, e.id) <= key);
        lane.entries.insert(pos, entry);
    }

    /// Closes emptied lanes, returning their buffers to `spare`.
    fn prune(&mut self, spare: &mut Vec<VecDeque<QueueEntry>>) {
        let mut i = 0;
        while i < self.lanes.len() {
            if self.lanes[i].entries.is_empty() {
                spare.push(self.lanes.swap_remove(i).entries);
            } else {
                i += 1;
            }
        }
    }

    /// This bank's tournament leaf: the best lane front, and the oldest
    /// pending arrival. `bank` is the datapath's state for this bank.
    fn leaf(&self, bank: &Bank) -> (Candidate, Time) {
        let busy = bank.busy_until();
        let open = bank.open_row();
        let (mut best, mut oldest) = (Candidate::NONE, NEVER);
        for (lane, l) in self.lanes.iter().enumerate() {
            let front = &l.entries[0];
            oldest = oldest.min(front.arrival);
            let c = Candidate {
                start: front.arrival.max(busy),
                arrival: front.arrival,
                id: front.id,
                lane: u32::try_from(lane).expect("lane count fits in u32"),
                tie: u16::from(open != Some(l.row)) << 8 | u16::from(l.class),
            };
            best = select_unpredictable(c.beats(&best), c, best);
        }
        (best, oldest)
    }
}

/// One channel's FR-FCFS queue, behind [`ShardedFrFcfs`].
#[derive(Debug)]
pub(crate) struct FrFcfsScheduler {
    cfg: MemConfig,
    channel: usize,
    /// The channel's banks, link lanes and counters.
    datapath: Channel,
    banks: Vec<BankQueue>,
    /// Banks changed by an enqueue since the last pick.
    stale: Vec<usize>,
    /// The tournament's leaves: bank `b`'s best lane front, or
    /// [`Candidate::NONE`]. Padded to a power of two.
    keys: Vec<Candidate>,
    /// The tournament, as a heap over `keys`: node 1 is the root, node
    /// `k` has children `2k` and `2k + 1`, and bank `b`'s leaf is node
    /// `keys.len() + b`. Each node holds the bank whose key wins below it.
    winners: Vec<u32>,
    /// The same heap over each bank's oldest pending arrival, each node
    /// holding the minimum below it.
    oldest: Vec<Time>,
    /// Emptied lane buffers, reused by the next lane a bank opens.
    spare: Vec<VecDeque<QueueEntry>>,
    pending_count: usize,
    completions: Vec<Completion>,
    /// Cell writes from adaptive-close dirty evictions, as
    /// (channel-local flat bank, row).
    cell_writes: Vec<(usize, u64)>,
    stats: SchedulerStats,
    depth_hist: Histogram,
    /// Same-bank bypasses a sub-class-0 request tolerates before it is
    /// promoted to class 0: [`STARVATION_LIMIT`] outside tests.
    starvation_limit: u32,
}

impl FrFcfsScheduler {
    /// Creates the queue for channel `channel` of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range for the configuration.
    fn for_channel(cfg: MemConfig, channel: usize) -> Self {
        assert!(
            channel < cfg.channels,
            "channel {channel} out of range for a {}-channel configuration",
            cfg.channels
        );
        let bank_count = cfg.ranks_per_channel * cfg.banks_per_rank;
        let width = bank_count.next_power_of_two();
        // Every key starts as NONE, so any leaf may stand for a subtree;
        // take its leftmost.
        let mut winners: Vec<u32> = (0..2 * width)
            .map(|node| u32::try_from(node.saturating_sub(width)).expect("bank count fits in u32"))
            .collect();
        for node in (1..width).rev() {
            winners[node] = winners[2 * node];
        }
        FrFcfsScheduler {
            datapath: Channel::new(&cfg),
            cfg,
            channel,
            banks: (0..bank_count).map(|_| BankQueue::new()).collect(),
            stale: Vec::new(),
            keys: vec![Candidate::NONE; width],
            winners,
            oldest: vec![NEVER; 2 * width],
            spare: Vec::new(),
            pending_count: 0,
            completions: Vec::new(),
            cell_writes: Vec::new(),
            stats: SchedulerStats::default(),
            depth_hist: Histogram::new(),
            starvation_limit: STARVATION_LIMIT,
        }
    }

    /// Overrides the starvation-aging threshold, so tests can age
    /// requests after fewer or more bypasses.
    #[cfg(test)]
    fn set_starvation_limit(&mut self, limit: u32) {
        self.starvation_limit = limit.max(1);
    }

    /// Which channel this queue serves.
    pub(crate) fn channel(&self) -> usize {
        self.channel
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// The datapath's bus and row-buffer aggregates.
    pub(crate) fn channel_stats(&self) -> &ChannelStats {
        self.datapath.stats()
    }

    /// Per-bank row-buffer statistics, indexed by channel-local flat bank
    /// index (`rank * banks_per_rank + bank`).
    pub(crate) fn bank_stats(&self) -> &[BankStats] {
        self.datapath.bank_stats()
    }

    /// The channel datapath, for requests and packets that bypass the
    /// queues.
    pub(crate) fn datapath_mut(&mut self) -> &mut Channel {
        &mut self.datapath
    }

    /// Queue depths sampled at every enqueue.
    pub(crate) fn depth_histogram(&self) -> &Histogram {
        &self.depth_hist
    }

    /// Pending queue depth.
    pub(crate) fn queue_depth(&self) -> usize {
        self.pending_count
    }

    /// True if nothing is pending and neither lane has a transfer in
    /// flight at `now`.
    pub(crate) fn is_idle_at(&self, now: Time) -> bool {
        self.datapath.is_idle_at(now) && self.pending_count == 0
    }

    /// The channel-local bank a decoded address steers to, with context
    /// on the invariant violation instead of an opaque index panic.
    fn bank_index(&self, d: &DecodedAddr) -> usize {
        assert_eq!(
            d.channel, self.channel,
            "request decoded to channel {} reached channel {}'s scheduler \
             (demux routing bug or decode from a different configuration)",
            d.channel, self.channel
        );
        let index = d.rank * self.cfg.banks_per_rank + d.bank;
        let count = self.banks.len();
        assert!(
            index < count,
            "decoded rank {} / bank {} maps to bank index {index}, \
             outside this channel's {count} banks",
            d.rank,
            d.bank
        );
        index
    }

    /// Files a decoded request under the id the demux allocated, at
    /// traffic class `class` (0 = highest). Call
    /// [`FrFcfsScheduler::run_until`] to make progress.
    fn enqueue(
        &mut self,
        id: RequestId,
        at: Time,
        decoded: DecodedAddr,
        kind: AccessKind,
        class: u8,
    ) {
        let index = self.bank_index(&decoded);
        let entry = QueueEntry {
            id,
            decoded,
            kind,
            arrival: at,
            bypassed: 0,
        };
        let bq = &mut self.banks[index];
        bq.insert(entry, class, &mut self.spare);
        if !bq.stale {
            bq.stale = true;
            self.stale.push(index);
        }
        self.pending_count += 1;
        self.depth_hist.record(self.pending_count as u64);
    }

    /// Services queued requests until no request can start at or before
    /// `until`.
    fn run_until(&mut self, until: Time) {
        while self.service_next(until).is_some() {}
    }

    /// Services requests (in FR-FCFS order, which may put others first)
    /// until `id` completes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not pending — drive-to-completion on a request
    /// this queue never saw is a caller bug.
    fn run_until_completed(&mut self, id: RequestId) {
        // Horizon only bounds pick *starts*, so the far value is safe.
        let horizon = Time::from_ps(u64::MAX);
        while let Some(serviced) = self.service_next(horizon) {
            if serviced == id {
                return;
            }
        }
        panic!(
            "request {id:?} never completed: it was not pending on channel {}",
            self.channel
        );
    }

    /// Services requests (in FR-FCFS order, which may put others first)
    /// until `count` requests with ids from `first` on have completed:
    /// a batch enqueued back to back, with nothing enqueued since.
    ///
    /// # Panics
    ///
    /// Panics if the queue empties first — the caller miscounted.
    pub(crate) fn run_until_batch_completed(&mut self, first: RequestId, count: usize) {
        // Horizon only bounds pick *starts*, so the far value is safe.
        let horizon = Time::from_ps(u64::MAX);
        for _ in 0..count {
            while self.service_next(horizon).unwrap_or_else(|| {
                panic!(
                    "batch from {first:?} is not pending on channel {}",
                    self.channel
                )
            }) < first
            {}
        }
    }

    /// Re-evaluates the banks enqueued to since the last pick.
    fn settle(&mut self) {
        while let Some(index) = self.stale.pop() {
            self.banks[index].stale = false;
            self.update_leaf(index);
        }
    }

    /// Recomputes bank `index`'s leaf and replays its paths to the root.
    ///
    /// The winner of the replay so far rides in locals, so no node just
    /// written is read back. Each replay stops at the first node that
    /// keeps its value: every node above it was decided by the same
    /// children. A node that keeps a winner other than this bank keeps
    /// its value; one this bank wins must go on, since its key moved.
    fn update_leaf(&mut self, index: usize) {
        let width = self.keys.len();
        let (key, oldest) = self.banks[index].leaf(self.datapath.bank(index));

        let bank = self.winners[width + index]; // its own index, as u32
        self.keys[index] = key;
        let (mut node, mut winner, mut best) = (width + index, bank, key);
        while node > 1 {
            let rival = self.winners[node ^ 1];
            let rival_key = self.keys[rival as usize];
            let rival_wins = rival_key.beats(&best);
            winner = select_unpredictable(rival_wins, rival, winner);
            best = select_unpredictable(rival_wins, rival_key, best);
            node /= 2;
            if winner != bank && self.winners[node] == winner {
                break;
            }
            self.winners[node] = winner;
        }

        let mut node = width + index;
        let mut min = oldest;
        while self.oldest[node] != min {
            self.oldest[node] = min;
            if node == 1 {
                break;
            }
            min = min.min(self.oldest[node ^ 1]);
            node /= 2;
        }
    }

    /// Issues the single best-priority request startable at or before
    /// `until`, returning its id.
    fn service_next(&mut self, until: Time) -> Option<RequestId> {
        // The root holds the earliest-starting candidate, so if it cannot
        // start by `until`, nothing can.
        self.settle();
        let bank_index = self.winners[1] as usize;
        let pick = self.keys[bank_index];
        if !pick.is_some() || pick.start > until {
            return None;
        }
        let lane_index = pick.lane as usize;
        let bq = &mut self.banks[bank_index];
        let lane = &mut bq.lanes[lane_index];
        let entry = lane
            .entries
            .pop_front()
            .expect("a candidate is its lane's front");
        if lane.entries.is_empty() {
            self.spare.push(bq.lanes.swap_remove(lane_index).entries);
        }
        self.pending_count -= 1;

        // Starvation aging: every older same-bank request the pick just
        // bypassed burns one unit of its bypass budget; exhausting the
        // budget promotes it to class 0 so class-based arbitration can
        // never starve bulk traffic. Only class>0 lanes can age, and a
        // lane's bypassed entries are its prefix older than the pick, so
        // classic single-class scheduling walks nothing here.
        let limit = self.starvation_limit;
        let mut promoted = Vec::new();
        for lane in bq.lanes.iter_mut().filter(|l| l.class > 0) {
            let mut i = 0;
            while let Some(e) = lane.entries.get_mut(i) {
                if (e.arrival, e.id) >= (entry.arrival, entry.id) {
                    break;
                }
                e.bypassed += 1;
                if e.bypassed >= limit {
                    promoted.extend(lane.entries.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        if !promoted.is_empty() {
            bq.prune(&mut self.spare);
            self.stats.starvation_promotions.add(promoted.len() as u64);
            for e in promoted {
                bq.insert(e, 0, &mut self.spare);
            }
        }

        let ChannelAccess {
            complete_at: complete,
            outcome,
            evicted_row,
        } = self
            .datapath
            .access(&self.cfg, pick.start, entry.decoded, entry.kind);

        let row_hit = outcome == RowBufferOutcome::Hit;
        self.stats.serviced.incr();
        if row_hit {
            self.stats.row_hits.incr();
        }
        self.completions.push(Completion {
            id: entry.id,
            at: complete,
            row_hit,
            kind: entry.kind,
            decoded: entry.decoded,
            outcome,
            evicted_row,
        });

        // Open-adaptive: if queued work wants a different row of this
        // bank (and none wants the now-open row), precharge early. Lanes
        // are keyed by row, so only this bank's lanes need testing.
        let lanes = &self.banks[bank_index].lanes;
        let open_row = self.datapath.bank(bank_index).open_row();
        if !lanes.is_empty() && lanes.iter().all(|l| Some(l.row) != open_row) {
            if let Some(row) = self.datapath.close_bank(&self.cfg, bank_index, complete) {
                self.cell_writes.push((bank_index, row));
            }
            self.stats.adaptive_closes.incr();
        }

        // FIFO-violation accounting: did an older request remain? The
        // root caches the oldest pending arrival across every bank.
        self.update_leaf(bank_index);
        if self.oldest[1] < entry.arrival {
            self.stats.reordered.incr();
        }

        Some(entry.id)
    }
}

/// The queued FR-FCFS memory controller: one queue per channel behind
/// one demux.
///
/// Each address is decoded once and filed in the queue of its channel;
/// ids are allocated globally so a [`RequestId`] is unique device-wide.
/// This sharding is what fixes the channel-aliasing bug: two
/// same-rank/bank/row addresses on different channels hit *different*
/// [`Bank`] state machines and cannot falsely row-hit each other.
#[derive(Debug)]
pub struct ShardedFrFcfs {
    cfg: MemConfig,
    shards: Vec<FrFcfsScheduler>,
    next_id: u64,
}

impl ShardedFrFcfs {
    /// Builds one queue per channel of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// (see [`MemConfig::validate`]).
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate();
        let shards = (0..cfg.channels)
            .map(|ch| FrFcfsScheduler::for_channel(cfg.clone(), ch))
            .collect();
        ShardedFrFcfs {
            cfg,
            shards,
            next_id: 0,
        }
    }

    /// The queue for `channel`, with invariant context on a bad index.
    pub(crate) fn shard(&self, channel: usize) -> &FrFcfsScheduler {
        let count = self.shards.len();
        self.shards
            .get(channel)
            .unwrap_or_else(|| panic!("channel {channel} out of range ({count} channels)"))
    }

    /// Mutable access to the queue for `channel`.
    pub(crate) fn shard_mut(&mut self, channel: usize) -> &mut FrFcfsScheduler {
        let count = self.shards.len();
        self.shards
            .get_mut(channel)
            .unwrap_or_else(|| panic!("channel {channel} out of range ({count} channels)"))
    }

    /// All queues, in channel order.
    pub(crate) fn shards(&self) -> &[FrFcfsScheduler] {
        &self.shards
    }

    /// Total pending requests across all channels.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth()).sum()
    }

    /// Statistics aggregated over all channels.
    pub fn stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for s in &self.shards {
            total.absorb(s.stats());
        }
        total
    }

    /// Files a request in its channel's queue at traffic class `class`
    /// (0 = highest priority; ties between classes at the same ready
    /// time and row-hit status go to the lower class number); returns
    /// the channel and the globally unique id.
    pub fn enqueue(
        &mut self,
        at: Time,
        addr: u64,
        kind: AccessKind,
        class: u8,
    ) -> (usize, RequestId) {
        let decoded = decode(&self.cfg, addr);
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let channel = decoded.channel;
        self.shard_mut(channel)
            .enqueue(id, at, decoded, kind, class);
        (channel, id)
    }

    /// Sets the starvation-aging threshold on every queue, so tests can
    /// age requests after fewer or more bypasses.
    #[cfg(test)]
    fn set_starvation_limit(&mut self, limit: u32) {
        for s in &mut self.shards {
            s.set_starvation_limit(limit);
        }
    }

    /// Runs every channel forward to `until`.
    pub fn run_until(&mut self, until: Time) {
        for s in &mut self.shards {
            s.run_until(until);
        }
    }

    /// Drives `channel` until `id` completes, servicing in FR-FCFS
    /// order, which may put other requests first.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not pending on `channel`.
    pub fn run_until_completed(&mut self, channel: usize, id: RequestId) {
        self.shard_mut(channel).run_until_completed(id);
    }

    /// Hands every completion to `f` with its channel, in (channel,
    /// service) order — deterministic for a deterministic enqueue
    /// sequence — and empties the shards' buffers in place.
    pub fn drain_completions(&mut self, mut f: impl FnMut(usize, Completion)) {
        for (ch, s) in self.shards.iter_mut().enumerate() {
            for c in s.completions.drain(..) {
                f(ch, c);
            }
        }
    }

    /// Hands every adaptive-close cell write to `f` as (channel,
    /// channel-local flat bank, row), in channel order, and empties the
    /// shards' buffers in place.
    pub fn drain_cell_writes(&mut self, mut f: impl FnMut(usize, usize, u64)) {
        for (ch, s) in self.shards.iter_mut().enumerate() {
            for (bank, row) in s.cell_writes.drain(..) {
                f(ch, bank, row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    /// Table 2's controller, which has one channel.
    fn sched() -> ShardedFrFcfs {
        ShardedFrFcfs::new(MemConfig::table2())
    }

    fn t(ns: u64) -> Time {
        Time::from_ps(ns * 1000)
    }

    /// Every completion the demux holds, tagged with its channel.
    fn drained(s: &mut ShardedFrFcfs) -> Vec<(usize, Completion)> {
        let mut out = Vec::new();
        s.drain_completions(|ch, c| out.push((ch, c)));
        out
    }

    /// A one-channel controller's completions, in service order.
    fn completions(s: &mut ShardedFrFcfs) -> Vec<Completion> {
        drained(s).into_iter().map(|(_, c)| c).collect()
    }

    /// A one-channel controller's adaptive-close cell writes, as
    /// (flat bank, row).
    fn cell_writes(s: &mut ShardedFrFcfs) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        s.drain_cell_writes(|_, bank, row| out.push((bank, row)));
        out
    }

    /// Two rows of the same bank under Table 2's mapping.
    const ROW_A: u64 = 0;
    const ROW_B: u64 = 1 << 24;

    #[test]
    fn services_a_single_request() {
        let mut s = sched();
        let (_, id) = s.enqueue(Time::ZERO, ROW_A, AccessKind::Read, 0);
        s.run_until(t(1000));
        let done = completions(&mut s);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].at.as_ps(), 78_750); // tRCD + tCL + tBURST
        assert!(!done[0].row_hit);
        assert_eq!(done[0].outcome, RowBufferOutcome::MissClean);
        assert_eq!(done[0].evicted_row, None);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_over_older_misses() {
        let mut s = sched();
        // While the opener occupies the bank, an older ROW_B miss and a
        // newer ROW_A hit both queue up; when the bank frees, the hit
        // must jump the queue.
        let (_, opener) = s.enqueue(Time::ZERO, ROW_A, AccessKind::Read, 0);
        let (_, miss) = s.enqueue(t(10), ROW_B, AccessKind::Read, 0);
        let (_, hit) = s.enqueue(t(11), ROW_A + 64, AccessKind::Read, 0);
        s.run_until(t(5000));
        let done = completions(&mut s);
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].id, opener);
        assert_eq!(done[1].id, hit, "row hit must jump the queue");
        assert!(done[1].row_hit);
        assert_eq!(done[2].id, miss);
        assert_eq!(s.stats().reordered.get(), 1);
    }

    #[test]
    fn plain_fcfs_when_no_hits_available() {
        let mut s = sched();
        let (_, first) = s.enqueue(t(0), ROW_A, AccessKind::Read, 0);
        let (_, second) = s.enqueue(t(1), ROW_B, AccessKind::Read, 0);
        s.run_until(t(5000));
        let done = completions(&mut s);
        assert_eq!(done[0].id, first);
        assert_eq!(done[1].id, second);
        assert_eq!(s.stats().reordered.get(), 0);
    }

    #[test]
    fn different_banks_service_in_parallel() {
        let mut s = sched();
        let (_, a) = s.enqueue(Time::ZERO, 0, AccessKind::Read, 0); // bank 0
        let (_, b) = s.enqueue(Time::ZERO, 1024, AccessKind::Read, 0); // bank 1
        s.run_until(t(1000));
        let done = completions(&mut s);
        assert_eq!(done.len(), 2);
        // Bank phases overlap; completions within one burst of each other.
        let delta = done[1].at.since(done[0].at);
        assert!(delta.as_ps() <= 5_000, "banks must overlap: {delta}");
        let _ = (a, b);
    }

    #[test]
    fn adaptive_close_fires_when_conflicting_work_is_queued() {
        let mut s = sched();
        s.enqueue(t(0), ROW_A, AccessKind::Read, 0);
        s.enqueue(t(1), ROW_B, AccessKind::Read, 0); // conflicting row queued
        s.run_until(t(10_000));
        assert!(s.stats().adaptive_closes.get() >= 1, "must precharge early");
    }

    #[test]
    fn open_policy_keeps_row_for_same_row_work() {
        let mut s = sched();
        s.enqueue(t(0), ROW_A, AccessKind::Read, 0);
        s.enqueue(t(1), ROW_A + 64, AccessKind::Read, 0);
        s.enqueue(t(2), ROW_A + 128, AccessKind::Read, 0);
        s.run_until(t(10_000));
        let done = completions(&mut s);
        assert!(
            done[1].row_hit && done[2].row_hit,
            "row must stay open for hits"
        );
        assert_eq!(s.stats().adaptive_closes.get(), 0);
    }

    #[test]
    fn streaming_throughput_beats_arrival_order_on_interleaved_rows() {
        // Interleave requests to two rows; FR-FCFS batches them so each
        // row is opened ~once instead of ping-ponging.
        let mut s = sched();
        for i in 0..8u64 {
            let base = if i % 2 == 0 { ROW_A } else { ROW_B };
            s.enqueue(t(0), base + (i / 2) * 64, AccessKind::Read, 0);
        }
        s.run_until(t(100_000));
        let done = completions(&mut s);
        assert_eq!(done.len(), 8);
        assert!(
            s.stats().row_hits.get() >= 5,
            "batching must produce hits: {}",
            s.stats().row_hits.get()
        );
        let finish = done.iter().map(|c| c.at).max().unwrap();
        // Ping-pong order would pay ~8 × (tRP+tRCD+tCL) ≈ 1790 ns; batched
        // is far below that.
        assert!(finish < t(1000), "batched schedule too slow: {finish}");
    }

    #[test]
    fn requests_do_not_issue_before_arrival() {
        let mut s = sched();
        s.enqueue(t(500), ROW_A, AccessKind::Read, 0);
        s.run_until(t(400));
        assert!(completions(&mut s).is_empty(), "future request must wait");
        s.run_until(t(1000));
        assert_eq!(completions(&mut s).len(), 1);
    }

    #[test]
    fn channel_stats_mirror_the_reservation_schema() {
        let mut s = sched();
        s.enqueue(t(0), ROW_A, AccessKind::Read, 0);
        s.enqueue(t(1), ROW_A + 64, AccessKind::Write, 0);
        s.run_until(t(10_000));
        assert_eq!(s.shard(0).channel_stats().reads.get(), 1);
        assert_eq!(s.shard(0).channel_stats().writes.get(), 1);
        assert_eq!(s.shard(0).channel_stats().row_hits.get(), 1);
        assert_eq!(s.shard(0).channel_stats().row_misses_clean.get(), 1);
        let flat = {
            let d = decode(&MemConfig::table2(), ROW_A);
            d.rank * MemConfig::table2().banks_per_rank + d.bank
        };
        assert_eq!(s.shard(0).bank_stats()[flat].accesses.get(), 2);
        assert_eq!(s.shard(0).bank_stats()[flat].row_hits.get(), 1);
    }

    #[test]
    fn depth_histogram_samples_every_enqueue() {
        let mut s = sched();
        for i in 0..5 {
            s.enqueue(t(i), ROW_A + i * 64, AccessKind::Read, 0);
        }
        assert_eq!(s.shard(0).depth_histogram().count(), 5);
        assert_eq!(s.queue_depth(), 5);
        s.run_until(t(100_000));
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn run_until_completed_services_the_target() {
        let mut s = sched();
        let (_, a) = s.enqueue(t(0), ROW_A, AccessKind::Read, 0);
        let (_, b) = s.enqueue(t(1), ROW_B, AccessKind::Read, 0);
        s.run_until_completed(0, b);
        let done = completions(&mut s);
        // FR-FCFS still services `a` first (it is older, bank was free).
        assert_eq!(done[0].id, a);
        assert_eq!(done.last().unwrap().id, b);
    }

    #[test]
    #[should_panic(expected = "reached channel")]
    fn cross_channel_enqueue_panics_with_context() {
        // Under a 2-channel config, address `row_buffer_bytes` decodes to
        // channel 1; channel 0's controller must refuse it loudly instead
        // of aliasing it onto its own banks (the old bug).
        let cfg = MemConfig::table2().with_channels(2);
        let mut s = FrFcfsScheduler::for_channel(cfg.clone(), 0);
        let decoded = decode(&cfg, cfg.row_buffer_bytes);
        s.enqueue(RequestId(0), Time::ZERO, decoded, AccessKind::Read, 0);
    }

    /// The headline regression: two same-rank/bank/row addresses on
    /// *different* channels must not row-hit each other. The old
    /// single-queue controller computed its bank index as
    /// `rank * banks_per_rank + bank`, dropping the channel, so the
    /// second access below landed on the first's open row and was
    /// (falsely) counted a hit.
    #[test]
    fn different_channels_must_not_row_hit() {
        let cfg = MemConfig::table2().with_channels(2);
        let a0 = 0u64;
        let a1 = cfg.row_buffer_bytes; // next row-buffer chunk: channel 1
        let d0 = decode(&cfg, a0);
        let d1 = decode(&cfg, a1);
        assert_eq!((d0.rank, d0.bank, d0.row), (d1.rank, d1.bank, d1.row));
        assert_ne!(d0.channel, d1.channel, "test needs distinct channels");

        let mut s = ShardedFrFcfs::new(cfg);
        let (ch0, first) = s.enqueue(t(0), a0, AccessKind::Read, 0);
        s.run_until_completed(ch0, first);
        let (ch1, second) = s.enqueue(t(200), a1, AccessKind::Read, 0);
        s.run_until_completed(ch1, second);

        let done = drained(&mut s);
        assert_eq!(done.len(), 2);
        for (_, c) in &done {
            assert!(
                !c.row_hit,
                "cross-channel aliasing: {:?} row-hit a row opened on another channel",
                c.id
            );
        }
        assert_eq!(s.stats().row_hits.get(), 0);
        assert_eq!(s.stats().serviced.get(), 2);
    }

    #[test]
    fn sharded_channels_service_in_parallel() {
        let cfg = MemConfig::table2().with_channels(4);
        let mut s = ShardedFrFcfs::new(cfg.clone());
        // One cold read per channel, all at t=0: independent controllers
        // must not serialize.
        let mut ids = Vec::new();
        for ch in 0..4u64 {
            ids.push(s.enqueue(Time::ZERO, ch * cfg.row_buffer_bytes, AccessKind::Read, 0));
        }
        s.run_until(t(1000));
        let done = drained(&mut s);
        assert_eq!(done.len(), 4);
        for (_, c) in &done {
            assert_eq!(c.at.as_ps(), 78_750);
        }
        // Global ids are unique across channels.
        let unique: std::collections::HashSet<_> = ids.iter().map(|(_, id)| *id).collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn class_breaks_ties_between_equally_ready_requests() {
        // Two misses to different rows, same bank, same arrival: without
        // classes the lower id wins; a higher class (lower number) on the
        // younger request must flip the order.
        let mut s = sched();
        let (_, bulk) = s.enqueue(t(0), ROW_A, AccessKind::Read, 2);
        let (_, interactive) = s.enqueue(t(0), ROW_B, AccessKind::Read, 0);
        s.run_until(t(10_000));
        let done = completions(&mut s);
        assert_eq!(done[0].id, interactive, "class 0 must win the tie");
        assert_eq!(done[1].id, bulk);
    }

    #[test]
    fn starvation_aging_promotes_bypassed_bulk_traffic() {
        let mut s = sched();
        s.set_starvation_limit(4);
        // One bulk miss, then a backlog of younger interactive misses to
        // *distinct* rows of the same bank. Every pick is a miss, so the
        // class key decides — without aging the class-2 request would be
        // bypassed by all twelve class-0 requests and finish dead last.
        let (_, bulk) = s.enqueue(t(0), ROW_B, AccessKind::Read, 2);
        for i in 0..12u64 {
            s.enqueue(t(i), (i + 2) << 24, AccessKind::Read, 0);
        }
        s.run_until(t(1_000_000));
        let done = completions(&mut s);
        assert_eq!(done.len(), 13);
        assert!(
            s.stats().starvation_promotions.get() >= 1,
            "bulk request should have been promoted: {:?}",
            s.stats()
        );
        // After `limit` bypasses the promoted request's age wins the next
        // all-miss tie, so it completes mid-pack, not last.
        let bulk_pos = done.iter().position(|c| c.id == bulk).unwrap();
        assert!(
            bulk_pos < done.len() - 1,
            "promoted bulk request still finished last (position {bulk_pos})"
        );
    }

    #[test]
    fn sharded_classed_enqueue_routes_and_arbitrates() {
        let cfg = MemConfig::table2().with_channels(2);
        let mut s = ShardedFrFcfs::new(cfg.clone());
        s.set_starvation_limit(8);
        let (ch_a, a) = s.enqueue(t(0), 0, AccessKind::Read, 1);
        let (ch_b, b) = s.enqueue(t(0), cfg.row_buffer_bytes, AccessKind::Read, 0);
        assert_ne!(ch_a, ch_b, "addresses chosen to hit distinct channels");
        s.run_until(t(10_000));
        let done = drained(&mut s);
        assert_eq!(done.len(), 2);
        let ids: std::collections::HashSet<_> = done.iter().map(|(_, c)| c.id).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
    }

    #[test]
    fn adaptive_close_dirty_eviction_reports_cell_write() {
        let mut s = sched();
        // Dirty ROW_A, then queue conflicting ROW_B work so the adaptive
        // close writes ROW_A's cells back.
        s.enqueue(t(0), ROW_A, AccessKind::Write, 0);
        s.enqueue(t(1), ROW_B, AccessKind::Read, 0);
        s.run_until(t(100_000));
        let writes = cell_writes(&mut s);
        let row_a = decode(&MemConfig::table2(), ROW_A).row;
        assert!(
            writes.iter().any(|(_, row)| *row == row_a),
            "adaptive close of a dirty row must surface the cell write: {writes:?}"
        );
        assert!(s.stats().adaptive_closes.get() >= 1);
    }

    /// One step of a differential stream: `(address bits, class,
    /// arrival or horizon in ns, action)`. Actions 0 and 1 drive the
    /// controllers (`run_until` and `run_until_completed`); the rest
    /// enqueue.
    type Op = (u64, u8, u64, u8);

    /// Feeds `ops` to the lane picker (through [`ShardedFrFcfs`]) and to
    /// one full-scan oracle per channel, asserting after every step that
    /// both serviced the same requests identically, and at the end that
    /// every counter, cell write and depth histogram agrees. Returns the
    /// lane picker's totals so callers can check what the stream hit.
    fn differential(channels: usize, limit: u32, ops: &[Op]) -> SchedulerStats {
        let cfg = MemConfig::table2().with_channels(channels);
        let mut fast = ShardedFrFcfs::new(cfg.clone());
        fast.set_starvation_limit(limit);
        let mut slow: Vec<oracle::FullScan> = (0..channels)
            .map(|_| oracle::FullScan::new(cfg.clone(), limit))
            .collect();
        let mut pending: Vec<(usize, RequestId)> = Vec::new();
        let ch_bits = channels.trailing_zeros();
        for &(bits, class, ns, action) in ops {
            match action {
                0 => {
                    fast.run_until(t(ns));
                    slow.iter_mut().for_each(|o| o.run_until(t(ns)));
                }
                1 if !pending.is_empty() => {
                    let (ch, id) = pending[bits as usize % pending.len()];
                    fast.run_until_completed(ch, id);
                    slow[ch].run_until_completed(id);
                }
                _ => {
                    // Four rows over two banks of rank 0 (rank 1 rarely),
                    // so requests pile up and collide.
                    let row = bits & 3;
                    let bank = (bits >> 2) & 1;
                    let rank = u64::from((bits >> 3) & 7 == 0);
                    let channel = (bits >> 6) % channels as u64;
                    let column = (bits >> 8) & 15;
                    let bank_bits = ((row << 1 | rank) << 3 | bank) << ch_bits | channel;
                    let addr = (bank_bits << 10) | (column * 64);
                    let kind = if bits & 16 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    // Coarse arrivals, so ties fall to the id key.
                    let at = t(ns - ns % 40);
                    let (ch, id) = fast.enqueue(at, addr, kind, class);
                    slow[ch].enqueue(id, at, decode(&cfg, addr), kind, class);
                    pending.push((ch, id));
                }
            }
            let got = drained(&mut fast);
            let want: Vec<(usize, Completion)> = slow
                .iter_mut()
                .enumerate()
                .flat_map(|(ch, o)| o.completions.drain(..).map(move |c| (ch, c)))
                .collect();
            assert_eq!(got, want);
            pending.retain(|(_, id)| !got.iter().any(|(_, c)| c.id == *id));
        }
        fast.run_until(Time::from_ps(u64::MAX));
        for (ch, o) in slow.iter_mut().enumerate() {
            o.run_until(Time::from_ps(u64::MAX));
            let shard = fast.shard_mut(ch);
            assert_eq!(std::mem::take(&mut shard.completions), o.completions);
            assert_eq!(std::mem::take(&mut shard.cell_writes), o.cell_writes);
            assert_eq!(shard.queue_depth(), 0);
            for (a, b) in [
                (format!("{:?}", shard.stats()), format!("{:?}", o.stats)),
                (
                    format!("{:?}", shard.channel_stats()),
                    format!("{:?}", o.channel_stats),
                ),
                (
                    format!("{:?}", shard.bank_stats()),
                    format!("{:?}", o.bank_stats),
                ),
                (
                    format!("{:?}", shard.depth_histogram()),
                    format!("{:?}", o.depth_hist),
                ),
            ] {
                assert_eq!(a, b);
            }
        }
        fast.stats()
    }

    /// A long fixed stream must agree with the oracle while exercising
    /// every path the picker caches: reorders, adaptive closes (with
    /// dirty write-backs), and starvation promotions.
    #[test]
    fn lane_picker_matches_full_scan_oracle_on_a_long_stream() {
        let mut rng = proptest::TestRng::for_case("lane-picker-long-stream", 0);
        let ops: Vec<Op> = (0..4000)
            .map(|_| {
                (
                    rng.next_u64(),
                    rng.below(3) as u8,
                    rng.below(60_000),
                    rng.below(10) as u8,
                )
            })
            .collect();
        for channels in [1, 2, 4] {
            for limit in [1, 3, 16] {
                let stats = differential(channels, limit, &ops);
                assert!(stats.reordered.get() > 0);
                assert!(stats.adaptive_closes.get() > 0);
                assert!(stats.starvation_promotions.get() > 0);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn every_request_completes_exactly_once(
            reqs in proptest::collection::vec((0u64..(1 << 26), proptest::bool::ANY, 0u64..2000), 1..40)
        ) {
            let mut s = sched();
            let mut ids = std::collections::HashSet::new();
            for (addr, is_write, arrive_ns) in reqs {
                let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                ids.insert(s.enqueue(t(arrive_ns), addr & !63, kind, 0).1);
            }
            s.run_until(t(10_000_000));
            let done = completions(&mut s);
            proptest::prop_assert_eq!(done.len(), ids.len());
            let completed: std::collections::HashSet<_> = done.iter().map(|c| c.id).collect();
            proptest::prop_assert_eq!(completed, ids);
        }

        #[test]
        fn sharded_requests_complete_exactly_once_across_channels(
            reqs in proptest::collection::vec((0u64..(1 << 26), proptest::bool::ANY, 0u64..2000), 1..40)
        ) {
            let cfg = MemConfig::table2().with_channels(4);
            let mut s = ShardedFrFcfs::new(cfg);
            let mut ids = std::collections::HashSet::new();
            for (addr, is_write, arrive_ns) in reqs {
                let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                let (_, id) = s.enqueue(t(arrive_ns), addr & !63, kind, 0);
                ids.insert(id);
            }
            s.run_until(t(10_000_000));
            let done = drained(&mut s);
            proptest::prop_assert_eq!(done.len(), ids.len());
            let completed: std::collections::HashSet<_> = done.iter().map(|(_, c)| c.id).collect();
            proptest::prop_assert_eq!(completed, ids);
            proptest::prop_assert_eq!(s.queue_depth(), 0);
        }

        /// The lane picker against the full-scan oracle: classes 0–2,
        /// rows colliding on a few banks, non-monotone arrivals,
        /// starvation limits 1–16, interleaved `run_until` and
        /// `run_until_completed`, on 1, 2 and 4 channels.
        #[test]
        fn lane_picker_matches_full_scan_oracle(
            shape in (0u32..3, 1u32..17),
            ops in proptest::collection::vec((0u64.., 0u8..3, 0u64..4000, 0u8..10), 1..160)
        ) {
            differential(1 << shape.0, shape.1, &ops);
        }
    }
}
