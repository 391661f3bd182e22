//! Fault-injection link layer with bounded-retry recovery.
//!
//! Sits between the [`ProcessorEngine`] and the per-channel
//! [`MemoryEngine`]s (lane 0 of each, the one session the backend wires
//! per channel) and models an unreliable memory bus: frames can be
//! bit-flipped, dropped, duplicated, replayed, reordered, or delayed,
//! each by an independent Bernoulli process drawn from a dedicated
//! seeded [`SplitMix64`] stream ([`FaultPlan`]).
//!
//! Recovery is a stop-and-wait ARQ layered on the paper's own integrity
//! machinery (§3.5):
//!
//! * every delivery carries a per-channel sequence number; stale frames
//!   (duplicates, replays) are discarded *without* touching the CTR
//!   stream, so the shared-counter discipline survives them;
//! * a link CRC covers only the data-ciphertext lanes — complementary
//!   to the MAC, which binds the headers — so data flips are rejected
//!   before any pad is consumed and heal via a plain timeout
//!   retransmission;
//! * header/tag flips reach the memory engine, fail its MAC or parse,
//!   and trigger a NACK. Every receive failure parks the memory counter
//!   at `base + 2` (both header pads consumed before the error
//!   surfaces), so the processor answers the NACK with an
//!   *authenticated counter-resynchronization* rewinding the stream to
//!   the pair's base — repairing [`CounterDesync`] without tearing the
//!   session down — and then retransmits;
//! * retransmissions back off exponentially in simulated time
//!   (`ack_timeout << attempt`, capped), scheduled on a `(time, seq)`
//!   [`EventQueue`];
//! * repeated integrity failures escalate to a session re-key (both
//!   ends derive the next key from the current one and the rekey
//!   epoch), and repeated re-keys quarantine the channel: [`deliver`]
//!   returns [`ObfusMemError::ChannelQuarantined`] and the backend
//!   re-steers traffic to a healthy channel, which the
//!   [`ChannelObfuscator`](crate::channels::ChannelObfuscator) keeps
//!   obfuscating. The last healthy channel refuses quarantine (its
//!   failure counters reset instead) so forward progress is never lost.
//!
//! If a delivery exhausts its retry budget anyway, the link forces a
//! clean reset — resynchronize, deliver the pristine frame directly —
//! and counts it in `unrecovered`; readback correctness is preserved
//! unconditionally, and CI fails on a nonzero `unrecovered` count.
//!
//! The whole layer is engaged only when [`FaultPlan::is_active`]; with
//! all-zero rates the backend bypasses it entirely and results are
//! bit-identical to the fault-free baseline.
//!
//! [`CounterDesync`]: crate::ObfusMemError::CounterDesync
//! [`deliver`]: FaultyLink::deliver

use obfusmem_mem::request::BlockData;
use obfusmem_obs::metrics::{MetricsNode, Observable};
use obfusmem_sim::event::EventQueue;
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::stats::{Counter, Histogram};
use obfusmem_sim::time::{Duration, Time};

use crate::busmsg::BusPacket;
use crate::config::{FaultPlan, LinkConfig};
use crate::engine::{ObfuscatedPair, ProcessorEngine};
use crate::memside::{DecodedRequest, MemoryEngine};
use crate::window::Delivery;
use crate::ObfusMemError;

/// The fault processes the link can inject (one axis per
/// [`FaultPlan`] rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One random bit of the frame is inverted in flight.
    BitFlip,
    /// The frame never arrives.
    Drop,
    /// The frame arrives twice.
    Duplicate,
    /// A previously delivered frame is replayed ahead of the current one.
    Replay,
    /// The frame is held back long enough for a retransmission to
    /// overtake it.
    Reorder,
    /// The frame suffers a multi-timeout delay burst.
    DelayBurst,
}

/// Every fault kind, in campaign-sweep order.
pub const ALL_FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::BitFlip,
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Replay,
    FaultKind::Reorder,
    FaultKind::DelayBurst,
];

impl FaultKind {
    /// Stable name used in sweep specs and JSONL rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Replay => "replay",
            FaultKind::Reorder => "reorder",
            FaultKind::DelayBurst => "delay-burst",
        }
    }

    /// Parses a [`FaultKind::name`] back (CLI axis values).
    pub fn parse(s: &str) -> Option<FaultKind> {
        ALL_FAULT_KINDS.into_iter().find(|k| k.name() == s)
    }
}

/// What a completed delivery hands back to the backend.
#[derive(Debug)]
pub struct DeliveryOutcome {
    /// The obfuscated pair as (re-)built by the processor engine — the
    /// backend uses it for wire accounting and trace events.
    pub pair: ObfuscatedPair,
    /// The decoded primary request (memory side).
    pub decoded: DecodedRequest,
    /// The decoded companion, when it must be serviced.
    pub companion: Option<DecodedRequest>,
    /// Extra simulated time spent recovering, beyond the fault-free
    /// request latency. Zero for clean deliveries.
    pub delay: Duration,
}

/// Recovery counters and latency distribution. The link keeps one per
/// channel, so the observability snapshot can show *which* channel's
/// link is degrading before quarantine re-steers its traffic;
/// [`FaultyLink::stats`] is their sum.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Faults the injector actually fired.
    pub faults_injected: Counter,
    /// Data frames retransmitted (timeout- or NACK-driven).
    pub retransmits: Counter,
    /// NACKs the memory side raised on MAC/parse failures.
    pub nacks: Counter,
    /// Authenticated counter-resynchronizations performed.
    pub resyncs: Counter,
    /// Session re-keys (escalation after repeated integrity failures).
    pub rekeys: Counter,
    /// Channels quarantined.
    pub quarantines: Counter,
    /// Frames discarded by the link CRC before decode.
    pub crc_drops: Counter,
    /// Stale-sequence frames (duplicates/replays) discarded.
    pub stale_discards: Counter,
    /// Deliveries that exhausted the retry budget and were force-reset.
    /// Campaign acceptance requires this to stay zero.
    pub unrecovered: Counter,
    /// Recovery latency (ns beyond the fault-free path) per recovered
    /// delivery.
    pub recovery_latency_ns: Histogram,
}

impl LinkStats {
    /// The event counters, by metric name.
    fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("faults_injected", self.faults_injected.get()),
            ("retransmits", self.retransmits.get()),
            ("nacks", self.nacks.get()),
            ("resyncs", self.resyncs.get()),
            ("rekeys", self.rekeys.get()),
            ("quarantines", self.quarantines.get()),
            ("crc_drops", self.crc_drops.get()),
            ("stale_discards", self.stale_discards.get()),
            ("unrecovered", self.unrecovered.get()),
        ]
    }

    /// Adds `other`'s counters and latency samples to these.
    fn merge(&mut self, other: &LinkStats) {
        self.faults_injected.add(other.faults_injected.get());
        self.retransmits.add(other.retransmits.get());
        self.nacks.add(other.nacks.get());
        self.resyncs.add(other.resyncs.get());
        self.rekeys.add(other.rekeys.get());
        self.quarantines.add(other.quarantines.get());
        self.crc_drops.add(other.crc_drops.get());
        self.stale_discards.add(other.stale_discards.get());
        self.unrecovered.add(other.unrecovered.get());
        self.recovery_latency_ns.merge(&other.recovery_latency_ns);
    }
}

/// Per-channel link protocol state; the default is a fresh boot session.
#[derive(Debug, Clone, Default)]
struct ChannelLinkState {
    /// Sequence number the next delivery will carry.
    next_seq: u64,
    /// Sequence number the memory side expects next.
    expected_seq: u64,
    /// MAC/parse failures since the last re-key.
    integrity_failures: u32,
    /// Re-keys performed on this channel.
    rekeys: u32,
    /// Current re-key epoch (0 = boot session).
    epoch: u64,
    /// Quarantined channels carry no traffic.
    quarantined: bool,
    /// Last successfully delivered frame and its sequence number, kept
    /// as replay-attack fodder.
    last_sent: Option<(u64, Frame)>,
}

/// One frame on the wire, with the link CRC its sender computed over the
/// data lanes: a request's packets (a split pair's primary and companion,
/// or one uniform packet) or a read reply, which has no companion.
#[derive(Debug, Clone)]
struct Frame {
    primary: BusPacket,
    companion: Option<BusPacket>,
    crc: u32,
}

impl Frame {
    fn new(primary: BusPacket, companion: Option<BusPacket>) -> Self {
        let mut frame = Frame {
            primary,
            companion,
            crc: 0,
        };
        frame.crc = data_crc(frame.packets());
        frame
    }

    /// The frame's packets in wire order.
    fn packets(&self) -> impl Iterator<Item = &BusPacket> {
        std::iter::once(&self.primary).chain(&self.companion)
    }

    /// False when a flip landed in a data lane.
    fn crc_ok(&self) -> bool {
        data_crc(self.packets()) == self.crc
    }
}

/// Transmission fate sampled per frame.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Intact,
    Flip,
    Drop,
    Duplicate,
    Replay,
    /// Held back by `bursts` ack-timeouts.
    Delay {
        bursts: u64,
    },
}

/// Micro-simulation events for one request delivery.
enum Ev {
    /// Request frame `seq` arriving at the memory side.
    Data { seq: u64, frame: Frame },
    /// An ACK arriving back at the processor.
    Ack { seq: u64 },
    /// A NACK (memory-side MAC/parse failure) arriving at the processor.
    Nack { seq: u64 },
    /// An authenticated resync frame arriving at the memory side.
    Resync { seq: u64, target: u64, tag: [u8; 8] },
    /// Retransmission timer for attempt `attempt`.
    Timeout { attempt: u32 },
}

/// Micro-simulation events for one read-reply delivery.
enum REv {
    /// The encrypted reply arriving at the processor.
    Reply(Frame),
    /// A poll/NACK arriving at the memory side (resend request).
    Poll,
    /// Reply timeout for attempt `attempt`.
    Timeout { attempt: u32 },
}

/// The unreliable bus plus its recovery protocol.
#[derive(Debug)]
pub struct FaultyLink {
    cfg: LinkConfig,
    plan: FaultPlan,
    rng: SplitMix64,
    channels: Vec<ChannelLinkState>,
    /// Recovery counters, one entry per channel.
    stats: Vec<LinkStats>,
}

impl FaultyLink {
    /// Builds the link for `channels` memory channels.
    pub fn new(cfg: LinkConfig, plan: FaultPlan, channels: usize) -> Self {
        FaultyLink {
            cfg,
            plan,
            rng: SplitMix64::new(plan.seed).split_named("faulty-link"),
            channels: vec![ChannelLinkState::default(); channels],
            stats: vec![LinkStats::default(); channels],
        }
    }

    /// Recovery counters summed over every channel.
    pub fn stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for ch in &self.stats {
            total.merge(ch);
        }
        total
    }

    /// One channel's recovery counters.
    pub fn channel_stats(&self, channel: usize) -> &LinkStats {
        &self.stats[channel]
    }

    /// True when `channel` has been quarantined.
    pub fn is_quarantined(&self, channel: usize) -> bool {
        self.channels.get(channel).is_some_and(|c| c.quarantined)
    }

    /// Lowest-indexed healthy channel, if any.
    pub fn first_healthy(&self) -> Option<usize> {
        self.channels.iter().position(|c| !c.quarantined)
    }

    /// Link sequence numbers currently agreed by both ends of `channel`
    /// (diagnostic: equal values mean the ARQ state re-converged).
    pub fn seq_state(&self, channel: usize) -> (u64, u64) {
        let c = &self.channels[channel];
        (c.next_seq, c.expected_seq)
    }

    fn timeout_after(&self, attempt: u32) -> Duration {
        let shift = attempt.min(self.cfg.backoff_cap);
        Duration::from_ps(self.cfg.ack_timeout.as_ps() << shift)
    }

    /// Samples the fate of one data-frame transmission. Draw order is
    /// fixed (flip, drop, duplicate, replay, reorder, delay) so seeded
    /// campaigns are reproducible; the first process to fire wins, which
    /// keeps single-fault campaigns exact and mixed campaigns
    /// approximately additive at the small rates used.
    fn sample_fate(&mut self, channel: usize) -> Fate {
        let fate = if self.rng.chance(self.plan.bit_flip) {
            Fate::Flip
        } else if self.rng.chance(self.plan.drop) {
            Fate::Drop
        } else if self.rng.chance(self.plan.duplicate) {
            Fate::Duplicate
        } else if self.rng.chance(self.plan.replay) {
            Fate::Replay
        } else if self.rng.chance(self.plan.reorder) {
            // A reorder is a hold-back just past one timeout: the
            // retransmission overtakes the original, which then arrives
            // stale.
            Fate::Delay { bursts: 1 }
        } else if self.rng.chance(self.plan.delay_burst) {
            Fate::Delay {
                bursts: 2 + self.rng.below(3),
            }
        } else {
            Fate::Intact
        };
        if !matches!(fate, Fate::Intact) {
            self.stats[channel].faults_injected.incr();
        }
        fate
    }

    /// Fate of a small control frame (ACK/NACK/resync/poll): control
    /// frames are a few dozen bits against a data frame's ~900, so
    /// their per-frame flip probability is negligible and modeled as
    /// zero (a flipped authenticated control frame would just be
    /// discarded like a drop anyway); they remain subject to loss and
    /// delay. Returns `None` when lost, or the extra delay when
    /// delivered.
    fn control_fate(&mut self, channel: usize) -> Option<Duration> {
        if self.rng.chance(self.plan.drop) {
            self.stats[channel].faults_injected.incr();
            return None;
        }
        if self.rng.chance(self.plan.delay_burst) || self.rng.chance(self.plan.reorder) {
            self.stats[channel].faults_injected.incr();
            let bursts = 1 + self.rng.below(2);
            return Some(Duration::from_ps(self.cfg.ack_timeout.as_ps() * bursts));
        }
        Some(Duration::ZERO)
    }

    /// Flips one uniformly random bit across the concatenated wire
    /// layout of `frame`'s packets, each laid out `header ‖ data ‖ tag`.
    fn flip_random_bit(&mut self, frame: &mut Frame) {
        let total: usize = frame.packets().map(BusPacket::wire_bytes).sum();
        let mut pos = self.rng.below(total as u64) as usize;
        let bit = 1u8 << self.rng.below(8);
        for pkt in std::iter::once(&mut frame.primary).chain(&mut frame.companion) {
            let lanes = [
                Some(&mut pkt.header_ct[..]),
                pkt.data_ct.as_mut().map(|d| &mut d[..]),
                pkt.tag.as_mut().map(|t| &mut t[..]),
            ];
            for lane in lanes.into_iter().flatten() {
                if pos < lane.len() {
                    lane[pos] ^= bit;
                    return;
                }
                pos -= lane.len();
            }
        }
    }

    /// Schedules the copies of `frame` that arrive under `fate`, built
    /// into events by `arrive_as`: none when dropped, two when
    /// duplicated, one `hold_ps` late when replayed or delayed, and one
    /// on time otherwise (with one bit flipped under [`Fate::Flip`]).
    fn schedule<E>(
        &mut self,
        q: &mut EventQueue<E>,
        t: Time,
        fate: Fate,
        hold_ps: u64,
        frame: &Frame,
        arrive_as: impl Fn(Frame) -> E,
    ) {
        let arrive = t + self.cfg.frame_latency;
        match fate {
            Fate::Intact => q.push(arrive, arrive_as(frame.clone())),
            Fate::Flip => {
                let mut copy = frame.clone();
                self.flip_random_bit(&mut copy);
                q.push(arrive, arrive_as(copy));
            }
            Fate::Drop => {}
            Fate::Duplicate => {
                q.push(arrive, arrive_as(frame.clone()));
                q.push(arrive + self.cfg.frame_latency, arrive_as(frame.clone()));
            }
            Fate::Replay | Fate::Delay { .. } => {
                q.push(
                    arrive + Duration::from_ps(hold_ps),
                    arrive_as(frame.clone()),
                );
            }
        }
    }

    /// Transmits (or mis-transmits) request frame `seq`.
    fn send_data(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: Time,
        channel: usize,
        seq: u64,
        frame: &Frame,
    ) {
        let fate = self.sample_fate(channel);
        let ack = self.cfg.ack_timeout.as_ps();
        let hold = match fate {
            Fate::Replay => {
                // The captured previous frame is injected just ahead of
                // the current one. Its stale sequence number gets it
                // discarded before any pad is consumed.
                if let Some((seq, frame)) = self.channels[channel].last_sent.clone() {
                    q.push(t + self.cfg.frame_latency, Ev::Data { seq, frame });
                }
                1
            }
            // Held back past `bursts` timeouts (plus a half to land
            // clearly after the retransmission that overtakes it).
            Fate::Delay { bursts } => ack * bursts + ack / 2,
            _ => 0,
        };
        self.schedule(q, t, fate, hold, frame, |frame| Ev::Data { seq, frame });
    }

    /// Transmits (or mis-transmits) a reply frame. A replayed reply
    /// carries a stale counter's ciphertext; its MAC/CRC mismatch makes
    /// it equivalent to a flip, and the wire effect of holding the fresh
    /// one back is a delay, so any held-back reply is 1.5 timeouts late.
    fn send_reply(&mut self, q: &mut EventQueue<REv>, t: Time, channel: usize, frame: &Frame) {
        let fate = self.sample_fate(channel);
        let hold = self.cfg.ack_timeout.as_ps() * 3 / 2;
        self.schedule(q, t, fate, hold, frame, REv::Reply);
    }

    /// Sends the next attempt of request frame `seq` at `at` and arms its
    /// timeout.
    fn retransmit(
        &mut self,
        q: &mut EventQueue<Ev>,
        at: Time,
        channel: usize,
        seq: u64,
        frame: &Frame,
        attempt: &mut u32,
    ) {
        *attempt += 1;
        self.stats[channel].retransmits.incr();
        self.send_data(q, at, channel, seq, frame);
        q.push(
            at + self.timeout_after(*attempt),
            Ev::Timeout { attempt: *attempt },
        );
    }

    /// Sends a control frame, subject to [`Self::control_fate`].
    fn send_control(&mut self, q: &mut EventQueue<Ev>, t: Time, channel: usize, ev: Ev) {
        if let Some(extra) = self.control_fate(channel) {
            q.push(t + self.cfg.frame_latency + extra, ev);
        }
    }

    /// Marks `channel` quarantined unless it is the last healthy one
    /// (which instead has its failure counters reset — the system never
    /// deadlocks with every channel dark). Returns true if quarantined.
    fn quarantine(&mut self, channel: usize) -> bool {
        let healthy = self.channels.iter().filter(|c| !c.quarantined).count();
        if healthy <= 1 {
            let st = &mut self.channels[channel];
            st.rekeys = 0;
            st.integrity_failures = 0;
            return false;
        }
        self.channels[channel].quarantined = true;
        self.stats[channel].quarantines.incr();
        true
    }

    /// Carries one obfuscated request over the faulty bus, running the
    /// full recovery protocol as a micro-simulation on an
    /// [`EventQueue`] in simulated time.
    ///
    /// On success both engines have consumed exactly one request's pads
    /// (counters re-converged), and the outcome carries any extra
    /// recovery latency for the backend's timing chain.
    ///
    /// # Errors
    ///
    /// * [`ObfusMemError::ChannelQuarantined`] when the escalation
    ///   ladder quarantines `channel` (also when called on an
    ///   already-quarantined channel); the caller re-steers and
    ///   re-issues.
    /// * [`ObfusMemError::NoSuchChannel`] for bad indices.
    pub fn deliver(
        &mut self,
        now: Time,
        channel: usize,
        proc: &mut ProcessorEngine,
        mem: &mut MemoryEngine,
        delivery: Delivery<'_>,
    ) -> Result<DeliveryOutcome, ObfusMemError> {
        if self.is_quarantined(channel) {
            return Err(ObfusMemError::ChannelQuarantined { channel });
        }

        let mut pair = proc.obfuscate(now, channel, delivery)?;
        let mut frame = Frame::new(pair.real.clone(), pair.dummy.clone());
        let seq = self.channels[channel].next_seq;
        let mut attempt: u32 = 0;
        let mut decoded: Option<(DecodedRequest, Option<DecodedRequest>)> = None;
        let mut acked_at: Option<Time> = None;
        // Fault-free completion: frame out + ACK back.
        let clean_done = now + self.cfg.frame_latency + self.cfg.frame_latency;

        let mut q: EventQueue<Ev> = EventQueue::new();
        self.send_data(&mut q, now, channel, seq, &frame);
        q.push(now + self.timeout_after(attempt), Ev::Timeout { attempt });

        while let Some((t, ev)) = q.pop() {
            if acked_at.is_some() {
                break;
            }
            match ev {
                Ev::Data {
                    seq: fseq,
                    frame: got,
                } => {
                    // Link CRC over the data lanes: transmission flips
                    // that land there are rejected before decode — the
                    // counter is untouched and a timeout retransmission
                    // heals the loss.
                    if !got.crc_ok() {
                        self.stats[channel].crc_drops.incr();
                        continue;
                    }
                    if fseq != self.channels[channel].expected_seq {
                        // Duplicate or replayed frame: discard without
                        // touching the CTR stream; re-ACK so a sender
                        // whose ACK was lost can still complete.
                        self.stats[channel].stale_discards.incr();
                        self.send_control(&mut q, t, channel, Ev::Ack { seq: fseq });
                        continue;
                    }
                    match mem.receive(0, &got.primary, got.companion.as_ref()) {
                        Ok(out) => {
                            self.channels[channel].expected_seq = fseq + 1;
                            decoded = Some(out);
                            self.send_control(&mut q, t, channel, Ev::Ack { seq: fseq });
                        }
                        Err(_) => {
                            // MAC or parse failure: the memory counter is
                            // parked at base+2; ask the processor to
                            // repair it.
                            self.channels[channel].integrity_failures += 1;
                            self.stats[channel].nacks.incr();
                            self.send_control(&mut q, t, channel, Ev::Nack { seq: fseq });
                        }
                    }
                }
                Ev::Ack { seq: aseq } => {
                    if aseq == seq {
                        acked_at = Some(t);
                    }
                }
                Ev::Resync {
                    seq: rseq,
                    target,
                    tag,
                } => {
                    // A resync is only honored while its delivery is
                    // still pending; once the frame decoded, a straggling
                    // resync must not rewind the stream again.
                    if rseq != self.channels[channel].expected_seq {
                        self.stats[channel].stale_discards.incr();
                        continue;
                    }
                    // A forged/corrupt tag is rejected inside (and
                    // counted as a tamper); the loop then converges via
                    // another NACK round.
                    let _ = mem.apply_resync(0, rseq, target, &tag);
                }
                // NACKs of other frames and timers of superseded
                // attempts are ignored.
                Ev::Nack { seq: nseq } if nseq != seq => {}
                Ev::Timeout { attempt: ta } if ta != attempt => {}
                Ev::Nack { .. } | Ev::Timeout { .. } if attempt >= self.cfg.max_retries => {
                    let (t_done, out) = self.force_clean(t, channel, proc, mem, &pair, seq)?;
                    decoded = Some(out);
                    acked_at = Some(t_done);
                }
                Ev::Nack { .. }
                    if self.channels[channel].integrity_failures >= self.cfg.rekey_threshold =>
                {
                    // Session re-key: both ends derive the next key from
                    // the current one and the epoch; the frame must be
                    // re-obfuscated under the new session.
                    let st = &mut self.channels[channel];
                    st.rekeys += 1;
                    st.integrity_failures = 0;
                    st.epoch += 1;
                    let (epoch, rekeys) = (st.epoch, st.rekeys);
                    self.stats[channel].rekeys.incr();
                    if rekeys >= self.cfg.quarantine_threshold && self.quarantine(channel) {
                        return Err(ObfusMemError::ChannelQuarantined { channel });
                    }
                    proc.rekey_channel(channel, epoch)?;
                    mem.rekey(0, epoch)?;
                    pair = proc.obfuscate(now, channel, delivery)?;
                    frame = Frame::new(pair.real.clone(), pair.dummy.clone());
                    let resume = t + self.cfg.rekey_latency;
                    self.retransmit(&mut q, resume, channel, seq, &frame, &mut attempt);
                }
                Ev::Nack { .. } => {
                    // Counter resynchronization: authenticated rewind to
                    // the pair's base, then retransmit. The resync frame
                    // leads the retransmission (resync_latency >
                    // frame_latency) so the stream is repaired before the
                    // data arrives again.
                    self.stats[channel].resyncs.incr();
                    let target = pair.base_counter;
                    let tag = proc.resync_tag(channel, seq, target)?;
                    self.send_control(&mut q, t, channel, Ev::Resync { seq, target, tag });
                    let resume = t + self.cfg.resync_latency;
                    self.retransmit(&mut q, resume, channel, seq, &frame, &mut attempt);
                }
                Ev::Timeout { .. } => {
                    self.retransmit(&mut q, t, channel, seq, &frame, &mut attempt);
                }
            }
        }

        let finished = acked_at.expect("ARQ loop terminates via ACK or forced clean delivery");
        let (decoded, companion) =
            decoded.expect("an ACKed delivery always carries its decode result");
        let st = &mut self.channels[channel];
        st.next_seq = seq + 1;
        st.last_sent = Some((seq, frame));
        let delay = finished.since(clean_done);
        if delay > Duration::ZERO {
            self.stats[channel]
                .recovery_latency_ns
                .record(delay.as_ns());
        }
        Ok(DeliveryOutcome {
            pair,
            decoded,
            companion,
            delay,
        })
    }

    /// Retry budget exhausted: force a clean link reset. The stream is
    /// resynchronized with a self-generated (hence always valid) tag and
    /// the pristine frame is delivered directly. Counted in
    /// `unrecovered` — campaign acceptance requires this never to fire.
    fn force_clean(
        &mut self,
        t: Time,
        channel: usize,
        proc: &ProcessorEngine,
        mem: &mut MemoryEngine,
        pair: &ObfuscatedPair,
        seq: u64,
    ) -> Result<(Time, (DecodedRequest, Option<DecodedRequest>)), ObfusMemError> {
        self.stats[channel].unrecovered.incr();
        let target = pair.base_counter;
        let tag = proc.resync_tag(channel, seq, target)?;
        mem.apply_resync(0, seq, target, &tag)
            .expect("self-generated resync tag always verifies");
        let out = mem
            .receive(0, &pair.real, pair.dummy.as_ref())
            .expect("pristine frame decodes after a link reset");
        self.channels[channel].expected_seq = seq + 1;
        Ok((t + self.cfg.frame_latency, out))
    }

    /// Carries a read reply back over the faulty bus.
    ///
    /// `reply` is the packet the memory side's
    /// [`seal_reply`](MemoryEngine::seal_reply) built. Reply sealing is
    /// stateless (pads are regenerated at `base_counter + 2`), so a lost
    /// or corrupted reply is simply resent; no counter state is at risk
    /// in this direction. Returns the block the processor opened plus the
    /// extra recovery latency.
    ///
    /// Corruption is caught by the reply MAC when authentication is on,
    /// and by the link CRC otherwise; in both cases the processor polls
    /// for a resend.
    pub fn deliver_reply(
        &mut self,
        now: Time,
        channel: usize,
        proc: &ProcessorEngine,
        base_counter: u64,
        reply: &BusPacket,
    ) -> Result<(BlockData, Duration), ObfusMemError> {
        let reply = Frame::new(reply.clone(), None);
        let clean_done = now + self.cfg.frame_latency;
        let mut attempt: u32 = 0;
        let mut accepted: Option<(Time, BlockData)> = None;

        let mut q: EventQueue<REv> = EventQueue::new();
        self.send_reply(&mut q, now, channel, &reply);
        q.push(now + self.timeout_after(attempt), REv::Timeout { attempt });

        while let Some((t, ev)) = q.pop() {
            if accepted.is_some() {
                break;
            }
            match ev {
                REv::Reply(frame) => {
                    if !frame.crc_ok() {
                        self.stats[channel].crc_drops.incr();
                        continue;
                    }
                    match proc.open_reply(channel, base_counter, &frame.primary) {
                        Ok(block) => accepted = Some((t, block)),
                        Err(_) => {
                            // Reply MAC mismatch: poll the memory side
                            // for a resend.
                            self.stats[channel].nacks.incr();
                            if let Some(extra) = self.control_fate(channel) {
                                q.push(t + self.cfg.frame_latency + extra, REv::Poll);
                            }
                        }
                    }
                }
                REv::Timeout { attempt: ta } if ta != attempt => {}
                REv::Poll | REv::Timeout { .. } if attempt >= self.cfg.max_retries => {
                    // Forced clean: accept the pristine reply.
                    let pristine = proc.open_reply(channel, base_counter, &reply.primary)?;
                    accepted = Some((t, pristine));
                    self.stats[channel].unrecovered.incr();
                }
                REv::Poll | REv::Timeout { .. } => {
                    attempt += 1;
                    self.stats[channel].retransmits.incr();
                    self.send_reply(&mut q, t, channel, &reply);
                    q.push(t + self.timeout_after(attempt), REv::Timeout { attempt });
                }
            }
        }

        let (t_done, data) = accepted.expect("reply loop terminates via accept or forced clean");
        let delay = t_done.since(clean_done);
        if delay > Duration::ZERO {
            self.stats[channel]
                .recovery_latency_ns
                .record(delay.as_ns());
        }
        Ok((data, delay))
    }
}

impl Observable for FaultyLink {
    /// Reports the summed ARQ counters and recovery latencies, plus each
    /// channel's counters and quarantine flag under `ch<N>`.
    fn observe(&self, out: &mut MetricsNode) {
        let total = self.stats();
        for (name, n) in total.counters() {
            out.set_counter(name, n);
        }
        out.set_histogram("recovery_latency_ns", &total.recovery_latency_ns);
        for (i, (ch, st)) in self.stats.iter().zip(&self.channels).enumerate() {
            let node = out.child(&format!("ch{i}"));
            for (name, n) in ch.counters() {
                node.set_counter(name, n);
            }
            node.set_counter("quarantined", st.quarantined as u64);
        }
    }
}

/// CRC-32 of every byte value (reflected, polynomial 0xEDB88320), built
/// at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Link CRC over the data-ciphertext lanes of `packets`: the MAC
/// already binds the headers (§3.5), so a data-less frame has nothing to
/// protect. CRC-32 (reflected, polynomial 0xEDB88320, initial value and
/// final xor all ones), one [`CRC_TABLE`] lookup per byte: every framed
/// delivery and every reply computes it.
fn data_crc<'a>(packets: impl IntoIterator<Item = &'a BusPacket>) -> u32 {
    let data = packets
        .into_iter()
        .filter_map(|p| p.data_ct.as_ref())
        .flatten();
    !data.fold(0xFFFF_FFFF, |crc, &byte| {
        (crc >> 8) ^ CRC_TABLE[usize::from(crc as u8 ^ byte)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::busmsg::RequestHeader;
    use crate::config::{ObfusMemConfig, SecurityLevel, TypeHiding};
    use crate::engine::ProcessorEngine;
    use crate::memside::engines_for_test;
    use obfusmem_mem::request::AccessKind;

    fn cfg_with(plan: FaultPlan) -> ObfusMemConfig {
        ObfusMemConfig {
            security: SecurityLevel::ObfuscateAuth,
            faults: plan,
            ..ObfusMemConfig::default()
        }
    }

    fn one_channel(cfg: ObfusMemConfig) -> (ProcessorEngine, MemoryEngine) {
        let (proc, mut mems) = engines_for_test(cfg, 1);
        (proc, mems.remove(0))
    }

    /// The bitwise CRC-32 the table in [`data_crc`] is built from: one
    /// shift and conditional xor per bit.
    fn data_crc_bitwise(packets: &[BusPacket]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in packets.iter().filter_map(|p| p.data_ct.as_ref()).flatten() {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn plan_single(kind: FaultKind, rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::single(kind, rate, seed)
    }

    fn read_req(addr: u64) -> RequestHeader {
        RequestHeader {
            kind: AccessKind::Read,
            addr,
        }
    }

    fn write_req(addr: u64) -> RequestHeader {
        RequestHeader {
            kind: AccessKind::Write,
            addr,
        }
    }

    /// Runs `n` writes through the link and asserts every delivery
    /// decodes to the original request with both counters converged.
    fn run_campaign(kind: FaultKind, rate: f64, seed: u64, n: usize) -> LinkStats {
        run_campaign_with(cfg_with(plan_single(kind, rate, seed)), n)
    }

    /// [`run_campaign`] under any configuration.
    fn run_campaign_with(mut cfg: ObfusMemConfig, n: usize) -> LinkStats {
        let plan = cfg.faults;
        // Campaign rates here are orders of magnitude above the ≤1e-3
        // acceptance envelope; widen the retry budget so compounded
        // data+ACK losses at rate 0.3+ stay inside it.
        cfg.link.max_retries = 16;
        let (mut proc, mut mem) = one_channel(cfg);
        let mut link = FaultyLink::new(cfg.link, plan, 1);
        let mut now = Time::ZERO;
        for i in 0..n {
            let data = [i as u8; 64];
            let header = write_req(64 * i as u64);
            let out = link
                .deliver(
                    now,
                    0,
                    &mut proc,
                    &mut mem,
                    Delivery::Pair {
                        header,
                        data: Some(&data),
                    },
                )
                .expect("single channel never quarantines");
            assert_eq!(out.decoded.header, header, "decoded request must match");
            assert_eq!(out.decoded.data, Some(data), "payload must survive");
            assert_eq!(
                proc.counter(0),
                mem.counter(0),
                "counters must re-converge after every delivery"
            );
            let (next, expected) = link.seq_state(0);
            assert_eq!(next, expected, "ARQ sequence state must re-converge");
            now = now + Duration::from_ns(1_000) + out.delay;
        }
        link.stats().clone()
    }

    #[test]
    fn fault_free_deliveries_have_zero_delay_and_no_faults() {
        let stats = run_campaign(FaultKind::Drop, 0.0, 1, 50);
        assert_eq!(stats.faults_injected.get(), 0);
        assert_eq!(stats.retransmits.get(), 0);
        assert_eq!(stats.unrecovered.get(), 0);
    }

    #[test]
    fn every_fault_kind_recovers_at_high_rate() {
        for kind in ALL_FAULT_KINDS {
            let stats = run_campaign(kind, 0.2, 0xC0FFEE ^ kind as u64, 120);
            assert!(
                stats.faults_injected.get() > 0,
                "{}: campaign must actually inject faults",
                kind.name()
            );
            assert_eq!(
                stats.unrecovered.get(),
                0,
                "{}: every fault must be recovered within the retry budget",
                kind.name()
            );
        }
    }

    /// Without MACs only the link CRC checks a data lane in band, so
    /// drops, duplicates and delay bursts must heal through the ARQ
    /// alone.
    #[test]
    fn lossy_faults_recover_without_authentication() {
        for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::DelayBurst] {
            let cfg = ObfusMemConfig {
                security: SecurityLevel::Obfuscate,
                ..cfg_with(plan_single(kind, 0.2, 11))
            };
            let stats = run_campaign_with(cfg, 80);
            assert!(stats.faults_injected.get() > 0, "{}", kind.name());
            assert_eq!(stats.unrecovered.get(), 0, "{}", kind.name());
        }
    }

    #[test]
    fn bit_flips_drive_nacks_and_resyncs() {
        let stats = run_campaign(FaultKind::BitFlip, 0.3, 42, 200);
        assert!(stats.retransmits.get() > 0);
        assert!(
            stats.nacks.get() > 0 || stats.crc_drops.get() > 0,
            "flips must be caught by MAC (header/tag) or CRC (data)"
        );
        assert!(
            stats.resyncs.get() > 0,
            "header flips must exercise the resync handshake"
        );
    }

    #[test]
    fn drops_recover_via_timeout_retransmission() {
        let stats = run_campaign(FaultKind::Drop, 0.3, 43, 200);
        assert!(stats.retransmits.get() > 0);
        assert_eq!(stats.unrecovered.get(), 0);
    }

    #[test]
    fn duplicates_and_replays_are_discarded_stale() {
        let dup = run_campaign(FaultKind::Duplicate, 0.3, 44, 200);
        assert!(dup.stale_discards.get() > 0);
        let rep = run_campaign(FaultKind::Replay, 0.3, 45, 200);
        assert!(rep.stale_discards.get() > 0);
    }

    #[test]
    fn recovery_latency_is_recorded() {
        let stats = run_campaign(FaultKind::Drop, 0.4, 46, 200);
        assert!(
            stats.recovery_latency_ns.quantile(0.5).is_some(),
            "recovered deliveries must populate the latency histogram"
        );
    }

    #[test]
    fn sustained_corruption_escalates_to_rekey_then_quarantine() {
        // Rate 1.0 flips every transmission including every retransmit,
        // driving the ladder: resync → rekey → quarantine. Two channels
        // so quarantine is permitted; tight thresholds and a generous
        // retry budget so the ladder completes within one delivery.
        let plan = plan_single(FaultKind::BitFlip, 1.0, 7);
        let mut cfg = cfg_with(plan);
        cfg.link.rekey_threshold = 1;
        cfg.link.quarantine_threshold = 2;
        cfg.link.max_retries = 64;
        let (mut proc, mut mem) = one_channel(cfg);
        let mut link = FaultyLink::new(cfg.link, plan, 2);
        let data = [0xAB; 64];
        let err = link
            .deliver(
                Time::ZERO,
                0,
                &mut proc,
                &mut mem,
                Delivery::Pair {
                    header: write_req(0),
                    data: Some(&data),
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ObfusMemError::ChannelQuarantined { channel: 0 }
        ));
        assert!(link.is_quarantined(0));
        assert!(!link.is_quarantined(1));
        assert_eq!(link.first_healthy(), Some(1));
        assert!(link.stats().rekeys.get() >= 1);
        assert_eq!(link.stats().quarantines.get(), 1);
    }

    #[test]
    fn last_healthy_channel_refuses_quarantine() {
        let plan = plan_single(FaultKind::BitFlip, 1.0, 8);
        let mut cfg = cfg_with(plan);
        cfg.link.rekey_threshold = 1;
        cfg.link.quarantine_threshold = 1;
        cfg.link.max_retries = 24;
        let (mut proc, mut mem) = one_channel(cfg);
        let mut link = FaultyLink::new(cfg.link, plan, 1);
        let data = [0xCD; 64];
        // With every transmission corrupted the delivery eventually
        // force-resets, but the single channel must never quarantine.
        let out = link.deliver(
            Time::ZERO,
            0,
            &mut proc,
            &mut mem,
            Delivery::Pair {
                header: write_req(64),
                data: Some(&data),
            },
        );
        assert!(out.is_ok(), "single channel must keep making progress");
        assert!(!link.is_quarantined(0));
        assert_eq!(link.stats().quarantines.get(), 0);
        assert!(link.stats().unrecovered.get() > 0);
        // The channel stays usable afterwards.
        let plan_off = FaultPlan::default();
        link.plan = plan_off;
        let out2 = link
            .deliver(
                Time::from_ps(1_000_000),
                0,
                &mut proc,
                &mut mem,
                Delivery::Pair {
                    header: read_req(64),
                    data: None,
                },
            )
            .unwrap();
        assert_eq!(out2.decoded.header, read_req(64));
    }

    #[test]
    fn reply_path_recovers_flips_and_drops() {
        for kind in [FaultKind::BitFlip, FaultKind::Drop, FaultKind::DelayBurst] {
            let plan = plan_single(kind, 0.3, 9);
            let cfg = cfg_with(plan);
            let (proc, mem) = one_channel(cfg);
            let mut link = FaultyLink::new(cfg.link, plan, 1);
            let stored = [0x5A; 64];
            let mut now = Time::ZERO;
            for i in 0..100u64 {
                let base = 6 * i; // any counter works: replies are stateless
                let reply = mem.seal_reply(0, base, &stored).unwrap();
                let (data, delay) = link
                    .deliver_reply(now, 0, &proc, base, &reply)
                    .expect("reply delivery is infallible up to forced clean");
                assert_eq!(data, stored, "{}: reply data must survive", kind.name());
                now = now + Duration::from_ns(1_000) + delay;
            }
            assert!(link.stats().faults_injected.get() > 0);
            assert_eq!(link.stats().unrecovered.get(), 0, "{}", kind.name());
        }
    }

    #[test]
    fn uniform_deliveries_recover_too() {
        let plan = plan_single(FaultKind::BitFlip, 0.25, 11);
        let mut cfg = cfg_with(plan);
        cfg.type_hiding = TypeHiding::UniformPackets;
        let (mut proc, mut mem) = one_channel(cfg);
        let mut link = FaultyLink::new(cfg.link, plan, 1);
        let mut now = Time::ZERO;
        for i in 0..100usize {
            let data = [i as u8; 64];
            let out = link
                .deliver(
                    now,
                    0,
                    &mut proc,
                    &mut mem,
                    Delivery::Uniform {
                        header: write_req(64 * i as u64),
                        data: Some(&data),
                    },
                )
                .unwrap();
            assert_eq!(out.decoded.data, Some(data));
            assert_eq!(proc.counter(0), mem.counter(0));
            now = now + Duration::from_ns(1_000) + out.delay;
        }
        assert_eq!(link.stats().unrecovered.get(), 0);
    }

    /// A uniform ObfusMem+Auth frame is one 88-byte packet, all of it
    /// covered by the CRC (data) or the MAC (header, tag), so every bit
    /// flip the link injects is caught: as a CRC drop or as a NACK.
    #[test]
    fn every_uniform_bit_flip_ends_in_a_crc_drop_or_a_nack() {
        let plan = plan_single(FaultKind::BitFlip, 0.3, 12);
        let mut cfg = cfg_with(plan);
        cfg.type_hiding = TypeHiding::UniformPackets;
        cfg.link.max_retries = 16;
        let (mut proc, mut mem) = one_channel(cfg);
        let mut link = FaultyLink::new(cfg.link, plan, 1);
        let mut now = Time::ZERO;
        for i in 0..200usize {
            let data = [i as u8; 64];
            let (header, data) = match i % 2 {
                0 => (read_req(64 * i as u64), None),
                _ => (write_req(64 * i as u64), Some(&data)),
            };
            let out = link
                .deliver(
                    now,
                    0,
                    &mut proc,
                    &mut mem,
                    Delivery::Uniform { header, data },
                )
                .unwrap();
            assert_eq!(out.decoded.header, header);
            now = now + Duration::from_ns(1_000) + out.delay;
        }
        let stats = link.stats();
        assert!(stats.faults_injected.get() > 0);
        assert_eq!(
            stats.faults_injected.get(),
            stats.crc_drops.get() + stats.nacks.get(),
            "a flip went unnoticed"
        );
    }

    #[test]
    fn per_channel_counters_sum_to_aggregate() {
        // One channel: the per-channel slice must equal the aggregate.
        let plan = plan_single(FaultKind::BitFlip, 0.3, 42);
        let mut cfg = cfg_with(plan);
        cfg.link.max_retries = 16;
        let (mut proc, mut mem) = one_channel(cfg);
        let mut link = FaultyLink::new(cfg.link, plan, 1);
        let mut now = Time::ZERO;
        for i in 0..120usize {
            let data = [i as u8; 64];
            let out = link
                .deliver(
                    now,
                    0,
                    &mut proc,
                    &mut mem,
                    Delivery::Pair {
                        header: write_req(64 * i as u64),
                        data: Some(&data),
                    },
                )
                .unwrap();
            now = now + Duration::from_ns(1_000) + out.delay;
        }
        let agg = link.stats();
        let ch = link.channel_stats(0);
        assert!(agg.faults_injected.get() > 0);
        assert_eq!(ch.faults_injected.get(), agg.faults_injected.get());
        assert_eq!(ch.retransmits.get(), agg.retransmits.get());
        assert_eq!(ch.nacks.get(), agg.nacks.get());
        assert_eq!(ch.resyncs.get(), agg.resyncs.get());
        assert_eq!(ch.crc_drops.get(), agg.crc_drops.get());
        assert_eq!(ch.unrecovered.get(), agg.unrecovered.get());

        let mut snap = MetricsNode::new();
        link.observe(&mut snap);
        assert_eq!(snap.counter("retransmits"), Some(agg.retransmits.get()));
        assert_eq!(snap.counter("ch0.retransmits"), Some(agg.retransmits.get()));
        assert_eq!(snap.counter("ch0.quarantined"), Some(0));
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for kind in ALL_FAULT_KINDS {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }

    #[test]
    fn crc_detects_any_single_bit_flip_in_data() {
        let mut pkt = BusPacket {
            header_ct: [0u8; 16],
            data_ct: Some([0x3C; 64]),
            tag: Some([0u8; 8]),
        };
        let dummy = BusPacket {
            header_ct: [0u8; 16],
            data_ct: None,
            tag: None,
        };
        let clean = data_crc(&[pkt.clone(), dummy.clone()]);
        for byte in 0..64 {
            for bit in 0..8 {
                pkt.data_ct.as_mut().unwrap()[byte] ^= 1 << bit;
                let flipped = data_crc(&[pkt.clone(), dummy.clone()]);
                assert_ne!(flipped, clean, "flip at {byte}.{bit}");
                pkt.data_ct.as_mut().unwrap()[byte] ^= 1 << bit;
            }
        }
    }

    /// One fixed frame's CRC, pinned: 0x0AAC978D is what the standard
    /// (zlib, IEEE 802.3) CRC-32 gives over the frame's 128 data bytes,
    /// and a frame with no data lanes has the CRC of no bytes.
    #[test]
    fn data_crc_matches_its_known_answer() {
        let data = |bytes: [u8; 64]| BusPacket {
            header_ct: [0u8; 16],
            data_ct: Some(bytes),
            tag: None,
        };
        let frame = [data(std::array::from_fn(|i| i as u8)), data([0xA5; 64])];
        assert_eq!(data_crc(&frame), 0x0AAC978D);
        assert_eq!(data_crc(&frame[..0]), 0);
    }

    obfusmem_testkit::proptest! {
        #![proptest_config(obfusmem_testkit::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn table_crc_matches_bitwise(
            headers: [[u8; 16]; 2],
            data: [Option<[u8; 64]>; 2],
            tags: [Option<[u8; 8]>; 2],
            two: bool
        ) {
            let frame: Vec<BusPacket> = (0..1 + usize::from(two))
                .map(|i| BusPacket { header_ct: headers[i], data_ct: data[i], tag: tags[i] })
                .collect();
            obfusmem_testkit::prop_assert_eq!(data_crc(&frame), data_crc_bitwise(&frame));
        }
    }
}
