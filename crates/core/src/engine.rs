//! The processor-side ObfusMem engine (paper Figure 3, steps 1–4).
//!
//! For every memory request the engine looks up the channel's session
//! (Session Key Table, step 1b), draws the request's six pads from the
//! channel's pad buffer (step 3) and seals the request into its pad
//! window (steps 4a–4c): the headers, the one payload and the MAC tags
//! the [`crate::config::MacScheme`] asks for. Write data is already
//! memory-encrypted ciphertext; this second encryption is what hides
//! temporal reuse (Observation 1). A split pair's dummy takes the
//! opposite type (§3.3) at the address the
//! [`crate::config::DummyAddressPolicy`] dictates. [`crate::window`]
//! gives each request shape's slot layout.
//!
//! Both ends then advance their shared counter by six.

use obfusmem_crypto::ctr::{PadBuffer, PADS_PER_REQUEST, PAD_BATCH};
use obfusmem_mem::request::{AccessKind, BlockData};
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::time::Time;

use crate::busmsg::{BusPacket, RequestHeader};
use crate::config::ObfusMemConfig;
use crate::session::SessionKeyTable;
use crate::window::{self, Delivery};
use crate::ObfusMemError;

/// The reserved fixed dummy block address (§3.3's fixed-address design):
/// one block-aligned address per module, recognized and dropped by the
/// memory side. Chosen at the very top of the address space so it never
/// collides with a real allocation.
pub const FIXED_DUMMY_ADDR: u64 = !63u64;

/// A request's packets ready for the bus.
#[derive(Debug, Clone)]
pub struct ObfuscatedPair {
    /// The real request's packet.
    pub real: BusPacket,
    /// The companion packet: the paired dummy (opposite type) or the
    /// substituted write; `None` for a uniform request, one packet.
    pub dummy: Option<BusPacket>,
    /// Plaintext header of the companion, or of the request itself for a
    /// uniform one (for accounting/ablation; never on the wire).
    pub dummy_header: RequestHeader,
    /// Counter value of the first of the six pads this pair consumed —
    /// the processor opens the eventual read reply with pads
    /// `base_counter+2 ..= base_counter+5`.
    pub base_counter: u64,
    /// Extra stall (ps) suffered because the pad buffer under-ran.
    pub pad_stall_ps: u64,
}

/// What an injected cross-channel dummy pair (§3.4) used up: enough to
/// rebuild its packets for an observer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InjectedPair {
    /// Counter value of the first of the six pads the pair consumed.
    base_counter: u64,
    /// The dummy write's random payload.
    payload: BlockData,
}

/// The processor-side engine.
#[derive(Debug)]
pub struct ProcessorEngine {
    cfg: ObfusMemConfig,
    sessions: SessionKeyTable,
    pad_buffers: Vec<PadBuffer>,
    rng: SplitMix64,
    dummies_generated: u64,
}

impl ProcessorEngine {
    /// Builds the engine over an established session table.
    pub fn new(cfg: ObfusMemConfig, sessions: SessionKeyTable, seed: u64) -> Self {
        let lat = cfg.latencies;
        let pad_buffers = (0..sessions.channels())
            .map(|_| {
                // A fresh channel pre-generates at least one full
                // wide-block pass of pads during boot (covering a whole
                // request with two to spare), so the first request never
                // faults them in one by one.
                PadBuffer::new(
                    lat.pad_buffer.max(PAD_BATCH as u64),
                    lat.aes_per_pad.as_ps(),
                    lat.aes_fill.as_ps(),
                )
            })
            .collect();
        ProcessorEngine {
            cfg,
            sessions,
            pad_buffers,
            rng: SplitMix64::new(seed),
            dummies_generated: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ObfusMemConfig {
        &self.cfg
    }

    /// Dummy packets generated so far.
    pub fn dummies_generated(&self) -> u64 {
        self.dummies_generated
    }

    /// Adds a session lane (key + nonce) with its own pad bank and
    /// returns its channel index. Every per-channel method — obfuscate,
    /// open_reply, rekey_channel — addresses the new lane like any
    /// bootstrap-time channel; the multi-tenant fabric grows the table
    /// one lane per tenant handshake.
    pub fn add_lane(&mut self, key: [u8; 16], nonce: u64) -> usize {
        let lane = self.sessions.add_session(key, nonce);
        let lat = self.cfg.latencies;
        self.pad_buffers.push(PadBuffer::new(
            lat.pad_buffer.max(PAD_BATCH as u64),
            lat.aes_per_pad.as_ps(),
            lat.aes_fill.as_ps(),
        ));
        debug_assert_eq!(lane + 1, self.pad_buffers.len());
        lane
    }

    /// Validates a channel index before any per-channel state is touched,
    /// so a bad index surfaces as a typed error instead of an
    /// out-of-bounds panic on the request path.
    fn check_channel(&self, channel: usize) -> Result<(), ObfusMemError> {
        let channels = self.pad_buffers.len();
        if channel >= channels {
            return Err(ObfusMemError::NoSuchChannel { channel, channels });
        }
        Ok(())
    }

    /// This end's counter for `channel` (resync/diagnostics).
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for bad channel indices.
    pub fn counter(&self, channel: usize) -> Result<u64, ObfusMemError> {
        Ok(self.sessions.session(channel)?.stream().counter())
    }

    /// Re-keys `channel` after repeated integrity failures (link-layer
    /// escalation): derives the next session key from the current one and
    /// `epoch`, and refills the channel's pad bank under the new key.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for bad channel indices.
    pub fn rekey_channel(&mut self, channel: usize, epoch: u64) -> Result<(), ObfusMemError> {
        self.sessions.session_mut(channel)?.rekey(epoch);
        let lat = self.cfg.latencies;
        self.pad_buffers[channel] = PadBuffer::new(
            lat.pad_buffer.max(PAD_BATCH as u64),
            lat.aes_per_pad.as_ps(),
            lat.aes_fill.as_ps(),
        );
        Ok(())
    }

    /// Authenticates a counter-resynchronization request: a MAC over the
    /// resync domain, the link sequence number, and the target counter,
    /// keyed with the channel's session key. The memory side verifies
    /// this before seeking its stream, so an attacker cannot forge
    /// desyncs.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for bad channel indices.
    pub fn resync_tag(
        &self,
        channel: usize,
        seq: u64,
        target: u64,
    ) -> Result<[u8; 8], ObfusMemError> {
        Ok(self.sessions.session(channel)?.mac().tag(&[
            b"resync",
            &seq.to_le_bytes(),
            &target.to_le_bytes(),
        ]))
    }

    /// Obfuscates one request for `channel` at `now`, in any of §3.3's
    /// shapes ([`crate::window`] gives each one's slots). Write payloads
    /// are the memory-encrypted block.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for bad channel indices.
    pub fn obfuscate(
        &mut self,
        now: Time,
        channel: usize,
        delivery: Delivery<'_>,
    ) -> Result<ObfuscatedPair, ObfusMemError> {
        self.check_channel(channel)?;
        if let Delivery::Pair { header, data } | Delivery::Uniform { header, data } = delivery {
            debug_assert_eq!(
                data.is_some(),
                header.kind == AccessKind::Write,
                "writes carry data, reads do not"
            );
        }
        let pad_stall_ps = self.pad_buffers[channel].consume(now.as_ps(), PADS_PER_REQUEST);
        let session = self.sessions.session_mut(channel)?;
        let pair = window::seal(&self.cfg, session, &mut self.rng, delivery, pad_stall_ps);
        // A substituted write fills the dummy's slot; a uniform packet's
        // padding counts as dummy bytes.
        if !matches!(delivery, Delivery::Substituted { .. }) {
            self.dummies_generated += 1;
        }
        Ok(pair)
    }

    /// Issues one cross-channel dummy pair (§3.4) on `channel`: a read
    /// and a write, both of the fixed dummy block. The pair is encrypted
    /// like any other, so it draws a request's pads from the buffer,
    /// advances the counter by six and draws the write's random payload
    /// whether or not anyone watches the bus. The pads are skipped, not
    /// generated: [`Self::injected_packets`] rebuilds the wire packets
    /// only for an observer. Nobody waits on the pair, so its pad stall
    /// is not charged.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for bad channel indices.
    pub(crate) fn inject(
        &mut self,
        now: Time,
        channel: usize,
    ) -> Result<InjectedPair, ObfusMemError> {
        self.check_channel(channel)?;
        self.pad_buffers[channel].consume(now.as_ps(), PADS_PER_REQUEST);
        let stream = self.sessions.session_mut(channel)?.stream_mut();
        let base_counter = stream.counter();
        stream.skip_pads(PADS_PER_REQUEST);
        self.dummies_generated += 1;
        Ok(InjectedPair {
            base_counter,
            payload: window::random_block(&mut self.rng),
        })
    }

    /// The read and write packets of a pair [`Self::inject`] issued,
    /// sealed with the pads at its base counter. Reads engine state
    /// only, so building them for an observer changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::NoSuchChannel`] for bad channel indices.
    pub(crate) fn injected_packets(
        &self,
        channel: usize,
        pair: &InjectedPair,
    ) -> Result<[BusPacket; 2], ObfusMemError> {
        let session = self.sessions.session(channel)?;
        Ok(window::seal_injected(
            &self.cfg,
            session,
            pair.base_counter,
            pair.payload,
        ))
    }

    /// Opens the reply to `channel`'s read whose window starts at
    /// `base_counter` ([`crate::window`] gives its slots): checks the reply
    /// tag when authenticating, then decrypts the stored block.
    ///
    /// # Errors
    ///
    /// [`ObfusMemError::NoSuchChannel`] for bad channel indices, else
    /// [`ObfusMemError::MalformedPacket`] for a missing tag (when
    /// authenticating, checked first) or data, and
    /// [`ObfusMemError::TamperDetected`] for a tag that does not verify.
    pub fn open_reply(
        &self,
        channel: usize,
        base_counter: u64,
        reply: &BusPacket,
    ) -> Result<BlockData, ObfusMemError> {
        let session = self.sessions.session(channel)?;
        window::open_reply(&self.cfg, session, base_counter, reply)
    }

    /// Number of channels this engine serves.
    pub fn channels(&self) -> usize {
        self.sessions.channels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AddressCipherMode, DummyAddressPolicy, MacScheme, SecurityLevel};
    use crate::session::SessionKeyTable;

    fn engine(cfg: ObfusMemConfig) -> ProcessorEngine {
        let table = SessionKeyTable::new(vec![([7; 16], 99), ([8; 16], 100)]);
        ProcessorEngine::new(cfg, table, 42)
    }

    fn paired(header: RequestHeader, data: Option<&BlockData>) -> Delivery<'_> {
        Delivery::Pair { header, data }
    }

    fn read_header() -> RequestHeader {
        RequestHeader {
            kind: AccessKind::Read,
            addr: 0x4_0000,
        }
    }

    #[test]
    fn read_requests_pair_with_dummy_writes() {
        let mut e = engine(ObfusMemConfig::paper_default());
        let pair = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_eq!(pair.dummy_header.kind, AccessKind::Write);
        assert_eq!(pair.dummy_header.addr, FIXED_DUMMY_ADDR);
        assert!(pair.real.data_ct.is_none(), "read request carries no data");
        assert!(
            pair.dummy.is_some_and(|d| d.data_ct.is_some()),
            "dummy write must look like a write"
        );
    }

    #[test]
    fn write_requests_pair_with_dummy_reads() {
        let mut e = engine(ObfusMemConfig::paper_default());
        let hdr = RequestHeader {
            kind: AccessKind::Write,
            addr: 0x8000,
        };
        let pair = e
            .obfuscate(Time::ZERO, 0, paired(hdr, Some(&[1; 64])))
            .unwrap();
        assert_eq!(pair.dummy_header.kind, AccessKind::Read);
        assert!(pair.real.data_ct.is_some());
        assert!(
            pair.dummy.is_some_and(|d| d.data_ct.is_none()),
            "dummy read is command-only"
        );
    }

    #[test]
    fn headers_are_encrypted_and_fresh() {
        let mut e = engine(ObfusMemConfig::paper_default());
        let a = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        let b = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_ne!(
            a.real.header_ct,
            read_header().to_bytes(),
            "header must not be plaintext"
        );
        assert_ne!(
            a.real.header_ct, b.real.header_ct,
            "same request must encrypt differently"
        );
    }

    #[test]
    fn ecb_mode_repeats_ciphertext() {
        let cfg = ObfusMemConfig {
            address_mode: AddressCipherMode::Ecb,
            ..ObfusMemConfig::paper_default()
        };
        let mut e = engine(cfg);
        let a = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        let b = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_eq!(
            a.real.header_ct, b.real.header_ct,
            "ECB leaks temporal reuse"
        );
    }

    #[test]
    fn injected_pair_matches_a_fixed_dummy_read_byte_for_byte() {
        // An injected pair is the pair `obfuscate` builds for a read of
        // the fixed dummy block under the Fixed policy: same counters,
        // same RNG draw, same packets, in every cipher and MAC mode.
        for address_mode in [AddressCipherMode::Ctr, AddressCipherMode::Ecb] {
            for mac_scheme in [MacScheme::EncryptAndMac, MacScheme::EncryptThenMac] {
                let cfg = ObfusMemConfig {
                    address_mode,
                    mac_scheme,
                    ..ObfusMemConfig::paper_default()
                };
                let (mut a, mut b) = (engine(cfg), engine(cfg));
                let header = RequestHeader {
                    kind: AccessKind::Read,
                    addr: FIXED_DUMMY_ADDR,
                };
                let want = a.obfuscate(Time::ZERO, 1, paired(header, None)).unwrap();
                let injected = b.inject(Time::ZERO, 1).unwrap();
                let [real, dummy] = b.injected_packets(1, &injected).unwrap();
                assert_eq!(injected.base_counter, want.base_counter);
                assert_eq!((real, Some(dummy)), (want.real, want.dummy));
                assert_eq!(b.counter(1).unwrap(), a.counter(1).unwrap());
                assert_eq!(b.dummies_generated(), a.dummies_generated());
                // Later requests see the same engine state either way.
                let next_a = a
                    .obfuscate(Time::ZERO, 1, paired(read_header(), None))
                    .unwrap();
                let next_b = b
                    .obfuscate(Time::ZERO, 1, paired(read_header(), None))
                    .unwrap();
                assert_eq!(next_a.pad_stall_ps, next_b.pad_stall_ps);
                assert_eq!(next_a.dummy, next_b.dummy);
            }
        }
    }

    #[test]
    fn six_pads_consumed_per_request() {
        let mut e = engine(ObfusMemConfig::paper_default());
        let a = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        let b = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_eq!(b.base_counter - a.base_counter, 6);
    }

    #[test]
    fn channels_have_independent_counters() {
        let mut e = engine(ObfusMemConfig::paper_default());
        let a = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        let b = e
            .obfuscate(Time::ZERO, 1, paired(read_header(), None))
            .unwrap();
        assert_eq!(a.base_counter, b.base_counter, "fresh channels start equal");
        assert_ne!(
            a.real.header_ct, b.real.header_ct,
            "different keys, different ciphertext"
        );
    }

    #[test]
    fn tags_present_only_with_auth() {
        let mut auth = engine(ObfusMemConfig::paper_default());
        let pair = auth
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert!(pair.real.tag.is_some());
        assert!(pair.dummy.is_some_and(|d| d.tag.is_some()));

        let mut plain = engine(ObfusMemConfig {
            security: SecurityLevel::Obfuscate,
            ..ObfusMemConfig::paper_default()
        });
        let pair = plain
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert!(pair.real.tag.is_none());
    }

    #[test]
    fn dummy_policy_original_reuses_address() {
        let cfg = ObfusMemConfig {
            dummy_policy: DummyAddressPolicy::Original,
            ..ObfusMemConfig::paper_default()
        };
        let mut e = engine(cfg);
        let pair = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_eq!(pair.dummy_header.addr, read_header().addr);
    }

    #[test]
    fn dummy_policy_random_varies_address() {
        let cfg = ObfusMemConfig {
            dummy_policy: DummyAddressPolicy::Random,
            ..ObfusMemConfig::paper_default()
        };
        let mut e = engine(cfg);
        let a = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        let b = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_ne!(a.dummy_header.addr, b.dummy_header.addr);
        assert_eq!(
            a.dummy_header.addr % 64,
            0,
            "dummy addresses stay block-aligned"
        );
    }

    #[test]
    fn reply_decryption_uses_reserved_pads() {
        let mut e = engine(ObfusMemConfig::paper_default());
        let pair = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        // Simulate the memory side producing a reply with the same pads.
        let table = SessionKeyTable::new(vec![([7; 16], 99), ([8; 16], 100)]);
        let mem_session = table.session(0).unwrap();
        let plaintext = [0x3C; 64];
        let mut reply_ct = plaintext;
        for (i, chunk) in reply_ct.chunks_mut(16).enumerate() {
            let pad = mem_session
                .stream()
                .pad_at(pair.base_counter + 2 + i as u64);
            for (d, p) in chunk.iter_mut().zip(pad.iter()) {
                *d ^= p;
            }
        }
        let reply = BusPacket {
            header_ct: [0; 16],
            data_ct: Some(reply_ct),
            tag: Some(mem_session.mac().reply_tag(pair.base_counter, &reply_ct)),
        };
        assert_eq!(
            e.open_reply(0, pair.base_counter, &reply).unwrap(),
            plaintext
        );
    }

    #[test]
    fn cold_channel_has_a_full_pass_of_pads_banked() {
        // Even with an undersized configured buffer, a fresh channel must
        // hold one full wide-block pass of pads (eight — a whole request
        // plus two): the first request pays zero stall instead of
        // faulting pads in one by one.
        let mut cfg = ObfusMemConfig::paper_default();
        cfg.latencies.pad_buffer = 1;
        let mut e = engine(cfg);
        let first = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert_eq!(first.pad_stall_ps, 0, "cold start must be pre-warmed");
        // The clamp is a floor, not a free lunch: an immediate second
        // request finds only the two leftover pads and stalls.
        let second = e
            .obfuscate(Time::ZERO, 0, paired(read_header(), None))
            .unwrap();
        assert!(second.pad_stall_ps > 0);
    }

    #[test]
    fn sustained_bursts_stall_on_pad_buffer() {
        let mut e = engine(ObfusMemConfig::paper_default());
        // 64-pad buffer / 6 pads per request ≈ 10 requests before dry.
        let mut total_stall = 0;
        for _ in 0..20 {
            let pair = e
                .obfuscate(Time::ZERO, 0, paired(read_header(), None))
                .unwrap();
            total_stall += pair.pad_stall_ps;
        }
        assert!(
            total_stall > 0,
            "back-to-back burst must eventually under-run"
        );
    }
}
