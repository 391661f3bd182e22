//! The memory-side ObfusMem engine (paper Figure 3, steps 5a–5d).
//!
//! Lives in the logic layer of the 3D-stacked memory (inside the trust
//! boundary). Per received packet pair it: decrypts the headers with its
//! own synchronized counter stream, verifies MAC tags (detecting
//! modification, drop, replay, and injection — §3.5's tampering
//! scenarios), **drops** dummy requests addressed to the fixed dummy
//! block before they reach the PCM array (saving write energy and wear,
//! Observation 2), and encrypts read replies with the reserved data pads.

use obfusmem_crypto::ctr::PADS_PER_REQUEST;
use obfusmem_crypto::mac::{tags_equal, Tag};
use obfusmem_mem::request::BlockData;

use crate::busmsg::{BusPacket, RequestHeader};
use crate::config::{AddressCipherMode, MacScheme, ObfusMemConfig};
use crate::engine::FIXED_DUMMY_ADDR;
use crate::session::ChannelSession;
use crate::ObfusMemError;

/// A packet after memory-side decryption and verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRequest {
    /// The plaintext header.
    pub header: RequestHeader,
    /// Decrypted (memory-encrypted-at-rest) data for writes.
    pub data: Option<BlockData>,
    /// True when this was recognized as a droppable dummy.
    pub dropped_dummy: bool,
    /// First pad counter of the packet pair (reply pads = base+2..=5).
    pub base_counter: u64,
}

/// The memory-side engine for one channel.
///
/// Session state is an indexed *table* of lanes, not a singleton: the
/// backend wires one lane per engine and addresses it as lane 0, while
/// the multi-tenant session fabric parks many tenants' sessions on one
/// engine. Every public operation names its lane, as every
/// [`ProcessorEngine`](crate::engine::ProcessorEngine) call names its
/// channel, and an out-of-range lane is a typed error.
#[derive(Debug)]
pub struct MemoryEngine {
    cfg: ObfusMemConfig,
    sessions: Vec<ChannelSession>,
    dummies_dropped: u64,
    tampers_detected: u64,
}

impl MemoryEngine {
    /// Builds a single-lane engine with this channel's established
    /// session (lane 0).
    pub fn new(cfg: ObfusMemConfig, session: ChannelSession) -> Self {
        MemoryEngine::with_sessions(cfg, vec![session])
    }

    /// Builds an engine whose session table starts with `sessions`
    /// (lane i = `sessions[i]`).
    ///
    /// # Panics
    ///
    /// Panics when `sessions` is empty: every engine needs a lane 0.
    pub fn with_sessions(cfg: ObfusMemConfig, sessions: Vec<ChannelSession>) -> Self {
        assert!(!sessions.is_empty(), "memory engine needs at least lane 0");
        MemoryEngine {
            cfg,
            sessions,
            dummies_dropped: 0,
            tampers_detected: 0,
        }
    }

    /// Appends a lane and returns its index.
    pub fn add_lane(&mut self, session: ChannelSession) -> usize {
        self.sessions.push(session);
        self.sessions.len() - 1
    }

    /// Number of session lanes.
    pub fn lanes(&self) -> usize {
        self.sessions.len()
    }

    fn check_lane(&self, lane: usize) -> Result<(), ObfusMemError> {
        if lane < self.sessions.len() {
            Ok(())
        } else {
            Err(ObfusMemError::NoSuchChannel {
                channel: lane,
                channels: self.sessions.len(),
            })
        }
    }

    /// Dummy packets dropped before touching the array.
    pub fn dummies_dropped(&self) -> u64 {
        self.dummies_dropped
    }

    /// Tamper events detected.
    pub fn tampers_detected(&self) -> u64 {
        self.tampers_detected
    }

    /// Current counter of `lane` (for desync diagnostics).
    pub fn counter(&self, lane: usize) -> Result<u64, ObfusMemError> {
        self.check_lane(lane)?;
        Ok(self.sessions[lane].stream().counter())
    }

    /// Applies an authenticated counter-resynchronization request to
    /// `lane`: after a MAC or parse failure left this end's counter ahead
    /// of the processor's (every failure path parks it at `base + 2`), the
    /// processor sends the target counter under a MAC so the stream can
    /// be rewound without tearing the session down. The tag binds the
    /// link sequence number, so a captured resync cannot be replayed
    /// against a later delivery.
    ///
    /// # Errors
    ///
    /// Returns [`ObfusMemError::TamperDetected`] when the tag does not
    /// verify; the stream is left untouched in that case.
    /// [`ObfusMemError::NoSuchChannel`] for a lane out of range.
    pub fn apply_resync(
        &mut self,
        lane: usize,
        seq: u64,
        target: u64,
        tag: &[u8; 8],
    ) -> Result<(), ObfusMemError> {
        self.check_lane(lane)?;
        let ok = self.sessions[lane]
            .mac()
            .verify(&[b"resync", &seq.to_le_bytes(), &target.to_le_bytes()], tag);
        if !ok {
            self.tampers_detected += 1;
            return Err(ObfusMemError::TamperDetected {
                detail: format!("resync MAC mismatch (seq {seq}, target {target})"),
            });
        }
        self.sessions[lane].stream_mut().seek(target);
        Ok(())
    }

    /// Re-keys `lane`'s session (link-layer escalation or tenant churn);
    /// must be called with the same `epoch` the processor used so both
    /// ends derive the same key.
    pub fn rekey(&mut self, lane: usize, epoch: u64) -> Result<(), ObfusMemError> {
        self.check_lane(lane)?;
        self.sessions[lane].rekey(epoch);
        Ok(())
    }

    /// Processes a primary/companion packet pair arriving from the bus
    /// on `lane`.
    ///
    /// Returns the decoded *primary* request plus the companion's
    /// disposition: `None` when the companion was a fixed-address dummy
    /// (dropped before the array — Observation 2), or a full
    /// [`DecodedRequest`] when it must be serviced — an
    /// original/random-policy dummy, or a *substituted real request*
    /// (the §3.3 optimization where a pending real write rides in the
    /// dummy slot of a read's pair).
    ///
    /// # Errors
    ///
    /// * [`ObfusMemError::TamperDetected`] when a MAC fails — modified,
    ///   replayed, injected, or reordered traffic, or counter desync from
    ///   a dropped message.
    /// * [`ObfusMemError::NoSuchChannel`] for a lane out of range.
    pub fn receive_pair(
        &mut self,
        lane: usize,
        real: &BusPacket,
        dummy: &BusPacket,
    ) -> Result<(DecodedRequest, Option<DecodedRequest>), ObfusMemError> {
        self.check_lane(lane)?;
        let base_counter = self.sessions[lane].stream().counter();

        // Decrypt headers (pads base, base+1 — mirroring the processor).
        // Both header pads are consumed *before* either parse result is
        // inspected, so every failure mode — malformed header or MAC
        // mismatch — leaves the counter uniformly at base+2, the state
        // the link layer's resync handshake repairs.
        let real_parse = self.decrypt_header(lane, &real.header_ct);
        let companion_parse = self.decrypt_header(lane, &dummy.header_ct);
        let real_header = self.note_malformed(real_parse)?;
        let companion_header = self.note_malformed(companion_parse)?;

        // Verify MACs before acting on anything (§3.5).
        if self.cfg.security.authenticates() {
            self.verify_tags(
                lane,
                [(real, &real_header), (dummy, &companion_header)],
                base_counter,
            )?;
        }

        // Pads base+2..=5 decrypt the pair's (at most one) meaningful
        // payload: the primary's write data, or a substituted companion
        // write's data. A fixed-address dummy write carries random bytes
        // that need no decryption; the counter still advances past the
        // slots so both ends stay in step (skipped, not generated).
        let companion_is_dummy = companion_header.addr == FIXED_DUMMY_ADDR;
        let mut data = None;
        let mut companion_data = None;
        match (&real.data_ct, &dummy.data_ct) {
            (Some(ct), _) => data = Some(self.decrypt_data(lane, ct)),
            (None, Some(ct)) if !companion_is_dummy => {
                companion_data = Some(self.decrypt_data(lane, ct));
            }
            _ => self.sessions[lane].stream_mut().skip_pads(4),
        }

        // Companion disposition (§3.3).
        let companion = if companion_is_dummy {
            self.dummies_dropped += 1;
            None
        } else {
            Some(DecodedRequest {
                header: companion_header,
                data: companion_data,
                dropped_dummy: false,
                base_counter,
            })
        };

        Ok((
            DecodedRequest {
                header: real_header,
                data,
                dropped_dummy: companion.is_none(),
                base_counter,
            },
            companion,
        ))
    }

    /// Accounts one injected cross-channel dummy pair (§3.4) on lane 0.
    /// Both of its headers name the fixed dummy block, so the pair is
    /// dropped before the array, but it used up six counter values like
    /// any pair; they are skipped here without generating pads.
    /// [`ProcessorEngine::inject`](crate::engine::ProcessorEngine::inject)
    /// is the other end.
    pub(crate) fn drop_injected(&mut self) {
        self.sessions[0].stream_mut().skip_pads(PADS_PER_REQUEST);
        self.dummies_dropped += 1;
    }

    /// Processes a single uniform-scheme packet (§3.3's alternative): the
    /// header decrypts with the first pad, the always-present payload with
    /// the data pads; a read's payload is random filler and is discarded.
    ///
    /// # Errors
    ///
    /// * [`ObfusMemError::TamperDetected`] / [`ObfusMemError::MalformedPacket`]
    ///   / [`ObfusMemError::NoSuchChannel`] as for
    ///   [`MemoryEngine::receive_pair`].
    pub fn receive_uniform(
        &mut self,
        lane: usize,
        packet: &BusPacket,
    ) -> Result<DecodedRequest, ObfusMemError> {
        self.check_lane(lane)?;
        let base_counter = self.sessions[lane].stream().counter();
        let parse = self.decrypt_header(lane, &packet.header_ct);
        self.sessions[lane].stream_mut().skip_pads(1); // parity with the split scheme
        let header = self.note_malformed(parse)?;

        if self.cfg.security.authenticates() {
            self.verify_tags(lane, [(packet, &header)], base_counter)?;
        }

        let payload = match &packet.data_ct {
            Some(ct) => Some(self.decrypt_data(lane, ct)),
            None => {
                self.sessions[lane].stream_mut().skip_pads(4);
                None
            }
        };
        let data = match header.kind {
            obfusmem_mem::request::AccessKind::Write => payload,
            obfusmem_mem::request::AccessKind::Read => None, // filler discarded
        };
        Ok(DecodedRequest {
            header,
            data,
            dropped_dummy: false,
            base_counter,
        })
    }

    fn decrypt_data(&mut self, lane: usize, ct: &BlockData) -> BlockData {
        let mut out = *ct;
        let pads = self.sessions[lane].stream_mut().next_pads::<4>();
        for (chunk, pad) in out.chunks_mut(16).zip(pads.iter()) {
            for (d, p) in chunk.iter_mut().zip(pad.iter()) {
                *d ^= p;
            }
        }
        out
    }

    fn decrypt_header(
        &mut self,
        lane: usize,
        header_ct: &[u8; 16],
    ) -> Result<RequestHeader, ObfusMemError> {
        match self.cfg.address_mode {
            AddressCipherMode::Ctr => {
                let pad = self.sessions[lane].stream_mut().next_pad();
                let mut pt = *header_ct;
                for (d, p) in pt.iter_mut().zip(pad.iter()) {
                    *d ^= p;
                }
                RequestHeader::from_bytes(&pt)
            }
            AddressCipherMode::Ecb => {
                self.sessions[lane].stream_mut().skip_pads(1); // keep counters in step
                RequestHeader::from_bytes(&self.sessions[lane].ecb_decrypt(header_ct))
            }
        }
    }

    /// Counts a malformed-header parse as a detected tamper event.
    fn note_malformed(
        &mut self,
        parsed: Result<RequestHeader, ObfusMemError>,
    ) -> Result<RequestHeader, ObfusMemError> {
        if parsed.is_err() {
            self.tampers_detected += 1;
        }
        parsed
    }

    /// Verifies the tags of `N` packets holding consecutive counters from
    /// `base_counter`, in packet order: the first failure is counted and
    /// returned, and the packets after it go unchecked. Under
    /// encrypt-and-MAC all `N` expected tags are computed up front in one
    /// multi-lane pass.
    fn verify_tags<const N: usize>(
        &mut self,
        lane: usize,
        packets: [(&BusPacket, &RequestHeader); N],
        base_counter: u64,
    ) -> Result<(), ObfusMemError> {
        let mac = self.sessions[lane].mac();
        let expected: Option<[Tag; N]> = match self.cfg.mac_scheme {
            // β = H(r ‖ a ‖ c) with the memory's own counter: detects
            // modification (r'/a'), drops/replays (c mismatch).
            MacScheme::EncryptAndMac => Some(mac.command_tags(std::array::from_fn(|i| {
                let header = packets[i].1;
                (header.kind.encode(), header.addr, base_counter + i as u64)
            }))),
            MacScheme::EncryptThenMac => None,
        };
        for (i, (packet, header)) in packets.into_iter().enumerate() {
            let counter = base_counter + i as u64;
            let Some(tag) = packet.tag else {
                self.tampers_detected += 1;
                return Err(ObfusMemError::MalformedPacket(
                    "authenticated channel requires a tag".into(),
                ));
            };
            let ok = match &expected {
                Some(expected) => tags_equal(&expected[i], &tag),
                None => {
                    let data_slice: &[u8] = packet.data_ct.as_ref().map_or(&[], |d| &d[..]);
                    self.sessions[lane]
                        .mac()
                        .verify(&[&packet.header_ct, data_slice], &tag)
                }
            };
            if !ok {
                self.tampers_detected += 1;
                return Err(ObfusMemError::TamperDetected {
                    detail: format!(
                        "MAC mismatch at counter {counter} (decrypted {kind} {addr:#x})",
                        kind = header.kind,
                        addr = header.addr
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds the encrypted read-reply packet for a request decoded on
    /// `lane`, using the pair's reserved data pads.
    pub fn encrypt_reply(
        &self,
        lane: usize,
        base_counter: u64,
        data: &BlockData,
    ) -> Result<BusPacket, ObfusMemError> {
        self.check_lane(lane)?;
        let mut ct = *data;
        let mut pads = [[0u8; 16]; 4];
        self.sessions[lane]
            .stream()
            .pads_at_into(base_counter + 2, &mut pads);
        for (chunk, pad) in ct.chunks_mut(16).zip(pads.iter()) {
            for (d, p) in chunk.iter_mut().zip(pad.iter()) {
                *d ^= p;
            }
        }
        let tag = self
            .cfg
            .security
            .authenticates()
            .then(|| self.sessions[lane].mac().reply_tag(base_counter, &ct));
        Ok(BusPacket {
            header_ct: [0u8; 16],
            data_ct: Some(ct),
            tag,
        })
    }
}

/// Convenience: end-to-end check that a processor and memory engine pair
/// built from the same key material stay synchronized. Used by tests and
/// the quickstart example.
pub fn engines_for_test(
    cfg: ObfusMemConfig,
    channels: usize,
) -> (crate::engine::ProcessorEngine, Vec<MemoryEngine>) {
    let keys: Vec<([u8; 16], u64)> = (0..channels)
        .map(|c| ([c as u8 + 1; 16], c as u64 * 1000))
        .collect();
    let proc = crate::engine::ProcessorEngine::new(
        cfg,
        crate::session::SessionKeyTable::new(keys.clone()),
        7,
    );
    let mems = keys
        .into_iter()
        .map(|(k, n)| MemoryEngine::new(cfg, ChannelSession::new(k, n)))
        .collect();
    (proc, mems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObfusMemConfig;
    use obfusmem_mem::request::AccessKind;
    use obfusmem_sim::time::Time;
    use obfusmem_testkit as proptest;

    fn pair() -> (crate::engine::ProcessorEngine, MemoryEngine) {
        let (p, mut ms) = engines_for_test(ObfusMemConfig::paper_default(), 1);
        (p, ms.remove(0))
    }

    fn read_header(addr: u64) -> RequestHeader {
        RequestHeader {
            kind: AccessKind::Read,
            addr,
        }
    }

    #[test]
    fn read_round_trip() {
        let (mut proc, mut mem) = pair();
        let sent = read_header(0x1_2340);
        let pkts = proc.obfuscate(Time::ZERO, 0, sent, None).unwrap();
        let (decoded, dummy) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        assert_eq!(decoded.header, sent);
        assert!(decoded.dropped_dummy);
        assert!(dummy.is_none(), "fixed-address dummy must be dropped");
        assert_eq!(mem.dummies_dropped(), 1);
    }

    #[test]
    fn injected_pair_keeps_both_ends_in_step() {
        let (mut proc, mut mem) = pair();
        proc.inject(Time::ZERO, 0).unwrap();
        mem.drop_injected();
        assert_eq!(mem.counter(0), proc.counter(0));
        assert_eq!(mem.dummies_dropped(), 1);
        let sent = read_header(0x1_2340);
        let pkts = proc.obfuscate(Time::ZERO, 0, sent, None).unwrap();
        let (decoded, _) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        assert_eq!(decoded.header, sent);
    }

    #[test]
    fn write_round_trip_with_data() {
        let (mut proc, mut mem) = pair();
        let hdr = RequestHeader {
            kind: AccessKind::Write,
            addr: 0x88_0000,
        };
        let payload = [0xC3; 64];
        let pkts = proc.obfuscate(Time::ZERO, 0, hdr, Some(&payload)).unwrap();
        assert_ne!(
            pkts.real.data_ct.unwrap(),
            payload,
            "data must be re-encrypted on the bus"
        );
        let (decoded, _) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        assert_eq!(decoded.data, Some(payload));
    }

    #[test]
    fn reply_round_trip() {
        let (mut proc, mut mem) = pair();
        let pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        let (decoded, _) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        let stored = [0x11; 64];
        let reply = mem.encrypt_reply(0, decoded.base_counter, &stored).unwrap();
        assert_ne!(reply.data_ct.unwrap(), stored);
        let got = proc
            .decrypt_reply(0, pkts.base_counter, &reply.data_ct.unwrap())
            .unwrap();
        assert_eq!(got, stored);
    }

    #[test]
    fn long_sessions_stay_synchronized() {
        let (mut proc, mut mem) = pair();
        for i in 0..500u64 {
            let hdr = if i % 3 == 0 {
                RequestHeader {
                    kind: AccessKind::Write,
                    addr: i * 64,
                }
            } else {
                read_header(i * 64)
            };
            let data = (hdr.kind == AccessKind::Write).then_some([i as u8; 64]);
            let pkts = proc.obfuscate(Time::ZERO, 0, hdr, data.as_ref()).unwrap();
            let (decoded, _) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
            assert_eq!(decoded.header, hdr, "desync at request {i}");
            assert_eq!(decoded.data, data);
        }
    }

    #[test]
    fn modified_address_detected() {
        let (mut proc, mut mem) = pair();
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        pkts.real.header_ct[3] ^= 0x10; // flip an address bit in flight
        let err = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap_err();
        assert!(
            matches!(err, ObfusMemError::TamperDetected { .. }),
            "got {err}"
        );
        assert_eq!(mem.tampers_detected(), 1);
    }

    #[test]
    fn modified_type_detected() {
        let (mut proc, mut mem) = pair();
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        pkts.real.header_ct[0] ^= 0x01; // flip the request-type bit
        assert!(mem.receive_pair(0, &pkts.real, &pkts.dummy).is_err());
    }

    /// Both tags of a pair are checked in one pass, but the real
    /// request's tag is still judged first and a pair counts one tamper.
    #[test]
    fn both_tags_corrupted_names_the_real_counter_once() {
        let (mut proc, mut mem) = pair();
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        for tag in [&mut pkts.real.tag, &mut pkts.dummy.tag] {
            tag.as_mut().unwrap()[0] ^= 1;
        }
        let err = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap_err();
        let base = pkts.base_counter;
        assert!(
            matches!(&err, ObfusMemError::TamperDetected { detail }
                if detail.contains(&format!("at counter {base} "))),
            "got {err}"
        );
        assert_eq!(mem.tampers_detected(), 1);
    }

    #[test]
    fn corrupted_dummy_tag_names_the_dummy_counter() {
        let (mut proc, mut mem) = pair();
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        pkts.dummy.tag.as_mut().unwrap()[7] ^= 0x80;
        let err = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap_err();
        let dummy_counter = pkts.base_counter + 1;
        assert!(
            matches!(&err, ObfusMemError::TamperDetected { detail }
                if detail.contains(&format!("at counter {dummy_counter} "))),
            "got {err}"
        );
        assert_eq!(mem.tampers_detected(), 1);
    }

    #[test]
    fn missing_dummy_tag_behind_a_valid_real_tag_is_malformed() {
        let (mut proc, mut mem) = pair();
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        pkts.dummy.tag = None;
        let err = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap_err();
        assert!(
            matches!(err, ObfusMemError::MalformedPacket(_)),
            "got {err}"
        );
        assert_eq!(mem.tampers_detected(), 1);
    }

    #[test]
    fn dropped_message_detected_via_counter() {
        let (mut proc, mut mem) = pair();
        let first = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        let second = proc
            .obfuscate(Time::ZERO, 0, read_header(0x80), None)
            .unwrap();
        // Attacker drops `first`; memory sees `second` with a stale
        // counter and the MAC (bound to the counter) fails.
        let _ = first;
        assert!(mem.receive_pair(0, &second.real, &second.dummy).is_err());
    }

    #[test]
    fn replayed_message_detected() {
        let (mut proc, mut mem) = pair();
        let pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        // Replay the same packets: memory's counter moved on.
        assert!(mem.receive_pair(0, &pkts.real, &pkts.dummy).is_err());
    }

    #[test]
    fn injected_garbage_detected() {
        let (_, mut mem) = pair();
        let forged = BusPacket {
            header_ct: [0xAA; 16],
            data_ct: None,
            tag: Some([0; 8]),
        };
        assert!(mem.receive_pair(0, &forged, &forged.clone()).is_err());
    }

    #[test]
    fn missing_tag_rejected_on_authenticated_channel() {
        let (mut proc, mut mem) = pair();
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        pkts.real.tag = None;
        let err = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap_err();
        assert!(matches!(err, ObfusMemError::MalformedPacket(_)));
    }

    #[test]
    fn unauthenticated_mode_accepts_tampering_silently() {
        // Documents the §3.5 trade-off: without MACs, tampering garbles
        // the address but is not *detected* here (Merkle catches it later).
        let cfg = ObfusMemConfig {
            security: crate::config::SecurityLevel::Obfuscate,
            ..Default::default()
        };
        let (mut proc, mut ms) = engines_for_test(cfg, 1);
        let mut mem = ms.remove(0);
        let mut pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        pkts.real.header_ct[5] ^= 0xFF;
        let (decoded, _) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        assert_ne!(
            decoded.header.addr, 0x40,
            "tampering silently garbles the address"
        );
    }

    #[test]
    fn original_policy_dummy_surfaces_for_service() {
        let cfg = ObfusMemConfig {
            dummy_policy: crate::config::DummyAddressPolicy::Original,
            ..ObfusMemConfig::paper_default()
        };
        let (mut proc, mut ms) = engines_for_test(cfg, 1);
        let mut mem = ms.remove(0);
        let pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x1000), None)
            .unwrap();
        let (decoded, dummy) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
        assert!(!decoded.dropped_dummy);
        let dummy = dummy.expect("original-address dummy reaches the array");
        assert_eq!(dummy.header.addr, 0x1000);
        assert_eq!(dummy.header.kind, AccessKind::Write);
    }

    #[test]
    fn per_channel_sessions_are_independent() {
        let (mut proc, mut mems) = engines_for_test(ObfusMemConfig::paper_default(), 3);
        // Interleave traffic across channels in an irregular order; each
        // memory engine only sees its own channel's pairs and must stay
        // synchronized regardless of the global interleaving.
        let order = [0usize, 2, 1, 1, 0, 2, 2, 0, 1, 0, 2, 1];
        for (i, &ch) in order.iter().enumerate() {
            let hdr = RequestHeader {
                kind: AccessKind::Read,
                addr: (i as u64) * 64,
            };
            let pkts = proc.obfuscate(Time::ZERO, ch, hdr, None).unwrap();
            let (decoded, _) = mems[ch].receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
            assert_eq!(decoded.header, hdr, "channel {ch} desynced at step {i}");
        }
    }

    #[test]
    fn lanes_are_independent_sessions() {
        let cfg = ObfusMemConfig::paper_default();
        let mut proc = crate::engine::ProcessorEngine::new(
            cfg,
            crate::session::SessionKeyTable::new(vec![([9; 16], 0)]),
            7,
        );
        let mut mem = MemoryEngine::new(cfg, ChannelSession::new([9; 16], 0));
        let lane = proc.add_lane([10; 16], 5000);
        assert_eq!(mem.add_lane(ChannelSession::new([10; 16], 5000)), lane);
        assert_eq!(mem.lanes(), 2);
        // Interleave traffic across lanes: each lane's counter discipline
        // holds independently of the global order.
        for i in 0..8u64 {
            let l = (i % 2) as usize;
            let hdr = read_header(i * 64);
            let pkts = proc.obfuscate(Time::ZERO, l, hdr, None).unwrap();
            let (decoded, _) = mem.receive_pair(l, &pkts.real, &pkts.dummy).unwrap();
            assert_eq!(decoded.header, hdr, "lane {l} desynced at step {i}");
        }
        // Lane-0 traffic replayed onto lane 1 must fail authentication.
        let pkts = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        assert!(mem.receive_pair(1, &pkts.real, &pkts.dummy).is_err());
        // Out-of-range lanes get a typed error, not a panic.
        assert!(matches!(
            mem.receive_pair(9, &pkts.real, &pkts.dummy),
            Err(ObfusMemError::NoSuchChannel {
                channel: 9,
                channels: 2
            })
        ));
        assert!(mem.counter(9).is_err());
        assert!(mem.rekey(9, 1).is_err());
    }

    #[test]
    fn reply_with_wrong_counter_is_garbage() {
        // A reply decrypted with the wrong pad window never reveals the
        // stored data (the counter discipline is load-bearing).
        let (mut proc, mut mem) = pair();
        let a = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        let b = proc
            .obfuscate(Time::ZERO, 0, read_header(0x80), None)
            .unwrap();
        let (decoded_a, _) = mem.receive_pair(0, &a.real, &a.dummy).unwrap();
        let stored = [0x5A; 64];
        let reply = mem
            .encrypt_reply(0, decoded_a.base_counter, &stored)
            .unwrap();
        // Decrypt with b's pads instead of a's.
        let wrong = proc
            .decrypt_reply(0, b.base_counter, &reply.data_ct.unwrap())
            .unwrap();
        assert_ne!(wrong, stored);
        let right = proc
            .decrypt_reply(0, a.base_counter, &reply.data_ct.unwrap())
            .unwrap();
        assert_eq!(right, stored);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn arbitrary_request_streams_round_trip(
            ops in proptest::collection::vec((0u64..(1u64 << 33), proptest::bool::ANY, 0u8..), 1..40)
        ) {
            let (mut proc, mut mems) = engines_for_test(ObfusMemConfig::paper_default(), 1);
            let mut mem = mems.remove(0);
            for (addr, is_write, byte) in ops {
                let addr = addr & !63;
                let hdr = RequestHeader {
                    kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                    addr,
                };
                let data = is_write.then_some([byte; 64]);
                let pkts = proc.obfuscate(Time::ZERO, 0, hdr, data.as_ref()).unwrap();
                let (decoded, companion) = mem.receive_pair(0, &pkts.real, &pkts.dummy).unwrap();
                proptest::prop_assert_eq!(decoded.header, hdr);
                proptest::prop_assert_eq!(decoded.data, data);
                proptest::prop_assert!(companion.is_none(), "fixed dummies always drop");
            }
        }

        #[test]
        fn uniform_packets_round_trip_arbitrary_requests(
            ops in proptest::collection::vec((0u64..(1u64 << 33), proptest::bool::ANY, 0u8..), 1..40)
        ) {
            let (mut proc, mut mems) = engines_for_test(ObfusMemConfig::paper_default(), 1);
            let mut mem = mems.remove(0);
            for (addr, is_write, byte) in ops {
                let addr = addr & !63;
                let hdr = RequestHeader {
                    kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                    addr,
                };
                let data = is_write.then_some([byte; 64]);
                let pkt = proc.obfuscate_uniform(Time::ZERO, 0, hdr, data.as_ref()).unwrap();
                proptest::prop_assert!(pkt.real.data_ct.is_some(), "uniform packets always carry data");
                let decoded = mem.receive_uniform(0, &pkt.real).unwrap();
                proptest::prop_assert_eq!(decoded.header, hdr);
                proptest::prop_assert_eq!(decoded.data, data);
            }
        }
    }

    #[test]
    fn encrypt_then_mac_also_detects_tampering() {
        let cfg = ObfusMemConfig {
            mac_scheme: MacScheme::EncryptThenMac,
            ..ObfusMemConfig::paper_default()
        };
        let (mut proc, mut ms) = engines_for_test(cfg, 1);
        let mut mem = ms.remove(0);
        let good = proc
            .obfuscate(Time::ZERO, 0, read_header(0x40), None)
            .unwrap();
        let (decoded, _) = mem.receive_pair(0, &good.real, &good.dummy).unwrap();
        assert_eq!(decoded.header.addr, 0x40);
        let mut bad = proc
            .obfuscate(Time::ZERO, 0, read_header(0x80), None)
            .unwrap();
        bad.real.header_ct[1] ^= 1;
        assert!(mem.receive_pair(0, &bad.real, &bad.dummy).is_err());
    }
}
