//! One request's pad window (paper Figure 3, §3.3–§3.5): the one place
//! that says what rides in each of a request's six counter slots, for
//! the processor end that seals it and the memory end that opens it.
//!
//! Every request reserves six consecutive counter values on its session
//! lane, and both ends advance by six whatever the request's shape.
//! Slot 0 holds the primary header, slot 1 the companion header, and
//! slots 2–5 the window's one meaningful 64 B payload. A slot whose pad
//! nothing XORs is skipped, not generated.
//!
//! | request | packets | slot 0 | slot 1 | slots 2–5 |
//! |---|---|---|---|---|
//! | pair, read | 2 | read header | dummy write header | skipped; the dummy carries random filler |
//! | pair, write | 2 | write header | dummy read header | the write's data |
//! | substituted | 2 | read header | parked write's header | the parked write's data |
//! | uniform, write | 1 | header | skipped | the write's data |
//! | uniform, read | 1 | header | skipped | random filler, sealed like data |
//! | injected (§3.4) | 2 | read of the fixed dummy block | write of it | skipped; random filler |
//! | a read's reply | 1 | — | — | the stored block; pads regenerated at reply time |
//!
//! Under [`AddressCipherMode::Ctr`] each header is XORed with its slot's
//! pad. Under the [`AddressCipherMode::Ecb`] strawman both header slots
//! are skipped and each header is the session's ECB encryption of it.
//! With authentication the packets hold counters `base` and `base + 1`,
//! and each carries the tag the [`MacScheme`] asks for (§3.5).
//!
//! A read's reply (the last row) regenerates its request's data pads
//! without advancing the stream and carries a reply tag when
//! authenticating. Its full size is charged on the wire whether or not
//! its bytes are built: the backend's link-free path seals it only for a
//! bus tap, the one reader there.

use obfusmem_crypto::aes::Block;
use obfusmem_crypto::ctr::CtrStream;
use obfusmem_crypto::mac::{tags_equal, MacEngine, Tag};
use obfusmem_mem::request::{AccessKind, BlockData};
use obfusmem_sim::rng::SplitMix64;

use crate::busmsg::{BusPacket, RequestHeader};
use crate::config::{AddressCipherMode, DummyAddressPolicy, MacScheme, ObfusMemConfig};
use crate::engine::{ObfuscatedPair, FIXED_DUMMY_ADDR};
use crate::memside::DecodedRequest;
use crate::session::ChannelSession;
use crate::ObfusMemError;

/// One request crossing to memory, before obfuscation: its shape decides
/// what rides in the window.
///
/// The link re-obfuscates from this plaintext view after a session
/// re-key (the old ciphertext is useless under the new key), so it
/// takes the request rather than a pre-built pair.
#[derive(Clone, Copy)]
pub enum Delivery<'a> {
    /// A paired real/dummy delivery (§3.3 baseline).
    Pair {
        /// The real request.
        header: RequestHeader,
        /// Write payload (reads carry none).
        data: Option<&'a BlockData>,
    },
    /// A read whose dummy slot carries a substituted pending write.
    Substituted {
        /// The primary read.
        read: RequestHeader,
        /// The substituted write riding in the dummy slot.
        write: RequestHeader,
        /// The write's payload.
        data: &'a BlockData,
    },
    /// A uniform-size single packet (type-hiding mode).
    Uniform {
        /// The request.
        header: RequestHeader,
        /// Write payload (reads carry none).
        data: Option<&'a BlockData>,
    },
}

/// An injected pair's two headers: a read and a write of the fixed dummy
/// block, whatever the [`DummyAddressPolicy`], so the memory side always
/// drops both.
pub(crate) const INJECTED_HEADERS: [RequestHeader; 2] = [
    RequestHeader {
        kind: AccessKind::Read,
        addr: FIXED_DUMMY_ADDR,
    },
    RequestHeader {
        kind: AccessKind::Write,
        addr: FIXED_DUMMY_ADDR,
    },
];

/// Where a window's pads come from.
enum Pads<'s> {
    /// The lane's live stream, advanced past every slot.
    Live(&'s mut CtrStream),
    /// A used-up window's pads, regenerated from its counter without
    /// advancing anything (an injected pair rebuilt for an observer).
    At(&'s CtrStream, u64),
}

impl Pads<'_> {
    fn take<const N: usize>(&mut self) -> [Block; N] {
        match self {
            Pads::Live(stream) => stream.next_pads(),
            Pads::At(stream, counter) => {
                let mut pads = [[0; 16]; N];
                stream.pads_at_into(*counter, &mut pads);
                *counter += N as u64;
                pads
            }
        }
    }

    fn skip(&mut self, n: u64) {
        match self {
            Pads::Live(stream) => stream.skip_pads(n),
            Pads::At(_, counter) => *counter += n,
        }
    }

    /// Slots 0–1: the `N` header pads under CTR (a missing companion's
    /// slot skipped), or none under the ECB strawman, which skips both.
    fn headers<const N: usize>(&mut self, mode: AddressCipherMode) -> Option<[Block; N]> {
        match mode {
            AddressCipherMode::Ctr => {
                let pads = self.take();
                if N < 2 {
                    self.skip(2 - N as u64);
                }
                Some(pads)
            }
            AddressCipherMode::Ecb => {
                self.skip(2);
                None
            }
        }
    }

    /// Slots 2–5: the data pads when a payload is sealed, else skipped.
    fn data(&mut self, sealed: bool) -> Option<[Block; 4]> {
        if sealed {
            Some(self.take())
        } else {
            self.skip(4);
            None
        }
    }
}

/// Seals `delivery` into its window on the lane's live stream. A paired
/// dummy's address, then any filler, is drawn from `rng`. A uniform
/// packet has no companion, and its `dummy_header` is its own header.
pub(crate) fn seal(
    cfg: &ObfusMemConfig,
    session: &mut ChannelSession,
    rng: &mut SplitMix64,
    delivery: Delivery<'_>,
    pad_stall_ps: u64,
) -> ObfuscatedPair {
    let base_counter = session.stream().counter();
    let (real, dummy, dummy_header) = match delivery {
        Delivery::Pair { header, data } => {
            // The dummy takes the opposite type (§3.3); a dummy write
            // carries filler so its shape matches a real write.
            let dummy = RequestHeader {
                kind: header.kind.opposite(),
                addr: match cfg.dummy_policy {
                    DummyAddressPolicy::Fixed => FIXED_DUMMY_ADDR,
                    DummyAddressPolicy::Original => header.addr,
                    DummyAddressPolicy::Random => rng.next_u64() & !63,
                },
            };
            let filler = (dummy.kind == AccessKind::Write).then(|| random_block(rng));
            let payloads = [data.copied(), filler];
            let sealed = data.map(|_| 0);
            let [real, companion] = seal_live(cfg, session, [header, dummy], payloads, sealed);
            (real, Some(companion), dummy)
        }
        Delivery::Substituted { read, write, data } => {
            let payloads = [None, Some(*data)];
            let [real, companion] = seal_live(cfg, session, [read, write], payloads, Some(1));
            (real, Some(companion), write)
        }
        Delivery::Uniform { header, data } => {
            let payload = data.copied().unwrap_or_else(|| random_block(rng));
            let [real] = seal_live(cfg, session, [header], [Some(payload)], Some(0));
            (real, None, header)
        }
    };
    ObfuscatedPair {
        real,
        dummy,
        dummy_header,
        base_counter,
        pad_stall_ps,
    }
}

/// The two packets of an injected pair whose window starts at
/// `base_counter`, with the dummy write's filler `payload`. Reads the
/// session only.
pub(crate) fn seal_injected(
    cfg: &ObfusMemConfig,
    session: &ChannelSession,
    base_counter: u64,
    payload: BlockData,
) -> [BusPacket; 2] {
    let mut pads = Pads::At(session.stream(), base_counter);
    let header_pads = pads.headers(cfg.address_mode);
    let payloads = [None, Some(payload)];
    seal_packets(
        cfg,
        session,
        base_counter,
        header_pads,
        INJECTED_HEADERS,
        payloads,
    )
}

/// Seals `N` packets on the live stream. `payloads[i]` is packet `i`'s
/// 64 B payload; the one at index `sealed` is the window's meaningful
/// payload, XORed with the data pads, and any other is filler.
///
/// Inlined, like [`seal_packets`], so each shape builds its packets in
/// place: out of line, copying them out cost about a fifth of a plain
/// ObfusMem request's sealing time.
#[inline(always)]
fn seal_live<const N: usize>(
    cfg: &ObfusMemConfig,
    session: &mut ChannelSession,
    headers: [RequestHeader; N],
    mut payloads: [Option<BlockData>; N],
    sealed: Option<usize>,
) -> [BusPacket; N] {
    let base_counter = session.stream().counter();
    let mut pads = Pads::Live(session.stream_mut());
    let header_pads = pads.headers(cfg.address_mode);
    if let (Some(i), Some(data_pads)) = (sealed, pads.data(sealed.is_some())) {
        if let Some(bytes) = &mut payloads[i] {
            xor64(bytes, &data_pads);
        }
    }
    seal_packets(cfg, session, base_counter, header_pads, headers, payloads)
}

/// Encrypts each header under the lane's header cipher and attaches the
/// tags to the already sealed `payloads`.
#[inline(always)]
fn seal_packets<const N: usize>(
    cfg: &ObfusMemConfig,
    session: &ChannelSession,
    base_counter: u64,
    header_pads: Option<[Block; N]>,
    headers: [RequestHeader; N],
    payloads: [Option<BlockData>; N],
) -> [BusPacket; N] {
    let header_ct: [[u8; 16]; N] = std::array::from_fn(|i| {
        let mut ct = headers[i].to_bytes();
        match &header_pads {
            Some(pads) => xor16(&mut ct, &pads[i]),
            None => ct = session.ecb_encrypt(&ct),
        }
        ct
    });
    let tags = cfg.security.authenticates().then(|| {
        let ct = std::array::from_fn(|i| (&header_ct[i], payloads[i].as_ref()));
        tags(cfg.mac_scheme, session.mac(), base_counter, headers, ct)
    });
    std::array::from_fn(|i| BusPacket {
        header_ct: header_ct[i],
        data_ct: payloads[i],
        tag: tags.map(|t| t[i]),
    })
}

/// Opens a window of `N` packets on the lane's live stream. Returns the
/// primary request and the companion when it must be serviced; a
/// fixed-address dummy companion is dropped before the array
/// (Observation 2) and marks the primary `dropped_dummy`.
///
/// Both header slots are used up before either parse is inspected, so
/// every failure leaves the counter at `base + 2`, the state the link's
/// resync repairs. Tags are checked in packet order before anything is
/// acted on (§3.5).
///
/// # Errors
///
/// * [`ObfusMemError::MalformedPacket`] for a header that does not parse,
///   or a missing tag on an authenticated channel.
/// * [`ObfusMemError::TamperDetected`] for a tag that does not verify.
pub(crate) fn open<const N: usize>(
    cfg: &ObfusMemConfig,
    session: &mut ChannelSession,
    packets: [&BusPacket; N],
) -> Result<(DecodedRequest, Option<DecodedRequest>), ObfusMemError> {
    let base_counter = session.stream().counter();
    let header_pads = Pads::Live(session.stream_mut()).headers::<N>(cfg.address_mode);
    let mut failure = None;
    let headers = std::array::from_fn(|i| {
        let mut pt = packets[i].header_ct;
        match &header_pads {
            Some(pads) => xor16(&mut pt, &pads[i]),
            None => pt = session.ecb_decrypt(&pt),
        }
        // On failure a placeholder stands in; the first error returns below.
        RequestHeader::from_bytes(&pt).unwrap_or_else(|e| {
            failure.get_or_insert(e);
            INJECTED_HEADERS[0]
        })
    });
    if let Some(e) = failure {
        return Err(e);
    }

    if cfg.security.authenticates() {
        let ct = packets.map(|p| (&p.header_ct, p.data_ct.as_ref()));
        let expected = tags(cfg.mac_scheme, session.mac(), base_counter, headers, ct);
        for (i, (packet, expected)) in packets.iter().zip(&expected).enumerate() {
            let tag = packet.tag.ok_or_else(|| {
                ObfusMemError::MalformedPacket("authenticated channel requires a tag".into())
            })?;
            if !tags_equal(expected, &tag) {
                let RequestHeader { kind, addr } = headers[i];
                return Err(ObfusMemError::TamperDetected {
                    detail: format!(
                        "MAC mismatch at counter {} (decrypted {kind} {addr:#x})",
                        base_counter + i as u64
                    ),
                });
            }
        }
    }

    // Slots 2–5 open the first payload a serviced packet carries; a
    // dropped dummy's filler and a read's are never data.
    let dropped = headers.get(1).is_some_and(|c| c.addr == FIXED_DUMMY_ADDR);
    let owner = (0..N).find(|&i| packets[i].data_ct.is_some() && (i == 0 || !dropped));
    let data_pads = Pads::Live(session.stream_mut()).data(owner.is_some());
    let data = |i: usize| {
        let write = owner == Some(i) && headers[i].kind == AccessKind::Write;
        let mut bytes = packets[i].data_ct.filter(|_| write)?;
        xor64(&mut bytes, data_pads.as_ref()?);
        Some(bytes)
    };
    let decoded = |i: usize| DecodedRequest {
        header: headers[i],
        data: data(i),
        dropped_dummy: false,
        base_counter,
    };
    let companion = (N == 2 && !dropped).then(|| decoded(1));
    Ok((
        DecodedRequest {
            dropped_dummy: dropped,
            ..decoded(0)
        },
        companion,
    ))
}

/// Bytes a read's reply puts on the wire: an empty 16 B header slot, the
/// 64 B block and, when authenticating, the 8 B reply tag.
pub(crate) fn reply_wire_bytes(cfg: &ObfusMemConfig) -> u64 {
    16 + 64 + if cfg.security.authenticates() { 8 } else { 0 }
}

/// Seals the reply to a read whose window starts at `base_counter`: the
/// stored `block` under the window's data pads, tagged when
/// authenticating. Reads the session only.
pub(crate) fn seal_reply(
    cfg: &ObfusMemConfig,
    session: &ChannelSession,
    base_counter: u64,
    block: &BlockData,
) -> BusPacket {
    let ct = reply_pads(session, base_counter, *block);
    let authenticated = cfg.security.authenticates();
    BusPacket {
        header_ct: [0; 16],
        data_ct: Some(ct),
        tag: authenticated.then(|| session.mac().reply_tag(base_counter, &ct)),
    }
}

/// Opens the reply to a read whose window starts at `base_counter`: checks
/// its tag when authenticating, then decrypts the block. Reads the
/// session only.
///
/// # Errors
///
/// * [`ObfusMemError::MalformedPacket`] for a missing tag on an
///   authenticated channel (reported first) or missing data.
/// * [`ObfusMemError::TamperDetected`] for a tag that does not verify.
pub(crate) fn open_reply(
    cfg: &ObfusMemConfig,
    session: &ChannelSession,
    base_counter: u64,
    reply: &BusPacket,
) -> Result<BlockData, ObfusMemError> {
    let malformed = |what| ObfusMemError::MalformedPacket(format!("reply is missing its {what}"));
    let tag = if cfg.security.authenticates() {
        Some(reply.tag.ok_or_else(|| malformed("tag"))?)
    } else {
        None
    };
    let ct = reply.data_ct.ok_or_else(|| malformed("data"))?;
    if tag.is_some_and(|tag| !tags_equal(&session.mac().reply_tag(base_counter, &ct), &tag)) {
        return Err(ObfusMemError::TamperDetected {
            detail: format!("reply MAC mismatch at counter {base_counter}"),
        });
    }
    Ok(reply_pads(session, base_counter, ct))
}

/// `block` XORed with the data pads of the window at `base_counter`,
/// which seal and open a read's reply alike.
fn reply_pads(session: &ChannelSession, base_counter: u64, mut block: BlockData) -> BlockData {
    xor64(
        &mut block,
        &Pads::At(session.stream(), base_counter + 2).take(),
    );
    block
}

/// The tag of each of a window's `N` packets, which hold counters
/// `base_counter, base_counter + 1` (§3.5). Encrypt-and-MAC binds each
/// plaintext header to its counter, all `N` in one multi-lane pass;
/// encrypt-then-MAC covers each packet's ciphertext.
fn tags<const N: usize>(
    scheme: MacScheme,
    mac: &MacEngine,
    base_counter: u64,
    headers: [RequestHeader; N],
    ct: [(&[u8; 16], Option<&BlockData>); N],
) -> [Tag; N] {
    match scheme {
        MacScheme::EncryptAndMac => mac.command_tags(std::array::from_fn(|i| {
            let h = headers[i];
            (h.kind.encode(), h.addr, base_counter + i as u64)
        })),
        MacScheme::EncryptThenMac => ct.map(|(header_ct, data_ct)| {
            let data: &[u8] = data_ct.map_or(&[], |d| &d[..]);
            mac.tag(&[header_ct, data])
        }),
    }
}

fn xor16(dst: &mut [u8; 16], pad: &[u8; 16]) {
    for (d, p) in dst.iter_mut().zip(pad.iter()) {
        *d ^= p;
    }
}

/// XORs a 64-byte block with four 16-byte pads: one request's data
/// lanes, or a block's at-rest pads in [`crate::memenc`].
pub(crate) fn xor64(dst: &mut BlockData, pads: &[Block; 4]) {
    for (chunk, pad) in dst.chunks_mut(16).zip(pads.iter()) {
        for (d, p) in chunk.iter_mut().zip(pad.iter()) {
            *d ^= p;
        }
    }
}

/// A block of eight `rng.next_u64()` draws, little-endian: the filler a
/// dummy write or a uniform read carries, and the stored data a tenant
/// fabric serves.
pub fn random_block(rng: &mut SplitMix64) -> BlockData {
    let mut out = [0u8; 64];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityLevel;
    use crate::memside::engines_for_test;
    use obfusmem_sim::time::Time;

    /// A read's reply opens to the stored block under both obfuscating
    /// levels and both MAC schemes, and is [`reply_wire_bytes`] long.
    /// Under authentication every single-bit flip of its data or tag
    /// fails the open as tampering, and a reply without its tag is
    /// malformed, even when its data is missing too.
    #[test]
    fn sealed_replies_open_and_every_flip_is_caught_under_auth() {
        let stored: BlockData = std::array::from_fn(|i| i as u8);
        for security in [SecurityLevel::Obfuscate, SecurityLevel::ObfuscateAuth] {
            for mac_scheme in [MacScheme::EncryptAndMac, MacScheme::EncryptThenMac] {
                let cfg = ObfusMemConfig {
                    security,
                    mac_scheme,
                    ..ObfusMemConfig::paper_default()
                };
                let what = format!("{security:?} {mac_scheme:?}");
                let (mut proc, mut mems) = engines_for_test(cfg, 1);
                // Two reads, so the second window is not the stream's first.
                for addr in [0x4_0000, 0x8_0040] {
                    let header = RequestHeader {
                        kind: AccessKind::Read,
                        addr,
                    };
                    let delivery = Delivery::Pair { header, data: None };
                    let pair = proc.obfuscate(Time::ZERO, 0, delivery).unwrap();
                    let (decoded, _) = mems[0].receive(0, &pair.real, pair.dummy.as_ref()).unwrap();
                    let base = decoded.base_counter;
                    let reply = mems[0].seal_reply(0, base, &stored).unwrap();
                    assert_eq!(reply.wire_bytes() as u64, reply_wire_bytes(&cfg), "{what}");
                    assert_eq!(proc.open_reply(0, base, &reply), Ok(stored), "{what}");
                    if !security.authenticates() {
                        assert_eq!(reply.tag, None, "{what}");
                        continue;
                    }
                    for byte in 0..64 + 8 {
                        for bit in 0..8 {
                            let mut flipped = reply.clone();
                            match (flipped.data_ct.as_mut(), flipped.tag.as_mut()) {
                                (Some(data), _) if byte < 64 => data[byte] ^= 1 << bit,
                                (_, Some(tag)) => tag[byte - 64] ^= 1 << bit,
                                _ => unreachable!("an authenticated reply has data and a tag"),
                            }
                            let got = proc.open_reply(0, base, &flipped);
                            assert!(
                                matches!(got, Err(ObfusMemError::TamperDetected { .. })),
                                "{what}: flip at {byte}.{bit} gave {got:?}"
                            );
                        }
                    }
                    for data_ct in [reply.data_ct, None] {
                        let untagged = BusPacket {
                            data_ct,
                            tag: None,
                            ..reply.clone()
                        };
                        let got = proc.open_reply(0, base, &untagged);
                        assert!(
                            matches!(&got, Err(ObfusMemError::MalformedPacket(m)) if m.contains("tag")),
                            "{what}: got {got:?}"
                        );
                    }
                }
            }
        }
    }

    /// Every shape round-trips under both header ciphers and both MAC
    /// schemes: the memory end decodes what was sent, both ends' counters
    /// agree after every request, and under ECB each header on the wire
    /// is the session's ECB encryption of it. The shapes repeat, so their
    /// windows straddle the stream's pad batches.
    #[test]
    fn every_shape_round_trips_under_every_cipher_and_mac() {
        let read = RequestHeader {
            kind: AccessKind::Read,
            addr: 0x4_0000,
        };
        let write = RequestHeader {
            kind: AccessKind::Write,
            addr: 0x8_0040,
        };
        let data = [0xA5; 64];
        let shapes = [
            Delivery::Pair {
                header: read,
                data: None,
            },
            Delivery::Pair {
                header: write,
                data: Some(&data),
            },
            Delivery::Substituted {
                read,
                write,
                data: &data,
            },
            Delivery::Uniform {
                header: read,
                data: None,
            },
            Delivery::Uniform {
                header: write,
                data: Some(&data),
            },
        ];
        for address_mode in [AddressCipherMode::Ctr, AddressCipherMode::Ecb] {
            for mac_scheme in [MacScheme::EncryptAndMac, MacScheme::EncryptThenMac] {
                let cfg = ObfusMemConfig {
                    address_mode,
                    mac_scheme,
                    ..ObfusMemConfig::paper_default()
                };
                let (mut proc, mut mems) = engines_for_test(cfg, 1);
                // The key and nonce `engines_for_test` gives channel 0.
                let session = ChannelSession::new([1; 16], 0);
                for (i, &delivery) in shapes.iter().cycle().take(3 * shapes.len()).enumerate() {
                    let what = format!("{address_mode:?} {mac_scheme:?} request {i}");
                    let pair = proc.obfuscate(Time::ZERO, 0, delivery).unwrap();
                    let (primary, companion) = mems[0]
                        .receive(0, &pair.real, pair.dummy.as_ref())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let (sent, companion_sent) = match delivery {
                        Delivery::Pair { header, data } | Delivery::Uniform { header, data } => {
                            ((header, data.copied()), None)
                        }
                        Delivery::Substituted { read, write, data } => {
                            ((read, None), Some((write, Some(*data))))
                        }
                    };
                    assert_eq!((primary.header, primary.data), sent, "{what}");
                    assert_eq!(
                        companion.map(|c| (c.header, c.data)),
                        companion_sent,
                        "{what}"
                    );
                    assert_eq!(proc.counter(0), mems[0].counter(0), "{what}");
                    if address_mode == AddressCipherMode::Ecb {
                        let wire = std::iter::once(&pair.real).chain(&pair.dummy);
                        for (packet, header) in wire.zip([sent.0, pair.dummy_header]) {
                            let ecb = session.ecb_encrypt(&header.to_bytes());
                            assert_eq!(packet.header_ct, ecb, "{what}");
                        }
                    }
                }
            }
        }
    }
}
