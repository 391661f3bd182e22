//! AES counter-mode pad streams.
//!
//! ObfusMem encrypts everything that crosses the memory bus by XOR with
//! single-use pads: `pad = AES_K(IV)` where the IV is a monotonically
//! increasing counter shared by the two ends of a channel (paper §3.2,
//! Figure 3). Each memory request consumes **six** pads — one for the real
//! command+address, one for the paired dummy request, and four for the
//! 64-byte data block — and both sides then advance their counter by six.
//!
//! [`CtrStream`] is that shared counter plus the channel's session key.
//! [`PadBuffer`] models the hardware's ability to *pre-generate* pads for
//! future counter values (the reason counter mode was chosen): it tracks
//! how many pads are banked ahead of demand so the performance model can
//! tell when a burst outruns the AES pipeline.

use crate::aes::{Aes128, Block};
use crate::error::CryptoError;

/// How many 128-bit pads one obfuscated request consumes (paper §3.2):
/// 1 real command+address, 1 dummy command+address, 4 for 64 B of data.
pub const PADS_PER_REQUEST: u64 = 6;

/// Pads generated per wide-block cipher pass. Single-pad and ragged-tail
/// demand is served from a bank refilled one pass at a time, so consumers
/// that size buffers in multiples of `PAD_BATCH` never pay a partial pass.
pub const PAD_BATCH: usize = 8;

/// A counter-mode keystream: `pad_i = AES_K(nonce_hi || ctr_i)`.
///
/// Both ends of an ObfusMem channel hold an identical `CtrStream`; staying
/// synchronized (consuming the same number of pads for every message) is
/// what makes decryption — and tamper detection via counter mismatch —
/// work.
///
/// Pads are produced through the wide-block engine [`PAD_BATCH`] at a time:
/// single-pad calls drain a small bank of pre-generated pads (refilling it
/// with one cipher pass when empty), and batch calls stream full passes
/// straight into the caller's buffer. The counter always reads as the next
/// *unserved* pad index — banked pads are an implementation detail and
/// never visible in the synchronization discipline.
#[derive(Clone)]
pub struct CtrStream {
    cipher: Aes128,
    /// Upper 64 bits of the IV; fixed per session (a nonce).
    nonce: u64,
    /// Lower 64 bits: the running counter. A 64-bit counter will not
    /// overflow for millennia at memory-bus rates (paper §3.2).
    counter: u64,
    /// Pre-generated pads for counters `counter..counter + bank_len -
    /// bank_pos` (keystream material — scrubbed on drop, hidden from
    /// `Debug`). Invalidated by `seek` and overrun by `skip_pads`.
    bank: [Block; PAD_BATCH],
    bank_pos: u8,
    bank_len: u8,
}

impl std::fmt::Debug for CtrStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtrStream")
            .field("cipher", &self.cipher)
            .field("nonce", &self.nonce)
            .field("counter", &self.counter)
            .field("banked", &self.banked())
            .finish()
    }
}

impl Drop for CtrStream {
    /// Banked pads are keystream material: XORing one with an observed
    /// ciphertext recovers plaintext, so scrub them like key bytes (the
    /// cipher scrubs its own schedule).
    fn drop(&mut self) {
        for pad in self.bank.iter_mut() {
            for b in pad.iter_mut() {
                unsafe { std::ptr::write_volatile(b, 0) };
            }
        }
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }
}

impl CtrStream {
    /// Creates a stream with the given cipher and session nonce, starting
    /// at counter zero.
    pub fn new(cipher: Aes128, nonce: u64) -> Self {
        CtrStream {
            cipher,
            nonce,
            counter: 0,
            bank: [[0u8; 16]; PAD_BATCH],
            bank_pos: 0,
            bank_len: 0,
        }
    }

    /// Current counter value (the next pad index that will be produced).
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Number of pre-generated pads currently banked for the upcoming
    /// counter values.
    fn banked(&self) -> usize {
        (self.bank_len - self.bank_pos) as usize
    }

    /// One wide-block pass: fill the bank with pads for
    /// `counter..counter + PAD_BATCH`.
    fn refill_bank(&mut self) {
        self.cipher
            .ctr_blocks(self.nonce, self.counter, &mut self.bank);
        self.bank_pos = 0;
        self.bank_len = PAD_BATCH as u8;
    }

    /// Forces the counter to `value`.
    ///
    /// Used by tamper-recovery tests and by the memory-side engine when
    /// re-synchronizing after a detected desync; normal operation never
    /// calls this. Discards any banked pads (they belong to the old
    /// counter window).
    pub fn seek(&mut self, value: u64) {
        self.counter = value;
        self.bank_pos = 0;
        self.bank_len = 0;
    }

    /// Produces the pad for the current counter and advances by one.
    /// Served from the bank; one wide-block pass refills it every
    /// [`PAD_BATCH`] calls.
    pub fn next_pad(&mut self) -> Block {
        if self.banked() == 0 {
            self.refill_bank();
        }
        let pad = self.bank[self.bank_pos as usize];
        self.bank_pos += 1;
        self.counter += 1;
        pad
    }

    /// Produces the next `N` pads as one batch, advancing the counter by
    /// `N`. Equivalent to `N` calls to [`CtrStream::next_pad`] but drains
    /// the bank and streams whole wide-block passes straight into the
    /// output — the shape every six/eight-pads-per-request consumer wants.
    pub fn next_pads<const N: usize>(&mut self) -> [Block; N] {
        let mut out = [[0u8; 16]; N];
        self.keystream_into(&mut out);
        out
    }

    /// Fills `out` with the pads for the next `out.len()` counter values
    /// and advances the counter past them. No allocation: callers bring
    /// the buffer. Banked pads are served first, full [`PAD_BATCH`] spans
    /// are generated directly into `out`, and a ragged tail refills the
    /// bank so the leftovers stay pre-generated for the next call.
    pub fn keystream_into(&mut self, out: &mut [Block]) {
        let take = self.banked().min(out.len());
        if take > 0 {
            let pos = self.bank_pos as usize;
            out[..take].copy_from_slice(&self.bank[pos..pos + take]);
            self.bank_pos += take as u8;
            self.counter += take as u64;
        }
        let rest = &mut out[take..];
        if rest.is_empty() {
            return;
        }
        let full = rest.len() - rest.len() % PAD_BATCH;
        if full > 0 {
            self.cipher
                .ctr_blocks(self.nonce, self.counter, &mut rest[..full]);
            self.counter += full as u64;
        }
        let tail = &mut rest[full..];
        if !tail.is_empty() {
            self.refill_bank();
            tail.copy_from_slice(&self.bank[..tail.len()]);
            self.bank_pos = tail.len() as u8;
            self.counter += tail.len() as u64;
        }
    }

    /// Advances the counter by `n` without generating the pads.
    ///
    /// Both ends must consume six counter values per request whether or
    /// not a given slot's pad is ever XORed with anything (a read request
    /// reserves its reply pads but does not use them until the reply
    /// arrives, via [`CtrStream::pad_at`]). Skipping keeps the counter
    /// discipline without burning AES work on discarded pads; already
    /// banked pads are consumed (or discarded, past the bank) for free.
    pub fn skip_pads(&mut self, n: u64) {
        if n < self.banked() as u64 {
            self.bank_pos += n as u8;
        } else {
            self.bank_pos = 0;
            self.bank_len = 0;
        }
        self.counter += n;
    }

    /// Produces the pad for an arbitrary counter value without advancing.
    ///
    /// The hardware uses this to pre-generate pads for future counters.
    pub fn pad_at(&self, counter: u64) -> Block {
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&self.nonce.to_be_bytes());
        iv[8..].copy_from_slice(&counter.to_be_bytes());
        self.cipher.encrypt_block(&iv)
    }

    /// Fills `out` with pads for counters `counter..counter + out.len()`
    /// without advancing — the batch form of [`CtrStream::pad_at`], used
    /// to regenerate a request's reserved reply-pad window in one call.
    /// Routed through the cipher's counter-mode entry point so the wide
    /// engine packs the IVs itself instead of reading them back from
    /// bytes.
    pub fn pads_at_into(&self, counter: u64, out: &mut [Block]) {
        self.cipher.ctr_blocks(self.nonce, counter, out);
    }

    /// Encrypts (or decrypts — XOR is symmetric) `data` in place, consuming
    /// `ceil(len/16)` pads. Pads are generated in batches of up to eight
    /// blocks (two requests' worth of data pads) with no allocation.
    pub fn xor_in_place(&mut self, data: &mut [u8]) {
        let mut pads = [[0u8; 16]; 8];
        for span in data.chunks_mut(8 * 16) {
            let n = span.len().div_ceil(16);
            self.keystream_into(&mut pads[..n]);
            for (chunk, pad) in span.chunks_mut(16).zip(pads.iter()) {
                for (d, p) in chunk.iter_mut().zip(pad.iter()) {
                    *d ^= p;
                }
            }
        }
    }

    /// Convenience: encrypt a copy of `data`.
    pub fn xor_copy(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.xor_in_place(&mut out);
        out
    }
}

/// Models the pad pre-generation buffer in front of a pipelined AES core.
///
/// The synthesized AES unit in the paper produces one 128-bit pad per
/// 4 ns cycle after a 24-cycle fill. Because counter-mode IVs are known in
/// advance, the engine banks pads during idle cycles; a request only stalls
/// when the buffer is empty (a long back-to-back burst). This type does the
/// bookkeeping for that model; it holds no key material.
#[derive(Debug, Clone)]
pub struct PadBuffer {
    capacity: u64,
    /// Pads available at `last_time`.
    available: u64,
    /// Picoseconds per pad produced by the pipeline (throughput).
    ps_per_pad: u64,
    /// Pipeline fill latency in picoseconds (cost of a cold start).
    fill_ps: u64,
    last_time_ps: u64,
}

impl PadBuffer {
    /// Creates a buffer of `capacity` pads for a pipeline with the given
    /// per-pad throughput and fill latency (both picoseconds). The buffer
    /// starts full (pads are banked during boot).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `ps_per_pad` is zero.
    pub fn new(capacity: u64, ps_per_pad: u64, fill_ps: u64) -> Self {
        assert!(capacity > 0, "pad buffer capacity must be nonzero");
        assert!(ps_per_pad > 0, "pad throughput must be nonzero");
        PadBuffer {
            capacity,
            available: capacity,
            ps_per_pad,
            fill_ps,
            last_time_ps: 0,
        }
    }

    /// Number of pads banked at time `now_ps`.
    pub fn available_at(&mut self, now_ps: u64) -> u64 {
        self.refill(now_ps);
        self.available
    }

    fn refill(&mut self, now_ps: u64) {
        if now_ps > self.last_time_ps {
            let produced = (now_ps - self.last_time_ps) / self.ps_per_pad;
            self.available = (self.available + produced).min(self.capacity);
            self.last_time_ps = now_ps;
        }
    }

    /// Consumes `count` pads at time `now_ps` and returns the extra stall
    /// (in picoseconds) the request suffers if the buffer under-runs.
    ///
    /// With pads banked the cost is zero — only the XOR remains on the
    /// critical path, which the caller accounts separately.
    pub fn consume(&mut self, now_ps: u64, count: u64) -> u64 {
        self.refill(now_ps);
        if self.available >= count {
            self.available -= count;
            0
        } else {
            let missing = count - self.available;
            self.available = 0;
            // Cold pads: pipeline fill (if drained) plus per-pad throughput.
            self.fill_ps + missing * self.ps_per_pad
        }
    }
}

/// Carves the 64-bit CTR nonce space into disjoint per-lane regions.
///
/// A multi-tenant fabric runs many [`CtrStream`]s that may share (or
/// rotate through related) keys; pad uniqueness then rests on no two
/// lanes ever using the same `(nonce, counter)` IV. The partition gives
/// lane `i` the nonce region `i << (64 - lane_bits)`, optionally offset
/// by an epoch tag in the low bits, so every lane's IVs are disjoint by
/// construction for any counter below 2^64.
///
/// The type is pure arithmetic — it holds no key material — and every
/// out-of-range input surfaces as a typed [`CryptoError`] rather than a
/// panic, since lane indices originate from untrusted handshake input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrSpacePartition {
    lane_bits: u32,
}

impl CtrSpacePartition {
    /// Creates a partition with `2^lane_bits` lanes. `lane_bits` must be
    /// in `1..=32` (at least two lanes; at least 2^32 nonces per lane).
    pub fn new(lane_bits: u32) -> Result<Self, CryptoError> {
        if !(1..=32).contains(&lane_bits) {
            return Err(CryptoError::InvalidLength {
                expected: 32,
                actual: lane_bits as usize,
            });
        }
        Ok(CtrSpacePartition { lane_bits })
    }

    /// Smallest partition with capacity for `lanes` lanes.
    pub fn for_lanes(lanes: u64) -> Result<Self, CryptoError> {
        let bits = 64 - lanes.max(2).saturating_sub(1).leading_zeros();
        CtrSpacePartition::new(bits)
    }

    /// Number of lanes this partition supports.
    pub fn lanes(&self) -> u64 {
        1u64 << self.lane_bits
    }

    /// Nonces available to each lane (region width).
    pub fn nonces_per_lane(&self) -> u64 {
        1u64 << (64 - self.lane_bits)
    }

    /// The session nonce for `lane` at re-key `epoch`: the lane tag in
    /// the high bits, the epoch in the low bits. Distinct lanes can
    /// never collide; distinct epochs within a lane differ until the
    /// epoch count reaches the region width (checked).
    pub fn nonce_for(&self, lane: u64, epoch: u64) -> Result<u64, CryptoError> {
        if lane >= self.lanes() {
            return Err(CryptoError::LaneOutOfRange {
                lane,
                lanes: self.lanes(),
            });
        }
        if epoch >= self.nonces_per_lane() {
            return Err(CryptoError::CounterSpaceExhausted { lane });
        }
        Ok((lane << (64 - self.lane_bits)) | epoch)
    }

    /// The lane that owns `nonce` (the inverse of [`nonce_for`]'s tag).
    ///
    /// [`nonce_for`]: CtrSpacePartition::nonce_for
    pub fn lane_of(&self, nonce: u64) -> u64 {
        nonce >> (64 - self.lane_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn stream() -> CtrStream {
        CtrStream::new(Aes128::new(&[7u8; 16]), 0xDEAD_BEEF)
    }

    #[test]
    fn pads_never_repeat_within_window() {
        let mut s = stream();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            assert!(seen.insert(s.next_pad()), "counter-mode pad repeated");
        }
    }

    #[test]
    fn both_ends_stay_synchronized() {
        let mut processor = stream();
        let mut memory = stream();
        let msg = b"read 0x0000_0040".to_vec();
        for _ in 0..100 {
            let ct = processor.xor_copy(&msg);
            assert_ne!(ct, msg);
            let pt = memory.xor_copy(&ct);
            assert_eq!(pt, msg);
        }
        assert_eq!(processor.counter(), memory.counter());
    }

    #[test]
    fn desync_garbles_decryption() {
        let mut processor = stream();
        let mut memory = stream();
        memory.next_pad(); // memory is one pad ahead: a dropped message
        let ct = processor.xor_copy(b"payload padding!");
        assert_ne!(memory.xor_copy(&ct), b"payload padding!".to_vec());
    }

    #[test]
    fn batched_keystream_matches_sequential_pads() {
        let mut sequential = stream();
        let mut batched = stream();
        let expected: Vec<Block> = (0..12).map(|_| sequential.next_pad()).collect();
        let first: [Block; 6] = batched.next_pads();
        let mut rest = [[0u8; 16]; 6];
        batched.keystream_into(&mut rest);
        assert_eq!(first.to_vec(), expected[..6]);
        assert_eq!(rest.to_vec(), expected[6..]);
        assert_eq!(batched.counter(), sequential.counter());
    }

    #[test]
    fn skip_pads_preserves_counter_discipline() {
        let mut consumed = stream();
        let mut skipped = stream();
        for _ in 0..6 {
            consumed.next_pad();
        }
        skipped.skip_pads(6);
        assert_eq!(consumed.counter(), skipped.counter());
        assert_eq!(consumed.next_pad(), skipped.next_pad());
    }

    #[test]
    fn pads_at_into_matches_pad_at_window() {
        let s = stream();
        let mut batch = [[0u8; 16]; 4];
        s.pads_at_into(17, &mut batch);
        for (i, pad) in batch.iter().enumerate() {
            assert_eq!(*pad, s.pad_at(17 + i as u64));
        }
        assert_eq!(s.counter(), 0, "pads_at_into must not advance");
    }

    #[test]
    fn batched_xor_matches_blockwise_xor() {
        // Lengths straddling the 8-block batch window, including ragged
        // tails.
        for len in [0usize, 1, 15, 16, 64, 127, 128, 129, 300] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut batched = stream();
            let mut blockwise = stream();
            let ct = batched.xor_copy(&data);
            let mut expected = data.clone();
            for chunk in expected.chunks_mut(16) {
                let pad = blockwise.next_pad();
                for (d, p) in chunk.iter_mut().zip(pad.iter()) {
                    *d ^= p;
                }
            }
            assert_eq!(ct, expected, "len {len}");
            assert_eq!(batched.counter(), blockwise.counter(), "len {len}");
        }
    }

    /// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt): the standard initial
    /// counter block `f0f1..feff` split across our `nonce ‖ counter`
    /// layout. Exercises the wide-block engine end to end through the
    /// stream's banked path.
    #[test]
    fn sp800_38a_ctr_aes128_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut s = CtrStream::new(Aes128::new(&key), 0xf0f1_f2f3_f4f5_f6f7);
        s.seek(0xf8f9_fafb_fcfd_feff);
        let pt = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ];
        let ct = [
            0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
            0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70, 0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b,
            0xb9, 0xff, 0xfd, 0xff, 0x5a, 0xe4, 0xdf, 0x3e, 0xdb, 0xd5, 0xd3, 0x5e, 0x5b, 0x4f,
            0x09, 0x02, 0x0d, 0xb0, 0x3e, 0xab, 0x1e, 0x03, 0x1d, 0xda, 0x2f, 0xbe, 0x03, 0xd1,
            0x79, 0x21, 0x70, 0xa0, 0xf3, 0x00, 0x9c, 0xee,
        ];
        assert_eq!(s.xor_copy(&pt), ct.to_vec());
    }

    #[test]
    fn single_pads_are_banked_one_pass_at_a_time() {
        let mut s = stream();
        assert_eq!(s.banked(), 0);
        let first = s.next_pad();
        assert_eq!(first, stream().pad_at(0));
        assert_eq!(s.banked(), PAD_BATCH - 1, "one pass banks the rest");
        assert_eq!(s.counter(), 1, "banked pads are not consumed pads");
    }

    #[test]
    fn seek_discards_banked_pads() {
        let mut s = stream();
        s.next_pad(); // banks pads for counters 1..8
        s.seek(100);
        assert_eq!(s.next_pad(), stream().pad_at(100));
    }

    #[test]
    fn skip_consumes_banked_pads_then_discards() {
        let oracle = stream();
        // Skip shorter than the bank: remaining banked pads still valid.
        let mut s = stream();
        s.next_pad();
        s.skip_pads(3);
        assert_eq!(s.next_pad(), oracle.pad_at(4));
        // Skip past the bank: next pad comes from a fresh pass.
        let mut s = stream();
        s.next_pad();
        s.skip_pads(50);
        assert_eq!(s.counter(), 51);
        assert_eq!(s.next_pad(), oracle.pad_at(51));
    }

    #[test]
    fn debug_does_not_print_banked_pads() {
        let mut s = stream();
        let pad = s.next_pad();
        let next_banked = s.pad_at(1);
        let rendered = format!("{s:?}");
        for leak in [&pad, &next_banked] {
            let hexed: String = leak.iter().map(|b| format!("{b:02x}")).collect();
            assert!(!rendered.contains(&hexed));
            assert!(!rendered.contains(&format!("{:?}", &leak[..4])));
        }
        assert!(rendered.contains("banked"));
    }

    #[test]
    fn batches_at_non_multiple_of_eight_offsets_match_oracle() {
        let oracle = stream();
        for offset in [0u64, 1, 3, 5, 7, 9, 13, 100, 1 << 33] {
            for len in [1usize, 5, 6, 7, 8, 9, 12, 17, 24, 31] {
                let mut s = stream();
                s.seek(offset);
                let mut got = vec![[0u8; 16]; len];
                s.keystream_into(&mut got);
                for (i, pad) in got.iter().enumerate() {
                    assert_eq!(
                        *pad,
                        oracle.pad_at(offset + i as u64),
                        "offset {offset} len {len} pad {i}"
                    );
                }
                assert_eq!(s.counter(), offset + len as u64);
            }
        }
    }

    #[test]
    fn adjacent_partition_lanes_never_share_pads() {
        let p = CtrSpacePartition::new(4).unwrap();
        let key = [9u8; 16];
        let mut seen = std::collections::HashSet::new();
        for lane in [0u64, 1, 2, 15] {
            let nonce = p.nonce_for(lane, 0).unwrap();
            let mut s = CtrStream::new(Aes128::new(&key), nonce);
            // Straddle a batch boundary from a ragged offset.
            s.seek(3);
            for pad in s.next_pads::<13>() {
                assert!(seen.insert(pad), "pad collision across lanes at {lane}");
            }
        }
    }

    #[test]
    fn pad_at_matches_sequential_generation() {
        let mut s = stream();
        let expected = s.pad_at(2);
        s.next_pad();
        s.next_pad();
        assert_eq!(s.next_pad(), expected);
    }

    #[test]
    fn same_plaintext_different_ciphertext() {
        // The property ObfusMem relies on for temporal-pattern hiding.
        let mut s = stream();
        let a = s.xor_copy(b"block 0x40 data.");
        let b = s.xor_copy(b"block 0x40 data.");
        assert_ne!(a, b);
    }

    #[test]
    fn pad_buffer_free_when_banked() {
        let mut buf = PadBuffer::new(64, 4_000, 96_000);
        assert_eq!(buf.consume(0, 6), 0);
        assert_eq!(buf.available_at(0), 58);
    }

    #[test]
    fn pad_buffer_underrun_costs_fill_latency() {
        let mut buf = PadBuffer::new(8, 4_000, 96_000);
        assert_eq!(buf.consume(0, 8), 0);
        // Immediately ask for six more: all cold.
        let stall = buf.consume(0, 6);
        assert_eq!(stall, 96_000 + 6 * 4_000);
    }

    #[test]
    fn pad_buffer_refills_over_time() {
        let mut buf = PadBuffer::new(64, 4_000, 96_000);
        buf.consume(0, 64);
        // After 40 ns the pipeline has produced 10 pads.
        assert_eq!(buf.available_at(40_000), 10);
    }

    #[test]
    fn pad_buffer_never_exceeds_capacity() {
        let mut buf = PadBuffer::new(16, 4_000, 96_000);
        buf.consume(0, 4);
        assert_eq!(buf.available_at(1_000_000_000), 16);
    }

    #[test]
    fn partition_lanes_are_disjoint() {
        let p = CtrSpacePartition::new(20).unwrap();
        let mut seen = std::collections::HashSet::new();
        for lane in [0u64, 1, 2, 1023, p.lanes() - 1] {
            for epoch in [0u64, 1, 7] {
                let nonce = p.nonce_for(lane, epoch).unwrap();
                assert!(seen.insert(nonce), "nonce collision lane {lane}");
                assert_eq!(p.lane_of(nonce), lane);
            }
        }
    }

    #[test]
    fn partition_rejects_out_of_range() {
        let p = CtrSpacePartition::new(8).unwrap();
        assert_eq!(p.lanes(), 256);
        assert!(matches!(
            p.nonce_for(256, 0),
            Err(CryptoError::LaneOutOfRange { lane: 256, .. })
        ));
        assert!(matches!(
            p.nonce_for(3, p.nonces_per_lane()),
            Err(CryptoError::CounterSpaceExhausted { lane: 3 })
        ));
        assert!(CtrSpacePartition::new(0).is_err());
        assert!(CtrSpacePartition::new(33).is_err());
    }

    #[test]
    fn partition_for_lanes_fits() {
        for lanes in [2u64, 3, 64, 65, 1024, 1_000_000] {
            let p = CtrSpacePartition::for_lanes(lanes).unwrap();
            assert!(p.lanes() >= lanes, "{lanes} lanes need {} slots", p.lanes());
            assert!(p.lanes() < lanes * 2 || p.lanes() == 2);
        }
    }

    proptest::proptest! {
        #[test]
        fn xor_round_trips(data: Vec<u8>, nonce: u64, key: [u8; 16]) {
            let mut a = CtrStream::new(Aes128::new(&key), nonce);
            let mut b = CtrStream::new(Aes128::new(&key), nonce);
            let ct = a.xor_copy(&data);
            proptest::prop_assert_eq!(b.xor_copy(&ct), data);
        }

        /// Differential gate for the banked wide-block path: any
        /// interleaving of seek / skip / single-pad / ragged-batch calls
        /// must produce exactly the pads the per-block oracle
        /// ([`CtrStream::pad_at`], which encrypts one explicit IV per
        /// call) predicts, with the counter tracking the next unserved
        /// index throughout.
        #[test]
        fn interleaved_ops_match_per_block_oracle(ops: Vec<(u8, u8)>, key: [u8; 16], lane: u64) {
            let part = CtrSpacePartition::new(6).unwrap();
            let nonce = part.nonce_for(lane % part.lanes(), 1).unwrap();
            let mut s = CtrStream::new(Aes128::new(&key), nonce);
            let oracle = CtrStream::new(Aes128::new(&key), nonce);
            let mut c: u64 = 0;
            for (op, arg) in ops.into_iter().take(64) {
                match op % 4 {
                    0 => {
                        proptest::prop_assert_eq!(s.next_pad(), oracle.pad_at(c));
                        c += 1;
                    }
                    1 => {
                        // Batch lengths straddle the PAD_BATCH boundary.
                        let n = (arg % (2 * PAD_BATCH as u8 + 5)) as usize;
                        let mut out = vec![[0u8; 16]; n];
                        s.keystream_into(&mut out);
                        for (i, pad) in out.iter().enumerate() {
                            proptest::prop_assert_eq!(*pad, oracle.pad_at(c + i as u64));
                        }
                        c += n as u64;
                    }
                    2 => {
                        let n = (arg % 13) as u64;
                        s.skip_pads(n);
                        c += n;
                    }
                    _ => {
                        // Jump anywhere, including ragged offsets.
                        c = (c << 5) ^ (arg as u64);
                        s.seek(c);
                    }
                }
                proptest::prop_assert_eq!(s.counter(), c);
            }
        }
    }
}
