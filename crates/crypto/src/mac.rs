//! Message authentication codes for bus-command integrity (paper §3.5).
//!
//! ObfusMem authenticates each memory request with a lightweight MAC. Two
//! constructions are modelled:
//!
//! * **encrypt-and-MAC** — the tag is computed over the *plaintext*
//!   request fields plus the channel counter, `β = H(r ‖ a ‖ c)`, so tag
//!   generation overlaps with request encryption (the paper's choice;
//!   Observation 4). Binding the counter gives replay/drop/reorder
//!   detection for free.
//! * **encrypt-then-MAC** — the tag is computed over the ciphertext
//!   message, `α = H(M)`, which serializes MAC generation after encryption
//!   (higher latency, covers the data bytes directly).
//!
//! Both use a keyed hash: `H(k ‖ pad ‖ msg ‖ k)` with MD5 or SHA-1 as the
//! inner digest. An HMAC-strength construction is unnecessary here — the
//! attacker never observes a (message, tag) pair whose message they can
//! choose, because messages are counter-mode ciphertexts — but we keep the
//! key at both ends to rule out trivial forgery.

use crate::md5::{self, Md5};
use crate::sha1::Sha1;

/// Truncated MAC tag carried next to each bus message (64 bits, matching
/// the "lightweight MAC function is sufficient" argument of §3.5).
pub type Tag = [u8; 8];

/// The one-way hash a [`MacEngine`] uses internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacHash {
    /// MD5 — the paper's implemented choice (64-stage pipelined core).
    #[default]
    Md5,
    /// SHA-1 — the alternative the paper mentions.
    Sha1,
}

/// A keyed MAC shared by the two ends of a channel.
#[derive(Clone)]
pub struct MacEngine {
    key: [u8; 16],
    hash: MacHash,
}

impl std::fmt::Debug for MacEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacEngine")
            .field("hash", &self.hash)
            .finish_non_exhaustive()
    }
}

impl MacEngine {
    /// Creates an engine from the channel session key.
    pub fn new(key: [u8; 16], hash: MacHash) -> Self {
        MacEngine { key, hash }
    }

    /// Computes the tag over `parts` (concatenated with length framing so
    /// `("ab","c")` and `("a","bc")` cannot collide).
    ///
    /// This is the generic streaming path and the reference every
    /// fixed-layout tag below must match byte for byte.
    pub fn tag(&self, parts: &[&[u8]]) -> Tag {
        match self.hash {
            MacHash::Md5 => {
                let mut h = Md5::new();
                self.absorb(|d| h.update(d), parts);
                truncate(&h.finalize())
            }
            MacHash::Sha1 => {
                let mut h = Sha1::new();
                self.absorb(|d| h.update(d), parts);
                truncate(&h.finalize())
            }
        }
    }

    fn absorb(&self, mut update: impl FnMut(&[u8]), parts: &[&[u8]]) {
        update(&self.key);
        for part in parts {
            update(&(part.len() as u64).to_le_bytes());
            update(part);
        }
        update(&self.key);
    }

    /// The keyed, framed MD5 message of one command, written at fixed
    /// offsets and padded: key ‖ 1 ‖ r ‖ 8 ‖ a ‖ 8 ‖ c ‖ key (73 bytes,
    /// each length a little-endian u64), the 0x80 marker, and the bit
    /// length in the last eight bytes of the second block.
    #[inline(always)]
    fn command_message(&self, (r, a, c): (u8, u64, u64)) -> [[u8; 64]; 2] {
        let mut blocks = [[0u8; 64]; 2];
        let m = blocks.as_flattened_mut();
        m[..16].copy_from_slice(&self.key);
        m[16..24].copy_from_slice(&1u64.to_le_bytes());
        m[24] = r;
        m[25..33].copy_from_slice(&8u64.to_le_bytes());
        m[33..41].copy_from_slice(&a.to_le_bytes());
        m[41..49].copy_from_slice(&8u64.to_le_bytes());
        m[49..57].copy_from_slice(&c.to_le_bytes());
        m[57..73].copy_from_slice(&self.key);
        m[73] = 0x80;
        m[120..].copy_from_slice(&(73u64 * 8).to_le_bytes());
        blocks
    }

    /// The keyed, framed MD5 message of one read reply, written at fixed
    /// offsets and padded: key ‖ 5 ‖ "reply" ‖ 8 ‖ c ‖ 64 ‖ ct ‖ key
    /// (133 bytes), the 0x80 marker, and the bit length in the last eight
    /// bytes of the third block.
    #[inline(always)]
    fn reply_message(&self, counter: u64, ct: &[u8; 64]) -> [[u8; 64]; 3] {
        let mut blocks = [[0u8; 64]; 3];
        let m = blocks.as_flattened_mut();
        m[..16].copy_from_slice(&self.key);
        m[16..24].copy_from_slice(&5u64.to_le_bytes());
        m[24..29].copy_from_slice(b"reply");
        m[29..37].copy_from_slice(&8u64.to_le_bytes());
        m[37..45].copy_from_slice(&counter.to_le_bytes());
        m[45..53].copy_from_slice(&64u64.to_le_bytes());
        m[53..117].copy_from_slice(ct);
        m[117..133].copy_from_slice(&self.key);
        m[133] = 0x80;
        m[184..].copy_from_slice(&(133u64 * 8).to_le_bytes());
        blocks
    }

    /// Computes the encrypt-and-MAC tag `β = H(r ‖ a ‖ c)` over the
    /// plaintext request type, address, and channel counter.
    pub fn command_tag(&self, request_type: u8, address: u64, counter: u64) -> Tag {
        let [tag] = self.command_tags([(request_type, address, counter)]);
        tag
    }

    /// [`command_tag`](MacEngine::command_tag) for `N` commands at once —
    /// a request and its dummy are one two-lane pass. With MD5 each
    /// message has a fixed 73-byte, two-block layout (key ‖ len ‖ r ‖
    /// len ‖ a ‖ len ‖ c ‖ key), built on the stack and hashed with the
    /// `N` lanes' MD5 rounds interleaved.
    pub fn command_tags<const N: usize>(&self, commands: [(u8, u64, u64); N]) -> [Tag; N] {
        match self.hash {
            MacHash::Md5 => {
                let messages = commands.map(|command| self.command_message(command));
                md5::digest_padded(&messages).map(|d| truncate(&d))
            }
            MacHash::Sha1 => {
                commands.map(|(r, a, c)| self.tag(&[&[r], &a.to_le_bytes(), &c.to_le_bytes()]))
            }
        }
    }

    /// Computes a read reply's tag `H("reply" ‖ c ‖ ct)` over the reply
    /// ciphertext and the pair's base counter. With MD5 the 133-byte
    /// message has a fixed three-block layout built on the stack.
    pub fn reply_tag(&self, counter: u64, ct: &[u8; 64]) -> Tag {
        match self.hash {
            MacHash::Md5 => {
                let [digest] = md5::digest_padded(&[self.reply_message(counter, ct)]);
                truncate(&digest)
            }
            MacHash::Sha1 => self.tag(&[b"reply", &counter.to_le_bytes(), ct]),
        }
    }

    /// Verifies a tag in constant-shape fashion (full compare, no early
    /// exit at the first byte).
    pub fn verify(&self, parts: &[&[u8]], tag: &Tag) -> bool {
        tags_equal(&self.tag(parts), tag)
    }
}

/// Compares two tags without an early exit: every byte is folded in, so
/// the compare's shape does not depend on where the tags first differ.
pub fn tags_equal(a: &Tag, b: &Tag) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

fn truncate(digest: &[u8]) -> Tag {
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&digest[..8]);
    tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::to_hex;
    use obfusmem_testkit as proptest;

    fn engine(hash: MacHash) -> MacEngine {
        MacEngine::new([0x42; 16], hash)
    }

    #[test]
    fn tag_is_deterministic() {
        for hash in [MacHash::Md5, MacHash::Sha1] {
            let e = engine(hash);
            assert_eq!(e.command_tag(1, 0x40, 7), e.command_tag(1, 0x40, 7));
        }
    }

    #[test]
    fn counter_binds_the_tag() {
        let e = engine(MacHash::Md5);
        assert_ne!(e.command_tag(1, 0x40, 7), e.command_tag(1, 0x40, 8));
    }

    #[test]
    fn type_and_address_bind_the_tag() {
        let e = engine(MacHash::Md5);
        let base = e.command_tag(0, 0x1000, 1);
        assert_ne!(base, e.command_tag(1, 0x1000, 1));
        assert_ne!(base, e.command_tag(0, 0x1040, 1));
    }

    #[test]
    fn keys_bind_the_tag() {
        let a = MacEngine::new([1; 16], MacHash::Md5);
        let b = MacEngine::new([2; 16], MacHash::Md5);
        assert_ne!(a.command_tag(0, 0x40, 0), b.command_tag(0, 0x40, 0));
    }

    #[test]
    fn length_framing_prevents_boundary_collisions() {
        let e = engine(MacHash::Sha1);
        assert_ne!(e.tag(&[b"ab", b"c"]), e.tag(&[b"a", b"bc"]));
        assert_ne!(e.tag(&[b"", b"x"]), e.tag(&[b"x", b""]));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let e = engine(MacHash::Md5);
        let tag = e.tag(&[b"hello"]);
        assert!(e.verify(&[b"hello"], &tag));
        assert!(!e.verify(&[b"hellO"], &tag));
        let mut bad = tag;
        bad[7] ^= 1;
        assert!(!e.verify(&[b"hello"], &bad));
    }

    /// Tag bytes recorded from the generic streaming path: whatever the
    /// kernel underneath, these are what goes on the bus.
    #[test]
    fn known_answer_tags() {
        let md5 = MacEngine::new([3; 16], MacHash::Md5);
        let sha1 = MacEngine::new([3; 16], MacHash::Sha1);
        let ct: [u8; 64] = std::array::from_fn(|i| i as u8);
        assert_eq!(
            to_hex(&md5.command_tag(0, 0xDEAD_BEC0, 1234)),
            "b36df1b64e5d2386"
        );
        assert_eq!(to_hex(&md5.reply_tag(77, &ct)), "4a7696af73ea6cef");
        assert_eq!(
            to_hex(&sha1.command_tag(0, 0xDEAD_BEC0, 1234)),
            "d419bbcf34213534"
        );
    }

    #[test]
    fn tags_equal_compares_every_byte() {
        let tag = [7u8; 8];
        assert!(tags_equal(&tag, &tag));
        for i in 0..8 {
            let mut other = tag;
            other[i] ^= 0x80;
            assert!(!tags_equal(&tag, &other));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn fixed_layout_tags_match_generic(
            key: [u8; 16], r: [u8; 2], addr: [u64; 2], ctr: u64, ct: [u8; 64], sha1: bool
        ) {
            let e = MacEngine::new(key, if sha1 { MacHash::Sha1 } else { MacHash::Md5 });
            let generic = |r: u8, a: u64, c: u64| {
                e.tag(&[&[r], &a.to_le_bytes(), &c.to_le_bytes()])
            };
            let pair = e.command_tags([(r[0], addr[0], ctr), (r[1], addr[1], ctr.wrapping_add(1))]);
            proptest::prop_assert_eq!(
                pair,
                [generic(r[0], addr[0], ctr), generic(r[1], addr[1], ctr.wrapping_add(1))]
            );
            proptest::prop_assert_eq!(e.command_tag(r[0], addr[0], ctr), pair[0]);
            proptest::prop_assert_eq!(
                e.reply_tag(ctr, &ct),
                e.tag(&[b"reply", &ctr.to_le_bytes(), &ct])
            );
        }

        #[test]
        fn any_single_bitflip_detected(r in 0u8..2, addr: u64, ctr: u64, bit in 0usize..64) {
            let e = engine(MacHash::Md5);
            let tag = e.command_tag(r, addr, ctr);
            let flipped = addr ^ (1 << bit);
            proptest::prop_assert_ne!(tag, e.command_tag(r, flipped, ctr));
        }
    }
}
