//! AES-128 block cipher (FIPS-197).
//!
//! This is the cipher ObfusMem's bus-encryption engines run in counter
//! mode. The paper synthesizes a pipelined AES-128 core (24-cycle latency
//! at a 4 ns cycle time, one 128-bit pad per cycle); the *latency model*
//! for that pipeline lives in `obfusmem-core`, while this module provides
//! the actual transformation so the simulated bus carries real ciphertext.
//!
//! Two implementations share one key schedule:
//!
//! * **Wide-block** (default): the constant-time engine in
//!   [`crate::bitslice`] — AES-NI where the CPU has it, the portable
//!   bitsliced kernel everywhere else. Every encryption entry point
//!   ([`Aes128::encrypt_block`], [`Aes128::encrypt_blocks`],
//!   [`Aes128::ctr_blocks`]) routes here unless the oracle is forced.
//! * **Scalar**: the byte-oriented rendering of the specification, kept as
//!   the readable reference implementation and as the differential-testing
//!   oracle. Select it per-instance with [`Aes128::new_scalar`] or
//!   process-wide with [`set_force_scalar`]. [`Aes128::decrypt_block`]
//!   always runs it: no measured path decrypts.
//!
//! The two paths are bit-identical by construction and the test suite
//! enforces it on the FIPS-197 and SP 800-38A vectors and thousands of
//! random blocks, on every tier the CPU supports; a whole Figure 4 sweep
//! with the scalar path forced must match the default bit for bit
//! (`tests/fig4_bit_identity.rs`).
//!
//! # Example
//!
//! ```
//! use obfusmem_crypto::aes::Aes128;
//!
//! let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
//! let aes = Aes128::new(&key);
//! let pt = *b"0123456789abcdef";
//! let ct = aes.encrypt_block(&pt);
//! assert_eq!(aes.decrypt_block(&ct), pt);
//! ```

use crate::bitslice::{self, SlicedKeys};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// A 128-bit block.
pub type Block = [u8; 16];

/// AES forward S-box.
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// AES inverse S-box.
pub const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply in GF(2^8) with the AES polynomial x^8 + x^4 + x^3 + x + 1.
#[inline]
const fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// Process-wide switch forcing every *subsequently constructed* `Aes128`
/// onto the scalar reference path. Existing instances are unaffected.
///
/// Meant for end-to-end differential tests (`tests/fig4_bit_identity.rs`
/// runs a whole Figure 4 sweep on the scalar path and on the default);
/// production code should never touch it.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or releases) the scalar reference path for ciphers constructed
/// after this call. Testing only: production code should never call it.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// True when [`set_force_scalar`] is in effect for new instances.
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::SeqCst)
}

thread_local! {
    static KEY_EXPANSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of key-schedule expansions performed *by the calling thread*
/// since it started. Lets tests assert that hot paths reuse an expanded
/// schedule instead of re-deriving it per call.
pub fn key_expansions_this_thread() -> u64 {
    KEY_EXPANSIONS.with(|c| c.get())
}

/// An expanded AES-128 key schedule.
///
/// Construction expands the 16-byte key into 11 round keys once, plus
/// their bit-plane transposition for the wide-block engine; encrypting and
/// decrypting blocks then borrows the schedule immutably, so a single
/// `Aes128` can be shared by every request on a channel. Cloning copies the expanded
/// schedule without re-deriving it.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    /// Round keys pre-transposed into the bitsliced bit-plane layout for
    /// the wide-block engine.
    sliced: SlicedKeys,
    use_scalar: bool,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately do not print key material.
        f.debug_struct("Aes128").field("rounds", &10u32).finish()
    }
}

impl Drop for Aes128 {
    /// Key hygiene: an expanded schedule is equivalent to the key itself
    /// (the first round key *is* the key), so scrub it before the memory
    /// is reused. Session teardown and re-key both route through here.
    fn drop(&mut self) {
        self.zeroize();
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_impl(key, scalar_forced())
    }

    /// Expands `key` and pins this instance to the scalar reference
    /// implementation (differential testing / benchmarking).
    pub fn new_scalar(key: &[u8; 16]) -> Self {
        Self::with_impl(key, true)
    }

    fn with_impl(key: &[u8; 16], use_scalar: bool) -> Self {
        KEY_EXPANSIONS.with(|c| c.set(c.get() + 1));
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 {
            round_keys,
            sliced: SlicedKeys::expand(&round_keys),
            use_scalar,
        }
    }

    /// True when this instance runs the scalar reference path.
    pub fn is_scalar(&self) -> bool {
        self.use_scalar
    }

    /// The expanded round keys as raw bytes (round 0 is the key itself).
    /// Crate-internal: the wide-block engine's hardware tier consumes them
    /// directly.
    pub(crate) fn round_key_bytes(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Scrubs the expanded schedule in place. Called by `Drop`; exposed
    /// so owners that keep an `Aes128` inside a longer-lived struct can
    /// retire a key early.
    pub fn zeroize(&mut self) {
        // Volatile stores keep the compiler from eliding the scrub as a
        // dead write into soon-to-be-freed memory.
        for rk in self.round_keys.iter_mut() {
            for b in rk.iter_mut() {
                unsafe { std::ptr::write_volatile(b, 0) };
            }
        }
        for round in self.sliced.0.iter_mut() {
            for w in round.iter_mut() {
                unsafe { std::ptr::write_volatile(w, 0) };
            }
        }
        std::sync::atomic::compiler_fence(Ordering::SeqCst);
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, plaintext: &Block) -> Block {
        let mut block = [*plaintext];
        self.encrypt_blocks(&mut block);
        block[0]
    }

    /// Encrypts a run of blocks in place. On the default path this is one
    /// wide-block pass per eight blocks through the constant-time engine in
    /// [`crate::bitslice`]; the scalar oracle falls back to a straight-line
    /// per-block loop.
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        if self.use_scalar {
            for b in blocks {
                *b = self.encrypt_block_scalar(b);
            }
        } else {
            bitslice::encrypt_blocks_wide(&self.sliced, self.round_key_bytes(), blocks);
        }
    }

    /// Generates CTR keystream blocks for counters
    /// `counter .. counter + out.len()` under the IV layout
    /// `nonce (8B, BE) || counter (8B, BE)`, overwriting `out`.
    ///
    /// The wide path packs the counters straight into the bitsliced state
    /// without materializing IV bytes; the scalar oracle builds the IVs
    /// explicitly and encrypts per block. Counters wrap modulo 2^64.
    pub fn ctr_blocks(&self, nonce: u64, counter: u64, out: &mut [Block]) {
        if self.use_scalar {
            for (i, block) in out.iter_mut().enumerate() {
                block[..8].copy_from_slice(&nonce.to_be_bytes());
                block[8..].copy_from_slice(&counter.wrapping_add(i as u64).to_be_bytes());
            }
            self.encrypt_blocks(out);
        } else {
            bitslice::ctr_blocks_wide(&self.sliced, self.round_key_bytes(), nonce, counter, out);
        }
    }

    /// Encrypts one block with the byte-oriented reference implementation
    /// (the differential-testing oracle; identical output to
    /// [`Aes128::encrypt_block`]).
    pub fn encrypt_block_scalar(&self, plaintext: &Block) -> Block {
        let mut state = *plaintext;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[10]);
        state
    }

    /// Decrypts one 16-byte block with the byte-oriented reference
    /// implementation, on every instance: the ECB strawman's header parse
    /// is the only caller, and no table, figure or benchmark reaches it.
    pub fn decrypt_block(&self, ciphertext: &Block) -> Block {
        let mut state = *ciphertext;
        add_round_key(&mut state, &self.round_keys[10]);
        for round in (1..10).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

// State layout: state[4*c + r] is row r, column c (column-major, matching
// the byte order of FIPS-197 inputs).

#[inline]
fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut Block) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut Block) {
    for s in state.iter_mut() {
        *s = INV_SBOX[*s as usize];
    }
}

#[inline]
fn shift_rows(state: &mut Block) {
    let copy = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = copy[4 * ((c + r) % 4) + r];
        }
    }
}

#[inline]
fn inv_shift_rows(state: &mut Block) {
    let copy = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = copy[4 * c + r];
        }
    }
}

#[inline]
fn mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

#[inline]
fn inv_mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] =
            gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        state[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        state[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        state[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// Asserts a known-answer vector on both implementations, both
    /// directions.
    fn assert_kat(key: &str, pt: &str, ct: &str) {
        let (key, pt, ct) = (hex16(key), hex16(pt), hex16(ct));
        let fast = Aes128::new(&key);
        let slow = Aes128::new_scalar(&key);
        assert!(!fast.is_scalar());
        assert!(slow.is_scalar());
        assert_eq!(fast.encrypt_block(&pt), ct);
        assert_eq!(slow.encrypt_block(&pt), ct);
        assert_eq!(fast.decrypt_block(&ct), pt);
        assert_eq!(slow.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_appendix_b() {
        assert_kat(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    #[test]
    fn fips197_appendix_c1() {
        assert_kat(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn sp800_38a_ecb_aes128_vectors() {
        // NIST SP 800-38A, F.1.1/F.1.2 (ECB-AES128), all four blocks.
        let key = "2b7e151628aed2a6abf7158809cf4f3c";
        assert_kat(
            key,
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        );
        assert_kat(
            key,
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "f5d3d58503b9699de785895a96fdbaaf",
        );
        assert_kat(
            key,
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "43b1cd7f598ece23881b00e3ed030688",
        );
        assert_kat(
            key,
            "f69f2445df4f9b17ad2b417be66c3710",
            "7b0c785e27e8ad3f8223207104725dd4",
        );
    }

    /// Single-block differential on every tier the CPU supports: the
    /// public `encrypt_block` (active tier) and one-block passes pinned to
    /// each tier must all equal the scalar oracle, and decryption must
    /// invert them.
    #[test]
    fn wide_matches_scalar_on_10k_random_blocks() {
        // SplitMix64-style deterministic generator: no RNG dependency.
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut block16 = move || {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&next().to_le_bytes());
            b[8..].copy_from_slice(&next().to_le_bytes());
            b
        };
        let tiers = bitslice::all_supported_tiers();
        let mut fast = Aes128::new(&block16());
        let mut slow = Aes128::new_scalar(&[0; 16]);
        for i in 0..10_000u32 {
            if i % 64 == 0 {
                let key = block16();
                fast = Aes128::new(&key);
                slow = Aes128::new_scalar(&key);
            }
            let pt = block16();
            let ct = slow.encrypt_block(&pt);
            assert_eq!(fast.encrypt_block(&pt), ct, "encrypt diverged at {i}");
            for &tier in &tiers {
                let mut one = [pt];
                bitslice::encrypt_blocks_on(tier, &fast.sliced, &fast.round_keys, &mut one);
                assert_eq!(one[0], ct, "tier {} diverged at {i}", tier.name());
            }
            assert_eq!(fast.decrypt_block(&ct), pt, "decrypt at {i}");
        }
    }

    #[test]
    fn encrypt_blocks_matches_single_block_calls() {
        let aes = Aes128::new(&[0x42; 16]);
        let mut batch: [Block; 6] = core::array::from_fn(|i| [i as u8; 16]);
        let expected: Vec<Block> = batch.iter().map(|b| aes.encrypt_block(b)).collect();
        aes.encrypt_blocks(&mut batch);
        assert_eq!(batch.to_vec(), expected);
    }

    /// The public batch entry points against the scalar oracle's own
    /// batch paths: ragged lengths around the eight-block pass, and a
    /// counter run that wraps u64.
    #[test]
    fn batch_entry_points_match_scalar_oracle() {
        let key = [0x5C; 16];
        let (fast, slow) = (Aes128::new(&key), Aes128::new_scalar(&key));
        for len in [1usize, 7, 8, 9, 17, 33] {
            let plain: Vec<Block> = (0..len).map(|i| [(i * 37) as u8; 16]).collect();
            let (mut got, mut want) = (plain.clone(), plain);
            fast.encrypt_blocks(&mut got);
            slow.encrypt_blocks(&mut want);
            assert_eq!(got, want, "encrypt_blocks len {len}");

            let (mut got, mut want) = (vec![[0u8; 16]; len], vec![[0u8; 16]; len]);
            fast.ctr_blocks(0xFEED, u64::MAX - 4, &mut got);
            slow.ctr_blocks(0xFEED, u64::MAX - 4, &mut want);
            assert_eq!(got, want, "ctr_blocks len {len}");
        }
    }

    #[test]
    fn key_expansion_counter_counts_constructions() {
        let before = key_expansions_this_thread();
        let _a = Aes128::new(&[1; 16]);
        let _b = Aes128::new_scalar(&[2; 16]);
        let _c = _a.clone(); // clones must NOT re-expand
        assert_eq!(key_expansions_this_thread() - before, 2);
    }

    #[test]
    fn inverse_sbox_is_inverse() {
        for b in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[b as usize] as usize], b);
        }
    }

    #[test]
    fn shift_rows_round_trips() {
        let mut state: Block = core::array::from_fn(|i| i as u8);
        let original = state;
        shift_rows(&mut state);
        assert_ne!(state, original);
        inv_shift_rows(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn mix_columns_round_trips() {
        let mut state: Block = core::array::from_fn(|i| (31 * i + 7) as u8);
        let original = state;
        mix_columns(&mut state);
        assert_ne!(state, original);
        inv_mix_columns(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn gmul_matches_known_products() {
        // From the FIPS-197 MixColumns example arithmetic.
        assert_eq!(gmul(0x57, 0x02), 0xae);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(0x01, 0xd4), 0xd4);
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let pt = [0u8; 16];
        let a = Aes128::new(&[1u8; 16]).encrypt_block(&pt);
        let b = Aes128::new(&[2u8; 16]).encrypt_block(&pt);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0xAB; 16]);
        let s = format!("{aes:?}");
        assert!(
            !s.contains("ab"),
            "debug output must not contain key bytes: {s}"
        );
    }

    fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn drop_scrubs_key_schedule_byte_image() {
        // A recognizable key that will not appear in the image by chance.
        let key: [u8; 16] = [
            0xC1, 0x0C, 0xF8, 0x5C, 0x4B, 0xA9, 0x17, 0x3E, 0xD2, 0x60, 0x8F, 0x75, 0xE4, 0x2A,
            0x9D, 0x33,
        ];
        let mut slot = std::mem::ManuallyDrop::new(Aes128::new(&key));
        let ptr = (&*slot as *const Aes128).cast::<u8>();
        let len = std::mem::size_of::<Aes128>();
        let before: Vec<u8> = unsafe { std::slice::from_raw_parts(ptr, len) }.to_vec();
        assert!(
            contains_subslice(&before, &key),
            "round key 0 is the raw key; it must be visible pre-drop"
        );
        unsafe { std::mem::ManuallyDrop::drop(&mut slot) };
        let after: Vec<u8> = unsafe { std::slice::from_raw_parts(ptr, len) }.to_vec();
        assert!(
            !contains_subslice(&after, &key),
            "raw key survived drop in the struct byte image"
        );
        // Stronger: no 4-byte run of any expanded round key survives.
        let mut zeros = 0usize;
        for chunk in after.chunks(4) {
            if chunk.iter().all(|&b| b == 0) {
                zeros += 1;
            }
        }
        // 11 byte-wise round keys plus 11 sliced rounds of 8 u64 words.
        assert!(
            zeros >= (16 * 11 + 11 * 8 * 8) / 4,
            "expanded schedule not scrubbed: only {zeros} zero words"
        );
    }

    proptest::proptest! {
        #[test]
        fn encrypt_decrypt_round_trip(key: [u8; 16], pt: [u8; 16]) {
            let aes = Aes128::new(&key);
            proptest::prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
        }

        #[test]
        fn encryption_is_a_permutation(key: [u8; 16], a: [u8; 16], b: [u8; 16]) {
            let aes = Aes128::new(&key);
            proptest::prop_assert_eq!(a == b, aes.encrypt_block(&a) == aes.encrypt_block(&b));
        }

        #[test]
        fn wide_and_scalar_agree(key: [u8; 16], pt: [u8; 16]) {
            let fast = Aes128::new(&key);
            let slow = Aes128::new_scalar(&key);
            let ct = fast.encrypt_block(&pt);
            proptest::prop_assert_eq!(slow.encrypt_block(&pt), ct);
            proptest::prop_assert_eq!(fast.decrypt_block(&ct), pt);
        }
    }
}
