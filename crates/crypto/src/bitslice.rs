//! Constant-time wide-block AES-128 engine: a portable bitsliced kernel
//! plus AES-NI.
//!
//! The scalar oracle in [`crate::aes`] processes one 16-byte block at a time
//! through S-box lookups. This module is the fast path every
//! [`Aes128`](crate::aes::Aes128) encryption takes by default, in one of
//! two tiers picked once by CPUID:
//!
//! * [`Tier::HwAes`]: an 8-deep interleaved `AESENC` pipeline, constant-time
//!   in hardware.
//! * [`Tier::Sliced2`]: the classic `aes_ct64` bit-orthogonal layout,
//!   everywhere else. The 128 bits of four AES blocks are transposed into
//!   eight 64-bit *bit-plane* registers, the S-box becomes a 113-gate
//!   boolean circuit (Boyar–Peralta), and ShiftRows/MixColumns become
//!   mask-and-shift permutations. Each plane is held as `W = 2` parallel
//!   registers (`L`), so one pass encrypts eight blocks. Every executed
//!   instruction sequence is independent of both key and data: the path is
//!   constant-time by construction, which matters because the memory
//!   encryption engine sits next to an attacker-observable bus.
//!
//! The tier is detected once per process ([`active_tier`]); tests call
//! `encrypt_blocks_on` / `ctr_blocks_on` with an explicit tier instead.
//!
//! Counter-mode blocks never materialize IV bytes on the sliced tier: the
//! nonce contributes two constant little-endian words and the big-endian
//! counter contributes two byte-swapped words, which are packed straight
//! into the bit-plane registers (`pack_ctr`). Round keys are pre-transposed
//! once per key schedule into `SlicedKeys` — packing is a GF(2)-linear bit
//! permutation, so `pack(state) ^ pack(rk)` equals `pack(state ^ rk)` and
//! AddRoundKey is eight XORs per round.

use crate::aes::Block;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shl, Shr};
use std::sync::OnceLock;

/// Parallel 64-bit registers per bit plane in the portable kernel.
const W: usize = 2;

/// Blocks either tier consumes in one pass (four per bit-plane register).
pub const MAX_BATCH: usize = 4 * W;

// ---------------------------------------------------------------------------
// Lane: W parallel 64-bit bit-plane registers.
// ---------------------------------------------------------------------------

/// `W` parallel copies of one 64-bit bit-plane register.
///
/// Every operation is branch-free and element-wise: the constant-time
/// argument for the engine rests on lanes never inspecting their contents.
#[derive(Clone, Copy)]
struct L([u64; W]);

impl L {
    #[inline(always)]
    fn splat(v: u64) -> Self {
        L([v; W])
    }

    /// Rotate each 64-bit element right by `n`: 16 moves every state row
    /// down one row position in the bit-plane layout, 32 moves it two.
    #[inline(always)]
    fn rotr(self, n: u32) -> Self {
        L(self.0.map(|v| v.rotate_right(n)))
    }

    /// ShiftRows on one bit-plane register: each 64-bit element is 4 rows
    /// × 16 bits, each row 4 column nibbles; row `r` rotates left by `r`
    /// columns.
    #[inline(always)]
    fn shift_rows_reg(self) -> Self {
        (self & L::splat(0x0000_0000_0000_FFFF))
            | ((self & L::splat(0x0000_0000_FFF0_0000)) >> 4)
            | ((self & L::splat(0x0000_0000_000F_0000)) << 12)
            | ((self & L::splat(0x0000_FF00_0000_0000)) >> 8)
            | ((self & L::splat(0x0000_00FF_0000_0000)) << 8)
            | ((self & L::splat(0xF000_0000_0000_0000)) >> 12)
            | ((self & L::splat(0x0FFF_0000_0000_0000)) << 4)
    }
}

impl BitXor for L {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (a, b) in out.iter_mut().zip(rhs.0) {
            *a ^= b;
        }
        L(out)
    }
}

impl BitAnd for L {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (a, b) in out.iter_mut().zip(rhs.0) {
            *a &= b;
        }
        L(out)
    }
}

impl BitOr for L {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (a, b) in out.iter_mut().zip(rhs.0) {
            *a |= b;
        }
        L(out)
    }
}

impl Not for L {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        L(self.0.map(|v| !v))
    }
}

impl Shl<u32> for L {
    type Output = Self;
    #[inline(always)]
    fn shl(self, s: u32) -> Self {
        L(self.0.map(|v| v << s))
    }
}

impl Shr<u32> for L {
    type Output = Self;
    #[inline(always)]
    fn shr(self, s: u32) -> Self {
        L(self.0.map(|v| v >> s))
    }
}

// ---------------------------------------------------------------------------
// Packing: byte blocks <-> bit-plane registers.
// ---------------------------------------------------------------------------

/// Spread four 32-bit words (one per block group position, zero-extended in
/// each lane element) into the two interleaved 64-bit halves of the
/// byte-transposed layout.
#[inline(always)]
fn interleave_in(x: [L; 4]) -> (L, L) {
    let m16 = L::splat(0x0000_FFFF_0000_FFFF);
    let m8 = L::splat(0x00FF_00FF_00FF_00FF);
    let spread = |v: L| {
        let v = (v | (v << 16)) & m16;
        (v | (v << 8)) & m8
    };
    let x0 = spread(x[0]);
    let x1 = spread(x[1]);
    let x2 = spread(x[2]);
    let x3 = spread(x[3]);
    (x0 | (x2 << 8), x1 | (x3 << 8))
}

/// Inverse of [`interleave_in`]: recover the four 32-bit words (zero-extended
/// per lane element).
#[inline(always)]
fn interleave_out(q0: L, q1: L) -> [L; 4] {
    let m16 = L::splat(0x0000_FFFF_0000_FFFF);
    let m8 = L::splat(0x00FF_00FF_00FF_00FF);
    let lo16 = L::splat(0x0000_0000_0000_FFFF);
    let hi16 = L::splat(0x0000_0000_FFFF_0000);
    let squeeze = move |v: L| {
        let v = (v | (v >> 8)) & m16;
        // Fold the 16-bit chunks at bits 0..16 and 32..48 into one 32-bit
        // word per element (the chunk at 32..48 lands at 16..32).
        (v & lo16) | ((v >> 16) & hi16)
    };
    [
        squeeze(q0 & m8),
        squeeze(q1 & m8),
        squeeze((q0 >> 8) & m8),
        squeeze((q1 >> 8) & m8),
    ]
}

/// Bit-orthogonalize the eight registers (self-inverse): before `ortho`,
/// register `i` holds bytes of the four blocks interleaved; after, register
/// `i` holds bit `i` of every state byte.
#[inline(always)]
fn ortho(q: &mut [L; 8]) {
    #[inline(always)]
    fn swapn(cl: u64, ch: u64, s: u32, q: &mut [L; 8], x: usize, y: usize) {
        let a = q[x];
        let b = q[y];
        let cl = L::splat(cl);
        let ch = L::splat(ch);
        q[x] = (a & cl) | ((b & cl) << s);
        q[y] = ((a & ch) >> s) | (b & ch);
    }

    swapn(0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, 1, q, 0, 1);
    swapn(0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, 1, q, 2, 3);
    swapn(0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, 1, q, 4, 5);
    swapn(0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, 1, q, 6, 7);

    swapn(0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC, 2, q, 0, 2);
    swapn(0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC, 2, q, 1, 3);
    swapn(0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC, 2, q, 4, 6);
    swapn(0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC, 2, q, 5, 7);

    swapn(0x0F0F_0F0F_0F0F_0F0F, 0xF0F0_F0F0_F0F0_F0F0, 4, q, 0, 4);
    swapn(0x0F0F_0F0F_0F0F_0F0F, 0xF0F0_F0F0_F0F0_F0F0, 4, q, 1, 5);
    swapn(0x0F0F_0F0F_0F0F_0F0F, 0xF0F0_F0F0_F0F0_F0F0, 4, q, 2, 6);
    swapn(0x0F0F_0F0F_0F0F_0F0F, 0xF0F0_F0F0_F0F0_F0F0, 4, q, 3, 7);
}

/// Pack [`MAX_BATCH`] byte blocks into bit-plane registers. Block `4*j + p`
/// (`j` = lane element, `p` = group position) lands in lane element `j`.
#[inline(always)]
fn pack_blocks(blocks: &[Block]) -> [L; 8] {
    debug_assert_eq!(blocks.len(), MAX_BATCH);
    let mut q = [L::splat(0); 8];
    for p in 0..4 {
        let mut x = [L::splat(0); 4];
        for j in 0..W {
            let blk = &blocks[4 * j + p];
            for (k, xk) in x.iter_mut().enumerate() {
                let w = u32::from_le_bytes([
                    blk[4 * k],
                    blk[4 * k + 1],
                    blk[4 * k + 2],
                    blk[4 * k + 3],
                ]);
                xk.0[j] = w as u64;
            }
        }
        let (a, b) = interleave_in(x);
        q[p] = a;
        q[p + 4] = b;
    }
    ortho(&mut q);
    q
}

/// Pack the CTR-mode input blocks for counters `counter .. counter +
/// MAX_BATCH` directly into bit-plane registers, without materializing IV
/// bytes. The IV layout matches `CtrStream`: 8 bytes big-endian nonce, then
/// 8 bytes big-endian counter — as little-endian words that is two constant
/// (splat) words from the nonce and two byte-swapped counter halves.
#[inline(always)]
fn pack_ctr(nonce: u64, counter: u64) -> [L; 8] {
    let w0 = L::splat(((nonce >> 32) as u32).swap_bytes() as u64);
    let w1 = L::splat((nonce as u32).swap_bytes() as u64);
    let mut q = [L::splat(0); 8];
    for p in 0..4 {
        let mut w2 = L::splat(0);
        let mut w3 = L::splat(0);
        for j in 0..W {
            let c = counter.wrapping_add((4 * j + p) as u64);
            w2.0[j] = ((c >> 32) as u32).swap_bytes() as u64;
            w3.0[j] = (c as u32).swap_bytes() as u64;
        }
        let (a, b) = interleave_in([w0, w1, w2, w3]);
        q[p] = a;
        q[p + 4] = b;
    }
    ortho(&mut q);
    q
}

/// Unpack bit-plane registers back into [`MAX_BATCH`] byte blocks.
#[inline(always)]
fn unpack_blocks(q: &[L; 8], out: &mut [Block]) {
    debug_assert_eq!(out.len(), MAX_BATCH);
    let mut q = *q;
    ortho(&mut q);
    for p in 0..4 {
        let x = interleave_out(q[p], q[p + 4]);
        for j in 0..W {
            let blk = &mut out[4 * j + p];
            for (k, xk) in x.iter().enumerate() {
                blk[4 * k..4 * k + 4].copy_from_slice(&(xk.0[j] as u32).to_le_bytes());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Round primitives on the sliced state.
// ---------------------------------------------------------------------------

/// The AES S-box as a 113-gate boolean circuit (Boyar & Peralta, "A new
/// combinational logic minimization technique with applications to
/// cryptology"), applied to all `64 * W` state bytes at once. Input/output
/// convention follows BearSSL's `aes_ct64`: `x0 = q[7]` is the
/// most-significant bit plane.
#[inline(always)]
fn sbox(q: &mut [L; 8]) {
    let x0 = q[7];
    let x1 = q[6];
    let x2 = q[5];
    let x3 = q[4];
    let x4 = q[3];
    let x5 = q[2];
    let x6 = q[1];
    let x7 = q[0];

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;
    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;
    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    q[7] = s0;
    q[6] = s1;
    q[5] = s2;
    q[4] = s3;
    q[3] = s4;
    q[2] = s5;
    q[1] = s6;
    q[0] = s7;
}

/// ShiftRows on every bit plane.
#[inline(always)]
fn shift_rows(q: &mut [L; 8]) {
    for x in q.iter_mut() {
        *x = x.shift_rows_reg();
    }
}

/// MixColumns expressed on bit planes: `r_i` is the state rotated down one
/// row; the GF(2^8) doubling folds the reduction polynomial (0x1b → planes
/// 0, 1, 3, 4) as XORs of plane 7.
#[inline(always)]
fn mix_columns(q: &mut [L; 8]) {
    let q0 = q[0];
    let q1 = q[1];
    let q2 = q[2];
    let q3 = q[3];
    let q4 = q[4];
    let q5 = q[5];
    let q6 = q[6];
    let q7 = q[7];
    let r0 = q0.rotr(16);
    let r1 = q1.rotr(16);
    let r2 = q2.rotr(16);
    let r3 = q3.rotr(16);
    let r4 = q4.rotr(16);
    let r5 = q5.rotr(16);
    let r6 = q6.rotr(16);
    let r7 = q7.rotr(16);

    q[0] = q7 ^ r7 ^ r0 ^ (q0 ^ r0).rotr(32);
    q[1] = q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ (q1 ^ r1).rotr(32);
    q[2] = q1 ^ r1 ^ r2 ^ (q2 ^ r2).rotr(32);
    q[3] = q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ (q3 ^ r3).rotr(32);
    q[4] = q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ (q4 ^ r4).rotr(32);
    q[5] = q4 ^ r4 ^ r5 ^ (q5 ^ r5).rotr(32);
    q[6] = q5 ^ r5 ^ r6 ^ (q6 ^ r6).rotr(32);
    q[7] = q6 ^ r6 ^ r7 ^ (q7 ^ r7).rotr(32);
}

#[inline(always)]
fn add_round_key(q: &mut [L; 8], rk: &[u64; 8]) {
    for (qi, k) in q.iter_mut().zip(rk) {
        *qi = *qi ^ L::splat(*k);
    }
}

/// Full AES-128 encryption on a packed state.
#[inline(always)]
fn encrypt_sliced(rk: &[[u64; 8]; 11], q: &mut [L; 8]) {
    add_round_key(q, &rk[0]);
    for k in &rk[1..10] {
        sbox(q);
        shift_rows(q);
        mix_columns(q);
        add_round_key(q, k);
    }
    sbox(q);
    shift_rows(q);
    add_round_key(q, &rk[10]);
}

// ---------------------------------------------------------------------------
// Pre-sliced round keys.
// ---------------------------------------------------------------------------

/// Round keys transposed into the bit-plane layout, computed once per key
/// schedule. Each round key is replicated across the four group positions
/// and packed exactly like a block batch; because the packing permutation is
/// GF(2)-linear, XOR-ing these against a packed state is AddRoundKey. Every
/// lane element holds the same 8 words, so one element is stored and
/// splatted back per round.
#[derive(Clone, Copy)]
pub(crate) struct SlicedKeys(pub(crate) [[u64; 8]; 11]);

impl SlicedKeys {
    pub(crate) fn expand(round_keys: &[[u8; 16]; 11]) -> Self {
        let mut out = [[0u64; 8]; 11];
        for (dst, rk) in out.iter_mut().zip(round_keys) {
            let w: [L; 4] = std::array::from_fn(|i| {
                let bytes = [rk[4 * i], rk[4 * i + 1], rk[4 * i + 2], rk[4 * i + 3]];
                L::splat(u32::from_le_bytes(bytes) as u64)
            });
            let (a, b) = interleave_in(w);
            let mut q = [a, a, a, a, b, b, b, b];
            ortho(&mut q);
            for (d, l) in dst.iter_mut().zip(q) {
                *d = l.0[0];
            }
        }
        SlicedKeys(out)
    }
}

// ---------------------------------------------------------------------------
// Hardware tier.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Block;

    /// 8-deep interleaved AES-NI pipeline over any number of blocks.
    /// Constant-time in hardware; the interleaving hides the ~4-cycle
    /// `AESENC` latency behind its 1-per-cycle throughput.
    ///
    /// # Safety
    /// Caller must ensure AES-NI and SSE2 are available.
    #[target_feature(enable = "aes", enable = "sse2")]
    pub(super) unsafe fn encrypt_blocks_aesni(rk: &[[u8; 16]; 11], blocks: &mut [Block]) {
        use std::arch::x86_64::*;

        let mut k = [_mm_setzero_si128(); 11];
        for (kr, rkr) in k.iter_mut().zip(rk) {
            *kr = _mm_loadu_si128(rkr.as_ptr().cast());
        }
        let mut chunks = blocks.chunks_exact_mut(8);
        for ch in &mut chunks {
            let mut s = [_mm_setzero_si128(); 8];
            for (si, b) in s.iter_mut().zip(ch.iter()) {
                *si = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), k[0]);
            }
            for kr in &k[1..10] {
                for si in s.iter_mut() {
                    *si = _mm_aesenc_si128(*si, *kr);
                }
            }
            for (si, b) in s.iter_mut().zip(ch.iter_mut()) {
                *si = _mm_aesenclast_si128(*si, k[10]);
                _mm_storeu_si128(b.as_mut_ptr().cast(), *si);
            }
        }
        for b in chunks.into_remainder() {
            let mut s = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), k[0]);
            for kr in &k[1..10] {
                s = _mm_aesenc_si128(s, *kr);
            }
            s = _mm_aesenclast_si128(s, k[10]);
            _mm_storeu_si128(b.as_mut_ptr().cast(), s);
        }
    }
}

// ---------------------------------------------------------------------------
// Tier detection and dispatch.
// ---------------------------------------------------------------------------

/// One execution tier of the wide-block engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Portable bitsliced kernel on `[u64; 2]` lanes: 8 blocks per pass.
    /// Always available, pure integer arithmetic.
    Sliced2,
    /// Hardware AES-NI, 8-deep interleaved pipeline.
    HwAes,
}

impl Tier {
    /// Stable short name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Sliced2 => "sliced2",
            Tier::HwAes => "hw-aes",
        }
    }
}

/// Whether `tier` can run on this CPU.
pub fn supported(tier: Tier) -> bool {
    match tier {
        Tier::Sliced2 => true,
        #[cfg(target_arch = "x86_64")]
        Tier::HwAes => {
            std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("sse2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        Tier::HwAes => false,
    }
}

/// Best supported tier (hardware AES wins when present).
pub fn detect_best() -> Tier {
    if supported(Tier::HwAes) {
        Tier::HwAes
    } else {
        Tier::Sliced2
    }
}

/// The tier every wide-engine call runs on: [`detect_best`], detected
/// once per process.
pub fn active_tier() -> Tier {
    static DETECTED: OnceLock<Tier> = OnceLock::new();
    *DETECTED.get_or_init(detect_best)
}

/// Encrypt an arbitrary number of blocks in place on the active tier.
pub(crate) fn encrypt_blocks_wide(keys: &SlicedKeys, rk: &[[u8; 16]; 11], blocks: &mut [Block]) {
    encrypt_blocks_on(active_tier(), keys, rk, blocks);
}

/// Generate keystream blocks for counters `counter .. counter + out.len()`
/// on the active tier.
pub(crate) fn ctr_blocks_wide(
    keys: &SlicedKeys,
    rk: &[[u8; 16]; 11],
    nonce: u64,
    counter: u64,
    out: &mut [Block],
) {
    ctr_blocks_on(active_tier(), keys, rk, nonce, counter, out);
}

/// Encrypt an arbitrary number of blocks in place on `tier`. A trailing
/// partial batch on the sliced tier is padded through a scratch buffer so
/// the kernel only ever sees full batches. Zero-length input is a no-op.
///
/// # Panics
/// If `tier` is not [`supported`] on this CPU.
pub(crate) fn encrypt_blocks_on(
    tier: Tier,
    keys: &SlicedKeys,
    rk: &[[u8; 16]; 11],
    blocks: &mut [Block],
) {
    if blocks.is_empty() {
        return;
    }
    assert!(supported(tier), "tier {} is not supported", tier.name());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::HwAes {
        // SAFETY: the assert above confirmed AES-NI and SSE2; the
        // intrinsic path handles any block count itself.
        unsafe { x86::encrypt_blocks_aesni(rk, blocks) };
        return;
    }
    let _ = rk;
    let mut chunks = blocks.chunks_exact_mut(MAX_BATCH);
    for ch in &mut chunks {
        encrypt_batch(keys, ch);
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let mut scratch = [[0u8; 16]; MAX_BATCH];
        scratch[..rem.len()].copy_from_slice(rem);
        encrypt_batch(keys, &mut scratch);
        rem.copy_from_slice(&scratch[..rem.len()]);
    }
}

/// Generate keystream blocks for counters `counter .. counter + out.len()`
/// on `tier`; the sliced tier packs counters straight into its state.
/// Counters wrap modulo 2^64. Zero-length output is a no-op.
///
/// # Panics
/// If `tier` is not [`supported`] on this CPU.
pub(crate) fn ctr_blocks_on(
    tier: Tier,
    keys: &SlicedKeys,
    rk: &[[u8; 16]; 11],
    nonce: u64,
    counter: u64,
    out: &mut [Block],
) {
    if out.is_empty() {
        return;
    }
    assert!(supported(tier), "tier {} is not supported", tier.name());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::HwAes {
        // Hardware AES consumes IV bytes directly: write the counter blocks
        // into the output and encrypt in place.
        for (i, block) in out.iter_mut().enumerate() {
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.wrapping_add(i as u64).to_be_bytes());
        }
        // SAFETY: the assert above confirmed AES-NI and SSE2.
        unsafe { x86::encrypt_blocks_aesni(rk, out) };
        return;
    }
    let _ = rk;
    let mut c = counter;
    let mut chunks = out.chunks_exact_mut(MAX_BATCH);
    for ch in &mut chunks {
        ctr_batch(keys, nonce, c, ch);
        c = c.wrapping_add(MAX_BATCH as u64);
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let mut scratch = [[0u8; 16]; MAX_BATCH];
        ctr_batch(keys, nonce, c, &mut scratch);
        rem.copy_from_slice(&scratch[..rem.len()]);
    }
}

#[inline(always)]
fn encrypt_batch(keys: &SlicedKeys, blocks: &mut [Block]) {
    let mut q = pack_blocks(blocks);
    encrypt_sliced(&keys.0, &mut q);
    unpack_blocks(&q, blocks);
}

#[inline(always)]
fn ctr_batch(keys: &SlicedKeys, nonce: u64, counter: u64, out: &mut [Block]) {
    let mut q = pack_ctr(nonce, counter);
    encrypt_sliced(&keys.0, &mut q);
    unpack_blocks(&q, out);
}

/// Every tier this CPU runs. Tests pass each one explicitly, since
/// [`active_tier`] only ever runs the best one.
#[cfg(test)]
pub(crate) fn all_supported_tiers() -> Vec<Tier> {
    [Tier::Sliced2, Tier::HwAes]
        .into_iter()
        .filter(|&t| supported(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn block(&mut self) -> Block {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&self.next().to_be_bytes());
            b[8..].copy_from_slice(&self.next().to_be_bytes());
            b
        }
    }

    #[test]
    fn fips197_vector_on_every_tier() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let pt: Block = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let ct: Block = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let cipher = Aes128::new(&key);
        let keys = SlicedKeys::expand(cipher.round_key_bytes());
        for tier in all_supported_tiers() {
            let mut blocks = [pt; MAX_BATCH];
            encrypt_blocks_on(tier, &keys, cipher.round_key_bytes(), &mut blocks);
            for b in &blocks {
                assert_eq!(b, &ct, "tier {}", tier.name());
            }
        }
    }

    #[test]
    fn every_tier_matches_scalar_on_random_blocks_and_odd_lengths() {
        let mut rng = SplitMix64(0xB175_11CE);
        let key = rng.block();
        let cipher = Aes128::new(&key);
        let oracle = Aes128::new_scalar(&key);
        let keys = SlicedKeys::expand(cipher.round_key_bytes());
        for len in [1usize, 2, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100] {
            let plain: Vec<Block> = (0..len).map(|_| rng.block()).collect();
            let expect: Vec<Block> = plain.iter().map(|b| oracle.encrypt_block(b)).collect();
            for tier in all_supported_tiers() {
                let mut got = plain.clone();
                encrypt_blocks_on(tier, &keys, cipher.round_key_bytes(), &mut got);
                assert_eq!(got, expect, "tier {} len {}", tier.name(), len);
                let back: Vec<Block> = got.iter().map(|c| cipher.decrypt_block(c)).collect();
                assert_eq!(back, plain, "decrypt, tier {} len {}", tier.name(), len);
            }
        }
    }

    #[test]
    fn ctr_packing_matches_scalar_ivs_on_every_tier() {
        let mut rng = SplitMix64(0xC0DE_C0DE);
        let key = rng.block();
        let cipher = Aes128::new(&key);
        let oracle = Aes128::new_scalar(&key);
        let keys = SlicedKeys::expand(cipher.round_key_bytes());
        // Counters that carry into the high word and wrap u64.
        let cases: [(u64, u64); 5] = [
            (rng.next(), 0),
            (rng.next(), 0xFFFF_FFFD),
            (rng.next(), rng.next()),
            (0, u64::MAX - 3),
            (u64::MAX, 7),
        ];
        for (nonce, counter) in cases {
            for len in [1usize, 6, 8, 13, 32, 50] {
                let mut expect = vec![[0u8; 16]; len];
                for (i, b) in expect.iter_mut().enumerate() {
                    b[..8].copy_from_slice(&nonce.to_be_bytes());
                    b[8..].copy_from_slice(&counter.wrapping_add(i as u64).to_be_bytes());
                    *b = oracle.encrypt_block(b);
                }
                for tier in all_supported_tiers() {
                    let mut got = vec![[0u8; 16]; len];
                    ctr_blocks_on(
                        tier,
                        &keys,
                        cipher.round_key_bytes(),
                        nonce,
                        counter,
                        &mut got,
                    );
                    assert_eq!(got, expect, "tier {} len {}", tier.name(), len);
                }
            }
        }
    }

    #[test]
    fn zero_length_requests_do_not_panic() {
        let cipher = Aes128::new(&[0u8; 16]);
        let keys = SlicedKeys::expand(cipher.round_key_bytes());
        for tier in all_supported_tiers() {
            encrypt_blocks_on(tier, &keys, cipher.round_key_bytes(), &mut []);
            ctr_blocks_on(tier, &keys, cipher.round_key_bytes(), 1, 2, &mut []);
        }
    }

    #[test]
    fn ortho_is_an_involution() {
        let mut rng = SplitMix64(7);
        let orig: [L; 8] = std::array::from_fn(|_| L([rng.next(), rng.next()]));
        let mut q = orig;
        ortho(&mut q);
        ortho(&mut q);
        for (a, b) in q.iter().zip(orig.iter()) {
            assert_eq!(a.0, b.0);
        }
    }

    /// Rough keystream throughput per tier; run with
    /// `cargo test -p obfusmem-crypto --release throughput_probe -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn throughput_probe() {
        let cipher = Aes128::new(&[0x42; 16]);
        let keys = SlicedKeys::expand(cipher.round_key_bytes());
        let mut out = vec![[0u8; 16]; 256];
        for tier in all_supported_tiers() {
            let iters = 3000usize;
            let start = std::time::Instant::now();
            let mut acc = 0u8;
            for i in 0..iters {
                ctr_blocks_on(
                    tier,
                    &keys,
                    cipher.round_key_bytes(),
                    7,
                    (i * out.len()) as u64,
                    &mut out,
                );
                acc ^= out[out.len() - 1][15];
            }
            let secs = start.elapsed().as_secs_f64();
            let gbps = (iters * out.len() * 16) as f64 / secs / 1e9;
            println!("{:>8}: {gbps:.3} GB/s (acc {acc})", tier.name());
        }
    }

    #[test]
    fn pack_unpack_round_trips() {
        let mut rng = SplitMix64(99);
        let blocks: Vec<Block> = (0..MAX_BATCH).map(|_| rng.block()).collect();
        let q = pack_blocks(&blocks);
        let mut out = vec![[0u8; 16]; MAX_BATCH];
        unpack_blocks(&q, &mut out);
        assert_eq!(blocks, out);
    }
}
