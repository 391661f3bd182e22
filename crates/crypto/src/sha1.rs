//! SHA-1 message digest (FIPS 180-1).
//!
//! The paper names SHA-1 as an alternative one-way hash for the
//! communication MAC (§3.5); we provide it so the MAC scheme is pluggable,
//! and use it as the KDF inside the boot-time Diffie–Hellman exchange.
//!
//! # Example
//!
//! ```
//! use obfusmem_crypto::sha1::Sha1;
//!
//! let d = Sha1::digest(b"abc");
//! assert_eq!(obfusmem_crypto::md5::to_hex(&d),
//!            "a9993e364706816aba3e25717850c26c9cd0d89d");
//! ```

/// SHA-1 output size in bytes.
pub const DIGEST_LEN: usize = 20;

/// Incremental SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the FIPS 180-1 initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Applies padding and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buffer_len;
        self.buffer[n..].fill(0);
        self.buffer[n] = 0x80;
        if n >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(&self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The SHA-1 block function, unrolled: every step's round function
    /// and constant are fixed at compile time, and the message schedule
    /// rolls through 16 words (`w[i & 15]` is overwritten by `w[i]` once
    /// `w[i - 16]` has been read).
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w: [u32; 16] = std::array::from_fn(|i| {
            u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ])
        });
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        macro_rules! round {
            ($f:expr, $k:expr; $($i:literal)+) => {$(
                if $i >= 16 {
                    w[$i & 15] = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15]
                        ^ w[$i & 15])
                        .rotate_left(1);
                }
                let t = a
                    .rotate_left(5)
                    .wrapping_add($f(b, c, d))
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add(w[$i & 15]);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = t;
            )+};
        }
        // Ch is a bit select, written as `d ^ (b & (c ^ d))`.
        round!(|b: u32, c: u32, d: u32| d ^ (b & (c ^ d)), 0x5A82_7999;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
        round!(|b: u32, c: u32, d: u32| b ^ c ^ d, 0x6ED9_EBA1;
            20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
        round!(|b: u32, c: u32, d: u32| (b & c) | (d & (b | c)), 0x8F1B_BCDC;
            40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
        round!(|b: u32, c: u32, d: u32| b ^ c ^ d, 0xCA62_C1D6;
            60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::to_hex;
    use obfusmem_testkit as proptest;

    /// The textbook block function: the whole 80-word schedule expanded
    /// up front and the round picked per step. The unrolled `compress`
    /// must match it.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5A827999),
                1 => (b ^ c ^ d, 0x6ED9EBA1u32),
                2 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    #[test]
    fn fips180_vectors() {
        assert_eq!(
            to_hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            to_hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            to_hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // 55 bytes pad into one block, 56 spill into a second.
        assert_eq!(
            to_hex(&Sha1::digest(&[b'a'; 55])),
            "c1c8bbdc22796e28c0e15163d20899b65621d65a"
        );
        assert_eq!(
            to_hex(&Sha1::digest(&[b'a'; 56])),
            "c2db330f6083854c99d4b5bfb6e8f29f201be699"
        );
    }

    proptest::proptest! {
        #[test]
        fn split_point_does_not_change_digest(data: Vec<u8>, split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        #[test]
        fn unrolled_compress_matches_reference(state: [u32; 5], block: [u8; 64]) {
            let mut h = Sha1 { state, ..Sha1::new() };
            h.compress(&block);
            let mut reference = state;
            compress_reference(&mut reference, &block);
            proptest::prop_assert_eq!(h.state, reference);
        }

        #[test]
        fn different_inputs_rarely_collide(a: Vec<u8>, b: Vec<u8>) {
            if a != b {
                proptest::prop_assert_ne!(Sha1::digest(&a), Sha1::digest(&b));
            }
        }
    }
}
