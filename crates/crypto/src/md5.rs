//! MD5 message digest (RFC 1321).
//!
//! The paper uses a 64-stage pipelined MD5 core as the lightweight MAC
//! function for command authentication (§3.5): collision resistance is not
//! required because the attacker never sees the MAC inputs in plaintext,
//! only the counter-bound tag. The MAC construction is in [`crate::mac`];
//! this module is the bare digest.
//!
//! # Example
//!
//! ```
//! use obfusmem_crypto::md5::Md5;
//!
//! let digest = Md5::digest(b"abc");
//! assert_eq!(obfusmem_crypto::md5::to_hex(&digest),
//!            "900150983cd24fb0d6963f7d28e17f72");
//! ```

/// MD5 output size in bytes.
pub const DIGEST_LEN: usize = 16;

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 hasher.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Md5::new();
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
        self.buffer[56..].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buffer;
        self.compress(&block);
        state_to_digest(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_n(std::array::from_mut(&mut self.state), [block]);
    }
}

/// RFC 1321 initial chaining state.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Message-word index of each of the 64 steps.
const G: [usize; 64] = {
    let mut g = [0usize; 64];
    let mut i = 0;
    while i < 64 {
        g[i] = match i / 16 {
            0 => i,
            1 => (5 * i + 1) % 16,
            2 => (3 * i + 5) % 16,
            _ => (7 * i) % 16,
        };
        i += 1;
    }
    g
};

/// One MD5 step on `[a, b, c, d]` with round function value `f`,
/// returning the rotated register file `[d, b', b, c]`.
#[inline(always)]
fn step([a, b, c, d]: [u32; 4], f: u32, i: usize, m: &[u32; 16]) -> [u32; 4] {
    let t = a
        .wrapping_add(f)
        .wrapping_add(K[i])
        .wrapping_add(m[G[i]])
        .rotate_left(S[i]);
    [d, b.wrapping_add(t), b, c]
}

/// The MD5 block function, run over `N` independent lanes at once.
///
/// Lane `l` compresses `blocks[l]` into `states[l]`. The 64 steps of
/// every lane are interleaved step by step, so the lanes' serial
/// dependency chains overlap in the CPU pipeline: two lanes cost little
/// more than one. `N = 1` is the plain block function the streaming
/// [`Md5`] hasher uses.
#[inline(always)]
pub(crate) fn compress_n<const N: usize>(states: &mut [[u32; 4]; N], blocks: [&[u8; 64]; N]) {
    let m: [[u32; 16]; N] = blocks.map(|block| {
        std::array::from_fn(|i| {
            u32::from_le_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ])
        })
    });
    let mut v = *states;
    // Fully unrolled so every step's K, S and message index are
    // constants and each lane's registers stay in registers.
    macro_rules! round {
        ($f:expr; $($i:literal)+) => {$(
            for l in 0..N {
                let [_, b, c, d] = v[l];
                v[l] = step(v[l], $f(b, c, d), $i, &m[l]);
            }
        )+};
    }
    // F and G are bit selects, written as `x ^ (sel & (y ^ x))`.
    round!(|b: u32, c: u32, d: u32| d ^ (b & (c ^ d)); 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    round!(|b: u32, c: u32, d: u32| c ^ (d & (b ^ c)); 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);
    round!(|b: u32, c: u32, d: u32| b ^ c ^ d; 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47);
    round!(|b: u32, c: u32, d: u32| c ^ (b | !d); 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63);
    for (state, v) in states.iter_mut().zip(v) {
        for (s, v) in state.iter_mut().zip(v) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Digests `N` messages already padded to `B` blocks each (the 0x80
/// marker, zeros, and the little-endian bit length in the last eight
/// bytes), one [`compress_n`] lane per message.
#[inline]
pub(crate) fn digest_padded<const N: usize, const B: usize>(
    messages: &[[[u8; 64]; B]; N],
) -> [[u8; DIGEST_LEN]; N] {
    let mut states = [INIT; N];
    // `b` is the block index within every lane's message, not a walk
    // over `messages` itself.
    #[allow(clippy::needless_range_loop)]
    for b in 0..B {
        compress_n(&mut states, std::array::from_fn(|l| &messages[l][b]));
    }
    states.map(|state| state_to_digest(&state))
}

fn state_to_digest(state: &[u32; 4]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Renders a digest as lowercase hex.
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn hex(data: &[u8]) -> String {
        to_hex(&Md5::digest(data))
    }

    /// Pads the `len`-byte message at the front of `buf` in place: the
    /// 0x80 marker after it and its bit length in the last eight bytes.
    fn pad_in_place(buf: &mut [u8], len: usize) {
        buf[len] = 0x80;
        let end = buf.len();
        buf[end - 8..].copy_from_slice(&(len as u64 * 8).to_le_bytes());
    }

    #[test]
    fn rfc1321_test_suite() {
        assert_eq!(hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(b"a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(hex(b"message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
        assert_eq!(
            hex(b"abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hex(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut h = Md5::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Md5::digest(&data));
    }

    #[test]
    fn padding_boundary_lengths() {
        // 55 bytes pad into one block; 56 and 64 spill into a second.
        assert_eq!(hex(&[b'a'; 55]), "ef1772b6dff9a122358552954ad0df65");
        assert_eq!(hex(&[b'a'; 56]), "3b0c8ac703f828b04c6c197006d17218");
        assert_eq!(hex(&[b'a'; 64]), "014842d480b571495a4a0363793f7367");
    }

    proptest::proptest! {
        #[test]
        fn split_point_does_not_change_digest(data: Vec<u8>, split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), Md5::digest(&data));
        }

        #[test]
        fn two_lanes_match_two_single_lanes(
            s0: [u32; 4], s1: [u32; 4], b0: [u8; 64], b1: [u8; 64]
        ) {
            let mut pair = [s0, s1];
            compress_n(&mut pair, [&b0, &b1]);
            let (mut one, mut two) = ([s0], [s1]);
            compress_n(&mut one, [&b0]);
            compress_n(&mut two, [&b1]);
            proptest::prop_assert_eq!(pair, [one[0], two[0]]);
        }

        #[test]
        fn padded_lanes_match_streaming_digest(a: [u8; 73], b: [u8; 73]) {
            let mut msgs = [[[0u8; 64]; 2]; 2];
            for (msg, data) in msgs.iter_mut().zip([a, b]) {
                let buf = msg.as_flattened_mut();
                buf[..73].copy_from_slice(&data);
                pad_in_place(buf, 73);
            }
            proptest::prop_assert_eq!(digest_padded(&msgs), [Md5::digest(&a), Md5::digest(&b)]);
        }
    }
}
