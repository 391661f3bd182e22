//! Physical-address decomposition.
//!
//! Table 2 specifies **RoRaBaChCo** mapping: reading the physical address
//! from most- to least-significant bits gives Row | Rank | Bank | Channel |
//! Column. Putting the channel bits just above the column interleaves
//! consecutive row-buffer-sized chunks across channels — the property that
//! makes the *inter-channel* access pattern leak spatial information
//! (paper §3.4): an attacker who knows the interleaving granularity learns
//! address bits just by seeing which channel's pins wiggle.

use crate::config::MemConfig;

/// Supported address-interleaving schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// Row | Rank | Bank | Channel | Column (Table 2's scheme).
    #[default]
    RoRaBaChCo,
    /// Row | Bank | Rank | Column | Channel — block-granularity channel
    /// interleaving (channel bits at the very bottom, above the block
    /// offset). Used by the ablation benches.
    RoBaRaCoCh,
}

/// A decomposed physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Byte column within the row buffer.
    pub column: u64,
}

impl DecodedAddr {
    /// Flat bank identifier within the whole device.
    pub fn flat_bank(&self, cfg: &MemConfig) -> usize {
        (self.channel * cfg.ranks_per_channel + self.rank) * cfg.banks_per_rank + self.bank
    }
}

/// Decodes `addr` under `cfg`'s mapping.
///
/// Addresses beyond the configured capacity wrap (the simulator treats the
/// physical address space as a torus rather than faulting; workloads are
/// generated in range, but ciphertext-driven probes in the security tests
/// may produce arbitrary values).
pub fn decode(cfg: &MemConfig, addr: u64) -> DecodedAddr {
    // `MemConfig::try_validate` admits only power-of-two capacities (and
    // field widths, which the `trailing_zeros` below rely on too), so the
    // wrap is a mask.
    debug_assert!(cfg.capacity_bytes.is_power_of_two());
    let addr = addr & (cfg.capacity_bytes - 1);
    let col_bits = cfg.row_buffer_bytes.trailing_zeros();
    let ch_bits = cfg.channels.trailing_zeros();
    let ba_bits = cfg.banks_per_rank.trailing_zeros();
    let ra_bits = cfg.ranks_per_channel.trailing_zeros();
    match cfg.mapping {
        AddressMapping::RoRaBaChCo => {
            let mut a = addr;
            let column = take(&mut a, col_bits);
            let channel = take(&mut a, ch_bits) as usize;
            let bank = take(&mut a, ba_bits) as usize;
            let rank = take(&mut a, ra_bits) as usize;
            let row = a;
            DecodedAddr {
                channel,
                rank,
                bank,
                row,
                column,
            }
        }
        AddressMapping::RoBaRaCoCh => {
            let mut a = addr >> crate::request::BLOCK_BYTES.trailing_zeros();
            let block_off = addr & (crate::request::BLOCK_BYTES as u64 - 1);
            let channel = take(&mut a, ch_bits) as usize;
            let col_blocks = take(
                &mut a,
                col_bits - crate::request::BLOCK_BYTES.trailing_zeros(),
            );
            let rank = take(&mut a, ra_bits) as usize;
            let bank = take(&mut a, ba_bits) as usize;
            let row = a;
            DecodedAddr {
                channel,
                rank,
                bank,
                row,
                column: col_blocks * crate::request::BLOCK_BYTES as u64 + block_off,
            }
        }
    }
}

/// Splits the low `bits` off `addr`, shifting the remainder down.
///
/// Total over the full `bits` range: `bits == 0` returns 0 and leaves
/// `addr` untouched, `bits >= 64` consumes the whole value. The naive
/// `(1u64 << bits) - 1` mask is undefined for `bits >= 64` (and the old
/// `bits == 0` special case ran *after* the mask had already been
/// computed), so the mask is built with checked shifts instead.
pub(crate) fn take(addr: &mut u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let mask = match 1u64.checked_shl(bits) {
        Some(m) => m - 1,
        None => u64::MAX, // bits >= 64: the whole value
    };
    let v = *addr & mask;
    *addr = addr.checked_shr(bits).unwrap_or(0);
    v
}

/// Re-composes a [`DecodedAddr`] into the physical address it decodes
/// from — the exact inverse of [`decode`] for in-range fields. Property
/// tests use the round trip to prove decode injectivity on arbitrary
/// (including extreme) geometries.
pub fn encode(cfg: &MemConfig, d: &DecodedAddr) -> u64 {
    let col_bits = cfg.row_buffer_bytes.trailing_zeros();
    let ch_bits = cfg.channels.trailing_zeros();
    let ba_bits = cfg.banks_per_rank.trailing_zeros();
    let ra_bits = cfg.ranks_per_channel.trailing_zeros();
    match cfg.mapping {
        AddressMapping::RoRaBaChCo => {
            let mut a = d.row;
            a = (a << ra_bits) | d.rank as u64;
            a = (a << ba_bits) | d.bank as u64;
            a = (a << ch_bits) | d.channel as u64;
            (a << col_bits) | d.column
        }
        AddressMapping::RoBaRaCoCh => {
            let block_bits = crate::request::BLOCK_BYTES.trailing_zeros();
            let block_off = d.column & (crate::request::BLOCK_BYTES as u64 - 1);
            let col_blocks = d.column >> block_bits;
            let mut a = d.row;
            a = (a << ba_bits) | d.bank as u64;
            a = (a << ra_bits) | d.rank as u64;
            a = (a << (col_bits - block_bits)) | col_blocks;
            a = (a << ch_bits) | d.channel as u64;
            (a << block_bits) | block_off
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    #[test]
    fn rorabachco_fields_in_range() {
        let cfg = MemConfig::table2().with_channels(4);
        for addr in (0..(1u64 << 22)).step_by(4093) {
            let d = decode(&cfg, addr);
            assert!(d.channel < cfg.channels);
            assert!(d.rank < cfg.ranks_per_channel);
            assert!(d.bank < cfg.banks_per_rank);
            assert!(d.row < cfg.rows_per_bank());
            assert!(d.column < cfg.row_buffer_bytes);
        }
    }

    #[test]
    fn rorabachco_channel_interleaves_at_row_granularity() {
        let cfg = MemConfig::table2().with_channels(4);
        // Consecutive 1 KB chunks land on consecutive channels.
        assert_eq!(decode(&cfg, 0).channel, 0);
        assert_eq!(decode(&cfg, 1024).channel, 1);
        assert_eq!(decode(&cfg, 2048).channel, 2);
        assert_eq!(decode(&cfg, 3072).channel, 3);
        assert_eq!(decode(&cfg, 4096).channel, 0);
        // Within a chunk, the channel is constant.
        assert_eq!(decode(&cfg, 1023).channel, 0);
    }

    #[test]
    fn robaracoch_interleaves_at_block_granularity() {
        let cfg = MemConfig::table2()
            .with_channels(4)
            .with_mapping(AddressMapping::RoBaRaCoCh);
        assert_eq!(decode(&cfg, 0).channel, 0);
        assert_eq!(decode(&cfg, 64).channel, 1);
        assert_eq!(decode(&cfg, 128).channel, 2);
        assert_eq!(decode(&cfg, 192).channel, 3);
        assert_eq!(decode(&cfg, 256).channel, 0);
    }

    #[test]
    fn single_channel_everything_on_channel_zero() {
        let cfg = MemConfig::table2();
        for addr in [0u64, 64, 4096, 1 << 30] {
            assert_eq!(decode(&cfg, addr).channel, 0);
        }
    }

    #[test]
    fn same_row_same_bank() {
        let cfg = MemConfig::table2();
        let a = decode(&cfg, 0x10000);
        let b = decode(&cfg, 0x10000 + 64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.flat_bank(&cfg), b.flat_bank(&cfg));
        assert_ne!(a.column, b.column);
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let cfg = MemConfig::table2();
        let a = decode(&cfg, 0x40);
        let b = decode(&cfg, 0x40 + cfg.capacity_bytes);
        assert_eq!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn decode_is_injective_within_capacity(a in 0u64..(8u64 << 30), b in 0u64..(8u64 << 30)) {
            let cfg = MemConfig::table2().with_channels(2);
            if a != b {
                proptest::prop_assert_ne!(decode(&cfg, a), decode(&cfg, b));
            }
        }
    }

    #[test]
    fn take_is_total_over_bit_widths() {
        // bits == 0: nothing consumed, address untouched.
        let mut a = 0xDEAD_BEEF_u64;
        assert_eq!(take(&mut a, 0), 0);
        assert_eq!(a, 0xDEAD_BEEF);
        // bits == 64: the whole value, remainder zero. The old
        // `(1u64 << bits) - 1` mask was UB here.
        let mut a = u64::MAX;
        assert_eq!(take(&mut a, 64), u64::MAX);
        assert_eq!(a, 0);
        // bits > 64 behaves like 64.
        let mut a = 0x1234;
        assert_eq!(take(&mut a, 200), 0x1234);
        assert_eq!(a, 0);
        // Interior widths split cleanly.
        let mut a = 0xAB_CD;
        assert_eq!(take(&mut a, 8), 0xCD);
        assert_eq!(a, 0xAB);
    }

    /// Every power-of-two geometry this sweep visits includes degenerate
    /// axes (one channel, one rank, one bank, minimal 64 B row buffer)
    /// and the full-capacity single-bank extreme where the row field
    /// swallows nearly all 33 address bits.
    fn extreme_configs() -> Vec<MemConfig> {
        let mut cfgs = Vec::new();
        for mapping in [AddressMapping::RoRaBaChCo, AddressMapping::RoBaRaCoCh] {
            for (ch, ra, ba, rb) in [
                (1usize, 1usize, 1usize, 64u64),
                (8, 1, 1, 64),
                (1, 4, 16, 1024),
                (8, 4, 16, 8192),
                (2, 2, 8, 1024),
            ] {
                let mut c = MemConfig::table2();
                c.channels = ch;
                c.ranks_per_channel = ra;
                c.banks_per_rank = ba;
                c.row_buffer_bytes = rb;
                c.mapping = mapping;
                c.validate();
                cfgs.push(c);
            }
        }
        cfgs
    }

    proptest::proptest! {
        #[test]
        fn encode_inverts_decode_on_extreme_geometries(a in 0u64..) {
            for cfg in extreme_configs() {
                let addr = a % cfg.capacity_bytes;
                let d = decode(&cfg, addr);
                proptest::prop_assert!(d.channel < cfg.channels);
                proptest::prop_assert!(d.rank < cfg.ranks_per_channel);
                proptest::prop_assert!(d.bank < cfg.banks_per_rank);
                proptest::prop_assert!(d.row < cfg.rows_per_bank());
                proptest::prop_assert!(d.column < cfg.row_buffer_bytes);
                proptest::prop_assert_eq!(encode(&cfg, &d), addr);
            }
        }
    }
}
