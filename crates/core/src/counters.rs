//! Counter management for counter-mode memory encryption (paper §2.4).
//!
//! The state-of-the-art IV layout the paper assumes: a unique page id,
//! the page offset (block index in page), a per-block **minor** counter
//! incremented on every write of that block, and a per-page **major**
//! counter bumped (with all minors reset) when a minor overflows. The IV
//! feeds AES to produce the one-time pad for the block's data at rest.

use obfusmem_sim::hash::FoldMap;

/// Bytes per page for counter grouping (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// Blocks per page (64 per 4 KiB page at 64 B blocks).
pub const BLOCKS_PER_PAGE: usize = (PAGE_BYTES / 64) as usize;

/// Width of the minor counter in bits (7 bits in split-counter designs;
/// small so a counter block covering a page fits one cache block).
pub const MINOR_BITS: u32 = 7;

/// The IV for one block version, as fed to the AES engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockIv {
    /// Unique page id (block address / page size; unique across memory
    /// and swap in the paper's design).
    pub page_id: u64,
    /// Block offset within the page.
    pub page_offset: u32,
    /// Per-page major counter.
    pub major: u64,
    /// Per-block minor counter.
    pub minor: u32,
}

impl BlockIv {
    /// Packs the IV into the 16-byte AES input block.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.page_id.to_le_bytes());
        out[8] = self.page_offset as u8;
        out[9] = self.minor as u8;
        out[10..16].copy_from_slice(&self.major.to_le_bytes()[..6]);
        out
    }
}

/// Per-page counter record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PageCounters {
    major: u64,
    minors: [u8; BLOCKS_PER_PAGE],
}

impl Default for PageCounters {
    fn default() -> Self {
        PageCounters {
            major: 0,
            minors: [0; BLOCKS_PER_PAGE],
        }
    }
}

/// What a counter bump did — a major overflow forces re-encryption of the
/// whole page (all minors reset), which the memory-encryption engine must
/// account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BumpOutcome {
    /// Only the block's minor counter advanced.
    MinorAdvanced,
    /// The minor overflowed: major advanced, all minors reset, and the
    /// page's other blocks need re-encryption under their new IVs.
    MajorOverflow,
}

/// The counter store (the data the counter cache caches).
#[derive(Debug, Default)]
pub struct CounterStore {
    pages: FoldMap<u64, PageCounters>,
    major_overflows: u64,
}

impl CounterStore {
    /// An empty store (all counters zero).
    pub fn new() -> Self {
        Self::default()
    }

    fn locate(addr: u64) -> (u64, usize) {
        (addr / PAGE_BYTES, ((addr % PAGE_BYTES) / 64) as usize)
    }

    /// Current IV for the block at `addr` (for decryption).
    pub fn iv_of(&self, addr: u64) -> BlockIv {
        let (page_id, offset) = Self::locate(addr);
        let page = self.pages.get(&page_id);
        BlockIv {
            page_id,
            page_offset: offset as u32,
            major: page.map_or(0, |p| p.major),
            minor: page.map_or(0, |p| p.minors[offset] as u32),
        }
    }

    /// Advances the block's counter for a new write and returns the fresh
    /// IV plus whether a major overflow occurred.
    pub fn bump_for_write(&mut self, addr: u64) -> (BlockIv, BumpOutcome) {
        let (page_id, offset) = Self::locate(addr);
        let page = self.pages.entry(page_id).or_default();
        let outcome = if page.minors[offset] as u32 >= (1 << MINOR_BITS) - 1 {
            page.major += 1;
            page.minors = [0; BLOCKS_PER_PAGE];
            page.minors[offset] = 1;
            self.major_overflows += 1;
            BumpOutcome::MajorOverflow
        } else {
            page.minors[offset] += 1;
            BumpOutcome::MinorAdvanced
        };
        (
            BlockIv {
                page_id,
                page_offset: offset as u32,
                major: page.major,
                minor: page.minors[offset] as u32,
            },
            outcome,
        )
    }

    /// Major overflows seen (each implies a page re-encryption sweep).
    pub fn major_overflows(&self) -> u64 {
        self.major_overflows
    }

    /// Serializes a page's counters into its 64-byte counter block: an
    /// 8-byte major counter followed by 64 seven-bit minors packed into
    /// 56 bytes — the split-counter layout that makes one page's counters
    /// exactly one cache block (the reason the paper's counter cache can
    /// be a plain 64 B-block cache).
    pub fn page_block(&self, page_id: u64) -> [u8; 64] {
        let mut out = [0u8; 64];
        let Some(page) = self.pages.get(&page_id) else {
            return out;
        };
        out[..8].copy_from_slice(&page.major.to_le_bytes());
        for (i, &minor) in page.minors.iter().enumerate() {
            let bit = i * 7;
            let (byte, off) = (bit / 8, bit % 8);
            let v = (minor as u16 & 0x7F) << off;
            out[8 + byte] |= v as u8;
            if off > 1 {
                out[8 + byte + 1] |= (v >> 8) as u8;
            }
        }
        out
    }

    /// Restores a page's counters from a serialized counter block (the
    /// inverse of [`CounterStore::page_block`]) — what the hardware does
    /// after fetching a counter block from memory. The paper assumes a
    /// Merkle tree verifies that block; this repo does not model the tree.
    pub fn load_page_block(&mut self, page_id: u64, block: &[u8; 64]) {
        let mut page = PageCounters {
            major: u64::from_le_bytes(block[..8].try_into().expect("8 bytes")),
            minors: [0; BLOCKS_PER_PAGE],
        };
        for i in 0..BLOCKS_PER_PAGE {
            let bit = i * 7;
            let (byte, off) = (bit / 8, bit % 8);
            let mut v = (block[8 + byte] as u16) >> off;
            if off > 1 {
                v |= (block[8 + byte + 1] as u16) << (8 - off);
            }
            page.minors[i] = (v & 0x7F) as u8;
        }
        self.pages.insert(page_id, page);
    }

    /// Address of the 64 B *counter block* holding `addr`'s counters —
    /// what the counter cache is indexed by (one counter block per page).
    pub fn counter_block_addr(addr: u64) -> u64 {
        (addr / PAGE_BYTES) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    #[test]
    fn fresh_blocks_have_zero_counters() {
        let store = CounterStore::new();
        let iv = store.iv_of(0x1040);
        assert_eq!(iv.major, 0);
        assert_eq!(iv.minor, 0);
        assert_eq!(iv.page_id, 1);
        assert_eq!(iv.page_offset, 1);
    }

    #[test]
    fn writes_advance_minor() {
        let mut store = CounterStore::new();
        let (iv1, o1) = store.bump_for_write(0x40);
        let (iv2, o2) = store.bump_for_write(0x40);
        assert_eq!((iv1.minor, iv2.minor), (1, 2));
        assert_eq!(o1, BumpOutcome::MinorAdvanced);
        assert_eq!(o2, BumpOutcome::MinorAdvanced);
        assert_eq!(store.iv_of(0x40).minor, 2);
    }

    #[test]
    fn ivs_never_repeat_across_writes() {
        let mut store = CounterStore::new();
        let mut seen = std::collections::HashSet::new();
        // Push one block through two major overflows.
        for _ in 0..300 {
            let (iv, _) = store.bump_for_write(0x80);
            assert!(seen.insert(iv), "IV reuse at {iv:?}");
        }
        assert!(store.major_overflows() >= 2);
    }

    #[test]
    fn major_overflow_resets_sibling_minors() {
        let mut store = CounterStore::new();
        store.bump_for_write(0x40); // sibling in same page
        for _ in 0..((1 << MINOR_BITS) - 1) {
            store.bump_for_write(0x0);
        }
        // Next write to 0x0 overflows its minor.
        let (_, outcome) = store.bump_for_write(0x0);
        assert_eq!(outcome, BumpOutcome::MajorOverflow);
        let sibling = store.iv_of(0x40);
        assert_eq!(sibling.minor, 0, "sibling minors must reset");
        assert_eq!(sibling.major, 1, "sibling shares the bumped major");
    }

    #[test]
    fn different_blocks_have_different_ivs() {
        let store = CounterStore::new();
        assert_ne!(store.iv_of(0x0).to_bytes(), store.iv_of(0x40).to_bytes());
        assert_ne!(
            store.iv_of(0x0).to_bytes(),
            store.iv_of(PAGE_BYTES).to_bytes()
        );
    }

    #[test]
    fn counter_block_addresses_group_by_page() {
        assert_eq!(
            CounterStore::counter_block_addr(0),
            CounterStore::counter_block_addr(4095)
        );
        assert_ne!(
            CounterStore::counter_block_addr(0),
            CounterStore::counter_block_addr(4096)
        );
    }

    #[test]
    fn page_block_round_trips() {
        let mut store = CounterStore::new();
        // Drive one page's counters to interesting values.
        for i in 0..BLOCKS_PER_PAGE as u64 {
            for _ in 0..(i % 9) {
                store.bump_for_write(i * 64);
            }
        }
        let block = store.page_block(0);
        let mut restored = CounterStore::new();
        restored.load_page_block(0, &block);
        for i in 0..BLOCKS_PER_PAGE as u64 {
            assert_eq!(restored.iv_of(i * 64), store.iv_of(i * 64), "block {i}");
        }
    }

    #[test]
    fn page_block_of_untouched_page_is_zero() {
        let store = CounterStore::new();
        assert_eq!(store.page_block(7), [0u8; 64]);
    }

    proptest::proptest! {
        #[test]
        fn page_block_round_trips_arbitrary_counters(bumps in proptest::collection::vec(0u64..64, 0..200)) {
            let mut store = CounterStore::new();
            for b in bumps {
                store.bump_for_write(b * 64);
            }
            let block = store.page_block(0);
            let mut restored = CounterStore::new();
            restored.load_page_block(0, &block);
            for i in 0..BLOCKS_PER_PAGE as u64 {
                proptest::prop_assert_eq!(restored.iv_of(i * 64), store.iv_of(i * 64));
            }
        }

        #[test]
        fn iv_bytes_injective_on_fields(a: u64, b: u64) {
            let store = CounterStore::new();
            let (a, b) = (a % (1 << 30), b % (1 << 30));
            if a / 64 != b / 64 {
                proptest::prop_assert_ne!(store.iv_of(a).to_bytes(), store.iv_of(b).to_bytes());
            }
        }
    }
}
