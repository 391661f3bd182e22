//! Recursive position maps (Freecursive-ORAM style).
//!
//! Paper §6.1: Path ORAM's obfuscation "is predicated on … PosMap content
//! being secret. PosMap secrecy and random initialization require
//! additional mechanisms, such as memory encryption, or placing it on a
//! separate ORAM." This module implements the latter: the data ORAM's
//! position map is packed into 64-byte blocks (16 leaf entries each) and
//! stored in a smaller Path ORAM, whose own map recurses again until it
//! fits on chip.
//!
//! Each logical access then walks the chain top-down — every level is a
//! full path read/evict — which is exactly the access-count amplification
//! that made recursive ORAM expensive and motivated PosMap-lookaside
//! optimizations in the literature. [`RecursiveOram::metrics_chain`]
//! exposes the amplification so the trade-off is measurable.

use obfusmem_mem::request::BlockData;
use obfusmem_sim::rng::SplitMix64;

use crate::path_oram::{OramConfig, PathOram};
use crate::OramError;

/// Leaf entries per 64-byte position-map block (u32 little-endian).
pub const ENTRIES_PER_BLOCK: u64 = 16;

/// Number of map entries at and below which the map stays on chip.
pub const ON_CHIP_LIMIT: u64 = 256;

/// The Freecursive-style position-map recursion chain implied by a data
/// geometry: each level packs [`ENTRIES_PER_BLOCK`] leaf labels per
/// 64-byte block, keeps its tree at most half full, and the chain shrinks
/// 16× per level until the outermost map fits [`ON_CHIP_LIMIT`].
/// Innermost (largest) level first; empty when the data map itself fits
/// on chip. [`RecursiveOram`] stores these levels; the timed controllers
/// in [`crate::codesign`] charge their paths.
pub fn posmap_chain(cfg: &OramConfig) -> Vec<OramConfig> {
    let mut chain = Vec::new();
    let mut map_entries = cfg.blocks;
    while map_entries > ON_CHIP_LIMIT {
        let map_blocks = map_entries.div_ceil(ENTRIES_PER_BLOCK);
        let levels = (64 - (map_blocks / 2).max(1).leading_zeros()).max(3);
        chain.push(OramConfig {
            levels,
            bucket_size: 4,
            blocks: map_blocks,
        });
        map_entries = map_blocks;
    }
    chain
}

fn get_entry(block: &BlockData, slot: u64) -> u64 {
    let i = slot as usize * 4;
    // Slots come from `% ENTRIES_PER_BLOCK`, so the range is always in
    // bounds; an out-of-range slot reads as 0 rather than panicking.
    let mut bytes = [0u8; 4];
    if let Some(src) = block.get(i..i + 4) {
        bytes.copy_from_slice(src);
    }
    u32::from_le_bytes(bytes) as u64
}

fn set_entry(block: &mut BlockData, slot: u64, value: u64) {
    let i = slot as usize * 4;
    if let Some(dst) = block.get_mut(i..i + 4) {
        dst.copy_from_slice(&(value as u32).to_le_bytes());
    }
}

/// A Path ORAM whose position map is itself stored in recursively smaller
/// Path ORAMs.
#[derive(Debug)]
pub struct RecursiveOram {
    /// ORAM chain: `orams[0]` is the data ORAM; `orams[k]` (k ≥ 1) stores
    /// the packed position map of `orams[k-1]`.
    orams: Vec<PathOram>,
    /// On-chip map: leaves for the *outermost* ORAM's blocks.
    on_chip: Vec<u64>,
    rng: SplitMix64,
    blocks: u64,
    accesses: u64,
}

impl RecursiveOram {
    /// Builds a recursive ORAM storing `blocks` data blocks with data-tree
    /// levels `levels` (Z = 4 throughout; each recursion level shrinks by
    /// 16× until the map fits [`ON_CHIP_LIMIT`]).
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::BadConfig`] from any level's geometry.
    pub fn new(levels: u32, blocks: u64, seed: u64) -> Result<Self, OramError> {
        if blocks == 0 {
            return Err(OramError::BadConfig("zero logical blocks".into()));
        }
        let data = OramConfig {
            levels,
            bucket_size: 4,
            blocks,
        };
        let mut rng = SplitMix64::new(seed ^ REC_SALT);
        let orams = std::iter::once(data)
            .chain(posmap_chain(&data))
            .map(|cfg| PathOram::new(cfg, rng.next_u64()))
            .collect::<Result<Vec<_>, _>>()?;
        // The outermost level's map lives on chip.
        let outer = orams[orams.len() - 1].config();
        let leaf_count = 1u64 << outer.levels;
        let on_chip = (0..outer.blocks).map(|_| rng.below(leaf_count)).collect();
        Ok(RecursiveOram {
            orams,
            on_chip,
            rng,
            blocks,
            accesses: 0,
        })
    }

    /// Data blocks stored.
    pub fn len(&self) -> u64 {
        self.blocks
    }

    /// True when storing no blocks (never: construction rejects zero).
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Number of ORAMs in the chain (data + posmap levels).
    pub fn chain_depth(&self) -> usize {
        self.orams.len()
    }

    /// On-chip map size in entries (must be small — that's the point).
    pub fn on_chip_entries(&self) -> usize {
        self.on_chip.len()
    }

    /// Logical accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Physical blocks moved per logical access, measured: the recursion
    /// amplification the paper's PosMap discussion alludes to.
    pub fn physical_blocks_per_access(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let moved: f64 = self
            .orams
            .iter()
            .map(|o| {
                (o.metrics().blocks_read + o.metrics().blocks_written + o.metrics().dummy_writes)
                    as f64
            })
            .sum();
        moved / self.accesses as f64
    }

    /// Per-level metrics snapshots (outermost last).
    pub fn metrics_chain(&self) -> Vec<&crate::path_oram::OramMetrics> {
        self.orams.iter().map(|o| o.metrics()).collect()
    }

    /// Reads data block `id`.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for `id >= len()`.
    pub fn read(&mut self, id: u64) -> Result<BlockData, OramError> {
        self.access(id, None)
    }

    /// Writes data block `id`.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for `id >= len()`.
    pub fn write(&mut self, id: u64, data: BlockData) -> Result<(), OramError> {
        self.access(id, Some(data)).map(|_| ())
    }

    fn access(&mut self, id: u64, write: Option<BlockData>) -> Result<BlockData, OramError> {
        if id >= self.blocks {
            return Err(OramError::BlockOutOfRange {
                block: id,
                capacity: self.blocks,
            });
        }
        self.accesses += 1;

        // Index of the block to access at each chain level, data first:
        // level 0 accesses block `id`; level k accesses the posmap block
        // holding level k-1's entry.
        let depth = self.orams.len();
        let mut level_block = Vec::with_capacity(depth);
        let mut idx = id;
        for _ in 0..depth {
            level_block.push(idx);
            idx /= ENTRIES_PER_BLOCK;
        }

        // Walk outermost → data. The outermost level's leaf comes from
        // the on-chip map; each level yields the leaf for the next one
        // down and is re-randomized in place.
        let outer_block = level_block[depth - 1];
        let outer_leaves = 1u64 << self.orams[depth - 1].config().levels;
        let old_outer_leaf = self.on_chip[outer_block as usize];
        let new_outer_leaf = self.rng.below(outer_leaves);
        self.on_chip[outer_block as usize] = new_outer_leaf;

        let mut old_leaf = old_outer_leaf;
        let mut new_leaf = new_outer_leaf;
        for k in (1..depth).rev() {
            // Access posmap ORAM k's block; slot holds level k-1's leaf.
            let slot = level_block[k - 1] % ENTRIES_PER_BLOCK;
            let child_leaves = 1u64 << self.orams[k - 1].config().levels;
            let child_new_leaf = self.rng.below(child_leaves);
            let mut child_old_leaf = 0;
            self.orams[k].access_at_leaves(level_block[k], old_leaf, new_leaf, |block| {
                child_old_leaf = get_entry(block, slot);
                set_entry(block, slot, child_new_leaf);
            });
            old_leaf = child_old_leaf % child_leaves;
            new_leaf = child_new_leaf;
        }

        // Finally the data ORAM.
        let mut out = [0u8; 64];
        self.orams[0].access_at_leaves(id, old_leaf, new_leaf, |block| {
            if let Some(new_data) = write {
                *block = new_data;
            }
            out = *block;
        });
        Ok(out)
    }
}

/// Domain-separation salt for the recursion chain's randomness.
const REC_SALT: u64 = 0x5EC0_0751_0AA0_77AA;

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn oram(levels: u32, blocks: u64, seed: u64) -> RecursiveOram {
        RecursiveOram::new(levels, blocks, seed).unwrap()
    }

    #[test]
    fn posmap_chain_shrinks_to_on_chip() {
        let chain = posmap_chain(&OramConfig {
            levels: 12,
            bucket_size: 4,
            blocks: 4096,
        });
        assert!(!chain.is_empty(), "4096-entry map cannot fit on chip");
        for w in chain.windows(2) {
            assert!(w[1].blocks < w[0].blocks, "chain must shrink");
        }
        assert!(chain.last().unwrap().blocks <= ON_CHIP_LIMIT);
        // A tiny map needs no off-chip recursion at all.
        assert!(posmap_chain(&OramConfig {
            levels: 6,
            bucket_size: 4,
            blocks: 200,
        })
        .is_empty());
    }

    #[test]
    fn small_map_stays_on_chip_with_single_oram() {
        let o = oram(7, 200, 1);
        assert_eq!(o.chain_depth(), 1);
        assert!(o.on_chip_entries() <= 256);
    }

    #[test]
    fn large_map_recurses() {
        // 16384 blocks → 1024 posmap blocks → 64 entries on chip.
        let o = oram(13, 16_384, 2);
        assert!(o.chain_depth() >= 2, "chain depth {}", o.chain_depth());
        assert!(
            o.on_chip_entries() <= 256,
            "on-chip {}",
            o.on_chip_entries()
        );
    }

    #[test]
    fn read_after_write_round_trips() {
        let mut o = oram(13, 16_384, 3);
        o.write(7, [0x77; 64]).unwrap();
        o.write(16_000, [0xEE; 64]).unwrap();
        assert_eq!(o.read(7).unwrap(), [0x77; 64]);
        assert_eq!(o.read(16_000).unwrap(), [0xEE; 64]);
        assert_eq!(o.read(5).unwrap(), [0u8; 64]);
    }

    #[test]
    fn data_survives_heavy_traffic_through_the_chain() {
        let mut o = oram(13, 16_384, 4);
        let mut rng = SplitMix64::new(5);
        let mut oracle = std::collections::HashMap::new();
        for i in 0..1500u64 {
            let id = rng.below(16_384);
            if i % 2 == 0 {
                let byte = (i % 251) as u8;
                o.write(id, [byte; 64]).unwrap();
                oracle.insert(id, byte);
            } else {
                let got = o.read(id).unwrap();
                let expected = oracle.get(&id).copied().unwrap_or(0);
                assert_eq!(got, [expected; 64], "block {id} corrupted at step {i}");
            }
        }
    }

    #[test]
    fn recursion_amplifies_physical_traffic() {
        let mut flat = oram(9, 200, 6); // single ORAM
        let mut deep = oram(13, 16_384, 6); // chain
        let mut rng = SplitMix64::new(7);
        for _ in 0..300 {
            flat.read(rng.below(200)).unwrap();
            deep.read(rng.below(16_384)).unwrap();
        }
        assert!(
            deep.physical_blocks_per_access() > flat.physical_blocks_per_access(),
            "recursion must cost more physical traffic: deep {} flat {}",
            deep.physical_blocks_per_access(),
            flat.physical_blocks_per_access()
        );
        assert_eq!(deep.accesses(), 300);
    }

    /// Regression for the unwrap audit: a slot beyond the 16 packed
    /// entries must read as zero and write as a no-op — never panic and
    /// never clobber neighbouring entries.
    #[test]
    fn packed_entry_accessors_tolerate_out_of_range_slots() {
        let mut block: BlockData = [0xAA; 64];
        for slot in ENTRIES_PER_BLOCK..ENTRIES_PER_BLOCK + 4 {
            assert_eq!(get_entry(&block, slot), 0, "slot {slot} must read 0");
            set_entry(&mut block, slot, 0xDEAD_BEEF);
        }
        assert_eq!(block, [0xAA; 64], "out-of-range writes must not land");
        set_entry(&mut block, ENTRIES_PER_BLOCK - 1, 0x0102_0304);
        assert_eq!(get_entry(&block, ENTRIES_PER_BLOCK - 1), 0x0102_0304);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut o = oram(7, 100, 8);
        assert!(matches!(
            o.read(100),
            Err(OramError::BlockOutOfRange { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn chain_matches_oracle(seed: u64, ops in proptest::collection::vec((0u64..2000, proptest::option::of(0u8..)), 1..60)) {
            let mut o = RecursiveOram::new(10, 2000, seed).unwrap();
            let mut oracle = std::collections::HashMap::new();
            for (id, write) in ops {
                match write {
                    Some(byte) => {
                        o.write(id, [byte; 64]).unwrap();
                        oracle.insert(id, byte);
                    }
                    None => {
                        let got = o.read(id).unwrap();
                        let expected = oracle.get(&id).copied().unwrap_or(0);
                        proptest::prop_assert_eq!(got, [expected; 64]);
                    }
                }
            }
        }
    }
}
