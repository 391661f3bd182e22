//! Ring ORAM (Ren et al., USENIX Security 2015) — the other baseline the
//! paper cites: "bandwidth increase by 24× and 120× in Ring and Path
//! ORAM, respectively".
//!
//! Ring ORAM restructures the bucket to decouple *reading* from
//! *evicting*:
//!
//! * each bucket holds `z` real slots plus `s` reserved dummy slots, in a
//!   per-bucket random permutation;
//! * an access reads **one slot per bucket** on the path — the real block
//!   where present, an unread dummy elsewhere — instead of Path ORAM's
//!   whole bucket. With the XOR technique, the memory returns a single
//!   XOR-combined block, so online bandwidth is ~1 block per access;
//! * paths are evicted only every `a` accesses (round-robin, amortized),
//!   and a bucket is reshuffled after `s` of its slots have been read.
//!
//! The result is severalfold lower bandwidth amplification than Path
//! ORAM at the same tree size — the relationship the paper's 24× vs 120×
//! figures express — while keeping the same leaf-remapping obliviousness.
//! [`RingMetrics::bandwidth_amplification`] measures it directly.

use obfusmem_mem::request::BlockData;
use obfusmem_sim::rng::SplitMix64;

use crate::posmap::PosMap;
use crate::stash::Stash;
use crate::tree::{BucketTree, OramBlock};
use crate::OramError;

/// Ring ORAM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Tree edge-levels.
    pub levels: u32,
    /// Real slots per bucket (Ren et al. use Z up to 16).
    pub z: usize,
    /// Reserved dummy slots per bucket (S).
    pub s: usize,
    /// Evict-path period (A): one amortized eviction every `a` accesses.
    pub a: u64,
    /// Logical blocks stored.
    pub blocks: u64,
    /// Model the XOR technique: the memory XORs the (known-plaintext)
    /// dummies into one returned block, so an online read transfers one
    /// block instead of `levels + 1`.
    pub xor_technique: bool,
}

impl RingConfig {
    /// The configuration class Ren et al. evaluate (Z=16, A=23, S=25),
    /// scaled to a test-friendly tree depth.
    pub fn ren_style(levels: u32, blocks: u64) -> Self {
        RingConfig {
            levels,
            z: 16,
            s: 25,
            a: 23,
            blocks,
            xor_technique: true,
        }
    }
}

/// Traffic counters.
#[derive(Debug, Clone, Default)]
pub struct RingMetrics {
    /// Logical accesses served.
    pub accesses: u64,
    /// Blocks transferred for online reads.
    pub online_blocks: u64,
    /// Blocks moved by evict-path operations (reads + writes).
    pub evict_blocks: u64,
    /// Blocks moved by bucket reshuffles (early reshuffles).
    pub reshuffle_blocks: u64,
    /// Extra EvictPath passes run to relieve hard-bound stash pressure.
    pub background_evictions: u64,
    /// Stash occupancy high-water mark at access boundaries.
    pub stash_high_water: usize,
}

impl RingMetrics {
    /// Total physical blocks moved per logical access.
    pub fn bandwidth_amplification(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.online_blocks + self.evict_blocks + self.reshuffle_blocks) as f64
                / self.accesses as f64
        }
    }
}

/// Per-bucket Ring state tracked alongside the tree bucket: how many
/// slots have been consumed since the last reshuffle/eviction touch.
#[derive(Debug, Clone, Copy, Default)]
struct BucketState {
    reads_since_shuffle: u64,
}

/// A functional Ring ORAM.
#[derive(Debug)]
pub struct RingOram {
    cfg: RingConfig,
    tree: BucketTree,
    posmap: PosMap,
    stash: Stash,
    rng: SplitMix64,
    metrics: RingMetrics,
    bucket_state: std::collections::HashMap<u64, BucketState>,
    evict_counter: u64,
    evict_cursor: u64,
    /// Optional hard stash bound; see [`RingOram::set_stash_hard_bound`].
    stash_hard_bound: Option<usize>,
}

impl RingOram {
    /// Builds a Ring ORAM.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BadConfig`] for degenerate geometry or
    /// utilization above 50% of real slots.
    pub fn new(cfg: RingConfig, seed: u64) -> Result<Self, OramError> {
        if cfg.blocks == 0 {
            return Err(OramError::BadConfig("zero logical blocks".into()));
        }
        if cfg.z == 0 || cfg.s == 0 || cfg.a == 0 {
            return Err(OramError::BadConfig("z, s, a must all be nonzero".into()));
        }
        let real_slots = ((1u64 << (cfg.levels + 1)) - 1) * cfg.z as u64;
        if cfg.blocks > real_slots / 2 {
            return Err(OramError::BadConfig(format!(
                "{} blocks exceeds 50% of {} real slots",
                cfg.blocks, real_slots
            )));
        }
        let mut rng = SplitMix64::new(seed ^ 0x0512_4113_60AA_0001);
        let tree = BucketTree::new(cfg.levels, cfg.z);
        let posmap = PosMap::new_random(cfg.blocks, tree.leaf_count(), &mut rng);
        Ok(RingOram {
            cfg,
            tree,
            posmap,
            stash: Stash::new(),
            rng,
            metrics: RingMetrics::default(),
            bucket_state: std::collections::HashMap::new(),
            evict_counter: 0,
            evict_cursor: 0,
            stash_hard_bound: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Traffic counters.
    pub fn metrics(&self) -> &RingMetrics {
        &self.metrics
    }

    /// Stash high-water mark.
    pub fn stash_high_water(&self) -> usize {
        self.stash.max_occupancy()
    }

    /// Sets (or clears) the hard stash bound. `None` (the default) keeps
    /// the functional stash unbounded — bit-identical to the historical
    /// behavior. With `Some(bound)`, accesses that leave the stash over
    /// the bound run extra EvictPath passes and surface
    /// [`OramError::StashOverflow`] only when those fail.
    pub fn set_stash_hard_bound(&mut self, bound: Option<usize>) {
        self.stash_hard_bound = bound;
    }

    /// Reads logical block `id`.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for out-of-range ids.
    pub fn read(&mut self, id: u64) -> Result<BlockData, OramError> {
        self.access(id, None)
    }

    /// Writes logical block `id`.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockOutOfRange`] for out-of-range ids.
    pub fn write(&mut self, id: u64, data: BlockData) -> Result<(), OramError> {
        self.access(id, Some(data)).map(|_| ())
    }

    fn access(&mut self, id: u64, write: Option<BlockData>) -> Result<BlockData, OramError> {
        if id >= self.cfg.blocks {
            return Err(OramError::BlockOutOfRange {
                block: id,
                capacity: self.cfg.blocks,
            });
        }
        self.metrics.accesses += 1;

        // Remap, then read ONE slot per bucket along the old path.
        let old_leaf = self.posmap.remap(id, &mut self.rng);
        let new_leaf = self.posmap.leaf_of(id);
        let path = self.tree.path_nodes(old_leaf);

        // Online read: the target block (if in the tree) moves to the
        // stash; every other bucket burns one dummy slot.
        let mut slots_consumed = 0u64;
        for &node in &path {
            let state = self.bucket_state.entry(node).or_default();
            state.reads_since_shuffle += 1;
            slots_consumed += 1;
            // Pull the real block out if this bucket holds it.
            if let Some(block) = self.tree.take_block(node, id) {
                self.stash.insert(block);
            }
        }
        // Wire transfer: one block with the XOR technique, else one block
        // per bucket.
        self.metrics.online_blocks += if self.cfg.xor_technique {
            1
        } else {
            slots_consumed
        };

        // Early reshuffle any bucket that exhausted its dummies.
        for &node in &path {
            let state = self.bucket_state.entry(node).or_default();
            if state.reads_since_shuffle >= self.cfg.s as u64 {
                state.reads_since_shuffle = 0;
                // Reshuffle = read valid reals + rewrite the whole bucket
                // (z + s slots).
                let occupancy = self.tree.bucket(node).len() as u64;
                self.metrics.reshuffle_blocks += occupancy + (self.cfg.z + self.cfg.s) as u64;
            }
        }

        // Serve from the stash.
        let data = match self.stash.get_mut(id) {
            Some(block) => {
                block.leaf = new_leaf;
                if let Some(new_data) = write {
                    block.data = new_data;
                }
                block.data
            }
            None => {
                let data = write.unwrap_or([0u8; 64]);
                self.stash.insert(OramBlock {
                    id,
                    leaf: new_leaf,
                    data,
                });
                data
            }
        };

        // Amortized EvictPath every `a` accesses.
        self.evict_counter += 1;
        if self.evict_counter >= self.cfg.a {
            self.evict_counter = 0;
            self.evict_path();
        }
        self.metrics.stash_high_water = self.metrics.stash_high_water.max(self.stash.len());
        self.relieve_stash_pressure()?;
        Ok(data)
    }

    /// With a hard bound configured, runs up to `MAX_BACKGROUND_PASSES`
    /// extra EvictPath passes (continuing the round-robin cursor) while
    /// the stash is over the bound, then errors if pressure persists.
    /// The served block is already committed to the stash, so a caller
    /// that recovers loses nothing.
    fn relieve_stash_pressure(&mut self) -> Result<(), OramError> {
        let Some(bound) = self.stash_hard_bound else {
            return Ok(());
        };
        let mut passes = 0;
        while self.stash.len() > bound && passes < MAX_BACKGROUND_PASSES {
            self.metrics.background_evictions += 1;
            self.evict_path();
            passes += 1;
        }
        self.stash.check_bound(bound)
    }

    /// EvictPath: read the round-robin path's real blocks into the stash,
    /// then greedily refill it (standard Path ORAM eviction over Z real
    /// slots), writing every slot (z + s) of every bucket back.
    fn evict_path(&mut self) {
        let leaf = self.evict_cursor % self.tree.leaf_count();
        // Bit-reversed order spreads evictions uniformly over subtrees.
        self.evict_cursor = self.evict_cursor.wrapping_add(1);
        // Reads, then every slot (real + dummy) rewritten with fresh
        // ciphertext.
        self.metrics.evict_blocks += self.tree.read_path(leaf, &mut self.stash) as u64;
        let (metrics, bucket_state, slots) = (
            &mut self.metrics,
            &mut self.bucket_state,
            (self.cfg.z + self.cfg.s) as u64,
        );
        self.tree.write_path(leaf, &mut self.stash, |node, _| {
            metrics.evict_blocks += slots;
            bucket_state.insert(node, BucketState::default());
        });
    }

    /// Verifies the path invariant for all resident blocks.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::InvariantViolation`] on the first violation.
    pub fn check_invariants(&self) -> Result<(), OramError> {
        for (node, block) in self.tree.iter_blocks() {
            let mapped = self.posmap.leaf_of(block.id);
            if block.leaf != mapped {
                return Err(OramError::InvariantViolation(format!(
                    "block {} leaf {} != posmap {}",
                    block.id, block.leaf, mapped
                )));
            }
            if !self.tree.node_on_path(node, mapped) {
                return Err(OramError::InvariantViolation(format!(
                    "block {} off its path",
                    block.id
                )));
            }
        }
        Ok(())
    }
}

impl obfusmem_obs::metrics::Observable for RingOram {
    fn observe(&self, out: &mut obfusmem_obs::metrics::MetricsNode) {
        let m = self.metrics();
        out.set_counter("accesses", m.accesses);
        out.set_counter("online_blocks", m.online_blocks);
        out.set_counter("evict_blocks", m.evict_blocks);
        out.set_counter("reshuffle_blocks", m.reshuffle_blocks);
        out.set_counter("background_evictions", m.background_evictions);
        out.set_gauge("stash_high_water", self.stash_high_water() as f64);
    }
}

/// Cap on back-to-back relief passes per access (see Path ORAM's
/// equivalent: past a handful of passes the pressure is structural).
const MAX_BACKGROUND_PASSES: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RingOram {
        RingOram::new(
            RingConfig {
                levels: 6,
                z: 4,
                s: 6,
                a: 4,
                blocks: 200,
                xor_technique: true,
            },
            3,
        )
        .unwrap()
    }

    #[test]
    fn read_after_write() {
        let mut o = small();
        o.write(5, [0x55; 64]).unwrap();
        assert_eq!(o.read(5).unwrap(), [0x55; 64]);
        assert_eq!(o.read(9).unwrap(), [0u8; 64]);
    }

    #[test]
    fn survives_heavy_traffic_with_invariants() {
        let mut o = small();
        let mut rng = SplitMix64::new(1);
        let mut oracle = std::collections::HashMap::new();
        for i in 0..3000u64 {
            let id = rng.below(200);
            if i % 2 == 0 {
                let b = (i % 250) as u8;
                o.write(id, [b; 64]).unwrap();
                oracle.insert(id, b);
            } else {
                let got = o.read(id).unwrap();
                assert_eq!(
                    got,
                    [oracle.get(&id).copied().unwrap_or(0); 64],
                    "block {id}"
                );
            }
            if i % 250 == 0 {
                o.check_invariants().unwrap();
            }
        }
        assert!(
            o.stash_high_water() < 120,
            "stash blew up: {}",
            o.stash_high_water()
        );
    }

    #[test]
    fn bandwidth_is_severalfold_below_path_oram() {
        // The paper's 24× vs 120× relationship, reproduced in shape.
        let levels = 10;
        let blocks = 1000;
        let mut ring = RingOram::new(RingConfig::ren_style(levels, blocks), 7).unwrap();
        let mut path = crate::path_oram::PathOram::new(
            crate::path_oram::OramConfig {
                levels,
                bucket_size: 4,
                blocks,
            },
            7,
        )
        .unwrap();
        let mut rng = SplitMix64::new(8);
        for _ in 0..2000 {
            let id = rng.below(blocks);
            ring.read(id).unwrap();
            path.read(id).unwrap();
        }
        let ring_bw = ring.metrics().bandwidth_amplification();
        let path_bw = path.metrics().bandwidth_amplification();
        assert!(
            ring_bw * 1.8 < path_bw,
            "Ring ({ring_bw:.0}x) must be well below Path ({path_bw:.0}x)"
        );
    }

    #[test]
    fn xor_technique_reduces_online_traffic() {
        let run = |xor| {
            let cfg = RingConfig {
                levels: 6,
                z: 4,
                s: 6,
                a: 4,
                blocks: 200,
                xor_technique: xor,
            };
            let mut o = RingOram::new(cfg, 4).unwrap();
            let mut rng = SplitMix64::new(5);
            for _ in 0..500 {
                o.read(rng.below(200)).unwrap();
            }
            o.metrics().online_blocks
        };
        let with_xor = run(true);
        let without = run(false);
        assert_eq!(with_xor, 500, "XOR returns one block per access");
        assert_eq!(
            without,
            500 * 7,
            "plain Ring reads one block per bucket (L+1)"
        );
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(RingOram::new(
            RingConfig {
                levels: 6,
                z: 0,
                s: 6,
                a: 4,
                blocks: 10,
                xor_technique: true
            },
            0
        )
        .is_err());
        assert!(RingOram::new(
            RingConfig {
                levels: 3,
                z: 4,
                s: 6,
                a: 4,
                blocks: 10_000,
                xor_technique: true
            },
            0
        )
        .is_err());
    }

    #[test]
    fn hard_bound_drives_extra_evict_passes() {
        // Ring's amortized eviction drains slower than Path ORAM's, so
        // under a tight bound some accesses still overflow after the
        // relief passes. That is the graceful path: the access reports
        // the typed error (no panic, no lost data — the block is in the
        // stash) and subsequent traffic proceeds.
        let mut o = small();
        o.set_stash_hard_bound(Some(8));
        let mut rng = SplitMix64::new(17);
        let mut oracle = std::collections::HashMap::new();
        let mut overflows = 0u64;
        for i in 0..1200u64 {
            let id = rng.below(200);
            let result = if i % 2 == 0 {
                let b = (i % 250) as u8;
                let r = o.write(id, [b; 64]);
                oracle.insert(id, b);
                r.map(|()| [b; 64])
            } else {
                o.read(id)
            };
            match result {
                Ok(data) => {
                    assert_eq!(data, [oracle.get(&id).copied().unwrap_or(0); 64]);
                }
                Err(OramError::StashOverflow { occupancy, bound }) => {
                    assert_eq!(bound, 8);
                    assert!(occupancy > 8);
                    overflows += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            o.metrics().background_evictions > 0,
            "an 8-block bound must trigger relief passes"
        );
        assert!(overflows < 1200, "traffic must mostly proceed");
        o.check_invariants().unwrap();
        // Data written during the pressured run survives it.
        o.set_stash_hard_bound(None);
        for (&id, &b) in &oracle {
            assert_eq!(o.read(id).unwrap(), [b; 64], "block {id}");
        }
    }

    #[test]
    fn default_runs_no_background_passes() {
        let mut o = small();
        let mut rng = SplitMix64::new(23);
        for _ in 0..500 {
            o.read(rng.below(200)).unwrap();
        }
        assert_eq!(o.metrics().background_evictions, 0);
        assert!(o.metrics().stash_high_water <= o.stash_high_water());
    }

    #[test]
    fn eviction_keeps_stash_bounded() {
        let mut o = small();
        let mut rng = SplitMix64::new(9);
        for _ in 0..5000 {
            o.read(rng.below(200)).unwrap();
        }
        assert!(
            o.stash_high_water() < 150,
            "amortized eviction failed: stash {}",
            o.stash_high_water()
        );
    }
}
