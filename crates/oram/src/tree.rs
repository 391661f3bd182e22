//! The ORAM bucket tree.
//!
//! A complete binary tree of `levels + 1` levels (root = level 0, leaves =
//! level `levels`), each node a bucket of `Z` slots. Standard heap
//! numbering: node 0 is the root, node `2i+1`/`2i+2` its children, leaf
//! `l` is node `2^levels - 1 + l`.
//!
//! Buckets are stored sparsely (only nodes that hold a block now allocate
//! memory) so the paper-scale L = 24 geometry is representable without a
//! 9 GB allocation. A bucket that `write_path` or `take_block` leaves empty
//! is dropped from the map; one that `write_path` refills keeps the buffer
//! `read_path` drained, so the common path access allocates nothing.

use std::collections::hash_map::Entry;

use obfusmem_mem::request::BlockData;
use obfusmem_sim::hash::FoldMap;

use crate::stash::Stash;

/// A real block stored in the tree or stash: logical id, its assigned
/// leaf, and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramBlock {
    /// Logical block id.
    pub id: u64,
    /// Leaf this block is mapped to (its path invariant).
    pub leaf: u64,
    /// 64-byte payload.
    pub data: BlockData,
}

/// The bucket tree.
#[derive(Debug)]
pub struct BucketTree {
    levels: u32,
    bucket_size: usize,
    /// node index → occupied slots (1..=bucket_size, or none between a
    /// `read_path` and the `write_path` that follows it).
    buckets: FoldMap<u64, Vec<OramBlock>>,
}

/// Node index at `depth` (0 = root) on the path from the root to `leaf`
/// in a tree of `levels` edge-levels: the leaf's 1-based heap index
/// `2^levels + leaf`, shifted up to that depth.
pub(crate) fn path_node(levels: u32, leaf: u64, depth: u32) -> u64 {
    ((leaf | 1 << levels) >> (levels - depth)) - 1
}

impl BucketTree {
    /// Creates an empty tree with `levels` edge-levels below the root and
    /// `bucket_size` slots per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `levels` ≥ 48 (node ids would overflow practical ranges)
    /// or `bucket_size` is zero.
    pub fn new(levels: u32, bucket_size: usize) -> Self {
        assert!(levels < 48, "tree too deep");
        assert!(bucket_size > 0, "bucket size must be nonzero");
        BucketTree {
            levels,
            bucket_size,
            buckets: FoldMap::default(),
        }
    }

    /// Edge-levels below the root (leaves live at this depth).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Slots per bucket (the paper's Z).
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.levels
    }

    /// Total buckets in the tree.
    pub fn bucket_count(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Total physical block slots.
    pub fn slot_count(&self) -> u64 {
        self.bucket_count() * self.bucket_size as u64
    }

    /// Node index of `leaf`'s leaf bucket.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn leaf_node(&self, leaf: u64) -> u64 {
        assert!(leaf < self.leaf_count(), "leaf out of range");
        (1u64 << self.levels) - 1 + leaf
    }

    /// Node index at `depth` (0 = root, `levels` = the leaf) on the path
    /// root → `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range or `depth` exceeds `levels`.
    pub fn path_node(&self, leaf: u64, depth: u32) -> u64 {
        assert!(leaf < self.leaf_count(), "leaf out of range");
        assert!(depth <= self.levels, "depth below the leaves");
        path_node(self.levels, leaf, depth)
    }

    /// Node indices on the path root → `leaf` (length `levels + 1`).
    pub fn path_nodes(&self, leaf: u64) -> Vec<u64> {
        (0..=self.levels)
            .map(|depth| self.path_node(leaf, depth))
            .collect()
    }

    /// True when `node` lies on the path from the root to `leaf`: its
    /// depth is `ilog2(node + 1)`, and the leaf's ancestor at that depth
    /// is the leaf's 1-based heap index shifted up to it.
    pub fn node_on_path(&self, node: u64, leaf: u64) -> bool {
        let leaf_node = self.leaf_node(leaf);
        let Some(heap_index) = node.checked_add(1) else {
            return false;
        };
        let depth = heap_index.ilog2();
        depth <= self.levels && (leaf_node + 1) >> (self.levels - depth) == heap_index
    }

    /// Reads a bucket without removing it.
    pub fn bucket(&self, node: u64) -> &[OramBlock] {
        self.buckets.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Moves every block on `leaf`'s path into `stash`, root first and
    /// each bucket in slot order; returns how many moved.
    pub fn read_path(&mut self, leaf: u64, stash: &mut Stash) -> usize {
        let mut moved = 0;
        for depth in 0..=self.levels {
            if let Some(bucket) = self.buckets.get_mut(&self.path_node(leaf, depth)) {
                moved += bucket.len();
                for block in bucket.drain(..) {
                    stash.insert(block);
                }
            }
        }
        moved
    }

    /// Path ORAM's greedy eviction onto `leaf`'s path, leaf upward: each
    /// bucket takes up to `bucket_size` of the oldest stash blocks whose
    /// own path passes through it. Calls `placed(node, blocks)` for every
    /// bucket on the path.
    pub fn write_path(&mut self, leaf: u64, stash: &mut Stash, mut placed: impl FnMut(u64, usize)) {
        let (levels, z) = (self.levels, self.bucket_size);
        for depth in (0..=levels).rev() {
            let node = self.path_node(leaf, depth);
            // A block may sit at this depth iff its leaf agrees with
            // `leaf` above it.
            let eligible = |b: &OramBlock| (b.leaf ^ leaf) >> (levels - depth) == 0;
            let count = match self.buckets.entry(node) {
                Entry::Occupied(mut e) => {
                    let bucket = e.get_mut();
                    bucket.clear();
                    stash.take_eligible(z, eligible, bucket);
                    let count = bucket.len();
                    if count == 0 {
                        e.remove();
                    }
                    count
                }
                Entry::Vacant(e) => {
                    let mut bucket = Vec::new();
                    stash.take_eligible(z, eligible, &mut bucket);
                    let count = bucket.len();
                    if count > 0 {
                        e.insert(bucket);
                    }
                    count
                }
            };
            placed(node, count);
        }
    }

    /// Removes block `id` from `node`'s bucket, moving the bucket's last
    /// block into its slot; drops the bucket once it is empty.
    pub fn take_block(&mut self, node: u64, id: u64) -> Option<OramBlock> {
        let bucket = self.buckets.get_mut(&node)?;
        let pos = bucket.iter().position(|b| b.id == id)?;
        let block = bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&node);
        }
        Some(block)
    }

    /// Total real blocks currently resident in the tree.
    pub fn resident_blocks(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Iterates over all resident blocks (for invariant checks).
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, &OramBlock)> {
        self.buckets
            .iter()
            .flat_map(|(&node, blocks)| blocks.iter().map(move |b| (node, b)))
    }

    /// Physical byte address of `(node, slot)` for timing-mode accesses:
    /// buckets laid out contiguously, 64 B per slot.
    pub fn slot_address(&self, node: u64, slot: usize) -> u64 {
        (node * self.bucket_size as u64 + slot as u64) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    #[test]
    fn geometry() {
        let t = BucketTree::new(3, 4);
        assert_eq!(t.leaf_count(), 8);
        assert_eq!(t.bucket_count(), 15);
        assert_eq!(t.slot_count(), 60);
        assert_eq!(t.leaf_node(0), 7);
        assert_eq!(t.leaf_node(7), 14);
    }

    #[test]
    fn paper_geometry_is_representable() {
        // L = 24, Z = 4: the Table/discussion configuration. ~100 blocks
        // per path (25 levels × 4).
        let t = BucketTree::new(24, 4);
        assert_eq!(t.path_nodes(12345).len(), 25);
        assert_eq!(25 * 4, 100);
    }

    #[test]
    fn path_walks_root_to_leaf() {
        let t = BucketTree::new(3, 4);
        let path = t.path_nodes(5);
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), t.leaf_node(5));
        // Each consecutive pair is parent → child.
        for w in path.windows(2) {
            assert!(w[1] == 2 * w[0] + 1 || w[1] == 2 * w[0] + 2);
        }
    }

    #[test]
    fn node_on_path_agrees_with_path_nodes() {
        let t = BucketTree::new(5, 4);
        for leaf in 0..t.leaf_count() {
            let path = t.path_nodes(leaf);
            for node in 0..t.bucket_count() {
                assert_eq!(t.node_on_path(node, leaf), path.contains(&node));
            }
        }
    }

    fn block(id: u64, leaf: u64) -> OramBlock {
        OramBlock {
            id,
            leaf,
            data: [id as u8; 64],
        }
    }

    #[test]
    fn paths_write_back_and_read_into_the_stash() {
        let mut t = BucketTree::new(3, 2);
        let mut stash = Stash::new();
        // Leaf 5 and leaf 4 share everything above the leaves; leaf 0
        // shares only the root with them.
        for (id, leaf) in [(1, 5), (2, 5), (3, 5), (4, 4), (5, 0)] {
            stash.insert(block(id, leaf));
        }
        let mut placed = Vec::new();
        t.write_path(5, &mut stash, |node, count| placed.push((node, count)));
        // Leaf upward: the leaf bucket takes the two oldest leaf-5
        // blocks, its parent the third and the leaf-4 block, and the
        // root the leaf-0 block.
        assert_eq!(placed, vec![(12, 2), (5, 2), (2, 0), (0, 1)]);
        assert!(stash.is_empty());
        assert_eq!(t.bucket(12), &[block(1, 5), block(2, 5)]);
        assert_eq!(t.bucket(5), &[block(3, 5), block(4, 4)]);
        assert_eq!(t.resident_blocks(), 5);

        assert_eq!(t.take_block(12, 1), Some(block(1, 5)));
        assert_eq!(t.take_block(12, 1), None);
        assert_eq!(t.bucket(12), &[block(2, 5)]);
        // The map holds only buckets with a block in them: the empty
        // depth-2 bucket was never stored, and taking a bucket's last
        // block drops it.
        assert_eq!(t.buckets.len(), 3);
        assert_eq!(t.take_block(12, 2), Some(block(2, 5)));
        assert_eq!(t.buckets.len(), 2);

        // Reading leaf 0's path moves only the root's block.
        assert_eq!(t.read_path(0, &mut stash), 1);
        assert_eq!(stash.get(5), Some(&block(5, 0)));
        assert!(t.bucket(0).is_empty());
        assert_eq!(t.read_path(5, &mut stash), 2);
        assert_eq!(t.resident_blocks(), 0);
        assert_eq!(stash.len(), 3);
        // Writing back an empty stash onto the drained path drops every
        // bucket on it, which were all the stored ones.
        t.write_path(5, &mut Stash::new(), |_, count| assert_eq!(count, 0));
        assert_eq!(t.buckets.len(), 0);
    }

    #[test]
    fn slot_addresses_are_distinct() {
        let t = BucketTree::new(4, 4);
        let mut seen = std::collections::HashSet::new();
        for node in 0..t.bucket_count() {
            for slot in 0..t.bucket_size() {
                assert!(seen.insert(t.slot_address(node, slot)));
            }
        }
    }

    /// The walk `node_on_path` and `path_nodes` replaced: from the leaf
    /// node up through each parent to the root.
    fn walk(t: &BucketTree, leaf: u64) -> Vec<u64> {
        let mut nodes = vec![t.leaf_node(leaf)];
        while let Some(&node) = nodes.last().filter(|&&n| n > 0) {
            nodes.push((node - 1) / 2);
        }
        nodes.reverse();
        nodes
    }

    proptest::proptest! {
        /// Closed-form path nodes and path membership against the walk,
        /// on shallow and paper-depth trees, for nodes in and out of the
        /// tree.
        #[test]
        fn closed_form_paths_match_the_walk(
            levels in 0u32..25,
            leaf_bits: u64,
            node_bits: u64
        ) {
            let t = BucketTree::new(levels, 4);
            let leaf = leaf_bits % t.leaf_count();
            let path = walk(&t, leaf);
            proptest::prop_assert_eq!(t.path_nodes(leaf), path.clone());
            for node in [node_bits % t.bucket_count(), node_bits, u64::MAX] {
                proptest::prop_assert_eq!(t.node_on_path(node, leaf), path.contains(&node));
            }
            for &node in &path {
                proptest::prop_assert!(t.node_on_path(node, leaf));
            }
        }

        #[test]
        fn sibling_paths_share_exactly_the_common_prefix(leaf_a in 0u64..256, leaf_b in 0u64..256) {
            let t = BucketTree::new(8, 4);
            let pa = t.path_nodes(leaf_a);
            let pb = t.path_nodes(leaf_b);
            // Shared nodes must form a prefix (paths only diverge once).
            let shared: Vec<_> = pa.iter().zip(&pb).take_while(|(a, b)| a == b).collect();
            let shared_count = pa.iter().filter(|n| pb.contains(n)).count();
            proptest::prop_assert_eq!(shared.len(), shared_count);
        }
    }
}
