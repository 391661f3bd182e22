//! The ORAM stash — the processor-side holding area for blocks in flight.
//!
//! Path ORAM's invariant (quoted in paper §2.3): a block mapped to leaf
//! `l` is either in a bucket on path `l` or in the stash. The stash absorbs
//! blocks that could not be evicted back onto their path; if it grows past
//! its hardware bound the system cannot make progress — the paper's
//! "deadlock" failure mode. We track occupancy so the failure probability
//! can be measured as a function of stash size (an ablation bench).

use crate::tree::OramBlock;
use crate::OramError;

/// The stash.
#[derive(Debug, Default)]
pub struct Stash {
    blocks: Vec<OramBlock>,
    max_occupancy: usize,
}

impl Stash {
    /// An empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// High-water mark since construction.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Adds `block` (deduplicating by id — a path read may re-encounter a
    /// block already stashed; the incoming copy wins, as the tree copy is
    /// at least as stale).
    pub fn insert(&mut self, block: OramBlock) {
        if let Some(existing) = self.blocks.iter_mut().find(|b| b.id == block.id) {
            *existing = block;
        } else {
            self.blocks.push(block);
        }
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
    }

    /// Looks up a block by id.
    pub fn get(&self, id: u64) -> Option<&OramBlock> {
        self.blocks.iter().find(|b| b.id == id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut OramBlock> {
        self.blocks.iter_mut().find(|b| b.id == id)
    }

    /// Moves up to `max` blocks satisfying `eligible` onto the end of
    /// `out`, preferring blocks that have waited longest (front of the
    /// store). The blocks left behind keep their order.
    pub fn take_eligible(
        &mut self,
        max: usize,
        mut eligible: impl FnMut(&OramBlock) -> bool,
        out: &mut Vec<OramBlock>,
    ) {
        let mut taken = 0;
        self.blocks.retain(|b| {
            let take = taken < max && eligible(b);
            if take {
                out.push(*b);
                taken += 1;
            }
            !take
        });
    }

    /// Errors if occupancy exceeds `bound` (the hardware stash size).
    pub fn check_bound(&self, bound: usize) -> Result<(), OramError> {
        if self.blocks.len() > bound {
            Err(OramError::StashOverflow {
                occupancy: self.blocks.len(),
                bound,
            })
        } else {
            Ok(())
        }
    }

    /// Iterates over stashed blocks.
    pub fn iter(&self) -> impl Iterator<Item = &OramBlock> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: u64, leaf: u64) -> OramBlock {
        OramBlock {
            id,
            leaf,
            data: [id as u8; 64],
        }
    }

    #[test]
    fn insert_and_get() {
        let mut s = Stash::new();
        s.insert(block(1, 0));
        s.insert(block(2, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().leaf, 0);
        assert!(s.get(9).is_none());
    }

    #[test]
    fn insert_deduplicates_by_id() {
        let mut s = Stash::new();
        s.insert(block(1, 0));
        s.insert(OramBlock {
            id: 1,
            leaf: 7,
            data: [0xFF; 64],
        });
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).unwrap().leaf, 7);
        assert_eq!(s.get(1).unwrap().data[0], 0xFF);
    }

    /// Every eligible block taken under a budget.
    fn take(s: &mut Stash, max: usize, eligible: impl FnMut(&OramBlock) -> bool) -> Vec<OramBlock> {
        let mut taken = Vec::new();
        s.take_eligible(max, eligible, &mut taken);
        taken
    }

    #[test]
    fn take_eligible_respects_predicate_and_max() {
        let mut s = Stash::new();
        for i in 0..10 {
            s.insert(block(i, i % 2));
        }
        let taken = take(&mut s, 3, |b| b.leaf == 0);
        assert_eq!(taken.iter().map(|b| b.id).collect::<Vec<_>>(), [0, 2, 4]);
        assert_eq!(s.len(), 7);
        // The rest keep their order.
        let rest: Vec<u64> = s.iter().map(|b| b.id).collect();
        assert_eq!(rest, [1, 3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn take_eligible_prefers_oldest() {
        let mut s = Stash::new();
        s.insert(block(10, 0));
        s.insert(block(11, 0));
        let taken = take(&mut s, 1, |_| true);
        assert_eq!(taken[0].id, 10);
    }

    /// Regression: every stash operation must be a harmless no-op on an
    /// empty stash — eviction passes run against it constantly.
    #[test]
    fn empty_stash_operations_are_safe() {
        let mut s = Stash::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.max_occupancy(), 0);
        assert!(s.get(0).is_none());
        assert!(s.get_mut(0).is_none());
        assert!(s.iter().next().is_none());
        assert!(take(&mut s, 4, |_| true).is_empty());
        assert!(take(&mut s, 0, |_| true).is_empty());
        assert!(s.check_bound(0).is_ok());
    }

    /// Regression: a zero-budget eviction pass must leave the stash
    /// untouched rather than underflowing or panicking.
    #[test]
    fn zero_budget_take_is_a_no_op() {
        let mut s = Stash::new();
        s.insert(block(1, 0));
        assert!(take(&mut s, 0, |_| true).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn occupancy_tracking_and_bound() {
        let mut s = Stash::new();
        for i in 0..5 {
            s.insert(block(i, 0));
        }
        take(&mut s, 5, |_| true);
        assert_eq!(s.len(), 0);
        assert_eq!(s.max_occupancy(), 5);
        assert!(s.check_bound(5).is_ok());
        for i in 0..6 {
            s.insert(block(i, 0));
        }
        assert_eq!(
            s.check_bound(5),
            Err(OramError::StashOverflow {
                occupancy: 6,
                bound: 5
            })
        );
    }
}
