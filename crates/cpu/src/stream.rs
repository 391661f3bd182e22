//! Deterministic LLC-miss stream generation.
//!
//! Turns a [`WorkloadSpec`] into a concrete sequence of [`MissEvent`]s:
//! each event carries the compute gap since the previous miss, the fill
//! address, and (for a fraction of events) a dirty write-back address.
//!
//! Address generation mixes two regimes, weighted by the spec's
//! `spatial_locality`:
//!
//! * **sequential runs** — the next miss is the next 64 B block, the
//!   behaviour that produces row-buffer hits in streaming codes;
//! * **reuse jumps** — a Zipf-distributed draw over the working set,
//!   modelling hot-set reuse and pointer chasing.
//!
//! Write-backs are drawn from a bounded history of recently filled blocks:
//! a block must have been brought in (and dirtied) before it can be
//! evicted, which keeps the write-back stream plausibly correlated with
//! the fill stream the way real LLC victims are.

use obfusmem_mem::request::BlockAddr;
use obfusmem_sim::rng::{SplitMix64, Zipf};
use obfusmem_sim::time::Duration;

use crate::workload::WorkloadSpec;

/// One LLC-miss event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// Compute time since the previous miss.
    pub gap: Duration,
    /// Block the LLC fills from memory.
    pub fill: BlockAddr,
    /// Dirty victim written back alongside this miss, if any.
    pub writeback: Option<BlockAddr>,
}

/// Deterministic generator of [`MissEvent`]s for a workload.
#[derive(Debug)]
pub struct MissStream {
    spec: WorkloadSpec,
    rng: SplitMix64,
    zipf: Zipf,
    cursor_block: u64,
    run_remaining: u64,
    /// Recently filled blocks eligible to become dirty write-backs.
    history: Vec<BlockAddr>,
    history_cap: usize,
    base_block: u64,
}

impl MissStream {
    /// Creates a stream for `spec` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate();
        let mut rng = SplitMix64::new(seed ^ SEED_SALT);
        let zipf_domain = (spec.working_set_blocks.min(1 << 20)) as usize;
        let zipf = Zipf::new(zipf_domain, spec.zipf_exponent);
        let start = rng.below(spec.working_set_blocks);
        MissStream {
            zipf,
            cursor_block: start,
            run_remaining: 0,
            history: Vec::new(),
            history_cap: 4096,
            base_block: 0,
            rng,
            spec,
        }
    }

    /// The workload driving this stream.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_fill_block(&mut self) -> u64 {
        if self.run_remaining > 0 {
            self.run_remaining -= 1;
            self.cursor_block = (self.cursor_block + 1) % self.spec.working_set_blocks;
            return self.cursor_block;
        }
        if self.rng.chance(self.spec.spatial_locality) {
            // Start (or continue) a sequential run; geometric run lengths
            // give a mix of short and long streams.
            self.run_remaining = 2 + self.rng.geometric(0.2).min(64);
            self.cursor_block = (self.cursor_block + 1) % self.spec.working_set_blocks;
        } else {
            // Reuse jump: Zipf rank scattered over the working set so hot
            // blocks are spread across rows/banks rather than clustered.
            let rank = self.zipf.sample(&mut self.rng) as u64;
            self.cursor_block =
                (rank.wrapping_mul(0x9E3779B97F4A7C15) >> 16) % self.spec.working_set_blocks;
        }
        self.cursor_block
    }

    /// Generates the next miss event.
    pub fn next_event(&mut self) -> MissEvent {
        let gap_ns = self.rng.exponential(self.spec.avg_gap_ns);
        let gap = Duration::from_ns_f64(gap_ns.min(self.spec.avg_gap_ns * 20.0));
        let block = self.next_fill_block();
        let fill = BlockAddr::from_index(self.base_block + block);

        // Draw the victim before recording the current fill so a block can
        // only be written back after it was brought in by an earlier miss.
        let writeback = if !self.rng.chance(self.spec.read_fraction) && !self.history.is_empty() {
            let idx = self.rng.below(self.history.len() as u64) as usize;
            Some(self.history[idx])
        } else {
            None
        };

        if self.history.len() < self.history_cap {
            self.history.push(fill);
        } else {
            let slot = self.rng.below(self.history_cap as u64) as usize;
            self.history[slot] = fill;
        }
        MissEvent {
            gap,
            fill,
            writeback,
        }
    }

    /// Collects the next `n` events.
    pub fn take_events(&mut self, n: usize) -> Vec<MissEvent> {
        (0..n).map(|_| self.next_event()).collect()
    }
}

/// Domain-separation salt so a user seed drives independent bits here and
/// in other seeded components.
const SEED_SALT: u64 = 0x0BF0_5A1E_D5EE_D001;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::micro_test_workload;
    use obfusmem_mem::request::BLOCK_BYTES;
    use obfusmem_testkit as proptest;

    fn stream(seed: u64) -> MissStream {
        MissStream::new(micro_test_workload(), seed)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = stream(1).take_events(100);
        let b = stream(1).take_events(100);
        assert_eq!(a, b);
        let c = stream(2).take_events(100);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let mut s = stream(3);
        let limit = micro_test_workload().working_set_blocks;
        for e in s.take_events(10_000) {
            assert!(e.fill.index() < limit);
        }
    }

    #[test]
    fn mean_gap_is_close_to_spec() {
        let mut s = stream(4);
        let n = 50_000;
        let total: u64 = s.take_events(n).iter().map(|e| e.gap.as_ps()).sum();
        let mean_ns = total as f64 / n as f64 / 1000.0;
        let target = micro_test_workload().avg_gap_ns;
        assert!(
            (mean_ns - target).abs() / target < 0.05,
            "mean gap {mean_ns} vs target {target}"
        );
    }

    #[test]
    fn writeback_fraction_tracks_read_fraction() {
        let mut s = stream(5);
        let n = 50_000;
        let wbs = s
            .take_events(n)
            .iter()
            .filter(|e| e.writeback.is_some())
            .count();
        let frac = wbs as f64 / n as f64;
        let expected = 1.0 - micro_test_workload().read_fraction;
        assert!(
            (frac - expected).abs() < 0.02,
            "writeback fraction {frac} vs {expected}"
        );
    }

    #[test]
    fn sequential_runs_exist() {
        let mut s = stream(6);
        let events = s.take_events(10_000);
        let sequential = events
            .windows(2)
            .filter(|w| w[1].fill.as_u64() == w[0].fill.as_u64() + BLOCK_BYTES as u64)
            .count();
        assert!(
            sequential > 2_000,
            "expected plenty of sequential pairs, got {sequential}"
        );
    }

    #[test]
    fn writebacks_come_from_previously_filled_blocks() {
        let mut s = stream(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let e = s.next_event();
            if let Some(wb) = e.writeback {
                assert!(seen.contains(&wb), "write-back of a never-filled block");
            }
            seen.insert(e.fill);
        }
    }

    #[test]
    fn events_do_not_depend_on_the_zipf_memo_state() {
        // The Zipf table is memoized per thread: the first stream on a
        // fresh thread builds it, the next reuses it, and a stream of a
        // spec with another exponent evicts it. Every stream must draw
        // the events it draws on a fresh thread.
        let spec = micro_test_workload();
        let other = WorkloadSpec {
            zipf_exponent: 1.1,
            ..micro_test_workload()
        };
        let events = |spec: &WorkloadSpec| MissStream::new(spec.clone(), 11).take_events(10_000);
        let cold = |spec: &WorkloadSpec| {
            let spec = spec.clone();
            std::thread::spawn(move || events(&spec)).join().unwrap()
        };
        let (spec_cold, other_cold) = (cold(&spec), cold(&other));
        assert_ne!(spec_cold, other_cold, "the exponent must matter");
        assert_eq!(events(&spec), spec_cold, "first stream on this thread");
        assert_eq!(events(&spec), spec_cold, "warm memo");
        assert_eq!(events(&other), other_cold, "evicting stream");
        assert_eq!(events(&spec), spec_cold, "rebuilt after eviction");
    }

    proptest::proptest! {
        #[test]
        fn gaps_are_positive_and_bounded(seed: u64) {
            let mut s = stream(seed);
            let spec_gap = micro_test_workload().avg_gap_ns;
            for e in s.take_events(200) {
                let ns = e.gap.as_ns_f64();
                proptest::prop_assert!(ns >= 0.0 && ns <= spec_gap * 20.0 + 1.0);
            }
        }
    }
}
