//! Inter-channel access-pattern obfuscation (paper §3.4).
//!
//! Channels use separate pins, so *which channel* services a request is
//! observable even though every packet is encrypted. With interleaved
//! address mappings that timing leaks spatial pattern. The fix is dummy
//! injection on other channels; the two schemes are:
//!
//! * **UNOPT (full replication)** — every real request triggers dummy
//!   pairs on *all* other channels; cost grows linearly with channels.
//! * **OPT (idle replication)** — dummy pairs only on channels that are
//!   idle at that instant; busy channels already carry traffic, so
//!   observers cannot tell which channel's packet was the real one
//!   (Observation 3).

use crate::config::ChannelStrategy;

/// Stateful planner with counters for the Figure 5 accounting.
#[derive(Debug)]
pub struct ChannelObfuscator {
    strategy: ChannelStrategy,
    injected: u64,
    suppressed_busy: u64,
}

impl ChannelObfuscator {
    /// Creates a planner for `strategy`.
    pub fn new(strategy: ChannelStrategy) -> Self {
        ChannelObfuscator {
            strategy,
            injected: 0,
            suppressed_busy: 0,
        }
    }

    /// The active strategy.
    pub fn strategy(&self) -> ChannelStrategy {
        self.strategy
    }

    /// Dummy pairs injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Injections suppressed because the channel was already busy
    /// (OPT's whole savings).
    pub fn suppressed_busy(&self) -> u64 {
        self.suppressed_busy
    }

    /// Decides whether channel `channel` gets a dummy pair for a real
    /// request on `real_channel`, given whether `channel` is idle at
    /// issue time and whether it is healthy. Quarantined channels
    /// (link-layer escalation) carry no traffic at all, so they are
    /// skipped *without* counting toward `suppressed_busy` — the
    /// obfuscator keeps covering every channel that still talks.
    pub fn injects(
        &mut self,
        real_channel: usize,
        channel: usize,
        idle: bool,
        healthy: bool,
    ) -> bool {
        if channel == real_channel || !healthy {
            return false;
        }
        let inject = match self.strategy {
            ChannelStrategy::None => false,
            ChannelStrategy::Unopt => true,
            ChannelStrategy::Opt => {
                self.suppressed_busy += u64::from(!idle);
                idle
            }
        };
        self.injected += u64::from(inject);
        inject
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    /// The channels a real request on `real` injects on, every channel
    /// healthy.
    fn plan(o: &mut ChannelObfuscator, real: usize, idle: &[bool]) -> Vec<usize> {
        (0..idle.len())
            .filter(|&ch| o.injects(real, ch, idle[ch], true))
            .collect()
    }

    #[test]
    fn none_never_injects() {
        let mut o = ChannelObfuscator::new(ChannelStrategy::None);
        assert!(plan(&mut o, 0, &[true, true, true, true]).is_empty());
        assert_eq!(o.injected(), 0);
    }

    #[test]
    fn unopt_injects_everywhere_else() {
        let mut o = ChannelObfuscator::new(ChannelStrategy::Unopt);
        assert_eq!(plan(&mut o, 2, &[false, false, true, false]), vec![0, 1, 3]);
        assert_eq!(o.injected(), 3);
    }

    #[test]
    fn opt_skips_busy_channels() {
        let mut o = ChannelObfuscator::new(ChannelStrategy::Opt);
        assert_eq!(plan(&mut o, 0, &[true, false, true, false]), vec![2]);
        assert_eq!(o.injected(), 1);
        assert_eq!(o.suppressed_busy(), 2);
    }

    #[test]
    fn opt_on_fully_busy_system_injects_nothing() {
        // Observation 3: at high utilization few dummies are needed.
        let mut o = ChannelObfuscator::new(ChannelStrategy::Opt);
        assert!(plan(&mut o, 1, &[false, false, false, false]).is_empty());
        assert_eq!(o.suppressed_busy(), 3);
    }

    #[test]
    fn single_channel_systems_never_inject() {
        for strategy in [
            ChannelStrategy::None,
            ChannelStrategy::Unopt,
            ChannelStrategy::Opt,
        ] {
            let mut o = ChannelObfuscator::new(strategy);
            assert!(plan(&mut o, 0, &[true]).is_empty());
        }
    }

    proptest::proptest! {
        #[test]
        fn plans_never_include_the_real_channel(
            real in 0usize..8,
            idle in proptest::collection::vec(proptest::bool::ANY, 8)
        ) {
            for strategy in [ChannelStrategy::None, ChannelStrategy::Unopt, ChannelStrategy::Opt] {
                let mut o = ChannelObfuscator::new(strategy);
                let plan = plan(&mut o, real, &idle);
                proptest::prop_assert!(!plan.contains(&real));
                proptest::prop_assert!(plan.iter().all(|&c| c < idle.len()));
            }
        }
    }

    #[test]
    fn unopt_cost_grows_linearly_with_channels() {
        for n in [2usize, 4, 8] {
            let mut o = ChannelObfuscator::new(ChannelStrategy::Unopt);
            plan(&mut o, 0, &vec![true; n]);
            assert_eq!(o.injected(), n as u64 - 1);
        }
    }
}
