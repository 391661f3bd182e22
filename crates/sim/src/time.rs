//! Simulated time: picosecond instants, durations, and clock domains.
//!
//! The simulated machine mixes several clocks — 2 GHz cores (500 ps), the
//! 800 MHz DDR bus (1250 ps), the 250 MHz AES pipeline (4 ns), and analog
//! timing constraints like tCL = 13.75 ns. Picosecond resolution represents
//! all of them exactly in integers, keeping the simulator deterministic
//! (no floating-point time).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (picoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Constructs from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Raw picoseconds since start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time since start as (truncating) nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Elapsed duration since `earlier` (saturating at zero).
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants. Inlined across crates: the schedulers
    /// and channels take it on every request, where a call costs more
    /// than the comparison.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1000)
    }

    /// Constructs from a fractional nanosecond count (e.g. tCL = 13.75 ns),
    /// rounding to the nearest picosecond.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns >= 0.0 && ns.is_finite(),
            "duration must be a finite non-negative value"
        );
        Duration((ns * 1000.0).round() as u64)
    }

    /// Picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Truncating nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Exact nanoseconds as a float (for reporting only).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Scales the duration by an integer factor.
    pub const fn times(self, n: u64) -> Duration {
        Duration(self.0 * n)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.0 as f64 / 1000.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.0 as f64 / 1000.0)
    }
}

/// A clock domain: converts between cycle counts and picoseconds.
///
/// # Example
///
/// ```
/// use obfusmem_sim::time::Clock;
///
/// let core = Clock::from_mhz(2000);
/// assert_eq!(core.period().as_ps(), 500);
/// assert_eq!(core.cycles_to_duration(17).as_ps(), 8500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// A clock with the given frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or does not divide 10^6 ps evenly (all the
    /// paper's clocks do; this keeps the simulation exact).
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be nonzero");
        assert_eq!(
            1_000_000 % mhz,
            0,
            "clock period must be an integer picosecond count"
        );
        Clock {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// One cycle as a duration.
    pub fn period(self) -> Duration {
        Duration(self.period_ps)
    }

    /// `cycles` as a duration.
    pub fn cycles_to_duration(self, cycles: u64) -> Duration {
        Duration(self.period_ps * cycles)
    }

    /// Number of *complete* cycles in `d`.
    pub fn duration_to_cycles(self, d: Duration) -> u64 {
        d.as_ps() / self.period_ps
    }

    /// Rounds `t` up to the next edge of this clock.
    pub fn next_edge(self, t: Time) -> Time {
        let rem = t.0 % self.period_ps;
        if rem == 0 {
            t
        } else {
            Time(t.0 + self.period_ps - rem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Duration::from_ns(5);
        assert_eq!(t.as_ps(), 5000);
        assert_eq!(t.since(Time::ZERO), Duration::from_ns(5));
        assert_eq!(Time::from_ps(100).since(Time::from_ps(300)), Duration::ZERO);
    }

    #[test]
    fn fractional_ns() {
        assert_eq!(Duration::from_ns_f64(13.75).as_ps(), 13_750);
        assert_eq!(Duration::from_ns_f64(0.0), Duration::ZERO);
    }

    #[test]
    fn clock_domains_from_the_paper() {
        assert_eq!(Clock::from_mhz(2000).period().as_ps(), 500); // core
        assert_eq!(Clock::from_mhz(800).period().as_ps(), 1250); // DDR bus
        assert_eq!(Clock::from_mhz(250).period().as_ps(), 4000); // AES
    }

    #[test]
    fn next_edge_alignment() {
        let c = Clock::from_mhz(800);
        assert_eq!(c.next_edge(Time::from_ps(0)), Time::from_ps(0));
        assert_eq!(c.next_edge(Time::from_ps(1)), Time::from_ps(1250));
        assert_eq!(c.next_edge(Time::from_ps(1250)), Time::from_ps(1250));
        assert_eq!(c.next_edge(Time::from_ps(2501)), Time::from_ps(3750));
    }

    #[test]
    fn cycle_conversion_round_trips() {
        let c = Clock::from_mhz(2000);
        for n in [0u64, 1, 17, 1_000_000] {
            assert_eq!(c.duration_to_cycles(c.cycles_to_duration(n)), n);
        }
    }

    #[test]
    #[should_panic(expected = "integer picosecond")]
    fn rejects_inexact_frequencies() {
        let _ = Clock::from_mhz(3000); // 333.33… ps period
    }

    proptest::proptest! {
        #[test]
        fn since_is_inverse_of_add(start: u32, delta: u32) {
            let t0 = Time::from_ps(start as u64);
            let d = Duration::from_ps(delta as u64);
            proptest::prop_assert_eq!((t0 + d).since(t0), d);
        }
    }
}
