//! Deterministic event queue.
//!
//! A binary min-heap keyed on `(time, sequence)`, where the sequence
//! number is a monotonically increasing push counter. Events scheduled
//! for the same instant therefore pop in FIFO order, which keeps
//! multi-channel simulations deterministic regardless of heap internals.
//! The queue's one user, `core::link`'s ARQ, builds a fresh queue per
//! delivery and holds only a handful of events in it, so a plain heap
//! with the payload carried inline is all the structure it needs.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::Time;

/// A pending event, ordered by `(at, seq)` alone; the payload never takes
/// part in comparisons.
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A time-ordered queue of simulation events.
///
/// # Example
///
/// ```
/// use obfusmem_sim::event::EventQueue;
/// use obfusmem_sim::time::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ps(5), 'b');
/// q.push(Time::from_ps(5), 'c');
/// q.push(Time::from_ps(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last popped time (events cannot be
    /// scheduled in the past — that would make results order-dependent).
    pub fn push(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {now}",
            now = self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.next_seq,
            payload,
        }));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use obfusmem_testkit as proptest;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), 3);
        q.push(Time::from_ps(10), 1);
        q.push(Time::from_ps(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ps(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_ps(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_ps(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ps(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(42), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ps(42));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(100), ());
        q.pop();
        q.push(Time::from_ps(50), ());
    }

    #[test]
    fn empty_queue_is_inert() {
        let mut q = EventQueue::<u32>::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(q.now() + Duration::from_ps(5), "b");
        q.push(q.now() + Duration::from_ps(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn churn_pops_each_pair_in_push_order() {
        let mut q = EventQueue::new();
        // Churn far more events through than are ever pending at once.
        for round in 0..1_000u64 {
            q.push(Time::from_ps(round), round);
            q.push(Time::from_ps(round), round + 1);
            assert_eq!(q.pop(), Some((Time::from_ps(round), round)));
            assert_eq!(q.pop(), Some((Time::from_ps(round), round + 1)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_wait_behind_near_ones() {
        let mut q = EventQueue::new();
        // A refresh-timer-style outlier far in the future, plus a dense
        // near-term band.
        q.push(Time::from_ps(1 << 44), "refresh");
        for i in 0..100u64 {
            q.push(Time::from_ps(10 + i * 3), "near");
        }
        assert_eq!(q.peek_time(), Some(Time::from_ps(10)));
        let mut last = Time::ZERO;
        for _ in 0..100 {
            let (t, tag) = q.pop().unwrap();
            assert_eq!(tag, "near");
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.pop(), Some((Time::from_ps(1 << 44), "refresh")));
        assert!(q.is_empty());
    }

    #[test]
    fn deep_wide_queue_drains_in_order() {
        let mut q = EventQueue::new();
        // Deep queue spread over a wide span, pushed in time order.
        for i in 0..4096u64 {
            q.push(Time::from_ps(i * 1000), i);
        }
        for i in 0..4096u64 {
            let (t, v) = q.pop().unwrap();
            assert_eq!((t, v), (Time::from_ps(i * 1000), i));
        }
    }

    proptest::proptest! {
        #[test]
        fn always_nondecreasing(times: Vec<u32>) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Time::from_ps(*t as u64), i);
            }
            let mut last = Time::ZERO;
            while let Some((t, _)) = q.pop() {
                proptest::prop_assert!(t >= last);
                last = t;
            }
        }

        #[test]
        fn matches_stable_sort_reference(times: Vec<u16>) {
            // Full ordering oracle: the queue must pop exactly the order a
            // stable sort by timestamp produces (stability = FIFO ties).
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Time::from_ps(*t as u64), i);
            }
            let mut expect: Vec<(u16, usize)> =
                times.iter().copied().zip(0..).collect();
            expect.sort_by_key(|&(t, _)| t);
            for (t, i) in expect {
                let (at, got) = q.pop().unwrap();
                proptest::prop_assert_eq!(at, Time::from_ps(t as u64));
                proptest::prop_assert_eq!(got, i);
            }
            proptest::prop_assert!(q.pop().is_none());
        }

        #[test]
        fn equal_timestamps_pop_fifo(seed: u32) {
            // Heavy tie pressure: many bursts at identical instants,
            // interleaved with pops, must come back in push order.
            let t = Time::from_ps(1 + (seed as u64 % 13));
            let mut q = EventQueue::new();
            let burst = 3 + (seed as usize % 6);
            let mut pushed = 0usize;
            let mut popped = 0usize;
            for _ in 0..10 {
                for _ in 0..burst {
                    q.push(t, pushed);
                    pushed += 1;
                }
                // Drain half of what's pending, checking FIFO as we go.
                for _ in 0..q.len() / 2 {
                    let (at, got) = q.pop().unwrap();
                    proptest::prop_assert_eq!(at, t);
                    proptest::prop_assert_eq!(got, popped);
                    popped += 1;
                }
            }
            while let Some((_, got)) = q.pop() {
                proptest::prop_assert_eq!(got, popped);
                popped += 1;
            }
            proptest::prop_assert_eq!(popped, pushed);
        }

        #[test]
        fn differential_shadow_against_sorted_reference(seed: u64, gaps: Vec<u16>) {
            // A Vec kept sorted by time, each push inserted after every
            // pending event at the same or an earlier time, is a
            // trivially correct FIFO-tie queue; the heap must agree with
            // it pop for pop across interleaved push/pop churn,
            // including far-future outliers.
            let mut rng = proptest::TestRng::for_case("shadow", seed as u32);
            let mut q = EventQueue::new();
            let mut shadow: Vec<(Time, usize)> = Vec::new();
            for (id, gap) in gaps.into_iter().enumerate() {
                // Mostly near-future, occasionally very far out.
                let horizon = if gap % 7 == 0 { 1u64 << 40 } else { 2_000 };
                let at = q.now() + Duration::from_ps(gap as u64 % 3 + rng.below(horizon));
                q.push(at, id);
                let pos = shadow.partition_point(|&(t, _)| t <= at);
                shadow.insert(pos, (at, id));
                if rng.below(3) == 0 {
                    let want = (!shadow.is_empty()).then(|| shadow.remove(0));
                    proptest::prop_assert_eq!(q.pop(), want);
                }
                proptest::prop_assert_eq!(q.len(), shadow.len());
                proptest::prop_assert_eq!(q.peek_time(), shadow.first().map(|&(t, _)| t));
            }
            for want in shadow {
                proptest::prop_assert_eq!(q.pop(), Some(want));
            }
            proptest::prop_assert!(q.pop().is_none());
        }
    }
}
