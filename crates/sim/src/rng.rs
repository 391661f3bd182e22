//! Deterministic pseudo-randomness for simulations.
//!
//! All stochastic behaviour in the reproduction — workload address streams,
//! ORAM leaf assignment, dummy scheduling jitter — flows through
//! [`SplitMix64`], so a `(seed, config)` pair fully determines every result
//! in `EXPERIMENTS.md`.

use std::cell::RefCell;
use std::sync::Arc;

/// SplitMix64 PRNG (Steele, Lea, Flood 2014). Tiny state, passes BigCrush
/// when used as a 64-bit generator, and splits cleanly into independent
/// streams — one per simulated component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child stream (for a named subcomponent).
    pub fn split(&mut self, label: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ label.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Derives an independent child stream from a string label (FNV-1a
    /// hashed into [`SplitMix64::split`]).
    ///
    /// This is how the sweep harness seeds jobs: a fresh generator is
    /// built from the master seed and split once on the job's stable id,
    /// so the derived stream depends only on `(master_seed, label)` —
    /// never on scheduling order — and any job reproduces standalone.
    pub fn split_named(&mut self, label: &str) -> SplitMix64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.split(h)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Geometric number of failures before a success with probability `p`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric probability out of range");
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.next_f64();
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// A Zipf-distributed sampler over ranks `0..n` (rank 0 most popular).
///
/// Workload generators use this for temporal locality: a small hot set
/// absorbs most accesses, matching the reuse behaviour that lets caches
/// filter most SPEC traffic.
///
/// The CDF is shared by `Arc`: clones, and samplers built on the same
/// thread for the same `(n, s)` back to back, reuse one table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

/// A CDF with its key, `(n, s.to_bits())`.
type KeyedCdf = (usize, u64, Arc<[f64]>);

thread_local! {
    /// The last CDF this thread built. One entry bounds the memo to a
    /// single table, usually the one a live sampler already holds.
    static LAST_CDF: RefCell<Option<KeyedCdf>> = const { RefCell::new(None) };
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s` (s = 0 is
    /// uniform; s ≈ 1 is classic Zipf).
    ///
    /// The table is a pure function of `(n, s)`, so a call with the same
    /// key as this thread's previous build returns that table instead of
    /// rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let key = s.to_bits();
        let cdf = LAST_CDF.with(|last| {
            let mut last = last.borrow_mut();
            match &*last {
                Some((ln, ls, cdf)) if (*ln, *ls) == (n, key) => return Arc::clone(cdf),
                // Release the old table before building, so two never coexist.
                _ => *last = None,
            }
            let cdf = build_cdf(n, s);
            *last = Some((n, key, Arc::clone(&cdf)));
            cdf
        });
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the domain has a single rank.
    pub fn is_empty(&self) -> bool {
        false // construction rejects n == 0
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The normalized running sum of `1 / k^s` for `k in 1..=n`, collected
/// straight into its one allocation and divided in place.
fn build_cdf(n: usize, s: f64) -> Arc<[f64]> {
    let mut total = 0.0;
    let mut cdf: Arc<[f64]> = (1..=n)
        .map(|k| {
            total += 1.0 / (k as f64).powf(s);
            total
        })
        .collect();
    for v in Arc::get_mut(&mut cdf).expect("a fresh table is unshared") {
        *v /= total;
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn split_streams_diverge() {
        let mut root = SplitMix64::new(7);
        let mut x = root.split(1);
        let mut y = root.split(2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn split_streams_with_distinct_labels_are_independent() {
        // Per-job seeding builds a fresh parent from the master seed and
        // splits once on a distinct label. Over 10^5 draws per child, the
        // streams must share no values — if label mixing were weak (e.g.
        // nearby labels mapping to nearby states), SplitMix64's
        // counter-based structure would make the streams overlap as
        // shifted copies of each other, and this test would light up.
        use std::collections::HashSet;
        const N: usize = 100_000;
        let master = 0x0B_F0_5E_ED;
        let draws = |label: u64| -> Vec<u64> {
            let mut child = SplitMix64::new(master).split(label);
            (0..N).map(|_| child.next_u64()).collect()
        };
        let mut seen: HashSet<u64> = HashSet::with_capacity(4 * N);
        for label in [0u64, 1, 2, u64::MAX] {
            for v in draws(label) {
                assert!(
                    seen.insert(v),
                    "collision across child streams (label {label})"
                );
            }
        }
    }

    #[test]
    fn split_named_depends_only_on_parent_state_and_label() {
        // Order-independence: deriving "job-b" must not be affected by
        // whether "job-a" was derived first from a *fresh* parent.
        let derive = |label: &str| SplitMix64::new(42).split_named(label).next_u64();
        let b_alone = derive("job-b");
        let mut parent = SplitMix64::new(42);
        let _a = parent.split_named("job-a"); // advances `parent`, not the recipe
        assert_eq!(SplitMix64::new(42).split_named("job-b").next_u64(), b_alone);
        assert_ne!(
            derive("job-a"),
            b_alone,
            "distinct labels give distinct streams"
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = SplitMix64::new(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SplitMix64::new(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(50.0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 50.0).abs() < 1.0,
            "sample mean {mean} too far from 50"
        );
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = SplitMix64::new(5);
        let p: f64 = 0.25;
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.geometric(p) as f64).sum();
        let mean = sum / n as f64;
        let expected = (1.0 - p) / p; // 3.0
        assert!(
            (mean - expected).abs() < 0.1,
            "sample mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(6);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut r = SplitMix64::new(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let zipf = Zipf::new(10, 0.0);
        let mut r = SplitMix64::new(8);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "count {c} not near uniform 10k"
            );
        }
    }

    /// The plain build loop, with no memo and no `Arc`: the oracle every
    /// table `Zipf::new` returns must match bit for bit.
    fn reference_cdf(n: usize, s: f64) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in cdf.iter_mut() {
            *v /= total;
        }
        cdf
    }

    fn assert_bits_match_reference(zipf: &Zipf, n: usize, s: f64) {
        let bits = |cdf: &[f64]| cdf.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&zipf.cdf),
            bits(&reference_cdf(n, s)),
            "zipf({n}, {s}) differs from the reference CDF"
        );
    }

    #[test]
    fn memoized_tables_match_reference_on_miss_hit_and_eviction() {
        let (a, b) = ((4096, 0.9), (3000, 1.2));
        let cold = Zipf::new(a.0, a.1);
        assert_bits_match_reference(&cold, a.0, a.1);
        let hit = Zipf::new(a.0, a.1);
        assert_bits_match_reference(&hit, a.0, a.1);
        let evicting = Zipf::new(b.0, b.1);
        assert_bits_match_reference(&evicting, b.0, b.1);
        let rebuilt = Zipf::new(a.0, a.1);
        assert_bits_match_reference(&rebuilt, a.0, a.1);
        assert!(!Arc::ptr_eq(&evicting.cdf, &rebuilt.cdf));
    }

    #[test]
    fn a_hit_shares_storage_and_a_different_exponent_does_not() {
        let first = Zipf::new(2048, 0.8);
        let hit = Zipf::new(2048, 0.8);
        assert!(Arc::ptr_eq(&first.cdf, &hit.cdf), "same key must share");
        let other_s = Zipf::new(2048, 0.8 + f64::EPSILON);
        assert!(
            !Arc::ptr_eq(&first.cdf, &other_s.cdf),
            "a key differing only in s must not share"
        );
        assert_bits_match_reference(&other_s, 2048, 0.8 + f64::EPSILON);
        let other_n = Zipf::new(2047, 0.8 + f64::EPSILON);
        assert!(!Arc::ptr_eq(&other_s.cdf, &other_n.cdf));
        assert_bits_match_reference(&other_n, 2047, 0.8 + f64::EPSILON);
    }

    #[test]
    fn tables_built_on_other_threads_sample_the_same_sequence() {
        let draws = |zipf: &Zipf| {
            let mut r = SplitMix64::new(9);
            (0..10_000).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
        };
        let here = draws(&Zipf::new(1 << 14, 1.1));
        let there = std::thread::spawn(move || draws(&Zipf::new(1 << 14, 1.1)))
            .join()
            .unwrap();
        assert_eq!(here, there);
    }

    proptest::proptest! {
        #[test]
        fn memoized_table_is_bit_identical_to_reference(n in 1usize..5000, s in 0.0f64..2.0) {
            assert_bits_match_reference(&Zipf::new(n, s), n, s);
            assert_bits_match_reference(&Zipf::new(n, 2.0), n, 2.0);
        }

        #[test]
        fn below_always_in_range(seed: u64, bound in 1u64..) {
            let mut r = SplitMix64::new(seed);
            proptest::prop_assert!(r.below(bound) < bound);
        }

        #[test]
        fn zipf_sample_in_domain(seed: u64, n in 1usize..500) {
            let zipf = Zipf::new(n, 0.8);
            let mut r = SplitMix64::new(seed);
            proptest::prop_assert!(zipf.sample(&mut r) < n);
        }
    }
}
