//! Order statistics for repeated host-time samples.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples summarised.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`. Quartiles follow Python's
    /// `statistics.quantiles(data, n=4)` (the "exclusive" method), so a
    /// Python script over the same samples prints the same numbers.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set: every metric has at least one
    /// measurement.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary {
            median: median(&sorted),
            q1,
            q3,
            n: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Per-call host latencies in fixed buckets, so a pass of millions of
/// calls keeps a fixed footprint: 1 ns wide below 2048 ns, 32 ns wide
/// above, and the last bucket collects everything past about 264 µs.
#[derive(Debug, Clone)]
pub struct CallHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

const FINE_NS: u64 = 2048;
const COARSE_NS: u64 = 32;
const COARSE_BUCKETS: u64 = 8192;

impl Default for CallHist {
    fn default() -> Self {
        CallHist {
            buckets: vec![0; (FINE_NS + COARSE_BUCKETS) as usize],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl CallHist {
    /// Records one call.
    pub fn record(&mut self, ns: u64) {
        let i = if ns < FINE_NS {
            ns
        } else {
            FINE_NS + ((ns - FINE_NS) / COARSE_NS).min(COARSE_BUCKETS - 1)
        };
        self.buckets[i as usize] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Adds `other`'s calls.
    pub fn merge(&mut self, other: &CallHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Calls recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Summed nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean nanoseconds per call (0 with no calls).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q` quantile, as its bucket's lower edge (0 with
    /// no calls).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let i = i as u64;
                return if i < FINE_NS {
                    i as f64
                } else {
                    (FINE_NS + (i - FINE_NS) * COARSE_NS) as f64
                };
            }
        }
        0.0
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted data, Python's exclusive method.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 6.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.5, 4.5, 4.5, 1));
        assert_eq!(s.rel_iqr(), 0.0);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]);
        assert!((s.rel_iqr() - (10.5 - 9.5) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn call_histogram_quantiles_are_exact_below_2048_ns() {
        let mut h = CallHist::default();
        assert_eq!((h.mean(), h.quantile(0.99)), (0.0, 0.0));
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.mean(), 50.5);
        let mut far = CallHist::default();
        far.record(5_000);
        far.record(10_000_000);
        h.merge(&far);
        assert_eq!(h.count(), 102);
        assert_eq!(h.sum_ns(), 5050 + 5_000 + 10_000_000);
        // 5000 ns lands in the 32 ns bucket starting at 4992.
        assert_eq!(far.quantile(0.5), 4992.0);
        // Far outliers collect in the last bucket.
        assert_eq!(far.quantile(1.0), (2048 + 8191 * 32) as f64);
    }
}
