//! A minimal, dependency-free stand-in for the slice of Criterion's API
//! the benches use.
//!
//! The build environment has no network access, so Criterion cannot be a
//! dependency. This module keeps the bench sources almost unchanged:
//! groups, `bench_function`, throughput annotation, and the
//! `criterion_group!`/`criterion_main!` macros (exported from the
//! crate root). Measurement is wall-clock batching — grow the batch until
//! it is long enough to time reliably, then repeat batches for a fixed
//! budget and report mean ns/iter plus derived throughput.
//!
//! Run with `cargo bench -p obfusmem-bench`; pass a substring argument to
//! filter benchmark ids, e.g. `cargo bench -p obfusmem-bench -- aes`.

use std::time::{Duration, Instant};

/// Work per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Top-level benchmark driver (substring filter from the command line).
#[derive(Debug, Clone)]
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group; ids print as `group/benchmark`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup {
        BenchGroup {
            name: name.into(),
            filter: self.filter.clone(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a throughput annotation.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    filter: Option<String>,
    throughput: Option<Throughput>,
}

impl BenchGroup {
    /// Sets the per-iteration work for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id.into());
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            iters: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        println!("{}", b.report(&full, self.throughput));
    }

    /// Ends the group (spacing line, matching Criterion's call shape).
    pub fn finish(self) {
        println!();
    }
}

/// Hands the measured closure to the timing loop.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

/// Batch must run at least this long to be timed reliably.
const MIN_BATCH: Duration = Duration::from_millis(4);
/// Total measurement budget per benchmark.
const BUDGET: Duration = Duration::from_millis(60);

impl Bencher {
    /// Times `f`, batching adaptively. The closure's result is
    /// `black_box`ed so the work is not optimized away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let mut batch: u64 = 1;
        let batch_time = loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= MIN_BATCH || batch >= 1 << 28 {
                break dt;
            }
            batch = batch.saturating_mul(4);
        };
        let mut total = batch_time;
        let mut iters = batch;
        while total < BUDGET {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            total += t0.elapsed();
            iters += batch;
        }
        self.iters = iters;
        self.elapsed = total;
    }

    fn report(&self, id: &str, throughput: Option<Throughput>) -> String {
        if self.iters == 0 {
            return format!("{id:<44} (no measurement: bencher.iter was never called)");
        }
        let ns = self.elapsed.as_nanos() as f64 / self.iters as f64;
        let mut line = format!("{id:<44} {:>12} ns/iter", format_sig(ns));
        match throughput {
            Some(Throughput::Bytes(bytes)) => {
                let gibs = bytes as f64 / ns; // bytes/ns == GB/s
                line.push_str(&format!("   {:>8} GB/s", format_sig(gibs)));
            }
            Some(Throughput::Elements(elems)) => {
                let melems = elems as f64 * 1e3 / ns; // elems/ns → Melem/s
                line.push_str(&format!("   {:>8} Melem/s", format_sig(melems)));
            }
            None => {}
        }
        line
    }
}

/// Four significant digits, no scientific notation in the common range.
fn format_sig(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Mirrors `criterion::criterion_group!`: bundles bench functions into one
/// callable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($f:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::quick::Criterion::default();
            $( $f(&mut c); )+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut b = Bencher {
            iters: 0,
            elapsed: Duration::ZERO,
        };
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert!(b.iters > 0);
        let line = b.report("g/t", Some(Throughput::Elements(1)));
        assert!(
            line.contains("ns/iter") && line.contains("Melem/s"),
            "{line}"
        );
    }

    #[test]
    fn groups_filter_by_substring() {
        let mut c = Criterion {
            filter: Some("match-me".into()),
        };
        let mut group = c.benchmark_group("g");
        let mut ran = false;
        group.bench_function("skipped", |_| ran = true);
        assert!(!ran, "filtered benchmark must not run");
        group.bench_function("match-me", |b| {
            ran = true;
            b.iter(|| 1u64);
        });
        assert!(ran);
    }
}
