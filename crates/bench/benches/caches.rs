//! Cache-hierarchy microbenchmarks.

use obfusmem_bench::quick::{Criterion, Throughput};
use obfusmem_bench::{criterion_group, criterion_main};
use obfusmem_cache::cache::{Cache, CacheOp};
use obfusmem_cache::config::{CacheConfig, HierarchyConfig};
use obfusmem_cache::hierarchy::CacheHierarchy;
use obfusmem_sim::rng::SplitMix64;

fn bench_single_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("l1_hit", |b| {
        let mut cache = Cache::new(CacheConfig::l1());
        cache.access(0x40, CacheOp::Read);
        b.iter(|| std::hint::black_box(cache.access(0x40, CacheOp::Read).hit))
    });
    group.bench_function("l3_random_mix", |b| {
        let mut cache = Cache::new(CacheConfig::l3());
        let mut rng = SplitMix64::new(1);
        b.iter(|| {
            let addr = rng.below(1 << 26);
            std::hint::black_box(cache.access(addr, CacheOp::Read).hit)
        })
    });
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hot_set_access", |b| {
        let mut h = CacheHierarchy::new(HierarchyConfig::table2());
        let mut rng = SplitMix64::new(2);
        b.iter(|| {
            let addr = rng.below(256) * 64;
            std::hint::black_box(h.access(0, addr, CacheOp::Read).latency_cycles)
        })
    });
    group.bench_function("streaming_access", |b| {
        let mut h = CacheHierarchy::new(HierarchyConfig::table2());
        let mut i = 0u64;
        b.iter(|| {
            i += 64;
            std::hint::black_box(h.access(0, i, CacheOp::Read).latency_cycles)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_cache, bench_hierarchy);
criterion_main!(benches);
