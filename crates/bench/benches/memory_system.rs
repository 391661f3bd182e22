//! Memory-system microbenchmarks: the FR-FCFS controller under mixed and
//! ORAM-path batches, plus the per-point workload setup that precedes a
//! simulation.

use obfusmem_bench::quick::{Criterion, Throughput};
use obfusmem_bench::{criterion_group, criterion_main};
use obfusmem_cpu::stream::MissStream;
use obfusmem_cpu::workload::by_name;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::device::PcmMemory;
use obfusmem_mem::request::{AccessKind, BlockAddr};
use obfusmem_sim::rng::{SplitMix64, Zipf};
use obfusmem_sim::time::Time;

fn bench_scheduler(c: &mut Criterion) {
    use obfusmem_mem::scheduler::FrFcfsScheduler;
    let mut group = c.benchmark_group("fr_fcfs");
    group.throughput(Throughput::Elements(32));
    group.bench_function("batch_of_32_mixed", |b| {
        b.iter(|| {
            let mut s = FrFcfsScheduler::new(MemConfig::table2());
            for i in 0..32u64 {
                let addr = if i % 3 == 0 { (i / 3) << 24 } else { i * 64 };
                s.enqueue(Time::from_ps(i * 2_000), addr, AccessKind::Read);
            }
            s.run_until(Time::from_ps(10_000_000_000));
            std::hint::black_box(s.take_completions().len())
        })
    });

    // One steady-state co-designed Path ORAM read at L=12 on Table 2's
    // single channel: 88 slot reads (data path + posmap levels) batched
    // through the FR-FCFS queues, then 88 posted write-backs.
    group.throughput(Throughput::Elements(1));
    group.bench_function("codesign_access_l12", |b| {
        use obfusmem_cpu::core::MemoryBackend;
        use obfusmem_oram::codesign::CodesignOram;
        use obfusmem_oram::path_oram::OramConfig;
        let geometry = OramConfig {
            levels: 12,
            bucket_size: 4,
            blocks: 4096,
        };
        let mut oram = CodesignOram::new(geometry, MemConfig::table2(), 7).expect("geometry");
        let mut rng = SplitMix64::new(3);
        let mut t = Time::ZERO;
        for _ in 0..64 {
            t = oram.read(t, BlockAddr::from_index(rng.below(4096)));
        }
        b.iter(|| {
            t = oram.read(t, BlockAddr::from_index(rng.below(4096)));
            std::hint::black_box(t)
        })
    });

    // The same shape at the device: a batch of 88 path-slot reads that
    // must get past the previous batch's 88 posted writes.
    group.throughput(Throughput::Elements(88));
    group.bench_function("path_batch_88_plus_posted", |b| {
        let mut mem = PcmMemory::new(MemConfig::table2().with_backend(BackendKind::Queued));
        let mut rng = SplitMix64::new(5);
        let mut t = Time::ZERO;
        b.iter(|| {
            let addrs = path_slots(rng.below(1 << 12));
            let done = mem
                .access_batch(t, &addrs, AccessKind::Read)
                .iter()
                .fold(t, |acc, r| acc.max(r.complete_at));
            for &a in &addrs {
                mem.access_posted(done, a, AccessKind::Write);
            }
            t = done;
            std::hint::black_box(t)
        })
    });
    group.finish();
}

/// The 88 slot addresses of one L=12 co-designed access: the data path
/// (13 buckets of 4) plus a 9-bucket posmap path in its own region.
fn path_slots(leaf: u64) -> Vec<u64> {
    const POSMAP_BASE: u64 = 1 << 20;
    let mut addrs = Vec::with_capacity(88);
    for (base, levels) in [(0u64, 12u32), (POSMAP_BASE, 8)] {
        let mut node = (1u64 << levels) - 1 + leaf % (1 << levels);
        loop {
            addrs.extend((0..4).map(|slot| base + (node * 4 + slot) * 64));
            if node == 0 {
                break;
            }
            node = (node - 1) / 2;
        }
    }
    addrs
}

fn bench_workload(c: &mut Criterion) {
    const N: usize = 1 << 20;
    let mut group = c.benchmark_group("workload");
    group.bench_function("zipf_new_cold", |b| {
        // Two keys in turn: every call misses the one-entry memo.
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            Zipf::new(N, if toggle { 0.9 } else { 1.1 }).len()
        })
    });
    group.bench_function("zipf_new_hit", |b| b.iter(|| Zipf::new(N, 0.9).len()));
    group.bench_function("miss_stream_new_bwaves", |b| {
        let bwaves = by_name("bwaves").expect("Table 1 workload");
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            MissStream::new(bwaves.clone(), seed).next_event()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_workload, bench_scheduler);
criterion_main!(benches);
