//! Memory-device microbenchmarks: simulator throughput for the access
//! patterns that matter (row hits, row misses, channel parallelism), plus
//! the per-point workload setup that precedes them.

use obfusmem_bench::quick::{Criterion, Throughput};
use obfusmem_bench::{criterion_group, criterion_main};
use obfusmem_cpu::stream::MissStream;
use obfusmem_cpu::workload::by_name;
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::device::PcmMemory;
use obfusmem_mem::request::AccessKind;
use obfusmem_sim::rng::Zipf;
use obfusmem_sim::time::{Duration, Time};

fn bench_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("pcm_device");
    group.throughput(Throughput::Elements(1));

    group.bench_function("row_hit_read", |b| {
        let mut mem = PcmMemory::new(MemConfig::table2());
        let mut t = Time::ZERO;
        b.iter(|| {
            // Same row every time → hit after warmup.
            let r = mem.access(t, 0x40, AccessKind::Read);
            t = r.complete_at;
            std::hint::black_box(r.row_hit)
        })
    });

    group.bench_function("row_miss_read", |b| {
        let mut mem = PcmMemory::new(MemConfig::table2());
        let mut t = Time::ZERO;
        let mut toggle = false;
        b.iter(|| {
            // Two rows of the same bank → always a conflict miss.
            let addr = if toggle { 0u64 } else { 1 << 24 };
            toggle = !toggle;
            let r = mem.access(t, addr, AccessKind::Read);
            t = r.complete_at;
            std::hint::black_box(r.row_hit)
        })
    });

    for channels in [1usize, 4, 8] {
        group.bench_function(format!("interleaved_stream_{channels}ch"), |b| {
            let mut mem = PcmMemory::new(MemConfig::table2().with_channels(channels));
            let mut t = Time::ZERO;
            let mut i = 0u64;
            b.iter(|| {
                let r = mem.access(t, i * 1024, AccessKind::Read);
                i = (i + 1) % 4096;
                t = r.complete_at;
                std::hint::black_box(r.channel)
            })
        });
    }
    group.finish();
}

fn bench_functional_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("functional_store");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("write_then_read_block", |b| {
        let mut mem = PcmMemory::new(MemConfig::table2());
        let data = [0xEE; 64];
        let mut i = 0u64;
        b.iter(|| {
            let addr = obfusmem_mem::request::BlockAddr::from_index(i % 65536);
            i += 1;
            mem.write_block(addr, data);
            std::hint::black_box(mem.read_block(addr))
        })
    });
    group.finish();
}

fn bench_bus(c: &mut Criterion) {
    let mut group = c.benchmark_group("bus");
    group.bench_function("dummy_bus_transfer", |b| {
        let mut mem = PcmMemory::new(MemConfig::table2());
        let mut t = Time::ZERO;
        b.iter(|| {
            t = mem.bus_transfer(t, 0);
            std::hint::black_box(t)
        })
    });
    let _ = Duration::ZERO;
    group.finish();
}

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
    group.finish();
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

criterion_group!(
    benches,
    bench_workload,
    bench_device,
    bench_functional_store,
    bench_bus,
    bench_scheduler
);
criterion_main!(benches);
