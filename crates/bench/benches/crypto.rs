//! Microbenchmarks of the AES-128 engine, the software equivalent of the
//! paper's synthesized AES unit: single blocks on the active tier and on
//! the scalar reference, batches, and the key schedule.

use obfusmem_bench::quick::{Criterion, Throughput};
use obfusmem_bench::{criterion_group, criterion_main};
use obfusmem_crypto::aes::Aes128;

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes128");
    let aes = Aes128::new(&[7; 16]);
    let scalar = Aes128::new_scalar(&[7; 16]);
    let block = [0x42u8; 16];
    group.throughput(Throughput::Bytes(16));
    group.bench_function("encrypt_block", |b| {
        b.iter(|| std::hint::black_box(aes.encrypt_block(std::hint::black_box(&block))))
    });
    group.bench_function("encrypt_block_scalar", |b| {
        b.iter(|| std::hint::black_box(scalar.encrypt_block(std::hint::black_box(&block))))
    });
    group.throughput(Throughput::Bytes(64));
    group.bench_function("encrypt_blocks_x4", |b| {
        let mut blocks = [[0x42u8; 16]; 4];
        b.iter(|| {
            aes.encrypt_blocks(&mut blocks);
            std::hint::black_box(blocks[0][0]);
        })
    });
    // A full pass of the portable bitsliced tier, pinned so AES-NI hosts
    // measure it too.
    group.throughput(Throughput::Bytes(8 * 16));
    group.bench_function("encrypt_blocks_x8_bitsliced", |b| {
        use obfusmem_crypto::bitslice::{set_force_tier, Tier};
        assert!(set_force_tier(Some(Tier::Sliced2)));
        let sliced = Aes128::new(&[7; 16]);
        let mut blocks = [[0x42u8; 16]; 8];
        b.iter(|| {
            sliced.encrypt_blocks(&mut blocks);
            std::hint::black_box(blocks[0][0]);
        });
        set_force_tier(None);
    });
    group.throughput(Throughput::Bytes(16));
    group.bench_function("key_schedule", |b| {
        b.iter(|| std::hint::black_box(Aes128::new(std::hint::black_box(&[9; 16]))))
    });
    group.finish();
}

criterion_group!(benches, bench_aes);
criterion_main!(benches);
