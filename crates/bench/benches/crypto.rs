//! Microbenchmarks of the cryptographic substrate: the software
//! equivalents of the paper's synthesized AES/MD5 units.

use obfusmem_bench::quick::{Criterion, Throughput};
use obfusmem_bench::{criterion_group, criterion_main};
use obfusmem_crypto::aes::Aes128;
use obfusmem_crypto::ctr::CtrStream;
use obfusmem_crypto::dh::DhKeyPair;
use obfusmem_crypto::mac::{MacEngine, MacHash};
use obfusmem_crypto::md5::Md5;
use obfusmem_crypto::sha1::Sha1;

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

fn bench_ctr_pads(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctr");
    // One obfuscated request consumes six pads (Figure 3).
    group.throughput(Throughput::Elements(6));
    group.bench_function("six_pads_per_request", |b| {
        let mut stream = CtrStream::new(Aes128::new(&[1; 16]), 99);
        b.iter(|| {
            for _ in 0..6 {
                std::hint::black_box(stream.next_pad());
            }
        })
    });
    group.throughput(Throughput::Elements(6));
    group.bench_function("six_pads_batched", |b| {
        let mut stream = CtrStream::new(Aes128::new(&[1; 16]), 99);
        b.iter(|| std::hint::black_box(stream.next_pads::<6>()))
    });
    // One full bank refill per call: the wide-path sweet spot.
    group.throughput(Throughput::Elements(8));
    group.bench_function("eight_pads_batched", |b| {
        let mut stream = CtrStream::new(Aes128::new(&[1; 16]), 99);
        b.iter(|| std::hint::black_box(stream.next_pads::<8>()))
    });
    group.throughput(Throughput::Bytes(64));
    group.bench_function("encrypt_block_64B", |b| {
        let mut stream = CtrStream::new(Aes128::new(&[1; 16]), 99);
        let mut data = [0xA5u8; 64];
        b.iter(|| {
            stream.xor_in_place(&mut data);
            std::hint::black_box(data[0]);
        })
    });
    group.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashes");
    let msg = [0x5Au8; 64];
    group.throughput(Throughput::Bytes(64));
    group.bench_function("md5_64B", |b| {
        b.iter(|| std::hint::black_box(Md5::digest(&msg)))
    });
    group.bench_function("sha1_64B", |b| {
        b.iter(|| std::hint::black_box(Sha1::digest(&msg)))
    });
    group.finish();
}

fn bench_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac");
    let engine = MacEngine::new([3; 16], MacHash::Md5);
    group.bench_function("command_tag", |b| {
        b.iter(|| std::hint::black_box(engine.command_tag(0, 0xDEAD_BEC0, 1234)))
    });
    // A request and its dummy, tagged in one two-lane pass.
    group.throughput(Throughput::Elements(2));
    group.bench_function("command_tags_pair", |b| {
        b.iter(|| {
            std::hint::black_box(
                engine.command_tags([(0, 0xDEAD_BEC0, 1234), (1, 0x0FFF_FFC0, 1235)]),
            )
        })
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("reply_tag", |b| {
        let ct = [0xA5u8; 64];
        b.iter(|| std::hint::black_box(engine.reply_tag(1234, std::hint::black_box(&ct))))
    });
    group.finish();
}

fn bench_dh(c: &mut Criterion) {
    let mut group = c.benchmark_group("boot_time");
    group.sample_size(10);
    group.bench_function("dh_session_key_1536bit", |b| {
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed
        };
        let alice = DhKeyPair::generate(&mut rng);
        let bob = DhKeyPair::generate(&mut rng);
        b.iter(|| std::hint::black_box(alice.session_key(bob.public()).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_ctr_pads,
    bench_hashes,
    bench_mac,
    bench_dh
);
criterion_main!(benches);
