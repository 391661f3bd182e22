//! Hot-path microbenchmarks with a machine-readable baseline.
//!
//! ```text
//! hotpath [--quick] [--out PATH] [--gate BASELINE] [-n INSTRUCTIONS] [-s SEED]
//! ```
//!
//! Measures the overhauled hot paths — the wide-block engine (the
//! portable bitsliced tier pinned, and the auto-detected tier) against the
//! scalar oracle, batched CTR pad generation, and the calendar event queue
//! against a `BinaryHeap` reference — plus an end-to-end Figure 4 sweep
//! A/B (scalar-forced vs default) and a no-op-recorder A/B (plain run vs
//! disabled observability layer), and writes the numbers to
//! `BENCH_hotpath.json` (override with `--out`).
//!
//! The binary doubles as the CI divergence gate: it exits nonzero if any
//! wide-engine tier the CPU supports disagrees with the scalar oracle on
//! FIPS-197 vectors or random blocks, or if the end-to-end sweep results
//! differ between the scalar and default runs (they must be bit-identical
//! — the AES engine is a pure performance choice).
//!
//! `--quick` shrinks measurement budgets and the sweep size for CI smoke
//! runs; committed baselines use the full mode defaults.
//!
//! `--gate BASELINE` additionally compares the freshly measured speedups
//! and throughputs against a committed baseline JSON (normally the
//! checked-in `BENCH_hotpath.json`) and exits nonzero on a regression.
//! Tolerances are relative to the baseline and mode-dependent: full runs
//! fail on a >10% drop, `--quick` runs (CI smoke on noisy shared VMs)
//! only on a >50% drop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use obfusmem_bench::experiments::{fig4, fig4_average, Fig4Row};
use obfusmem_bench::quick::measure_ns_budget;
use obfusmem_crypto::aes::{set_force_scalar, Aes128, Block};
use obfusmem_crypto::bitslice::{self, Tier};
use obfusmem_crypto::ctr::CtrStream;
use obfusmem_harness::jsonl::JsonObject;
use obfusmem_harness::measure::{
    run_point, run_point_nulltap, run_point_observed, PointSpec, Scheme,
};
use obfusmem_obs::trace::TraceHandle;
use obfusmem_sim::event::EventQueue;
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::time::Time;

struct Options {
    quick: bool,
    out: String,
    gate: Option<String>,
    instructions: u64,
    seed: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        out: String::from("BENCH_hotpath.json"),
        gate: None,
        instructions: 0,
        seed: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = args.next().unwrap_or_else(|| usage("missing --out value")),
            "--gate" => {
                opts.gate = Some(args.next().unwrap_or_else(|| usage("missing --gate value")));
            }
            "-n" => {
                opts.instructions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing/invalid value for -n"));
            }
            "-s" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing/invalid value for -s"));
            }
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if opts.instructions == 0 {
        opts.instructions = if opts.quick { 20_000 } else { 200_000 };
    }
    opts
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: hotpath [--quick] [--out PATH] [--gate BASELINE] [-n INSTRUCTIONS] [-s SEED]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Extracts a top-level `"key":number` value from a flat JSON object
/// (the only shape the baseline file takes) without a JSON dependency.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// One gated metric: a higher-is-better number from the baseline row.
struct GateMetric {
    key: &'static str,
    current: f64,
}

/// Compares `metrics` against the baseline file; returns the list of
/// regression messages (empty = gate passes).
fn gate_against(baseline_path: &str, metrics: &[GateMetric], max_drop: f64) -> Vec<String> {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read baseline {baseline_path}: {e}")],
    };
    let mut failures = Vec::new();
    for m in metrics {
        let Some(base) = json_number(&text, m.key) else {
            failures.push(format!("baseline {baseline_path} lacks key {:?}", m.key));
            continue;
        };
        if base <= 0.0 {
            // A non-positive baseline can't anchor a relative drop; skip
            // rather than divide by it.
            continue;
        }
        let floor = base * (1.0 - max_drop);
        if m.current < floor {
            failures.push(format!(
                "{}: {:.3} is below the gate floor {:.3} (baseline {:.3}, allowed drop {:.0}%)",
                m.key,
                m.current,
                floor,
                base,
                max_drop * 100.0
            ));
        }
    }
    failures
}

/// FIPS-197 Appendix B + random differential: every wide-engine tier this
/// CPU supports and the scalar reference must be bit-identical — on single
/// blocks, and batch-for-batch through the block entry point the wide
/// engine actually serves. Pins each tier in turn and restores automatic
/// detection before returning.
fn divergence_check(random_blocks: u32) -> Result<(), String> {
    let result = [Tier::Sliced2, Tier::HwAes]
        .into_iter()
        .filter(|&t| bitslice::supported(t))
        .try_for_each(|tier| {
            bitslice::set_force_tier(Some(tier));
            divergence_check_on(random_blocks).map_err(|e| format!("tier {}: {e}", tier.name()))
        });
    bitslice::set_force_tier(None);
    result
}

fn divergence_check_on(random_blocks: u32) -> Result<(), String> {
    let key: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    let pt: Block = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];
    let ct: Block = [
        0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b,
        0x32,
    ];
    let fast = Aes128::new(&key);
    let slow = Aes128::new_scalar(&key);
    if fast.encrypt_block(&pt) != ct || slow.encrypt_block(&pt) != ct {
        return Err("FIPS-197 Appendix B encryption vector failed".into());
    }
    if fast.decrypt_block(&ct) != pt {
        return Err("FIPS-197 Appendix B decryption vector failed".into());
    }
    let mut wide = [pt];
    fast.encrypt_blocks(&mut wide);
    if wide[0] != ct {
        return Err("FIPS-197 Appendix B vector failed on the wide-block path".into());
    }

    // Random batches, deliberately ragged around the engine's pass
    // width, through the wide engine and the scalar oracle.
    let mut rng = SplitMix64::new(0x0bf0_5a1e);
    let mut k = [0u8; 16];
    let mut batch = Vec::new();
    let mut done = 0u32;
    while done < random_blocks {
        k.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
        let n = (1 + rng.below(67)) as usize;
        batch.clear();
        batch.resize(n, [0u8; 16]);
        for block in batch.iter_mut() {
            block.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
        }
        let cipher = Aes128::new(&k);
        let scalar = Aes128::new_scalar(&k);
        let mut via_wide = batch.clone();
        cipher.encrypt_blocks(&mut via_wide);
        let mut via_scalar = batch.clone();
        scalar.encrypt_blocks(&mut via_scalar);
        if via_wide != via_scalar {
            return Err(format!("wide/scalar divergence in batch at block {done}"));
        }
        for (pt, ct) in batch.iter().zip(&via_wide) {
            if cipher.decrypt_block(ct) != *pt {
                return Err(format!("decrypt divergence in batch at block {done}"));
            }
        }
        done += n as u32;
    }
    Ok(())
}

/// Standing queue depth for the churn benchmark: a loaded 8-channel
/// simulation keeps a few hundred events in flight.
const QUEUE_DEPTH: u64 = 256;
/// Pop-push cycles per churn pass: enough sustained churn that the
/// steady state dominates each structure's one-time setup (allocating
/// buckets / growing the heap), as it does in a real simulation where
/// one long-lived queue carries millions of events.
const QUEUE_CHURN: u64 = 16384;

/// A memory-request-sized event record: what a channel simulation
/// actually schedules (address, kind, pads, tags — one cache line).
type EventRecord = [u64; 8];

fn record(i: u64) -> EventRecord {
    [i, i ^ 0xA5, i << 1, i >> 1, !i, i + 7, i * 3, i]
}

/// Pushes churn through the event queues; the same access pattern is
/// replayed on ours and the BinaryHeap reference so the comparison is
/// apples-to-apples.
fn queue_churn_ours() -> u64 {
    let mut q = EventQueue::new();
    let mut rng = SplitMix64::new(7);
    let mut acc = 0u64;
    for i in 0..QUEUE_DEPTH {
        q.push(Time::from_ps(rng.below(1000)), record(i));
    }
    for i in 0..QUEUE_CHURN {
        let (t, v) = q.pop().expect("queue non-empty");
        acc = acc.wrapping_add(v[0]);
        q.push(
            t + obfusmem_sim::time::Duration::from_ps(1 + rng.below(1000)),
            record(i),
        );
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v[0]);
    }
    acc
}

fn queue_churn_binaryheap() -> u64 {
    // The pre-overhaul structure: the payload rides inside the heap
    // entries and moves on every compare-and-swap.
    let mut heap: BinaryHeap<Reverse<(u64, u64, EventRecord)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = SplitMix64::new(7);
    let mut acc = 0u64;
    for i in 0..QUEUE_DEPTH {
        heap.push(Reverse((rng.below(1000), seq, record(i))));
        seq += 1;
    }
    for i in 0..QUEUE_CHURN {
        let Reverse((t, _, v)) = heap.pop().expect("queue non-empty");
        acc = acc.wrapping_add(v[0]);
        heap.push(Reverse((t + 1 + rng.below(1000), seq, record(i))));
        seq += 1;
    }
    while let Some(Reverse((_, _, v))) = heap.pop() {
        acc = acc.wrapping_add(v[0]);
    }
    acc
}

fn rows_identical(a: &[Fig4Row], b: &[Fig4Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.encrypt_only == y.encrypt_only
                && x.obfusmem == y.obfusmem
                && x.obfusmem_auth == y.obfusmem_auth
        })
}

fn main() {
    let opts = parse_args();
    let budget = if opts.quick {
        Duration::from_millis(8)
    } else {
        Duration::from_millis(60)
    };
    let random_blocks = if opts.quick { 1_000 } else { 10_000 };

    eprintln!("# hotpath: divergence gate ({random_blocks} random blocks)");
    if let Err(e) = divergence_check(random_blocks) {
        eprintln!("FAIL: wide/scalar divergence: {e}");
        std::process::exit(1);
    }

    // --- AES single block ---
    let key = [7u8; 16];
    let block = [0x42u8; 16];
    let scalar = Aes128::new_scalar(&key);
    let aes_scalar_ns = measure_ns_budget(|| scalar.encrypt_block(&block), budget);

    // --- AES per block through the portable bitsliced engine ---
    // Pinned to the portable tier (never AES-NI): this row tracks the
    // constant-time software path every host without AES-NI runs. One
    // pass encrypts a full batch; report the per-block amortized cost.
    let sliced_tier = Tier::Sliced2;
    assert!(
        bitslice::set_force_tier(Some(sliced_tier)),
        "the portable tier is always supported"
    );
    let cipher = Aes128::new(&key);
    let mut sliced_batch = [[0x42u8; 16]; bitslice::MAX_BATCH];
    let aes_bitsliced_batch_ns = measure_ns_budget(
        || {
            cipher.encrypt_blocks(&mut sliced_batch);
            sliced_batch[0][0]
        },
        budget,
    );
    let aes_bitsliced_ns = aes_bitsliced_batch_ns / sliced_batch.len() as f64;

    // --- CTR keystream throughput (64 blocks = 1 KiB per call) ---
    const KS_BLOCKS: usize = 64;
    let mut buf = [[0u8; 16]; KS_BLOCKS];
    let ks_bytes = (KS_BLOCKS * 16) as f64;
    // Still pinned to the sliced tier from above.
    let mut sliced_stream = CtrStream::new(Aes128::new(&key), 99);
    let ks_bitsliced_ns = measure_ns_budget(
        || {
            sliced_stream.keystream_into(&mut buf);
            buf[0][0]
        },
        budget,
    );
    bitslice::set_force_tier(None);

    let mut scalar_stream = CtrStream::new(Aes128::new_scalar(&key), 99);
    let ks_scalar_ns = measure_ns_budget(
        || {
            scalar_stream.keystream_into(&mut buf);
            buf[0][0]
        },
        budget,
    );
    // Auto-detected best tier: what production streams actually use
    // (AES-NI where the host has it, the sliced path elsewhere).
    let mut wide_stream = CtrStream::new(Aes128::new(&key), 99);
    let ks_wide_ns = measure_ns_budget(
        || {
            wide_stream.keystream_into(&mut buf);
            buf[0][0]
        },
        budget,
    );

    // --- pads per request: sequential vs batched ---
    // Eight pads: one full wide-block pass, the batch the engines bank.
    // (The old six-pad row is gone: nothing banks six-pad batches any
    // more, and a sub-pass-width batch is slower than the loop.)
    let mut eight_seq_stream = CtrStream::new(Aes128::new(&key), 99);
    let eight_seq_ns = measure_ns_budget(
        || {
            for _ in 0..8 {
                std::hint::black_box(eight_seq_stream.next_pad());
            }
        },
        budget,
    );
    let mut eight_batch_stream = CtrStream::new(Aes128::new(&key), 99);
    let eight_batch_ns = measure_ns_budget(|| eight_batch_stream.next_pads::<8>(), budget);

    // --- event queue churn ---
    assert_eq!(
        queue_churn_ours(),
        queue_churn_binaryheap(),
        "queue implementations must drain identical payload sums"
    );
    let q_heap_ns = measure_ns_budget(queue_churn_binaryheap, budget);
    let q_ours_ns = measure_ns_budget(queue_churn_ours, budget);

    // --- end-to-end Figure 4 sweep A/B ---
    eprintln!(
        "# hotpath: fig4 sweep A/B (n={}, seed={})",
        opts.instructions, opts.seed
    );
    set_force_scalar(true);
    let t0 = Instant::now();
    let rows_scalar = fig4(opts.instructions, opts.seed);
    let fig4_scalar_ms = t0.elapsed().as_secs_f64() * 1e3;
    set_force_scalar(false);
    let t0 = Instant::now();
    let rows_wide = fig4(opts.instructions, opts.seed);
    let fig4_wide_ms = t0.elapsed().as_secs_f64() * 1e3;

    if !rows_identical(&rows_scalar, &rows_wide) {
        eprintln!("FAIL: fig4 results differ between scalar and wide-block AES");
        std::process::exit(1);
    }
    let avg = fig4_average(&rows_wide);

    // --- observability off-switch: plain run vs disabled recorder ---
    // The recorder trait's no-op default must make an untraced run free.
    // Best-of-3 wall clocks on one fig4 point; the gate is bit-identity,
    // the overhead number is tracked so a regression shows in the diff.
    eprintln!("# hotpath: no-op recorder + leakage-tap A/B");
    let point = PointSpec::paper(
        obfusmem_cpu::workload::by_name("bwaves").expect("Table 1 workload"),
        Scheme::ObfusmemAuth,
        opts.instructions,
        opts.seed,
    );
    // The leakage-tap A/B rides in the same interleaved loop (plain,
    // no-op recorder, inert tap back to back each round) so host clock
    // drift hits all three alike. The tap contract matches the
    // recorder's: a tap that discards every event must stay
    // bit-identical, and its wall-clock cost (building the bus events
    // the observatory would read) is tracked and gated.
    let mut plain_ms = f64::INFINITY;
    let mut plain = None;
    let mut noop_ms = f64::INFINITY;
    let mut noop = None;
    let mut tap_ms = f64::INFINITY;
    let mut tapped = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run_point(&point);
        plain_ms = plain_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        plain = Some(r);
        let t0 = Instant::now();
        let (r, _) = run_point_observed(&point, &TraceHandle::disabled());
        noop_ms = noop_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        noop = Some(r);
        let t0 = Instant::now();
        let r = run_point_nulltap(&point);
        tap_ms = tap_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        tapped = Some(r);
    }
    let (plain, noop, tapped) = (plain.unwrap(), noop.unwrap(), tapped.unwrap());
    if plain.exec_time != noop.exec_time || plain.misses != noop.misses {
        eprintln!("FAIL: disabled recorder perturbed the simulation");
        std::process::exit(1);
    }
    let noop_overhead_pct = 100.0 * (noop_ms - plain_ms) / plain_ms;
    if plain.exec_time != tapped.exec_time || plain.misses != tapped.misses {
        eprintln!("FAIL: inert bus tap perturbed the simulation");
        std::process::exit(1);
    }
    let tap_overhead_pct = 100.0 * (tap_ms - plain_ms) / plain_ms;

    let json = JsonObject::new()
        .string("schema", "obfusmem.bench_hotpath.v4")
        .string("mode", if opts.quick { "quick" } else { "full" })
        .u64("instructions", opts.instructions)
        .u64("seed", opts.seed)
        .string("divergence", "none")
        .string("bitsliced_tier", sliced_tier.name())
        .string("wide_tier", bitslice::detect_best().name())
        .f64("aes_block_scalar_ns", round3(aes_scalar_ns))
        .f64("aes_block_bitsliced_ns", round3(aes_bitsliced_ns))
        .f64("keystream_scalar_gbps", round3(ks_bytes / ks_scalar_ns))
        .f64(
            "keystream_bitsliced_gbps",
            round3(ks_bytes / ks_bitsliced_ns),
        )
        .f64("keystream_wide_gbps", round3(ks_bytes / ks_wide_ns))
        .f64("keystream_speedup", round3(ks_scalar_ns / ks_wide_ns))
        .f64("eight_pads_sequential_ns", round3(eight_seq_ns))
        .f64("eight_pads_batched_ns", round3(eight_batch_ns))
        .f64("eight_pads_speedup", round3(eight_seq_ns / eight_batch_ns))
        .f64("event_queue_binaryheap_ns", round3(q_heap_ns))
        .f64("event_queue_calendar_ns", round3(q_ours_ns))
        .f64("event_queue_speedup", round3(q_heap_ns / q_ours_ns))
        .f64("fig4_scalar_ms", round3(fig4_scalar_ms))
        .f64("fig4_wide_ms", round3(fig4_wide_ms))
        .f64("fig4_speedup", round3(fig4_scalar_ms / fig4_wide_ms))
        .u64("fig4_rows_identical", 1)
        .f64("point_untraced_ms", round3(plain_ms))
        .f64("point_noop_recorder_ms", round3(noop_ms))
        .f64("noop_recorder_overhead_pct", round3(noop_overhead_pct))
        .u64("noop_recorder_identical", 1)
        .f64("point_nulltap_ms", round3(tap_ms))
        .f64("leakage_tap_overhead_pct", round3(tap_overhead_pct))
        .u64("leakage_tap_identical", 1)
        .f64("fig4_avg_encrypt_only_pct", round3(avg.encrypt_only))
        .f64("fig4_avg_obfusmem_pct", round3(avg.obfusmem))
        .f64("fig4_avg_obfusmem_auth_pct", round3(avg.obfusmem_auth))
        .finish();
    std::fs::write(&opts.out, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("FAIL: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });

    println!(
        "divergence gate              pass (FIPS-197 + {random_blocks} random blocks per tier vs scalar + fig4 A/B)"
    );
    println!(
        "aes per block                scalar {aes_scalar_ns:8.1} ns   {:<6} {aes_bitsliced_ns:8.1} ns   {:.2}x",
        sliced_tier.name(),
        aes_scalar_ns / aes_bitsliced_ns
    );
    println!(
        "ctr keystream (1 KiB)        scalar {:8.3} GB/s  sliced {:8.3} GB/s  wide[{}] {:.3} GB/s",
        ks_bytes / ks_scalar_ns,
        ks_bytes / ks_bitsliced_ns,
        bitslice::detect_best().name(),
        ks_bytes / ks_wide_ns,
    );
    println!(
        "eight pads (one wide pass)   loop   {eight_seq_ns:8.1} ns   batch  {eight_batch_ns:8.1} ns   {:.2}x",
        eight_seq_ns / eight_batch_ns
    );
    println!(
        "event queue churn            binheap{q_heap_ns:8.1} ns   calndr {q_ours_ns:8.1} ns   {:.2}x",
        q_heap_ns / q_ours_ns
    );
    println!(
        "fig4 sweep wall-clock        scalar {fig4_scalar_ms:8.1} ms   wide   {fig4_wide_ms:8.1} ms   {:.2}x",
        fig4_scalar_ms / fig4_wide_ms
    );
    println!(
        "no-op recorder (bwaves)      plain  {plain_ms:8.1} ms   no-op  {noop_ms:8.1} ms   {noop_overhead_pct:+.1}%"
    );
    println!(
        "inert leakage tap (bwaves)   plain  {plain_ms:8.1} ms   tap    {tap_ms:8.1} ms   {tap_overhead_pct:+.1}%"
    );
    println!("baseline written             {}", opts.out);

    if let Some(baseline) = &opts.gate {
        // Gate on relative numbers only (speedups and per-byte
        // throughput): wall-clock milliseconds vary with the host, but a
        // speedup ratio collapsing means an optimization actually broke.
        let max_drop = if opts.quick { 0.50 } else { 0.10 };
        let metrics = [
            GateMetric {
                key: "keystream_speedup",
                current: ks_scalar_ns / ks_wide_ns,
            },
            GateMetric {
                key: "keystream_bitsliced_gbps",
                current: ks_bytes / ks_bitsliced_ns,
            },
            GateMetric {
                key: "keystream_wide_gbps",
                current: ks_bytes / ks_wide_ns,
            },
            GateMetric {
                key: "eight_pads_speedup",
                current: eight_seq_ns / eight_batch_ns,
            },
            GateMetric {
                key: "event_queue_speedup",
                current: q_heap_ns / q_ours_ns,
            },
            GateMetric {
                key: "fig4_speedup",
                current: fig4_scalar_ms / fig4_wide_ms,
            },
        ];
        let mut failures = gate_against(baseline, &metrics, max_drop);
        // The tap A/B gates on an absolute ceiling, not a baseline ratio:
        // building bus events for an inert tap must stay a rounding error
        // next to the simulation itself. Quick mode gets a wide berth for
        // noisy shared-VM wall clocks.
        let tap_ceiling_pct = if opts.quick { 50.0 } else { 10.0 };
        if tap_overhead_pct > tap_ceiling_pct {
            failures.push(format!(
                "leakage_tap_overhead_pct: {tap_overhead_pct:.1}% exceeds the {tap_ceiling_pct:.0}% ceiling"
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: bench gate: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "bench gate                   pass ({} metric(s) within {:.0}% of {baseline})",
            metrics.len(),
            max_drop * 100.0
        );
    }
}

/// Three decimals is plenty for a tracked baseline and keeps diffs tame.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}
