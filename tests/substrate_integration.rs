//! Integration across the substrate crates: workload generator → cache
//! hierarchy → memory device, and the determinism contract of the whole
//! stack.

use obfusmem::cache::cache::CacheOp;
use obfusmem::cache::config::HierarchyConfig;
use obfusmem::cache::hierarchy::{CacheHierarchy, HitLevel};
use obfusmem::core::config::SecurityLevel;
use obfusmem::core::system::{System, SystemConfig};
use obfusmem::cpu::l1stream::{L1Stream, L1StreamConfig};
use obfusmem::cpu::workload::micro_test_workload;
use obfusmem::crypto::mac::{MacEngine, MacHash};
use obfusmem::crypto::md5::to_hex;
use obfusmem::crypto::sha1::Sha1;
use obfusmem::mem::config::MemConfig;
use obfusmem::mem::device::PcmMemory;
use obfusmem::mem::request::AccessKind;
use obfusmem::sim::time::Time;

#[test]
fn l1_stream_through_caches_generates_memory_traffic() {
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::table2());
    let mut memory = PcmMemory::new(MemConfig::table2());
    let mut stream = L1Stream::new(L1StreamConfig::cache_hostile(), 3);
    let mut t = Time::ZERO;
    let mut fills = 0u64;
    let mut writebacks = 0u64;

    for _ in 0..200_000 {
        let access = stream.next_access();
        let outcome = hierarchy.access(0, access.addr, access.op);
        if let Some(fill) = outcome.traffic.fill {
            let r = memory.access(t, fill, AccessKind::Read);
            t = t.max(r.complete_at);
            fills += 1;
        }
        for wb in outcome.traffic.writebacks {
            memory.access(t, wb, AccessKind::Write);
            writebacks += 1;
        }
    }
    assert!(fills > 1000, "hostile stream must miss the LLC: {fills}");
    assert!(
        writebacks > 50,
        "stores must eventually spill: {writebacks}"
    );
    let (acc, miss) = hierarchy.llc_counts();
    assert_eq!(miss, fills, "every LLC miss becomes a memory fill");
    assert!(acc >= miss);
    assert!(memory.channel_stats(0).reads.get() >= fills);
}

#[test]
fn friendly_stream_filters_to_low_mpki() {
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::table2());
    let mut stream = L1Stream::new(L1StreamConfig::cache_friendly(), 4);
    let instructions = 1_000_000u64;
    for _ in 0..stream.accesses_for(instructions) {
        let a = stream.next_access();
        hierarchy.access(0, a.addr, a.op);
    }
    let mpki = hierarchy.llc_counts().1 as f64 * 1000.0 / instructions as f64;
    assert!(mpki < 8.0, "friendly stream MPKI {mpki} too high");
}

#[test]
fn hot_block_hits_l1_after_first_touch() {
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::table2());
    hierarchy.access(2, 0x4000, CacheOp::Read);
    for _ in 0..10 {
        let out = hierarchy.access(2, 0x4000, CacheOp::Read);
        assert_eq!(out.level, HitLevel::L1);
    }
}

#[test]
fn queued_and_reservation_devices_agree_on_demand_streams() {
    // A demand access under the queued backend enqueues and drives its
    // channel until it completes, so the queue never holds more than the
    // request being serviced: FR-FCFS has nothing to reorder and the
    // adaptive close nothing to close. Both backends must then agree on
    // every result, lane booking and counter, whatever the arrival
    // order, the access kind, the channel count or the packet traffic
    // interleaved on the lanes.
    use obfusmem::mem::channel::Lane;
    use obfusmem::mem::config::BackendKind;
    use obfusmem::sim::rng::SplitMix64;
    for channels in [1, 2, 4] {
        let cfg = MemConfig::table2().with_channels(channels);
        let mut res = PcmMemory::new(cfg.clone());
        let mut que = PcmMemory::new(cfg.with_backend(BackendKind::Queued));
        let mut rng = SplitMix64::new(0x5EED_0000 + channels as u64);
        let mut now = 0u64;
        for op in 0..20_000 {
            // Arrivals drift forward but often land up to 300 ns in the
            // past, so requests overlap and arrive out of order.
            now += rng.below(40_000);
            let at = Time::from_ps(now.saturating_sub(rng.below(300_000)));
            if rng.chance(0.25) {
                let channel = rng.below(channels as u64) as usize;
                let lane = if rng.chance(0.5) {
                    Lane::Request
                } else {
                    Lane::Response
                };
                let bytes = 1 + rng.below(128);
                assert_eq!(
                    res.bus_transfer_bytes(at, channel, bytes, lane),
                    que.bus_transfer_bytes(at, channel, bytes, lane),
                    "{channels} channels, op {op}: lane booking differs"
                );
            } else {
                // Four rows, every bank and channel: hits, clean misses
                // and dirty evictions all occur.
                let addr = (rng.below(4) << 24) | (rng.below(1 << 16) & !63);
                let kind = if rng.chance(0.4) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                assert_eq!(
                    res.access(at, addr, kind),
                    que.access(at, addr, kind),
                    "{channels} channels, op {op}: access result differs"
                );
            }
            for ch in 0..channels {
                assert_eq!(
                    res.channel_idle_at(ch, at),
                    que.channel_idle_at(ch, at),
                    "{channels} channels, op {op}: channel {ch} idleness differs"
                );
            }
        }
        que.drain_queued();
        assert_eq!(que.pending_requests(), 0);
        for ch in 0..channels {
            assert_eq!(
                format!("{:?}", res.channel_stats(ch)),
                format!("{:?}", que.channel_stats(ch))
            );
            assert_eq!(
                format!("{:?}", res.bank_stats(ch)),
                format!("{:?}", que.bank_stats(ch))
            );
        }
        assert_eq!(res.array_ops(), que.array_ops());
        assert_eq!(res.wear().max_row_writes(), que.wear().max_row_writes());
        assert!(
            res.wear().max_row_writes() > 0,
            "stream must evict dirty rows"
        );
    }
}

#[test]
fn fr_fcfs_beats_reservation_order_under_bursts() {
    // A burst of interleaved row-conflicting requests: the reordering
    // controller finishes no later than the in-order device.
    use obfusmem::mem::scheduler::ShardedFrFcfs;
    let cfg = MemConfig::table2();
    let mut device = PcmMemory::new(cfg.clone());
    let mut sched = ShardedFrFcfs::new(cfg);
    let mut device_finish = Time::ZERO;
    for i in 0..16u64 {
        let addr = if i % 2 == 0 {
            (i / 2) * 64
        } else {
            (1 << 24) + (i / 2) * 64
        };
        let r = device.access(Time::ZERO, addr, AccessKind::Read);
        device_finish = device_finish.max(r.complete_at);
        sched.enqueue(Time::ZERO, addr, AccessKind::Read, 0);
    }
    sched.run_until(Time::from_ps(1_000_000_000));
    let mut sched_finish = None;
    sched.drain_completions(|_, c| sched_finish = sched_finish.max(Some(c.at)));
    let sched_finish = sched_finish.unwrap();
    assert!(
        sched_finish <= device_finish,
        "FR-FCFS ({sched_finish}) must not lose to in-order ({device_finish})"
    );
}

#[test]
fn whole_stack_is_bit_deterministic() {
    let run = || {
        let mut sys = System::new(SystemConfig {
            security: SecurityLevel::ObfuscateAuth,
            ..SystemConfig::default()
        });
        let r = sys.run(&micro_test_workload(), 60_000, 0xD00D);
        (
            r.exec_time.as_ps(),
            r.misses,
            sys.backend().stats().paired_dummies,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_change_timing_but_not_structure() {
    let run = |seed| {
        let mut sys = System::new(SystemConfig::default());
        let r = sys.run(&micro_test_workload(), 60_000, seed);
        (r.exec_time.as_ps(), r.misses)
    };
    let (t1, m1) = run(1);
    let (t2, m2) = run(2);
    assert_eq!(m1, m2, "miss count is workload-determined");
    assert_ne!(t1, t2, "timing depends on the address stream");
}

/// Tier-1 twin of CI's integrity-kernel differential: the bytes every
/// authenticated request and every recovery-ladder check put through
/// MD5 and SHA-1, pinned through the public API. The tags are the first
/// eight bytes of MD5(key ‖ len ‖ field ‖ … ‖ key), with every length a
/// little-endian u64, as an independent MD5 gives them; the digest is
/// plain SHA-1. Any faster kernel underneath must reproduce them.
#[test]
fn integrity_kernels_match_their_known_answers() {
    let mac = MacEngine::new(std::array::from_fn(|i| 0xA0 ^ i as u8), MacHash::Md5);
    let [request, dummy] = mac.command_tags([(0, 0xDEAD_BEC0, 1234), (1, 0x0012_3440, 1235)]);
    let block: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5C);
    let reply = mac.reply_tag(0x0123_4567_89AB_CDEF, &block);
    assert_eq!(to_hex(&request), "464e643d1fa8302a");
    assert_eq!(to_hex(&dummy), "127afa209f41e646");
    assert_eq!(to_hex(&reply), "070f5269a360bd39");
    assert_eq!(
        to_hex(&Sha1::digest(&block)),
        "afa7cdc8a0b1fb241b2d15ce5497d66f2b99d91c"
    );
}
