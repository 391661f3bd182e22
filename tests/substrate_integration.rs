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
fn fr_fcfs_scheduler_agrees_with_reservation_model_on_serial_streams() {
    // On a strictly serial request stream (each issued after the previous
    // completes) there is nothing to reorder, so the queued controller
    // and the reservation-model device must agree on every latency.
    use obfusmem::mem::scheduler::FrFcfsScheduler;
    let cfg = MemConfig::table2();
    let mut device = PcmMemory::new(cfg.clone());
    let mut sched = FrFcfsScheduler::new(cfg);
    let mut t = Time::ZERO;
    for i in 0..50u64 {
        let addr = (i % 7) * (1 << 24) + (i % 16) * 64;
        let r = device.access(t, addr, AccessKind::Read);
        sched.enqueue(t, addr, AccessKind::Read);
        sched.run_until(r.complete_at);
        let done = sched.take_completions();
        assert_eq!(done.len(), 1, "request {i} not serviced");
        assert_eq!(done[0].at, r.complete_at, "latency mismatch at request {i}");
        t = r.complete_at;
    }
}

#[test]
fn fr_fcfs_beats_reservation_order_under_bursts() {
    // A burst of interleaved row-conflicting requests: the reordering
    // controller finishes no later than the in-order device.
    use obfusmem::mem::scheduler::FrFcfsScheduler;
    let cfg = MemConfig::table2();
    let mut device = PcmMemory::new(cfg.clone());
    let mut sched = FrFcfsScheduler::new(cfg);
    let mut device_finish = Time::ZERO;
    for i in 0..16u64 {
        let addr = if i % 2 == 0 {
            (i / 2) * 64
        } else {
            (1 << 24) + (i / 2) * 64
        };
        let r = device.access(Time::ZERO, addr, AccessKind::Read);
        device_finish = device_finish.max(r.complete_at);
        sched.enqueue(Time::ZERO, addr, AccessKind::Read);
    }
    sched.run_until(Time::from_ps(1_000_000_000));
    let sched_finish = sched
        .take_completions()
        .into_iter()
        .map(|c| c.at)
        .max()
        .unwrap();
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
