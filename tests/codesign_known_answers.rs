//! Known answers for the queued FR-FCFS controller, pinned under Tier-1.
//!
//! The co-designed Path ORAM at L = 12 sends every slot of every path
//! through the sharded FR-FCFS controller, on 1 and 2 channels. Its
//! final time, mean access latency, traffic, array operations, wear,
//! activation total and scheduler counters depend on every pick the
//! controller makes, so a faster picker or cheaper device accounting
//! must reproduce them exactly. The same numbers are pinned by
//! `oram::codesign`'s unit test `codesign_known_answers_at_l12`.
//!
//! One ObfusMem+Auth point on the queued backend pins the `mem.queued.*`
//! counters the harness reports for the protected request path.

use obfusmem::cpu::core::MemoryBackend;
use obfusmem::cpu::workload::by_name;
use obfusmem::mem::config::{BackendKind, MemConfig};
use obfusmem::mem::request::BlockAddr;
use obfusmem::obs::trace::TraceHandle;
use obfusmem::oram::codesign::CodesignOram;
use obfusmem::oram::path_oram::OramConfig;
use obfusmem::sim::rng::SplitMix64;
use obfusmem::sim::time::Time;
use obfusmem_harness::measure::{run_point_observed, PointSpec, Scheme};

/// Everything a co-designed run leaves behind that depends on the
/// controller's picks: final time, mean latency bits, slot reads and
/// write-backs, array reads and writes, wear, the activation sum, then
/// serviced, reordered, adaptive closes, row hits and starvation
/// promotions.
fn codesign_fingerprint(channels: usize) -> [u64; 13] {
    let geometry = OramConfig {
        levels: 12,
        bucket_size: 4,
        blocks: 4096,
    };
    let mem = MemConfig::table2().with_channels(channels);
    let mut o = CodesignOram::new(geometry, mem, 1234).expect("valid geometry");
    let mut rng = SplitMix64::new(99);
    let mut t = Time::ZERO;
    for i in 0..400u64 {
        let addr = BlockAddr::from_index(rng.below(4096));
        if i % 3 == 2 {
            MemoryBackend::write(&mut o, t, addr);
        } else {
            t = MemoryBackend::read(&mut o, t, addr);
        }
    }
    o.drain_posted();
    let (reads, writes) = o.traffic();
    let m = o.memory();
    let (array_reads, array_writes) = m.array_ops();
    let s = m
        .scheduler_stats()
        .expect("the co-design runs the queued backend");
    [
        t.as_ps(),
        o.mean_access_ns().to_bits(),
        reads,
        writes,
        array_reads,
        array_writes,
        m.wear().total_writes(),
        m.activation_counts().iter().sum(),
        s.serviced.get(),
        s.reordered.get(),
        s.adaptive_closes.get(),
        s.row_hits.get(),
        s.starvation_promotions.get(),
    ]
}

#[test]
fn codesign_oram_at_l12_matches_its_known_answers() {
    assert_eq!(
        codesign_fingerprint(1),
        [
            561_470_000,
            4_653_888_243_382_825_783,
            35_200,
            35_200,
            9_384,
            7_031,
            7_031,
            9_384,
            70_400,
            3_432,
            8_246,
            61_016,
            0,
        ]
    );
    assert_eq!(
        codesign_fingerprint(2),
        [
            394_832_500,
            4_651_893_674_314_458_720,
            35_200,
            35_200,
            8_103,
            6_541,
            6_541,
            8_103,
            70_400,
            1_432,
            6_093,
            62_297,
            0,
        ]
    );
}

#[test]
fn queued_obfusmem_auth_point_matches_its_scheduler_counters() {
    let workload = by_name("bwaves").expect("Table 1 workload");
    let mut p = PointSpec::paper(workload, Scheme::ObfusmemAuth, 200_000, 200_302_317);
    p.mem = MemConfig::table2()
        .with_channels(2)
        .with_backend(BackendKind::Queued);
    let (_, metrics) = run_point_observed(&p, &TraceHandle::disabled());
    let got: Vec<(&str, Option<u64>)> = [
        "mem.queued.serviced",
        "mem.queued.reordered",
        "mem.queued.adaptive_closes",
        "mem.queued.row_hits",
        "mem.queued.starvation_promotions",
        "mem.queued.ch0.reordered",
        "mem.queued.ch0.adaptive_closes",
        "mem.queued.ch1.reordered",
        "mem.queued.ch1.adaptive_closes",
    ]
    .into_iter()
    .map(|path| (path, metrics.counter(path)))
    .collect();
    let want: Vec<(&str, Option<u64>)> = vec![
        ("mem.queued.serviced", Some(4_829)),
        ("mem.queued.reordered", Some(80)),
        ("mem.queued.adaptive_closes", Some(81)),
        ("mem.queued.row_hits", Some(3_698)),
        ("mem.queued.starvation_promotions", Some(0)),
        ("mem.queued.ch0.reordered", Some(43)),
        ("mem.queued.ch0.adaptive_closes", Some(38)),
        ("mem.queued.ch1.reordered", Some(37)),
        ("mem.queued.ch1.adaptive_closes", Some(43)),
    ];
    assert_eq!(got, want);
}
