//! Cross-crate security integration: trust bootstrap → live traffic →
//! passive and active adversaries.

use obfusmem::core::backend::ObfusMemBackend;
use obfusmem::core::config::{AddressCipherMode, ObfusMemConfig, SecurityLevel};
use obfusmem::core::trust::{bootstrap_platform, BootstrapApproach};
use obfusmem::cpu::core::MemoryBackend;
use obfusmem::mem::config::MemConfig;
use obfusmem::mem::request::BlockAddr;
use obfusmem::sec::leakage;
use obfusmem::sec::tamper::{run_campaign, TamperKind};
use obfusmem::sim::rng::SplitMix64;
use obfusmem::sim::time::Time;

fn entropy(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = SplitMix64::new(seed);
    move || rng.next_u64()
}

#[test]
fn bootstrapped_keys_drive_a_working_protected_memory() {
    let trust =
        bootstrap_platform(BootstrapApproach::TrustedIntegrator, 2, false, entropy(1)).unwrap();
    let mut backend = ObfusMemBackend::with_session_keys(
        ObfusMemConfig::paper_default(),
        MemConfig::table2().with_channels(2),
        trust.channel_keys,
        9,
    );
    backend.enable_trace();
    let mut t = Time::ZERO;
    for i in 0..50u64 {
        t = backend.read(t, BlockAddr::from_index(i));
        backend.write(t, BlockAddr::from_index(i));
    }
    // Real crypto end to end: every packet decoded without desync (the
    // backend asserts round trips internally), trace fully populated.
    let trace = backend.take_trace();
    assert!(trace.len() >= 200, "trace too small: {}", trace.len());
    let report = leakage::analyze(&trace);
    assert!(report.temporal_linkage < 0.01);
    assert!(report.type_advantage.abs() < 0.05);
}

#[test]
fn attestation_gates_the_whole_stack() {
    let err = bootstrap_platform(BootstrapApproach::UntrustedIntegrator, 1, true, entropy(2))
        .unwrap_err();
    assert!(
        err.to_string().contains("bootstrap"),
        "unexpected error: {err}"
    );
}

#[test]
fn all_active_command_attacks_are_detected_under_the_paper_config() {
    for kind in [
        TamperKind::FlipHeaderBit,
        TamperKind::DropMessage,
        TamperKind::Replay,
        TamperKind::Inject,
        TamperKind::Reorder,
    ] {
        let result = run_campaign(ObfusMemConfig::paper_default(), kind, 15);
        assert_eq!(result.detection_rate(), 1.0, "{kind:?} escaped detection");
    }
}

#[test]
fn ecb_strawman_is_measurably_weaker_than_ctr() {
    let trace_for = |mode| {
        let cfg = ObfusMemConfig {
            security: SecurityLevel::ObfuscateAuth,
            address_mode: mode,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 5);
        b.enable_trace();
        let mut rng = SplitMix64::new(6);
        let mut t = Time::ZERO;
        for _ in 0..300 {
            t = b.read(t, BlockAddr::from_index(rng.below(10)));
        }
        b.take_trace()
    };
    let ecb = leakage::analyze(&trace_for(AddressCipherMode::Ecb));
    let ctr = leakage::analyze(&trace_for(AddressCipherMode::Ctr));
    assert!(ecb.hot_set_recovery > 0.9, "ECB must leak the hot set");
    assert!(ctr.hot_set_recovery < 0.01, "CTR must not");
    assert!(ecb.temporal_linkage > ctr.temporal_linkage);
}

#[test]
fn footprint_grows_unbounded_for_the_observer_under_ctr() {
    // The longer the observer watches, the *less* precise their footprint
    // estimate gets — the long-run hiding property of §3.2. A fixed
    // 16-block working set is accessed while cumulative trace windows
    // grow; the observer's header count keeps inflating.
    let cfg = ObfusMemConfig::paper_default();
    let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 8);
    b.enable_trace();
    let mut t = Time::ZERO;
    let mut cumulative = Vec::new();
    let mut ratios = Vec::new();
    let mut issued = 0u64;
    for checkpoint in [100u64, 400, 1000] {
        while issued < checkpoint {
            t = b.read(t, BlockAddr::from_index(issued % 16));
            issued += 1;
        }
        cumulative.extend(b.take_trace());
        ratios.push(leakage::footprint_ratio(&cumulative));
    }
    assert!(
        ratios.windows(2).all(|w| w[1] > w[0]),
        "footprint estimate must degrade over time: {ratios:?}"
    );
    assert!(
        ratios[0] > 2.0,
        "even the first window overcounts: {ratios:?}"
    );
}

#[test]
fn multi_channel_traffic_is_balanced_with_injection() {
    let cfg = ObfusMemConfig::paper_default();
    let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(4), 11);
    b.enable_trace();
    // Deliberately skewed: all traffic to one 1 KB region (one channel).
    for i in 0..400u64 {
        b.read(Time::from_ps(i * 3000), BlockAddr::from_index(i % 16));
    }
    let imbalance = leakage::channel_imbalance(&b.take_trace(), 4);
    assert!(imbalance < 1.0, "injection must mask the skew: {imbalance}");
}

// ---------------------------------------------------------------------
// Fault-injection link layer: recovery end to end.
//
// The backend's read path asserts internally (debug builds) that every
// bus round trip is lossless — each read returns exactly the block the
// memory holds — so simply completing a faulty run is itself a readback
// correctness check. The assertions below add the protocol-level
// guarantees: counters re-converge, recovery counters move, nothing is
// left unrecovered, and quarantine re-steers without losing traffic.
// ---------------------------------------------------------------------

fn faulty_cfg(kind: obfusmem::core::link::FaultKind, rate: f64, seed: u64) -> ObfusMemConfig {
    ObfusMemConfig {
        faults: obfusmem::core::config::FaultPlan::single(kind, rate, seed),
        ..ObfusMemConfig::paper_default()
    }
}

#[test]
fn seeded_fault_campaign_recovers_every_fault_end_to_end() {
    use obfusmem::core::link::ALL_FAULT_KINDS;
    for kind in ALL_FAULT_KINDS {
        let cfg = faulty_cfg(kind, 0.05, 0xE2E0 ^ kind as u64);
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(2), 13);
        let mut t = Time::ZERO;
        for i in 0..120u64 {
            t = b.read(t, BlockAddr::from_index(i % 32));
            if i % 4 == 0 {
                b.write(t, BlockAddr::from_index(i % 32));
            }
        }
        let stats = b.link_stats().expect("fault plan active → link engaged");
        assert!(
            stats.faults_injected.get() > 0,
            "{kind:?}: campaign must inject faults"
        );
        assert_eq!(
            stats.unrecovered.get(),
            0,
            "{kind:?}: every fault must be recovered within the retry budget"
        );
        assert!(
            b.counters_converged(),
            "{kind:?}: CTR counters must re-converge after recovery"
        );
    }
}

#[test]
fn counters_reconverge_through_resync_not_teardown() {
    // Bit flips land in headers/tags often enough to force NACK→resync
    // cycles; the session must repair its counters in place.
    let cfg = faulty_cfg(obfusmem::core::link::FaultKind::BitFlip, 0.1, 99);
    let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(2), 17);
    let mut t = Time::ZERO;
    for i in 0..200u64 {
        t = b.read(t, BlockAddr::from_index(i % 64));
    }
    let stats = b.link_stats().expect("link active");
    assert!(stats.retransmits.get() > 0, "flips must force retransmits");
    assert!(
        stats.resyncs.get() > 0,
        "header/tag corruption must exercise the resync handshake"
    );
    assert_eq!(stats.unrecovered.get(), 0);
    assert!(b.counters_converged());
}

#[test]
fn quarantine_fires_after_failure_budget_and_resteers() {
    // A brutal flip rate with tight escalation thresholds: the first
    // channel to accumulate failures is quarantined and its traffic
    // re-steered; the survivor (last healthy) refuses quarantine, so
    // the run completes with correct data throughout.
    let mut cfg = faulty_cfg(obfusmem::core::link::FaultKind::BitFlip, 0.9, 3);
    cfg.link.rekey_threshold = 1;
    cfg.link.quarantine_threshold = 2;
    cfg.link.max_retries = 64;
    let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(2), 19);
    let mut t = Time::ZERO;
    for i in 0..40u64 {
        t = b.read(t, BlockAddr::from_index(i));
    }
    let stats = b.link_stats().expect("link active");
    assert!(
        stats.quarantines.get() >= 1,
        "the failure budget must trip quarantine"
    );
    assert!(
        b.resteered_channels() >= 1,
        "quarantined traffic must be re-steered"
    );
    let link = b.link().expect("link active");
    assert!(
        link.first_healthy().is_some(),
        "the last healthy channel must refuse quarantine"
    );
    assert!(b.counters_converged());
}
