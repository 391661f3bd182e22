//! Known-answer pins for the device-fault recovery ladder, on both arrays
//! that walk it: the tenant fabric's shared array and the backend's.
//!
//! Fabric cases run six tenants × 64 requests on two channels, with
//! per-tenant churn and churn storms, under each device-fault shape. Each
//! run folds into an FNV-1a digest of its `RecoveryStats`, the report's
//! span and auth failures, every tenant's latency trace and the
//! `observe_metrics` JSON. The stats are pinned in the clear as well, so
//! a moved pin shows which rung moved.
//!
//! The backend case is the ladder's give-up path: every bank dead, so
//! each block climbs every rung, is refused the last healthy bank and is
//! served degraded from then on. Its stats are pinned after each of
//! three read rounds.
//!
//! A mismatch prints the whole recomputed table. Paste it over `PINS`
//! only when the change in simulated behaviour is deliberate.

use obfusmem::core::backend::ObfusMemBackend;
use obfusmem::core::config::ObfusMemConfig;
use obfusmem::core::recovery::RecoveryStats;
use obfusmem::cpu::core::MemoryBackend;
use obfusmem::mem::config::MemConfig;
use obfusmem::mem::fault::{DeviceFaultKind, DeviceFaultPlan};
use obfusmem::mem::request::BlockAddr;
use obfusmem::obs::metrics::MetricsNode;
use obfusmem::sim::time::{Duration, Time};
use obfusmem_tenant::fabric::{FabricConfig, SessionFabric};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// `[detected, retried, resynced, quarantined, migrated, unrecovered]`.
type Stats = [u64; 6];

fn stats(s: &RecoveryStats) -> Stats {
    [
        s.detected,
        s.retried,
        s.resynced,
        s.quarantined,
        s.migrated,
        s.unrecovered,
    ]
}

fn fabric_cases() -> Vec<(&'static str, DeviceFaultPlan)> {
    use DeviceFaultKind::*;
    vec![
        (
            "mixed",
            DeviceFaultPlan {
                bit_flip: 0.02,
                stuck_cell: 0.01,
                row_fail: 0.002,
                bank_fail: 0.001,
                seed: 0xC4A0,
            },
        ),
        (
            "stuck-cell-0.10",
            DeviceFaultPlan::single(StuckCell, 0.10, 0x57),
        ),
        (
            "row-fail-0.05",
            DeviceFaultPlan::single(RowFail, 0.05, 0x2F),
        ),
        (
            "bank-fail-0.25",
            DeviceFaultPlan::single(BankFail, 0.25, 0x1B),
        ),
        (
            "bank-fail-1.0",
            DeviceFaultPlan::single(BankFail, 1.0, 0x1B),
        ),
    ]
}

/// Runs one fabric case to completion; returns its stats and digest.
fn drive_fabric(plan: DeviceFaultPlan) -> (Stats, u64) {
    let mut cfg = FabricConfig::new(6);
    cfg.requests_per_tenant = 64;
    cfg.channels = 2;
    cfg.churn_period = 10;
    cfg.storm_period = 40;
    cfg.device_faults = plan;
    let mut fabric = SessionFabric::new(cfg).expect("fabric builds");
    fabric.run_to_completion().expect("run completes");

    let rs = *fabric.recovery_stats().expect("overlay engaged");
    let mut h = Fnv::new();
    h.str(&format!("{rs:?}"));
    let report = fabric.report();
    h.u64(report.span.as_ps());
    h.u64(report.auth_failures);
    for t in 0..report.tenants.len() {
        for &ps in fabric.latency_trace(t) {
            h.u64(ps);
        }
    }
    let mut metrics = MetricsNode::new();
    fabric.observe_metrics(&mut metrics);
    h.str(&metrics.to_json());
    (stats(&rs), h.0)
}

/// Backend blocks written once, then read each round.
const BLOCKS: u64 = 40;
const ROUNDS: usize = 3;

/// ObfusMem+Auth on one channel with every bank dead: the stats and the
/// last read's completion time (ps) after each read round.
fn drive_backend_give_up() -> Vec<(Stats, u64)> {
    let mut cfg = ObfusMemConfig::paper_default();
    cfg.device_faults = DeviceFaultPlan::single(DeviceFaultKind::BankFail, 1.0, 9);
    let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 0x6E7E_0019);
    let mut t = Time::ZERO;
    for i in 0..BLOCKS {
        b.write(t, BlockAddr::from_index(i));
        t += Duration::from_ns(20);
    }
    (0..ROUNDS)
        .map(|_| {
            for i in 0..BLOCKS {
                t = b.read(t, BlockAddr::from_index(i));
            }
            let rc = b.recovery().expect("recovery active");
            (stats(&rc.stats), t.as_ps())
        })
        .collect()
}

/// `(case, stats, digest)` for each fabric case. Bank-fail 1.0 was
/// re-recorded when the fabric began counting a block the ladder gives
/// up on once and serving it degraded, as the backend does: it was
/// `[384, 1536, 384, 31, 31, 384]`, one climb per request, and is now one
/// climb per distinct block.
#[rustfmt::skip]
const PINS: &[(&str, Stats, u64)] = &[
    ("mixed", [10, 22, 4, 0, 4, 0], 0xdd6c18713266fcb7),
    ("stuck-cell-0.10", [19, 76, 19, 3, 45, 0], 0xe1762518ded8e780),
    ("row-fail-0.05", [4, 16, 4, 5, 40, 0], 0xc0a8544c8bddbb3e),
    ("bank-fail-0.25", [6, 24, 6, 6, 6, 0], 0x5397f6dd90001318),
    ("bank-fail-1.0", [344, 1376, 344, 31, 31, 344], 0xe2ab47b2ce871acb),
];

/// The backend give-up case's stats and clock after each read round.
const BACKEND_GIVE_UP: [(Stats, u64); ROUNDS] = [
    ([40, 160, 40, 15, 111, 40], 103_999_000),
    ([40, 160, 40, 15, 111, 40], 105_299_000),
    ([40, 160, 40, 15, 111, 40], 106_599_000),
];

#[test]
fn both_ladders_match_their_known_answers() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut reached = [0u64; 6];
    for (name, plan) in fabric_cases() {
        let (s, digest) = drive_fabric(plan);
        table.push_str(&format!("    (\"{name}\", {s:?}, {digest:#018x}),\n"));
        match PINS.iter().find(|p| p.0 == name) {
            Some(pin) if *pin == (name, s, digest) => {}
            _ => mismatches.push(name),
        }
        for (r, n) in reached.iter_mut().zip(s) {
            *r += n;
        }
    }
    for (i, what) in [
        (1, "retried"),
        (2, "resynced"),
        (3, "quarantined"),
        (4, "migrated"),
        (5, "unrecovered"),
    ] {
        assert!(reached[i] > 0, "no fabric case reached {what}");
    }
    assert!(
        mismatches.is_empty(),
        "known answers differ for {mismatches:?}; recomputed table:\n{table}"
    );

    assert_eq!(
        drive_backend_give_up(),
        BACKEND_GIVE_UP,
        "backend give-up (stats, clock) per round"
    );
}
