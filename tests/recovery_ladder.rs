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
//! The link's recovery protocol is pinned by the fault campaign: micro
//! under ObfusMem+Auth with every link fault kind at rate 0.001, on the
//! reservation and the queued controller. Each backend's timing-free
//! JSONL rows fold into one FNV-1a digest, the same bytes the `sweep`
//! invocation writes for that campaign.
//!
//! The device chaos campaign is pinned the same way: micro under
//! Unprotected, ObfusMem and ObfusMem+Auth with every device fault kind at
//! rate 0.002 and device seed 0xD4A17, the grid CI's "Device chaos
//! campaign" step runs. Its twelve rows must each report
//! `dev_unrecovered` 0, and their bytes fold to the FNV-1a of the
//! `device-chaos.jsonl` the `sweep` binary writes.
//!
//! A mismatch prints the whole recomputed table. Paste it over `PINS`
//! only when the change in simulated behaviour is deliberate.

use obfusmem::core::backend::ObfusMemBackend;
use obfusmem::core::config::ObfusMemConfig;
use obfusmem::core::link::ALL_FAULT_KINDS;
use obfusmem::core::recovery::RecoveryStats;
use obfusmem::cpu::core::MemoryBackend;
use obfusmem::mem::config::{BackendKind, MemConfig};
use obfusmem::mem::fault::{DeviceFaultKind, DeviceFaultPlan, ALL_DEVICE_FAULT_KINDS};
use obfusmem::mem::request::BlockAddr;
use obfusmem::obs::metrics::MetricsNode;
use obfusmem::sim::time::{Duration, Time};
use obfusmem_harness::job::run_job;
use obfusmem_harness::measure::Scheme;
use obfusmem_harness::sink::encode_row;
use obfusmem_harness::spec::SweepSpec;
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

/// `(backend, rows, FNV-1a of the rows)` for the fault campaign: every
/// link fault kind at rate 0.001 under fault seed 0xFA017 and master
/// seed 0xC1C1, 50k instructions of micro under ObfusMem+Auth.
const FAULT_CAMPAIGN_PINS: [(BackendKind, usize, u64); 2] = [
    (BackendKind::Reservation, 6, 0xa212_4dd5_b20c_d82f),
    (BackendKind::Queued, 6, 0x115c_68cb_585d_61d5),
];

#[test]
fn fault_campaign_rows_match_their_known_answer() {
    for (backend, rows, digest) in FAULT_CAMPAIGN_PINS {
        let spec = SweepSpec {
            workloads: vec!["micro".into()],
            schemes: vec![Scheme::ObfusmemAuth],
            backends: vec![backend],
            fault_kinds: ALL_FAULT_KINDS.to_vec(),
            fault_rates: vec![0.001],
            fault_seed: 0xFA017,
            master_seed: 0xC1C1,
            instructions: 50_000,
            ..SweepSpec::default()
        };
        let jobs = spec.expand().expect("the campaign grid is valid");
        let mut text = String::new();
        let mut unrecovered = 0;
        for job in &jobs {
            let out = run_job(job);
            let rec = out.recovery().expect("every campaign row engages the link");
            unrecovered += rec.counter("unrecovered").expect("unrecovered counter");
            text.push_str(&encode_row(&out, false));
            text.push('\n');
        }
        let mut h = Fnv::new();
        h.bytes(text.as_bytes());
        assert_eq!(
            unrecovered, 0,
            "{backend:?}: every injected fault must heal"
        );
        assert_eq!(
            (jobs.len(), h.0),
            (rows, digest),
            "{backend:?} campaign rows moved; recomputed digest {:#018x}, rows:\n{text}",
            h.0
        );
    }
}

/// `(rows, FNV-1a of the rows)` for the device chaos campaign: every
/// device fault kind at rate 0.002 under device seed 0xD4A17, 50k
/// instructions of micro under the three schemes with a memory array.
const DEVICE_CHAOS_PIN: (usize, u64) = (12, 0xe08f_900e_9df0_bb8d);

#[test]
fn device_chaos_rows_match_their_known_answer() {
    let spec = SweepSpec {
        workloads: vec!["micro".into()],
        schemes: vec![Scheme::Unprotected, Scheme::Obfusmem, Scheme::ObfusmemAuth],
        device_fault_kinds: ALL_DEVICE_FAULT_KINDS.to_vec(),
        device_fault_rates: vec![0.002],
        device_fault_seed: 0xD4A17,
        instructions: 50_000,
        ..SweepSpec::default()
    };
    let jobs = spec.expand().expect("the chaos grid is valid");
    let mut text = String::new();
    for job in &jobs {
        let out = run_job(job);
        let rec = out
            .device_recovery()
            .expect("every chaos row engages the recovery ladder");
        assert_eq!(
            rec.counter("unrecovered"),
            Some(0),
            "{}: every device fault must be recovered",
            job.id
        );
        text.push_str(&encode_row(&out, false));
        text.push('\n');
    }
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    assert_eq!(
        (jobs.len(), h.0),
        DEVICE_CHAOS_PIN,
        "device chaos rows moved; recomputed digest {:#018x}, rows:\n{text}",
        h.0
    );
}
