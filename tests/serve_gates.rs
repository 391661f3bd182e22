//! The three `sweep serve` gates, run in-process through the harness API.
//!
//! - Smoke: the 64-tenant churn-storm cell (churn 16, 4 channels, 64
//!   requests per tenant, storm period 512, seed `0x5E55`) runs twice.
//!   Both runs write the same bytes, report zero authentication
//!   failures, and fold to the FNV-1a pin of the `ci-serve-a.jsonl`
//!   the release binary writes for the same flags.
//! - Legacy equivalence: `verify_single(0x1E6AC7, 128)`, the 1-tenant
//!   fabric against the hand-rolled single-session path.
//! - Device chaos: 4 tenants on 2 channels, 4000 requests each, under
//!   `stuck-cell@0.01`. Zero authentication failures, every fault
//!   recovered, and the `recovery_*` counters on the row.
//!
//! The CI steps of the same names still run the binary, which also gates
//! its exit code. A moved pin means the fabric's simulated behaviour
//! changed; update it only when that change is deliberate.

use obfusmem::mem::fault::DeviceFaultKind;
use obfusmem_harness::serve::{run_serve, verify_single, ServeSpec};

/// FNV-1a (64 bit) of `ci-serve-a.jsonl` as the release binary writes it.
const SMOKE_PIN: u64 = 0x6a61_360b_5015_d1f5;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `spec` to a byte buffer, as `sweep serve --quiet` writes it.
fn serve(spec: &ServeSpec) -> (Vec<u8>, u64, u64) {
    let mut out = Vec::new();
    let report = run_serve(spec, &mut out, true).expect("serve grid runs");
    (out, report.auth_failures, report.unrecovered)
}

#[test]
fn serve_smoke_is_deterministic_isolated_and_pinned() {
    let spec = ServeSpec {
        tenants: vec![64],
        churns: vec![16],
        channels: 4,
        requests: 64,
        storm_period: 512,
        seed: 0x5E55,
        ..ServeSpec::default()
    };
    let (a, auth_a, _) = serve(&spec);
    let (b, auth_b, _) = serve(&spec);
    assert_eq!(a, b, "two runs of one serve cell must write the same bytes");
    assert_eq!((auth_a, auth_b), (0, 0), "tenant sessions crossed streams");
    assert_eq!(
        fnv1a(&a),
        SMOKE_PIN,
        "serve smoke row moved:\n{}",
        String::from_utf8_lossy(&a)
    );
}

#[test]
fn one_tenant_fabric_equals_the_legacy_single_session_path() {
    verify_single(0x1E6AC7, 128).expect("1-tenant fabric matches the legacy path");
}

#[test]
fn serve_under_stuck_cells_recovers_every_fault() {
    let spec = ServeSpec {
        tenants: vec![4],
        channels: 2,
        requests: 4000,
        device_fault: Some((DeviceFaultKind::StuckCell, 0.01)),
        ..ServeSpec::default()
    };
    let (row, auth_failures, unrecovered) = serve(&spec);
    let row = String::from_utf8(row).expect("utf8 row");
    assert_eq!(auth_failures, 0, "reply bytes must stay authentic: {row}");
    assert_eq!(unrecovered, 0, "every device fault must clear: {row}");
    for field in [
        "recovery_detected",
        "recovery_retried",
        "recovery_resynced",
        "recovery_quarantined",
        "recovery_migrated",
    ] {
        assert!(
            row.contains(&format!("\"{field}\":")),
            "{field} missing: {row}"
        );
    }
    assert!(row.contains("\"auth_failures\":0"), "{row}");
    assert!(row.contains("\"recovery_unrecovered\":0"), "{row}");
}
