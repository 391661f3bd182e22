//! Known-answer pins for sweep-grid expansion.
//!
//! Each grid below expands through `SweepSpec::expand`, and the `Debug`
//! form of every returned `JobSpec` (id, seed, fault seeds and every axis
//! value, in canonical order) folds into one FNV-1a digest. The ids and
//! seeds are the resume keys of every results file, so a grid's digest
//! must not move when the expansion code does.
//!
//! A mismatch prints the whole recomputed table. Paste it over `PINS`
//! only when the change in job lists is deliberate.

use obfusmem::core::link::ALL_FAULT_KINDS;
use obfusmem::mem::config::BackendKind;
use obfusmem::mem::fault::ALL_DEVICE_FAULT_KINDS;
use obfusmem_harness::measure::{OramMode, Scheme};
use obfusmem_harness::spec::{flag_key, SweepSpec};

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned grids: the default Table 3 grid, a chaos grid crossing
/// every controller with every link and device fault kind, a leakage
/// grid over every scheme, and the ORAM-mode fan-out.
fn grids() -> Vec<(&'static str, SweepSpec)> {
    let micro = || vec!["micro".to_string()];
    vec![
        ("table3-default", SweepSpec::default()),
        (
            "chaos",
            SweepSpec {
                workloads: micro(),
                schemes: vec![Scheme::Obfusmem, Scheme::ObfusmemAuth],
                channels: vec![1, 2],
                backends: BackendKind::ALL.to_vec(),
                fault_kinds: ALL_FAULT_KINDS.to_vec(),
                fault_rates: vec![0.001, 0.01],
                device_fault_kinds: ALL_DEVICE_FAULT_KINDS.to_vec(),
                replicates: 2,
                ..SweepSpec::default()
            },
        ),
        (
            "leakage",
            SweepSpec {
                workloads: vec!["micro".into(), "mcf".into()],
                schemes: Scheme::ALL.to_vec(),
                leakage_windows: vec![128, 256],
                leakage_squeezes: vec![1.0, 2.0],
                ..SweepSpec::default()
            },
        ),
        (
            "oram-modes",
            SweepSpec {
                workloads: micro(),
                schemes: vec![Scheme::Unprotected, Scheme::OramModel],
                oram_modes: OramMode::ALL.to_vec(),
                ..SweepSpec::default()
            },
        ),
    ]
}

#[rustfmt::skip]
const PINS: &[(&str, usize, u64)] = &[
    ("table3-default", 60, 0xe9290f118ce3d507),
    ("chaos", 768, 0x71d5be300a029edd),
    ("leakage", 40, 0x7150a16d26bea2ef),
    ("oram-modes", 4, 0x0e768abbc05a2c04),
];

#[test]
fn every_grid_expands_to_its_known_job_list() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (name, spec) in grids() {
        let jobs = spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.job_count(), jobs.len(), "{name}: job_count disagrees");
        let text: String = jobs.iter().map(|j| format!("{j:?}\n")).collect();
        let got = (name, jobs.len(), fnv(text.as_bytes()));
        table.push_str(&format!(
            "    (\"{}\", {}, {:#018x}),\n",
            got.0, got.1, got.2
        ));
        match PINS.iter().find(|p| p.0 == name) {
            Some(pin) if *pin == got => {}
            _ => mismatches.push(name),
        }
    }
    assert!(
        mismatches.is_empty(),
        "known answers differ for {mismatches:?}; recomputed table:\n{table}"
    );
}

/// One value per spec key, none of them the default.
#[rustfmt::skip]
const KEYS: [(&str, &str); 16] = [
    ("workloads", "micro,mcf"),
    ("schemes", "obfusmem,oram"),
    ("channels", "2,4"),
    ("backends", "all"),
    ("oram_modes", "fixed,codesign"),
    ("replicates", "3"),
    ("master_seed", "0xB0B"),
    ("instructions", "0x4E20"),
    ("fault_kinds", "drop,replay"),
    ("fault_rates", "0.002,0.01"),
    ("fault_seed", "0xFA"),
    ("device_fault_kinds", "stuck-cell"),
    ("device_fault_rates", "0.004"),
    ("device_fault_seed", "1_000"),
    ("leakage_windows", "64,512"),
    ("leakage_squeezes", "1.0,3.0"),
];

/// `key = V` in a spec file and `--key-with-dashes V` on the `sweep`
/// command line build the same spec, and each moves its field off the
/// default. The flag form goes through `flag_key`, as the CLI does.
#[test]
fn every_spec_key_is_also_a_flag() {
    for (key, value) in KEYS {
        let file =
            SweepSpec::parse(&format!("{key} = {value}")).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_ne!(file, SweepSpec::default(), "{key} changed nothing");
        let flag = format!("--{}", key.replace('_', "-"));
        let mut cli = SweepSpec::default();
        cli.set(&flag_key(&flag).unwrap(), value)
            .unwrap_or_else(|e| panic!("{flag}: {e}"));
        assert_eq!(file, cli, "{flag}");
    }
    assert_eq!(
        SweepSpec::parse("instructions = 20_000")
            .unwrap()
            .instructions,
        20_000
    );
    for (alias, key) in [
        ("-n", "instructions"),
        ("--backend", "backends"),
        ("--oram-mode", "oram_modes"),
    ] {
        assert_eq!(flag_key(alias).as_deref(), Some(key));
    }
    assert_eq!(flag_key("positional"), None);
    assert!(SweepSpec::default().set("warp_drive", "1").is_err());
}
