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
//!
//! Two more cases run CI's sweep grids in-process through `run_sweep`
//! and pin the FNV-1a of the rows they write, so a local `cargo test`
//! fails where CI's shell gates would: the thread-count byte-identity
//! grid, the queued-backend smoke grid, plain and traced, and the
//! ORAM-mode smoke grid.

use obfusmem::core::link::ALL_FAULT_KINDS;
use obfusmem::mem::config::BackendKind;
use obfusmem::mem::fault::ALL_DEVICE_FAULT_KINDS;
use std::path::PathBuf;

use obfusmem_harness::measure::{OramMode, Scheme};
use obfusmem_harness::runner::{run_sweep, RunOptions, SweepReport};
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

/// A results file in the temp directory, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("obfusmem-sweep-grid-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempFile(path)
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.0).expect("the sweep wrote its file")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `sweep ... --no-timing --quiet` with `threads` workers.
fn quiet(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        timing: false,
        quiet: true,
        ..RunOptions::default()
    }
}

/// Runs `spec` into `out` and returns the report.
fn sweep(spec: &SweepSpec, out: &TempFile, opts: &RunOptions) -> SweepReport {
    run_sweep(spec, &out.0, opts).unwrap_or_else(|e| panic!("{}: {e}", out.0.display()))
}

/// Row count and FNV-1a of the parent release binary's
/// `ci-threads-1.jsonl` (CI step "Sweep thread-count byte-identity").
const THREADS_PIN: (usize, u64) = (5, 0x1025_7f1b_3af1_e042);

/// Row count and FNV-1a of the parent release binary's `ci-queued.jsonl`
/// (CI step "Queued backend smoke").
const QUEUED_PIN: (usize, u64) = (6, 0xa0a9_43b4_2c40_4fc8);

/// Row count and FNV-1a of the parent release binary's
/// `ci-oram-modes.jsonl` (CI step "ORAM codesign smoke").
const ORAM_MODES_PIN: (usize, u64) = (4, 0x67e9_c520_4fa0_fe28);

/// CI's thread-count gate: `sweep --workloads micro --schemes all
/// -n 50000 --no-timing` writes the same bytes at `--threads 1` and
/// `--threads 4`.
#[test]
fn micro_grid_bytes_do_not_depend_on_thread_count() {
    let spec = SweepSpec {
        workloads: vec!["micro".into()],
        schemes: Scheme::ALL.to_vec(),
        instructions: 50_000,
        ..SweepSpec::default()
    };
    let (one, four) = (TempFile::new("threads-1"), TempFile::new("threads-4"));
    sweep(&spec, &one, &quiet(1));
    sweep(&spec, &four, &quiet(4));
    let text = one.read();
    assert_eq!(text, four.read(), "rows depend on the thread count");
    let got = (text.lines().count(), fnv(text.as_bytes()));
    assert_eq!(
        got, THREADS_PIN,
        "micro grid rows moved; recomputed digest {:#018x}, rows:\n{text}",
        got.1
    );
}

/// CI's queued smoke and queued traced smoke: the micro grid over three
/// schemes on both controllers at 2 channels resumes without rerunning
/// a job, carries scheduler counters on the queued rows only, and
/// writes the same rows when metrics and a trace are recorded too.
#[test]
fn queued_grid_is_resumable_and_traced_rows_equal_plain_ones() {
    let spec = SweepSpec {
        workloads: vec!["micro".into()],
        schemes: vec![Scheme::Unprotected, Scheme::Obfusmem, Scheme::ObfusmemAuth],
        backends: BackendKind::ALL.to_vec(),
        channels: vec![2],
        instructions: 50_000,
        ..SweepSpec::default()
    };
    let plain = TempFile::new("queued");
    sweep(&spec, &plain, &quiet(2));
    let again = sweep(&spec, &plain, &quiet(2));
    assert_eq!(
        (again.ran, again.resumed),
        (0, 6),
        "a rerun resumes every row"
    );
    let text = plain.read();
    let queued: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"backend\":\"queued\""))
        .collect();
    assert_eq!(queued.len(), 3);
    assert!(queued.iter().any(|l| l.contains("\"sched_row_hits\"")));

    let (traced, metrics, trace) = (
        TempFile::new("queued-traced"),
        TempFile::new("queued-metrics"),
        TempFile::new("queued-trace"),
    );
    let opts = RunOptions {
        metrics_out: Some(metrics.0.clone()),
        trace_out: Some(trace.0.clone()),
        ..quiet(2)
    };
    sweep(&spec, &traced, &opts);
    assert_eq!(text, traced.read(), "recording changed the rows");
    assert_eq!(metrics.read().lines().count(), 6);
    assert!(trace.read().contains("\"traceEvents\""));

    let got = (text.lines().count(), fnv(text.as_bytes()));
    assert_eq!(
        got, QUEUED_PIN,
        "queued grid rows moved; recomputed digest {:#018x}, rows:\n{text}",
        got.1
    );
}

/// CI's ORAM codesign smoke: `--oram-mode all` fans out only the oram
/// scheme, so the micro grid writes one unprotected row, one fixed-mode
/// row without an `oram_mode` field, and one serial and one codesign
/// row that carry it.
#[test]
fn oram_mode_grid_tags_only_the_detailed_rows() {
    let spec = SweepSpec {
        workloads: vec!["micro".into()],
        schemes: vec![Scheme::Unprotected, Scheme::OramModel],
        oram_modes: OramMode::ALL.to_vec(),
        instructions: 50_000,
        ..SweepSpec::default()
    };
    let out = TempFile::new("oram-modes");
    sweep(&spec, &out, &quiet(2));
    let text = out.read();
    let count = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("\"oram_mode\":\"codesign\""), 1);
    assert_eq!(count("\"oram_mode\""), 2);
    let got = (text.lines().count(), fnv(text.as_bytes()));
    assert_eq!(
        got, ORAM_MODES_PIN,
        "oram-mode grid rows moved; recomputed digest {:#018x}, rows:\n{text}",
        got.1
    );
}
