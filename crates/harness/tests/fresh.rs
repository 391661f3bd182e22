//! `--fresh` deletes the previous results only for a grid that will run.
//! An invalid spec must exit 1 and leave the output file as it was, in
//! `sweep` and in `sweep serve` alike.

use std::path::PathBuf;
use std::process::Command;

/// `(name, arguments)`: a sweep grid whose cache squeeze lifts micro past
/// one miss per instruction, and a serve grid with zero tenants.
const INVALID: [(&str, &[&str]); 2] = [
    (
        "sweep",
        &[
            "--workloads",
            "micro",
            "--schemes",
            "unprotected",
            "--leakage-windows",
            "128",
            "--leakage-squeezes",
            "1e9",
            "-n",
            "2000",
        ],
    ),
    ("serve", &["serve", "--tenants", "0"]),
];

#[test]
fn an_invalid_spec_leaves_the_previous_results_in_place() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fresh");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for (name, args) in INVALID {
        let out = dir.join(format!("{name}.jsonl"));
        std::fs::write(&out, "sentinel\n").expect("sentinel file");
        let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .arg("--out")
            .arg(&out)
            .args(["--fresh", "--quiet"])
            .output()
            .expect("sweep starts");
        assert_eq!(
            run.status.code(),
            Some(1),
            "{name}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert_eq!(
            std::fs::read_to_string(&out).ok().as_deref(),
            Some("sentinel\n"),
            "{name}: --fresh destroyed the previous results"
        );
    }
}
