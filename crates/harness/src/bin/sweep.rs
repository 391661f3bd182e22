//! `sweep` — run a declarative experiment grid across all cores.
//!
//! ```text
//! sweep [--spec FILE] [--workloads LIST|all] [--schemes LIST|all]
//!       [--channels LIST] [--backend LIST|all] [--oram-mode LIST|all]
//!       [--replicates N] [--master-seed SEED]
//!       [-n/--instructions N] [--out FILE] [--metrics-out FILE]
//!       [--trace-out FILE] [--threads N] [--fresh] [--no-timing]
//!       [--leakage-windows LIST] [--leakage-squeezes LIST]
//!       [--leak-ceiling BITS] [--leak-floor BITS]
//!       [--dry-run] [--quiet]
//! ```
//!
//! With no flags it runs the paper's Table 3 acceptance grid (15
//! workloads × {unprotected, obfusmem, obfusmem-auth, oram}) on all
//! cores and appends one JSONL row per job to `sweep.jsonl`. If the
//! output file already has rows, those jobs are skipped — resume after a
//! kill by re-running the same command. See `EXPERIMENTS.md`.
//!
//! `sweep serve [options]` switches to the multi-tenant session-fabric
//! serving mode (see `obfusmem_harness::serve`): one long-lived fabric
//! per (tenant count × churn period) grid cell, one JSONL row per cell.

use std::path::PathBuf;
use std::process::ExitCode;

use obfusmem_harness::runner::{effective_threads, run_sweep, RunOptions};
use obfusmem_harness::serve::{run_serve, verify_single, ServeSpec};
use obfusmem_harness::spec::{flag_key, SweepSpec};

struct Cli {
    spec: SweepSpec,
    out: PathBuf,
    opts: RunOptions,
    fresh: bool,
    dry_run: bool,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return serve_main(args);
    }
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("sweep: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Expand before touching any file: a bad grid must leave the
    // previous results in place.
    let jobs = match cli.spec.expand() {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cli.dry_run {
        for job in &jobs {
            println!("{}\tseed=0x{:016x}", job.id, job.seed);
        }
        eprintln!("sweep: {} job(s) (dry run, nothing executed)", jobs.len());
        return ExitCode::SUCCESS;
    }

    if cli.fresh {
        let mut stale = vec![&cli.out];
        stale.extend(cli.opts.metrics_out.as_ref());
        stale.extend(cli.opts.trace_out.as_ref());
        for path in stale {
            if let Err(e) = remove_if_exists(path) {
                eprintln!("sweep: cannot remove {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "sweep: {} job(s) over {} thread(s) -> {}",
        jobs.len(),
        effective_threads(cli.opts.threads),
        cli.out.display()
    );
    match run_sweep(&cli.spec, &cli.out, &cli.opts) {
        Ok(report) => {
            // Fault campaigns are acceptance gates: any fault the link
            // failed to recover (or a diverged counter pair) fails the
            // invocation even though every row was written.
            if report.unrecovered > 0 || report.diverged > 0 {
                eprintln!(
                    "sweep: FAIL: {} unrecovered fault(s), {} diverged job(s)",
                    report.unrecovered, report.diverged
                );
                return ExitCode::FAILURE;
            }
            // Leakage campaigns gate in both directions: protected
            // schemes must stay dark AND the attacker must still read
            // the plaintext bus (else the observatory regressed).
            if report.leak_ceiling_violations > 0 || report.leak_floor_violations > 0 {
                eprintln!(
                    "sweep: FAIL: {} leak-ceiling violation(s), {} leak-floor violation(s)",
                    report.leak_ceiling_violations, report.leak_floor_violations
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

fn remove_if_exists(path: &std::path::Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

struct ServeCli {
    spec: ServeSpec,
    out: PathBuf,
    fresh: bool,
    quiet: bool,
    verify_single: bool,
}

fn serve_main(args: impl Iterator<Item = String>) -> ExitCode {
    let cli = match parse_serve_args(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("sweep serve: {msg}");
            eprintln!("{SERVE_USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if cli.verify_single {
        return match verify_single(cli.spec.seed, cli.spec.requests) {
            Ok(()) => {
                eprintln!(
                    "sweep serve: verify-single OK ({} requests, seed 0x{:x})",
                    cli.spec.requests, cli.spec.seed
                );
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("sweep serve: FAIL: verify-single: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    // Validate before touching the output: a bad grid must leave the
    // previous results in place.
    if let Err(e) = cli.spec.validate() {
        eprintln!("sweep serve: {e}");
        return ExitCode::FAILURE;
    }
    if cli.fresh {
        if let Err(e) = remove_if_exists(&cli.out) {
            eprintln!("sweep serve: cannot remove {}: {e}", cli.out.display());
            return ExitCode::FAILURE;
        }
    }

    let file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&cli.out)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sweep serve: cannot open {}: {e}", cli.out.display());
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::BufWriter::new(file);

    eprintln!(
        "sweep serve: {} cell(s) -> {}",
        cli.spec.cells().len(),
        cli.out.display()
    );
    match run_serve(&cli.spec, &mut out, cli.quiet) {
        Ok(report) => {
            use std::io::Write as _;
            if let Err(e) = out.flush() {
                eprintln!("sweep serve: cannot flush {}: {e}", cli.out.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "sweep serve: {} row(s), {} request(s) served, {} auth failure(s)",
                report.rows, report.served, report.auth_failures
            );
            // Isolation gate: any authentication failure in an honest run
            // means tenant sessions crossed streams — fail loudly.
            if report.auth_failures > 0 {
                eprintln!("sweep serve: FAIL: auth failures in an honest run");
                return ExitCode::FAILURE;
            }
            // Chaos gate: graceful degradation means every injected
            // device fault must clear through the recovery ladder.
            if report.unrecovered > 0 {
                eprintln!(
                    "sweep serve: FAIL: {} unrecovered device fault(s)",
                    report.unrecovered
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("sweep serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const SERVE_USAGE: &str = "\
usage: sweep serve [options]
  --tenants LIST       comma list of tenant counts (default 4)
  --churn LIST         comma list of per-tenant re-key periods, 0 = never
                       (default 0)
  --channels N         memory channels, power of two (default 1)
  --requests N         fill requests per tenant (default 64)
  --storm-period N     global completions between churn storms, 0 = never
  --seed SEED          master seed, decimal or 0x-hex
  --dh toy|full        Diffie-Hellman handshake strength (default toy)
  --workload NAME      `micro` or a Table 1 benchmark name (default micro)
  --chunk N            requests per progress chunk (default 4096)
  --device-fault KIND@RATE
                       device-fault overlay on every cell's array:
                       bit-flip|stuck-cell|row-fail|bank-fail at a rate
                       in (0, 1], e.g. bit-flip@0.002
  --device-fault-seed SEED
                       master seed for device-fault streams
  --out FILE           JSONL output file (default serve.jsonl)
  --fresh              delete the output file first
  --verify-single      run the 1-tenant legacy-equivalence gate and exit
                       (takes only --seed and --requests)
  --quiet              suppress progress lines
  -h, --help           show this help";

fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<ServeCli, String> {
    let mut cli = ServeCli {
        spec: ServeSpec::default(),
        out: PathBuf::from("serve.jsonl"),
        fresh: false,
        quiet: false,
        verify_single: false,
    };
    let mut args = args.peekable();
    let next_value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    // The first spec flag the 1-tenant gate would not honour.
    let mut not_verified = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => cli.out = PathBuf::from(next_value("--out", &mut args)?),
            "--fresh" => cli.fresh = true,
            "--verify-single" => cli.verify_single = true,
            "--quiet" => cli.quiet = true,
            "-h" | "--help" => {
                println!("{SERVE_USAGE}");
                std::process::exit(0);
            }
            // Every other flag names a serve spec key.
            flag => {
                let key = flag_key(flag).ok_or_else(|| format!("unknown argument {flag:?}"))?;
                let value = next_value(flag, &mut args)?;
                cli.spec.set(&key, &value).map_err(|e| e.to_string())?;
                if key != "seed" && key != "requests" {
                    not_verified.get_or_insert(arg);
                }
            }
        }
    }
    if let (true, Some(flag)) = (cli.verify_single, not_verified) {
        return Err(format!(
            "--verify-single checks one tenant on one channel with only \
             --seed and --requests; it cannot honour {flag}"
        ));
    }
    Ok(cli)
}

const USAGE: &str = "\
usage: sweep [options]
  --spec FILE          read a `key = value` sweep spec file first
  --workloads LIST     comma list of workload names, or `all` (Table 1)
  --schemes LIST       comma list of unprotected|encrypt-only|obfusmem|
                       obfusmem-auth|oram, or `all`
  --channels LIST      comma list of power-of-two channel counts
  --backend LIST       comma list of reservation|queued controller models,
                       or `all` (default reservation)
  --oram-mode LIST     comma list of fixed|serial|codesign ORAM backends,
                       or `all` (default fixed; fans out the oram scheme
                       only — `fixed` rows keep their legacy ids)
  --replicates N       seeds per grid point (default 1)
  --master-seed SEED   master seed, decimal or 0x-hex
  --fault-kinds LIST   comma list of bit-flip|drop|duplicate|replay|
                       reorder|delay-burst, or `all` (fault campaign)
  --fault-rates LIST   comma list of per-packet fault rates in (0, 1]
  --fault-seed SEED    master seed for fault-injection streams
  --device-fault-kinds LIST
                       comma list of bit-flip|stuck-cell|row-fail|
                       bank-fail, or `all` (device chaos campaign)
  --device-fault-rates LIST
                       comma list of device fault rates in (0, 1]
  --device-fault-seed SEED
                       master seed for device-fault streams
  --leakage-windows LIST
                       comma list of attacker analysis windows (real
                       accesses per window) — attaches the Membuster
                       observatory and adds leak_* fields to each row
  --leakage-squeezes LIST
                       comma list of cache-squeeze factors >= 1.0 that
                       multiply the workload's LLC MPKI, up to 1000
                       (default 1.0)
  --leak-ceiling BITS  max bits/access a protected scheme may leak before
                       the sweep fails (default 0.5)
  --leak-floor BITS    min bits/access the unprotected scheme must leak
                       before the sweep fails (default 1.0)
  -n, --instructions N instruction budget per job
  --out FILE           JSONL results/checkpoint file (default sweep.jsonl)
  --metrics-out FILE   write per-job metrics snapshots (JSONL) to FILE
  --trace-out FILE     record spans and write a Chrome trace_event JSON
                       (load in Perfetto / chrome://tracing) to FILE
  --threads N          worker threads (default: all cores)
  --fresh              delete the output file first instead of resuming
  --no-timing          omit host wall_ms from rows (byte-stable output)
  --dry-run            print the job list and derived seeds, run nothing
  --quiet              suppress per-job progress lines
  -h, --help           show this help

subcommands:
  serve                multi-tenant session-fabric serving mode
                       (`sweep serve --help` for its options)";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        spec: SweepSpec::default(),
        out: PathBuf::from("sweep.jsonl"),
        opts: RunOptions::default(),
        fresh: false,
        dry_run: false,
    };
    let mut args = args.peekable();
    let next_value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => {
                let path = next_value("--spec", &mut args)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                cli.spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
            }
            "--leak-ceiling" => {
                let v = next_value("--leak-ceiling", &mut args)?;
                cli.opts.leak_ceiling = v.parse().map_err(|_| format!("bad leak ceiling {v:?}"))?;
            }
            "--leak-floor" => {
                let v = next_value("--leak-floor", &mut args)?;
                cli.opts.leak_floor = v.parse().map_err(|_| format!("bad leak floor {v:?}"))?;
            }
            "--out" => cli.out = PathBuf::from(next_value("--out", &mut args)?),
            "--metrics-out" => {
                cli.opts.metrics_out = Some(PathBuf::from(next_value("--metrics-out", &mut args)?));
            }
            "--trace-out" => {
                cli.opts.trace_out = Some(PathBuf::from(next_value("--trace-out", &mut args)?));
            }
            "--threads" => {
                let v = next_value("--threads", &mut args)?;
                cli.opts.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--fresh" => cli.fresh = true,
            "--no-timing" => cli.opts.timing = false,
            "--dry-run" => cli.dry_run = true,
            "--quiet" => cli.opts.quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            // Every other flag names a spec key.
            flag => {
                let key = flag_key(flag).ok_or_else(|| format!("unknown argument {flag:?}"))?;
                let value = next_value(flag, &mut args)?;
                cli.spec.set(&key, &value).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_harness::measure::OramMode;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn oram_mode_flag_parses_lists_and_all() {
        let cli = parse_args(argv(&[
            "--schemes",
            "oram",
            "--oram-mode",
            "serial,codesign",
        ]))
        .expect("valid mode list");
        assert_eq!(
            cli.spec.oram_modes,
            vec![OramMode::Serial, OramMode::Codesign]
        );

        let cli = parse_args(argv(&["--oram-mode", "all"])).expect("`all` expands");
        assert_eq!(cli.spec.oram_modes, OramMode::ALL.to_vec());
    }

    /// Malformed `--oram-mode` values surface a typed spec error message,
    /// not a panic or a silently-ignored axis.
    #[test]
    fn oram_mode_flag_rejects_malformed_values() {
        let err = parse_args(argv(&["--oram-mode", "palermo"]))
            .err()
            .expect("unknown mode must be rejected");
        assert!(err.contains("unknown oram mode"), "got: {err}");

        let err = parse_args(argv(&["--oram-mode"]))
            .err()
            .expect("missing value must be rejected");
        assert!(err.contains("needs a value"), "got: {err}");
    }

    /// One value per serve spec key, none of them the default.
    #[rustfmt::skip]
    const SERVE_KEYS: [(&str, &str); 11] = [
        ("tenants", "1,0x3"),
        ("churn", "0,8"),
        ("channels", "2"),
        ("requests", "0x40_0"),
        ("storm_period", "64"),
        ("seed", "0x77"),
        ("dh", "full"),
        ("workload", "mcf"),
        ("chunk", "7"),
        ("device_fault", "bit-flip@0.01"),
        ("device_fault_seed", "0x99"),
    ];

    /// `--key-with-dashes V` on the `sweep serve` command line sets the
    /// same field as `ServeSpec::set(key, V)`, and moves it off the
    /// default.
    #[test]
    fn every_serve_spec_key_is_a_flag() {
        let default = format!("{:?}", ServeSpec::default());
        for (key, value) in SERVE_KEYS {
            let flag = format!("--{}", key.replace('_', "-"));
            let cli =
                parse_serve_args(argv(&[&flag, value])).unwrap_or_else(|e| panic!("{flag}: {e}"));
            let mut direct = ServeSpec::default();
            direct
                .set(key, value)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            let (cli, direct) = (format!("{:?}", cli.spec), format!("{direct:?}"));
            assert_ne!(cli, default, "{flag} changed nothing");
            assert_eq!(cli, direct, "{flag}");
        }
        for flag in ["--warp-drive", "--starvation-limit", "--storm-stride"] {
            let err = parse_serve_args(argv(&[flag, "2"]))
                .err()
                .expect("an unknown key must be rejected");
            assert!(err.contains("unknown key"), "{flag} got: {err}");
        }
        let err = parse_serve_args(argv(&["--device-fault", "bit-flip"]))
            .err()
            .expect("a device fault without a rate must be rejected");
        assert!(err.contains("KIND@RATE"), "got: {err}");
    }

    /// `--verify-single` checks a 1-tenant, 1-channel fabric from only
    /// the seed and request count, so any other serve key alongside it
    /// is an error that names the flag, in either order.
    #[test]
    fn verify_single_rejects_every_key_it_cannot_honour() {
        let cli = parse_serve_args(argv(&[
            "--verify-single",
            "--requests",
            "128",
            "--seed",
            "0x1E6AC7",
        ]))
        .expect("seed and requests are what the gate checks");
        assert!(cli.verify_single);
        assert_eq!((cli.spec.requests, cli.spec.seed), (128, 0x1E6AC7));
        for (key, value) in SERVE_KEYS {
            if key == "seed" || key == "requests" {
                continue;
            }
            let flag = format!("--{}", key.replace('_', "-"));
            for args in [
                [flag.as_str(), value, "--verify-single"],
                ["--verify-single", flag.as_str(), value],
            ] {
                let err = parse_serve_args(argv(&args))
                    .err()
                    .unwrap_or_else(|| panic!("{args:?} must be rejected"));
                assert!(err.contains(&flag), "{args:?}: {err}");
            }
        }
    }

    /// A malformed axis must also fail at expansion time when it sneaks in
    /// through a spec value the flag parser accepts (empty list).
    #[test]
    fn empty_oram_mode_axis_fails_expansion_with_a_typed_error() {
        let mut cli = parse_args(argv(&["--schemes", "oram"])).unwrap();
        cli.spec.oram_modes.clear();
        let err = cli.spec.expand().unwrap_err();
        assert!(err.to_string().contains("no oram modes"), "got: {err}");
    }
}
