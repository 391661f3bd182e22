//! End-to-end and per-layer benchmark of the ObfusMem reproduction.
//!
//! ```text
//! obfusmem-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! obfusmem-benchmark --compare A B
//! ```
//!
//! A run takes one workload through three kinds of pass in one thread:
//! untraced end-to-end passes (an untimed warm-up, then as many as fit in
//! `--seconds`), one timers pass that times each layer from outside, and
//! one traced pass through the real entry points. It
//! prints every metric with its unit, writes `out/<workload>.json` and a
//! Chrome trace, and ends with one JSON line holding the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`). It exits 1
//! when any pass disagrees with another or any request fails.
//!
//! `--compare` judges two result files (or directories of them) against
//! the bounds in `BENCHMARK.json`. See `README.md`.

mod fold;
mod json;
mod metrics;
mod passes;
mod report;
mod stats;
mod workloads;
mod wrap;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use passes::{PassOut, Row, Values};
use report::{out_dir, Metric, Report};
use stats::Summary;

/// End-to-end passes run even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;

/// Measuring time when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 12;

struct RunOpts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(RunOpts),
    Compare(String, String),
}

fn usage() -> String {
    format!(
        "usage: obfusmem-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]\n\
         \u{20}      obfusmem-benchmark --compare A.json|DIR B.json|DIR\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = obfusmem_bench::DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--compare" => {
                let a = value()?.clone();
                let b = it.next().ok_or("--compare needs two paths")?.clone();
                return Ok(Command::Compare(a, b));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run(RunOpts {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// FNV-1a over every row: the `sim_digest` two commits compare.
fn digest(rows: &[Row]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in rows {
        eat(row.label.as_bytes());
        for (name, v) in &row.fields {
            eat(name.as_bytes());
            eat(&v.to_le_bytes());
        }
    }
    format!("{h:016x}")
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Host time of one pass with every segment at its fastest over the
/// passes. The machine's interference only ever slows work down, and it
/// comes in bursts of seconds, so each segment's fastest time is the
/// steadiest estimate of its cost: over ten seeds, per-pass medians
/// spread 18.6% and 24.0% on fig4-paper and membound-long, segment
/// minima 5.6% and 18.7%.
fn fastest(passes: &[PassOut], segments: fn(&PassOut) -> &Vec<f64>) -> Result<f64, String> {
    let n = segments(&passes[0]).len();
    if passes.iter().any(|p| segments(p).len() != n) {
        return Err("end-to-end passes were cut into different segments".into());
    }
    Ok((0..n)
        .map(|i| {
            passes
                .iter()
                .map(|p| segments(p)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum())
}

/// Compares `rows` with the reference pass; returns the requests of the
/// points that differ and records what differed.
fn mismatched(pass: &str, reference: &[Row], rows: &[Row], problems: &mut Vec<String>) -> u64 {
    if rows.len() != reference.len() {
        problems.push(format!(
            "{pass}: {} rows against {} in the reference pass",
            rows.len(),
            reference.len()
        ));
        return reference.iter().map(|r| r.requests).sum();
    }
    let mut failed = 0;
    for (want, got) in reference.iter().zip(rows) {
        if want != got {
            problems.push(format!(
                "{pass}: {} differs from the warm-up pass",
                want.label
            ));
            failed += want.requests;
        }
    }
    failed
}

fn run(opts: &RunOpts) -> Result<Report, String> {
    let plan = workloads::plan(&opts.workload, opts.seed)?;
    let name = &opts.workload;

    // An untimed end-to-end pass warms the process up: a cold first pass
    // ran up to a third slower. The timers pass runs only after the peak RSS
    // is read: run first, its own allocations left the allocator in a
    // seed-dependent state that moved the peak by 4 MiB between seeds.
    eprintln!("# {name}: warm-up pass");
    let warmup = passes::e2e(&plan)?;
    let mut e2e: Vec<PassOut> = Vec::new();
    let start = Instant::now();
    loop {
        let pass = passes::e2e(&plan)?;
        let wall = pass.wall_s;
        e2e.push(pass);
        eprintln!("# {name}: e2e pass {} took {wall:.3} s", e2e.len());
        let elapsed = start.elapsed().as_secs_f64();
        if e2e.len() >= MIN_PASSES && elapsed + wall > opts.seconds as f64 {
            break;
        }
    }
    // Read before the timers and traced passes, whose probes and span
    // buffers are not the simulator's memory.
    let peak_rss_mb = peak_rss_mib()?;

    eprintln!("# {name}: timers pass");
    let timers = passes::timers(&plan)?;
    eprintln!("# {name}: traced pass");
    let traced = passes::traced(&plan)?;
    for key in &traced.unlisted {
        eprintln!("# warning: recorder emitted span {key:?}, which the report does not list");
    }

    let reference = &warmup.rows;
    let per_pass: u64 = reference.iter().map(|r| r.requests).sum();
    let mut problems = timers.mismatches;
    let mut failed = warmup.failed + timers.pass.failed + traced.pass.failed;
    for (i, pass) in e2e.iter().enumerate() {
        failed += pass.failed;
        failed += mismatched(
            &format!("e2e pass {}", i + 1),
            reference,
            &pass.rows,
            &mut problems,
        );
    }
    failed += mismatched("timers pass", reference, &timers.pass.rows, &mut problems);
    failed += mismatched("traced pass", reference, &traced.pass.rows, &mut problems);
    let attempted = per_pass * (e2e.len() as u64 + 3);
    for p in &problems {
        eprintln!("# check failed: {p}");
    }

    let walls: Vec<f64> = e2e.iter().map(|p| p.wall_s).collect();
    let setup_s = fastest(&e2e, |p| &p.setup)?;
    let wall_s = setup_s + fastest(&e2e, |p| &p.work)?;
    let end_to_end = metrics::end_to_end()
        .into_iter()
        .map(|def| {
            let (value, passes) = match def.name.as_str() {
                "wall_s" => (wall_s, walls.clone()),
                "sim_req_per_s" => (
                    per_pass as f64 / wall_s,
                    walls.iter().map(|w| per_pass as f64 / w).collect(),
                ),
                "setup_s" => (setup_s, e2e.iter().map(|p| p.setup.iter().sum()).collect()),
                "peak_rss_mb" => (peak_rss_mb, Vec::new()),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Metric { def, value, passes }
        })
        .collect();

    let mut values: Values = timers.values;
    values.extend(traced.values);
    let median_wall = Summary::of(&walls).median;
    let overhead = |pass_s: f64| 100.0 * (pass_s - median_wall) / median_wall;
    values.insert(
        "host.obs.recording_overhead_pct".into(),
        overhead(traced.pass.wall_s),
    );
    values.insert(
        "host.bench.timer_overhead_pct".into(),
        overhead(timers.pass.wall_s),
    );
    values.insert(
        "paper_error_pct".into(),
        metrics::paper_error_pct(name, reference),
    );
    values.insert(
        "failed_ops_frac".into(),
        passes::ratio(failed as f64, attempted as f64),
    );
    let per_layer = metrics::per_layer()
        .into_iter()
        .map(|def| Metric {
            value: values.remove(&def.name).unwrap_or(0.0),
            def,
            passes: Vec::new(),
        })
        .collect();
    if let Some(extra) = values.keys().next() {
        return Err(format!(
            "metric {extra:?} is measured but not in the catalog"
        ));
    }

    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if let Some(chrome) = &traced.chrome {
        let path = out.join(format!("{name}.trace.json"));
        std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Report {
        workload: name.clone(),
        seed: opts.seed,
        seconds: opts.seconds,
        sim_digest: digest(reference),
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => match report::compare(Path::new(&a), Path::new(&b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run(opts) => match run(&opts) {
            Ok(report) => {
                let path = out_dir().join(format!("{}.json", report.workload));
                if let Err(e) = std::fs::write(&path, report.to_json()) {
                    eprintln!("error: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                print!("{}", report.human());
                println!("{}", report.result_line(opts.trace));
                if report.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
