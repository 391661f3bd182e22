//! Regenerates the paper's tables and figures.
//!
//! ```text
//! tables [-n INSTRUCTIONS] [-s SEED] [EXPERIMENT...]
//! ```
//!
//! The experiments are the rows of `EXPERIMENTS`; `all` (also the
//! default) runs every row in table order, and `tables -h` lists them.
//!
//! `trace` runs one Figure 4 point (bwaves, ObfusMem+Auth) with the span
//! recorder attached and writes `trace_fig4.json` (Chrome `trace_event`
//! format — open in Perfetto or `chrome://tracing`) and
//! `trace_fig4_metrics.json` (the whole-stack metrics snapshot) to the
//! working directory. It is not a row of the table, so not part of
//! `all`, because it writes files.

use obfusmem_bench::{experiments, render, DEFAULT_INSTRUCTIONS, DEFAULT_SEED};
use obfusmem_harness::spec::parse_u64;

/// An experiment's name and what it prints, given the instruction count
/// and the seed.
type Experiment = (&'static str, fn(u64, u64) -> String);

/// Every experiment `all` runs, in the order it runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("config", |_, _| config()),
    ("table1", |n, s| render::table1(&experiments::table1(n, s))),
    ("table3", |n, s| render::table3(&experiments::table3(n, s))),
    ("fig4", |n, s| {
        let rows = experiments::fig4(n, s);
        render::fig4(&rows, &experiments::fig4_average(&rows))
    }),
    ("fig5", |n, s| render::fig5(&experiments::fig5(n, s))),
    ("energy", |_, s| render::energy(&experiments::energy(s))),
    ("table4", |_, _| {
        let (oram, obfus) = experiments::table4();
        render::table4(&oram, &obfus)
    }),
    ("backends", |n, s| {
        render::backends_study(&experiments::backends_study(n, s))
    }),
    ("leakage", |n, s| {
        render::leakage(&experiments::leakage_matrix(n, s))
    }),
    ("oram-variants", |_, s| {
        render::oram_variants(&experiments::oram_variants(s))
    }),
    ("oram-detailed", |_, s| {
        render::oram_detailed(&experiments::oram_detailed(s))
    }),
    ("oram-codesign", |n, s| {
        render::oram_codesign(&experiments::oram_codesign_study(n, s))
    }),
    ("ablation-dummy", |n, s| {
        render::ablation_dummy(&experiments::ablation_dummy_policy(n, s))
    }),
    ("ablation-mac", |n, s| {
        render::ablation_mac(&experiments::ablation_mac_scheme(n, s))
    }),
    ("ablation-pairing", |n, s| {
        render::ablation_pairing(&experiments::ablation_pairing(n, s))
    }),
    ("ablation-mapping", |n, s| {
        render::ablation_mapping(&experiments::ablation_mapping(n, s))
    }),
    ("ablation-typehiding", |n, s| {
        render::ablation_type_hiding(&experiments::ablation_type_hiding(n, s))
    }),
    ("ablation-stash", |_, s| {
        render::ablation_stash(&experiments::ablation_oram_stash(s))
    }),
    ("thermal", |_, s| render::thermal(&experiments::thermal(s))),
];

/// The experiment that writes files, outside the table.
const TRACE: &str = "trace";

/// What to run, from the command line.
#[derive(Debug, PartialEq)]
struct Options {
    instructions: u64,
    seed: u64,
    /// Experiment names, each a row of [`EXPERIMENTS`] or [`TRACE`].
    wanted: Vec<&'static str>,
}

/// Reads `-n`, `-s` and the experiment names. `-n` and `-s` take the
/// same integer forms as `sweep` (decimal, `0x` hex, `_` separators).
/// An unknown name is an error before anything runs. An empty error
/// asks for the usage text alone (`-h`).
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        instructions: DEFAULT_INSTRUCTIONS,
        seed: DEFAULT_SEED,
        wanted: Vec::new(),
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut number = || {
            let v = it.next().ok_or(format!("missing value for {arg}"))?;
            parse_u64(v).map_err(|e| format!("{arg}: {}", e.0))
        };
        match arg.as_str() {
            "-n" => opts.instructions = number()?,
            "-s" => opts.seed = number()?,
            "-h" | "--help" => return Err(String::new()),
            "all" => all = true,
            TRACE => opts.wanted.push(TRACE),
            other => match EXPERIMENTS.iter().find(|(name, _)| *name == other) {
                Some((name, _)) => opts.wanted.push(name),
                None => return Err(format!("unknown experiment {other:?}")),
            },
        }
    }
    if opts.instructions == 0 {
        return Err("instructions must be at least 1".into());
    }
    if all || opts.wanted.is_empty() {
        opts.wanted = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        instructions,
        seed,
        wanted,
    } = parse_args(&args).unwrap_or_else(|e| usage(&e));

    eprintln!("# instructions per run: {instructions}, seed: {seed}");
    for name in wanted {
        // parse_args admits only the table's rows and TRACE.
        match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => println!("{}", run(instructions, seed)),
            None => run_trace(instructions, seed),
        }
    }
}

fn run_trace(instructions: u64, seed: u64) {
    let spec = obfusmem_cpu::workload::by_name("bwaves").expect("Table 1 workload");
    let report = experiments::trace_point(spec, instructions, seed);
    let trace_path = "trace_fig4.json";
    let metrics_path = "trace_fig4_metrics.json";
    if let Err(e) = std::fs::write(trace_path, &report.chrome_json) {
        eprintln!("error: cannot write {trace_path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(metrics_path, &report.metrics_json) {
        eprintln!("error: cannot write {metrics_path}: {e}");
        std::process::exit(1);
    }
    println!("Traced fig4 point: {}/{}", report.workload, report.scheme);
    println!("  exec time        : {} ps", report.exec_time_ps);
    println!(
        "  matches untraced : {}",
        if report.matches_untraced { "yes" } else { "NO" }
    );
    println!(
        "  events / tracks  : {} spans+instants on {} tracks",
        report.events, report.tracks
    );
    println!("  chrome trace     : {trace_path} (open in Perfetto)");
    println!("  metrics snapshot : {metrics_path}");
    if !report.matches_untraced {
        eprintln!("error: tracing perturbed the simulation");
        std::process::exit(1);
    }
}

/// Table 2's machine, as the paper lists it.
fn config() -> String {
    let mem = obfusmem_mem::config::MemConfig::table2();
    let hier = obfusmem_cache::config::HierarchyConfig::table2();
    [
        "Table 2: simulated machine configuration".to_string(),
        format!("  cores           : {} x 2 GHz (trace-driven)", hier.cores),
        format!(
            "  L1 / L2 / L3    : {} KB / {} KB / {} MB, all 8-way, 64 B blocks",
            hier.l1.size_bytes >> 10,
            hier.l2.size_bytes >> 10,
            hier.l3.size_bytes >> 20
        ),
        format!(
            "  memory          : {} GB PCM, {} channel(s) x 12.8 GB/s",
            mem.capacity_bytes >> 30,
            mem.channels
        ),
        format!(
            "  PCM timing      : tRCD {} ns, tRP {} ns, tCL {} ns, tBURST {} ns",
            mem.t_rcd.as_ns(),
            mem.t_rp.as_ns(),
            mem.t_cl.as_ns_f64(),
            mem.t_burst.as_ns()
        ),
        format!(
            "  organization    : {} ranks/channel, {} banks/rank, 1 KB rows, RoRaBaChCo",
            mem.ranks_per_channel, mem.banks_per_rank
        ),
        "  counter cache   : 256 KB, 8-way, 5 cycles".to_string(),
        "  AES (45nm synth): 24-cycle pipeline @ 4 ns, 128-bit pad/cycle".to_string(),
        // The block ends with a blank line.
        "  MD5             : 64-stage pipeline\n".to_string(),
    ]
    .join("\n")
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    let mut names = String::from("experiments:");
    let mut width = names.len();
    for name in EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .chain([TRACE, "all"])
    {
        if width + 1 + name.len() > 76 {
            names.push_str("\n            ");
            width = 12;
        }
        names.push(' ');
        names.push_str(name);
        width += 1 + name.len();
    }
    eprintln!("usage: tables [-n INSTRUCTIONS] [-s SEED] [EXPERIMENT...]\n{names}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_instructions_are_rejected() {
        assert_eq!(
            parse(&["-n", "0", "fig4"]),
            Err("instructions must be at least 1".into())
        );
        assert!(parse(&["-n", "0x0"]).is_err());
    }

    #[test]
    fn counts_and_seeds_take_hex_and_underscores() {
        let opts = parse(&["-n", "0x4E20", "-s", "20_000", "fig4"]).unwrap();
        assert_eq!((opts.instructions, opts.seed), (20_000, 20_000));
        assert_eq!(opts.wanted, ["fig4"]);
        assert_eq!(parse(&["-n", "20_000"]).unwrap().instructions, 20_000);
    }

    #[test]
    fn malformed_and_missing_values_are_rejected() {
        assert!(parse(&["-n", "twenty"])
            .unwrap_err()
            .contains("bad integer"));
        assert_eq!(parse(&["-s"]), Err("missing value for -s".into()));
    }

    #[test]
    fn unknown_experiments_are_rejected_before_any_runs() {
        assert_eq!(
            parse(&["fig4", "bogus"]),
            Err("unknown experiment \"bogus\"".into())
        );
        assert!(parse(&["bogus", "all"]).is_err());
    }

    #[test]
    fn all_runs_each_row_once_in_table_order_and_trace_stays_out() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(parse(&["all"]).unwrap().wanted, names);
        assert_eq!(parse(&["-n", "7"]).unwrap().wanted, names);
        assert!(!names.contains(&TRACE));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is listed twice");
        assert_eq!(parse(&["trace", "fig4"]).unwrap().wanted, [TRACE, "fig4"]);
    }
}
