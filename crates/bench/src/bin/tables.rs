//! Regenerates the paper's tables and figures.
//!
//! ```text
//! tables [-n INSTRUCTIONS] [-s SEED] [EXPERIMENT...]
//!
//! experiments: config table1 table3 fig4 fig5 energy table4 thermal backends
//!              leakage oram-variants oram-detailed oram-codesign
//!              ablation-dummy ablation-mac ablation-pairing ablation-mapping
//!              ablation-typehiding ablation-stash trace all
//! ```
//!
//! `trace` runs one Figure 4 point (bwaves, ObfusMem+Auth) with the span
//! recorder attached and writes `trace_fig4.json` (Chrome `trace_event`
//! format — open in Perfetto or `chrome://tracing`) and
//! `trace_fig4_metrics.json` (the whole-stack metrics snapshot) to the
//! working directory. It is not part of `all` because it writes files.

use obfusmem_bench::{experiments, render, DEFAULT_INSTRUCTIONS, DEFAULT_SEED};
use obfusmem_harness::spec::parse_u64;

/// What to run, from the command line.
#[derive(Debug, PartialEq)]
struct Options {
    instructions: u64,
    seed: u64,
    wanted: Vec<String>,
}

/// Reads `-n`, `-s` and the experiment names. `-n` and `-s` take the
/// same integer forms as `sweep` (decimal, `0x` hex, `_` separators).
/// An empty error asks for the usage text alone (`-h`).
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        instructions: DEFAULT_INSTRUCTIONS,
        seed: DEFAULT_SEED,
        wanted: Vec::new(),
    };
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
            other => opts.wanted.push(other.to_string()),
        }
    }
    if opts.instructions == 0 {
        return Err("instructions must be at least 1".into());
    }
    if opts.wanted.is_empty() || opts.wanted.iter().any(|w| w == "all") {
        opts.wanted = [
            "config",
            "table1",
            "table3",
            "fig4",
            "fig5",
            "energy",
            "table4",
            "backends",
            "leakage",
            "oram-variants",
            "oram-detailed",
            "oram-codesign",
            "ablation-dummy",
            "ablation-mac",
            "ablation-pairing",
            "ablation-mapping",
            "ablation-typehiding",
            "ablation-stash",
            "thermal",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
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
    for exp in wanted {
        match exp.as_str() {
            "config" => print_config(),
            "table1" => println!(
                "{}",
                render::table1(&experiments::table1(instructions, seed))
            ),
            "table3" => println!(
                "{}",
                render::table3(&experiments::table3(instructions, seed))
            ),
            "fig4" => {
                let rows = experiments::fig4(instructions, seed);
                let avg = experiments::fig4_average(&rows);
                println!("{}", render::fig4(&rows, &avg));
            }
            "fig5" => println!("{}", render::fig5(&experiments::fig5(instructions, seed))),
            "energy" => println!("{}", render::energy(&experiments::energy(seed))),
            "table4" => {
                let (oram, obfus) = experiments::table4();
                println!("{}", render::table4(&oram, &obfus));
            }
            "thermal" => println!("{}", render::thermal(&experiments::thermal(seed))),
            "leakage" => println!(
                "{}",
                render::leakage(&experiments::leakage_matrix(instructions, seed))
            ),
            "backends" => println!(
                "{}",
                render::backends_study(&experiments::backends_study(instructions, seed))
            ),
            "oram-variants" => {
                println!(
                    "{}",
                    render::oram_variants(&experiments::oram_variants(seed))
                )
            }
            "oram-detailed" => {
                println!(
                    "{}",
                    render::oram_detailed(&experiments::oram_detailed(seed))
                )
            }
            "oram-codesign" => println!(
                "{}",
                render::oram_codesign(&experiments::oram_codesign_study(instructions, seed))
            ),
            "ablation-dummy" => println!(
                "{}",
                render::ablation_dummy(&experiments::ablation_dummy_policy(instructions, seed))
            ),
            "ablation-mac" => println!(
                "{}",
                render::ablation_mac(&experiments::ablation_mac_scheme(instructions, seed))
            ),
            "ablation-pairing" => println!(
                "{}",
                render::ablation_pairing(&experiments::ablation_pairing(instructions, seed))
            ),
            "ablation-mapping" => println!(
                "{}",
                render::ablation_mapping(&experiments::ablation_mapping(instructions, seed))
            ),
            "ablation-typehiding" => println!(
                "{}",
                render::ablation_type_hiding(&experiments::ablation_type_hiding(
                    instructions,
                    seed
                ))
            ),
            "ablation-stash" => {
                println!(
                    "{}",
                    render::ablation_stash(&experiments::ablation_oram_stash(seed))
                )
            }
            "trace" => run_trace(instructions, seed),
            other => usage(&format!("unknown experiment {other:?}")),
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

fn print_config() {
    let mem = obfusmem_mem::config::MemConfig::table2();
    let hier = obfusmem_cache::config::HierarchyConfig::table2();
    println!("Table 2: simulated machine configuration");
    println!("  cores           : {} x 2 GHz (trace-driven)", hier.cores);
    println!(
        "  L1 / L2 / L3    : {} KB / {} KB / {} MB, all 8-way, 64 B blocks",
        hier.l1.size_bytes >> 10,
        hier.l2.size_bytes >> 10,
        hier.l3.size_bytes >> 20
    );
    println!(
        "  memory          : {} GB PCM, {} channel(s) x 12.8 GB/s",
        mem.capacity_bytes >> 30,
        mem.channels
    );
    println!(
        "  PCM timing      : tRCD {} ns, tRP {} ns, tCL {} ns, tBURST {} ns",
        mem.t_rcd.as_ns(),
        mem.t_rp.as_ns(),
        mem.t_cl.as_ns_f64(),
        mem.t_burst.as_ns()
    );
    println!(
        "  organization    : {} ranks/channel, {} banks/rank, 1 KB rows, RoRaBaChCo",
        mem.ranks_per_channel, mem.banks_per_rank
    );
    println!("  counter cache   : 256 KB, 8-way, 5 cycles");
    println!("  AES (45nm synth): 24-cycle pipeline @ 4 ns, 128-bit pad/cycle");
    println!("  MD5             : 64-stage pipeline\n");
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: tables [-n INSTRUCTIONS] [-s SEED] [EXPERIMENT...]\n\
         experiments: config table1 table3 fig4 fig5 energy table4 thermal backends\n\
         \u{20}            leakage oram-variants oram-detailed oram-codesign\n\
         \u{20}            ablation-dummy ablation-mac ablation-pairing ablation-mapping\n\u{20}            ablation-typehiding ablation-stash trace all"
    );
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
}
