//! Watching the machine must not change it.
//!
//! bwaves under ObfusMem+Auth runs five ways on 1, 2, 4 and 8 channels:
//! untapped, with an inert streaming bus tap, with the backend's buffered
//! bus trace, with the span recorder, and with a disabled span recorder.
//! Every `RunResult` field must agree. Multi-channel machines inject
//! cross-channel dummy pairs (§3.4), each of which uses up CTR counters
//! on both ends; that state change must happen whether or not anyone
//! observes the bus.
//!
//! `micro` then runs under every scheme, and the ORAM scheme in each
//! mode, through the plain, inert-tap, span-recorded and attacked
//! runners, which must agree too. The leakage campaign's rows are
//! pinned by a known-answer digest. Last, the traced Fig 4 point that
//! `tables -n 50000 -s 1 trace` writes must match its untraced run and
//! its known answers.

use obfusmem::core::system::{System, SystemConfig};
use obfusmem::cpu::core::RunResult;
use obfusmem::cpu::workload::{by_name, micro_test_workload};
use obfusmem::mem::config::MemConfig;
use obfusmem::obs::trace::TraceHandle;
use obfusmem_bench::experiments::trace_point;
use obfusmem_harness::job::run_job;
use obfusmem_harness::measure::{
    run_point, run_point_nulltap, run_point_observed, run_point_with, BusObserver, LeakagePoint,
    OramMode, PointSpec, Scheme,
};
use obfusmem_harness::sink::encode_row;
use obfusmem_harness::spec::SweepSpec;

const INSTRUCTIONS: u64 = 50_000;

/// 7002 is the seed the benchmark's passivity check first diverged on;
/// 200302317 is the seed `tables` uses.
const SEEDS: [u64; 2] = [7002, 200_302_317];

fn point(channels: usize, seed: u64) -> PointSpec {
    let workload = by_name("bwaves").expect("Table 1 workload");
    let mut p = PointSpec::paper(workload, Scheme::ObfusmemAuth, INSTRUCTIONS, seed);
    p.mem = MemConfig::table2().with_channels(channels);
    p
}

fn run_bus_traced(p: &PointSpec) -> RunResult {
    let mut system = System::new(SystemConfig {
        security: p.scheme.security().expect("a protected scheme"),
        obfus: p.obfus,
        mem: p.mem.clone(),
    });
    system.backend_mut().enable_trace();
    let result = system.run(&p.workload, p.instructions, p.seed);
    assert!(
        !system.backend_mut().take_trace().is_empty(),
        "the trace must have recorded the run"
    );
    result
}

#[test]
fn untapped_tapped_bus_traced_and_span_traced_runs_agree() {
    let mut diverged = Vec::new();
    for channels in [1, 2, 4, 8] {
        for seed in SEEDS {
            let p = point(channels, seed);
            let untapped = format!("{:?}", run_point(&p));
            let observed = [
                ("tapped", run_point_nulltap(&p)),
                ("bus-traced", run_bus_traced(&p)),
                (
                    "span-traced",
                    run_point_observed(&p, &TraceHandle::recording()).0,
                ),
                (
                    "span-disabled",
                    run_point_observed(&p, &TraceHandle::disabled()).0,
                ),
            ];
            for (how, result) in observed {
                let result = format!("{result:?}");
                if result != untapped {
                    diverged.push(format!(
                        "{channels}ch seed {seed}, {how}:\n  untapped {untapped}\n  {how} {result}"
                    ));
                }
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "observing the bus changed simulated results:\n{}",
        diverged.join("\n")
    );
}

/// Every scheme on `micro`, and the ORAM scheme in each mode: the plain,
/// inert-tap and span-recorded runners return the same result, and so
/// does the attacked runner at squeeze 1.0 wherever an attacker may
/// attach (every point but the detailed ORAM modes).
#[test]
fn every_runner_agrees_on_every_scheme_and_oram_mode() {
    let leak = LeakagePoint {
        window: 128,
        squeeze: 1.0,
    };
    let mut diverged = Vec::new();
    for seed in SEEDS {
        for scheme in Scheme::ALL {
            let modes: &[OramMode] = if scheme == Scheme::OramModel {
                &OramMode::ALL
            } else {
                &[OramMode::Fixed]
            };
            for &mode in modes {
                let mut p = PointSpec::paper(micro_test_workload(), scheme, INSTRUCTIONS, seed);
                p.oram_mode = mode;
                let plain = format!("{:?}", run_point(&p));
                let mut observed = vec![
                    ("tapped", run_point_nulltap(&p)),
                    (
                        "span-traced",
                        run_point_observed(&p, &TraceHandle::recording()).0,
                    ),
                ];
                if mode == OramMode::Fixed {
                    observed.push((
                        "attacked",
                        run_point_with(&p, &TraceHandle::disabled(), BusObserver::Attacker(leak)).0,
                    ));
                }
                for (how, result) in observed {
                    let result = format!("{result:?}");
                    if result != plain {
                        diverged.push(format!(
                            "{scheme}/{} seed {seed}, {how}:\n  plain {plain}\n  {how} {result}",
                            mode.name()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "a runner changed simulated results:\n{}",
        diverged.join("\n")
    );
}

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The leakage campaign's grid (`micro` x every scheme x window 128 at
/// 50k instructions) folds its timing-free JSONL rows into one digest:
/// the attacker's `leak_*` fields and the attacked runs' timing must not
/// move when the runner does. A mismatch prints the recomputed digest;
/// paste it over the pin only when the change in rows is deliberate.
#[test]
fn leakage_campaign_rows_match_their_known_answer() {
    const PIN: (usize, u64) = (5, 0x582f_d6c2_010f_1c0c);
    let spec = SweepSpec {
        workloads: vec!["micro".into()],
        schemes: Scheme::ALL.to_vec(),
        leakage_windows: vec![128],
        instructions: INSTRUCTIONS,
        ..SweepSpec::default()
    };
    let jobs = spec.expand().expect("the campaign grid is valid");
    let rows: String = jobs
        .iter()
        .map(|job| encode_row(&run_job(job), false) + "\n")
        .collect();
    let got = (jobs.len(), fnv(rows.as_bytes()));
    assert_eq!(
        got, PIN,
        "leakage rows moved; recomputed pin ({}, {:#018x}), rows:\n{rows}",
        got.0, got.1
    );
}

/// Whether `s` is one non-empty JSON object: it opens with `{`, closes
/// with `}`, holds something between, and its braces and brackets
/// (outside strings) close only at the end.
fn is_json_object(s: &str) -> bool {
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for (i, c) in s.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 && i + 1 != s.len() {
                    return false;
                }
            }
            _ => {}
        }
    }
    s.starts_with('{') && s.ends_with('}') && s.len() > 2 && depth == 0 && !in_string
}

/// The point `tables -n 50000 -s 1 trace` runs (bwaves, ObfusMem+Auth,
/// span recorder attached): the traced run equals the untraced one, the
/// trace and the metrics snapshot are non-empty JSON objects, and the
/// execution time and event count match their known answers.
#[test]
fn traced_fig4_point_matches_untraced_and_its_known_answers() {
    let report = trace_point(by_name("bwaves").expect("Table 1 workload"), 50_000, 1);
    assert!(report.matches_untraced, "tracing perturbed the simulation");
    assert!(report.events > 0 && report.tracks > 0);
    assert!(
        is_json_object(&report.chrome_json),
        "chrome trace is not a JSON object"
    );
    assert!(
        is_json_object(&report.metrics_json),
        "metrics snapshot is not a JSON object"
    );
    assert_eq!(
        (report.exec_time_ps, report.events),
        (56_473_844, 5801),
        "traced fig4 point moved"
    );
}
