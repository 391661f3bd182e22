//! Watching the machine must not change it.
//!
//! bwaves under ObfusMem+Auth runs five ways on 1, 2, 4 and 8 channels:
//! untapped, with an inert streaming bus tap, with the backend's buffered
//! bus trace, with the span recorder, and with a disabled span recorder.
//! Every `RunResult` field must agree. Multi-channel machines inject
//! cross-channel dummy pairs (§3.4), each of which uses up CTR counters
//! on both ends; that state change must happen whether or not anyone
//! observes the bus.

use obfusmem::core::system::{System, SystemConfig};
use obfusmem::cpu::core::RunResult;
use obfusmem::cpu::workload::by_name;
use obfusmem::mem::config::MemConfig;
use obfusmem::obs::trace::TraceHandle;
use obfusmem_harness::measure::{
    run_point, run_point_nulltap, run_point_observed, PointSpec, Scheme,
};

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
