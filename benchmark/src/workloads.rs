//! The five named workloads. Each one is a fixed composition whose inputs
//! derive only from `--seed`; the reasons for each composition are in
//! `README.md`.

use obfusmem_core::config::FaultPlan;
use obfusmem_core::link::ALL_FAULT_KINDS;
use obfusmem_cpu::workload::{by_name, table1_workloads};
use obfusmem_harness::job::derive_seed;
use obfusmem_harness::measure::{OramMode, PointSpec, Scheme};
use obfusmem_harness::serve::ServeSpec;
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::fault::{DeviceFaultPlan, ALL_DEVICE_FAULT_KINDS};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "fig4-paper",
    "membound-long",
    "serve-churn",
    "table3-oram",
    "chaos-recovery",
];

/// The instruction budget of `tables fig4` / `tables table3`.
pub const PAPER_INSTRUCTIONS: u64 = obfusmem_bench::DEFAULT_INSTRUCTIONS;

/// One simulation point with a stable label (`workload/scheme[/variant]`).
#[derive(Debug, Clone)]
pub struct Point {
    /// Stable label, unique within the workload.
    pub label: String,
    /// What to simulate.
    pub spec: PointSpec,
}

/// The serve-churn cell: one `run_cell` of the tenant fabric.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The grid spec the cell is taken from.
    pub spec: ServeSpec,
    /// Concurrent tenants.
    pub tenants: usize,
    /// Per-tenant re-key period.
    pub churn: u64,
}

/// What one pass of a workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Trace-driven points, each `TraceDrivenCore::run` over one backend.
    Points(Vec<Point>),
    /// One tenant-fabric cell.
    Serve(Cell),
}

/// Builds workload `name` under `seed`.
///
/// # Errors
///
/// Names the known workloads when `name` is not one of them.
pub fn plan(name: &str, seed: u64) -> Result<Plan, String> {
    Ok(match name {
        "fig4-paper" => Plan::Points(fig4_paper(PAPER_INSTRUCTIONS, seed)),
        "membound-long" => Plan::Points(membound_long(seed)),
        "serve-churn" => Plan::Serve(serve_churn(seed)),
        "table3-oram" => Plan::Points(table3_oram(PAPER_INSTRUCTIONS, seed)),
        "chaos-recovery" => Plan::Points(chaos_recovery(seed)),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {}",
                NAMES.join(", ")
            ))
        }
    })
}

fn point(spec: PointSpec, variant: &str) -> Point {
    let mut label = format!("{}/{}", spec.workload.name, spec.scheme.name());
    if !variant.is_empty() {
        label.push('/');
        label.push_str(variant);
    }
    Point { label, spec }
}

/// The four Fig 4 bars for every Table 1 program, exactly the points
/// `experiments::fig4` runs.
pub fn fig4_paper(instructions: u64, seed: u64) -> Vec<Point> {
    let schemes = [
        Scheme::Unprotected,
        Scheme::EncryptOnly,
        Scheme::Obfusmem,
        Scheme::ObfusmemAuth,
    ];
    table1_workloads()
        .into_iter()
        .flat_map(|w| {
            schemes.map(|s| point(PointSpec::paper(w.clone(), s, instructions, seed), ""))
        })
        .collect()
}

/// `experiments::table3`'s points plus the co-designed ORAM lane on
/// bwaves and mcf at an eighth of the budget (250k instructions at the
/// paper's 2M): each co-designed access walks a whole tree path through
/// the PCM controller and costs about 0.1 ms of host time.
pub fn table3_oram(instructions: u64, seed: u64) -> Vec<Point> {
    let schemes = [Scheme::Unprotected, Scheme::ObfusmemAuth, Scheme::OramModel];
    let mut points: Vec<Point> = table1_workloads()
        .into_iter()
        .flat_map(|w| {
            schemes.map(|s| point(PointSpec::paper(w.clone(), s, instructions, seed), ""))
        })
        .collect();
    for name in ["bwaves", "mcf"] {
        let w = by_name(name).expect("Table 1 workload");
        let spec = PointSpec {
            oram_mode: OramMode::Codesign,
            ..PointSpec::paper(w, Scheme::OramModel, instructions / 8, seed)
        };
        points.push(point(spec, "codesign"));
    }
    points
}

fn membound_long(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for name in ["bwaves", "mcf", "lbm"] {
        let w = by_name(name).expect("Table 1 workload");
        for scheme in [Scheme::Unprotected, Scheme::Obfusmem, Scheme::ObfusmemAuth] {
            let spec = PointSpec {
                mem: MemConfig::table2().with_channels(4),
                backend_seed: Some(seed),
                ..PointSpec::paper(w.clone(), scheme, 8_000_000, seed)
            };
            points.push(point(spec, ""));
        }
    }
    points
}

fn serve_churn(seed: u64) -> Cell {
    Cell {
        spec: ServeSpec {
            tenants: vec![256],
            churns: vec![16],
            channels: 4,
            requests: 1024,
            storm_period: 512,
            seed,
            ..ServeSpec::default()
        },
        tenants: 256,
        churn: 16,
    }
}

fn chaos_recovery(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for name in ["bwaves", "lbm"] {
        let w = by_name(name).expect("Table 1 workload");
        let base = PointSpec {
            mem: MemConfig::table2().with_channels(2),
            backend_seed: Some(seed),
            ..PointSpec::paper(w, Scheme::ObfusmemAuth, 1_000_000, seed)
        };
        for kind in ALL_FAULT_KINDS {
            let mut p = point(base.clone(), &format!("link-{}", kind.name()));
            p.spec.obfus.faults = FaultPlan::single(kind, 1e-3, derive_seed(seed, &p.label));
            points.push(p);
        }
        for kind in ALL_DEVICE_FAULT_KINDS {
            let mut p = point(base.clone(), &format!("device-{}", kind.name()));
            p.spec.obfus.device_faults =
                DeviceFaultPlan::single(kind, 2e-3, derive_seed(seed, &p.label));
            points.push(p);
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_with_unique_labels() {
        for name in NAMES {
            match plan(name, 7).expect("known workload") {
                Plan::Points(points) => {
                    let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
                    let n = labels.len();
                    labels.sort_unstable();
                    labels.dedup();
                    assert_eq!(labels.len(), n, "{name}: duplicate labels");
                }
                Plan::Serve(cell) => cell.spec.validate().expect("valid serve spec"),
            }
        }
        assert!(plan("nope", 1).is_err());
    }

    #[test]
    fn compositions_match_the_documented_sizes() {
        let count = |name| match plan(name, 1).expect("known") {
            Plan::Points(p) => p.len(),
            Plan::Serve(_) => 1,
        };
        assert_eq!(count("fig4-paper"), 60);
        assert_eq!(count("membound-long"), 9);
        assert_eq!(count("table3-oram"), 47);
        assert_eq!(count("chaos-recovery"), 20);
    }
}
