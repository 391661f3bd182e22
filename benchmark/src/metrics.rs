//! The metric catalog, and the paper-facing numbers derived from rows.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step.

use obfusmem_bench::experiments::{fig4_average, Fig4Row, Table3Row, PAPER_FIG4_AVG, PAPER_TABLE3};
use obfusmem_cpu::workload::table1_workloads;
use obfusmem_harness::measure::Scheme;
use obfusmem_oram::codesign::OramMode;
use obfusmem_tenant::qos::TenantClass;

use crate::fold::SPANS;
use crate::passes::Row;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics: host time and memory a user of the simulator
/// pays, measured with tracing off.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("wall_s", "s", "lower"),
        def("sim_req_per_s", "req/s", "higher"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
    ]
}

/// The per-layer metrics, in report order. A layer a workload never
/// calls reports 0.
pub fn per_layer() -> Vec<Def> {
    let schemes = [
        Scheme::Unprotected,
        Scheme::EncryptOnly,
        Scheme::Obfusmem,
        Scheme::ObfusmemAuth,
    ];
    let mut d = vec![
        def("failed_ops_frac", "fraction", "lower"),
        def("paper_error_pct", "%", "lower"),
        def("sim_p99_ns", "ns", "lower"),
        def("host.cpu.setup_ms", "ms", "lower"),
        def("host.cpu.ns_per_req", "ns", "lower"),
        def("host.core.build_ms", "ms", "lower"),
    ];
    for s in schemes {
        d.push(def(
            format!("host.core.read_ns.{}", s.name()),
            "ns",
            "lower",
        ));
        d.push(def(
            format!("host.core.read_p99_ns.{}", s.name()),
            "ns",
            "lower",
        ));
        d.push(def(
            format!("host.core.write_ns.{}", s.name()),
            "ns",
            "lower",
        ));
    }
    d.extend([
        def("host.core.drain_ms", "ms", "lower"),
        def("host.crypto.mac_tag_ns", "ns", "lower"),
        def("host.crypto.pad8_ns", "ns", "lower"),
        def("host.crypto.aes_key_ns", "ns", "lower"),
        def("host.mem.access_ns", "ns", "lower"),
        def("host.oram.build_ms", "ms", "lower"),
    ]);
    for mode in [OramMode::Fixed, OramMode::Codesign] {
        d.push(def(
            format!("host.oram.read_ns.{}", mode.name()),
            "ns",
            "lower",
        ));
        d.push(def(
            format!("host.oram.write_ns.{}", mode.name()),
            "ns",
            "lower",
        ));
    }
    d.extend([
        def("host.tenant.build_ms", "ms", "lower"),
        def("host.tenant.handshake_us", "us", "lower"),
        def("host.tenant.ns_per_req", "ns", "lower"),
        def("host.sec.null_tap_overhead_pct", "%", "lower"),
        def("host.obs.recording_overhead_pct", "%", "lower"),
        def("host.bench.timer_overhead_pct", "%", "lower"),
    ]);
    for (kind, name) in SPANS {
        d.push(def(format!("sim.{kind}.{name}_ns"), "ns", "lower"));
    }
    d.push(def("sim.exec_ms", "ms", "lower"));
    d.push(def("sim.tenant.p50_ns", "ns", "lower"));
    for class in TenantClass::ALL {
        d.push(def(
            format!("sim.tenant.{}_p99_ns", class.name()),
            "ns",
            "lower",
        ));
    }
    d.push(def("sim.tenant.throughput_mrps", "Mreq/s", "higher"));
    let counts = [
        "count.core.fills",
        "count.core.writebacks",
        "count.cache.mshr_stalls",
        "count.engine.paired_dummies",
        "count.engine.channel_dummies",
    ];
    d.extend(counts.map(|n| def(n, "count", "lower")));
    d.push(def("ratio.engine.dummy_share", "ratio", "lower"));
    d.push(def("count.crypto.counter_misses", "count", "lower"));
    d.push(def("ratio.crypto.counter_cache_hit", "ratio", "higher"));
    d.push(def("count.mem.array_reads", "count", "lower"));
    d.push(def("count.mem.array_writes", "count", "lower"));
    d.push(def("ratio.mem.row_hit", "ratio", "higher"));
    let counts = [
        "count.link.retransmits",
        "count.link.resyncs",
        "count.recovery.detected",
        "count.recovery.retried",
        "count.recovery.unrecovered",
        "count.oram.accesses",
    ];
    d.extend(counts.map(|n| def(n, "count", "lower")));
    d.push(def("ratio.oram.blocks_per_access", "ratio", "lower"));
    let counts = [
        "count.tenant.rekeys",
        "count.tenant.storms",
        "count.tenant.auth_failures",
    ];
    d.extend(counts.map(|n| def(n, "count", "lower")));
    d
}

/// True for metrics that are a function of the seed alone (simulated
/// time, counts, the paper error, failures): two builds on one seed must
/// report them identically.
pub fn is_deterministic(name: &str) -> bool {
    name.starts_with("sim")
        || name.starts_with("count.")
        || name.starts_with("ratio.")
        || name == "paper_error_pct"
        || name == "failed_ops_frac"
}

fn exec_ps(rows: &[Row], label: &str) -> Option<f64> {
    let row = rows.iter().find(|r| r.label == label)?;
    Some(row.field("exec_ps")? as f64)
}

/// `RunResult::overhead_vs`, on rows.
fn overhead(rows: &[Row], name: &str, scheme: Scheme, base: f64) -> Option<f64> {
    let ps = exec_ps(rows, &format!("{name}/{}", scheme.name()))?;
    Some(100.0 * (ps - base) / base)
}

/// Figure 4's rows, computed as `experiments::fig4` computes them.
/// `None` unless `rows` hold every Fig 4 point.
pub fn fig4_rows(rows: &[Row]) -> Option<Vec<Fig4Row>> {
    table1_workloads()
        .iter()
        .map(|w| {
            let base = exec_ps(rows, &format!("{}/{}", w.name, Scheme::Unprotected.name()))?;
            Some(Fig4Row {
                name: w.name,
                encrypt_only: overhead(rows, w.name, Scheme::EncryptOnly, base)?,
                obfusmem: overhead(rows, w.name, Scheme::Obfusmem, base)?,
                obfusmem_auth: overhead(rows, w.name, Scheme::ObfusmemAuth, base)?,
            })
        })
        .collect()
}

/// Table 3's rows, computed as `experiments::table3` computes them.
/// `None` unless `rows` hold every Table 3 point.
pub fn table3_rows(rows: &[Row]) -> Option<Vec<Table3Row>> {
    table1_workloads()
        .iter()
        .map(|w| {
            let base = exec_ps(rows, &format!("{}/{}", w.name, Scheme::Unprotected.name()))?;
            let obfus = exec_ps(rows, &format!("{}/{}", w.name, Scheme::ObfusmemAuth.name()))?;
            let oram = exec_ps(rows, &format!("{}/{}", w.name, Scheme::OramModel.name()))?;
            let paper = PAPER_TABLE3
                .iter()
                .find(|(n, ..)| *n == w.name)
                .map_or((0.0, 0.0, 0.0), |&(_, o, b, s)| (o, b, s));
            Some(Table3Row {
                name: w.name,
                oram_overhead: 100.0 * (oram - base) / base,
                obfus_overhead: 100.0 * (obfus - base) / base,
                speedup: oram / obfus,
                paper,
            })
        })
        .collect()
}

/// Relative error against the paper, percent. fig4-paper: the mean error
/// of Fig 4's three averages against `PAPER_FIG4_AVG`. table3-oram: the
/// error of the mean ObfusMem+Auth speedup over the fixed ORAM against
/// `PAPER_TABLE3`'s mean. Other workloads have no paper reference: 0.
pub fn paper_error_pct(workload: &str, rows: &[Row]) -> f64 {
    let err = |measured: f64, paper: f64| (measured - paper).abs() / paper;
    match workload {
        "fig4-paper" => fig4_rows(rows).map_or(0.0, |r| {
            let avg = fig4_average(&r);
            let (e, o, a) = PAPER_FIG4_AVG;
            100.0 * (err(avg.encrypt_only, e) + err(avg.obfusmem, o) + err(avg.obfusmem_auth, a))
                / 3.0
        }),
        "table3-oram" => table3_rows(rows).map_or(0.0, |r| {
            let n = r.len() as f64;
            let measured = r.iter().map(|row| row.speedup).sum::<f64>() / n;
            let paper = r.iter().map(|row| row.paper.2).sum::<f64>() / n;
            100.0 * err(measured, paper)
        }),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::passes::e2e;
    use crate::workloads::{fig4_paper, table3_oram, Plan};
    use obfusmem_bench::experiments::{fig4, table3};

    fn names(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn triples(defs: Vec<Def>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&json, "end_to_end"), triples(end_to_end()));
        assert_eq!(names(&json, "per_layer"), triples(per_layer()));
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert!(all.len() <= 16 + 128);
        all.sort();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn paper_rows_equal_the_tables_binary() {
        let (n, seed) = (20_000, 0x0B_F0_5E_ED);
        let run = |points| e2e(&Plan::Points(points)).expect("pass").rows;
        let bits = |x: f64| x.to_bits();

        let ours = fig4_rows(&run(fig4_paper(n, seed))).expect("complete fig4");
        let theirs = fig4(n, seed);
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.name, b.name);
            assert_eq!(bits(a.encrypt_only), bits(b.encrypt_only), "{}", a.name);
            assert_eq!(bits(a.obfusmem), bits(b.obfusmem), "{}", a.name);
            assert_eq!(bits(a.obfusmem_auth), bits(b.obfusmem_auth), "{}", a.name);
        }

        let rows = run(table3_oram(n, seed));
        let ours = table3_rows(&rows).expect("complete table3");
        let theirs = table3(n, seed);
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.name, b.name);
            assert_eq!(bits(a.oram_overhead), bits(b.oram_overhead), "{}", a.name);
            assert_eq!(bits(a.obfus_overhead), bits(b.obfus_overhead), "{}", a.name);
            assert_eq!(bits(a.speedup), bits(b.speedup), "{}", a.name);
            assert_eq!(a.paper, b.paper);
        }
        assert!(paper_error_pct("table3-oram", &rows) > 0.0);
        assert_eq!(paper_error_pct("serve-churn", &rows), 0.0);
    }
}
