//! Integration tests pinning the paper's headline claims, end to end.
//!
//! These run the same code paths as the `tables` harness at reduced scale
//! and assert the *shape* of every quantitative claim: who wins, by
//! roughly what factor, and where the crossovers fall.

use obfusmem::core::config::SecurityLevel;
use obfusmem::core::system::{System, SystemConfig};
use obfusmem::cpu::core::TraceDrivenCore;
use obfusmem::cpu::workload::{by_name, table1_workloads};
use obfusmem::mem::config::MemConfig;
use obfusmem::oram::model::OramModel;
use obfusmem::oram::path_oram::OramConfig;

const N: u64 = 150_000;
const SEED: u64 = 0xC1A1;

fn overheads(name: &str) -> (f64, f64) {
    let spec = by_name(name).expect("Table 1 workload");
    let mut base = System::new(SystemConfig {
        security: SecurityLevel::Unprotected,
        ..SystemConfig::default()
    });
    let r_base = base.run(&spec, N, SEED);
    let mut obfus = System::new(SystemConfig {
        security: SecurityLevel::ObfuscateAuth,
        ..SystemConfig::default()
    });
    let r_obfus = obfus.run(&spec, N, SEED);
    let core = TraceDrivenCore::new();
    let mut oram = OramModel::paper();
    let r_oram = core.run(&spec, N, &mut oram, SEED);
    (r_oram.overhead_vs(&r_base), r_obfus.overhead_vs(&r_base))
}

#[test]
fn oram_is_an_order_of_magnitude_class_slowdown_on_memory_bound_code() {
    for name in ["bwaves", "mcf", "milc"] {
        let (oram, _) = overheads(name);
        assert!(
            oram > 400.0,
            "{name}: ORAM overhead {oram}% not order-of-magnitude class"
        );
    }
}

#[test]
fn obfusmem_stays_in_the_tens_of_percent() {
    for name in ["bwaves", "mcf", "milc", "soplex"] {
        let (_, obfus) = overheads(name);
        assert!(
            obfus > 1.0 && obfus < 100.0,
            "{name}: ObfusMem+Auth overhead {obfus}% out of the paper's band"
        );
    }
}

#[test]
fn compute_bound_code_barely_notices_either_scheme_relative_to_oram() {
    let (oram, obfus) = overheads("astar");
    assert!(oram < 150.0, "astar ORAM {oram}%");
    assert!(obfus < 5.0, "astar ObfusMem {obfus}%");
}

#[test]
fn speedup_ordering_follows_mpki() {
    // High-MPKI benchmarks benefit most from replacing ORAM (Table 3).
    let (oram_hi, obfus_hi) = overheads("soplex"); // 23 MPKI
    let (oram_lo, obfus_lo) = overheads("sjeng"); // 0.36 MPKI
    let speedup_hi = (100.0 + oram_hi) / (100.0 + obfus_hi);
    let speedup_lo = (100.0 + oram_lo) / (100.0 + obfus_lo);
    assert!(
        speedup_hi > 2.0 * speedup_lo,
        "speedups must track MPKI: hi {speedup_hi:.1}x lo {speedup_lo:.1}x"
    );
}

#[test]
fn security_levels_cost_monotonically_more() {
    let spec = by_name("gems").unwrap();
    let times: Vec<u64> = [
        SecurityLevel::Unprotected,
        SecurityLevel::EncryptOnly,
        SecurityLevel::Obfuscate,
        SecurityLevel::ObfuscateAuth,
    ]
    .into_iter()
    .map(|security| {
        let mut sys = System::new(SystemConfig {
            security,
            ..SystemConfig::default()
        });
        sys.run(&spec, N, SEED).exec_time.as_ps()
    })
    .collect();
    for w in times.windows(2) {
        assert!(
            w[1] >= w[0],
            "protection must not speed execution up: {times:?}"
        );
    }
}

#[test]
fn obfusmem_has_zero_storage_overhead_while_oram_wastes_half() {
    // ObfusMem reserves exactly one 64 B block per module (the fixed
    // dummy); Path ORAM at the paper's configuration wastes ≥50%.
    assert!(OramConfig::paper().storage_overhead() >= 1.0);
    // The ObfusMem side is structural: no PosMap, no tree, no stash — the
    // backend addresses the full device. (Checked by construction: the
    // memory config is unchanged between protected and unprotected runs.)
    let protected = SystemConfig {
        security: SecurityLevel::ObfuscateAuth,
        ..Default::default()
    };
    let plain = SystemConfig {
        security: SecurityLevel::Unprotected,
        ..Default::default()
    };
    assert_eq!(protected.mem.capacity_bytes, plain.mem.capacity_bytes);
}

#[test]
fn non_temporal_stores_read_nothing_under_obfusmem() {
    // §6.1: "In ORAM, the entire path for the block must be brought on
    // chip, just like a temporal store… In ObfusMem, a non-temporal store
    // does not cause data blocks to be read on chip."
    use obfusmem::core::backend::ObfusMemBackend;
    use obfusmem::core::config::ObfusMemConfig;
    use obfusmem::cpu::core::MemoryBackend;
    use obfusmem::mem::request::BlockAddr;
    use obfusmem::sim::time::Time;

    let mut oram = OramModel::paper();
    let mut obfus = ObfusMemBackend::new(ObfusMemConfig::paper_default(), MemConfig::table2(), 1);
    for i in 0..100u64 {
        oram.write(Time::ZERO, BlockAddr::from_index(i));
        obfus.write(Time::from_ps(i * 1_000_000), BlockAddr::from_index(i));
    }
    assert_eq!(
        oram.blocks_read(),
        100 * 100,
        "every ORAM store reads a full path"
    );
    assert_eq!(
        obfus.stats().real_reads,
        0,
        "ObfusMem stores fetch nothing on chip"
    );
}

#[test]
fn whole_table3_sweep_runs_and_every_row_is_finite() {
    for spec in table1_workloads() {
        let (oram, obfus) = {
            let mut base = System::new(SystemConfig {
                security: SecurityLevel::Unprotected,
                ..SystemConfig::default()
            });
            let r_base = base.run(&spec, 40_000, SEED);
            let mut obfus = System::new(SystemConfig {
                security: SecurityLevel::ObfuscateAuth,
                ..SystemConfig::default()
            });
            let r_obfus = obfus.run(&spec, 40_000, SEED);
            let core = TraceDrivenCore::new();
            let mut oram = OramModel::paper();
            let r_oram = core.run(&spec, 40_000, &mut oram, SEED);
            (r_oram.overhead_vs(&r_base), r_obfus.overhead_vs(&r_base))
        };
        assert!(
            oram.is_finite() && obfus.is_finite(),
            "{}: non-finite overhead",
            spec.name
        );
        assert!(
            oram >= -1.0 && obfus >= -1.0,
            "{}: negative overhead",
            spec.name
        );
        assert!(
            oram + 1.0 > obfus,
            "{}: ORAM ({oram}%) must never beat ObfusMem ({obfus}%)",
            spec.name
        );
    }
}
