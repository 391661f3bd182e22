//! Plain-text rendering of experiment results next to the paper's
//! published numbers.

use crate::experiments::{
    fig5_mix, DummyPolicyRow, EnergyReport, Fig4Row, Fig5Point, MacSchemeRow, StashRow, Table1Row,
    Table3Row, ThermalReport, PAPER_FIG4_AVG, THERMAL_ACCESSES,
};
use obfusmem_sec::table4::SchemeColumn;

/// Renders Table 1.
pub fn table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: benchmark characteristics (measured vs paper)\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} | {:>9} {:>9} | {:>10} {:>10}\n",
        "benchmark", "IPC", "IPC(p)", "MPKI", "MPKI(p)", "gap ns", "gap ns(p)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8.2} {:>8.2} | {:>9.2} {:>9.2} | {:>10.2} {:>10.2}\n",
            r.name, r.ipc, r.paper.0, r.mpki, r.paper.1, r.gap_ns, r.paper.2
        ));
    }
    out
}

/// Renders Table 3.
pub fn table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: execution-time overhead, ORAM vs ObfusMem+Auth (measured vs paper)\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} | {:>9} {:>9} | {:>8} {:>8}\n",
        "benchmark", "ORAM%", "ORAM%(p)", "Obfus%", "Obfus%(p)", "speedup", "spdup(p)"
    ));
    let n = rows.len().max(1) as f64;
    let (mut so, mut sb, mut ss, mut po, mut pb, mut ps) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>9.1}% {:>9.1}% | {:>8.1}% {:>8.1}% | {:>7.1}x {:>7.1}x\n",
            r.name, r.oram_overhead, r.paper.0, r.obfus_overhead, r.paper.1, r.speedup, r.paper.2
        ));
        so += r.oram_overhead;
        sb += r.obfus_overhead;
        ss += r.speedup;
        po += r.paper.0;
        pb += r.paper.1;
        ps += r.paper.2;
    }
    out.push_str(&format!(
        "{:<12} {:>9.1}% {:>9.1}% | {:>8.1}% {:>8.1}% | {:>7.1}x {:>7.1}x\n",
        "Avg",
        so / n,
        po / n,
        sb / n,
        pb / n,
        ss / n,
        ps / n
    ));
    out
}

/// Renders Figure 4 (as a table of bar heights).
pub fn fig4(rows: &[Fig4Row], avg: &Fig4Row) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: overhead breakdown by security level (measured; paper avgs ");
    out.push_str(&format!(
        "enc={:.1}% obfus={:.1}% obfus+auth={:.1}%)\n",
        PAPER_FIG4_AVG.0, PAPER_FIG4_AVG.1, PAPER_FIG4_AVG.2
    ));
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>14}\n",
        "benchmark", "encrypt-only", "obfusmem", "obfusmem+auth"
    ));
    for r in rows.iter().chain(std::iter::once(avg)) {
        out.push_str(&format!(
            "{:<12} {:>11.1}% {:>11.1}% {:>13.1}%\n",
            r.name, r.encrypt_only, r.obfusmem, r.obfusmem_auth
        ));
    }
    out
}

/// Renders Figure 5 (series of overhead vs channel count).
pub fn fig5(points: &[Fig5Point]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 5: channel sweep, mean of {} high-MPKI workloads each run alone on one core \
         (overhead vs unprotected)\n",
        fig5_mix().len()
    ));
    out.push_str(&format!(
        "{:<10} {:<8} {:<6} {:>10}\n",
        "channels", "scheme", "auth", "overhead"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<10} {:<8} {:<6} {:>9.1}%\n",
            p.channels,
            format!("{:?}", p.strategy).to_uppercase(),
            if p.auth { "yes" } else { "no" },
            p.overhead
        ));
    }
    out.push_str(
        "(paper peaks at 8 channels: UNOPT 18.8%/16.3%, OPT 13.2%/10.1% with/without auth)\n",
    );
    out
}

/// Renders the §5.2 energy/lifetime report.
pub fn energy(e: &EnergyReport) -> String {
    let lifetime = e
        .lifetime_ratio
        .map(|r| format!("{r:.0}x"))
        .unwrap_or_else(|| "unbounded (no ObfusMem array wear in sample)".to_string());
    format!(
        "Section 5.2: PCM energy and lifetime\n\
         ORAM array energy / access      : {:>8.1} x read   (paper: 780x)\n\
         ObfusMem array energy / access  : {:>8.1} x read   (paper: 3.9x)\n\
         energy reduction                : {:>8.0} x        (paper: 200x)\n\
         ORAM pads / access              : {:>8.0}          (paper: 800)\n\
         ObfusMem pads worst case (4ch)  : {:>8}          (paper: <=64)\n\
         ORAM write amplification (meas) : {:>8.1} x        (paper: ~100x at L=24)\n\
         lifetime improvement (measured) : {lifetime}  (paper: ~100x)\n",
        e.oram_energy_per_access,
        e.obfus_energy_per_access,
        e.energy_reduction,
        e.oram_pads_per_access,
        e.obfus_pads_worst_case,
        e.oram_write_amplification,
    )
}

/// Renders Table 4.
pub fn table4(oram: &SchemeColumn, obfus: &SchemeColumn) -> String {
    let b = |v: bool| if v { "Yes" } else { "No" };
    format!(
        "Table 4: ORAM vs ObfusMem (measured)\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>12} {:>12}\n\
         {:<24} {:>11.0}% {:>11.0}%\n\
         {:<24} {:>11.1}x {:>11.1}x\n\
         {:<24} {:>12} {:>12}\n",
        "aspect",
        oram.name,
        obfus.name,
        "spatial pattern",
        oram.spatial.to_string(),
        obfus.spatial.to_string(),
        "temporal pattern",
        oram.temporal.to_string(),
        obfus.temporal.to_string(),
        "read vs write",
        oram.read_write.to_string(),
        obfus.read_write.to_string(),
        "memory footprint",
        oram.footprint.to_string(),
        obfus.footprint.to_string(),
        "command auth",
        b(oram.command_auth),
        b(obfus.command_auth),
        "TCB",
        oram.tcb,
        obfus.tcb,
        "storage overhead",
        oram.storage_overhead * 100.0,
        obfus.storage_overhead * 100.0,
        "write amplification",
        oram.write_amplification,
        obfus.write_amplification,
        "deadlock possible",
        b(oram.deadlock_possible),
        b(obfus.deadlock_possible),
    )
}

/// Renders the §6.2 thermal study.
pub fn thermal(r: &ThermalReport) -> String {
    format!(
        "Thermal side channel (6.2): top-1% share of activations, {THERMAL_ACCESSES} accesses\n\
         {:<24} {:>9} {:>10}\n\
         {:<24} {:>8.1}% {:>9.1}%\n\
         {:<24} {:>8.1}% {:>9.1}%\n\
         Path ORAM root bucket: {} / {} activations (hot set / uniform)\n",
        "program",
        "ObfusMem",
        "Path ORAM",
        "4-row hot set (80%)",
        r.obfus_hot * 100.0,
        r.oram_hot * 100.0,
        "uniform",
        r.obfus_uniform * 100.0,
        r.oram_uniform * 100.0,
        r.oram_root.0,
        r.oram_root.1,
    )
}

/// Renders the reservation-vs-queued controller fidelity study.
pub fn backends_study(rows: &[crate::experiments::BackendRow]) -> String {
    let mut out = String::new();
    out.push_str("Controller fidelity: reservation vs queued FR-FCFS (ObfusMem+Auth overhead)\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>9} | {:>9} {:>10} {:>10}\n",
        "benchmark", "reserv%", "queued%", "diverge%", "row-hit%", "reordered", "adapt-cls"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>9.1}% {:>9.1}% {:>8.1}% | {:>8.1}% {:>10} {:>10}\n",
            r.name,
            r.reservation_overhead,
            r.queued_overhead,
            r.divergence,
            r.row_hit_rate,
            r.reordered,
            r.adaptive_closes
        ));
    }
    out.push_str(
        "(diverge% compares protected exec time; the paper's Table 2 timing is the\n\
         same for both models, the queued one adds FR-FCFS queueing/reordering)\n",
    );
    out
}

/// Renders the per-scheme leakage report.
pub fn leakage(rows: &[crate::experiments::LeakageRow]) -> String {
    let mut out = String::new();
    out.push_str("Leakage observatory: Membuster bus attacker, bits recovered per access\n");
    out.push_str(&format!(
        "{:<14} {:>10} {:>9} {:>9} {:>9} {:>9} | {:>7} {:>9}\n",
        "scheme", "bits/acc", "addr", "kind", "data", "crit", "windows", "dummies"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>8.0}% | {:>7} {:>9}\n",
            r.scheme.name(),
            r.bits_per_access,
            r.addr_bits,
            r.kind_bits,
            r.data_bits,
            100.0 * r.crit_recovery,
            r.windows,
            r.dummy_packets
        ));
    }
    out.push_str(
        "(expected ordering: unprotected \u{226b} encrypt-only > obfusmem \u{2248}\n\
         obfusmem-auth \u{2248} oram \u{2248} 0; crit = hottest-address recovery rate)\n",
    );
    out
}

/// Renders the dummy-policy ablation.
pub fn ablation_dummy(rows: &[DummyPolicyRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation (3.3): dummy-address policy on bwaves\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>18} {:>15}\n",
        "policy", "overhead", "dummy array wr", "max row writes"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9.1}% {:>18} {:>15}\n",
            format!("{:?}", r.policy),
            r.overhead,
            r.dummy_array_writes,
            r.max_row_writes
        ));
    }
    out
}

/// Renders the MAC-scheme ablation.
pub fn ablation_mac(rows: &[MacSchemeRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation (3.5): MAC scheme on mcf\n");
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>9.1}%\n",
            format!("{:?}", r.scheme),
            r.overhead
        ));
    }
    out
}

/// Renders the pairing-order ablation.
pub fn ablation_pairing(rows: &[crate::experiments::PairingRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation (3.3): request/dummy pairing order on milc\n");
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>9.1}%\n",
            format!("{:?}", r.pairing),
            r.overhead
        ));
    }
    out
}

/// Renders the detailed-ORAM latency validation.
pub fn oram_detailed(rows: &[crate::experiments::DetailedOramRow]) -> String {
    let mut out = String::new();
    out.push_str("Detailed ORAM on the Table 2 PCM device (paper assumes a fixed 2500 ns)\n");
    out.push_str(&format!(
        "{:<8} {:>12} {:>14}\n",
        "levels", "path blocks", "measured ns"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>12} {:>14.0}\n",
            r.levels, r.path_blocks, r.mean_ns
        ));
    }
    out.push_str("(the L=24 paper configuration, 100 blocks/path, extrapolates this line)\n");
    out
}

/// Renders the ORAM/controller co-design study.
pub fn oram_codesign(rows: &[crate::experiments::CodesignRow]) -> String {
    let mut out = String::new();
    out.push_str("ORAM/controller co-design: Table 3 re-run with the baseline fighting back\n");
    out.push_str(&format!(
        "{:<12} {:>9} {:>9} {:>10} {:>8} | {:>9} {:>9}\n",
        "benchmark", "fixed%", "serial%", "codesign%", "obfus%", "co/serial", "obf/co"
    ));
    let n = rows.len().max(1) as f64;
    let (mut sc, mut so) = (0.0, 0.0);
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8.1}% {:>8.1}% {:>9.1}% {:>7.1}% | {:>8.2}x {:>8.2}x\n",
            r.name,
            r.fixed_overhead,
            r.serial_overhead,
            r.codesign_overhead,
            r.obfus_overhead,
            r.codesign_speedup,
            r.obfus_speedup
        ));
        sc += r.codesign_speedup;
        so += r.obfus_speedup;
    }
    out.push_str(&format!(
        "{:<12} {:>9} {:>9} {:>10} {:>8} | {:>8.2}x {:>8.2}x\n",
        "Avg",
        "",
        "",
        "",
        "",
        sc / n,
        so / n
    ));
    out.push_str(
        "(fixed = paper's 2500 ns model; serial = detailed Path ORAM, one bucket at\n\
         a time + serialized posmap chain; codesign = batched path issue across the\n\
         banks with posted write-backs; obf/co = ObfusMem+Auth speedup that remains\n\
         once the ORAM baseline is a real competitor)\n",
    );
    out
}

/// Renders the type-hiding ablation.
pub fn ablation_type_hiding(rows: &[crate::experiments::TypeHidingRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation (3.3): type-hiding scheme on lbm (write-heavy)\n");
    out.push_str(&format!(
        "{:<28} {:>10} {:>14} {:>12}\n",
        "scheme", "overhead", "bus busy (us)", "substituted"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>9.1}% {:>14.1} {:>12}\n",
            format!("{:?}", r.scheme),
            r.overhead,
            r.bus_busy_ps as f64 / 1e6,
            r.substituted
        ));
    }
    out
}

/// Renders the address-mapping ablation.
pub fn ablation_mapping(rows: &[crate::experiments::MappingRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation (3.4): channel-interleave granularity, 4 channels, bwaves\n");
    out.push_str(&format!(
        "{:<14} {:>10} {:>20}\n",
        "mapping", "overhead", "channel-step leak"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>9.1}% {:>20.2}\n",
            format!("{:?}", r.mapping),
            r.overhead,
            r.channel_step_leak
        ));
    }
    out
}

/// Renders the ORAM-variant comparison.
pub fn oram_variants(rows: &[crate::experiments::OramVariantRow]) -> String {
    let mut out = String::new();
    out.push_str("ORAM variants: bandwidth amplification (paper cites 24x Ring / 120x Path)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>8.0}x\n",
            r.name, r.bandwidth_amplification
        ));
    }
    out
}

/// Renders the ORAM stash ablation.
pub fn ablation_stash(rows: &[StashRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation: Path ORAM stash pressure vs utilization (L=10, Z=4)\n");
    out.push_str(&format!(
        "{:<8} {:>12} {:>16} {:>15}\n",
        "blocks", "utilization", "stash high-water", "soft overflows"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>11.1}% {:>16} {:>15}\n",
            r.blocks, r.utilization, r.stash_high_water, r.soft_overflows
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_core::config::DummyAddressPolicy;

    #[test]
    fn renderers_produce_nonempty_aligned_output() {
        let t1 = table1(&[Table1Row {
            name: "bwaves",
            ipc: 0.5,
            mpki: 18.23,
            gap_ns: 44.0,
            paper: (0.59, 18.23, 44.32),
        }]);
        assert!(t1.contains("bwaves"));
        let ab = ablation_dummy(&[DummyPolicyRow {
            policy: DummyAddressPolicy::Fixed,
            overhead: 10.0,
            dummy_array_writes: 0,
            max_row_writes: 5,
        }]);
        assert!(ab.contains("Fixed"));
        let bk = backends_study(&[crate::experiments::BackendRow {
            name: "bwaves",
            reservation_overhead: 33.0,
            queued_overhead: 35.5,
            divergence: 1.9,
            row_hit_rate: 41.0,
            reordered: 1234,
            adaptive_closes: 56,
        }]);
        assert!(bk.contains("bwaves") && bk.contains("row-hit%"));
    }
}
