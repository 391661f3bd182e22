//! `serve` mode: drive the multi-tenant session fabric over a grid.
//!
//! Where the sweep grid measures *one workload per job*, serve mode runs
//! the long-lived [`SessionFabric`] — many concurrent tenant sessions,
//! churn storms, QoS classes — over a (tenant count × churn period) grid
//! and emits one deterministic JSONL row per cell with per-tenant and
//! per-class latency percentiles. Rows contain no wall-clock fields, so
//! two runs of the same build and seed are byte-identical; CI runs the
//! 64-tenant churn cell twice and `cmp`s the outputs as a determinism
//! gate, and greps `"auth_failures":0` as an isolation gate.
//!
//! [`verify_single`] is the second gate: it replays the 1-tenant fabric
//! against the hand-rolled legacy single-session path from
//! `obfusmem-sec` and fails on any latency-sample mismatch.

use std::fmt;
use std::io::Write;

use obfusmem_cpu::workload::{by_name, micro_test_workload, WorkloadSpec};
use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
use obfusmem_sec::isolation::legacy_single_session_trace;
use obfusmem_tenant::fabric::{DhStrength, FabricConfig, SessionFabric};
use obfusmem_tenant::qos::TenantClass;

use crate::jsonl::JsonObject;
use crate::spec::{parse_as, parse_u64, split_list, SpecError};

/// Why a serve grid was refused or failed. Every CLI misuse lands in
/// [`ServeError::Config`] *before* any cell runs — a bad flag used to
/// surface as a deep fabric panic (`--tenants 0`) or a silently empty
/// row (`--chunk 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Structurally invalid spec, caught by [`ServeSpec::validate`].
    Config(String),
    /// The named workload does not exist.
    UnknownWorkload(String),
    /// A fabric cell failed mid-run.
    Fabric(String),
    /// The output sink could not be written.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve spec: {msg}"),
            ServeError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            ServeError::Fabric(msg) => write!(f, "fabric error: {msg}"),
            ServeError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Config(e.0)
    }
}

/// Declarative serve grid.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Tenant counts to run (one row per count × churn).
    pub tenants: Vec<usize>,
    /// Churn periods to run (0 = no re-keying).
    pub churns: Vec<u64>,
    /// Memory channels (power of two).
    pub channels: usize,
    /// Fill requests per tenant.
    pub requests: u64,
    /// Global churn-storm period (0 = no storms).
    pub storm_period: u64,
    /// Master seed.
    pub seed: u64,
    /// Handshake strength.
    pub dh: DhStrength,
    /// Workload name (`micro` or a Table 1 benchmark).
    pub workload: String,
    /// Requests per progress chunk (incremental streaming granularity).
    pub chunk: u64,
    /// Device-fault overlay for every cell's fabric (`None` = pristine
    /// array, rows byte-identical to pre-chaos builds).
    pub device_fault: Option<(DeviceFaultKind, f64)>,
    /// Seed for the device-fault streams.
    pub device_fault_seed: u64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            tenants: vec![4],
            churns: vec![0],
            channels: 1,
            requests: 64,
            storm_period: 0,
            seed: 0x0BF5_FAB0,
            dh: DhStrength::Toy,
            workload: "micro".into(),
            chunk: 4096,
            device_fault: None,
            device_fault_seed: 0xD_F0_17,
        }
    }
}

impl ServeSpec {
    /// Sets one key from its text value. This is the only place a key
    /// maps to a field: `sweep serve` turns each grid flag into its key
    /// with [`flag_key`](crate::spec::flag_key), so `--storm-period 64`
    /// sets `storm_period`. Lists are comma-separated and integers take
    /// decimal or `0x` hex, as in sweep specs; `device_fault` is
    /// `KIND@RATE`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an unknown key or a malformed value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ServeError> {
        let u64s = || {
            split_list(value)
                .map(parse_u64)
                .collect::<Result<Vec<_>, _>>()
        };
        match key {
            "tenants" => self.tenants = u64s()?.into_iter().map(|n| n as usize).collect(),
            "churn" => self.churns = u64s()?,
            "channels" => self.channels = parse_as(value, "channel count")?,
            "requests" => self.requests = parse_u64(value)?,
            "storm_period" => self.storm_period = parse_u64(value)?,
            "seed" => self.seed = parse_u64(value)?,
            "dh" => {
                self.dh = DhStrength::parse(value)
                    .ok_or_else(|| ServeError::Config(format!("bad dh strength {value:?}")))?;
            }
            "workload" => self.workload = value.to_string(),
            "chunk" => self.chunk = parse_u64(value)?,
            "device_fault" => {
                let (kind, rate) = value.split_once('@').ok_or_else(|| {
                    ServeError::Config(format!("expected KIND@RATE, got {value:?}"))
                })?;
                let kind = DeviceFaultKind::parse(kind).ok_or_else(|| {
                    ServeError::Config(format!("unknown device fault kind {kind:?}"))
                })?;
                self.device_fault = Some((kind, parse_as(rate, "device fault rate")?));
            }
            "device_fault_seed" => self.device_fault_seed = parse_u64(value)?,
            other => return Err(ServeError::Config(format!("unknown key {other:?}"))),
        }
        Ok(())
    }

    /// Rejects structurally unusable grids before any cell runs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the first offending field, or
    /// [`ServeError::UnknownWorkload`].
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::Config(msg));
        if self.tenants.is_empty() {
            return bad("no tenant counts".into());
        }
        if let Some(&t) = self.tenants.iter().find(|&&t| t == 0) {
            return bad(format!("tenant count must be at least 1, got {t}"));
        }
        if self.churns.is_empty() {
            return bad("no churn periods".into());
        }
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return bad(format!(
                "channels must be a power of two, got {}",
                self.channels
            ));
        }
        if self.requests == 0 {
            return bad("requests per tenant must be at least 1".into());
        }
        if self.chunk == 0 {
            // run_chunk(0) serves nothing, so the cell loop would write a
            // zero-request row without ever touching the fabric.
            return bad("chunk must be at least 1".into());
        }
        if let Some((_, rate)) = self.device_fault {
            if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
                return bad(format!("device fault rate must be in (0, 1], got {rate}"));
            }
        }
        self.resolve_workload()?;
        Ok(())
    }

    /// Resolves the named workload.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownWorkload`].
    pub fn resolve_workload(&self) -> Result<WorkloadSpec, ServeError> {
        if self.workload == "micro" {
            return Ok(micro_test_workload());
        }
        by_name(&self.workload).ok_or_else(|| ServeError::UnknownWorkload(self.workload.clone()))
    }

    /// Builds the fabric configuration for one grid cell.
    ///
    /// # Errors
    ///
    /// As for [`ServeSpec::resolve_workload`].
    pub fn fabric_config(&self, tenants: usize, churn: u64) -> Result<FabricConfig, ServeError> {
        let workload = self.resolve_workload()?;
        let mut cfg = FabricConfig::new(tenants);
        cfg.requests_per_tenant = self.requests;
        cfg.channels = self.channels;
        cfg.churn_period = churn;
        cfg.storm_period = self.storm_period;
        cfg.dh = self.dh;
        cfg.seed = self.seed;
        cfg.workloads = vec![workload];
        if let Some((kind, rate)) = self.device_fault {
            cfg.device_faults = DeviceFaultPlan::single(kind, rate, self.device_fault_seed);
        }
        Ok(cfg)
    }

    /// Grid cells in canonical (tenants-major) order.
    pub fn cells(&self) -> Vec<(usize, u64)> {
        let mut out = Vec::with_capacity(self.tenants.len() * self.churns.len());
        for &t in &self.tenants {
            for &c in &self.churns {
                out.push((t, c));
            }
        }
        out
    }
}

/// Outcome of a serve grid.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Rows written, in grid order.
    pub rows: usize,
    /// Total fill requests served across all cells.
    pub served: u64,
    /// Total authentication failures (must be 0; the caller gates).
    pub auth_failures: u64,
    /// Device faults the recovery ladder could not clear (must be 0 on
    /// chaos campaigns; the caller gates).
    pub unrecovered: u64,
}

/// One cell's outputs: the rendered row plus the gate counters.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The rendered JSONL row.
    pub row: String,
    /// Requests served.
    pub served: u64,
    /// Authentication failures.
    pub auth_failures: u64,
    /// Device faults the ladder could not clear.
    pub unrecovered: u64,
}

/// Runs one grid cell to completion (streaming progress to stderr unless
/// `quiet`) and renders its JSONL row.
///
/// # Errors
///
/// Configuration or fabric errors, typed.
pub fn run_cell(
    spec: &ServeSpec,
    tenants: usize,
    churn: u64,
    quiet: bool,
) -> Result<CellOutcome, ServeError> {
    let cfg = spec.fabric_config(tenants, churn)?;
    let total = cfg.requests_per_tenant * tenants as u64;
    let mut fabric = SessionFabric::new(cfg).map_err(|e| ServeError::Fabric(e.to_string()))?;
    let mut done = 0u64;
    loop {
        let n = fabric
            .run_chunk(spec.chunk)
            .map_err(|e| ServeError::Fabric(e.to_string()))?;
        if n == 0 {
            break;
        }
        done += n;
        if !quiet {
            eprintln!("serve: tenants={tenants} churn={churn} {done}/{total} requests");
        }
    }
    let report = fabric.report();
    let (hist, stats) = fabric.aggregate_latency();
    let span_ns = report.span.as_ns();
    let throughput_mrps = if span_ns > 0 {
        report.total_served as f64 / (span_ns as f64 / 1e9) / 1e6
    } else {
        0.0
    };
    let mut row = JsonObject::new()
        .string("mode", "serve")
        .u64("tenants", tenants as u64)
        .u64("churn", churn)
        .u64("channels", spec.channels as u64)
        .u64("requests_per_tenant", spec.requests)
        .u64("storm_period", spec.storm_period)
        .u64("seed", spec.seed)
        .string("dh", spec.dh.name())
        .string("workload", &spec.workload)
        .u64("served", report.total_served)
        .u64("auth_failures", report.auth_failures)
        .u64("rekeys", report.rekeys)
        .u64("storms", report.storms)
        .u64("writebacks", report.writebacks)
        .u64("starvation_promotions", report.starvation_promotions)
        .u64("span_ns", span_ns)
        .f64("throughput_mrps", throughput_mrps)
        .u64("p50_ns", hist.quantile(0.50).unwrap_or(0))
        .u64("p99_ns", hist.quantile(0.99).unwrap_or(0))
        .f64("mean_ns", stats.mean());
    for class in TenantClass::ALL {
        let idx = class.arb_class() as usize;
        row = row
            .u64(
                &format!("{}_served", class.name()),
                report.class_served[idx],
            )
            .u64(
                &format!("{}_p99_ns", class.name()),
                report.class_p99_ns[idx],
            );
    }
    // Chaos fields appear only on device-fault rows, so clean serve
    // output stays byte-identical to pre-chaos builds.
    let mut unrecovered = 0;
    if let Some((kind, rate)) = spec.device_fault {
        row = row
            .string("device_fault_kind", kind.name())
            .f64("device_fault_rate", rate)
            .u64("device_fault_seed", spec.device_fault_seed);
        if let Some(stats) = fabric.recovery_stats() {
            unrecovered = stats.unrecovered;
            row = row
                .u64("recovery_detected", stats.detected)
                .u64("recovery_retried", stats.retried)
                .u64("recovery_resynced", stats.resynced)
                .u64("recovery_quarantined", stats.quarantined)
                .u64("recovery_migrated", stats.migrated)
                .u64("recovery_unrecovered", stats.unrecovered);
        }
    }
    Ok(CellOutcome {
        row: row.finish(),
        served: report.total_served,
        auth_failures: report.auth_failures,
        unrecovered,
    })
}

/// Runs the whole grid, appending one row per cell to `out`. The spec is
/// validated up front so nothing is written on a bad grid.
///
/// # Errors
///
/// The first failing validation, cell, or write error, typed.
pub fn run_serve(
    spec: &ServeSpec,
    out: &mut dyn Write,
    quiet: bool,
) -> Result<ServeReport, ServeError> {
    spec.validate()?;
    let mut report = ServeReport::default();
    for (tenants, churn) in spec.cells() {
        let cell = run_cell(spec, tenants, churn, quiet)?;
        writeln!(out, "{}", cell.row)
            .map_err(|e| ServeError::Io(format!("cannot write row: {e}")))?;
        report.rows += 1;
        report.served += cell.served;
        report.auth_failures += cell.auth_failures;
        report.unrecovered += cell.unrecovered;
    }
    Ok(report)
}

/// The legacy-equivalence gate: runs a 1-tenant, 1-channel fabric and the
/// hand-rolled pre-fabric single-session path on the same seed, and
/// demands bit-identical latency traces.
///
/// # Errors
///
/// [`ServeError::Fabric`] describing the first divergence.
pub fn verify_single(seed: u64, requests: u64) -> Result<(), ServeError> {
    let fab = |msg: String| ServeError::Fabric(msg);
    let mut cfg = FabricConfig::new(1);
    cfg.requests_per_tenant = requests;
    cfg.seed = seed;
    let legacy = legacy_single_session_trace(&cfg).map_err(|e| fab(e.to_string()))?;
    let mut fabric = SessionFabric::new(cfg).map_err(|e| fab(e.to_string()))?;
    fabric.run_to_completion().map_err(|e| fab(e.to_string()))?;
    if fabric.auth_failures() != 0 {
        return Err(fab(format!(
            "1-tenant fabric reported {} auth failure(s)",
            fabric.auth_failures()
        )));
    }
    let fabric_trace = fabric.latency_trace(0);
    if fabric_trace.len() != legacy.len() {
        return Err(fab(format!(
            "trace lengths diverge: fabric {} vs legacy {}",
            fabric_trace.len(),
            legacy.len()
        )));
    }
    for (i, (f, l)) in fabric_trace.iter().zip(legacy.iter()).enumerate() {
        if f != l {
            return Err(fab(format!(
                "request {i}: fabric latency {f} ps != legacy {l} ps"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rows_are_deterministic() {
        let spec = ServeSpec {
            tenants: vec![1, 3],
            churns: vec![0, 8],
            requests: 16,
            channels: 2,
            ..ServeSpec::default()
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        let ra = run_serve(&spec, &mut a, true).expect("grid runs");
        let rb = run_serve(&spec, &mut b, true).expect("grid runs");
        assert_eq!(ra.rows, 4);
        assert_eq!(ra.auth_failures, 0);
        assert_eq!(rb.rows, 4);
        assert_eq!(a, b, "serve output must be byte-identical across runs");
        let text = String::from_utf8(a).expect("utf8");
        assert!(text.contains("\"mode\":\"serve\""));
        assert!(text.contains("\"auth_failures\":0"));
        assert!(text.contains("\"interactive_p99_ns\""));
    }

    #[test]
    fn verify_single_gate_passes() {
        verify_single(0xC0FFEE, 48).expect("fabric must match the legacy path");
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let spec = ServeSpec {
            workload: "no-such-benchmark".into(),
            ..ServeSpec::default()
        };
        assert!(matches!(
            spec.resolve_workload(),
            Err(ServeError::UnknownWorkload(_))
        ));
        assert!(matches!(
            spec.validate(),
            Err(ServeError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn bad_serve_specs_are_rejected_before_any_cell_runs() {
        let cases: Vec<(&str, ServeSpec)> = vec![
            (
                "zero tenants",
                ServeSpec {
                    tenants: vec![4, 0],
                    ..ServeSpec::default()
                },
            ),
            (
                "empty tenants",
                ServeSpec {
                    tenants: vec![],
                    ..ServeSpec::default()
                },
            ),
            (
                "empty churns",
                ServeSpec {
                    churns: vec![],
                    ..ServeSpec::default()
                },
            ),
            (
                "non-power-of-two channels",
                ServeSpec {
                    channels: 3,
                    ..ServeSpec::default()
                },
            ),
            (
                "zero requests",
                ServeSpec {
                    requests: 0,
                    ..ServeSpec::default()
                },
            ),
            (
                "zero chunk",
                ServeSpec {
                    chunk: 0,
                    ..ServeSpec::default()
                },
            ),
            (
                "out-of-range device fault rate",
                ServeSpec {
                    device_fault: Some((DeviceFaultKind::BitFlip, 1.5)),
                    ..ServeSpec::default()
                },
            ),
        ];
        for (what, spec) in cases {
            assert!(
                matches!(spec.validate(), Err(ServeError::Config(_))),
                "{what} must be a typed config error"
            );
            let mut sink = Vec::new();
            assert!(run_serve(&spec, &mut sink, true).is_err(), "{what}");
            assert!(sink.is_empty(), "{what}: nothing may be written");
        }
        assert!(ServeSpec::default().validate().is_ok());
    }

    #[test]
    fn device_fault_rows_carry_recovery_fields_and_stay_deterministic() {
        let spec = ServeSpec {
            tenants: vec![3],
            requests: 32,
            device_fault: Some((DeviceFaultKind::BitFlip, 0.05)),
            ..ServeSpec::default()
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        let ra = run_serve(&spec, &mut a, true).expect("chaos grid runs");
        run_serve(&spec, &mut b, true).expect("chaos grid runs");
        assert_eq!(a, b, "chaos rows must be byte-identical across runs");
        assert_eq!(ra.auth_failures, 0, "device faults never break auth");
        assert_eq!(ra.unrecovered, 0, "the ladder must recover");
        let text = String::from_utf8(a).expect("utf8");
        assert!(text.contains(r#""device_fault_kind":"bit-flip""#), "{text}");
        assert!(text.contains(r#""recovery_detected":"#), "{text}");
        assert!(text.contains(r#""recovery_unrecovered":0"#), "{text}");

        let mut clean = Vec::new();
        run_serve(
            &ServeSpec {
                tenants: vec![3],
                requests: 32,
                ..ServeSpec::default()
            },
            &mut clean,
            true,
        )
        .expect("clean grid runs");
        let clean = String::from_utf8(clean).expect("utf8");
        assert!(!clean.contains("device_fault_kind"), "{clean}");
        assert!(!clean.contains("recovery_detected"), "{clean}");
    }
}
