//! JSONL result sink with checkpoint/resume.
//!
//! The results file *is* the checkpoint: one JSON object per completed
//! job, appended and flushed as soon as the job's turn in canonical order
//! comes up. On restart the sink re-reads the file, collects the `id`
//! field of every well-formed line, and the runner skips those jobs. A
//! line truncated mid-write by a kill simply fails to parse and its job
//! is re-run — re-running a pure job is free, losing a row is not.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use obfusmem_mem::config::BackendKind;

use crate::job::JobOutput;
use crate::jsonl::{extract_string_field, JsonObject};
use crate::measure::OramMode;

/// Serialises one completed job as a flat JSON object.
///
/// With `timing`, a host `wall_ms` field is appended; sweeps that want
/// byte-identical output across machines and thread counts pass `false`.
pub fn encode_row(out: &JobOutput, timing: bool) -> String {
    let spec = &out.spec;
    let r = &out.result;
    let mut obj = JsonObject::new()
        .string("id", &spec.id)
        .string("workload", &spec.workload)
        .string("scheme", spec.scheme.name())
        .u64("channels", spec.channels as u64)
        .u64("replicate", spec.replicate as u64)
        .u64("seed", spec.seed)
        .u64("instructions", r.instructions)
        .u64("misses", r.misses)
        .u64("writebacks", r.writebacks)
        .u64("exec_time_ps", r.exec_time.as_ps())
        .f64("ipc", r.ipc)
        .f64("avg_fill_latency_ns", r.avg_fill_latency_ns)
        .f64("avg_request_gap_ns", r.avg_request_gap_ns);
    // Backend-axis fields appear only on non-default (queued) jobs, so
    // reservation sweep output stays byte-identical to pre-backend
    // harness versions — the same discipline the fault fields follow.
    if spec.backend != BackendKind::Reservation {
        obj = obj.string("backend", spec.backend.name());
    }
    // ORAM-mode fields appear only on non-default (serial/codesign) rows
    // — same byte-identity discipline. The mean path latency is the
    // number the mode exists to measure, so it rides along.
    if spec.oram_mode != OramMode::Fixed {
        obj = obj.string("oram_mode", spec.oram_mode.name());
        if let Some(ns) = out
            .metrics
            .get_child("oram")
            .and_then(|n| n.gauge("mean_access_ns"))
        {
            obj = obj.f64("oram_mean_access_ns", ns);
        }
    }
    if let Some(sched) = out.queued_sched() {
        let c = |name: &str| sched.counter(name).unwrap_or(0);
        obj = obj
            .u64("sched_serviced", c("serviced"))
            .u64("sched_row_hits", c("row_hits"))
            .u64("sched_reordered", c("reordered"))
            .u64("sched_adaptive_closes", c("adaptive_closes"));
    }
    // Fault-grid fields appear only on faulty jobs, so fault-free sweep
    // output stays byte-identical to pre-fault harness versions.
    if let Some((kind, rate)) = spec.fault {
        obj = obj
            .string("fault_kind", kind.name())
            .f64("fault_rate", rate)
            .u64("fault_seed", spec.fault_seed);
    }
    // Recovery counters come out of the unified metrics registry (the
    // `link` subtree exists exactly when the link was engaged); the field
    // names predate the registry and are part of the stable row schema.
    if let Some(rec) = out.recovery() {
        let c = |name: &str| rec.counter(name).unwrap_or(0);
        obj = obj
            .u64("faults_injected", c("faults_injected"))
            .u64("retransmits", c("retransmits"))
            .u64("resyncs", c("resyncs"))
            .u64("rekeys", c("rekeys"))
            .u64("quarantines", c("quarantines"))
            .u64("unrecovered", c("unrecovered"))
            .u64("counters_converged", c("counters_converged"));
    }
    // Device-fault fields follow the same discipline: present only when
    // the device axis is engaged, so clean sweeps stay byte-identical.
    if let Some((kind, rate)) = spec.device_fault {
        obj = obj
            .string("device_fault_kind", kind.name())
            .f64("device_fault_rate", rate)
            .u64("device_fault_seed", spec.device_fault_seed);
    }
    if let Some(rec) = out.device_recovery() {
        let c = |name: &str| rec.counter(name).unwrap_or(0);
        obj = obj
            .u64("dev_detected", c("detected"))
            .u64("dev_retried", c("retried"))
            .u64("dev_resynced", c("resynced"))
            .u64("dev_quarantined", c("quarantined"))
            .u64("dev_migrated", c("migrated"))
            .u64("dev_unrecovered", c("unrecovered"));
    }
    // Leakage fields appear only on attacker-active rows (same
    // byte-identity discipline as the fault axes).
    if let Some(leak) = spec.leakage {
        obj = obj
            .u64("leak_window", leak.window as u64)
            .f64("leak_squeeze", leak.squeeze);
    }
    if let Some(node) = out.leakage() {
        let g = |name: &str| node.gauge(name).unwrap_or(0.0);
        let c = |name: &str| node.counter(name).unwrap_or(0);
        obj = obj
            .f64("leak_bits_per_access", g("bits_per_access"))
            .f64("leak_addr_bits", g("addr_bits_per_access"))
            .f64("leak_kind_bits", g("kind_bits_per_access"))
            .f64("leak_data_bits", g("data_bits_per_access"))
            .f64("leak_crit_recovery", g("crit_recovery"))
            .u64("leak_windows", c("windows"))
            .u64("leak_real_accesses", c("real_accesses"))
            .u64("leak_dummy_packets", c("dummy_packets"));
    }
    if timing {
        obj = obj.f64("wall_ms", out.wall_ms);
    }
    obj.finish()
}

/// Serialises one job's whole-stack metrics snapshot as a JSONL row:
/// `{"id":"...","metrics":{...}}`. The metrics object is the registry's
/// deterministic rendering, so two bit-identical runs produce
/// byte-identical rows.
pub fn encode_metrics_row(out: &JobOutput) -> String {
    let mut row = String::from("{\"id\":");
    obfusmem_obs::json::push_string(&mut row, &out.spec.id);
    row.push_str(",\"metrics\":");
    row.push_str(&out.metrics.to_json());
    row.push('}');
    row
}

/// Reads the ids of jobs already completed in `path`. Missing file means
/// a fresh sweep; malformed or truncated lines are skipped.
pub fn completed_ids(path: &Path) -> std::io::Result<BTreeSet<String>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    let mut ids = BTreeSet::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        // Only a structurally complete row counts: a torn row can still
        // carry an intact `id` (it is the first field), and treating it
        // as done would silently drop the job's metrics forever.
        let complete = line.starts_with('{') && line.trim_end().ends_with('}');
        if !complete {
            continue;
        }
        if let Some(id) = extract_string_field(&line, "id") {
            ids.insert(id);
        }
    }
    Ok(ids)
}

/// An append-mode JSONL writer that flushes after every row, so a kill
/// loses at most the row being written.
pub struct JsonlSink {
    writer: BufWriter<File>,
    path: PathBuf,
    timing: bool,
}

impl JsonlSink {
    /// Opens `path` for appending (creating it if needed). If a previous
    /// run was killed mid-write and left the file without a trailing
    /// newline, one is added first so new rows never merge into the torn
    /// fragment's line.
    pub fn append(path: &Path, timing: bool) -> std::io::Result<JsonlSink> {
        let needs_newline = match std::fs::read(path) {
            Ok(bytes) => !bytes.is_empty() && bytes.last() != Some(&b'\n'),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut sink = JsonlSink {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            timing,
        };
        if needs_newline {
            sink.writer.write_all(b"\n")?;
            sink.writer.flush()?;
        }
        Ok(sink)
    }

    /// Path the sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one result row and flushes it to the OS. Row and newline
    /// go down in a single write so a kill cannot split them.
    pub fn write(&mut self, out: &JobOutput) -> std::io::Result<()> {
        let row = encode_row(out, self.timing);
        self.write_line(&row)
    }

    /// Appends one pre-encoded JSONL row (e.g. [`encode_metrics_row`])
    /// with the same single-write + flush durability as [`write`].
    pub fn write_line(&mut self, row: &str) -> std::io::Result<()> {
        let mut line = row.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{derive_seed, run_job, JobSpec};
    use crate::measure::Scheme;

    fn sample_output() -> JobOutput {
        let id = "micro/unprotected/c1/r0".to_string();
        let seed = derive_seed(1, &id);
        run_job(&JobSpec {
            id,
            workload: "micro".into(),
            scheme: Scheme::Unprotected,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 5_000,
            replicate: 0,
            seed,
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        })
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("obfusmem-sink-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fault_rows_carry_recovery_fields_and_clean_rows_do_not() {
        use obfusmem_core::link::FaultKind;
        let id = "micro/obfusmem-auth/c1/drop@0.01/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 10_000,
            replicate: 0,
            seed: derive_seed(1, &id),
            fault: Some((FaultKind::Drop, 0.01)),
            fault_seed: derive_seed(2, &id),
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        });
        let row = encode_row(&out, false);
        assert!(row.contains(r#""fault_kind":"drop""#), "{row}");
        assert!(row.contains(r#""fault_rate":0.01"#), "{row}");
        assert!(row.contains(r#""unrecovered":0"#), "{row}");
        assert!(row.contains(r#""counters_converged":1"#), "{row}");

        let clean = encode_row(&sample_output(), false);
        assert!(!clean.contains("fault_kind"), "{clean}");
        assert!(!clean.contains("retransmits"), "{clean}");
    }

    #[test]
    fn device_fault_rows_carry_dev_recovery_fields_and_clean_rows_do_not() {
        use obfusmem_mem::fault::DeviceFaultKind;
        let id = "micro/obfusmem-auth/c1/dram-bit-flip@0.02/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 10_000,
            replicate: 0,
            seed: derive_seed(1, &id),
            fault: None,
            fault_seed: 0,
            device_fault: Some((DeviceFaultKind::BitFlip, 0.02)),
            device_fault_seed: derive_seed(3, &id),
            leakage: None,
            oram_mode: OramMode::Fixed,
        });
        let row = encode_row(&out, false);
        assert!(row.contains(r#""device_fault_kind":"bit-flip""#), "{row}");
        assert!(row.contains(r#""device_fault_rate":0.02"#), "{row}");
        assert!(row.contains(r#""dev_detected":"#), "{row}");
        assert!(row.contains(r#""dev_unrecovered":0"#), "{row}");

        let clean = encode_row(&sample_output(), false);
        assert!(!clean.contains("device_fault_kind"), "{clean}");
        assert!(!clean.contains("dev_detected"), "{clean}");
    }

    #[test]
    fn leakage_rows_carry_leak_fields_and_clean_rows_do_not() {
        use crate::measure::LeakagePoint;
        let leak = LeakagePoint {
            window: 128,
            squeeze: 1.0,
        };
        let id = "micro/unprotected/c1/leak-w128/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::Unprotected,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 20_000,
            replicate: 0,
            seed: derive_seed(1, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: Some(leak),
            oram_mode: OramMode::Fixed,
        });
        let row = encode_row(&out, false);
        assert!(row.contains(r#""leak_window":128"#), "{row}");
        assert!(row.contains(r#""leak_squeeze":1"#), "{row}");
        assert!(row.contains(r#""leak_bits_per_access":"#), "{row}");
        assert!(row.contains(r#""leak_crit_recovery":"#), "{row}");
        assert!(row.contains(r#""leak_windows":"#), "{row}");

        let clean = encode_row(&sample_output(), false);
        assert!(!clean.contains("leak_"), "{clean}");
    }

    #[test]
    fn queued_rows_carry_scheduler_fields_and_reservation_rows_do_not() {
        let id = "micro/obfusmem-auth/c1/queued/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Queued,
            instructions: 10_000,
            replicate: 0,
            seed: derive_seed(1, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        });
        let row = encode_row(&out, false);
        assert!(row.contains(r#""backend":"queued""#), "{row}");
        assert!(row.contains(r#""sched_serviced":"#), "{row}");
        assert!(row.contains(r#""sched_row_hits":"#), "{row}");
        assert!(row.contains(r#""sched_reordered":"#), "{row}");
        assert!(row.contains(r#""sched_adaptive_closes":"#), "{row}");

        let clean = encode_row(&sample_output(), false);
        assert!(!clean.contains("backend"), "{clean}");
        assert!(!clean.contains("sched_"), "{clean}");
    }

    #[test]
    fn oram_mode_rows_carry_mode_fields_and_default_rows_do_not() {
        let id = "micro/oram/c1/oram-codesign/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::OramModel,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 10_000,
            replicate: 0,
            seed: derive_seed(1, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Codesign,
        });
        let row = encode_row(&out, false);
        assert!(row.contains(r#""oram_mode":"codesign""#), "{row}");
        assert!(row.contains(r#""oram_mean_access_ns":"#), "{row}");

        let clean = encode_row(&sample_output(), false);
        assert!(!clean.contains("oram_mode"), "{clean}");
        assert!(!clean.contains("oram_mean_access_ns"), "{clean}");
    }

    #[test]
    fn metrics_rows_are_reproducible_and_resume_compatible() {
        let out = sample_output();
        let row = encode_metrics_row(&out);
        assert!(row.starts_with(&format!("{{\"id\":\"{}\",\"metrics\":{{", out.spec.id)));
        assert!(row.contains("\"core\":{"), "{row}");
        assert!(row.contains("\"mem\":{"), "{row}");
        let again = run_job(&out.spec);
        assert_eq!(row, encode_metrics_row(&again));

        // A metrics file is itself a valid checkpoint surface: complete
        // rows yield their ids, torn rows do not.
        let path = temp_path("metrics");
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlSink::append(&path, false).unwrap();
        sink.write_line(&row).unwrap();
        drop(sink);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&row.replace("/r0", "/r1").as_bytes()[..row.len() / 2])
            .unwrap();
        drop(f);
        let ids = completed_ids(&path).unwrap();
        assert!(ids.contains(&out.spec.id));
        assert_eq!(ids.len(), 1, "torn metrics row must not count");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rows_without_timing_are_reproducible() {
        let out = sample_output();
        let again = run_job(&out.spec);
        assert_eq!(encode_row(&out, false), encode_row(&again, false));
        assert!(encode_row(&out, true).contains("wall_ms"));
        assert!(!encode_row(&out, false).contains("wall_ms"));
    }

    #[test]
    fn sink_round_trips_completed_ids_and_skips_truncated_rows() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        assert!(
            completed_ids(&path).unwrap().is_empty(),
            "missing file is a fresh sweep"
        );

        let out = sample_output();
        let mut sink = JsonlSink::append(&path, true).unwrap();
        sink.write(&out).unwrap();
        drop(sink);

        // Simulate a kill mid-write: append half of a second row.
        let row = encode_row(&out, true).replace("/r0", "/r1");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&row.as_bytes()[..row.len() / 3]).unwrap();
        drop(f);

        let ids = completed_ids(&path).unwrap();
        assert!(ids.contains(&out.spec.id));
        assert_eq!(ids.len(), 1, "truncated row must not count as completed");

        // Reopening must not merge new rows into the torn fragment's line.
        let replacement = {
            let mut spec = out.spec.clone();
            spec.id = spec.id.replace("/r0", "/r1");
            JobOutput {
                spec,
                ..out.clone()
            }
        };
        let mut sink = JsonlSink::append(&path, true).unwrap();
        sink.write(&replacement).unwrap();
        drop(sink);
        let ids = completed_ids(&path).unwrap();
        assert_eq!(ids.len(), 2, "both real rows must now be complete");
        std::fs::remove_file(&path).unwrap();
    }
}
