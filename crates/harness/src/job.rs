//! Jobs: the unit of scheduled work.
//!
//! A [`JobSpec`] is a fully self-describing simulation request — workload,
//! scheme, machine knobs, instruction budget, and a seed derived from the
//! master seed and the job's stable id alone. Because the seed never
//! depends on scheduling order, any job can be re-run standalone (or on a
//! machine with a different core count) and reproduce its JSONL row
//! exactly.

use std::time::Instant;

use obfusmem_core::config::FaultPlan;
use obfusmem_core::link::FaultKind;
use obfusmem_cpu::core::RunResult;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_obs::trace::{TraceEvent, TraceHandle};
use obfusmem_sim::rng::SplitMix64;

use crate::measure::{
    run_point_with, workload_by_name, BusObserver, LeakagePoint, OramMode, PointSpec, Scheme,
};

/// One schedulable simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable content id built by [`JobSpec::axis_id`], e.g.
    /// `mcf/obfusmem-auth/c1/r0`. Checkpointing and seeding key off this,
    /// never off grid position.
    pub id: String,
    /// Workload name (Table 1 benchmark or `micro`).
    pub workload: String,
    /// Protection scheme.
    pub scheme: Scheme,
    /// Memory channels.
    pub channels: usize,
    /// Memory-controller model ([`BackendKind::Reservation`] is the
    /// historical default; `Queued` runs the sharded FR-FCFS controllers).
    pub backend: BackendKind,
    /// Instruction budget.
    pub instructions: u64,
    /// Replicate index (seed variation within one grid point).
    pub replicate: u32,
    /// Derived seed (see [`derive_seed`]).
    pub seed: u64,
    /// Fault axis: `(kind, per-packet rate)`. `None` runs fault-free
    /// (the link stays disengaged and output is bit-identical to
    /// pre-fault harness versions).
    pub fault: Option<(FaultKind, f64)>,
    /// Derived fault-injection stream seed (0 when fault-free).
    pub fault_seed: u64,
    /// Device (array) fault axis: `(kind, rate)`. `None` keeps the
    /// device fault overlay and the recovery ladder disengaged (output
    /// byte-identical to pre-device-fault harness versions).
    pub device_fault: Option<(DeviceFaultKind, f64)>,
    /// Derived device-fault stream seed (0 when device-fault-free).
    pub device_fault_seed: u64,
    /// Leakage axis: the Membuster attacker's window/squeeze setting.
    /// `None` runs unobserved (the bus tap stays disengaged and output
    /// is byte-identical to pre-observatory harness versions).
    pub leakage: Option<LeakagePoint>,
    /// ORAM backend mode. Only meaningful for [`Scheme::OramModel`]
    /// points; the default ([`OramMode::Fixed`]) keeps the historical
    /// fixed-latency model and contributes no id segment, so every
    /// pre-mode sweep id (and checkpoint) stays valid.
    pub oram_mode: OramMode,
}

impl JobSpec {
    /// Builds the stable id from this job's axis values:
    /// `{workload}/{scheme}/c{channels}`, then one segment for each axis
    /// off its default — ORAM mode (`oram-{mode}`), backend, link fault
    /// (`{kind}@{rate}`), device fault (`dram-{kind}@{rate}`; the prefix
    /// keeps the two `bit-flip`s apart) and leakage (`leak-w{window}`,
    /// plus `x{squeeze}` when squeezing) — and last `r{replicate}`. An
    /// axis at its default adds nothing, so every id written before that
    /// axis existed (and every checkpoint keyed on it) stays valid.
    pub fn axis_id(&self) -> String {
        let mut id = format!(
            "{}/{}/c{}",
            self.workload,
            self.scheme.name(),
            self.channels
        );
        if self.oram_mode != OramMode::Fixed {
            id += &format!("/oram-{}", self.oram_mode.name());
        }
        if self.backend != BackendKind::Reservation {
            id += &format!("/{}", self.backend.name());
        }
        if let Some((kind, rate)) = self.fault {
            id += &format!("/{}@{rate}", kind.name());
        }
        if let Some((kind, rate)) = self.device_fault {
            id += &format!("/dram-{}@{rate}", kind.name());
        }
        match self.leakage {
            Some(leak) if leak.squeeze == 1.0 => id += &format!("/leak-w{}", leak.window),
            Some(leak) => id += &format!("/leak-w{}x{}", leak.window, leak.squeeze),
            None => {}
        }
        id + &format!("/r{}", self.replicate)
    }
}

/// Derives the seed for `job_id` under `master_seed`.
///
/// A fresh generator is built from the master seed and split once on the
/// job id, so the result is a function of `(master_seed, job_id)` only —
/// deterministic across thread counts, scheduling orders, and resumes.
pub fn derive_seed(master_seed: u64, job_id: &str) -> u64 {
    SplitMix64::new(master_seed).split_named(job_id).next_u64()
}

/// A completed job: the spec it ran, the simulation result, the metrics
/// snapshot, and how long the simulation took on the wall clock.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The spec that ran.
    pub spec: JobSpec,
    /// Simulation result.
    pub result: RunResult,
    /// Whole-stack metrics snapshot (core, engine, crypto, memory, and —
    /// only when the job injected faults — the `link` subtree with the
    /// per-channel ARQ recovery counters).
    pub metrics: MetricsNode,
    /// Recorded spans (non-empty only for [`run_job_traced`] jobs).
    pub trace: Vec<TraceEvent>,
    /// Host wall-clock milliseconds spent simulating.
    pub wall_ms: f64,
}

impl JobOutput {
    /// The link-layer recovery subtree; `None` when the job ran
    /// fault-free (the link stays disengaged).
    pub fn recovery(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("link")
    }

    /// The device-fault recovery subtree (`recovery.*`); `None` when the
    /// job ran with the device fault overlay disengaged.
    pub fn device_recovery(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("recovery")
    }

    /// The queued-controller scheduler subtree (`mem.queued`); `None`
    /// when the job ran on the reservation backend (or the ORAM model,
    /// which has no memory controller at all).
    pub fn queued_sched(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("mem")?.get_child("queued")
    }

    /// The leakage-observatory subtree (`leakage.*`); `None` when the
    /// job ran without the attacker attached.
    pub fn leakage(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("leakage")
    }
}

/// Runs one job. Pure with respect to the spec (the wall-clock field is
/// the only thing that varies between identical runs).
///
/// # Panics
///
/// Panics if the workload name does not resolve; [`crate::spec::SweepSpec::expand`]
/// validates names before any job is scheduled.
pub fn run_job(spec: &JobSpec) -> JobOutput {
    run_job_with(spec, &TraceHandle::disabled())
}

/// [`run_job`] with span recording enabled: the recorded events land in
/// [`JobOutput::trace`], ready for the Chrome-trace exporter. The
/// simulation result is bit-identical to the untraced run's.
pub fn run_job_traced(spec: &JobSpec) -> JobOutput {
    run_job_with(spec, &TraceHandle::recording())
}

fn run_job_with(spec: &JobSpec, obs: &TraceHandle) -> JobOutput {
    let workload = workload_by_name(&spec.workload)
        .unwrap_or_else(|| panic!("job {}: unknown workload {:?}", spec.id, spec.workload));
    let mut point = PointSpec {
        mem: MemConfig::table2()
            .with_channels(spec.channels)
            .with_backend(spec.backend),
        oram_mode: spec.oram_mode,
        ..PointSpec::paper(workload, spec.scheme, spec.instructions, spec.seed)
    };
    if let Some((kind, rate)) = spec.fault {
        point.obfus.faults = FaultPlan::single(kind, rate, spec.fault_seed);
    }
    if let Some((kind, rate)) = spec.device_fault {
        point.obfus.device_faults = DeviceFaultPlan::single(kind, rate, spec.device_fault_seed);
    }
    let started = Instant::now();
    let bus = spec
        .leakage
        .map_or(BusObserver::None, BusObserver::Attacker);
    let (result, metrics) = run_point_with(&point, obs, bus);
    JobOutput {
        spec: spec.clone(),
        result,
        metrics,
        trace: obs.finish(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_only_on_master_and_id() {
        let a = derive_seed(1, "mcf/oram/c1/r0");
        assert_eq!(a, derive_seed(1, "mcf/oram/c1/r0"));
        assert_ne!(
            a,
            derive_seed(2, "mcf/oram/c1/r0"),
            "master seed must matter"
        );
        assert_ne!(a, derive_seed(1, "mcf/oram/c1/r1"), "job id must matter");
    }

    #[test]
    fn job_reruns_identically() {
        let spec = JobSpec {
            id: "micro/obfusmem/c1/r0".into(),
            workload: "micro".into(),
            scheme: Scheme::Obfusmem,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 20_000,
            replicate: 0,
            seed: derive_seed(7, "micro/obfusmem/c1/r0"),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        };
        let a = run_job(&spec);
        let b = run_job(&spec);
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.result.misses, b.result.misses);
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn fault_jobs_report_recovery_counters() {
        let id = "micro/obfusmem-auth/c1/bit-flip@0.01/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 20_000,
            replicate: 0,
            seed: derive_seed(7, &id),
            fault: Some((FaultKind::BitFlip, 0.01)),
            fault_seed: derive_seed(0xFA_017, &id),
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        });
        let rec = out.recovery().expect("faulty job must harvest link stats");
        assert!(
            rec.counter("faults_injected").unwrap_or(0) > 0,
            "1% flips over 20k instructions"
        );
        assert_eq!(rec.counter("unrecovered"), Some(0));
        assert_eq!(rec.counter("counters_converged"), Some(1));
        assert!(
            rec.counter("ch0.retransmits").is_some(),
            "per-channel ARQ counters must be in the snapshot"
        );
    }

    #[test]
    fn device_fault_jobs_report_recovery_counters_and_stay_deterministic() {
        let id = "micro/obfusmem-auth/c1/dram-bit-flip@0.02/r0".to_string();
        let spec = JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 20_000,
            replicate: 0,
            seed: derive_seed(7, &id),
            fault: None,
            fault_seed: 0,
            device_fault: Some((DeviceFaultKind::BitFlip, 0.02)),
            device_fault_seed: derive_seed(0xD_F0_17, &id),
            leakage: None,
            oram_mode: OramMode::Fixed,
        };
        let out = run_job(&spec);
        let rec = out
            .device_recovery()
            .expect("device-faulty job must harvest recovery stats");
        assert!(
            rec.counter("detected").unwrap_or(0) > 0,
            "2% transient flips over 20k instructions must surface"
        );
        assert_eq!(rec.counter("unrecovered"), Some(0), "ladder must recover");
        assert!(out.recovery().is_none(), "link axis stays disengaged");
        let again = run_job(&spec);
        assert_eq!(out.result.exec_time, again.result.exec_time);
        assert_eq!(out.metrics.to_json(), again.metrics.to_json());
    }

    #[test]
    fn fault_free_jobs_carry_no_recovery_block() {
        let id = "micro/obfusmem-auth/c1/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 5_000,
            replicate: 0,
            seed: derive_seed(7, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        });
        assert!(out.recovery().is_none(), "link must stay disengaged");
        assert!(out.trace.is_empty(), "untraced jobs record no spans");
    }

    #[test]
    fn traced_jobs_match_untraced_results_and_carry_spans() {
        let id = "micro/obfusmem-auth/c1/r0".to_string();
        let spec = JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 10_000,
            replicate: 0,
            seed: derive_seed(7, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        };
        let plain = run_job(&spec);
        let traced = run_job_traced(&spec);
        assert_eq!(plain.result.exec_time, traced.result.exec_time);
        assert_eq!(plain.result.misses, traced.result.misses);
        assert!(plain.trace.is_empty());
        assert!(!traced.trace.is_empty());
        assert_eq!(
            plain.metrics.to_json(),
            traced.metrics.to_json(),
            "metric snapshots must not depend on tracing"
        );
    }

    /// A default-axis `mcf` job for the id pins below.
    fn mcf() -> JobSpec {
        JobSpec {
            id: String::new(),
            workload: "mcf".into(),
            scheme: Scheme::Obfusmem,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 1,
            replicate: 0,
            seed: 0,
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        }
    }

    #[test]
    fn full_ids_collapse_to_the_legacy_forms_on_default_axes() {
        let auth = Scheme::ObfusmemAuth;
        let pins = [
            (
                JobSpec {
                    channels: 4,
                    replicate: 2,
                    ..mcf()
                },
                "mcf/obfusmem/c4/r2",
            ),
            (
                JobSpec {
                    scheme: auth,
                    fault: Some((FaultKind::Drop, 0.01)),
                    ..mcf()
                },
                "mcf/obfusmem-auth/c1/drop@0.01/r0",
            ),
            (
                JobSpec {
                    channels: 2,
                    backend: BackendKind::Queued,
                    replicate: 1,
                    ..mcf()
                },
                "mcf/obfusmem/c2/queued/r1",
            ),
            (
                JobSpec {
                    scheme: auth,
                    device_fault: Some((DeviceFaultKind::BitFlip, 0.02)),
                    ..mcf()
                },
                "mcf/obfusmem-auth/c1/dram-bit-flip@0.02/r0",
            ),
            (
                JobSpec {
                    scheme: Scheme::Unprotected,
                    leakage: Some(LeakagePoint {
                        window: 128,
                        squeeze: 1.0,
                    }),
                    ..mcf()
                },
                "mcf/unprotected/c1/leak-w128/r0",
            ),
            (
                JobSpec {
                    scheme: Scheme::Unprotected,
                    leakage: Some(LeakagePoint {
                        window: 128,
                        squeeze: 4.0,
                    }),
                    ..mcf()
                },
                "mcf/unprotected/c1/leak-w128x4/r0",
            ),
            // Every segment at once, in its fixed order.
            (
                JobSpec {
                    channels: 2,
                    oram_mode: OramMode::Codesign,
                    backend: BackendKind::Queued,
                    fault: Some((FaultKind::Drop, 0.01)),
                    device_fault: Some((DeviceFaultKind::StuckCell, 0.002)),
                    leakage: Some(LeakagePoint {
                        window: 256,
                        squeeze: 2.0,
                    }),
                    replicate: 3,
                    ..mcf()
                },
                "mcf/obfusmem/c2/oram-codesign/queued/drop@0.01/dram-stuck-cell@0.002/leak-w256x2/r3",
            ),
        ];
        for (job, id) in pins {
            assert_eq!(job.axis_id(), id);
        }
    }

    #[test]
    fn mode_ids_collapse_to_legacy_forms_on_the_default_mode() {
        let oram = |oram_mode, channels, replicate| JobSpec {
            scheme: Scheme::OramModel,
            oram_mode,
            channels,
            replicate,
            ..mcf()
        };
        assert_eq!(oram(OramMode::Fixed, 1, 0).axis_id(), "mcf/oram/c1/r0");
        assert_eq!(
            oram(OramMode::Codesign, 2, 1).axis_id(),
            "mcf/oram/c2/oram-codesign/r1"
        );
        assert_eq!(
            oram(OramMode::Serial, 1, 0).axis_id(),
            "mcf/oram/c1/oram-serial/r0"
        );
    }

    /// The fixed-seed determinism gate for `--oram-mode codesign` rows:
    /// identical specs reproduce identical timing and metrics, and the
    /// serial mode is measurably slower on the same stream.
    #[test]
    fn oram_mode_jobs_rerun_identically_and_codesign_beats_serial() {
        let mk = |mode: OramMode, id: &str| JobSpec {
            id: id.into(),
            workload: "micro".into(),
            scheme: Scheme::OramModel,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 20_000,
            replicate: 0,
            seed: derive_seed(7, id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: mode,
        };
        let codesign = mk(OramMode::Codesign, "micro/oram/c1/oram-codesign/r0");
        let a = run_job(&codesign);
        let b = run_job(&codesign);
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert!(a.metrics.counter("oram.accesses").unwrap_or(0) > 0);
        let serial = run_job(&mk(OramMode::Serial, "micro/oram/c1/oram-serial/r0"));
        assert!(
            a.result.exec_time < serial.result.exec_time,
            "codesign rows must be faster than serial rows"
        );
    }

    #[test]
    fn queued_jobs_rerun_identically_and_snapshot_the_scheduler() {
        let id = "micro/obfusmem-auth/c2/queued/r0".to_string();
        let spec = JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 2,
            backend: BackendKind::Queued,
            instructions: 20_000,
            replicate: 0,
            seed: derive_seed(7, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        };
        let a = run_job(&spec);
        let b = run_job(&spec);
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        let sched = a.queued_sched().expect("queued jobs expose mem.queued");
        assert!(sched.counter("serviced").unwrap_or(0) > 0);
    }

    #[test]
    fn reservation_jobs_carry_no_scheduler_subtree() {
        let id = "micro/obfusmem-auth/c1/r0".to_string();
        let out = run_job(&JobSpec {
            id: id.clone(),
            workload: "micro".into(),
            scheme: Scheme::ObfusmemAuth,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions: 5_000,
            replicate: 0,
            seed: derive_seed(7, &id),
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        });
        assert!(out.queued_sched().is_none());
    }

    #[test]
    fn replicates_differ_via_seed_only() {
        let mk = |r: u32| {
            let id = format!("micro/unprotected/c1/r{r}");
            let seed = derive_seed(3, &id);
            run_job(&JobSpec {
                id,
                workload: "micro".into(),
                scheme: Scheme::Unprotected,
                channels: 1,
                backend: BackendKind::Reservation,
                instructions: 20_000,
                replicate: r,
                seed,
                fault: None,
                fault_seed: 0,
                device_fault: None,
                device_fault_seed: 0,
                leakage: None,
                oram_mode: OramMode::Fixed,
            })
        };
        let r0 = mk(0);
        let r1 = mk(1);
        assert_ne!(r0.spec.seed, r1.spec.seed);
        assert_ne!(
            r0.result.exec_time, r1.result.exec_time,
            "different seeds should perturb the miss stream"
        );
    }
}
