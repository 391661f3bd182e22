//! The full-system simulator: workload → core → protected memory.
//!
//! [`System`] is the top of the stack — what the examples and the
//! table/figure harness drive. It wires a [`TraceDrivenCore`] to an
//! [`ObfusMemBackend`] built from a [`SystemConfig`], and exposes the
//! paper's headline metric: execution-time overhead of a protected
//! configuration over the unprotected baseline on the same machine.

use obfusmem_cpu::core::{RunResult, TraceDrivenCore};
use obfusmem_cpu::workload::WorkloadSpec;
use obfusmem_mem::config::MemConfig;
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_obs::trace::TraceHandle;

use crate::backend::ObfusMemBackend;
use crate::config::{ObfusMemConfig, SecurityLevel};

/// Everything needed to stand up a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Protection level (shortcut into `obfus.security`).
    pub security: SecurityLevel,
    /// Full ObfusMem design point.
    pub obfus: ObfusMemConfig,
    /// Memory geometry/timing.
    pub mem: MemConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            security: SecurityLevel::ObfuscateAuth,
            obfus: ObfusMemConfig::paper_default(),
            mem: MemConfig::table2(),
        }
    }
}

/// A runnable simulated machine.
#[derive(Debug)]
pub struct System {
    core: TraceDrivenCore,
    backend: ObfusMemBackend,
}

impl System {
    /// Builds the machine.
    pub fn new(cfg: SystemConfig) -> Self {
        let obfus = ObfusMemConfig {
            security: cfg.security,
            ..cfg.obfus
        };
        System {
            core: TraceDrivenCore::new(),
            backend: ObfusMemBackend::new(obfus, cfg.mem, 0x5EED_0001),
        }
    }

    /// Builds the machine with an explicit backend seed.
    pub fn with_seed(cfg: SystemConfig, seed: u64) -> Self {
        let obfus = ObfusMemConfig {
            security: cfg.security,
            ..cfg.obfus
        };
        System {
            core: TraceDrivenCore::new(),
            backend: ObfusMemBackend::new(obfus, cfg.mem, seed),
        }
    }

    /// Runs `instructions` of `spec`, deterministically under `seed`.
    pub fn run(&mut self, spec: &WorkloadSpec, instructions: u64, seed: u64) -> RunResult {
        let result = self.core.run(spec, instructions, &mut self.backend, seed);
        // Queued-backend runs may retire with posted writes still parked
        // in the controllers; flush them so wear/energy/stat totals are
        // complete. No-op (and bit-identical) for the reservation model.
        self.backend.drain_posted();
        result
    }

    /// [`System::run`] with observability attached: core and backend both
    /// record spans through `obs`, and core-side metrics land in
    /// `metrics`. Recording is passive, so results are bit-identical to
    /// [`System::run`] — pass [`TraceHandle::disabled`] to collect only
    /// metrics.
    pub fn run_observed(
        &mut self,
        spec: &WorkloadSpec,
        instructions: u64,
        seed: u64,
        obs: &TraceHandle,
        metrics: &mut MetricsNode,
    ) -> RunResult {
        self.backend.set_trace_handle(obs.clone());
        let result =
            self.core
                .run_observed(spec, instructions, &mut self.backend, seed, obs, metrics);
        self.backend.set_trace_handle(TraceHandle::disabled());
        self.backend.drain_posted();
        self.backend.observe_metrics(metrics);
        result
    }

    /// The backend, for stats/trace inspection.
    pub fn backend(&self) -> &ObfusMemBackend {
        &self.backend
    }

    /// Mutable backend access (e.g. to enable tracing).
    pub fn backend_mut(&mut self) -> &mut ObfusMemBackend {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_cpu::workload::micro_test_workload;

    #[test]
    fn quickstart_runs() {
        let mut sys = System::new(SystemConfig::default());
        let r = sys.run(&micro_test_workload(), 20_000, 1);
        assert!(r.exec_time.as_ns() > 0);
        assert_eq!(r.misses, 400);
    }

    #[test]
    fn sweep_orders_overheads_sensibly() {
        let levels = [
            SecurityLevel::Unprotected,
            SecurityLevel::EncryptOnly,
            SecurityLevel::Obfuscate,
            SecurityLevel::ObfuscateAuth,
        ];
        let results: Vec<(SecurityLevel, RunResult)> = levels
            .iter()
            .map(|&security| {
                let mut sys = System::new(SystemConfig {
                    security,
                    ..SystemConfig::default()
                });
                (security, sys.run(&micro_test_workload(), 100_000, 7))
            })
            .collect();
        let base = &results[0].1;
        let mut last = 0.0;
        for (level, r) in &results[1..] {
            let ovh = r.overhead_vs(base);
            assert!(
                ovh >= last - 0.5,
                "{level} overhead {ovh}% regressed below {last}%"
            );
            last = ovh;
        }
        // ObfusMem+Auth on a memory-intensive workload: noticeable but
        // far from ORAM-class (paper: ~10-30% for such workloads).
        let full = results[3].1.overhead_vs(base);
        assert!(
            full > 0.5 && full < 100.0,
            "ObfusMem+Auth overhead {full}% out of band"
        );
    }

    #[test]
    fn observed_run_matches_plain_run_and_snapshots_whole_stack() {
        let plain = {
            let mut sys = System::new(SystemConfig::default());
            sys.run(&micro_test_workload(), 50_000, 9)
        };
        let mut sys = System::new(SystemConfig::default());
        let obs = obfusmem_obs::trace::TraceHandle::recording();
        let mut metrics = MetricsNode::new();
        let observed = sys.run_observed(&micro_test_workload(), 50_000, 9, &obs, &mut metrics);
        assert_eq!(plain.exec_time, observed.exec_time);
        assert_eq!(plain.misses, observed.misses);
        // The snapshot spans core, engine, crypto, and device subtrees.
        assert_eq!(metrics.counter("core.misses"), Some(observed.misses));
        assert_eq!(
            metrics.counter("engine.real_reads"),
            Some(sys.backend().stats().real_reads)
        );
        assert!(metrics.counter("mem.ch0.reads").unwrap_or(0) > 0);
        // The trace covers ≥ 4 distinct tracks (core, engine, bus, bank).
        let events = obs.finish();
        let tracks = obfusmem_obs::chrome::distinct_tracks(&events);
        assert!(
            tracks.len() >= 4,
            "only {} tracks: {tracks:?}",
            tracks.len()
        );
    }

    #[test]
    fn deterministic_across_identical_systems() {
        let mk = || {
            let mut sys = System::new(SystemConfig::default());
            sys.run(&micro_test_workload(), 50_000, 9).exec_time
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn channel_count_flows_through() {
        let mut sys = System::new(SystemConfig {
            mem: MemConfig::table2().with_channels(4),
            ..SystemConfig::default()
        });
        let r = sys.run(&micro_test_workload(), 50_000, 3);
        assert!(r.exec_time.as_ns() > 0);
        assert!(sys.backend().stats().channel_dummies > 0);
    }

    #[test]
    fn queued_backend_runs_deterministically_at_every_level() {
        use crate::BackendKind;
        for security in [
            SecurityLevel::Unprotected,
            SecurityLevel::EncryptOnly,
            SecurityLevel::Obfuscate,
            SecurityLevel::ObfuscateAuth,
        ] {
            let mk = || {
                let mut sys = System::new(SystemConfig {
                    security,
                    mem: MemConfig::table2()
                        .with_channels(2)
                        .with_backend(BackendKind::Queued),
                    ..SystemConfig::default()
                });
                let r = sys.run(&micro_test_workload(), 30_000, 5);
                // run() drains posted writes, so nothing is left parked.
                assert_eq!(sys.backend().memory().pending_requests(), 0);
                (r.exec_time, r.misses)
            };
            let (a, b) = (mk(), mk());
            assert_eq!(a, b, "{security}: queued run not deterministic");
            assert!(a.0.as_ns() > 0);
        }
    }

    #[test]
    fn queued_backend_reports_scheduler_stats_through_metrics() {
        use crate::BackendKind;
        let mut sys = System::new(SystemConfig {
            mem: MemConfig::table2()
                .with_channels(2)
                .with_backend(BackendKind::Queued),
            ..SystemConfig::default()
        });
        let obs = obfusmem_obs::trace::TraceHandle::disabled();
        let mut metrics = MetricsNode::new();
        let r = sys.run_observed(&micro_test_workload(), 30_000, 5, &obs, &mut metrics);
        assert!(r.exec_time.as_ns() > 0);
        let serviced = metrics.counter("mem.queued.serviced").unwrap_or(0);
        assert!(serviced > 0, "queued scheduler serviced nothing");
        let sched = sys
            .backend()
            .memory()
            .scheduler_stats()
            .expect("queued mode");
        assert_eq!(sched.serviced.get(), serviced);
        // Reservation-model systems expose no scheduler subtree.
        let mut base = System::new(SystemConfig::default());
        let mut base_metrics = MetricsNode::new();
        base.run_observed(&micro_test_workload(), 30_000, 5, &obs, &mut base_metrics);
        assert_eq!(base_metrics.counter("mem.queued.serviced"), None);
    }

    #[test]
    fn queued_and_reservation_agree_on_demand_traffic() {
        // The controller model changes *when* requests finish, never *how
        // many* there are: both backends must retire the same instruction
        // stream with identical miss counts and the same real read/write
        // demand totals.
        let run_with = |backend| {
            let mut sys = System::new(SystemConfig {
                mem: MemConfig::table2().with_backend(backend),
                ..SystemConfig::default()
            });
            let r = sys.run(&micro_test_workload(), 30_000, 5);
            let stats = sys.backend().stats().clone();
            (r.misses, stats.real_reads, stats.real_writes)
        };
        use crate::BackendKind;
        assert_eq!(
            run_with(BackendKind::Reservation),
            run_with(BackendKind::Queued)
        );
    }
}
