//! The trace-driven core model.
//!
//! Executes a workload's miss stream against a pluggable memory back end,
//! producing the execution time every evaluation number derives from.
//!
//! The timing model mirrors the mechanism the paper's results turn on:
//!
//! * between misses the core *computes* for the stream's gap;
//! * a demand fill allocates an MSHR; the core runs ahead until its MSHR
//!   budget (`spec.mlp`) is exhausted, then stalls until the oldest miss
//!   returns — so exposed memory latency is `max(0, latency/mlp − gap)`
//!   in steady state;
//! * write-backs are posted (off the critical path) but consume back-end
//!   bandwidth, which is how ObfusMem's dummy traffic and ORAM's path
//!   traffic feed back into execution time.

use obfusmem_cache::mshr::MshrFile;
use obfusmem_mem::request::BlockAddr;
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_obs::trace::{TraceHandle, Track};
use obfusmem_sim::stats::{Histogram, RunningStats};
use obfusmem_sim::time::{Clock, Duration, Time};

use crate::stream::MissStream;
use crate::workload::WorkloadSpec;

/// A memory system as seen by the core: demand fills with a completion
/// time, and posted write-backs.
///
/// Implementations: unprotected PCM, ObfusMem (all security levels), and
/// Path ORAM (both the paper's fixed-latency model and the functional
/// tree). The trait is object-safe so harnesses can sweep configurations.
pub trait MemoryBackend {
    /// Issues a demand fill at `at`; returns when the data reaches the LLC.
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time;

    /// Posts a dirty write-back at `at` (completion is not awaited by the
    /// core, but the back end must account bandwidth/occupancy).
    fn write(&mut self, at: Time, addr: BlockAddr);

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Back-end label.
    pub backend: String,
    /// Instructions retired.
    pub instructions: u64,
    /// LLC misses (demand fills) issued.
    pub misses: u64,
    /// Write-backs issued.
    pub writebacks: u64,
    /// Total execution time.
    pub exec_time: Duration,
    /// Measured IPC at the 2 GHz core clock.
    pub ipc: f64,
    /// Average measured latency of demand fills (ns).
    pub avg_fill_latency_ns: f64,
    /// Average gap between consecutive memory requests (ns), the Table 1
    /// metric.
    pub avg_request_gap_ns: f64,
}

impl RunResult {
    /// Execution-time overhead of `self` relative to `baseline`, percent.
    pub fn overhead_vs(&self, baseline: &RunResult) -> f64 {
        100.0 * (self.exec_time.as_ps() as f64 - baseline.exec_time.as_ps() as f64)
            / baseline.exec_time.as_ps() as f64
    }

    /// Slowdown ratio of `self` relative to `baseline`.
    pub fn slowdown_vs(&self, baseline: &RunResult) -> f64 {
        self.exec_time.as_ps() as f64 / baseline.exec_time.as_ps() as f64
    }
}

/// The trace-driven core.
#[derive(Debug)]
pub struct TraceDrivenCore {
    clock: Clock,
}

impl Default for TraceDrivenCore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceDrivenCore {
    /// A core at the Table 2 frequency (2 GHz).
    pub fn new() -> Self {
        TraceDrivenCore {
            clock: Clock::from_mhz(2000),
        }
    }

    /// Runs `instructions` of `spec` against `backend`, deterministically
    /// under `seed`.
    pub fn run(
        &self,
        spec: &WorkloadSpec,
        instructions: u64,
        backend: &mut dyn MemoryBackend,
        seed: u64,
    ) -> RunResult {
        self.run_observed(
            spec,
            instructions,
            backend,
            seed,
            &TraceHandle::disabled(),
            &mut MetricsNode::new(),
        )
    }

    /// [`run`](Self::run) plus observability: spans for every fill /
    /// MSHR stall land on `obs`'s core track, and the core's metrics
    /// (fill-latency and request-gap distributions, MSHR pressure) are
    /// written under `metrics`. Recording is passive — results are
    /// bit-identical to [`run`](Self::run) whether or not `obs` carries
    /// a recorder.
    pub fn run_observed(
        &self,
        spec: &WorkloadSpec,
        instructions: u64,
        backend: &mut dyn MemoryBackend,
        seed: u64,
        obs: &TraceHandle,
        metrics: &mut MetricsNode,
    ) -> RunResult {
        let misses = spec.misses_for(instructions).max(1);
        let mut stream = MissStream::new(spec.clone(), seed);
        let mut mshrs = MshrFile::new(spec.mlp);
        let mut now = Time::ZERO;
        let mut fill_latency = RunningStats::new();
        let mut fill_latency_hist = Histogram::new();
        let mut writebacks = 0u64;
        let mut last_request_at = Time::ZERO;
        let mut request_gaps = RunningStats::new();

        for _ in 0..misses {
            let event = stream.next_event();
            // Compute phase.
            now += event.gap;

            // Demand fill: issue, run ahead under the MSHR budget.
            let issued_at = now;
            let completes = backend.read(now, event.fill);
            fill_latency.record(completes.since(now).as_ns_f64());
            fill_latency_hist.record(completes.since(now).as_ns());
            request_gaps.record(now.since(last_request_at).as_ns_f64());
            last_request_at = now;
            now = mshrs.allocate(now, event.fill.as_u64(), completes);
            obs.span(Track::Core, "fill", issued_at, completes);
            if now > issued_at {
                obs.span(Track::Core, "mshr-stall", issued_at, now);
            }

            // Posted write-back, issued after the fill (LLC victim path).
            if let Some(wb) = event.writeback {
                backend.write(now, wb);
                writebacks += 1;
                request_gaps.record(now.since(last_request_at).as_ns_f64());
                last_request_at = now;
                obs.instant(Track::Core, "writeback", now);
            }
        }
        // Drain outstanding misses.
        if let Some(drain) = mshrs.drain_time() {
            if drain > now {
                obs.span(Track::Core, "drain", now, drain);
            }
            now = now.max(drain);
        }

        let (mshr_merged, mshr_stalls) = mshrs.pressure_stats();
        let core_node = metrics.child("core");
        core_node.set_counter("misses", misses);
        core_node.set_counter("writebacks", writebacks);
        core_node.set_histogram("fill_latency_ns", &fill_latency_hist);
        core_node.set_stats("fill_latency_ns_stats", &fill_latency);
        core_node.set_stats("request_gap_ns", &request_gaps);
        let mshr_node = metrics.child("cache").child("mshr");
        mshr_node.set_counter("capacity", spec.mlp as u64);
        mshr_node.set_counter("merged", mshr_merged);
        mshr_node.set_counter("stalls", mshr_stalls);

        let exec_time = now.since(Time::ZERO);
        let cycles = self.clock.duration_to_cycles(exec_time).max(1);
        RunResult {
            workload: spec.name,
            backend: backend.label(),
            instructions,
            misses,
            writebacks,
            exec_time,
            ipc: instructions as f64 / cycles as f64,
            avg_fill_latency_ns: fill_latency.mean(),
            avg_request_gap_ns: request_gaps.mean(),
        }
    }
}

/// A fixed-latency test back end: every read and write completes a fixed
/// latency after issue.
#[derive(Debug, Clone)]
pub struct FixedLatencyBackend {
    latency: Duration,
    name: String,
    reads: u64,
    writes: u64,
}

impl FixedLatencyBackend {
    /// A back end answering every fill after `latency`.
    pub fn new(name: impl Into<String>, latency: Duration) -> Self {
        FixedLatencyBackend {
            latency,
            name: name.into(),
            reads: 0,
            writes: 0,
        }
    }

    /// `(fills, write-backs)` serviced.
    pub fn counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn read(&mut self, at: Time, _addr: BlockAddr) -> Time {
        self.reads += 1;
        at + self.latency
    }

    fn write(&mut self, _at: Time, _addr: BlockAddr) {
        self.writes += 1;
    }

    fn label(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::micro_test_workload;

    fn run_with_latency(latency_ns: u64, mlp: usize) -> RunResult {
        let mut spec = micro_test_workload();
        spec.mlp = mlp;
        let core = TraceDrivenCore::new();
        let mut backend = FixedLatencyBackend::new("test", Duration::from_ns(latency_ns));
        core.run(&spec, 200_000, &mut backend, 42)
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_with_latency(100, 2);
        let b = run_with_latency(100, 2);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.misses, b.misses);
    }

    #[test]
    fn slower_memory_means_longer_execution() {
        let fast = run_with_latency(80, 2);
        let slow = run_with_latency(2500, 2);
        assert!(slow.exec_time > fast.exec_time);
        // ORAM-like latency on a high-MPKI workload: order-of-magnitude
        // class slowdown, the paper's headline phenomenon.
        assert!(
            slow.slowdown_vs(&fast) > 5.0,
            "slowdown {}",
            slow.slowdown_vs(&fast)
        );
    }

    #[test]
    fn more_mlp_hides_latency() {
        let narrow = run_with_latency(400, 1);
        let wide = run_with_latency(400, 8);
        assert!(wide.exec_time < narrow.exec_time);
    }

    #[test]
    fn zero_added_latency_leaves_only_compute() {
        let r = run_with_latency(0, 1);
        // exec_time ≈ sum of gaps ≈ misses × 50 ns.
        let expected_ns = r.misses as f64 * 50.0;
        let actual_ns = r.exec_time.as_ns_f64();
        assert!((actual_ns - expected_ns).abs() / expected_ns < 0.1);
    }

    #[test]
    fn miss_count_follows_mpki() {
        let r = run_with_latency(100, 2);
        assert_eq!(r.misses, 4000); // 200k instr × 20 MPKI / 1000
        assert!(r.writebacks > 0);
    }

    #[test]
    fn overhead_math() {
        let base = run_with_latency(80, 2);
        let slow = run_with_latency(160, 2);
        let overhead = slow.overhead_vs(&base);
        assert!(overhead > 0.0);
        assert!((slow.slowdown_vs(&base) - (1.0 + overhead / 100.0)).abs() < 1e-9);
    }

    #[test]
    fn observed_run_is_bit_identical_and_reports_metrics() {
        let spec = micro_test_workload();
        let core = TraceDrivenCore::new();
        let mut b1 = FixedLatencyBackend::new("test", Duration::from_ns(100));
        let plain = core.run(&spec, 50_000, &mut b1, 9);

        let obs = TraceHandle::recording();
        let mut metrics = MetricsNode::new();
        let mut b2 = FixedLatencyBackend::new("test", Duration::from_ns(100));
        let traced = core.run_observed(&spec, 50_000, &mut b2, 9, &obs, &mut metrics);

        assert_eq!(plain.exec_time, traced.exec_time);
        assert_eq!(plain.misses, traced.misses);
        assert_eq!(plain.ipc, traced.ipc);
        assert_eq!(plain.avg_fill_latency_ns, traced.avg_fill_latency_ns);

        assert_eq!(metrics.counter("core.misses"), Some(traced.misses));
        assert_eq!(
            metrics.counter("cache.mshr.capacity"),
            Some(spec.mlp as u64)
        );
        let events = obs.finish();
        assert!(
            events.iter().any(|e| matches!(
                e,
                obfusmem_obs::trace::TraceEvent::Span { name: "fill", .. }
            )),
            "fills must produce core spans"
        );
        assert_eq!(events.iter().map(|e| e.track()).next(), Some(Track::Core));
    }

    #[test]
    fn ipc_reported_against_2ghz() {
        let r = run_with_latency(0, 1);
        let cycles = r.exec_time.as_ps() / 500;
        assert!((r.ipc - r.instructions as f64 / cycles as f64).abs() < 1e-9);
    }
}
