//! Pass-through `MemoryBackend` wrappers, and the per-point backends they
//! wrap.
//!
//! The benchmark measures each layer from outside: it builds the backend
//! `run_point` would build, hands `TraceDrivenCore::run` a wrapper around
//! it, and reads the clock at the boundary. Wrappers forward every call
//! unchanged, so the simulated result is the one `run_point` returns; the
//! traced pass re-runs the real `run_point_observed` to prove it.

use std::time::Instant;

use obfusmem_core::system::{System, SystemConfig};
use obfusmem_cpu::core::MemoryBackend;
use obfusmem_harness::measure::{OramMode, PointSpec};
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::device::PcmMemory;
use obfusmem_mem::request::{AccessKind, BlockAddr};
use obfusmem_oram::codesign::CodesignOram;
use obfusmem_oram::model::OramModel;
use obfusmem_oram::path_oram::OramConfig;
use obfusmem_sim::time::Time;

use crate::stats::CallHist;

/// The backend one point runs against, built exactly as `run_point`
/// builds it.
pub enum Machine {
    /// A protected or unprotected `System` (its `ObfusMemBackend`).
    System(Box<System>),
    /// The paper's fixed-latency ORAM model.
    Fixed(OramModel),
    /// The co-designed Path ORAM on the PCM controller.
    Codesign(Box<CodesignOram>),
}

impl Machine {
    /// Builds the backend for `p`.
    ///
    /// # Panics
    ///
    /// On the serial ORAM mode, which no workload uses.
    pub fn build(p: &PointSpec) -> Machine {
        match (p.scheme.security(), p.oram_mode) {
            (Some(security), _) => {
                let cfg = SystemConfig {
                    security,
                    obfus: p.obfus,
                    mem: p.mem.clone(),
                };
                Machine::System(Box::new(match p.backend_seed {
                    None => System::new(cfg),
                    Some(seed) => System::with_seed(cfg, seed),
                }))
            }
            (None, OramMode::Fixed) => Machine::Fixed(OramModel::paper()),
            (None, OramMode::Codesign) => {
                // The geometry and seed `run_point` gives its codesign
                // ORAM; the traced pass checks the two stay in step.
                let geometry = OramConfig {
                    levels: 12,
                    bucket_size: 4,
                    blocks: 4096,
                };
                let seed = p.seed ^ p.backend_seed.unwrap_or(0).rotate_left(23);
                Machine::Codesign(Box::new(
                    CodesignOram::new(geometry, p.mem.clone(), seed)
                        .expect("static codesign geometry is valid"),
                ))
            }
            (None, OramMode::Serial) => unimplemented!("no workload runs the serial ORAM"),
        }
    }

    /// The backend `TraceDrivenCore::run` drives.
    pub fn backend(&mut self) -> &mut dyn MemoryBackend {
        match self {
            Machine::System(s) => s.backend_mut(),
            Machine::Fixed(m) => m,
            Machine::Codesign(c) => c.as_mut(),
        }
    }

    /// What `System::run` does after the core retires: flush posted
    /// writes. Nothing for the ORAM backends, as in `run_point`.
    pub fn finish(&mut self) {
        if let Machine::System(s) = self {
            s.backend_mut().drain_posted();
        }
    }

    /// Requests of the finished point that failed: unrecovered link
    /// deliveries and device faults, or every request when the channel
    /// counters did not re-converge.
    pub fn failed_requests(&self, requests: u64) -> u64 {
        let Machine::System(s) = self else {
            return 0;
        };
        let b = s.backend();
        if !b.counters_converged() {
            return requests;
        }
        let link = b.link_stats().map_or(0, |l| l.unrecovered.get());
        let device = b.recovery().map_or(0, |r| r.stats.unrecovered);
        (link + device).min(requests)
    }
}

/// Backend calls per timed segment of an end-to-end pass.
pub const SEGMENT_CALLS: u64 = 4096;

/// Forwards every call and stamps the host time of the first one and of
/// every [`SEGMENT_CALLS`]-th after it: the probe of the end-to-end
/// passes. The first stamp ends the point's setup; the rest cut the
/// point into segments that are the same work in every pass.
pub struct Stamps<'a> {
    inner: &'a mut dyn MemoryBackend,
    calls: u64,
    /// The stamps, first call first.
    pub marks: Vec<Instant>,
}

impl<'a> Stamps<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn MemoryBackend) -> Self {
        Stamps {
            inner,
            calls: 0,
            marks: Vec::new(),
        }
    }

    fn stamp(&mut self) {
        if self.calls.is_multiple_of(SEGMENT_CALLS) {
            self.marks.push(Instant::now());
        }
        self.calls += 1;
    }
}

impl MemoryBackend for Stamps<'_> {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        self.stamp();
        self.inner.read(at, addr)
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        self.stamp();
        self.inner.write(at, addr)
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A fresh PCM device fed the same calls as an unprotected backend,
/// which forwards each call to its own device unchanged: the replay
/// times the bare `mem` layer and must return the same completions.
pub struct Replay {
    mem: PcmMemory,
    /// Host nanoseconds inside `PcmMemory::access`.
    pub ns: u64,
    /// Calls replayed.
    pub calls: u64,
    /// Fills whose replayed completion differs from the backend's.
    pub diverged: u64,
}

impl Replay {
    fn access(&mut self, at: Time, addr: BlockAddr, kind: AccessKind) -> Time {
        let t0 = Instant::now();
        let done = self.mem.access(at, addr.as_u64(), kind).complete_at;
        self.ns += nanos_since(t0);
        self.calls += 1;
        done
    }
}

/// Times every backend call and optionally replays it through a bare
/// PCM device: the timers pass's probe.
pub struct Timed<'a> {
    inner: &'a mut dyn MemoryBackend,
    /// When the first request reached the backend.
    pub first: Option<Instant>,
    /// Host nanoseconds of each fill.
    pub reads: CallHist,
    /// Host nanoseconds summed over write-backs.
    pub write_ns: u64,
    /// Write-backs seen.
    pub writes: u64,
    /// The bare-device replay, for unprotected points.
    pub replay: Option<Replay>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`; `replay` replays every call through a fresh device
    /// built from that configuration.
    pub fn new(inner: &'a mut dyn MemoryBackend, replay: Option<MemConfig>) -> Self {
        Timed {
            inner,
            first: None,
            reads: CallHist::default(),
            write_ns: 0,
            writes: 0,
            replay: replay.map(|cfg| Replay {
                mem: PcmMemory::new(cfg),
                ns: 0,
                calls: 0,
                diverged: 0,
            }),
        }
    }

    /// Host nanoseconds spent inside the backend.
    pub fn backend_ns(&self) -> u64 {
        self.reads.sum_ns() + self.write_ns
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl MemoryBackend for Timed<'_> {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        let t0 = Instant::now();
        self.first.get_or_insert(t0);
        let done = self.inner.read(at, addr);
        self.reads.record(nanos_since(t0));
        if let Some(r) = &mut self.replay {
            if r.access(at, addr, AccessKind::Read) != done {
                r.diverged += 1;
            }
        }
        done
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        let t0 = Instant::now();
        self.first.get_or_insert(t0);
        self.inner.write(at, addr);
        self.write_ns += nanos_since(t0);
        self.writes += 1;
        if let Some(r) = &mut self.replay {
            r.access(at, addr, AccessKind::Write);
        }
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_cpu::core::TraceDrivenCore;
    use obfusmem_cpu::workload::micro_test_workload;
    use obfusmem_harness::measure::{run_point, Scheme};

    fn specs() -> Vec<PointSpec> {
        let mut out: Vec<PointSpec> = Scheme::ALL
            .into_iter()
            .map(|s| PointSpec::paper(micro_test_workload(), s, 20_000, 5))
            .collect();
        out.push(PointSpec {
            oram_mode: OramMode::Codesign,
            ..PointSpec::paper(micro_test_workload(), Scheme::OramModel, 20_000, 5)
        });
        out
    }

    fn same(a: &obfusmem_cpu::core::RunResult, b: &obfusmem_cpu::core::RunResult) -> bool {
        a.exec_time == b.exec_time
            && a.misses == b.misses
            && a.writebacks == b.writebacks
            && a.ipc.to_bits() == b.ipc.to_bits()
            && a.avg_fill_latency_ns.to_bits() == b.avg_fill_latency_ns.to_bits()
            && a.avg_request_gap_ns.to_bits() == b.avg_request_gap_ns.to_bits()
            && a.backend == b.backend
    }

    #[test]
    fn wrappers_are_passive_on_micro() {
        let core = TraceDrivenCore::new();
        for p in specs() {
            let want = run_point(&p);

            let mut m = Machine::build(&p);
            let mut stamps = Stamps::new(m.backend());
            let got = core.run(&p.workload, p.instructions, &mut stamps, p.seed);
            let calls = got.misses + got.writebacks;
            assert_eq!(
                stamps.marks.len() as u64,
                calls.div_ceil(SEGMENT_CALLS),
                "{}: one stamp per segment",
                p.scheme
            );
            m.finish();
            assert!(same(&want, &got), "{}/{:?}: Stamps", p.scheme, p.oram_mode);
            assert_eq!(m.failed_requests(got.misses + got.writebacks), 0);

            let mut m = Machine::build(&p);
            let unprotected = p.scheme == Scheme::Unprotected;
            let mut timed = Timed::new(m.backend(), unprotected.then(|| p.mem.clone()));
            let got = core.run(&p.workload, p.instructions, &mut timed, p.seed);
            assert!(same(&want, &got), "{}/{:?}: Timed", p.scheme, p.oram_mode);
            assert_eq!(timed.reads.count(), got.misses);
            assert_eq!(timed.writes, got.writebacks);
            if let Some(replay) = timed.replay {
                assert_eq!(replay.calls, got.misses + got.writebacks);
                assert_eq!(replay.diverged, 0, "bare device agrees with the backend");
            }
        }
    }
}
