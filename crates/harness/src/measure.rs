//! The single-point measurement primitive every experiment is built from.
//!
//! A *point* is one `(workload, scheme, machine)` simulation. The Table 1
//! / Table 3 / Figure 4 / Figure 5 runners in `obfusmem-bench` and the
//! sweep harness's jobs all run through [`run_point_with`], so a number
//! produced by a batch sweep is bit-identical to the same number
//! produced by the interactive `tables` binary.

use std::cell::RefCell;
use std::rc::Rc;

use obfusmem_core::config::{ObfusMemConfig, SecurityLevel};
use obfusmem_core::system::{System, SystemConfig};
use obfusmem_core::tap::{BusTapHandle, NullBusTap};
use obfusmem_cpu::core::{MemoryBackend, RunResult, TraceDrivenCore};
use obfusmem_cpu::workload::{by_name, micro_test_workload, WorkloadSpec};
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::request::BlockAddr;
use obfusmem_obs::metrics::{MetricsNode, Observable};
use obfusmem_obs::trace::TraceHandle;
use obfusmem_oram::codesign::CodesignOram;
use obfusmem_oram::model::OramModel;
use obfusmem_oram::path_oram::{OramConfig, PathOram};

pub use obfusmem_oram::codesign::OramMode;
use obfusmem_sec::observatory::{
    synthetic_oram_event, AttackConfig, LeakageObservatory, LeakageSummary,
};
use obfusmem_sim::time::Time;

/// A protection scheme column — the axis swept in Table 3 and Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection: the overhead baseline.
    Unprotected,
    /// Counter-mode memory encryption only.
    EncryptOnly,
    /// ObfusMem obfuscation without communication authentication.
    Obfusmem,
    /// ObfusMem + encrypt-and-MAC authentication (the paper's headline).
    ObfusmemAuth,
    /// The paper's fixed-latency (2500 ns) Path ORAM performance model.
    OramModel,
}

impl Scheme {
    /// Every scheme, in canonical sweep order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Unprotected,
        Scheme::EncryptOnly,
        Scheme::Obfusmem,
        Scheme::ObfusmemAuth,
        Scheme::OramModel,
    ];

    /// The Table 3 grid plus the baseline the overheads are against.
    pub const TABLE3: [Scheme; 4] = [
        Scheme::Unprotected,
        Scheme::Obfusmem,
        Scheme::ObfusmemAuth,
        Scheme::OramModel,
    ];

    /// Stable CLI / JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Unprotected => "unprotected",
            Scheme::EncryptOnly => "encrypt-only",
            Scheme::Obfusmem => "obfusmem",
            Scheme::ObfusmemAuth => "obfusmem-auth",
            Scheme::OramModel => "oram",
        }
    }

    /// Parses a CLI / spec-file name.
    pub fn parse(s: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|scheme| scheme.name() == s)
    }

    /// The security level a `System`-backed scheme runs at; `None` for
    /// the ORAM model (which replaces the whole memory path).
    pub fn security(self) -> Option<SecurityLevel> {
        match self {
            Scheme::Unprotected => Some(SecurityLevel::Unprotected),
            Scheme::EncryptOnly => Some(SecurityLevel::EncryptOnly),
            Scheme::Obfusmem => Some(SecurityLevel::Obfuscate),
            Scheme::ObfusmemAuth => Some(SecurityLevel::ObfuscateAuth),
            Scheme::OramModel => None,
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one simulation point needs.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Workload to drive the core with.
    pub workload: WorkloadSpec,
    /// Protection scheme.
    pub scheme: Scheme,
    /// Full ObfusMem design point (`security` is overridden by `scheme`).
    pub obfus: ObfusMemConfig,
    /// Memory geometry/timing.
    pub mem: MemConfig,
    /// Instruction budget.
    pub instructions: u64,
    /// Workload-stream seed.
    pub seed: u64,
    /// Backend seed. `None` keeps [`System::new`]'s fixed default so
    /// numbers match the historical `tables` output; sweeps that want the
    /// backend's dummy scheduling to vary per job set it explicitly.
    pub backend_seed: Option<u64>,
    /// How the ORAM scheme's memory path is modelled. Only consulted when
    /// `scheme == Scheme::OramModel`; the default ([`OramMode::Fixed`])
    /// keeps the historical fixed-2500 ns model so legacy rows are
    /// byte-identical.
    pub oram_mode: OramMode,
}

impl PointSpec {
    /// A point on the paper's Table 2 machine with default knobs.
    pub fn paper(workload: WorkloadSpec, scheme: Scheme, instructions: u64, seed: u64) -> Self {
        PointSpec {
            workload,
            scheme,
            obfus: ObfusMemConfig::paper_default(),
            mem: MemConfig::table2(),
            instructions,
            seed,
            backend_seed: None,
            oram_mode: OramMode::Fixed,
        }
    }
}

/// The geometry the `serial` / `codesign` ORAM modes simulate: L = 12,
/// Z = 4, 4096 logical blocks — small enough for sweep-scale runs, large
/// enough that the position map needs an off-chip recursion level.
fn detailed_oram_geometry() -> OramConfig {
    OramConfig {
        levels: 12,
        bucket_size: 4,
        blocks: 4096,
    }
}

/// Seed for the detailed/codesign functional ORAM: derived from the
/// point's seeds so replicates get independent trees while identical
/// specs stay bit-identical.
fn oram_backend_seed(p: &PointSpec) -> u64 {
    p.seed ^ p.backend_seed.unwrap_or(0).rotate_left(23)
}

/// Resolves a workload name: any Table 1 benchmark, or `micro` (the fast
/// synthetic workload tests and smoke sweeps use).
pub fn workload_by_name(name: &str) -> Option<WorkloadSpec> {
    if name == "micro" {
        return Some(micro_test_workload());
    }
    by_name(name)
}

/// Runs one simulation point. Pure: identical specs produce identical
/// results regardless of thread, process, or ordering.
pub fn run_point(p: &PointSpec) -> RunResult {
    run_point_with(p, &TraceHandle::disabled(), BusObserver::None).0
}

/// [`run_point`] with an inert bus tap attached ([`BusObserver::NullTap`]).
/// Results are bit-identical to [`run_point`]; the benchmark's timers
/// pass uses the wall-clock delta (`host.sec.null_tap_overhead_pct`) to
/// price the streaming tap machinery the leakage observatory rides on.
pub fn run_point_nulltap(p: &PointSpec) -> RunResult {
    run_point_with(p, &TraceHandle::disabled(), BusObserver::NullTap).0
}

/// [`run_point`] with spans going to `obs` and the whole stack's counters
/// returned; see [`run_point_with`]. Recording is passive, so the
/// [`RunResult`] is bit-identical to [`run_point`]'s.
pub fn run_point_observed(p: &PointSpec, obs: &TraceHandle) -> (RunResult, MetricsNode) {
    run_point_with(p, obs, BusObserver::None)
}

/// One attacker setting on the leakage axis: analysis window (real
/// accesses per Membuster recovery window) and cache-squeeze factor
/// (multiplies the workload's LLC miss rate, the statistical equivalent
/// of shrinking the enclave's usable cache to force traffic onto the
/// bus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakagePoint {
    /// Real accesses per analysis window.
    pub window: usize,
    /// Miss-rate amplification factor (1.0 = no squeezing).
    pub squeeze: f64,
}

impl LeakagePoint {
    /// The full attack configuration for this point. `seed` drives the
    /// estimator's deterministic shuffle-null baseline.
    pub fn attack_config(&self, seed: u64) -> AttackConfig {
        AttackConfig {
            window: self.window,
            squeeze: self.squeeze,
            seed,
        }
    }
}

/// What watches the memory bus while a point runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BusObserver {
    /// No bus tap.
    None,
    /// A [`NullBusTap`]: every bus event is built and delivered, then
    /// discarded. The ORAM model has no bus, so it runs untapped.
    NullTap,
    /// The Membuster attacker at this window and squeeze: bus events
    /// stream into a [`LeakageObservatory`] and its summary lands in the
    /// metrics under `leakage.*`. The ORAM scheme is attacked on the
    /// fixed 2500 ns model whatever its mode: each access is replayed
    /// through a functional [`PathOram`] whose touched leaf is what the
    /// attacker sees. Cache squeezing scales the workload's miss rate
    /// before the run, so the timing result is *not* comparable to an
    /// un-attacked point unless `squeeze == 1.0`.
    Attacker(LeakagePoint),
}

/// Runs one simulation point with `bus` watching: builds the machine,
/// attaches the observers, runs it, and snapshots its metrics. Spans go
/// to `obs` and the returned [`MetricsNode`] holds the whole stack's
/// counters: `core.*`, `engine.*`, `crypto.*`, `mem.ch<N>.bank<M>.*` and
/// `link.ch<N>.*` (or `oram.*` for the ORAM scheme), plus `leakage.*`
/// under an attacker. The `link` subtree exists exactly when the
/// fault-injecting link was engaged; fault-grid sweeps read their
/// recovery counters from it.
pub fn run_point_with(
    p: &PointSpec,
    obs: &TraceHandle,
    bus: BusObserver,
) -> (RunResult, MetricsNode) {
    let mut workload = p.workload.clone();
    let attack_seed = p.seed ^ p.backend_seed.unwrap_or(0).rotate_left(17);
    let (tap, attacker) = match bus {
        BusObserver::None => (BusTapHandle::disabled(), None),
        BusObserver::NullTap => (
            BusTapHandle::attached(Rc::new(RefCell::new(NullBusTap))),
            None,
        ),
        BusObserver::Attacker(leak) => {
            if leak.squeeze != 1.0 {
                workload.llc_mpki *= leak.squeeze;
                workload.validate();
            }
            let observatory =
                LeakageObservatory::shared(leak.attack_config(attack_seed), obs.clone());
            (
                BusTapHandle::attached(observatory.clone()),
                Some(observatory),
            )
        }
    };
    let mut metrics = MetricsNode::new();
    let result = match p.scheme.security() {
        Some(security) => {
            let mut system = build_system(p, security);
            system.backend_mut().set_bus_tap(tap);
            system.run_observed(&workload, p.instructions, p.seed, obs, &mut metrics)
        }
        None => {
            let core = TraceDrivenCore::new();
            let run = |backend: &mut dyn MemoryBackend, metrics: &mut MetricsNode| {
                core.run_observed(&workload, p.instructions, backend, p.seed, obs, metrics)
            };
            // The fixed model serves the fixed mode and, in every mode,
            // the attacker (`SweepSpec::validate` rejects detailed-mode
            // leakage grids).
            let mut model = OramModel::paper();
            model.set_trace_handle(obs.clone());
            match (&attacker, p.oram_mode) {
                (Some(observatory), _) => {
                    let mut tapped = TappedOramModel {
                        model,
                        oram: replay_oram(attack_seed)
                            .expect("replay geometry is statically valid"),
                        observatory: observatory.clone(),
                    };
                    let result = run(&mut tapped, &mut metrics);
                    tapped.model.observe(metrics.child("oram"));
                    result
                }
                (None, OramMode::Fixed) => {
                    let result = run(&mut model, &mut metrics);
                    model.observe(metrics.child("oram"));
                    result
                }
                (None, mode) => {
                    let (geometry, mem, seed) = (
                        detailed_oram_geometry(),
                        p.mem.clone(),
                        oram_backend_seed(p),
                    );
                    let mut oram = if mode == OramMode::Serial {
                        CodesignOram::serial(geometry, mem, seed, true)
                    } else {
                        CodesignOram::new(geometry, mem, seed)
                    }
                    .expect("static detailed-mode geometry is valid");
                    let result = run(&mut oram, &mut metrics);
                    oram.drain_posted();
                    let node = metrics.child("oram");
                    oram.oram().observe(node);
                    node.set_gauge("mean_access_ns", oram.mean_access_ns());
                    result
                }
            }
        }
    };
    if let Some(observatory) = attacker {
        observatory
            .borrow_mut()
            .finish()
            .publish(metrics.child("leakage"));
    }
    (result, metrics)
}

/// Replay geometry for the ORAM attack lane: a functional Path ORAM
/// that the miss stream is replayed through so the attacker observes a
/// genuine leaf sequence. Kept small (L=14, ~65k blocks) — the paper's
/// L=24 tree would allocate gigabytes for no extra statistical power;
/// program addresses alias onto the logical block space by modulo.
fn replay_oram(seed: u64) -> Result<PathOram, obfusmem_oram::OramError> {
    let levels = 14;
    let bucket_size = 4;
    let physical = ((1u64 << (levels + 1)) - 1) * bucket_size as u64;
    PathOram::new(
        OramConfig {
            levels,
            bucket_size,
            blocks: physical / 2,
        },
        seed,
    )
}

/// The fixed ORAM timing model with a leakage tap riding alongside:
/// timing and metrics come from the [`OramModel`] as if untapped; each
/// access is also replayed through a functional [`PathOram`] whose
/// touched leaf becomes the attacker's observable.
struct TappedOramModel {
    model: OramModel,
    oram: PathOram,
    observatory: Rc<RefCell<LeakageObservatory>>,
}

impl MemoryBackend for TappedOramModel {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        self.tap_access(at, addr);
        self.model.read(at, addr)
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        self.tap_access(at, addr);
        self.model.write(at, addr)
    }

    fn label(&self) -> String {
        self.model.label()
    }
}

impl TappedOramModel {
    fn tap_access(&mut self, at: Time, addr: BlockAddr) {
        let id = (addr.as_u64() / 64) % self.oram.config().blocks;
        // A write also walks (and re-randomizes) a full path, so the
        // leaf observable is identical for both kinds.
        if let Ok((_, leaf)) = self.oram.read_traced(id) {
            self.observatory
                .borrow_mut()
                .observe(&synthetic_oram_event(at, leaf, addr.as_u64()));
        }
    }
}

/// Reads a published `leakage.*` subtree back into a summary (sweep
/// gating and renderers consume JSONL/metrics, not live observatories).
pub fn leakage_summary_from_metrics(metrics: &MetricsNode) -> Option<LeakageSummary> {
    let node = metrics.get_child("leakage")?;
    Some(LeakageSummary {
        windows: node.counter("windows").unwrap_or(0),
        packets: node.counter("packets").unwrap_or(0),
        real_accesses: node.counter("real_accesses").unwrap_or(0),
        dummy_packets: node.counter("dummy_packets").unwrap_or(0),
        addr_bits_per_access: node.gauge("addr_bits_per_access").unwrap_or(0.0),
        kind_bits_per_access: node.gauge("kind_bits_per_access").unwrap_or(0.0),
        data_bits_per_access: node.gauge("data_bits_per_access").unwrap_or(0.0),
        crit_recovery: node.gauge("crit_recovery").unwrap_or(0.0),
        squeeze: node.gauge("squeeze").unwrap_or(1.0),
        window: node.counter("window").unwrap_or(0),
    })
}

fn build_system(p: &PointSpec, security: SecurityLevel) -> System {
    let cfg = SystemConfig {
        security,
        obfus: p.obfus,
        mem: p.mem.clone(),
    };
    match p.backend_seed {
        None => System::new(cfg),
        Some(seed) => System::with_seed(cfg, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_round_trip() {
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.name()), Some(scheme));
        }
        assert_eq!(Scheme::parse("nonsense"), None);
    }

    #[test]
    fn run_point_is_pure() {
        let p = PointSpec::paper(micro_test_workload(), Scheme::ObfusmemAuth, 20_000, 9);
        let a = run_point(&p);
        let b = run_point(&p);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.misses, b.misses);
    }

    #[test]
    fn oram_model_point_is_slower_than_unprotected() {
        let mk = |scheme| run_point(&PointSpec::paper(micro_test_workload(), scheme, 50_000, 3));
        let base = mk(Scheme::Unprotected);
        let oram = mk(Scheme::OramModel);
        assert!(oram.exec_time > base.exec_time);
    }

    #[test]
    fn observed_point_matches_plain_point() {
        let p = PointSpec::paper(micro_test_workload(), Scheme::ObfusmemAuth, 20_000, 9);
        let plain = run_point(&p);
        let obs = TraceHandle::recording();
        let (observed, metrics) = run_point_observed(&p, &obs);
        assert_eq!(plain.exec_time, observed.exec_time);
        assert_eq!(metrics.counter("core.misses"), Some(plain.misses));
        assert!(metrics.get_child("link").is_none(), "fault-free: no link");
        assert!(!obs.finish().is_empty());
    }

    #[test]
    fn oram_modes_are_pure_and_codesign_is_faster() {
        let mk = |mode| {
            let mut p = PointSpec::paper(micro_test_workload(), Scheme::OramModel, 30_000, 7);
            p.oram_mode = mode;
            (run_point(&p), run_point(&p))
        };
        let (serial_a, serial_b) = mk(OramMode::Serial);
        assert_eq!(serial_a.exec_time, serial_b.exec_time, "serial purity");
        let (codesign_a, codesign_b) = mk(OramMode::Codesign);
        assert_eq!(
            codesign_a.exec_time, codesign_b.exec_time,
            "codesign purity"
        );
        assert_eq!(serial_a.misses, codesign_a.misses, "same workload stream");
        assert!(
            codesign_a.exec_time < serial_a.exec_time,
            "co-design must beat the serialized port: {:?} vs {:?}",
            codesign_a.exec_time,
            serial_a.exec_time
        );
    }

    #[test]
    fn detailed_oram_modes_report_oram_subtree() {
        for mode in [OramMode::Serial, OramMode::Codesign] {
            let mut p = PointSpec::paper(micro_test_workload(), Scheme::OramModel, 20_000, 9);
            p.oram_mode = mode;
            let (result, metrics) = run_point_observed(&p, &TraceHandle::disabled());
            assert!(metrics.counter("oram.accesses").unwrap_or(0) > 0);
            assert!(metrics.counter("oram.blocks_read").unwrap_or(0) > 0);
            assert!(metrics.gauge("oram.mean_access_ns").unwrap_or(0.0) > 0.0);
            assert_eq!(metrics.counter("core.misses"), Some(result.misses));
        }
    }

    #[test]
    fn oram_point_reports_oram_subtree() {
        let p = PointSpec::paper(micro_test_workload(), Scheme::OramModel, 20_000, 9);
        let (result, metrics) = run_point_observed(&p, &TraceHandle::disabled());
        assert!(metrics.counter("oram.accesses").unwrap_or(0) > 0);
        assert!(metrics.counter("oram.blocks_read").unwrap_or(0) > 0);
        assert_eq!(metrics.counter("core.misses"), Some(result.misses));
    }

    #[test]
    fn attacker_separates_schemes() {
        let leak = LeakagePoint {
            window: 128,
            squeeze: 1.0,
        };
        let bits = |scheme| {
            let p = PointSpec::paper(micro_test_workload(), scheme, 60_000, 5);
            let (_, metrics) =
                run_point_with(&p, &TraceHandle::disabled(), BusObserver::Attacker(leak));
            leakage_summary_from_metrics(&metrics).expect("leakage subtree published")
        };
        let plain = bits(Scheme::Unprotected);
        let enc = bits(Scheme::EncryptOnly);
        let obf = bits(Scheme::Obfusmem);
        let auth = bits(Scheme::ObfusmemAuth);
        let oram = bits(Scheme::OramModel);
        assert!(
            plain.bits_per_access() > 2.0 * enc.bits_per_access(),
            "plain must dwarf encrypt-only: {} vs {}",
            plain.bits_per_access(),
            enc.bits_per_access()
        );
        assert!(
            enc.bits_per_access() > 1.0,
            "encrypt-only still leaks the address trace: {}",
            enc.bits_per_access()
        );
        for (name, s) in [("obfusmem", obf), ("obfusmem-auth", auth), ("oram", oram)] {
            assert!(
                s.bits_per_access() < 0.5,
                "{name} must stay ≈0: {}",
                s.bits_per_access()
            );
            assert_eq!(s.crit_recovery, 0.0, "{name} whitelist recovery");
        }
        assert_eq!(plain.crit_recovery, 1.0);
        assert_eq!(enc.crit_recovery, 1.0);
        assert!(obf.dummy_packets > 0, "pairing emits dummies");
    }

    #[test]
    fn attack_is_passive_in_simulated_time() {
        // The tap changes what is *constructed*, never what is *timed*:
        // an attacked run must report the same timing as a plain run.
        for scheme in [Scheme::EncryptOnly, Scheme::ObfusmemAuth] {
            let p = PointSpec::paper(micro_test_workload(), scheme, 40_000, 11);
            let plain = run_point(&p);
            let leak = LeakagePoint {
                window: 128,
                squeeze: 1.0,
            };
            let (attacked, _) =
                run_point_with(&p, &TraceHandle::disabled(), BusObserver::Attacker(leak));
            assert_eq!(plain.exec_time, attacked.exec_time, "{scheme}");
            assert_eq!(plain.misses, attacked.misses, "{scheme}");
        }
    }

    #[test]
    fn cache_squeeze_amplifies_observed_traffic() {
        let p = PointSpec::paper(micro_test_workload(), Scheme::EncryptOnly, 40_000, 11);
        let mk = |squeeze| {
            let leak = LeakagePoint {
                window: 128,
                squeeze,
            };
            let (_, metrics) =
                run_point_with(&p, &TraceHandle::disabled(), BusObserver::Attacker(leak));
            leakage_summary_from_metrics(&metrics).expect("leakage subtree")
        };
        let base = mk(1.0);
        let squeezed = mk(4.0);
        assert!(
            squeezed.real_accesses > 3 * base.real_accesses,
            "squeeze must multiply bus traffic: {} vs {}",
            squeezed.real_accesses,
            base.real_accesses
        );
        assert_eq!(squeezed.squeeze, 4.0);
    }

    #[test]
    fn micro_workload_resolves() {
        assert!(workload_by_name("micro").is_some());
        assert!(workload_by_name("mcf").is_some());
        assert!(workload_by_name("not-a-workload").is_none());
    }
}
