//! The multi-tenant session fabric: a long-running serving loop.
//!
//! Topology: one [`ProcessorEngine`] holds one session *lane per tenant*
//! (lane index == tenant id), each keyed by that tenant's own DH handshake
//! and parked on its own slice of the 64-bit CTR counter space
//! ([`CtrSpacePartition`]), so no two tenants — and no two epochs of one
//! tenant, which re-keys between epochs — ever reuse a `(key, counter)`
//! pair. Tenants are steered round-robin onto memory channels; each
//! channel's [`MemoryEngine`] holds the lanes of the tenants parked there,
//! and a shared [`ShardedFrFcfs`] arbitrates the channels' banks with the
//! tenants' QoS classes.
//!
//! The serving loop is closed-loop: every tenant is a client with one
//! outstanding request, and the fabric always advances the tenant with
//! the earliest pending issue time, so contention emerges from the shared
//! schedulers' busy windows rather than from any explicit interleaving
//! policy. Each request takes the *full* obfuscation round trip on its
//! tenant's lane — pair encryption, memory-side decryption + MAC
//! verification, reply encryption and processor-side verification — so a
//! cross-tenant key or counter mix-up anywhere surfaces as an
//! authentication failure, which the fabric counts and CI gates at zero.
//!
//! Re-keying follows two schedules: a per-tenant churn period (every N
//! served requests the tenant rolls to its next epoch) and global *churn
//! storms* (every M fabric-wide completions a deterministic stride-batch
//! of tenants re-keys at once, modelling coordinated key rotation). Both
//! derive the new counter base from the tenant's partition slice, and both
//! are functions of served-request counts only — never of wall clock or
//! interleaving — so a fabric run is reproducible bit-for-bit from its
//! seed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

use obfusmem_core::busmsg::RequestHeader;
use obfusmem_core::config::ObfusMemConfig;
use obfusmem_core::engine::ProcessorEngine;
use obfusmem_core::memside::MemoryEngine;
use obfusmem_core::recovery::{
    IntegrityFault, RecoveryArray, RecoveryConfig, RecoveryController, RecoveryError, RecoveryStats,
};
use obfusmem_core::session::{ChannelSession, SessionKeyTable};
use obfusmem_core::window::{random_block, Delivery};
use obfusmem_core::ObfusMemError;
use obfusmem_cpu::stream::{MissEvent, MissStream};
use obfusmem_cpu::workload::{micro_test_workload, WorkloadSpec};
use obfusmem_crypto::ctr::CtrSpacePartition;
use obfusmem_crypto::dh::{DhGroup, DhKeyPair};
use obfusmem_crypto::CryptoError;
use obfusmem_mem::addr::{decode, encode};
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan, DeviceFaultState};
use obfusmem_mem::request::{AccessKind, BlockAddr, BlockData};
use obfusmem_mem::scheduler::ShardedFrFcfs;
use obfusmem_obs::MetricsNode;
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::stats::{Histogram, RunningStats};
use obfusmem_sim::time::{Duration, Time};

use crate::qos::TenantClass;

/// Which DH group tenant handshakes run in.
///
/// A serving fabric establishes one handshake *per tenant*; at thousands
/// of tenants the RFC 3526 group's 1536-bit modular exponentiations
/// dominate setup time, so the toy group (2^61 − 1) is the serving
/// default and the full group remains available for fidelity runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhStrength {
    /// Mersenne-prime toy group (fast; default for serving scale).
    Toy,
    /// RFC 3526 group 5, 1536-bit (the paper-fidelity handshake).
    Full,
}

impl DhStrength {
    /// Builds the group this strength names.
    pub fn group(self) -> DhGroup {
        match self {
            DhStrength::Toy => DhGroup::toy(),
            DhStrength::Full => DhGroup::rfc3526_group5(),
        }
    }

    /// Stable label (CLI flags, JSONL fields).
    pub fn name(self) -> &'static str {
        match self {
            DhStrength::Toy => "toy",
            DhStrength::Full => "full",
        }
    }

    /// Parses a label produced by [`DhStrength::name`].
    pub fn parse(s: &str) -> Option<DhStrength> {
        match s {
            "toy" => Some(DhStrength::Toy),
            "full" => Some(DhStrength::Full),
            _ => None,
        }
    }
}

/// Errors raised while building or driving a fabric.
#[derive(Debug)]
pub enum FabricError {
    /// The configuration is unusable as specified.
    Config(String),
    /// A cryptographic building block rejected its input.
    Crypto(CryptoError),
    /// The obfuscation protocol layer failed structurally (bad lane
    /// index, malformed engine state) — distinct from per-request
    /// authentication failures, which are *counted*, not raised.
    Protocol(ObfusMemError),
    /// The two ends of a tenant's DH handshake derived different keys.
    HandshakeMismatch {
        /// The tenant whose handshake disagreed.
        tenant: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Config(msg) => write!(f, "fabric config: {msg}"),
            FabricError::Crypto(e) => write!(f, "fabric crypto: {e}"),
            FabricError::Protocol(e) => write!(f, "fabric protocol: {e}"),
            FabricError::HandshakeMismatch { tenant } => {
                write!(f, "tenant {tenant}: handshake ends derived different keys")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<CryptoError> for FabricError {
    fn from(e: CryptoError) -> Self {
        FabricError::Crypto(e)
    }
}

impl From<ObfusMemError> for FabricError {
    fn from(e: ObfusMemError) -> Self {
        FabricError::Protocol(e)
    }
}

/// Configuration of a fabric run. Everything is derived from `seed`, so
/// two fabrics built from equal configs behave identically.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of concurrent tenant sessions.
    pub tenants: usize,
    /// Fill requests each tenant issues before retiring.
    pub requests_per_tenant: u64,
    /// Memory channels (power of two; tenants steer round-robin).
    pub channels: usize,
    /// Per-tenant re-key period in served requests (0 = never).
    pub churn_period: u64,
    /// Global churn-storm period in fabric-wide completions (0 = never).
    /// Storm *k* re-keys the tenants `t` with
    /// `t % STORM_STRIDE == k % STORM_STRIDE`.
    pub storm_period: u64,
    /// Handshake group strength.
    pub dh: DhStrength,
    /// Master seed for handshakes, streams, and engines.
    pub seed: u64,
    /// Workloads assigned round-robin (tenant `t` runs
    /// `workloads[t % len]`).
    pub workloads: Vec<WorkloadSpec>,
    /// Device-fault overlay for the shared array. Inactive (the
    /// default) leaves the serving path byte-identical to pre-chaos
    /// builds; active plans degrade to latency only — never corruption,
    /// never cross-tenant leakage.
    pub device_faults: DeviceFaultPlan,
    /// Recovery-ladder costs and bounds (used only when the overlay is
    /// active).
    pub recovery: RecoveryConfig,
}

impl FabricConfig {
    /// A small deterministic default: `tenants` closed-loop clients of
    /// the micro test workload on one channel, no churn.
    pub fn new(tenants: usize) -> Self {
        FabricConfig {
            tenants,
            requests_per_tenant: 64,
            channels: 1,
            churn_period: 0,
            storm_period: 0,
            dh: DhStrength::Toy,
            seed: 0x0BF5_FAB0,
            workloads: vec![micro_test_workload()],
            device_faults: DeviceFaultPlan::default(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// The workload tenant `t` runs.
    pub fn workload_for(&self, tenant: usize) -> &WorkloadSpec {
        &self.workloads[tenant % self.workloads.len()]
    }

    /// The QoS class tenant `t` gets (deterministic tier cycling).
    pub fn class_for(&self, tenant: usize) -> TenantClass {
        TenantClass::for_tenant(tenant)
    }

    /// The channel tenant `t` steers to.
    pub fn channel_for(&self, tenant: usize) -> usize {
        tenant % self.channels
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Config`] on structurally unusable values.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.tenants == 0 {
            return Err(FabricError::Config("at least one tenant".into()));
        }
        if self.requests_per_tenant == 0 {
            return Err(FabricError::Config(
                "at least one request per tenant".into(),
            ));
        }
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return Err(FabricError::Config(format!(
                "channels must be a power of two, got {}",
                self.channels
            )));
        }
        if self.workloads.is_empty() {
            return Err(FabricError::Config("at least one workload".into()));
        }
        Ok(())
    }
}

/// Churn storms re-key every `STORM_STRIDE`-th tenant, a different
/// residue each storm.
const STORM_STRIDE: usize = 4;

// Domain-separation salts: each consumer of the master seed derives its
// stream from `(seed ^ salt, label)` through a fresh generator, so
// derived material depends only on those two values — never on how many
// other tenants exist or the order anything was built in.
const SALT_HANDSHAKE: u64 = 0x7E4A_17F0_5E55_10B1;
const SALT_STREAM: u64 = 0x7E4A_17F0_5E55_10B2;
const SALT_DATA: u64 = 0x7E4A_17F0_5E55_10B3;
const SALT_ENGINE: u64 = 0x7E4A_17F0_5E55_10B4;
const SALT_PROBE: u64 = 0x7E4A_17F0_5E55_10B5;

fn derived_seed(seed: u64, salt: u64, label: u64) -> u64 {
    SplitMix64::new(seed ^ salt).split(label).next_u64()
}

/// Seed of the fabric's processor-side engine.
pub fn proc_engine_seed(cfg: &FabricConfig) -> u64 {
    derived_seed(cfg.seed, SALT_ENGINE, u64::MAX)
}

/// Seed of tenant `t`'s miss stream.
pub fn tenant_stream_seed(cfg: &FabricConfig, tenant: usize) -> u64 {
    derived_seed(cfg.seed, SALT_STREAM, tenant as u64)
}

/// Seed of tenant `t`'s synthetic-data generator.
pub fn tenant_data_seed(cfg: &FabricConfig, tenant: usize) -> u64 {
    derived_seed(cfg.seed, SALT_DATA, tenant as u64)
}

/// Tenant `t`'s epoch-0 counter base inside its partition slice.
///
/// # Errors
///
/// Returns [`FabricError::Crypto`] when `t` exceeds the partition.
pub fn tenant_nonce(cfg: &FabricConfig, tenant: usize) -> Result<u64, FabricError> {
    let partition = CtrSpacePartition::for_lanes(cfg.tenants as u64)?;
    Ok(partition.nonce_for(tenant as u64, 0)?)
}

/// Runs tenant `t`'s DH handshake (both ends, as the bootstrap would) and
/// returns the shared session key. Deterministic in `(cfg.seed, tenant)`.
///
/// # Errors
///
/// * [`FabricError::Crypto`] when a peer value is rejected.
/// * [`FabricError::HandshakeMismatch`] when the ends disagree (never for
///   honest ends; kept as a hard check rather than an assumption).
pub fn tenant_handshake(cfg: &FabricConfig, tenant: usize) -> Result<[u8; 16], FabricError> {
    let mut master = SplitMix64::new(cfg.seed ^ SALT_HANDSHAKE);
    let mut rng = master.split(tenant as u64);
    let host = DhKeyPair::generate_in(cfg.dh.group(), || rng.next_u64());
    let device = DhKeyPair::generate_in(cfg.dh.group(), || rng.next_u64());
    // The host sees the device's public value as wire bytes; the device
    // validates the host's in-memory value. Both derivations must agree.
    let host_key = host.session_key_from_bytes(&device.public().to_bytes_be())?;
    let device_key = device.session_key(host.public())?;
    if host_key != device_key {
        return Err(FabricError::HandshakeMismatch { tenant });
    }
    Ok(host_key)
}

/// Rewrites `addr`'s channel bits so it decodes to `channel` (tenant
/// steering). With one channel this is the identity, which keeps the
/// 1-tenant fabric byte-compatible with the legacy path.
pub fn steer_to_channel(cfg: &MemConfig, addr: u64, channel: usize) -> u64 {
    if cfg.channels == 1 {
        return addr;
    }
    let mut d = decode(cfg, addr);
    d.channel = channel;
    encode(cfg, &d)
}

/// Per-tenant serving state.
#[derive(Debug)]
struct TenantState {
    class: TenantClass,
    channel: usize,
    /// Lane index inside the channel's memory engine.
    mem_lane: usize,
    stream: MissStream,
    /// Private generator for this tenant's synthetic block contents, so
    /// one tenant's data draws never perturb another's.
    data_rng: SplitMix64,
    epoch: u64,
    remaining: u64,
    now: Time,
    pending: Option<MissEvent>,
    served: u64,
    rekeys: u64,
    latency_ns: Histogram,
    latency_stats: RunningStats,
    /// Per-request latencies (ps) in issue order — the byte-identity
    /// artifact the determinism and legacy-equivalence gates compare.
    trace_ps: Vec<u64>,
}

/// Per-tenant roll-up for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: usize,
    /// QoS class.
    pub class: TenantClass,
    /// Channel the tenant steers to.
    pub channel: usize,
    /// Fill requests served.
    pub served: u64,
    /// Re-key epochs rolled.
    pub rekeys: u64,
    /// Median fill latency (ns, bucket upper edge).
    pub p50_ns: u64,
    /// 99th-percentile fill latency (ns, bucket upper edge).
    pub p99_ns: u64,
    /// Mean fill latency (ns).
    pub mean_ns: f64,
}

/// End-of-run roll-up of a fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// Per-tenant summaries, in tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Total fill requests served.
    pub total_served: u64,
    /// Requests whose round trip failed authentication (0 in any honest
    /// run; CI gates on it).
    pub auth_failures: u64,
    /// Re-key operations across all tenants.
    pub rekeys: u64,
    /// Churn storms triggered.
    pub storms: u64,
    /// Write-backs posted to the controllers.
    pub writebacks: u64,
    /// Low-class requests promoted by starvation aging.
    pub starvation_promotions: u64,
    /// Simulated end of the run.
    pub span: Time,
    /// Fill requests served per class (priority order).
    pub class_served: [u64; 3],
    /// Per-class p99 fill latency (ns; 0 when the class is empty).
    pub class_p99_ns: [u64; 3],
}

/// Device-fault overlay for the fabric's shared array: the recovery
/// ladder the backend also walks ([`RecoveryController::recover`]), over
/// a modelled array at serving granularity. The fabric's store is
/// synthetic (reply blocks are drawn from per-tenant streams), so the
/// overlay models the *detection and repair cost* of array faults —
/// every fault degrades to extra latency on the affected request only.
/// Reply bytes always come from the corrected readout, so tenants never
/// observe corruption and `auth_failures` stays untouched by device
/// chaos.
#[derive(Debug)]
struct FabricChaos {
    array: ProbedArray,
    rc: RecoveryController,
}

/// The fabric's shared array as the recovery ladder sees it: every
/// readout is a probe of the fault overlay.
#[derive(Debug)]
struct ProbedArray {
    cfg: MemConfig,
    faults: DeviceFaultState,
    /// Blocks served at least once, per flat bank — the migration cohort
    /// when that bank is quarantined.
    touched: BTreeMap<u64, BTreeSet<u64>>,
}

impl ProbedArray {
    fn flat_bank(&self, phys: u64) -> u64 {
        decode(&self.cfg, phys).flat_bank(&self.cfg) as u64
    }

    /// One modeled array readout of `phys`: the fault the device overlay
    /// injected, if any (each probe advances the transient draw
    /// sequence).
    ///
    /// The scratch pattern is location-keyed and non-degenerate: an
    /// all-zero scratch would hide every stuck-at-*low* cell (the
    /// stored bit already matches the frozen value), halving stuck-cell
    /// detection relative to the backend ladder and making fabric chaos
    /// stats incomparable with single-tenant runs. Keying the pattern
    /// by slot keeps each stuck cell's outcome persistent per location,
    /// exactly like real stored bytes.
    fn probe(&mut self, phys: u64) -> Option<DeviceFaultKind> {
        let mut scratch: BlockData = [0u8; 64];
        let mut pat = SplitMix64::new(SALT_PROBE).split(phys);
        for chunk in scratch.chunks_mut(8) {
            let v = pat.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        let d = decode(&self.cfg, phys);
        let flat_bank = d.flat_bank(&self.cfg) as u64;
        self.faults
            .corrupt(BlockAddr::containing(phys), flat_bank, d.row, &mut scratch)
    }

    /// Files `logical` under the bank that now holds it.
    fn touch(&mut self, logical: u64, phys: u64) {
        let bank = self.flat_bank(phys);
        self.touched.entry(bank).or_default().insert(logical);
    }
}

impl RecoveryArray for ProbedArray {
    fn reread(&mut self, _rc: &mut RecoveryController, _addr: u64, phys: u64) -> bool {
        self.probe(phys).is_none()
    }

    fn neighbour_flagged(&mut self, phys: u64) -> bool {
        self.probe(phys).is_some()
    }

    fn retire(&mut self, _rc: &mut RecoveryController, addr: u64, from: u64, to: u64) {
        if let Some(set) = self.touched.get_mut(&self.flat_bank(from)) {
            set.remove(&addr);
        }
        self.touch(addr, to);
    }

    fn quarantine(
        &mut self,
        rc: &mut RecoveryController,
        flat_bank: u64,
    ) -> Result<usize, RecoveryError> {
        rc.remap_mut().quarantine(flat_bank)?;
        let mut migrated = 0;
        for logical in self.touched.remove(&flat_bank).unwrap_or_default() {
            match rc.remap_mut().retarget(logical) {
                Ok(to) => {
                    migrated += 1;
                    self.touch(logical, to);
                }
                Err(_) => rc.give_up(logical),
            }
        }
        Ok(migrated)
    }
}

impl FabricChaos {
    fn new(cfg: &FabricConfig, mem_cfg: &MemConfig) -> Self {
        FabricChaos {
            array: ProbedArray {
                cfg: mem_cfg.clone(),
                faults: DeviceFaultState::new(cfg.device_faults),
                touched: BTreeMap::new(),
            },
            rc: RecoveryController::new(cfg.recovery, mem_cfg.clone()),
        }
    }

    /// Serves one array access for logical block `addr`, running the
    /// recovery ladder when the readout is corrupt. Returns the extra
    /// simulated latency charged to this request (zero on the vast
    /// majority of accesses).
    fn access(&mut self, addr: u64) -> Duration {
        // A block the ladder gave up on is served from the corrected
        // readout: climbing again could only repeat the refusal.
        if self.rc.is_degraded(addr) {
            return Duration::ZERO;
        }
        let Ok(phys) = self.rc.remap_mut().translate(addr) else {
            self.rc.give_up(addr);
            return Duration::ZERO;
        };
        self.array.touch(addr, phys);
        let Some(observed) = self.array.probe(phys) else {
            return Duration::ZERO;
        };
        let fault = IntegrityFault {
            addr,
            phys,
            flat_bank: self.array.flat_bank(phys),
            observed: Some(observed),
        };
        self.rc.recover(&mut self.array, fault)
    }

    fn observe(&self, out: &mut MetricsNode) {
        self.rc.stats.observe(out);
        let remap = self.rc.remap();
        out.set_counter(
            "quarantined_banks",
            (self.array.cfg.total_banks() - remap.healthy_banks()) as u64,
        );
        out.set_counter("remapped_blocks", remap.remapped_blocks() as u64);
        out.set_counter("faults_injected", self.array.faults.injected());
    }
}

/// The serving fabric (see the module docs for the architecture).
#[derive(Debug)]
pub struct SessionFabric {
    cfg: FabricConfig,
    mem_cfg: MemConfig,
    partition: CtrSpacePartition,
    proc: ProcessorEngine,
    /// One memory-side engine per channel.
    mems: Vec<MemoryEngine>,
    sched: ShardedFrFcfs,
    tenants: Vec<TenantState>,
    /// (issue time ps, tenant) min-heap; ties break by tenant id.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Fixed crypto-side latency added per round trip (XOR stages + MAC
    /// residual, request and reply directions).
    roundtrip_overhead: Duration,
    total_served: u64,
    auth_failures: u64,
    rekeys: u64,
    storms: u64,
    writebacks: u64,
    span: Time,
    drained: bool,
    /// Device-fault overlay; `None` whenever the plan is inactive, so
    /// clean runs build no recovery state and stay byte-identical.
    chaos: Option<FabricChaos>,
}

impl SessionFabric {
    /// Establishes every tenant's session and builds the serving fabric.
    ///
    /// # Errors
    ///
    /// * [`FabricError::Config`] on invalid configuration.
    /// * [`FabricError::Crypto`] when the counter partition cannot cover
    ///   the tenant count.
    /// * Handshake errors from [`tenant_handshake`].
    pub fn new(cfg: FabricConfig) -> Result<Self, FabricError> {
        cfg.validate()?;
        let mem_cfg = MemConfig::table2().with_channels(cfg.channels);
        let partition = CtrSpacePartition::for_lanes(cfg.tenants as u64)?;
        let obf_cfg = ObfusMemConfig::paper_default();
        let lat = obf_cfg.latencies;
        let roundtrip_overhead = (lat.xor + lat.mac_overlapped_residual).times(2);

        let mut proc = ProcessorEngine::new(
            obf_cfg,
            SessionKeyTable::new(Vec::new()),
            proc_engine_seed(&cfg),
        );
        let mut channel_sessions: Vec<Vec<ChannelSession>> =
            (0..cfg.channels).map(|_| Vec::new()).collect();
        let mut tenants = Vec::with_capacity(cfg.tenants);
        let mut queue = BinaryHeap::with_capacity(cfg.tenants);
        for t in 0..cfg.tenants {
            let key = tenant_handshake(&cfg, t)?;
            let nonce = partition.nonce_for(t as u64, 0)?;
            let lane = proc.add_lane(key, nonce);
            debug_assert_eq!(lane, t, "lane index must equal tenant id");
            let channel = cfg.channel_for(t);
            let mem_lane = channel_sessions[channel].len();
            channel_sessions[channel].push(ChannelSession::new(key, nonce));
            let mut stream =
                MissStream::new(cfg.workload_for(t).clone(), tenant_stream_seed(&cfg, t));
            let first = stream.next_event();
            let issue = Time::ZERO + first.gap;
            queue.push(Reverse((issue.as_ps(), t)));
            tenants.push(TenantState {
                class: cfg.class_for(t),
                channel,
                mem_lane,
                stream,
                data_rng: SplitMix64::new(tenant_data_seed(&cfg, t)),
                epoch: 0,
                remaining: cfg.requests_per_tenant,
                now: issue,
                pending: Some(first),
                served: 0,
                rekeys: 0,
                latency_ns: Histogram::new(),
                latency_stats: RunningStats::new(),
                trace_ps: Vec::new(),
            });
        }
        let mems = channel_sessions
            .into_iter()
            .map(|sessions| {
                // A channel with no tenants still needs lane 0 for the
                // engine invariant; give it an unused local session.
                let sessions = if sessions.is_empty() {
                    vec![ChannelSession::new([0u8; 16], 0)]
                } else {
                    sessions
                };
                MemoryEngine::with_sessions(ObfusMemConfig::paper_default(), sessions)
            })
            .collect();
        let chaos = cfg
            .device_faults
            .is_active()
            .then(|| FabricChaos::new(&cfg, &mem_cfg));
        Ok(SessionFabric {
            cfg,
            sched: ShardedFrFcfs::new(mem_cfg.clone()),
            mem_cfg,
            partition,
            proc,
            mems,
            tenants,
            queue,
            roundtrip_overhead,
            total_served: 0,
            auth_failures: 0,
            rekeys: 0,
            storms: 0,
            writebacks: 0,
            span: Time::ZERO,
            drained: false,
            chaos,
        })
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Device-fault recovery counters; `None` when the overlay is
    /// inactive (clean runs build no recovery state at all).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.chaos.as_ref().map(|c| &c.rc.stats)
    }

    /// Authentication failures observed so far.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }

    /// Churn storms triggered so far.
    pub fn storms(&self) -> u64 {
        self.storms
    }

    /// Re-key operations performed so far (all tenants).
    pub fn rekeys(&self) -> u64 {
        self.rekeys
    }

    /// Fill requests served so far (all tenants).
    pub fn total_served(&self) -> u64 {
        self.total_served
    }

    /// Tenant `t`'s per-request latency trace (ps, issue order).
    pub fn latency_trace(&self, tenant: usize) -> &[u64] {
        &self.tenants[tenant].trace_ps
    }

    /// Merged fill-latency distribution across every tenant.
    pub fn aggregate_latency(&self) -> (Histogram, RunningStats) {
        let mut hist = Histogram::new();
        let mut stats = RunningStats::new();
        for s in &self.tenants {
            hist.merge(&s.latency_ns);
            stats.merge(&s.latency_stats);
        }
        (hist, stats)
    }

    /// Serves one request from the earliest-pending tenant. Returns
    /// `false` when every tenant has retired.
    ///
    /// # Errors
    ///
    /// Structural failures only ([`FabricError::Protocol`] /
    /// [`FabricError::Crypto`]); per-request authentication failures are
    /// counted in [`SessionFabric::auth_failures`] instead.
    pub fn step(&mut self) -> Result<bool, FabricError> {
        let Some(Reverse((issue_ps, t))) = self.queue.pop() else {
            return Ok(false);
        };
        let now = Time::from_ps(issue_ps);
        let state = &mut self.tenants[t];
        let ev = state
            .pending
            .take()
            .expect("queued tenant has a pending event");
        let channel = state.channel;
        let arb = state.class.arb_class();

        // Fill read: full obfuscation round trip on this tenant's lane.
        let fill_addr = steer_to_channel(&self.mem_cfg, ev.fill.as_u64(), channel);
        // Device-fault overlay: the recovery ladder's cost lands on this
        // request alone (graceful degradation — latency, never data).
        let dev_delay = match self.chaos.as_mut() {
            Some(chaos) => chaos.access(fill_addr),
            None => Duration::ZERO,
        };
        let header = RequestHeader {
            kind: AccessKind::Read,
            addr: fill_addr,
        };
        let pair = self
            .proc
            .obfuscate(now, t, Delivery::Pair { header, data: None })?;
        let received = self.mems[channel].receive(state.mem_lane, &pair.real, pair.dummy.as_ref());
        let reply_ready = match received {
            Ok((decoded, _companion)) => {
                debug_assert_eq!(decoded.header.addr, fill_addr);
                debug_assert_eq!(decoded.base_counter, pair.base_counter);
                let (sch, id) = self.sched.enqueue(now, fill_addr, AccessKind::Read, arb);
                debug_assert_eq!(sch, channel, "steered address must land on its channel");
                self.sched.run_until_completed(sch, id);
                let mut done = now;
                let span = &mut self.span;
                self.sched.drain_completions(|c, comp| {
                    if c == sch && comp.id == id {
                        done = comp.at;
                    }
                    *span = (*span).max(comp.at);
                });
                // No wear model: adaptive-close cell writes are dropped.
                self.sched.drain_cell_writes(|_, _, _| {});
                // Reply path: the module seals this tenant's (synthetic)
                // stored block under the pair's reserved pads; the
                // processor opens it.
                let stored = random_block(&mut state.data_rng);
                let reply =
                    self.mems[channel].seal_reply(state.mem_lane, decoded.base_counter, &stored)?;
                let authed = match self.proc.open_reply(t, pair.base_counter, &reply) {
                    Ok(block) => block == stored,
                    Err(e @ ObfusMemError::NoSuchChannel { .. }) => return Err(e.into()),
                    Err(_) => false,
                };
                if !authed {
                    self.auth_failures += 1;
                }
                done + self.roundtrip_overhead + Duration::from_ps(pair.pad_stall_ps) + dev_delay
            }
            Err(_) => {
                self.auth_failures += 1;
                now
            }
        };

        let latency = reply_ready.since(now);
        state.trace_ps.push(latency.as_ps());
        state.latency_ns.record(latency.as_ns());
        state.latency_stats.record(latency.as_ns_f64());
        state.now = reply_ready;
        self.span = self.span.max(reply_ready);

        // Dirty victim: obfuscated like any real write, then posted to the
        // controller without waiting (write-backs are not on the critical
        // path, but they do contend for banks — that contention is what
        // makes the QoS classes meaningful).
        if let Some(wb) = ev.writeback {
            let wb_addr = steer_to_channel(&self.mem_cfg, wb.as_u64(), channel);
            let block = random_block(&mut state.data_rng);
            let wb_header = RequestHeader {
                kind: AccessKind::Write,
                addr: wb_addr,
            };
            let wb_pair = self.proc.obfuscate(
                state.now,
                t,
                Delivery::Pair {
                    header: wb_header,
                    data: Some(&block),
                },
            )?;
            let mem = &mut self.mems[channel];
            match mem.receive(state.mem_lane, &wb_pair.real, wb_pair.dummy.as_ref()) {
                Ok(_) => {
                    self.sched
                        .enqueue(state.now, wb_addr, AccessKind::Write, arb);
                    self.writebacks += 1;
                }
                Err(_) => self.auth_failures += 1,
            }
        }

        state.served += 1;
        state.remaining -= 1;
        self.total_served += 1;
        let served = state.served;

        // Draw the next event before any re-keying: the stream is
        // independent of session state, so the order is immaterial to the
        // trace but keeps the borrow local.
        if state.remaining > 0 {
            let next = state.stream.next_event();
            let issue = state.now + next.gap;
            state.pending = Some(next);
            self.queue.push(Reverse((issue.as_ps(), t)));
        }

        // Per-tenant churn.
        if self.cfg.churn_period > 0 && served.is_multiple_of(self.cfg.churn_period) {
            self.rekey_tenant(t)?;
        }
        // Global churn storm: a deterministic stride-batch re-keys at once.
        if self.cfg.storm_period > 0 && self.total_served.is_multiple_of(self.cfg.storm_period) {
            self.storms += 1;
            let batch = (self.storms as usize - 1) % STORM_STRIDE;
            for tt in 0..self.cfg.tenants {
                if tt % STORM_STRIDE == batch {
                    self.rekey_tenant(tt)?;
                }
            }
        }
        Ok(true)
    }

    /// Rolls tenant `t` to its next epoch on both ends: the new key is
    /// derived from the old one and the epoch's counter base, which comes
    /// from the tenant's partition slice so epochs never leave it.
    fn rekey_tenant(&mut self, t: usize) -> Result<(), FabricError> {
        let state = &mut self.tenants[t];
        state.epoch += 1;
        let nonce = self.partition.nonce_for(t as u64, state.epoch)?;
        self.proc.rekey_channel(t, nonce)?;
        self.mems[state.channel].rekey(state.mem_lane, nonce)?;
        state.rekeys += 1;
        self.rekeys += 1;
        Ok(())
    }

    /// Serves up to `max` requests; returns how many were served (0 means
    /// the fabric has retired). Lets a front end stream progress
    /// incrementally instead of blocking on the whole run.
    ///
    /// # Errors
    ///
    /// As for [`SessionFabric::step`].
    pub fn run_chunk(&mut self, max: u64) -> Result<u64, FabricError> {
        let mut n = 0;
        while n < max {
            if !self.step()? {
                break;
            }
            n += 1;
        }
        if self.queue.is_empty() {
            self.drain();
        }
        Ok(n)
    }

    /// Serves every remaining request and drains posted write-backs.
    ///
    /// # Errors
    ///
    /// As for [`SessionFabric::step`].
    pub fn run_to_completion(&mut self) -> Result<(), FabricError> {
        while self.step()? {}
        self.drain();
        Ok(())
    }

    /// Completes posted write-backs still queued after the last fill.
    fn drain(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        self.sched.run_until(Time::from_ps(u64::MAX / 2));
        let span = &mut self.span;
        self.sched
            .drain_completions(|_, comp| *span = (*span).max(comp.at));
        self.sched.drain_cell_writes(|_, _, _| {});
    }

    /// End-of-run roll-up.
    pub fn report(&self) -> FabricReport {
        let mut class_served = [0u64; 3];
        let mut class_hist = [Histogram::new(), Histogram::new(), Histogram::new()];
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, s)| {
                let idx = s.class.arb_class() as usize;
                class_served[idx] += s.served;
                class_hist[idx].merge(&s.latency_ns);
                TenantSummary {
                    tenant: t,
                    class: s.class,
                    channel: s.channel,
                    served: s.served,
                    rekeys: s.rekeys,
                    p50_ns: s.latency_ns.quantile(0.50).unwrap_or(0),
                    p99_ns: s.latency_ns.quantile(0.99).unwrap_or(0),
                    mean_ns: s.latency_stats.mean(),
                }
            })
            .collect();
        let mut class_p99_ns = [0u64; 3];
        for (p99, hist) in class_p99_ns.iter_mut().zip(class_hist.iter()) {
            *p99 = hist.quantile(0.99).unwrap_or(0);
        }
        FabricReport {
            tenants,
            total_served: self.total_served,
            auth_failures: self.auth_failures,
            rekeys: self.rekeys,
            storms: self.storms,
            writebacks: self.writebacks,
            starvation_promotions: self.sched.stats().starvation_promotions.get(),
            span: self.span,
            class_served,
            class_p99_ns,
        }
    }

    /// Publishes the fabric's observability subtree under `fabric.*`:
    /// run-level counters, per-class QoS roll-ups, and (at small tenant
    /// counts) per-tenant detail.
    pub fn observe_metrics(&self, out: &mut MetricsNode) {
        let report = self.report();
        let f = out.child("fabric");
        f.set_counter("tenants", self.cfg.tenants as u64);
        f.set_counter("channels", self.cfg.channels as u64);
        f.set_counter("served", report.total_served);
        f.set_counter("auth_failures", report.auth_failures);
        f.set_counter("rekeys", report.rekeys);
        f.set_counter("storms", report.storms);
        f.set_counter("writebacks", report.writebacks);
        f.set_counter("span_ns", report.span.as_ns());
        // The recovery subtree exists exactly when the device overlay is
        // engaged — clean runs keep their metrics snapshot unchanged.
        if let Some(chaos) = &self.chaos {
            chaos.observe(f.child("recovery"));
        }

        let sched_stats = self.sched.stats();
        let qos = f.child("qos");
        qos.set_counter(
            "starvation_promotions",
            sched_stats.starvation_promotions.get(),
        );
        qos.set_counter("serviced", sched_stats.serviced.get());
        qos.set_counter("row_hits", sched_stats.row_hits.get());
        for class in TenantClass::ALL {
            let idx = class.arb_class() as usize;
            let mut hist = Histogram::new();
            let mut stats = RunningStats::new();
            for s in self.tenants.iter().filter(|s| s.class == class) {
                hist.merge(&s.latency_ns);
                stats.merge(&s.latency_stats);
            }
            let c = qos.child(class.name());
            c.set_counter("served", report.class_served[idx]);
            c.set_histogram("latency_ns", &hist);
            c.set_stats("latency_stats_ns", &stats);
        }

        // Per-tenant detail only at inspectable scale; a thousand-tenant
        // subtree would swamp every downstream consumer.
        if self.cfg.tenants <= 64 {
            for (t, s) in self.tenants.iter().enumerate() {
                let node = f.child(&format!("tenant{t:04}"));
                node.set_counter("served", s.served);
                node.set_counter("rekeys", s.rekeys);
                node.set_counter("channel", s.channel as u64);
                node.set_histogram("latency_ns", &s.latency_ns);
                node.set_stats("latency_stats_ns", &s.latency_stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn small_cfg() -> FabricConfig {
        let mut cfg = FabricConfig::new(6);
        cfg.requests_per_tenant = 24;
        cfg.channels = 2;
        cfg.churn_period = 10;
        cfg.storm_period = 40;
        cfg
    }

    #[test]
    fn single_tenant_fabric_serves_cleanly() {
        let mut cfg = FabricConfig::new(1);
        cfg.requests_per_tenant = 32;
        let mut fabric = SessionFabric::new(cfg).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        let report = fabric.report();
        assert_eq!(report.total_served, 32);
        assert_eq!(report.auth_failures, 0);
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].served, 32);
        assert!(report.span > Time::ZERO);
        assert!(fabric.latency_trace(0).iter().all(|&ps| ps > 0));
    }

    #[test]
    fn fabric_runs_are_bit_identical_for_equal_seeds() {
        let run = || {
            let mut fabric = SessionFabric::new(small_cfg()).expect("fabric builds");
            fabric.run_to_completion().expect("run completes");
            let traces: Vec<Vec<u64>> = (0..fabric.config().tenants)
                .map(|t| fabric.latency_trace(t).to_vec())
                .collect();
            (traces, fabric.report())
        };
        let (traces_a, report_a) = run();
        let (traces_b, report_b) = run();
        assert_eq!(traces_a, traces_b, "latency traces must be bit-identical");
        assert_eq!(report_a, report_b, "reports must be identical");
        assert_eq!(report_a.auth_failures, 0);
    }

    #[test]
    fn a_different_seed_changes_the_run() {
        let mut cfg_b = small_cfg();
        cfg_b.seed ^= 0xDEAD_BEEF;
        let mut a = SessionFabric::new(small_cfg()).expect("fabric builds");
        let mut b = SessionFabric::new(cfg_b).expect("fabric builds");
        a.run_to_completion().expect("run completes");
        b.run_to_completion().expect("run completes");
        assert_ne!(a.latency_trace(0), b.latency_trace(0));
    }

    #[test]
    fn churn_and_storms_rekey_deterministically() {
        let mut fabric = SessionFabric::new(small_cfg()).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        let report = fabric.report();
        // 6 tenants × 24 requests, churn every 10 → ≥ 2 churn re-keys per
        // tenant; 144 completions / storm_period 40 → 3 storms.
        assert_eq!(report.storms, 3);
        assert!(report.rekeys >= 12, "rekeys = {}", report.rekeys);
        assert_eq!(report.auth_failures, 0, "re-keys must stay synchronized");
        // Storm batches are stride-deterministic: re-running reproduces
        // the exact same per-tenant epoch counts.
        let mut again = SessionFabric::new(small_cfg()).expect("fabric builds");
        again.run_to_completion().expect("run completes");
        let epochs_a: Vec<u64> = report.tenants.iter().map(|t| t.rekeys).collect();
        let epochs_b: Vec<u64> = again.report().tenants.iter().map(|t| t.rekeys).collect();
        assert_eq!(epochs_a, epochs_b);
    }

    /// The fabric has no wear model, so the adaptive-close cell writes
    /// its scheduler buffers are discarded where completions are drained
    /// rather than queued for the whole cell.
    #[test]
    fn adaptive_close_cell_writes_do_not_pile_up() {
        let mut fabric = SessionFabric::new(small_cfg()).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        assert!(fabric.sched.stats().adaptive_closes.get() > 0);
        let mut queued = 0;
        fabric.sched.drain_cell_writes(|_, _, _| queued += 1);
        assert_eq!(queued, 0, "cell writes left queued after the run");
    }

    #[test]
    fn all_three_classes_serve_traffic() {
        let mut fabric = SessionFabric::new(small_cfg()).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        let report = fabric.report();
        for (idx, served) in report.class_served.iter().enumerate() {
            assert!(*served > 0, "class {idx} served no traffic");
        }
    }

    #[test]
    fn metrics_subtree_has_the_fabric_counters() {
        let mut fabric = SessionFabric::new(small_cfg()).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        let mut root = MetricsNode::new();
        fabric.observe_metrics(&mut root);
        assert_eq!(root.counter("fabric.tenants"), Some(6));
        assert_eq!(root.counter("fabric.served"), Some(6 * 24));
        assert_eq!(root.counter("fabric.auth_failures"), Some(0));
        assert!(root.counter("fabric.qos.serviced").unwrap_or(0) > 0);
        assert!(root.counter("fabric.tenant0000.served").is_some());
    }

    #[test]
    fn device_faults_degrade_latency_only_and_never_auth() {
        use obfusmem_mem::fault::DeviceFaultKind;
        let mut cfg = small_cfg();
        cfg.device_faults = DeviceFaultPlan::single(DeviceFaultKind::BitFlip, 0.05, 0xC4A0);
        let mut faulty = SessionFabric::new(cfg).expect("fabric builds");
        faulty.run_to_completion().expect("run completes");
        let mut clean = SessionFabric::new(small_cfg()).expect("fabric builds");
        clean.run_to_completion().expect("run completes");

        let stats = *faulty.recovery_stats().expect("overlay engaged");
        assert!(stats.detected > 0, "5% flips over 144 fills must surface");
        assert!(stats.retried > 0, "transients clear via re-read");
        assert_eq!(stats.unrecovered, 0, "the ladder must recover");
        let fr = faulty.report();
        let cr = clean.report();
        assert_eq!(fr.auth_failures, 0, "device faults must never break auth");
        assert_eq!(fr.total_served, cr.total_served, "every request is served");
        assert!(
            fr.span >= cr.span,
            "recovery can only add latency, never remove it"
        );
    }

    #[test]
    fn dead_banks_quarantine_and_the_fabric_keeps_serving() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultState};
        let banks = MemConfig::table2().with_channels(2).total_banks() as u64;
        // Pick a seed where some but not all banks fail (fault draws are
        // pure functions of (seed, location), so this scan is exact).
        let seed = (1..200u64)
            .find(|&s| {
                let st = DeviceFaultState::new(DeviceFaultPlan::single(
                    DeviceFaultKind::BankFail,
                    0.25,
                    s,
                ));
                let failed = (0..banks).filter(|&f| st.bank_failed(f)).count() as u64;
                failed >= 1 && failed < banks
            })
            .expect("some seed under 200 fails a strict subset of banks");
        let mut cfg = small_cfg();
        cfg.device_faults = DeviceFaultPlan::single(DeviceFaultKind::BankFail, 0.25, seed);
        let mut fabric = SessionFabric::new(cfg.clone()).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        let stats = *fabric.recovery_stats().expect("overlay engaged");
        assert!(stats.detected > 0, "dead banks must surface");
        assert!(stats.quarantined > 0, "persistent failures escalate");
        assert_eq!(stats.unrecovered, 0);
        let report = fabric.report();
        assert_eq!(report.total_served, 6 * 24, "degraded, never dropped");
        assert_eq!(report.auth_failures, 0);
        // Deterministic under replay.
        let mut again = SessionFabric::new(cfg).expect("fabric builds");
        again.run_to_completion().expect("run completes");
        assert_eq!(*again.recovery_stats().expect("overlay engaged"), stats);
        assert_eq!(again.report(), report);
    }

    #[test]
    fn inactive_device_plan_builds_no_recovery_state() {
        let mut cfg = small_cfg();
        // Tweaked ladder knobs must be inert while the plan is inactive.
        cfg.recovery.max_retries = 99;
        cfg.recovery.quarantine_latency = Duration::from_ns(1_000_000);
        let mut fabric = SessionFabric::new(cfg).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        assert!(fabric.recovery_stats().is_none(), "no overlay, no state");
        let mut baseline = SessionFabric::new(small_cfg()).expect("fabric builds");
        baseline.run_to_completion().expect("run completes");
        assert_eq!(fabric.report(), baseline.report());
        let (mut a, mut b) = (MetricsNode::new(), MetricsNode::new());
        fabric.observe_metrics(&mut a);
        baseline.observe_metrics(&mut b);
        assert_eq!(a.to_json(), b.to_json(), "snapshots must be identical");
        assert!(!a.to_json().contains("\"recovery\""));
    }

    #[test]
    fn chaos_metrics_land_under_the_fabric_recovery_subtree() {
        use obfusmem_mem::fault::DeviceFaultKind;
        let mut cfg = small_cfg();
        cfg.device_faults = DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 0.10, 0x57);
        let mut fabric = SessionFabric::new(cfg).expect("fabric builds");
        fabric.run_to_completion().expect("run completes");
        let mut root = MetricsNode::new();
        fabric.observe_metrics(&mut root);
        assert!(root.counter("fabric.recovery.detected").unwrap_or(0) > 0);
        assert_eq!(root.counter("fabric.recovery.unrecovered"), Some(0));
        assert!(root.counter("fabric.recovery.faults_injected").is_some());
    }

    #[test]
    fn session_material_is_stable_and_per_tenant() {
        let cfg = small_cfg();
        let k0 = tenant_handshake(&cfg, 0).expect("handshake");
        let k0_again = tenant_handshake(&cfg, 0).expect("handshake");
        let k1 = tenant_handshake(&cfg, 1).expect("handshake");
        assert_eq!(k0, k0_again, "handshake must be deterministic");
        assert_ne!(k0, k1, "tenants must not share keys");
        let n0 = tenant_nonce(&cfg, 0).expect("nonce");
        let n1 = tenant_nonce(&cfg, 1).expect("nonce");
        assert_ne!(n0, n1, "tenants must not share counter bases");
    }

    #[test]
    fn steering_is_identity_on_one_channel_and_exact_otherwise() {
        let one = MemConfig::table2();
        assert_eq!(steer_to_channel(&one, 0xABCD_EF00, 0), 0xABCD_EF00);
        let four = MemConfig::table2().with_channels(4);
        for ch in 0..4 {
            let steered = steer_to_channel(&four, 0xABCD_EF00, ch);
            assert_eq!(decode(&four, steered).channel, ch);
        }
    }

    // Interleaved re-keys across N tenants never let one tenant's packets
    // authenticate — or even parse — on another's lane, regardless of the
    // re-key order.
    proptest::proptest! {
        #[test]
        fn interleaved_rekeys_never_cross_decrypt(order: Vec<u8>, tenants_hint: u8) {
            let tenants = 2 + (tenants_hint % 4) as usize;
            let mut cfg = FabricConfig::new(tenants);
            cfg.requests_per_tenant = 4;
            let partition = CtrSpacePartition::for_lanes(tenants as u64).expect("partition");
            let obf = ObfusMemConfig::paper_default();
            let mut proc = ProcessorEngine::new(obf, SessionKeyTable::new(Vec::new()), 7);
            let mut sessions = Vec::new();
            for t in 0..tenants {
                let key = tenant_handshake(&cfg, t).expect("handshake");
                let nonce = partition.nonce_for(t as u64, 0).expect("nonce");
                proc.add_lane(key, nonce);
                sessions.push(ChannelSession::new(key, nonce));
            }
            let mut mem = MemoryEngine::with_sessions(obf, sessions);
            // Interleave re-keys in the fuzzed order.
            let mut epochs = vec![0u64; tenants];
            for &o in order.iter().take(16) {
                let t = (o as usize) % tenants;
                epochs[t] += 1;
                let nonce = partition.nonce_for(t as u64, epochs[t]).expect("nonce");
                proc.rekey_channel(t, nonce).expect("proc rekey");
                mem.rekey(t, nonce).expect("mem rekey");
            }
            let header = |t: usize| RequestHeader { kind: AccessKind::Read, addr: (t as u64) << 20 };
            // Every lane still round-trips with itself after the churn...
            for t in 0..tenants {
                let pair = proc.obfuscate(Time::ZERO, t, Delivery::Pair { header: header(t), data: None }).expect("obfuscate");
                let decoded = mem.receive(t, &pair.real, pair.dummy.as_ref());
                proptest::prop_assert!(decoded.is_ok(), "lane {} lost sync with itself", t);
            }
            // ...and no lane accepts a neighbour's traffic.
            for t in 0..tenants {
                let other = (t + 1) % tenants;
                let pair = proc.obfuscate(Time::ZERO, t, Delivery::Pair { header: header(t), data: None }).expect("obfuscate");
                let cross = mem.receive(other, &pair.real, pair.dummy.as_ref());
                proptest::prop_assert!(cross.is_err(), "lane {} decoded lane {}'s packets", other, t);
            }
        }
    }
}
