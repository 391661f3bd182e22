//! Statistical attacks a passive observer can mount, and their scores.
//!
//! Every analysis takes the raw [`BusEvent`]s: it reads the wire bytes,
//! channel, direction and timing an observer sees, and uses the sealed
//! ground truth only to choose what to compare and to score the result.
//! Each returns a number with a clear ideal:
//!
//! | Analysis | Plain bus | ECB addresses | ObfusMem (CTR) |
//! |---|---|---|---|
//! | temporal linkage | 1.0 | 1.0 | ≈ 0 |
//! | read/write classifier accuracy | 1.0 | 1.0 | ≈ 0.5 |
//! | footprint recovery ratio | ≈ 1.0 | ≈ 1.0 | ≫ 1 (useless) |
//! | dictionary attack accuracy | 1.0 | high | ≈ chance |
//! | channel imbalance | workload-shaped | workload-shaped | ≈ 0 with injection |

use std::collections::{HashMap, HashSet};

use obfusmem_core::busmsg::{BusEvent, Direction};
use obfusmem_mem::request::AccessKind;

/// Temporal linkage: among pairs of request packets whose *true*
/// addresses match, the fraction whose *observed* header bytes also
/// match. 1.0 means the attacker links every revisit (plain/ECB); ≈0
/// means single-use ciphertext (CTR).
pub fn temporal_linkage(events: &[BusEvent]) -> f64 {
    let requests: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory && e.truth.real)
        .collect();
    let mut same_addr_pairs = 0u64;
    let mut linked_pairs = 0u64;
    for (i, a) in requests.iter().enumerate() {
        for b in requests.iter().skip(i + 1) {
            if a.truth.addr == b.truth.addr && a.truth.kind == b.truth.kind {
                same_addr_pairs += 1;
                if a.packet.header_ct == b.packet.header_ct {
                    linked_pairs += 1;
                }
            }
        }
    }
    if same_addr_pairs == 0 {
        0.0
    } else {
        linked_pairs as f64 / same_addr_pairs as f64
    }
}

/// The majority-class prior: the accuracy a blind attacker gets by always
/// guessing the more common request kind (assumed workload knowledge).
pub fn type_prior(events: &[BusEvent]) -> f64 {
    let reals: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory && e.truth.real)
        .collect();
    if reals.is_empty() {
        return 0.5;
    }
    let reads = reals
        .iter()
        .filter(|e| e.truth.kind == AccessKind::Read)
        .count() as f64;
    let p = reads / reals.len() as f64;
    p.max(1.0 - p)
}

/// Read/write classifier accuracy. The attacker labels each *real*
/// request: for an unpaired packet, its shape (command-only = read,
/// data-carrying = write) gives the kind away; for a read-then-write
/// pair, both shapes are present in a fixed order, so the best the
/// attacker can do is guess the majority class. A protected bus therefore
/// scores ≈ [`type_prior`] (zero advantage); a plain bus scores ≈ 1.
pub fn request_type_accuracy(events: &[BusEvent]) -> f64 {
    let to_mem: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory)
        .collect();
    let reals: Vec<&&BusEvent> = to_mem.iter().filter(|e| e.truth.real).collect();
    if reals.is_empty() {
        return 0.5;
    }
    let reads = reals
        .iter()
        .filter(|e| e.truth.kind == AccessKind::Read)
        .count();
    let majority = if reads * 2 >= reals.len() {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    // If every request packet has the same shape (the uniform scheme),
    // shape carries zero bits and the attacker knows it.
    let shapes: HashSet<bool> = to_mem.iter().map(|e| e.packet.data_ct.is_some()).collect();
    let shapes_vary = shapes.len() > 1;

    let mut correct = 0u64;
    for real in &reals {
        let h = &real.packet.header_ct;
        let plaintext_header = h[9..].iter().all(|&b| b == 0) && h[0] <= 1;
        let guess = if plaintext_header {
            // Unencrypted header: the attacker just reads the type byte
            // (probability ≈ 2^-56 of a CTR header looking like this).
            AccessKind::decode(h[0]).unwrap_or(majority)
        } else {
            // Encrypted header: does another packet share this wire slot
            // (the pairing convention)? A paired slot always shows both
            // shapes — dummy-paired and substituted pairs are
            // indistinguishable — so the best move is the majority guess.
            let paired = to_mem.iter().any(|e| {
                !std::ptr::eq::<BusEvent>(*e, **real)
                    && e.at == real.at
                    && e.channel == real.channel
            });
            if paired || !shapes_vary {
                majority
            } else {
                // Unpaired encrypted packet with informative shape.
                if real.packet.data_ct.is_some() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                }
            }
        };
        if guess == real.truth.kind {
            correct += 1;
        }
    }
    correct as f64 / reals.len() as f64
}

/// Classifier advantage over the blind prior: ≈0 when the bus hides
/// request types, positive when shapes leak them.
pub fn type_advantage(events: &[BusEvent]) -> f64 {
    request_type_accuracy(events) - type_prior(events)
}

/// Footprint recovery: observed distinct headers divided by true distinct
/// addresses. ≈1.0 means the attacker counts the working set exactly;
/// values ≫ 1 mean headers are useless for counting (every packet looks
/// fresh).
pub fn footprint_ratio(events: &[BusEvent]) -> f64 {
    let requests: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory && e.truth.real)
        .collect();
    let observed: HashSet<[u8; 16]> = requests.iter().map(|e| e.packet.header_ct).collect();
    let actual: HashSet<u64> = requests.iter().map(|e| e.truth.addr).collect();
    if actual.is_empty() {
        0.0
    } else {
        observed.len() as f64 / actual.len() as f64
    }
}

/// Hot-set recovery (the §3.2 dictionary/frequency attack): the attacker
/// marks every header ciphertext that repeats as a "hot candidate"; the
/// score is the fraction of truly-revisited addresses so recovered.
/// ECB and plaintext headers repeat whenever the address repeats → 1.0;
/// CTR headers are single-use → 0.0.
pub fn hot_set_recovery(events: &[BusEvent]) -> f64 {
    let requests: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory && e.truth.real)
        .collect();
    // Hot items are (address, kind) pairs revisited at least twice —
    // exactly the revisits a repeated header would betray.
    let mut ct_freq: HashMap<[u8; 16], u64> = HashMap::new();
    let mut item_freq: HashMap<(u64, AccessKind), u64> = HashMap::new();
    let mut item_cts: HashMap<(u64, AccessKind), HashSet<[u8; 16]>> = HashMap::new();
    for e in &requests {
        *ct_freq.entry(e.packet.header_ct).or_insert(0) += 1;
        let item = (e.truth.addr, e.truth.kind);
        *item_freq.entry(item).or_insert(0) += 1;
        item_cts.entry(item).or_default().insert(e.packet.header_ct);
    }
    let hot: Vec<(u64, AccessKind)> = item_freq
        .iter()
        .filter(|(_, &f)| f >= 2)
        .map(|(&i, _)| i)
        .collect();
    if hot.is_empty() {
        return 0.0;
    }
    let recovered = hot
        .iter()
        .filter(|item| item_cts[item].iter().any(|ct| ct_freq[ct] >= 2))
        .count();
    recovered as f64 / hot.len() as f64
}

/// The address field of the public plaintext header layout, read without
/// any fallible slicing (the header is a fixed 16-byte array).
fn header_addr_bytes(h: &[u8; 16]) -> u64 {
    u64::from_le_bytes([h[1], h[2], h[3], h[4], h[5], h[6], h[7], h[8]])
}

/// Spatial leakage: among consecutive request pairs whose *true*
/// addresses are sequential (+64 B), the fraction the attacker detects by
/// parsing the observed header as the known plaintext layout
/// (Kerckhoffs's principle — the wire format is public). 1.0 on a plain
/// bus; ≈0 under any header encryption (the property even the ECB
/// strawman provides, per §3.2).
pub fn spatial_leakage(events: &[BusEvent]) -> f64 {
    let requests: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory && e.truth.real)
        .collect();
    let mut sequential_truth = 0u64;
    let mut detected = 0u64;
    for w in requests.windows(2) {
        if w[1].truth.addr == w[0].truth.addr + 64 {
            sequential_truth += 1;
            let a = header_addr_bytes(&w[0].packet.header_ct);
            let b = header_addr_bytes(&w[1].packet.header_ct);
            if b == a + 64 {
                detected += 1;
            }
        }
    }
    if sequential_truth == 0 {
        0.0
    } else {
        detected as f64 / sequential_truth as f64
    }
}

/// Per-channel imbalance of observed traffic: coefficient of variation of
/// per-channel packet counts (0 = perfectly even). Spatial inference
/// across channels (§3.4) needs imbalance or phase structure; injection
/// drives this toward 0.
pub fn channel_imbalance(events: &[BusEvent], channels: usize) -> f64 {
    // Zero channels observe zero traffic: no imbalance, not a panic.
    if channels == 0 {
        return 0.0;
    }
    let mut counts = vec![0f64; channels];
    for e in events {
        if e.direction == Direction::ToMemory && e.channel < channels {
            counts[e.channel] += 1.0;
        }
    }
    let mean = counts.iter().sum::<f64>() / channels as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / channels as f64;
    var.sqrt() / mean
}

/// Channel-sequence predictability (the §3.4 spatial leak): among
/// consecutive real requests whose *true* addresses are sequential, the
/// fraction whose observed channels step by exactly one (mod N) — the
/// signature of fine-grained channel interleaving. An attacker who knows
/// the interleaving granularity reads spatial patterns straight off the
/// pins; coarse (row-granularity) interleaving keeps runs on one channel
/// and defeats this particular inference.
pub fn channel_step_predictability(events: &[BusEvent], channels: usize) -> f64 {
    // Zero channels carry zero sequential pairs: nothing to predict.
    if channels == 0 {
        return 0.0;
    }
    let requests: Vec<&BusEvent> = events
        .iter()
        .filter(|e| e.direction == Direction::ToMemory && e.truth.real)
        .collect();
    let mut sequential = 0u64;
    let mut stepped = 0u64;
    for w in requests.windows(2) {
        if w[1].truth.addr == w[0].truth.addr + 64 {
            sequential += 1;
            if w[1].channel == (w[0].channel + 1) % channels {
                stepped += 1;
            }
        }
    }
    if sequential == 0 {
        0.0
    } else {
        stepped as f64 / sequential as f64
    }
}

/// Timing regularity: the fraction of *distinct inter-arrival gaps*
/// (picosecond-exact, per channel, request direction) relative to the
/// number of packets. Program-driven traffic produces nearly as many
/// distinct gaps as packets (→ 1.0, each gap is informative); the §6.2
/// fixed-slot mode collapses gaps onto slot multiples (→ near 0).
pub fn timing_distinct_gap_ratio(events: &[BusEvent]) -> f64 {
    let mut per_channel: HashMap<usize, Vec<u64>> = HashMap::new();
    for e in events {
        if e.direction == Direction::ToMemory {
            per_channel.entry(e.channel).or_default().push(e.at.as_ps());
        }
    }
    let mut gaps = HashSet::new();
    let mut total = 0usize;
    for times in per_channel.values_mut() {
        times.sort_unstable();
        for w in times.windows(2) {
            if w[1] > w[0] {
                gaps.insert(w[1] - w[0]);
                total += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        gaps.len() as f64 / total as f64
    }
}

/// Convenience bundle of all passive analyses on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// See [`temporal_linkage`].
    pub temporal_linkage: f64,
    /// See [`request_type_accuracy`].
    pub type_accuracy: f64,
    /// See [`type_advantage`].
    pub type_advantage: f64,
    /// See [`footprint_ratio`].
    pub footprint_ratio: f64,
    /// See [`hot_set_recovery`].
    pub hot_set_recovery: f64,
    /// See [`spatial_leakage`].
    pub spatial_leakage: f64,
}

/// Runs every passive analysis.
pub fn analyze(events: &[BusEvent]) -> LeakageReport {
    LeakageReport {
        temporal_linkage: temporal_linkage(events),
        type_accuracy: request_type_accuracy(events),
        type_advantage: type_advantage(events),
        footprint_ratio: footprint_ratio(events),
        hot_set_recovery: hot_set_recovery(events),
        spatial_leakage: spatial_leakage(events),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_core::backend::ObfusMemBackend;
    use obfusmem_core::config::{AddressCipherMode, ObfusMemConfig, SecurityLevel};
    use obfusmem_cpu::core::MemoryBackend;
    use obfusmem_mem::config::MemConfig;
    use obfusmem_mem::request::BlockAddr;
    use obfusmem_sim::rng::SplitMix64;
    use obfusmem_sim::time::Time;

    /// Drives a zipfian revisit-heavy address pattern through a backend
    /// and returns its trace.
    fn trace_for(security: SecurityLevel, mode: AddressCipherMode) -> Vec<BusEvent> {
        let cfg = ObfusMemConfig {
            security,
            address_mode: mode,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 11);
        b.enable_trace();
        let mut rng = SplitMix64::new(5);
        let mut t = Time::ZERO;
        for i in 0..400u64 {
            // Hot set of 8 blocks plus a cold tail.
            let addr = if rng.chance(0.7) {
                rng.below(8) * 64
            } else {
                (1000 + i) * 64
            };
            t = b.read(t, BlockAddr::containing(addr));
            if rng.chance(0.3) {
                b.write(t, BlockAddr::containing(addr));
            }
        }
        b.take_trace()
    }

    #[test]
    fn plain_bus_leaks_everything() {
        let r = analyze(&trace_for(
            SecurityLevel::Unprotected,
            AddressCipherMode::Ctr,
        ));
        assert_eq!(
            r.temporal_linkage, 1.0,
            "plaintext headers link all revisits"
        );
        assert!(
            r.type_accuracy > 0.95,
            "plaintext types are readable: {}",
            r.type_accuracy
        );
        assert!(
            r.type_advantage > 0.1,
            "plain bus gives a real advantage: {}",
            r.type_advantage
        );
        // At most two headers per address (read + write kinds): the
        // observer recovers the footprint to within a factor of two.
        assert!(
            r.footprint_ratio < 2.5,
            "footprint recoverable: {}",
            r.footprint_ratio
        );
        assert!(
            r.hot_set_recovery > 0.95,
            "dictionary trivially wins: {}",
            r.hot_set_recovery
        );
        assert!(
            r.spatial_leakage > 0.95,
            "sequential runs readable: {}",
            r.spatial_leakage
        );
    }

    #[test]
    fn ecb_hides_spatial_but_leaks_temporal() {
        let r = analyze(&trace_for(SecurityLevel::Obfuscate, AddressCipherMode::Ecb));
        assert_eq!(
            r.temporal_linkage, 1.0,
            "ECB repeats ciphertext on revisits"
        );
        assert!(
            r.hot_set_recovery > 0.95,
            "frequency analysis works on ECB: {}",
            r.hot_set_recovery
        );
        assert!(
            r.spatial_leakage < 0.05,
            "ECB does hide spatial runs: {}",
            r.spatial_leakage
        );
        // ECB: at most one ciphertext per (kind, address) pair, so the
        // observer still counts the footprint to within a small factor.
        assert!(
            r.footprint_ratio < 2.5,
            "ECB leaks footprint: {}",
            r.footprint_ratio
        );
    }

    #[test]
    fn obfusmem_ctr_defeats_passive_analyses() {
        let r = analyze(&trace_for(
            SecurityLevel::ObfuscateAuth,
            AddressCipherMode::Ctr,
        ));
        assert!(
            r.temporal_linkage < 0.01,
            "CTR must not link revisits: {}",
            r.temporal_linkage
        );
        assert!(
            r.type_advantage.abs() < 0.02,
            "pairing must erase classifier advantage: {}",
            r.type_advantage
        );
        assert!(
            r.footprint_ratio > 3.0,
            "footprint must inflate: {}",
            r.footprint_ratio
        );
        assert!(
            r.hot_set_recovery < 0.01,
            "hot set must be unrecoverable: {}",
            r.hot_set_recovery
        );
        assert!(
            r.spatial_leakage < 0.05,
            "spatial runs must be hidden: {}",
            r.spatial_leakage
        );
    }

    #[test]
    fn channel_imbalance_drops_with_injection() {
        use obfusmem_core::config::ChannelStrategy;
        let mut scores = Vec::new();
        for strategy in [
            ChannelStrategy::None,
            ChannelStrategy::Opt,
            ChannelStrategy::Unopt,
        ] {
            let cfg = ObfusMemConfig {
                channel_strategy: strategy,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(4), 3);
            b.enable_trace();
            // Skewed pattern: mostly one 1 KB region → one channel hot.
            let mut rng = SplitMix64::new(9);
            for i in 0..300u64 {
                let addr = if rng.chance(0.8) {
                    rng.below(16) * 64
                } else {
                    i * 64
                };
                b.read(Time::from_ps(i * 3_000), BlockAddr::containing(addr));
            }
            scores.push(channel_imbalance(&b.take_trace(), 4));
        }
        assert!(
            scores[1] < scores[0] * 0.8,
            "OPT must reduce imbalance: none={} opt={}",
            scores[0],
            scores[1]
        );
        assert!(
            scores[2] < 0.1,
            "UNOPT must flatten channel usage completely: {}",
            scores[2]
        );
    }

    #[test]
    fn all_three_type_hiding_schemes_erase_classifier_advantage() {
        use obfusmem_core::config::TypeHiding;
        for scheme in [
            TypeHiding::SplitDummy,
            TypeHiding::SplitDummyWithSubstitution,
            TypeHiding::UniformPackets,
        ] {
            let cfg = ObfusMemConfig {
                type_hiding: scheme,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 51);
            b.enable_trace();
            let mut rng = SplitMix64::new(52);
            let mut t = Time::ZERO;
            for i in 0..400u64 {
                if rng.chance(0.4) {
                    b.write(t, BlockAddr::from_index(4096 + i));
                }
                t = b.read(t, BlockAddr::from_index(rng.below(512)));
            }
            let r = analyze(&b.take_trace());
            assert!(
                r.type_advantage.abs() < 0.06,
                "{scheme:?} must hide request types: advantage {}",
                r.type_advantage
            );
            assert!(r.temporal_linkage < 0.01, "{scheme:?} must stay CTR-fresh");
        }
    }

    #[test]
    fn block_interleaving_leaks_channel_steps_row_interleaving_does_not() {
        use obfusmem_mem::addr::AddressMapping;
        let trace_with = |mapping| {
            let cfg = ObfusMemConfig {
                channel_strategy: obfusmem_core::config::ChannelStrategy::None,
                ..ObfusMemConfig::paper_default()
            };
            let mem = MemConfig::table2().with_channels(4).with_mapping(mapping);
            let mut b = ObfusMemBackend::new(cfg, mem, 44);
            b.enable_trace();
            let mut t = Time::ZERO;
            for i in 0..400u64 {
                // Pure sequential stream: the §3.4 victim pattern.
                t = b.read(t, BlockAddr::from_index(i));
            }
            b.take_trace()
        };
        let fine = channel_step_predictability(&trace_with(AddressMapping::RoBaRaCoCh), 4);
        let coarse = channel_step_predictability(&trace_with(AddressMapping::RoRaBaChCo), 4);
        assert!(
            fine > 0.95,
            "block interleave must step channels predictably: {fine}"
        );
        assert!(
            coarse < 0.2,
            "row interleave keeps runs on one channel: {coarse}"
        );
    }

    #[test]
    fn fixed_slots_flatten_the_timing_channel() {
        use obfusmem_core::config::TimingMode;
        let trace_with = |timing| {
            let cfg = ObfusMemConfig {
                timing,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 31);
            b.enable_trace();
            let mut rng = SplitMix64::new(32);
            let mut t = Time::from_ps(1);
            for _ in 0..300 {
                // Irregular, data-dependent gaps: the timing channel.
                t += obfusmem_sim::time::Duration::from_ps(rng.below(200_000) + 1);
                t = b.read(t, BlockAddr::from_index(rng.below(4096)));
            }
            b.take_trace()
        };
        let free = timing_distinct_gap_ratio(&trace_with(TimingMode::AsReady));
        let slotted = timing_distinct_gap_ratio(&trace_with(TimingMode::FixedSlots));
        assert!(
            free > 0.5,
            "as-ready timing must be information-rich: {free}"
        );
        assert!(
            slotted < free * 0.5,
            "slots must collapse gap diversity: {slotted} vs {free}"
        );
    }

    #[test]
    fn empty_traces_are_handled() {
        let r = analyze(&[]);
        assert_eq!(r.temporal_linkage, 0.0);
        assert_eq!(r.type_accuracy, 0.5);
    }
}
