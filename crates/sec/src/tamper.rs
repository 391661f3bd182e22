//! Active attacks against the bus, and their detection (paper §3.5).
//!
//! The attacker "may drop a request completely, inject a bogus request,
//! replace a request with a bogus one, or replay a request from the
//! past". With encrypt-and-MAC, every scenario must be detected by the
//! memory side immediately: modification breaks `H(r‖a‖c)`, drops and
//! replays desynchronize the counter the tag is bound to, and injections
//! carry no valid tag. [`run_campaign`] mounts each attack repeatedly
//! against a live engine pair and reports the detection rate.

use obfusmem_core::busmsg::{BusPacket, RequestHeader};
use obfusmem_core::config::{FaultPlan, ObfusMemConfig};
use obfusmem_core::engine::ProcessorEngine;
use obfusmem_core::link::{Delivery, FaultKind, FaultyLink, ALL_FAULT_KINDS};
use obfusmem_core::memside::{engines_for_test, MemoryEngine};
use obfusmem_mem::request::AccessKind;
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::time::Time;

/// The active-attack repertoire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TamperKind {
    /// Flip one bit of the encrypted header in flight.
    FlipHeaderBit,
    /// Flip one bit of the encrypted data payload in flight.
    FlipDataBit,
    /// Drop the packet pair entirely (memory never sees it).
    DropMessage,
    /// Replay a previously delivered packet pair verbatim.
    Replay,
    /// Inject a fabricated packet pair.
    Inject,
    /// Swap the order of two consecutive packet pairs.
    Reorder,
}

/// All attack kinds.
pub const ALL_TAMPERS: [TamperKind; 6] = [
    TamperKind::FlipHeaderBit,
    TamperKind::FlipDataBit,
    TamperKind::DropMessage,
    TamperKind::Replay,
    TamperKind::Inject,
    TamperKind::Reorder,
];

/// Outcome of a campaign of one attack kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// The attack mounted.
    pub kind: TamperKind,
    /// Attempts made.
    pub attempts: u64,
    /// Attempts detected by the memory-side engine (MAC/counter check).
    pub detected: u64,
}

impl CampaignResult {
    /// Detection rate in \[0, 1\].
    pub fn detection_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.detected as f64 / self.attempts as f64
        }
    }
}

fn fresh_pair(cfg: ObfusMemConfig) -> (ProcessorEngine, MemoryEngine) {
    let (p, mut ms) = engines_for_test(cfg, 1);
    (p, ms.remove(0))
}

fn make_request(
    proc: &mut ProcessorEngine,
    rng: &mut SplitMix64,
    i: u64,
) -> (BusPacket, BusPacket) {
    let write = rng.chance(0.3);
    let header = RequestHeader {
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        addr: (i % 1024) * 64,
    };
    let data = write.then_some([i as u8; 64]);
    let pair = proc
        .obfuscate(Time::ZERO, 0, header, data.as_ref())
        .expect("channel 0 exists");
    (pair.real, pair.dummy)
}

/// Mounts `attempts` instances of `kind` against a fresh engine pair.
///
/// Between attacks, honest traffic flows so the attacker strikes mid
/// session (a fresh pair per attempt would make counter attacks trivial
/// to detect for the wrong reason).
pub fn run_campaign(cfg: ObfusMemConfig, kind: TamperKind, attempts: u64) -> CampaignResult {
    let mut detected = 0u64;
    let mut rng = SplitMix64::new(0xA77ACC3A ^ attempts);
    for trial in 0..attempts {
        // Each trial uses its own session (a detected tamper poisons the
        // counters, as in a real system that would halt).
        let (mut proc, mut mem) = fresh_pair(cfg);
        // Honest warm-up traffic.
        for i in 0..3 {
            let (real, dummy) = make_request(&mut proc, &mut rng, i);
            mem.receive_pair(0, &real, &dummy)
                .expect("honest traffic passes");
        }

        let hit = match kind {
            TamperKind::FlipHeaderBit => {
                // Flip a *semantic* bit: the type bit or an address bit,
                // so detection comes from the MAC itself. (Padding bits
                // are also caught, but by the hardened header parser —
                // see the `padding_flips_are_rejected_as_malformed`
                // test.)
                let (mut real, dummy) = make_request(&mut proc, &mut rng, 100 + trial);
                let bit = if rng.chance(0.1) {
                    0
                } else {
                    8 + rng.below(64) as usize
                };
                real.header_ct[bit / 8] ^= 1 << (bit % 8);
                mem.receive_pair(0, &real, &dummy).is_err()
            }
            TamperKind::FlipDataBit => {
                // Force a write so there is data to corrupt.
                let header = RequestHeader {
                    kind: AccessKind::Write,
                    addr: 0x4000,
                };
                let pair = proc
                    .obfuscate(Time::ZERO, 0, header, Some(&[9; 64]))
                    .expect("channel 0 exists");
                let mut real = pair.real;
                let bit = rng.below(512) as usize;
                if let Some(data) = &mut real.data_ct {
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                match mem.receive_pair(0, &real, &pair.dummy) {
                    Err(_) => true,
                    Ok((decoded, _)) => {
                        // Encrypt-and-MAC does not cover data directly
                        // (Observation 4): corruption passes the command
                        // check but garbles the payload, which the Merkle
                        // tree catches on the next read. Count immediate
                        // detection only.
                        let _ = decoded;
                        false
                    }
                }
            }
            TamperKind::DropMessage => {
                let _dropped = make_request(&mut proc, &mut rng, 200 + trial);
                let (real, dummy) = make_request(&mut proc, &mut rng, 300 + trial);
                mem.receive_pair(0, &real, &dummy).is_err()
            }
            TamperKind::Replay => {
                let (real, dummy) = make_request(&mut proc, &mut rng, 400 + trial);
                mem.receive_pair(0, &real, &dummy)
                    .expect("first delivery is honest");
                mem.receive_pair(0, &real, &dummy).is_err()
            }
            TamperKind::Inject => {
                let mut forged = BusPacket {
                    header_ct: [0; 16],
                    data_ct: None,
                    tag: Some([0; 8]),
                };
                for b in forged.header_ct.iter_mut() {
                    *b = rng.next_u64() as u8;
                }
                mem.receive_pair(0, &forged, &forged.clone()).is_err()
            }
            TamperKind::Reorder => {
                let first = make_request(&mut proc, &mut rng, 500 + trial);
                let second = make_request(&mut proc, &mut rng, 600 + trial);
                // Deliver out of order.
                let second_err = mem.receive_pair(0, &second.0, &second.1).is_err();
                let first_err = mem.receive_pair(0, &first.0, &first.1).is_err();
                second_err || first_err
            }
        };
        if hit {
            detected += 1;
        }
    }
    CampaignResult {
        kind,
        attempts,
        detected,
    }
}

/// Runs the full repertoire.
pub fn run_all(cfg: ObfusMemConfig, attempts_each: u64) -> Vec<CampaignResult> {
    ALL_TAMPERS
        .iter()
        .map(|&k| run_campaign(cfg, k, attempts_each))
        .collect()
}

/// Outcome of a recovery campaign: detection alone is table stakes —
/// the link layer must *heal* every fault and keep serving correct
/// data.
#[derive(Debug, Clone)]
pub struct RecoveryResult {
    /// The fault process exercised.
    pub kind: FaultKind,
    /// Deliveries driven through the faulty link.
    pub deliveries: u64,
    /// Faults the injector fired.
    pub faults_injected: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Counter-resynchronization handshakes performed.
    pub resyncs: u64,
    /// Session re-keys performed.
    pub rekeys: u64,
    /// Deliveries that exhausted the retry budget (must stay zero).
    pub unrecovered: u64,
    /// Deliveries whose decoded request mismatched the sent one
    /// (must stay zero — recovery may never corrupt).
    pub corrupted: u64,
}

/// Drives `deliveries` requests through a [`FaultyLink`] injecting
/// `kind` at `rate`, asserting per delivery that the decoded request
/// and payload match what was sent and that both ends' counters
/// re-converge. Where [`run_campaign`] proves the §3.5 machinery
/// *detects* active tampering, this proves the link layer built on top
/// of it *recovers* from every transmission fault.
pub fn run_recovery_campaign(
    cfg: ObfusMemConfig,
    kind: FaultKind,
    rate: f64,
    seed: u64,
    deliveries: u64,
) -> RecoveryResult {
    let plan = FaultPlan::single(kind, rate, seed);
    let cfg = ObfusMemConfig {
        faults: plan,
        ..cfg
    };
    let (mut proc, mut mem) = fresh_pair(cfg);
    let mut link = FaultyLink::new(cfg.link, plan, 1);
    let mut corrupted = 0u64;
    let mut now = Time::ZERO;
    for i in 0..deliveries {
        let write = i % 3 != 0;
        let header = RequestHeader {
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            addr: (i % 1024) * 64,
        };
        let data = write.then_some([i as u8; 64]);
        let delivery = Delivery::Pair {
            header,
            data: data.as_ref(),
        };
        let out = link
            .deliver(now, 0, &mut proc, &mut mem, delivery)
            .expect("a single channel never quarantines");
        if out.decoded.header != header || out.decoded.data != data {
            corrupted += 1;
        }
        if proc.counter(0) != mem.counter(0) {
            corrupted += 1;
        }
        now = now + obfusmem_sim::time::Duration::from_ns(1_000) + out.delay;
    }
    let stats = link.stats();
    RecoveryResult {
        kind,
        deliveries,
        faults_injected: stats.faults_injected.get(),
        retransmits: stats.retransmits.get(),
        resyncs: stats.resyncs.get(),
        rekeys: stats.rekeys.get(),
        unrecovered: stats.unrecovered.get(),
        corrupted,
    }
}

/// Runs the recovery campaign for every fault kind.
pub fn run_all_recovery(
    cfg: ObfusMemConfig,
    rate: f64,
    seed: u64,
    deliveries: u64,
) -> Vec<RecoveryResult> {
    ALL_FAULT_KINDS
        .iter()
        .map(|&k| run_recovery_campaign(cfg, k, rate, seed ^ k as u64, deliveries))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_core::config::{MacScheme, SecurityLevel};

    #[test]
    fn encrypt_and_mac_detects_command_attacks_immediately() {
        let cfg = ObfusMemConfig::paper_default();
        for kind in [
            TamperKind::FlipHeaderBit,
            TamperKind::DropMessage,
            TamperKind::Replay,
            TamperKind::Inject,
            TamperKind::Reorder,
        ] {
            let r = run_campaign(cfg, kind, 25);
            assert_eq!(r.detection_rate(), 1.0, "{kind:?} must always be detected");
        }
    }

    #[test]
    fn encrypt_and_mac_defers_data_tampering_to_merkle() {
        // Observation 4's stated drawback, verified.
        let cfg = ObfusMemConfig::paper_default();
        let r = run_campaign(cfg, TamperKind::FlipDataBit, 25);
        assert_eq!(
            r.detection_rate(),
            0.0,
            "data corruption is deferred, not immediate"
        );
    }

    #[test]
    fn encrypt_then_mac_catches_data_tampering_immediately() {
        // The trade-off in the other direction.
        let cfg = ObfusMemConfig {
            mac_scheme: MacScheme::EncryptThenMac,
            ..ObfusMemConfig::paper_default()
        };
        let r = run_campaign(cfg, TamperKind::FlipDataBit, 25);
        assert_eq!(r.detection_rate(), 1.0);
    }

    #[test]
    fn without_auth_nothing_is_detected_at_the_bus() {
        let cfg = ObfusMemConfig {
            security: SecurityLevel::Obfuscate,
            ..ObfusMemConfig::paper_default()
        };
        let r = run_campaign(cfg, TamperKind::FlipHeaderBit, 25);
        assert_eq!(r.detection_rate(), 0.0, "no MAC, no immediate detection");
    }

    #[test]
    fn padding_flips_are_rejected_as_malformed() {
        // The encrypt-and-MAC tag covers r‖a‖c, so a flip confined to
        // the header's zero padding passes MAC verification — but the
        // hardened header parser rejects nonzero padding outright, so
        // the tamper is still caught (as a malformed packet rather than
        // a MAC failure) and counted.
        let (mut proc, mut mem) = fresh_pair(ObfusMemConfig::paper_default());
        let header = RequestHeader {
            kind: AccessKind::Read,
            addr: 0x40,
        };
        let pair = proc
            .obfuscate(Time::ZERO, 0, header, None)
            .expect("channel 0");
        let mut tampered = pair.real.clone();
        tampered.header_ct[12] ^= 0xFF; // padding byte
        let err = mem
            .receive_pair(0, &tampered, &pair.dummy)
            .expect_err("nonzero padding must be rejected");
        assert!(
            matches!(err, obfusmem_core::ObfusMemError::MalformedPacket(_)),
            "expected MalformedPacket, got {err:?}"
        );
        assert_eq!(mem.tampers_detected(), 1, "the rejection must be counted");
    }

    #[test]
    fn full_repertoire_reports_every_kind() {
        let results = run_all(ObfusMemConfig::paper_default(), 5);
        assert_eq!(results.len(), ALL_TAMPERS.len());
    }

    #[test]
    fn every_fault_kind_is_recovered_not_just_detected() {
        for r in run_all_recovery(ObfusMemConfig::paper_default(), 0.15, 0x5EC0_4E41, 80) {
            assert!(
                r.faults_injected > 0,
                "{:?}: the campaign must actually inject faults",
                r.kind
            );
            assert_eq!(r.corrupted, 0, "{:?}: recovery may never corrupt", r.kind);
            assert_eq!(
                r.unrecovered, 0,
                "{:?}: every fault must heal within the retry budget",
                r.kind
            );
        }
    }

    #[test]
    fn corruption_recovery_exercises_resync() {
        let r = run_recovery_campaign(
            ObfusMemConfig::paper_default(),
            FaultKind::BitFlip,
            0.3,
            7,
            150,
        );
        assert!(r.retransmits > 0, "flips must force retransmissions");
        assert!(
            r.resyncs > 0,
            "header/tag flips must exercise the counter-resync handshake"
        );
        assert_eq!(r.corrupted, 0);
        assert_eq!(r.unrecovered, 0);
    }

    #[test]
    fn recovery_holds_without_authentication() {
        // Without MACs the link CRC is the only in-band integrity check
        // for data lanes; header flips decode to a wrong-but-plausible
        // request only if they hit padding or decode luckily — the
        // parser and the paired-dummy structure catch the rest. Drops
        // and duplicates must still heal purely via ARQ.
        let cfg = ObfusMemConfig {
            security: SecurityLevel::Obfuscate,
            ..ObfusMemConfig::paper_default()
        };
        for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::DelayBurst] {
            let r = run_recovery_campaign(cfg, kind, 0.2, 11, 80);
            assert_eq!(r.corrupted, 0, "{:?}", kind);
            assert_eq!(r.unrecovered, 0, "{:?}", kind);
        }
    }
}
