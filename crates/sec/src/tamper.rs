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
use obfusmem_core::config::ObfusMemConfig;
use obfusmem_core::engine::ProcessorEngine;
use obfusmem_core::memside::{engines_for_test, MemoryEngine};
use obfusmem_core::window::Delivery;
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
) -> (BusPacket, Option<BusPacket>) {
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
        .obfuscate(
            Time::ZERO,
            0,
            Delivery::Pair {
                header,
                data: data.as_ref(),
            },
        )
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
            mem.receive(0, &real, dummy.as_ref())
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
                mem.receive(0, &real, dummy.as_ref()).is_err()
            }
            TamperKind::FlipDataBit => {
                // Force a write so there is data to corrupt.
                let header = RequestHeader {
                    kind: AccessKind::Write,
                    addr: 0x4000,
                };
                let pair = proc
                    .obfuscate(
                        Time::ZERO,
                        0,
                        Delivery::Pair {
                            header,
                            data: Some(&[9; 64]),
                        },
                    )
                    .expect("channel 0 exists");
                let mut real = pair.real;
                let bit = rng.below(512) as usize;
                if let Some(data) = &mut real.data_ct {
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                match mem.receive(0, &real, pair.dummy.as_ref()) {
                    Err(_) => true,
                    Ok((decoded, _)) => {
                        // Encrypt-and-MAC does not cover data directly
                        // (Observation 4): corruption passes the command
                        // check but garbles the payload. The paper leaves
                        // that to its assumed Merkle tree, which this repo
                        // does not model. Count immediate detection only.
                        let _ = decoded;
                        false
                    }
                }
            }
            TamperKind::DropMessage => {
                let _dropped = make_request(&mut proc, &mut rng, 200 + trial);
                let (real, dummy) = make_request(&mut proc, &mut rng, 300 + trial);
                mem.receive(0, &real, dummy.as_ref()).is_err()
            }
            TamperKind::Replay => {
                let (real, dummy) = make_request(&mut proc, &mut rng, 400 + trial);
                mem.receive(0, &real, dummy.as_ref())
                    .expect("first delivery is honest");
                mem.receive(0, &real, dummy.as_ref()).is_err()
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
                mem.receive(0, &forged, Some(&forged)).is_err()
            }
            TamperKind::Reorder => {
                let first = make_request(&mut proc, &mut rng, 500 + trial);
                let second = make_request(&mut proc, &mut rng, 600 + trial);
                // Deliver out of order.
                let second_err = mem.receive(0, &second.0, second.1.as_ref()).is_err();
                let first_err = mem.receive(0, &first.0, first.1.as_ref()).is_err();
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
    fn encrypt_and_mac_defers_data_tampering() {
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
            .obfuscate(Time::ZERO, 0, Delivery::Pair { header, data: None })
            .expect("channel 0");
        let mut tampered = pair.real.clone();
        tampered.header_ct[12] ^= 0xFF; // padding byte
        let err = mem
            .receive(0, &tampered, pair.dummy.as_ref())
            .expect_err("nonzero padding must be rejected");
        assert!(
            matches!(err, obfusmem_core::ObfusMemError::MalformedPacket(_)),
            "expected MalformedPacket, got {err:?}"
        );
        assert_eq!(mem.tampers_detected(), 1, "the rejection must be counted");
    }
}
