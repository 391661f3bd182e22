//! The passive bus observer (threat model §2.1).
//!
//! An attacker with probes on the exposed processor–memory wires sees,
//! per packet: raw bytes, which channel's pins carried it, direction, and
//! timing. They do **not** see the `GroundTruth` the simulator attaches —
//! [`ObservedPacket::from_event`] strips it.
//! [`crate::leakage::channel_imbalance`] runs on [`ObservedPacket`]s; the
//! other estimators in [`crate::leakage`] take `BusEvent`s, read only
//! what the wires carry, and use the truth solely to choose what to
//! compare and to *score* the attack.

use obfusmem_core::busmsg::{BusEvent, Direction};
use obfusmem_sim::time::Time;

/// Why a raw wire capture could not be parsed into an
/// [`ObservedPacket`]. Real probes drop bytes; the observatory must
/// degrade to a typed error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureError {
    /// Fewer bytes than the 16-byte header every packet starts with.
    Truncated {
        /// Bytes actually captured.
        len: usize,
    },
    /// A byte count no legal packet shape produces (legal shapes:
    /// header 16, header+tag 24, header+data 80, header+data+tag 88).
    BadLength {
        /// Bytes actually captured.
        len: usize,
    },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Truncated { len } => {
                write!(f, "truncated capture: {len} bytes, header needs 16")
            }
            CaptureError::BadLength { len } => {
                write!(
                    f,
                    "unparseable capture: {len} bytes matches no packet shape"
                )
            }
        }
    }
}

impl std::error::Error for CaptureError {}

/// What the attacker captures for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedPacket {
    /// Capture timestamp.
    pub at: Time,
    /// Channel pins.
    pub channel: usize,
    /// Wire direction.
    pub direction: Direction,
    /// The 16 header bytes as seen on the wire.
    pub header: [u8; 16],
    /// True when a 64 B data payload accompanied the header.
    pub has_data: bool,
    /// The payload bytes if present.
    pub data: Option<[u8; 64]>,
    /// True when an 8-byte tag accompanied the packet.
    pub has_tag: bool,
}

impl ObservedPacket {
    /// Captures a bus event (dropping ground truth).
    pub fn from_event(event: &BusEvent) -> Self {
        ObservedPacket {
            at: event.at,
            channel: event.channel,
            direction: event.direction,
            header: event.packet.header_ct,
            has_data: event.packet.data_ct.is_some(),
            data: event.packet.data_ct,
            has_tag: event.packet.tag.is_some(),
        }
    }

    /// Parses a raw byte capture into a packet. The four legal shapes
    /// are header-only (16 B), header+tag (24 B), header+data (80 B),
    /// and header+data+tag (88 B); anything else is a typed error.
    ///
    /// # Errors
    ///
    /// [`CaptureError::Truncated`] when fewer than 16 bytes arrived,
    /// [`CaptureError::BadLength`] for any other illegal byte count.
    pub fn from_wire(
        at: Time,
        channel: usize,
        direction: Direction,
        bytes: &[u8],
    ) -> Result<Self, CaptureError> {
        let len = bytes.len();
        if len < 16 {
            return Err(CaptureError::Truncated { len });
        }
        let (has_data, has_tag) = match len {
            16 => (false, false),
            24 => (false, true),
            80 => (true, false),
            88 => (true, true),
            _ => return Err(CaptureError::BadLength { len }),
        };
        let mut header = [0u8; 16];
        header.copy_from_slice(&bytes[..16]);
        let data = has_data.then(|| {
            let mut d = [0u8; 64];
            d.copy_from_slice(&bytes[16..80]);
            d
        });
        Ok(ObservedPacket {
            at,
            channel,
            direction,
            header,
            has_data,
            data,
            has_tag,
        })
    }
}

/// Captures a whole trace.
pub fn capture(events: &[BusEvent]) -> Vec<ObservedPacket> {
    events.iter().map(ObservedPacket::from_event).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_core::busmsg::{BusPacket, GroundTruth, RequestHeader};
    use obfusmem_mem::request::AccessKind;

    fn event() -> BusEvent {
        BusEvent {
            at: Time::from_ps(123),
            channel: 2,
            direction: Direction::ToMemory,
            packet: BusPacket {
                header_ct: RequestHeader {
                    kind: AccessKind::Read,
                    addr: 0x40,
                }
                .to_bytes(),
                data_ct: Some([7; 64]),
                tag: Some([1; 8]),
            },
            truth: GroundTruth {
                real: true,
                kind: AccessKind::Read,
                addr: 0x40,
            },
        }
    }

    #[test]
    fn capture_preserves_observables() {
        let obs = ObservedPacket::from_event(&event());
        assert_eq!(obs.at, Time::from_ps(123));
        assert_eq!(obs.channel, 2);
        assert!(obs.has_data);
        assert!(obs.has_tag);
        assert_eq!(obs.data, Some([7; 64]));
    }

    #[test]
    fn capture_drops_ground_truth() {
        // Structural check: ObservedPacket has no truth field; this test
        // documents the contract by round-tripping through the public API.
        let trace = capture(&[event(), event()]);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn capture_handles_dataless_and_tagless_packets() {
        // A read request on the wire carries neither payload nor tag;
        // a ciphertext reply may carry data without a tag. Both shapes
        // must capture cleanly.
        let mut bare = event();
        bare.packet.data_ct = None;
        bare.packet.tag = None;
        let obs = ObservedPacket::from_event(&bare);
        assert!(!obs.has_data && obs.data.is_none() && !obs.has_tag);

        let mut untagged = event();
        untagged.packet.tag = None;
        let obs = ObservedPacket::from_event(&untagged);
        assert!(obs.has_data && !obs.has_tag);
        assert_eq!(obs.data, Some([7; 64]));
    }

    #[test]
    fn from_wire_parses_every_legal_shape() {
        let at = Time::from_ps(5);
        let mut bytes = [0u8; 88];
        bytes[0] = 1; // kind byte
        for (len, data, tag) in [
            (16, false, false),
            (24, false, true),
            (80, true, false),
            (88, true, true),
        ] {
            let p = ObservedPacket::from_wire(at, 3, Direction::ToMemory, &bytes[..len])
                .unwrap_or_else(|e| panic!("{len} bytes must parse: {e}"));
            assert_eq!(p.has_data, data, "{len} bytes");
            assert_eq!(p.has_tag, tag, "{len} bytes");
            assert_eq!(p.data.is_some(), data);
            assert_eq!(p.channel, 3);
        }
    }

    #[test]
    fn from_wire_rejects_torn_captures_with_typed_errors() {
        let at = Time::ZERO;
        for len in [0usize, 1, 15] {
            assert_eq!(
                ObservedPacket::from_wire(at, 0, Direction::ToMemory, &vec![0u8; len]),
                Err(CaptureError::Truncated { len }),
            );
        }
        for len in [17usize, 23, 25, 79, 81, 87, 89, 200] {
            assert_eq!(
                ObservedPacket::from_wire(at, 0, Direction::ToMemory, &vec![0u8; len]),
                Err(CaptureError::BadLength { len }),
            );
        }
        // The errors render for logs rather than unwinding the probe.
        let msg = CaptureError::Truncated { len: 3 }.to_string();
        assert!(msg.contains("truncated"), "{msg}");
    }
}
