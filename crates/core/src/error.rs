use std::error::Error;
use std::fmt;

use obfusmem_crypto::CryptoError;

/// Errors surfaced by the ObfusMem engines and trust bootstrap.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObfusMemError {
    /// A bus message failed its MAC check — active tampering detected.
    TamperDetected {
        /// Human-readable description of what mismatched.
        detail: String,
    },
    /// Processor and memory counters no longer agree (message dropped,
    /// replayed, or injected).
    CounterDesync {
        /// Counter value the receiving side expected.
        expected: u64,
        /// Counter implied by the received message.
        actual: u64,
    },
    /// A bus packet was malformed (wrong length, truncated tag).
    MalformedPacket(String),
    /// Trust bootstrap failed (attestation mismatch, bad certificate…).
    BootstrapFailed(String),
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
    /// A request referenced a channel the system does not have.
    NoSuchChannel {
        /// Offending index.
        channel: usize,
        /// Channels configured.
        channels: usize,
    },
    /// The link layer exhausted its retry budget for one delivery.
    RetriesExhausted {
        /// Channel whose delivery failed.
        channel: usize,
        /// Retries attempted before giving up.
        attempts: u32,
    },
    /// A channel accumulated enough integrity failures to be quarantined
    /// and can no longer carry traffic.
    ChannelQuarantined {
        /// The quarantined channel.
        channel: usize,
    },
    /// Every channel is quarantined; no healthy channel remains to
    /// re-steer traffic onto.
    NoHealthyChannel,
}

impl fmt::Display for ObfusMemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObfusMemError::TamperDetected { detail } => write!(f, "tampering detected: {detail}"),
            ObfusMemError::CounterDesync { expected, actual } => {
                write!(f, "counter desync: expected {expected}, got {actual}")
            }
            ObfusMemError::MalformedPacket(msg) => write!(f, "malformed bus packet: {msg}"),
            ObfusMemError::BootstrapFailed(msg) => write!(f, "trust bootstrap failed: {msg}"),
            ObfusMemError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            ObfusMemError::NoSuchChannel { channel, channels } => {
                write!(f, "channel {channel} out of range ({channels} configured)")
            }
            ObfusMemError::RetriesExhausted { channel, attempts } => {
                write!(
                    f,
                    "link retries exhausted on channel {channel} after {attempts} attempts"
                )
            }
            ObfusMemError::ChannelQuarantined { channel } => {
                write!(f, "channel {channel} is quarantined")
            }
            ObfusMemError::NoHealthyChannel => {
                write!(f, "no healthy channel remains")
            }
        }
    }
}

impl Error for ObfusMemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ObfusMemError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for ObfusMemError {
    fn from(e: CryptoError) -> Self {
        ObfusMemError::Crypto(e)
    }
}
