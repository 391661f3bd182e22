//! Adversary models and leakage analysis for the ObfusMem reproduction.
//!
//! The paper's security claims (Table 4 and §6.1) are qualitative; this
//! crate makes them *measurable* on simulated bus traces:
//!
//! * [`leakage`] — statistical attacks a passive bus observer can mount
//!   on a recorded trace of bus events: ciphertext repetition /
//!   temporal-linkage, read-vs-write classification, footprint
//!   estimation, per-channel imbalance, and an ECB dictionary attack.
//!   Each reads only the wire observables and returns a score that is
//!   near its ideal for a protected bus and far from it for a plaintext
//!   bus.
//! * [`observatory`] — the same passive observer as a streaming bus tap:
//!   the Membuster attack ladder folded into bits leaked per access
//!   during a run, for the sweep's leakage axis.
//! * [`tamper`] — the active attacker: bit flips, drops, replays,
//!   injections, and reorders against a live processor/memory engine
//!   pair, scored by detection rate (paper §3.5's scenarios).
//! * [`table4`] — programmatic regeneration of Table 4's comparison of
//!   ORAM and ObfusMem.
//! * [`isolation`] — multi-tenant isolation proofs for the session
//!   fabric: cross-tenant timing invisibility, and bit-identity of the
//!   1-tenant fabric with the legacy single-session path.

pub mod isolation;
pub mod leakage;
pub mod observatory;
pub mod table4;
pub mod tamper;
