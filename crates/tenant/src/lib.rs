//! Multi-tenant session fabric for the ObfusMem serving mode.
//!
//! The paper's machine establishes one trust session per memory channel at
//! boot and keeps it for the life of the machine. A serving deployment —
//! one trusted memory module shared by many mutually-distrusting clients —
//! needs the same machinery *per tenant*: an independent DH-derived session
//! key, a private slice of the CTR counter space (so no two tenants can
//! ever collide on a `(key, counter)` pair even across re-keys), and a
//! re-key schedule that can churn hundreds of sessions without perturbing
//! the others.
//!
//! This crate provides that layer:
//!
//! * [`qos::TenantClass`] — traffic classes (interactive / standard /
//!   bulk) that map onto the class-aware FR-FCFS arbitration in
//!   `obfusmem-mem`, with starvation aging keeping bulk tenants live.
//! * [`fabric::SessionFabric`] — the long-running serving loop: per-tenant
//!   miss streams multiplexed over shared channel schedulers, each request
//!   taking the full obfuscation round trip (pair encryption, memory-side
//!   verification, reply encryption/decryption) on its tenant's own lane.
//! * [`fabric::FabricConfig`] — tenant count, churn/storm schedule, DH
//!   strength, and QoS knobs, all driven from one seed so a run is
//!   reproducible bit-for-bit.
//!
//! The fabric with one tenant on one channel is bit-identical to the
//! legacy single-session path (`obfusmem-sec` proves this), so the serving
//! mode is a strict generalization, not a fork, of the paper's protocol.

pub mod fabric;
pub mod qos;

pub use fabric::{
    proc_engine_seed, tenant_data_seed, tenant_handshake, tenant_nonce, tenant_stream_seed,
    DhStrength, FabricConfig, FabricError, FabricReport, SessionFabric, TenantSummary,
};
pub use qos::TenantClass;
