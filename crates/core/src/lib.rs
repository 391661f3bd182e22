//! ObfusMem — low-overhead memory access-pattern obfuscation for trusted
//! memories (Awad, Wang, Shands, Solihin — ISCA 2017).
//!
//! This crate is the paper's primary contribution: a processor-side and a
//! memory-side engine that, over a session key established at boot,
//! encrypt *commands, addresses, and data* with AES counter mode before
//! they touch the exposed memory bus — so an attacker probing the bus
//! sees only single-use ciphertext, never the access pattern.
//!
//! The design pieces map to modules:
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.1 trust architecture (key burning, integrators, attestation, DH) | [`trust`], [`session`] |
//! | §3.2 access-pattern encryption (counter mode, Figure 3) | [`engine`], [`memside`], [`window`], [`busmsg`] |
//! | §3.2 memory encryption it builds on (counter-mode data at rest) | [`memenc`], [`counters`] |
//! | §3.3 request-type obfuscation (dummy pairing, substitution, uniform packets) | [`window`], [`config::DummyAddressPolicy`], [`config::TypeHiding`] |
//! | §3.4 inter-channel obfuscation (UNOPT/OPT injection) | [`channels`] |
//! | §3.5 communication authentication (encrypt-and-MAC vs encrypt-then-MAC) | [`window`], [`config::MacScheme`] |
//! | link fault injection + bounded-retry recovery (robustness extension) | [`link`], [`config::FaultPlan`] |
//! | Merkle-tree memory integrity | assumed by the paper; not modelled here |
//! | full-system performance model (gem5 replacement) | [`backend`], [`system`] |
//!
//! # Quick start
//!
//! ```
//! use obfusmem_core::system::{System, SystemConfig};
//! use obfusmem_core::config::SecurityLevel;
//! use obfusmem_cpu::workload::micro_test_workload;
//!
//! let mut system = System::new(SystemConfig {
//!     security: SecurityLevel::ObfuscateAuth,
//!     ..SystemConfig::default()
//! });
//! let result = system.run(&micro_test_workload(), 50_000, 42);
//! assert!(result.exec_time.as_ns() > 0);
//! ```

pub mod backend;
pub mod busmsg;
pub mod channels;
pub mod config;
pub mod counters;
pub mod engine;
pub mod link;
pub mod memenc;
pub mod memside;
pub mod recovery;
pub mod session;
pub mod system;
pub mod tap;
pub mod trust;
pub mod window;

mod error;

pub use error::ObfusMemError;
/// Controller-model selector, re-exported so full-system callers (the
/// harness sweep grid, the bench binaries) need not depend on
/// `obfusmem-mem` directly.
pub use obfusmem_mem::config::BackendKind;
