//! # ObfusMem — trusted-memory access-pattern obfuscation
//!
//! A from-scratch Rust reproduction of **"ObfusMem: A Low-Overhead Access
//! Obfuscation for Trusted Memories"** (Awad, Wang, Shands, Solihin —
//! ISCA 2017), including every substrate the paper's evaluation depends
//! on: a PCM memory-system simulator, a cache hierarchy, a trace-driven
//! core with SPEC-calibrated workloads, the cryptographic primitives, a
//! functional Path ORAM baseline, and measurable adversary models.
//!
//! This crate is a facade: it re-exports the workspace members under one
//! name and hosts the runnable examples and cross-crate integration
//! tests. Use the member crates directly for finer-grained dependencies.
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `obfusmem-core` | the paper's contribution: engines, trust bootstrap, full system |
//! | [`oram`] | `obfusmem-oram` | Path ORAM baseline (functional + fixed-latency model) |
//! | [`crypto`] | `obfusmem-crypto` | AES-128/CTR, MD5, SHA-1, DH, RSA identities |
//! | [`mem`] | `obfusmem-mem` | PCM device model (Table 2 machine) |
//! | [`cache`] | `obfusmem-cache` | L1/L2/L3 + MSHRs + counter cache |
//! | [`cpu`] | `obfusmem-cpu` | trace-driven core + Table 1 workloads |
//! | [`sec`] | `obfusmem-sec` | leakage analyses, tamper campaigns, Table 4 |
//! | [`sim`] | `obfusmem-sim` | event kernel, deterministic RNG, stats |
//! | [`obs`] | `obfusmem-obs` | metrics registry, sim-time tracing, Chrome-trace exporter |
//!
//! # Quick start
//!
//! ```
//! use obfusmem::core::config::SecurityLevel;
//! use obfusmem::core::system::{System, SystemConfig};
//! use obfusmem::cpu::workload::by_name;
//!
//! let workload = by_name("mcf").expect("Table 1 workload");
//! let mut protected = System::new(SystemConfig {
//!     security: SecurityLevel::ObfuscateAuth,
//!     ..SystemConfig::default()
//! });
//! let mut baseline = System::new(SystemConfig {
//!     security: SecurityLevel::Unprotected,
//!     ..SystemConfig::default()
//! });
//! let r1 = protected.run(&workload, 100_000, 42);
//! let r0 = baseline.run(&workload, 100_000, 42);
//! println!("ObfusMem+Auth overhead on mcf: {:.1}%", r1.overhead_vs(&r0));
//! ```

pub use obfusmem_cache as cache;
pub use obfusmem_core as core;
pub use obfusmem_cpu as cpu;
pub use obfusmem_crypto as crypto;
pub use obfusmem_mem as mem;
pub use obfusmem_obs as obs;
pub use obfusmem_oram as oram;
pub use obfusmem_sec as sec;
pub use obfusmem_sim as sim;
