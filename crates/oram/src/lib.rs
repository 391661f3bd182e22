//! Path ORAM — the baseline ObfusMem is compared against.
//!
//! The paper's quantitative baseline is Path ORAM (Stefanov et al., CCS'13)
//! with L = 24 tree levels, Z = 4 blocks per bucket, ≥50% capacity waste,
//! and — for execution-time comparisons — the optimistic fixed 2500 ns
//! per-access latency model of §4. This crate provides both halves:
//!
//! * [`path_oram`] — a **functional Path ORAM**: position map
//!   ([`posmap`]), stash ([`stash`]), bucket tree ([`tree`]), the
//!   read-path / remap / greedy-evict access protocol, and invariant
//!   checking. It measures the paper's non-performance claims directly:
//!   ~`2·(L+1)·Z` blocks moved per access (bandwidth amplification), ~100
//!   blocks written per access (write amplification), ≥100% storage
//!   overhead, and stash-overflow (failure/deadlock-risk) behaviour.
//! * [`model`] — the **fixed-latency performance model** used for Table 3:
//!   a [`obfusmem_cpu::core::MemoryBackend`] answering every access after
//!   a configurable latency (default 2500 ns), with bandwidth and energy
//!   accounting scaled by the tree geometry.
//!
//! # Example
//!
//! ```
//! use obfusmem_oram::path_oram::{OramConfig, PathOram};
//!
//! let mut oram = PathOram::new(OramConfig { levels: 8, bucket_size: 4, blocks: 512 }, 7)?;
//! oram.write(3, [0xAB; 64])?;
//! assert_eq!(oram.read(3)?[0], 0xAB);
//! oram.check_invariants()?;
//! # Ok::<(), obfusmem_oram::OramError>(())
//! ```

pub mod codesign;
pub mod model;
pub mod path_oram;
pub mod posmap;
pub mod recursion;
pub mod ring_oram;
pub mod stash;
pub mod tree;

mod error;

pub use error::OramError;
