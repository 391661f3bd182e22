//! Cache hierarchy for the simulated 4-core machine (paper Table 2).
//!
//! * [`config`] — per-level geometry/latency; defaults reproduce Table 2
//!   (L1 32 KB/8-way/2-cycle, L2 512 KB/8-way/8-cycle, shared L3
//!   8 MB/8-way/17-cycle, 64 B blocks) plus the 256 KB/8-way/5-cycle
//!   counter cache used by memory encryption.
//! * [`cache`] — a write-back, write-allocate set-associative cache with
//!   true-LRU replacement and dirty-victim write-back reporting.
//! * [`hierarchy`] — a three-level private/private/shared hierarchy that
//!   classifies each CPU access down to the LLC and emits the memory
//!   traffic (fills and write-backs) the LLC generates.
//! * [`mshr`] — miss-status holding registers bounding the memory-level
//!   parallelism a core can expose.
//!
//! The hierarchy is *functionally* faithful (real tags, real LRU, real
//! write-backs); timing is reported as per-level hit latencies for the
//! core model to consume.

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mshr;
