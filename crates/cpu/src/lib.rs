//! Trace-driven CPU front end and synthetic SPEC-calibrated workloads.
//!
//! The paper drives its evaluation with 15 SPEC CPU2006 benchmarks whose
//! memory behaviour it summarizes in Table 1 (IPC, LLC misses per kilo
//! instruction, and the average latency gap between consecutive memory
//! requests). We cannot ship SPEC, so this crate provides:
//!
//! * [`workload`] — [`workload::WorkloadSpec`]: a statistical description
//!   of one benchmark's *LLC-miss stream* (miss rate, inter-miss compute
//!   gap, read/write-back mix, spatial/temporal locality, memory-level
//!   parallelism), with presets for all 15 Table 1 benchmarks.
//! * [`stream`] — a deterministic generator turning a spec into a concrete
//!   stream of LLC misses and write-backs with realistic locality.
//! * [`core`] — the trace-driven core model: it interleaves compute gaps
//!   with memory requests against any [`core::MemoryBackend`]
//!   (unprotected memory, ObfusMem, or ORAM) and reports execution time,
//!   from which every Table 3 / Figure 4 / Figure 5 number derives.
//! * [`l1stream`] — a finer-grained L1-level address-stream generator used
//!   with `obfusmem-cache` to *measure* MPKI through real caches
//!   (calibration experiments).
//!
//! The mechanism this reproduces is the one the paper's results hinge on:
//! a benchmark's sensitivity to memory-path latency is set by how much
//! exposed memory time sits between its compute gaps. High-MPKI/small-gap
//! workloads (bwaves, mcf, milc…) amplify any added latency; low-MPKI ones
//! (astar, hmmer…) hide it.

pub mod core;
pub mod l1stream;
pub mod stream;
pub mod workload;
