//! Parallel experiment harness for the ObfusMem simulator.
//!
//! This crate turns the one-point measurement primitive shared with
//! `obfusmem-bench` into batch infrastructure:
//!
//! - [`spec::SweepSpec`] — a declarative cartesian grid (workloads ×
//!   schemes and ORAM modes × channels × backends × link faults × device
//!   faults × leakage points × replicates) with a tiny `key = value` text
//!   format for spec files; every key is also a `sweep` flag.
//! - [`job`] — self-describing [`job::JobSpec`]s whose seeds derive from
//!   `(master_seed, job_id)` alone via `SplitMix64` child streams, so any
//!   job reproduces standalone regardless of scheduling.
//! - [`pool`] — a dependency-free work-stealing thread pool on
//!   `std::thread` and channels.
//! - [`sink`] — a JSONL result sink where the results file doubles as the
//!   checkpoint; restarting skips completed jobs.
//! - [`runner`] — orchestration that re-orders completions into canonical
//!   grid order, making sweep output byte-identical across thread counts.
//! - [`progress`] — throttled progress/ETA lines on stderr.
//!
//! The `sweep` binary (`cargo run --release -p obfusmem-harness --bin
//! sweep`) is the CLI front end; see `EXPERIMENTS.md` for usage.

pub mod job;
pub mod jsonl;
pub mod measure;
pub mod pool;
pub mod progress;
pub mod runner;
pub mod serve;
pub mod sink;
pub mod spec;
