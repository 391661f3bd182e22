//! Discrete-event simulation kernel for the ObfusMem reproduction.
//!
//! Every performance number in the paper comes from a cycle-accurate
//! simulation; this crate is the kernel those models are built on:
//!
//! * [`time`] — picosecond-resolution simulated time ([`time::Time`],
//!   [`time::Duration`]) and clock-domain conversion ([`time::Clock`]).
//!   Picoseconds let us represent the paper's mixed clocks exactly
//!   (2 GHz cores, 800 MHz DDR bus, 250 MHz AES pipeline, 13.75 ns tCL).
//! * [`event`] — a deterministic event queue with stable FIFO ordering
//!   among same-timestamp events.
//! * [`rng`] — a SplitMix64 PRNG plus the distributions the workload
//!   generators need (Zipf, geometric, exponential). Deterministic per
//!   seed, so every table in `EXPERIMENTS.md` is reproducible.
//! * [`stats`] — counters, running means, and log-scale histograms used
//!   for IPC / MPKI / latency reporting.
//! * [`hash`] — a small deterministic hasher for the simulator's integer
//!   map keys (block addresses, bank/row pairs, page numbers).
//!
//! # Example
//!
//! ```
//! use obfusmem_sim::event::EventQueue;
//! use obfusmem_sim::time::{Duration, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::ZERO + Duration::from_ns(10), "late");
//! q.push(Time::ZERO, "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Time::ZERO, "early"));
//! ```

pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;
