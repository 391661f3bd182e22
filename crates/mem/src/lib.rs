//! PCM main-memory model for the ObfusMem reproduction.
//!
//! The paper evaluates on a DDR-interfaced phase-change-memory (PCM) main
//! memory (Table 2): 8 GB, 1–8 channels at 12.8 GB/s, 2 ranks/channel,
//! 8 banks/rank, 1 KB row buffers, open-adaptive page policy, RoRaBaChCo
//! address mapping, 60 ns reads / 150 ns writes (Lee et al. parameters),
//! with PCM cell writes incurred only when dirty row buffers are evicted.
//!
//! This crate is that memory system:
//!
//! * [`config`] — [`config::MemConfig`], defaulting to the Table 2 machine.
//! * [`addr`] — physical-address ↔ (channel, rank, bank, row, column)
//!   mapping, including RoRaBaChCo and alternatives.
//! * [`bank`] — per-bank row-buffer state machines with PCM timing and
//!   dirty-eviction write accounting.
//! * [`channel`] — the one channel datapath: shared data bus, bank
//!   steering, and per-channel busy tracking.
//! * [`scheduler`] — [`scheduler::ShardedFrFcfs`], the one queued
//!   FR-FCFS controller: a queue per channel, each owning its channel's
//!   datapath.
//! * [`device`] — [`device::PcmMemory`], the top-level device: a timing
//!   front end (`access`) that issues onto the datapaths synchronously or
//!   through the controller, plus a functional 64-byte-block backing
//!   store so upper layers (ObfusMem's memory-side engine, Path ORAM)
//!   move real bytes.
//! * [`energy`] — read/write energy and wear (write-endurance) accounting
//!   used by the §5.2 lifetime/energy comparison.
//!
//! The timing model uses *resource reservation*: each bank and each data
//! bus tracks `busy_until`; a request's start time is the max of its
//! arrival and those resources' availability. Queueing delay emerges from
//! contention without a per-device event loop, which keeps the device
//! usable both standalone and inside the full-system simulator.
//!
//! # Example
//!
//! ```
//! use obfusmem_mem::config::MemConfig;
//! use obfusmem_mem::device::PcmMemory;
//! use obfusmem_mem::request::AccessKind;
//! use obfusmem_sim::time::Time;
//!
//! let mut mem = PcmMemory::new(MemConfig::table2());
//! let done = mem.access(Time::ZERO, 0x4000, AccessKind::Read);
//! assert!(done.complete_at > Time::ZERO);
//! ```

pub mod addr;
pub mod bank;
pub mod channel;
pub mod config;
pub mod device;
pub mod energy;
pub mod fault;
pub mod request;
pub mod scheduler;
