//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each public function in [`experiments`] reproduces one artifact —
//! Table 1, Table 3, Figure 4, Figure 5, the §5.2 energy/lifetime
//! analysis, and Table 4 — returning structured rows that the `tables`
//! binary renders next to the paper's published numbers. Absolute values
//! differ (our substrate is a from-scratch simulator, not the authors'
//! gem5 + SPEC testbed); the *shape* — who wins, by roughly what factor,
//! where the crossovers fall — is the reproduction target, and
//! `EXPERIMENTS.md` records both sides.

pub mod experiments;
pub mod render;

/// Default instruction budget per run. The paper simulates 200 M
/// instructions; the default here keeps the full table sweep to minutes
/// while preserving thousands of misses per benchmark. Override with
/// `tables -n <instructions>`.
pub const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;

/// Default deterministic seed.
pub const DEFAULT_SEED: u64 = 0x0B_F0_5E_ED;
