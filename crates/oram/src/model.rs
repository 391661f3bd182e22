//! The paper's fixed-latency ORAM performance model (§4).
//!
//! For execution-time comparisons the paper models ORAM with "a fixed
//! memory access latency of 2500 ns, obtained by extrapolating the ORAM
//! access latency from \[Freecursive ORAM\]", deliberately optimistic
//! (unlimited bandwidth, unconstrained PCM write power). [`OramModel`]
//! reproduces that: every demand fill completes `latency` after issue; the
//! core's MSHR budget limits overlap exactly as it does for real memory.
//!
//! The model also accounts the traffic the latency abstracts away —
//! `(L+1)·Z` blocks read and written per access — so the §5.2 energy and
//! lifetime comparisons can be driven from the same run.

use obfusmem_cpu::core::MemoryBackend;
use obfusmem_mem::energy::EnergyModel;
use obfusmem_mem::request::BlockAddr;
use obfusmem_obs::metrics::{MetricsNode, Observable};
use obfusmem_obs::trace::{TraceHandle, Track};
use obfusmem_sim::time::{Duration, Time};

use crate::path_oram::OramConfig;

/// The fixed-latency ORAM back end.
#[derive(Debug)]
pub struct OramModel {
    latency: Duration,
    geometry: OramConfig,
    accesses: u64,
    writebacks: u64,
    obs: TraceHandle,
}

impl OramModel {
    /// The paper's model: 2500 ns per access over the L=24/Z=4 geometry.
    pub fn paper() -> Self {
        OramModel {
            latency: Duration::from_ns(2500),
            geometry: OramConfig::paper(),
            accesses: 0,
            writebacks: 0,
            obs: TraceHandle::disabled(),
        }
    }

    /// Installs a span recorder; each fill becomes an `oram` track span.
    pub fn set_trace_handle(&mut self, obs: TraceHandle) {
        self.obs = obs;
    }

    /// Logical accesses served (fills + write-backs).
    pub fn accesses(&self) -> u64 {
        self.accesses + self.writebacks
    }

    /// Physical blocks read from memory implied by the geometry.
    pub fn blocks_read(&self) -> u64 {
        self.accesses() * (self.geometry.levels as u64 + 1) * self.geometry.bucket_size as u64
    }

    /// Physical blocks written to memory implied by the geometry.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_read() // every path read is evicted back
    }

    /// Array energy under `model`, for the §5.2 comparison.
    pub fn array_energy(&self, model: &EnergyModel) -> f64 {
        model.array_energy(self.blocks_read(), self.blocks_written())
    }

    /// 128-bit encryption pads consumed: every block moved is decrypted or
    /// encrypted, 4 pads per 64 B block (§5.2's "200 × 4 = 800 pads").
    pub fn pads_consumed(&self) -> u64 {
        (self.blocks_read() + self.blocks_written()) * 4
    }
}

impl Observable for OramModel {
    fn observe(&self, out: &mut MetricsNode) {
        out.set_counter("accesses", self.accesses());
        out.set_counter("blocks_read", self.blocks_read());
        out.set_counter("blocks_written", self.blocks_written());
        out.set_counter("pads_consumed", self.pads_consumed());
    }
}

impl MemoryBackend for OramModel {
    fn read(&mut self, at: Time, _addr: BlockAddr) -> Time {
        self.accesses += 1;
        self.obs
            .span(Track::Oram, "path-access", at, at + self.latency);
        at + self.latency
    }

    fn write(&mut self, _at: Time, _addr: BlockAddr) {
        // A write is a full ORAM access too, but it is posted: the core
        // does not wait. Bandwidth/energy accounting still applies.
        self.writebacks += 1;
    }

    fn label(&self) -> String {
        format!("path-oram (fixed {} ns)", self.latency.as_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_cpu::core::TraceDrivenCore;
    use obfusmem_cpu::workload::micro_test_workload;

    #[test]
    fn fills_complete_after_fixed_latency() {
        let mut m = OramModel::paper();
        let done = m.read(Time::ZERO, BlockAddr::containing(0x40));
        assert_eq!(done.as_ns(), 2500);
    }

    #[test]
    fn per_access_traffic_matches_paper_numbers() {
        let mut m = OramModel::paper();
        m.read(Time::ZERO, BlockAddr::containing(0));
        assert_eq!(m.blocks_read(), 100);
        assert_eq!(m.blocks_written(), 100);
        assert_eq!(m.pads_consumed(), 800);
    }

    #[test]
    fn energy_matches_section_5_2() {
        let mut m = OramModel::paper();
        m.read(Time::ZERO, BlockAddr::containing(0));
        let e = m.array_energy(&EnergyModel::paper_relative());
        assert!(
            (e - 780.0).abs() < 1e-9,
            "per-access energy {e} != 780×read"
        );
    }

    #[test]
    fn slows_down_a_memory_bound_workload_by_an_order_of_magnitude() {
        let core = TraceDrivenCore::new();
        let spec = micro_test_workload();
        let mut oram = OramModel::paper();
        let mut plain =
            obfusmem_cpu::core::FixedLatencyBackend::new("plain", Duration::from_ns(80));
        let r_oram = core.run(&spec, 100_000, &mut oram, 3);
        let r_plain = core.run(&spec, 100_000, &mut plain, 3);
        let slowdown = r_oram.slowdown_vs(&r_plain);
        assert!(
            slowdown > 5.0,
            "slowdown {slowdown} too small for gap 50ns workload"
        );
    }

    #[test]
    fn writebacks_do_not_stall_but_are_counted() {
        let mut m = OramModel::paper();
        m.write(Time::ZERO, BlockAddr::containing(0x80));
        assert_eq!(m.accesses(), 1);
        assert_eq!(m.blocks_written(), 100);
    }
}
