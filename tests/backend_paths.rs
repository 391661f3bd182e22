//! Known-answer pins for the backend's request paths.
//!
//! Every security level and every request shape (split dummies, split
//! dummies with write substitution, uniform packets) runs one fixed
//! request mix under a covering set of configurations. Each run folds
//! into FNV-1a digests:
//!
//! * `result` — every read's completion time, `BackendStats`, each
//!   channel's `bus_busy_ps`, the full metrics tree and the functional
//!   store's contents, with no observer attached;
//! * `traced` — the same digest with a buffered bus trace attached;
//!   observing the bus is passive, so it must equal `result`;
//! * `spans` — the `obs` span sequence (track, name, start, end); the
//!   span recorder is passive, so that run's result must equal `result`;
//! * `events` — the bus-event sequence (time, channel, direction, wire
//!   bytes, packet bytes, ground truth).
//!
//! A mismatch prints the whole recomputed table. Paste it over `PINS`
//! only when the change in simulated behaviour is deliberate.

use obfusmem::core::backend::ObfusMemBackend;
use obfusmem::core::busmsg::{BusEvent, Direction};
use obfusmem::core::config::{
    AddressCipherMode, ChannelStrategy, DummyAddressPolicy, FaultPlan, MacScheme, ObfusMemConfig,
    PairingOrder, SecurityLevel, TimingMode, TypeHiding,
};
use obfusmem::cpu::core::MemoryBackend;
use obfusmem::mem::config::{BackendKind, MemConfig};
use obfusmem::mem::fault::DeviceFaultPlan;
use obfusmem::mem::request::{AccessKind, BlockAddr};
use obfusmem::obs::metrics::MetricsNode;
use obfusmem::obs::trace::{TraceEvent, TraceHandle, Track};
use obfusmem::sim::rng::SplitMix64;
use obfusmem::sim::time::{Duration, Time};

/// Requests per run: enough for bursts, counter misses and faults to
/// fire, small enough that the whole table runs in seconds in debug.
const REQUESTS: usize = 320;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[derive(Clone, Copy)]
enum Observe {
    Off,
    Spans,
    Bus,
}

struct Case {
    name: &'static str,
    cfg: ObfusMemConfig,
    mem: MemConfig,
}

fn case(name: &'static str, mem: MemConfig, tweak: impl FnOnce(&mut ObfusMemConfig)) -> Case {
    let mut cfg = ObfusMemConfig::paper_default();
    tweak(&mut cfg);
    Case { name, cfg, mem }
}

fn link_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        bit_flip: 0.01,
        drop: 0.01,
        duplicate: 0.01,
        replay: 0.01,
        reorder: 0.01,
        delay_burst: 0.01,
        seed,
    }
}

fn device_faults(seed: u64) -> DeviceFaultPlan {
    DeviceFaultPlan {
        bit_flip: 0.02,
        stuck_cell: 0.01,
        row_fail: 0.002,
        bank_fail: 0.001,
        seed,
    }
}

/// A pad pipeline that cannot keep up with back-to-back requests, so
/// issue waits on pad stalls.
fn starve_pads(c: &mut ObfusMemConfig) {
    c.latencies.pad_buffer = 1;
    c.latencies.aes_per_pad = Duration::from_ns(8);
}

/// The covering set: every security level and request shape, both
/// pairing orders, timing modes, MAC schemes and header ciphers, all
/// three dummy policies, 1/2/4 channels, both controller backends, and
/// the link and device fault ladders under each shape, with and without
/// pad stalls.
fn cases() -> Vec<Case> {
    use SecurityLevel::*;
    use TypeHiding::*;
    let one = MemConfig::table2;
    let two = || MemConfig::table2().with_channels(2);
    let four = || MemConfig::table2().with_channels(4);
    let queued = |m: MemConfig| m.with_backend(BackendKind::Queued);
    vec![
        case("unprotected-1ch", one(), |c| c.security = Unprotected),
        case("unprotected-2ch-device", two(), |c| {
            c.security = Unprotected;
            c.device_faults = device_faults(0xD1);
        }),
        case("unprotected-1ch-queued", queued(one()), |c| {
            c.security = Unprotected
        }),
        case("encrypt-only-1ch", one(), |c| c.security = EncryptOnly),
        case("encrypt-only-4ch-queued", queued(four()), |c| {
            c.security = EncryptOnly
        }),
        case("encrypt-only-2ch-device", two(), |c| {
            c.security = EncryptOnly;
            c.device_faults = device_faults(0xD2);
        }),
        case("pair-obf-1ch-starved", one(), |c| {
            c.security = Obfuscate;
            starve_pads(c);
        }),
        case("pair-auth-1ch", one(), |_| {}),
        case("pair-auth-2ch-wtr-slots-random-etm", two(), |c| {
            c.pairing = PairingOrder::WriteThenRead;
            c.timing = TimingMode::FixedSlots;
            c.dummy_policy = DummyAddressPolicy::Random;
            c.mac_scheme = MacScheme::EncryptThenMac;
        }),
        case("pair-auth-4ch-original-unopt", four(), |c| {
            c.dummy_policy = DummyAddressPolicy::Original;
            c.channel_strategy = ChannelStrategy::Unopt;
        }),
        case("pair-obf-2ch-queued-wtr", queued(two()), |c| {
            c.security = Obfuscate;
            c.pairing = PairingOrder::WriteThenRead;
        }),
        case("pair-auth-2ch-link", two(), |c| {
            c.faults = link_faults(0xF1)
        }),
        case("pair-auth-1ch-device", one(), |c| {
            c.device_faults = device_faults(0xD3)
        }),
        case("pair-auth-2ch-quarantine", two(), |c| {
            c.faults = FaultPlan {
                bit_flip: 0.9,
                seed: 3,
                ..FaultPlan::default()
            };
            c.link.rekey_threshold = 1;
            c.link.quarantine_threshold = 2;
            c.link.max_retries = 64;
        }),
        case("pair-auth-2ch-ecb", two(), |c| {
            c.address_mode = AddressCipherMode::Ecb
        }),
        case("subst-auth-1ch", one(), |c| {
            c.type_hiding = SplitDummyWithSubstitution
        }),
        case("subst-auth-1ch-ecb", one(), |c| {
            c.type_hiding = SplitDummyWithSubstitution;
            c.address_mode = AddressCipherMode::Ecb;
        }),
        case("subst-obf-2ch-slots-random-etm", two(), |c| {
            c.security = Obfuscate;
            c.type_hiding = SplitDummyWithSubstitution;
            starve_pads(c);
            c.timing = TimingMode::FixedSlots;
            c.dummy_policy = DummyAddressPolicy::Random;
            c.mac_scheme = MacScheme::EncryptThenMac;
        }),
        case("subst-auth-4ch-queued-wtr", queued(four()), |c| {
            c.type_hiding = SplitDummyWithSubstitution;
            c.pairing = PairingOrder::WriteThenRead;
        }),
        case("subst-auth-2ch-link", two(), |c| {
            c.type_hiding = SplitDummyWithSubstitution;
            c.faults = link_faults(0xF2);
        }),
        case("subst-auth-1ch-device", one(), |c| {
            c.type_hiding = SplitDummyWithSubstitution;
            c.device_faults = device_faults(0xD4);
        }),
        case("uniform-auth-1ch", one(), |c| {
            c.type_hiding = UniformPackets
        }),
        case("uniform-auth-1ch-starved", one(), |c| {
            c.type_hiding = UniformPackets;
            starve_pads(c);
        }),
        case("uniform-obf-4ch-slots-etm", four(), |c| {
            c.security = Obfuscate;
            c.type_hiding = UniformPackets;
            c.timing = TimingMode::FixedSlots;
            c.mac_scheme = MacScheme::EncryptThenMac;
        }),
        case("uniform-obf-2ch-ecb-etm", two(), |c| {
            c.security = Obfuscate;
            c.type_hiding = UniformPackets;
            c.address_mode = AddressCipherMode::Ecb;
            c.mac_scheme = MacScheme::EncryptThenMac;
        }),
        case("uniform-auth-2ch-queued-starved", queued(two()), |c| {
            c.type_hiding = UniformPackets;
            starve_pads(c);
        }),
        case("uniform-auth-1ch-link", one(), |c| {
            c.type_hiding = UniformPackets;
            c.faults = link_faults(0xF3);
        }),
        case("uniform-obf-2ch-device", two(), |c| {
            c.security = Obfuscate;
            c.type_hiding = UniformPackets;
            starve_pads(c);
            c.device_faults = device_faults(0xD5);
        }),
    ]
}

struct Run {
    result: u64,
    spans: u64,
    events: u64,
    metrics: MetricsNode,
    /// Write packets whose pair carried a dummy read: a plain pair write,
    /// or a substitution-overflow write.
    paired_writes: u64,
    /// Spans on the link tracks (ARQ recovery).
    link_spans: u64,
}

/// Drives the fixed request mix: a hot set that is written and re-read,
/// a cold tail that misses the counter cache, a burst of twelve writes
/// every 64 requests (past substitution's eight-write parking limit),
/// and issue times that sometimes wait for a fill and sometimes overlap.
fn drive(c: &Case, observe: Observe) -> Run {
    let mut b = ObfusMemBackend::new(c.cfg, c.mem.clone(), 0xB4C4_E2D0);
    let obs = TraceHandle::recording();
    match observe {
        Observe::Off => {}
        Observe::Spans => b.set_trace_handle(obs.clone()),
        Observe::Bus => b.enable_trace(),
    }
    let mut h = Fnv::new();
    let mut rng = SplitMix64::new(0x5EED_0017);
    let mut t = Time::ZERO;
    for i in 0..REQUESTS {
        let r = rng.next_u64();
        let index = if r.is_multiple_of(4) {
            (r >> 8) % (1 << 22)
        } else {
            (r >> 8) % 96
        };
        let addr = BlockAddr::from_index(index);
        if i % 64 < 12 || (r >> 40) % 10 < 3 {
            b.write(t, addr);
            t += Duration::from_ns(20);
        } else {
            let done = b.read(t, addr);
            h.u64(done.as_ps());
            t = if (r >> 50) & 1 == 0 {
                done
            } else {
                t + Duration::from_ns(30)
            };
        }
    }
    b.drain_posted();

    h.str(&format!("{:?}", b.stats()));
    for ch in 0..c.mem.channels {
        h.u64(b.memory().channel_stats(ch).bus_busy_ps.get());
    }
    let mut metrics = MetricsNode::new();
    b.observe_metrics(&mut metrics);
    h.str(&metrics.to_json());
    for addr in b.memory().stored_addrs() {
        h.u64(addr.as_u64());
        h.bytes(&b.memory().read_block(addr));
    }

    let mut spans = Fnv::new();
    let mut link_spans = 0;
    for ev in obs.finish() {
        link_spans += u64::from(matches!(ev.track(), Track::Link(_)));
        if let TraceEvent::Span {
            track,
            name,
            start,
            end,
        } = ev
        {
            spans.str(&track.name());
            spans.str(name);
            spans.u64(start.as_ps());
            spans.u64(end.as_ps());
        } else {
            panic!("the backend records spans only: {ev:?}");
        }
    }

    let trace = b.take_trace();
    let mut events = Fnv::new();
    for ev in &trace {
        hash_event(&mut events, ev);
    }
    let paired_writes = trace
        .windows(2)
        .filter(|w| {
            w[0].at == w[1].at
                && !w[0].truth.real
                && w[0].truth.kind == AccessKind::Read
                && w[1].truth.real
                && w[1].truth.kind == AccessKind::Write
        })
        .count() as u64;

    Run {
        result: h.0,
        spans: spans.0,
        events: events.0,
        metrics,
        paired_writes,
        link_spans,
    }
}

fn hash_event(h: &mut Fnv, ev: &BusEvent) {
    h.u64(ev.at.as_ps());
    h.u64(ev.channel as u64);
    h.u64(match ev.direction {
        Direction::ToMemory => 0,
        Direction::ToProcessor => 1,
    });
    h.u64(ev.packet.wire_bytes() as u64);
    h.bytes(&ev.packet.header_ct);
    if let Some(data) = &ev.packet.data_ct {
        h.bytes(data);
    }
    if let Some(tag) = &ev.packet.tag {
        h.bytes(tag);
    }
    h.u64(u64::from(ev.truth.real));
    h.u64(match ev.truth.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    });
    h.u64(ev.truth.addr);
}

/// `(case, result, traced, spans, events)`, recorded from the backend's
/// per-shape read/write functions before they were folded into one path.
/// The three pad-starved uniform cases' `spans` were re-recorded when
/// uniform requests gained the `pad-stall` span the other shapes emit.
/// The four multi-channel cases whose `result` once differed from
/// `traced` were re-recorded when injected dummy pairs began using up
/// counters whether or not the bus is observed: the two fixed-address
/// cases' `result` took the old `traced` value, and the two
/// random-address cases changed throughout, because injected pairs no
/// longer draw a random dummy address. The two ECB cases under
/// substitution and uniform packets were recorded when those shapes
/// began sealing their headers with the configured cipher; before, the
/// processor XORed them with CTR pads and the memory end's ECB decrypt
/// failed. Every `result` and `traced` was re-recorded when the device
/// began publishing `mem.max_row_writes` in its metrics tree; `spans`
/// and `events` did not move.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64, u64)] = &[
    ("unprotected-1ch", 0x8dc37b71c7666bf8, 0x8dc37b71c7666bf8, 0x0285c8e42204dbec, 0x41e766e78020587f),
    ("unprotected-2ch-device", 0xaaacb0dba09f4ef5, 0xaaacb0dba09f4ef5, 0x2caaafba249a440a, 0x2edbff029ae265b2),
    ("unprotected-1ch-queued", 0x5a980c99b87caabf, 0x5a980c99b87caabf, 0x4521f21b20220088, 0x70d570b237732824),
    ("encrypt-only-1ch", 0x9d11ad5fb608f961, 0x9d11ad5fb608f961, 0x77391f22c2546a17, 0xb85909ac165cce30),
    ("encrypt-only-4ch-queued", 0x9d01cfc3b2d0fc99, 0x9d01cfc3b2d0fc99, 0x33e9ccd3324f604f, 0x3424786797ba2678),
    ("encrypt-only-2ch-device", 0xf9d6f6f706accd1f, 0xf9d6f6f706accd1f, 0x97d738bc7b5a6840, 0x68b2564515e5e940),
    ("pair-obf-1ch-starved", 0x896b69f92eed832f, 0x896b69f92eed832f, 0x1e8c1d9407eeb2e1, 0x97cad1ecb1dcec80),
    ("pair-auth-1ch", 0xd650e667fcc57a29, 0xd650e667fcc57a29, 0x3f0d41fe35d84798, 0x64468090474c7a0c),
    ("pair-auth-2ch-wtr-slots-random-etm", 0xf51893fbd2824b93, 0xf51893fbd2824b93, 0xc85c7f845ec1e4aa, 0x905a49c361efd48d),
    ("pair-auth-4ch-original-unopt", 0x3d32b5b08eac5a1b, 0x3d32b5b08eac5a1b, 0x09812019b2876d05, 0xab64e8231285da26),
    ("pair-obf-2ch-queued-wtr", 0x055313ae9c778ef0, 0x055313ae9c778ef0, 0xb744378785731771, 0x9044fe8fe3887711),
    ("pair-auth-2ch-link", 0xf046891796834b93, 0xf046891796834b93, 0x49062dae66d93f35, 0x82c3d4867108d14a),
    ("pair-auth-1ch-device", 0x932cd41a0b906238, 0x932cd41a0b906238, 0x36940dd5fa81cc11, 0x63042a9cba518b54),
    ("pair-auth-2ch-quarantine", 0x536f3b09ef9dad5c, 0x536f3b09ef9dad5c, 0xc82b48a4c7cf27da, 0xd724193a6c48f68a),
    ("pair-auth-2ch-ecb", 0x299280686c27ef19, 0x299280686c27ef19, 0x0f27c7c98a1a54c2, 0x7b9144e8254227c0),
    ("subst-auth-1ch", 0xe62a9d9afc4f4654, 0xe62a9d9afc4f4654, 0xb9719335c180cdb3, 0xb24d6c86e66085c8),
    ("subst-auth-1ch-ecb", 0xe62a9d9afc4f4654, 0xe62a9d9afc4f4654, 0xb9719335c180cdb3, 0xdf92aa788bf3672a),
    ("subst-obf-2ch-slots-random-etm", 0xe8a4be23801822a7, 0xe8a4be23801822a7, 0xaaed8a3712e09f31, 0xc658f5cc11a165b5),
    ("subst-auth-4ch-queued-wtr", 0x7a52947949fb62d4, 0x7a52947949fb62d4, 0xe732517ae23d9706, 0xfbbf865d63d7f25b),
    ("subst-auth-2ch-link", 0x2d60dc9d4d5967b9, 0x2d60dc9d4d5967b9, 0x110ca84aa2cf6307, 0x0d57fe8c1288b7b1),
    ("subst-auth-1ch-device", 0x8da44cef020756bd, 0x8da44cef020756bd, 0x0164f92146a419f7, 0xcd6f199c4347bffa),
    ("uniform-auth-1ch", 0x26fd9026dedaa72c, 0x26fd9026dedaa72c, 0xb9e8123d4f495eec, 0x35a491e978f827de),
    ("uniform-auth-1ch-starved", 0x0bcfc7630763d933, 0x0bcfc7630763d933, 0x08ea645d4fdbbf7e, 0x60377399ad67c20f),
    ("uniform-obf-4ch-slots-etm", 0x0973b37cb06172be, 0x0973b37cb06172be, 0xea57c13d9bfcb54c, 0x11c858e234006376),
    ("uniform-obf-2ch-ecb-etm", 0x6c0a60d11ae57635, 0x6c0a60d11ae57635, 0x2a3281e257931987, 0x94a6f88503ab7464),
    ("uniform-auth-2ch-queued-starved", 0x9094a9ce410aeede, 0x9094a9ce410aeede, 0x95424ad599f1ad29, 0xc9378850195de0c9),
    ("uniform-auth-1ch-link", 0x36154b15ee1f362a, 0x36154b15ee1f362a, 0x00abfdfcf045be5e, 0x9619818e95337385),
    ("uniform-obf-2ch-device", 0x6232e1492b7c2aab, 0x6232e1492b7c2aab, 0x55e531b9a4a3a0a1, 0x19b2343fd772f201),
];

fn counter(m: &MetricsNode, path: &str) -> u64 {
    m.counter(path).unwrap_or(0)
}

#[test]
fn every_request_path_matches_its_known_answers() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut reached = std::collections::BTreeMap::<&str, u64>::new();
    for c in cases() {
        let off = drive(&c, Observe::Off);
        let spans = drive(&c, Observe::Spans);
        let bus = drive(&c, Observe::Bus);
        assert_eq!(
            off.result, spans.result,
            "{}: the span recorder changed simulated results",
            c.name
        );
        assert_eq!(
            off.result, bus.result,
            "{}: the bus trace changed simulated results",
            c.name
        );
        let got = (c.name, off.result, bus.result, spans.spans, bus.events);
        table.push_str(&format!(
            "    (\"{}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}),\n",
            got.0, got.1, got.2, got.3, got.4
        ));
        match PINS.iter().find(|p| p.0 == c.name) {
            Some(pin) if *pin == got => {}
            _ => mismatches.push(c.name),
        }

        let m = &off.metrics;
        let mut hit = |what: &'static str, n: u64| *reached.entry(what).or_default() += n;
        hit("counter misses", counter(m, "crypto.counter_misses"));
        hit("pad stalls", counter(m, "crypto.pad_stall_ps"));
        hit("channel dummies", counter(m, "engine.channel_dummies"));
        hit(
            "dummy array writes",
            counter(m, "engine.dummy_array_writes"),
        );
        hit("substituted pairs", counter(m, "engine.substituted_pairs"));
        hit("link faults", counter(m, "link.faults_injected"));
        hit("link quarantines", counter(m, "link.quarantines"));
        hit("device faults", counter(m, "recovery.detected"));
        hit("device retries", counter(m, "recovery.retried"));
        hit("device resyncs", counter(m, "recovery.resynced"));
        hit("device migrations", counter(m, "recovery.migrated"));
        hit("device quarantines", counter(m, "recovery.quarantined"));
        match c.cfg.type_hiding {
            TypeHiding::SplitDummyWithSubstitution => {
                hit("substitution overflow writes", bus.paired_writes)
            }
            TypeHiding::UniformPackets => {
                hit("uniform pad stalls", counter(m, "crypto.pad_stall_ps"))
            }
            TypeHiding::SplitDummy => {}
        }
        hit("link recovery spans", spans.link_spans);
    }
    for (what, n) in &reached {
        assert!(*n > 0, "the covering set never reached {what}");
    }
    assert!(
        mismatches.is_empty(),
        "known answers differ for {mismatches:?}; recomputed table:\n{table}"
    );
}
