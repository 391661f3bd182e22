//! The three kinds of pass over a workload.
//!
//! * [`e2e`]: the untraced end-to-end pass whose host time is the
//!   headline; it only reads the clock at each point's first backend call
//!   and every 4096th after it.
//! * [`timers`]: times the calls into each layer's public functions from
//!   outside, and replays unprotected points' calls through a bare PCM
//!   device.
//! * [`traced`]: runs the real entry points (`run_point_observed` with a
//!   recording handle, or `run_cell`) for the simulated-time split and the
//!   layer counters.
//!
//! Every pass returns one [`Row`] per point; the caller checks that all
//! passes agree bit for bit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use obfusmem_core::config::SecurityLevel;
use obfusmem_cpu::core::{RunResult, TraceDrivenCore};
use obfusmem_cpu::stream::MissStream;
use obfusmem_cpu::workload::WorkloadSpec;
use obfusmem_crypto::aes::Aes128;
use obfusmem_crypto::ctr::CtrStream;
use obfusmem_crypto::mac::{MacEngine, MacHash};
use obfusmem_harness::measure::{run_point, run_point_nulltap, run_point_observed, Scheme};
use obfusmem_harness::serve::run_cell;
use obfusmem_obs::chrome::chrome_trace_json;
use obfusmem_obs::metrics::{MetricValue, MetricsNode};
use obfusmem_obs::trace::TraceHandle;
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::stats::Histogram;
use obfusmem_tenant::fabric::{tenant_handshake, tenant_stream_seed, SessionFabric};
use obfusmem_tenant::qos::TenantClass;

use crate::fold::{SpanFold, SPANS};
use crate::json::Json;
use crate::stats::CallHist;
use crate::workloads::{Cell, Plan, Point};
use crate::wrap::{Machine, Stamps, Timed};

/// Layer metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Calls per crypto micro-timer: enough to amortise the clock reads.
const MICRO_CALLS: usize = 16_384;

/// Events kept in the Chrome trace: the first few thousand requests of
/// one point, small enough to open in a browser.
const CHROME_EVENTS: usize = 20_000;

/// Instruction cap on the point the inert-tap A/B runs, so six runs of
/// it cost a fraction of a pass.
const NULLTAP_INSTRUCTIONS: u64 = 500_000;

/// One point's simulated outcome, reduced to integers so passes compare
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The point's label.
    pub label: String,
    /// Simulated requests: fills plus write-backs, or tenant requests
    /// served.
    pub requests: u64,
    /// Every result field, floats as their bit patterns.
    pub fields: Vec<(String, u64)>,
}

impl Row {
    fn point(label: &str, r: &RunResult) -> Row {
        Row {
            label: label.to_string(),
            requests: r.misses + r.writebacks,
            fields: vec![
                ("exec_ps".into(), r.exec_time.as_ps()),
                ("misses".into(), r.misses),
                ("writebacks".into(), r.writebacks),
                ("ipc".into(), r.ipc.to_bits()),
                ("fill_ns".into(), r.avg_fill_latency_ns.to_bits()),
                ("gap_ns".into(), r.avg_request_gap_ns.to_bits()),
            ],
        }
    }

    /// The integer fields of `run_cell`'s row that the fabric's report
    /// also yields.
    fn serve_fields() -> Vec<String> {
        let mut names: Vec<String> = [
            "served",
            "auth_failures",
            "rekeys",
            "storms",
            "writebacks",
            "starvation_promotions",
            "span_ns",
            "p50_ns",
            "p99_ns",
        ]
        .map(String::from)
        .to_vec();
        for class in TenantClass::ALL {
            names.push(format!("{}_served", class.name()));
            names.push(format!("{}_p99_ns", class.name()));
        }
        names
    }

    fn fabric(fabric: &SessionFabric) -> Row {
        let report = fabric.report();
        let (hist, _) = fabric.aggregate_latency();
        let mut values = vec![
            report.total_served,
            report.auth_failures,
            report.rekeys,
            report.storms,
            report.writebacks,
            report.starvation_promotions,
            report.span.as_ns(),
            hist.quantile(0.50).unwrap_or(0),
            hist.quantile(0.99).unwrap_or(0),
        ];
        for class in TenantClass::ALL {
            let idx = class.arb_class() as usize;
            values.push(report.class_served[idx]);
            values.push(report.class_p99_ns[idx]);
        }
        Row {
            label: "serve".into(),
            requests: report.total_served,
            fields: Row::serve_fields().into_iter().zip(values).collect(),
        }
    }

    fn serve_json(row: &Json) -> Result<Row, String> {
        let fields = Row::serve_fields()
            .into_iter()
            .map(|name| {
                let v = row
                    .get(&name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("serve row lacks integer field {name:?}"))?;
                Ok((name, v))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Row {
            label: "serve".into(),
            requests: fields[0].1,
            fields,
        })
    }

    /// A named field.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// One row per point, in plan order.
    pub rows: Vec<Row>,
    /// Host seconds of the pass (for the timers pass: its point loop).
    pub wall_s: f64,
    /// End-to-end passes: host seconds from each point's start to its
    /// first backend call (serve-churn: building the fabric).
    pub setup: Vec<f64>,
    /// End-to-end passes: host seconds of everything else, cut into
    /// segments that are the same work in every pass (every 4096 backend
    /// calls, or every serving chunk).
    pub work: Vec<f64>,
    /// Requests the layers reported as failed.
    pub failed: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn fabric_failed(fabric: &SessionFabric) -> u64 {
    fabric.auth_failures() + fabric.recovery_stats().map_or(0, |s| s.unrecovered)
}

/// One untraced end-to-end pass.
///
/// # Errors
///
/// Fabric construction or serving errors.
pub fn e2e(plan: &Plan) -> Result<PassOut, String> {
    let start = Instant::now();
    let mut out = PassOut::default();
    match plan {
        Plan::Points(points) => {
            for p in points {
                let t0 = Instant::now();
                let mut m = Machine::build(&p.spec);
                let mut probe = Stamps::new(m.backend());
                let r = TraceDrivenCore::new().run(
                    &p.spec.workload,
                    p.spec.instructions,
                    &mut probe,
                    p.spec.seed,
                );
                let mut cuts = probe.marks;
                m.finish();
                cuts.push(Instant::now());
                out.setup.push(cuts[0].duration_since(t0).as_secs_f64());
                out.work.extend(
                    cuts.windows(2)
                        .map(|w| w[1].duration_since(w[0]).as_secs_f64()),
                );
                let row = Row::point(&p.label, &r);
                out.failed += m.failed_requests(row.requests);
                out.rows.push(row);
            }
        }
        Plan::Serve(cell) => {
            let t0 = Instant::now();
            let cfg = cell
                .spec
                .fabric_config(cell.tenants, cell.churn)
                .map_err(|e| e.to_string())?;
            let mut fabric = SessionFabric::new(cfg).map_err(|e| e.to_string())?;
            out.setup.push(secs(t0));
            loop {
                let t = Instant::now();
                let served = fabric
                    .run_chunk(cell.spec.chunk)
                    .map_err(|e| e.to_string())?;
                out.work.push(secs(t));
                if served == 0 {
                    break;
                }
            }
            out.failed += fabric_failed(&fabric);
            out.rows.push(Row::fabric(&fabric));
        }
    }
    out.wall_s = secs(start);
    Ok(out)
}

/// Per-call host times of one layer, gathered across points.
#[derive(Debug, Default)]
struct CallTimes {
    reads: CallHist,
    write_ns: u64,
    writes: u64,
}

impl CallTimes {
    fn absorb(&mut self, t: &Timed<'_>) {
        self.reads.merge(&t.reads);
        self.write_ns += t.write_ns;
        self.writes += t.writes;
    }

    fn write_mean(&self) -> f64 {
        ratio(self.write_ns as f64, self.writes as f64)
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn put(v: &mut Values, name: impl Into<String>, value: f64) {
    v.insert(name.into(), value);
}

/// What the timers pass produced.
#[derive(Debug, Default)]
pub struct TimersOut {
    /// Rows and timings of the point loop.
    pub pass: PassOut,
    /// `host.*` layer metrics (and the serve fabric's row-hit ratio).
    pub values: Values,
    /// Fills the bare-device replay finished at other times.
    pub mismatches: Vec<String>,
}

/// The timers pass.
///
/// # Errors
///
/// Fabric construction or serving errors.
pub fn timers(plan: &Plan) -> Result<TimersOut, String> {
    match plan {
        Plan::Points(points) => Ok(timers_points(points)),
        Plan::Serve(cell) => timers_serve(cell),
    }
}

fn timers_points(points: &[Point]) -> TimersOut {
    let mut out = TimersOut::default();
    let core = TraceDrivenCore::new();
    let mut by_scheme: BTreeMap<&'static str, CallTimes> = BTreeMap::new();
    let mut by_mode: BTreeMap<&'static str, CallTimes> = BTreeMap::new();
    let (mut core_build, mut oram_build, mut setup, mut drain) = (0.0, 0.0, 0.0, 0.0);
    let (mut cpu_ns, mut requests) = (0u64, 0u64);
    let (mut replay_ns, mut replay_calls) = (0u64, 0u64);

    let start = Instant::now();
    for p in points {
        let t0 = Instant::now();
        let mut m = Machine::build(&p.spec);
        let built = secs(t0);
        let unprotected = p.spec.scheme == Scheme::Unprotected;
        let t1 = Instant::now();
        let mut timed = Timed::new(m.backend(), unprotected.then(|| p.spec.mem.clone()));
        let r = core.run(
            &p.spec.workload,
            p.spec.instructions,
            &mut timed,
            p.spec.seed,
        );
        let run_ns = u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let first = timed.first.expect("every point issues at least one fill");
        let setup_ns = u64::try_from(first.duration_since(t1).as_nanos()).unwrap_or(u64::MAX);
        let replay = timed.replay.take();
        let replayed_ns = replay.as_ref().map_or(0, |r| r.ns);
        cpu_ns += run_ns.saturating_sub(setup_ns + timed.backend_ns() + replayed_ns);
        setup += setup_ns as f64 / 1e9;
        match p.spec.scheme.security() {
            Some(_) => {
                core_build += built;
                by_scheme
                    .entry(p.spec.scheme.name())
                    .or_default()
                    .absorb(&timed);
            }
            None => {
                oram_build += built;
                by_mode
                    .entry(p.spec.oram_mode.name())
                    .or_default()
                    .absorb(&timed);
            }
        }
        let t2 = Instant::now();
        m.finish();
        drain += secs(t2);

        let row = Row::point(&p.label, &r);
        requests += row.requests;
        out.pass.failed += m.failed_requests(row.requests);
        if let Some(replay) = replay {
            replay_ns += replay.ns;
            replay_calls += replay.calls;
            if replay.diverged > 0 {
                out.pass.failed += replay.diverged;
                out.mismatches.push(format!(
                    "{}: {} fills replayed through PcmMemory::access finished at other times",
                    p.label, replay.diverged
                ));
            }
        }
        out.pass.rows.push(row);
    }
    out.pass.wall_s = secs(start);

    let v = &mut out.values;
    put(v, "host.cpu.setup_ms", setup * 1e3);
    put(
        v,
        "host.cpu.ns_per_req",
        ratio(cpu_ns as f64, requests as f64),
    );
    put(v, "host.core.build_ms", core_build * 1e3);
    put(v, "host.core.drain_ms", drain * 1e3);
    put(v, "host.oram.build_ms", oram_build * 1e3);
    for (scheme, t) in by_scheme {
        put(v, format!("host.core.read_ns.{scheme}"), t.reads.mean());
        put(
            v,
            format!("host.core.read_p99_ns.{scheme}"),
            t.reads.quantile(0.99),
        );
        put(v, format!("host.core.write_ns.{scheme}"), t.write_mean());
    }
    for (mode, t) in by_mode {
        put(v, format!("host.oram.read_ns.{mode}"), t.reads.mean());
        put(v, format!("host.oram.write_ns.{mode}"), t.write_mean());
    }
    put(
        v,
        "host.mem.access_ns",
        ratio(replay_ns as f64, replay_calls as f64),
    );

    let first = &points[0].spec;
    crypto_timers(&first.workload, first.seed, v);
    if let Some((pct, identical)) = null_tap_overhead(points) {
        put(v, "host.sec.null_tap_overhead_pct", pct);
        // Not a failure of these rows: the tap is an optional observer.
        // On multi-channel machines an attached tap pushes injected
        // dummies through the processor engine, which consumes pads and
        // shifts later pad stalls; the warning keeps that visible.
        if !identical {
            eprintln!(
                "# warning: run_point_nulltap differs from run_point (the tap is not passive)"
            );
        }
    }
    out
}

fn timers_serve(cell: &Cell) -> Result<TimersOut, String> {
    let mut out = TimersOut::default();
    let cfg = cell
        .spec
        .fabric_config(cell.tenants, cell.churn)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut fabric = SessionFabric::new(cfg.clone()).map_err(|e| e.to_string())?;
    let build = secs(start);
    let t = Instant::now();
    while fabric
        .run_chunk(cell.spec.chunk)
        .map_err(|e| e.to_string())?
        > 0
    {}
    let serve = secs(t);
    out.pass.wall_s = secs(start);
    out.pass.failed += fabric_failed(&fabric);
    let row = Row::fabric(&fabric);
    let v = &mut out.values;
    put(v, "host.tenant.build_ms", build * 1e3);
    put(
        v,
        "host.tenant.ns_per_req",
        ratio(serve * 1e9, row.requests as f64),
    );
    out.pass.rows.push(row);

    let t = Instant::now();
    for tenant in 0..cfg.tenants {
        black_box(tenant_handshake(&cfg, tenant).map_err(|e| e.to_string())?);
    }
    put(
        v,
        "host.tenant.handshake_us",
        secs(t) * 1e6 / cfg.tenants as f64,
    );

    let mut metrics = MetricsNode::new();
    fabric.observe_metrics(&mut metrics);
    let counter = |path: &str| metrics.counter(path).unwrap_or(0) as f64;
    put(
        v,
        "ratio.mem.row_hit",
        ratio(
            counter("fabric.qos.row_hits"),
            counter("fabric.qos.serviced"),
        ),
    );
    crypto_timers(cfg.workload_for(0), tenant_stream_seed(&cfg, 0), v);
    Ok(out)
}

/// Times the crypto layer's hot calls on inputs drawn from the workload:
/// a command MAC per fill address, an eight-pad CTR batch, and an AES key
/// expansion per address-derived key.
fn crypto_timers(workload: &WorkloadSpec, seed: u64, v: &mut Values) {
    let addrs: Vec<u64> = MissStream::new(workload.clone(), seed)
        .take_events(MICRO_CALLS)
        .iter()
        .map(|e| e.fill.as_u64())
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut key = [0u8; 16];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let per_call = |t: Instant| secs(t) * 1e9 / addrs.len() as f64;

    let mac = MacEngine::new(key, MacHash::Md5);
    let t = Instant::now();
    for (i, &addr) in addrs.iter().enumerate() {
        black_box(mac.command_tag((i & 1) as u8, black_box(addr), i as u64));
    }
    put(v, "host.crypto.mac_tag_ns", per_call(t));

    let mut stream = CtrStream::new(Aes128::new(&key), rng.next_u64());
    let t = Instant::now();
    for _ in &addrs {
        black_box(stream.next_pads::<8>());
    }
    put(v, "host.crypto.pad8_ns", per_call(t));

    let t = Instant::now();
    for &addr in &addrs {
        let mut k = key;
        k[..8].copy_from_slice(&addr.to_le_bytes());
        black_box(Aes128::new(black_box(&k)));
    }
    put(v, "host.crypto.aes_key_ns", per_call(t));
}

/// `run_point_nulltap` against `run_point`, interleaved, on the busiest
/// ObfusMem+Auth point (capped in length); the best of three each.
/// Returns the overhead and whether the results were identical.
fn null_tap_overhead(points: &[Point]) -> Option<(f64, bool)> {
    let busiest = points
        .iter()
        .filter(|p| p.spec.scheme == Scheme::ObfusmemAuth)
        .max_by_key(|p| p.spec.workload.misses_for(p.spec.instructions))?;
    let mut spec = busiest.spec.clone();
    spec.instructions = spec.instructions.min(NULLTAP_INSTRUCTIONS);
    let (mut plain_s, mut tap_s, mut identical) = (f64::MAX, f64::MAX, true);
    for _ in 0..3 {
        let t = Instant::now();
        let plain = run_point(&spec);
        plain_s = plain_s.min(secs(t));
        let t = Instant::now();
        let tapped = run_point_nulltap(&spec);
        tap_s = tap_s.min(secs(t));
        identical &= Row::point("", &plain) == Row::point("", &tapped);
    }
    Some((100.0 * (tap_s - plain_s) / plain_s, identical))
}

/// What the traced pass produced.
#[derive(Debug, Default)]
pub struct TracedOut {
    /// Rows and timing of the pass.
    pub pass: PassOut,
    /// `sim.*`, `count.*` and `ratio.*` metrics, plus `sim_p99_ns`.
    pub values: Values,
    /// Chrome trace of the first ObfusMem+Auth point (truncated).
    pub chrome: Option<String>,
    /// Span keys the recorder emitted that the report does not list.
    pub unlisted: Vec<String>,
}

/// The traced pass through the real entry points.
///
/// # Errors
///
/// Serve-cell errors, or a serve row that does not parse.
pub fn traced(plan: &Plan) -> Result<TracedOut, String> {
    match plan {
        Plan::Points(points) => Ok(traced_points(points)),
        Plan::Serve(cell) => traced_serve(cell),
    }
}

fn traced_points(points: &[Point]) -> TracedOut {
    let mut out = TracedOut::default();
    let mut fold = SpanFold::default();
    let mut merged = MetricsNode::new();
    let mut fill_latency = Histogram::new();
    let (mut exec_ps, mut counter_lookups) = (0u64, 0u64);
    let chrome_label = points
        .iter()
        .find(|p| p.spec.scheme == Scheme::ObfusmemAuth)
        .map(|p| p.label.as_str());

    let start = Instant::now();
    for p in points {
        let obs = TraceHandle::recording();
        let (r, metrics) = run_point_observed(&p.spec, &obs);
        // Spans are folded and dropped point by point, so memory stays
        // bounded by the largest point.
        let events = obs.finish();
        fold.add(&events);
        if chrome_label == Some(p.label.as_str()) {
            let kept = events[..events.len().min(CHROME_EVENTS)].to_vec();
            out.chrome = Some(chrome_trace_json(&[(p.label.clone(), kept)]));
        }
        drop(events);

        let row = Row::point(&p.label, &r);
        exec_ps += r.exec_time.as_ps();
        let counter = |path: &str| metrics.counter(path).unwrap_or(0);
        out.pass.failed +=
            if counter("link.counters_converged") == 0 && metrics.get_child("link").is_some() {
                row.requests
            } else {
                (counter("link.unrecovered") + counter("recovery.unrecovered")).min(row.requests)
            };
        let encrypts = p
            .spec
            .scheme
            .security()
            .is_some_and(|s| s != SecurityLevel::Unprotected);
        if encrypts {
            counter_lookups += counter("engine.real_reads") + counter("engine.real_writes");
        }
        if let Some(MetricValue::Histogram(h)) = metrics.value("core.fill_latency_ns") {
            fill_latency.merge(h);
        }
        merged.merge(&metrics);
        out.pass.rows.push(row);
    }
    out.pass.wall_s = secs(start);
    out.unlisted = fold.unlisted();

    let m = |path: &str| merged.counter(path).unwrap_or(0) as f64;
    let fills = m("core.misses");
    let v = &mut out.values;
    for (kind, name) in SPANS {
        let ns = fold.total_ps(kind, name) as f64 / 1e3;
        put(v, format!("sim.{kind}.{name}_ns"), ratio(ns, fills));
    }
    put(v, "sim.exec_ms", exec_ps as f64 / 1e9);
    put(
        v,
        "sim_p99_ns",
        fill_latency.quantile(0.99).unwrap_or(0) as f64,
    );
    put(v, "count.core.fills", fills);
    put(v, "count.core.writebacks", m("core.writebacks"));
    put(v, "count.cache.mshr_stalls", m("cache.mshr.stalls"));
    let dummies = m("engine.paired_dummies") + m("engine.channel_dummies");
    let real = m("engine.real_reads") + m("engine.real_writes");
    put(v, "count.engine.paired_dummies", m("engine.paired_dummies"));
    put(
        v,
        "count.engine.channel_dummies",
        m("engine.channel_dummies"),
    );
    put(
        v,
        "ratio.engine.dummy_share",
        ratio(dummies, dummies + real),
    );
    let misses = m("crypto.counter_misses");
    put(v, "count.crypto.counter_misses", misses);
    let lookups = counter_lookups as f64;
    put(
        v,
        "ratio.crypto.counter_cache_hit",
        ratio(lookups - misses, lookups),
    );
    put(v, "count.mem.array_reads", m("mem.array_reads"));
    put(v, "count.mem.array_writes", m("mem.array_writes"));
    let (mut hits, mut accesses) = (0.0, 0.0);
    if let Some(mem) = merged.get_child("mem") {
        for (_, ch) in mem.children().filter(|(n, _)| n.starts_with("ch")) {
            let c = |k: &str| ch.counter(k).unwrap_or(0) as f64;
            hits += c("row_hits");
            accesses += c("reads") + c("writes");
        }
    }
    put(v, "ratio.mem.row_hit", ratio(hits, accesses));
    put(v, "count.link.retransmits", m("link.retransmits"));
    put(v, "count.link.resyncs", m("link.resyncs"));
    put(v, "count.recovery.detected", m("recovery.detected"));
    put(v, "count.recovery.retried", m("recovery.retried"));
    put(v, "count.recovery.unrecovered", m("recovery.unrecovered"));
    put(v, "count.oram.accesses", m("oram.accesses"));
    put(
        v,
        "ratio.oram.blocks_per_access",
        ratio(m("oram.blocks_read"), m("oram.accesses")),
    );
    out
}

fn traced_serve(cell: &Cell) -> Result<TracedOut, String> {
    let mut out = TracedOut::default();
    let start = Instant::now();
    let outcome =
        run_cell(&cell.spec, cell.tenants, cell.churn, true).map_err(|e| e.to_string())?;
    out.pass.wall_s = secs(start);
    out.pass.failed += outcome.auth_failures + outcome.unrecovered;
    let row = Json::parse(&outcome.row).map_err(|e| format!("serve row: {e}"))?;
    let f = |name: &str| row.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let v = &mut out.values;
    put(v, "sim.exec_ms", f("span_ns") / 1e6);
    put(v, "sim_p99_ns", f("p99_ns"));
    put(v, "sim.tenant.p50_ns", f("p50_ns"));
    for class in TenantClass::ALL {
        let name = format!("{}_p99_ns", class.name());
        put(v, format!("sim.tenant.{name}"), f(&name));
    }
    put(v, "sim.tenant.throughput_mrps", f("throughput_mrps"));
    put(v, "count.tenant.rekeys", f("rekeys"));
    put(v, "count.tenant.storms", f("storms"));
    put(v, "count.tenant.auth_failures", f("auth_failures"));
    out.pass.rows.push(Row::serve_json(&row)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{fig4_paper, table3_oram};
    use obfusmem_harness::serve::ServeSpec;

    #[test]
    fn all_passes_agree_on_micro_points() {
        let points: Vec<Point> = fig4_paper(20_000, 3)
            .into_iter()
            .filter(|p| p.spec.workload.name == "mcf")
            .chain(
                table3_oram(20_000, 3)
                    .into_iter()
                    .filter(|p| p.spec.workload.name == "mcf"),
            )
            .collect();
        let plan = Plan::Points(points);
        let e = e2e(&plan).expect("e2e");
        let t = timers(&plan).expect("timers");
        let tr = traced(&plan).expect("traced");
        assert_eq!(e.rows, t.pass.rows);
        assert_eq!(e.rows, tr.pass.rows);
        assert!(t.mismatches.is_empty(), "{:?}", t.mismatches);
        assert_eq!(e.failed + t.pass.failed + tr.pass.failed, 0);
        assert_eq!(e.setup.len(), e.rows.len());
        let spent: f64 = e.setup.iter().chain(&e.work).sum();
        assert!(spent > 0.0 && spent <= e.wall_s, "segments tile the pass");
        assert!(tr.values["sim.core.fill_ns"] > 0.0);
        assert!(tr.values["count.oram.accesses"] > 0.0);
        assert!(t.values["host.mem.access_ns"] > 0.0);
        assert!(tr.chrome.is_some());
        assert!(tr.unlisted.is_empty(), "{:?}", tr.unlisted);
    }

    #[test]
    fn serve_passes_agree_with_run_cell() {
        let plan = Plan::Serve(Cell {
            spec: ServeSpec {
                tenants: vec![6],
                churns: vec![4],
                channels: 2,
                requests: 40,
                storm_period: 32,
                ..ServeSpec::default()
            },
            tenants: 6,
            churn: 4,
        });
        let e = e2e(&plan).expect("e2e");
        let t = timers(&plan).expect("timers");
        let tr = traced(&plan).expect("traced");
        assert_eq!(e.rows, t.pass.rows);
        assert_eq!(e.rows, tr.pass.rows);
        assert_eq!(e.rows[0].requests, 240);
        assert!(tr.values["count.tenant.rekeys"] > 0.0);
        assert!(t.values["host.tenant.handshake_us"] > 0.0);
    }
}
