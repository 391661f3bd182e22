//! Printing, the per-run result file, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use obfusmem_obs::json::{push_f64, push_string};

use crate::json::Json;
use crate::metrics::{end_to_end, is_deterministic, per_layer, Def};
use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// What it is.
    pub def: Def,
    /// The reported value.
    pub value: f64,
    /// The per-pass values it was taken from (empty for one-shot values).
    pub passes: Vec<f64>,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs derive from.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: u64,
    /// Hash of every result row.
    pub sim_digest: String,
    /// No check failed.
    pub correct: bool,
    /// Simulated requests over every pass.
    pub attempted: u64,
    /// Failed requests over every pass.
    pub failed: u64,
    /// End-to-end metrics, in catalog order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in catalog order.
    pub per_layer: Vec<Metric>,
}

/// The directory results are written to: `out/` beside this crate's
/// manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn push_list(s: &mut String, values: &[f64]) {
    s.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(s, *v);
    }
    s.push(']');
}

impl Report {
    /// Human-readable lines: every metric by name, with its unit.
    pub fn human(&self) -> String {
        let mut s = String::new();
        let passes = self.end_to_end[0].passes.len();
        let _ = writeln!(
            s,
            "workload  {} (seed {}, warm-up + {passes} end-to-end passes + timers pass + traced pass)",
            self.workload, self.seed
        );
        let _ = writeln!(s, "sim_digest  {}", self.sim_digest);
        let _ = writeln!(
            s,
            "correct  {} ({} of {} simulated requests failed)",
            self.correct, self.failed, self.attempted
        );
        let _ = writeln!(s, "end-to-end metrics (value; per-pass median [q1, q3] n):");
        for m in &self.end_to_end {
            let _ = write!(
                s,
                "  {:<34} {:>16.6} {:<8}",
                m.def.name, m.value, m.def.unit
            );
            if !m.passes.is_empty() {
                let p = Summary::of(&m.passes);
                let _ = write!(
                    s,
                    " passes {:.6} [{:.6}, {:.6}] n={}",
                    p.median, p.q1, p.q3, p.n
                );
            }
            s.push('\n');
        }
        let _ = writeln!(s, "per-layer metrics:");
        for m in &self.per_layer {
            let _ = writeln!(s, "  {:<34} {:>16.6} {}", m.def.name, m.value, m.def.unit);
        }
        s
    }

    /// The result file of the run.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"workload\":");
        push_string(&mut s, &self.workload);
        let _ = write!(
            s,
            ",\"seed\":{},\"seconds\":{},\"sim_digest\":",
            self.seed, self.seconds
        );
        push_string(&mut s, &self.sim_digest);
        let _ = write!(
            s,
            ",\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.end_to_end.iter().chain(&self.per_layer).enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_string(&mut s, &m.def.name);
            s.push_str(":{\"unit\":");
            push_string(&mut s, m.def.unit);
            s.push_str(",\"value\":");
            push_f64(&mut s, m.value);
            if !m.passes.is_empty() {
                s.push_str(",\"passes\":");
                push_list(&mut s, &m.passes);
            }
            s.push('}');
        }
        s.push_str("}}\n");
        s
    }

    /// The last stdout line: the end-to-end metrics, or the per-layer
    /// ones when `trace` is set.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_string(&mut s, &m.def.name);
            s.push_str(":{\"value\":");
            push_f64(&mut s, m.value);
            s.push_str(",\"unit\":");
            push_string(&mut s, m.def.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// A metric's bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Bound {
    bound: f64,
    higher_is_better: bool,
}

fn load_bounds() -> Result<BTreeMap<String, Bound>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(better)) => Ok((
                    n.to_string(),
                    Bound {
                        bound: b,
                        higher_is_better: better == "higher",
                    },
                )),
                _ => Err(format!(
                    "malformed end_to_end entry in BENCHMARK.json: {m:?}"
                )),
            }
        })
        .collect()
}

/// Result files under `path` (the file itself, or every `.json` in a
/// directory except Chrome traces), grouped by workload.
fn load_set(path: &Path) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".json") && !name.ends_with(".trace.json")
            })
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: not a benchmark result file", f.display()))?
            .to_string();
        out.entry(workload).or_default().push(json);
    }
    Ok(out)
}

fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn seed(run: &Json) -> Option<u64> {
    run.get("seed").and_then(Json::as_u64)
}

/// How one end-to-end metric moved from set A to set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse by more than the bound.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// Judges `b` against `a` under `bound` (a share of `a`'s median).
/// Returns the signed change of the median and the verdict.
pub fn verdict(a: &Summary, b: &Summary, bound: f64, higher_is_better: bool) -> (f64, Verdict) {
    let change = (b.median - a.median) / a.median;
    let worsening = if higher_is_better { -change } else { change };
    let v = if a.rel_iqr().max(b.rel_iqr()) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (change, v)
}

/// Runs of one workload on both sides that share a seed must agree
/// exactly on the digest and every deterministic metric. Returns what
/// differed, and how many seeds were compared.
fn deterministic_diffs(a: &[Json], b: &[Json]) -> (Vec<String>, usize) {
    let mut diffs = Vec::new();
    let mut seeds = 0;
    for ra in a {
        let Some(rb) = b.iter().find(|rb| seed(rb) == seed(ra)) else {
            continue;
        };
        seeds += 1;
        let s = seed(ra).unwrap_or_default();
        if ra.get("sim_digest") != rb.get("sim_digest") {
            diffs.push(format!("sim_digest (seed {s})"));
        }
        for d in per_layer()
            .into_iter()
            .filter(|d| is_deterministic(&d.name))
        {
            let bits = |r: &Json| value(r, &d.name).map(f64::to_bits);
            if bits(ra) != bits(rb) {
                diffs.push(format!("{} (seed {s})", d.name));
            }
        }
    }
    (diffs, seeds)
}

/// Compares two sets of runs (result files, or directories of them) and
/// prints, per workload and end-to-end metric, each side's median and
/// quartiles over its runs and a verdict under `BENCHMARK.json`'s bounds.
/// Returns false when a metric got worse beyond its bound or a
/// deterministic result differs on a shared seed.
///
/// # Errors
///
/// Unreadable or malformed files, or no workload on both sides.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let bounds = load_bounds()?;
    let (a_set, b_set) = (load_set(a_path)?, load_set(b_path)?);
    let mut ok = true;
    let mut compared = 0;
    let fmt = |s: &Summary| format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n);
    for (workload, a_runs) in &a_set {
        let Some(b_runs) = b_set.get(workload) else {
            println!("{workload}: only in {}", a_path.display());
            continue;
        };
        compared += 1;
        println!("== {workload}");
        for d in end_to_end() {
            let collect = |runs: &[Json]| -> Option<Vec<f64>> {
                runs.iter().map(|r| value(r, &d.name)).collect()
            };
            let (Some(va), Some(vb)) = (collect(a_runs), collect(b_runs)) else {
                println!("  {:<14} missing from a result file", d.name);
                ok = false;
                continue;
            };
            let bound = bounds
                .get(&d.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", d.name))?;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let (change, v) = verdict(&sa, &sb, bound.bound, bound.higher_is_better);
            ok &= v != Verdict::Worse;
            println!(
                "  {:<14} A {}  B {}  change {:+.2}%  bound {:.0}%  {}",
                d.name,
                fmt(&sa),
                fmt(&sb),
                100.0 * change,
                100.0 * bound.bound,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
        let (diffs, seeds) = deterministic_diffs(a_runs, b_runs);
        if seeds == 0 {
            println!("  deterministic metrics and sim_digest: no seed run on both sides");
        } else if diffs.is_empty() {
            println!("  deterministic metrics and sim_digest: identical on {seeds} shared seed(s)");
        } else {
            ok = false;
            println!("  deterministic results DIFFER: {}", diffs.join(", "));
        }
    }
    if compared == 0 {
        return Err("no workload appears on both sides".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = Summary::of(&[1.00, 1.01, 0.99, 1.00, 1.00]);
        let slower = Summary::of(&[1.20, 1.21, 1.19, 1.20, 1.20]);
        let same = Summary::of(&[1.01, 1.00, 1.02, 1.01, 1.01]);
        let noisy = Summary::of(&[0.7, 1.3, 1.0, 0.8, 1.2]);
        assert_eq!(verdict(&a, &same, 0.05, false).1, Verdict::Within);
        assert_eq!(verdict(&a, &slower, 0.05, false).1, Verdict::Worse);
        // Higher-is-better: a 20% drop in throughput is worse.
        assert_eq!(verdict(&slower, &a, 0.05, true).1, Verdict::Worse);
        assert_eq!(verdict(&a, &slower, 0.05, true).1, Verdict::Within);
        assert_eq!(verdict(&a, &noisy, 0.05, false).1, Verdict::Unresolved);
    }

    #[test]
    fn shared_seeds_must_agree_exactly() {
        let run = |seed: u64, digest: &str, p99: f64| {
            Json::parse(&format!(
                r#"{{"seed":{seed},"sim_digest":"{digest}","metrics":{{"sim_p99_ns":{{"value":{p99}}}}}}}"#
            ))
            .expect("valid")
        };
        let a = [run(1, "aa", 10.0), run(2, "bb", 20.0)];
        let (diffs, seeds) = deterministic_diffs(&a, &[run(2, "bb", 20.0), run(3, "cc", 1.0)]);
        assert_eq!((diffs.len(), seeds), (0, 1));
        let (diffs, _) = deterministic_diffs(&a, &[run(1, "ab", 11.0)]);
        assert_eq!(diffs, vec!["sim_digest (seed 1)", "sim_p99_ns (seed 1)"]);
    }
}
