//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names the axes of a cartesian grid plus the master
//! seed and instruction budget. [`SweepSpec::expand`] flattens it into
//! the canonical job list; the axis order is stated once, at [`Axes`].
//!
//! Specs can also be read from a tiny `key = value` text format (see
//! [`SweepSpec::parse`]), documented in `EXPERIMENTS.md`. Every key is
//! also a `sweep` flag ([`flag_key`]), and both set it through
//! [`SweepSpec::set`]:
//!
//! ```text
//! # Table 3 grid, 3 seeds per point
//! workloads    = all
//! schemes      = unprotected, obfusmem, obfusmem-auth, oram
//! channels     = 1
//! replicates   = 3
//! master_seed  = 0xB0B
//! instructions = 2000000
//! ```

use std::collections::HashSet;
use std::str::FromStr;

use obfusmem_core::link::{FaultKind, ALL_FAULT_KINDS};
use obfusmem_cpu::workload::table1_workloads;
use obfusmem_mem::config::BackendKind;
use obfusmem_mem::fault::{DeviceFaultKind, ALL_DEVICE_FAULT_KINDS};

use crate::job::{derive_seed, JobSpec};
use crate::measure::{workload_by_name, LeakagePoint, OramMode, Scheme};

/// A cartesian sweep over the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Workload names (`all` in the text format expands to Table 1).
    pub workloads: Vec<String>,
    /// Protection schemes.
    pub schemes: Vec<Scheme>,
    /// Channel counts (powers of two).
    pub channels: Vec<usize>,
    /// Memory-controller models to sweep. The default is the single
    /// reservation backend, which contributes no id segment — so sweeps
    /// written before this axis existed expand to the same job list.
    pub backends: Vec<BackendKind>,
    /// Seeds per grid point.
    pub replicates: u32,
    /// Master seed every job seed derives from.
    pub master_seed: u64,
    /// Instruction budget per job.
    pub instructions: u64,
    /// Fault kinds to sweep. Empty (the default) runs every point
    /// fault-free, exactly as before this axis existed.
    pub fault_kinds: Vec<FaultKind>,
    /// Per-packet fault rates, crossed with `fault_kinds`.
    pub fault_rates: Vec<f64>,
    /// Master seed for the fault-injection streams (kept separate from
    /// `master_seed` so turning faults on does not perturb workloads).
    pub fault_seed: u64,
    /// Device (array) fault kinds to sweep. Empty (the default) runs
    /// every point with the device fault overlay disengaged, exactly as
    /// before this axis existed.
    pub device_fault_kinds: Vec<DeviceFaultKind>,
    /// Device fault rates, crossed with `device_fault_kinds`.
    pub device_fault_rates: Vec<f64>,
    /// Master seed for the device-fault streams.
    pub device_fault_seed: u64,
    /// Leakage-attacker analysis windows (real accesses per Membuster
    /// recovery window). Empty (the default) runs every point without
    /// the attacker, exactly as before this axis existed.
    pub leakage_windows: Vec<usize>,
    /// Cache-squeeze factors, crossed with `leakage_windows` (1.0 = no
    /// squeezing).
    pub leakage_squeezes: Vec<f64>,
    /// ORAM backend modes to sweep. Only the `oram` scheme fans out over
    /// this axis — other schemes always expand to a single row. The
    /// default (`[fixed]`) keeps the historical fixed-latency model and
    /// contributes no id segment, so pre-mode sweeps expand to the same
    /// job list byte for byte.
    pub oram_modes: Vec<OramMode>,
}

impl Default for SweepSpec {
    /// The acceptance grid: all 15 Table 1 workloads × the Table 3 scheme
    /// set (with the unprotected baseline), one channel, one replicate.
    fn default() -> Self {
        SweepSpec {
            workloads: parse_workloads("all"),
            schemes: Scheme::TABLE3.to_vec(),
            channels: vec![1],
            backends: vec![BackendKind::Reservation],
            replicates: 1,
            master_seed: 0x0B_F0_5E_ED,
            instructions: 2_000_000,
            fault_kinds: Vec::new(),
            fault_rates: vec![1e-3],
            fault_seed: 0xFA_017,
            device_fault_kinds: Vec::new(),
            device_fault_rates: vec![1e-3],
            device_fault_seed: 0xD_F0_17,
            leakage_windows: Vec::new(),
            leakage_squeezes: vec![1.0],
            oram_modes: vec![OramMode::Fixed],
        }
    }
}

/// The largest LLC MPKI a cache squeeze may lift a workload to: one miss
/// per instruction.
const MAX_SQUEEZED_MPKI: f64 = 1000.0;

/// A malformed or unsatisfiable spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// One two-part grid axis in canonical order: `kinds × rates`, kind
/// major, each pair built by `point`; or the single `None` point (the
/// axis disengaged) when no kind is swept.
fn cross<K: Copy, R: Copy, P>(
    kinds: &[K],
    rates: &[R],
    point: impl Fn(K, R) -> P,
) -> Vec<Option<P>> {
    if kinds.is_empty() {
        return vec![None];
    }
    let point = &point;
    kinds
        .iter()
        .flat_map(|&k| rates.iter().map(move |&r| Some(point(k, r))))
        .collect()
}

/// The expansion table: a grid's values on each axis, in canonical
/// order, slowest first — workload, scheme and ORAM mode (only the
/// `oram` scheme fans out over modes), channels, backend, link fault,
/// device fault, leakage, replicate. That order is part of the format:
/// result files are written in it, and resume compares against it.
struct Axes<'a> {
    workloads: &'a [String],
    schemes: Vec<(Scheme, OramMode)>,
    channels: &'a [usize],
    backends: &'a [BackendKind],
    faults: Vec<Option<(FaultKind, f64)>>,
    device_faults: Vec<Option<(DeviceFaultKind, f64)>>,
    leakage: Vec<Option<LeakagePoint>>,
    replicates: u32,
}

impl Axes<'_> {
    fn radices(&self) -> [usize; 8] {
        [
            self.workloads.len(),
            self.schemes.len(),
            self.channels.len(),
            self.backends.len(),
            self.faults.len(),
            self.device_faults.len(),
            self.leakage.len(),
            self.replicates as usize,
        ]
    }

    fn len(&self) -> usize {
        self.radices().iter().product()
    }

    /// The axis values of grid position `i`, read as a mixed-radix
    /// number with the replicate as its last digit. Id and seeds are
    /// left for [`SweepSpec::expand`] to derive.
    fn job(&self, mut i: usize, instructions: u64) -> JobSpec {
        let mut digits = [0; 8];
        for (digit, radix) in digits.iter_mut().zip(self.radices()).rev() {
            *digit = i % radix;
            i /= radix;
        }
        let [w, s, c, b, f, d, l, r] = digits;
        let (scheme, oram_mode) = self.schemes[s];
        JobSpec {
            id: String::new(),
            workload: self.workloads[w].clone(),
            scheme,
            channels: self.channels[c],
            backend: self.backends[b],
            instructions,
            replicate: r as u32,
            seed: 0,
            fault: self.faults[f],
            fault_seed: 0,
            device_fault: self.device_faults[d],
            device_fault_seed: 0,
            leakage: self.leakage[l],
            oram_mode,
        }
    }
}

/// Checks a fault axis's rates: at least one, each in `(0, 1]`.
fn check_rates(rates: &[f64], what: &str) -> Result<(), SpecError> {
    if rates.is_empty() {
        return Err(err(format!("{what} kinds given but no {what} rates")));
    }
    if let Some(r) = rates.iter().find(|&&r| !(r > 0.0 && r <= 1.0)) {
        return Err(err(format!("{what} rate must be in (0, 1], got {r}")));
    }
    Ok(())
}

impl SweepSpec {
    /// Number of jobs the grid expands to.
    pub fn job_count(&self) -> usize {
        self.axes().len()
    }

    fn axes(&self) -> Axes<'_> {
        let modes_for = |scheme| match scheme {
            // A non-ORAM scheme has no ORAM path to re-model.
            Scheme::OramModel => self.oram_modes.as_slice(),
            _ => &[OramMode::Fixed],
        };
        Axes {
            workloads: &self.workloads,
            schemes: self
                .schemes
                .iter()
                .flat_map(|&s| modes_for(s).iter().map(move |&m| (s, m)))
                .collect(),
            channels: &self.channels,
            backends: &self.backends,
            faults: cross(&self.fault_kinds, &self.fault_rates, |k, r| (k, r)),
            device_faults: cross(
                &self.device_fault_kinds,
                &self.device_fault_rates,
                |k, r| (k, r),
            ),
            leakage: cross(
                &self.leakage_windows,
                &self.leakage_squeezes,
                |window, squeeze| LeakagePoint { window, squeeze },
            ),
            replicates: self.replicates,
        }
    }

    /// Rejects an empty or unsatisfiable axis.
    fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty() {
            return Err(err("no workloads"));
        }
        if self.schemes.is_empty() {
            return Err(err("no schemes"));
        }
        if self.channels.is_empty() {
            return Err(err("no channel counts"));
        }
        if self.replicates == 0 {
            return Err(err("replicates must be at least 1"));
        }
        if self.instructions == 0 {
            return Err(err("instructions must be at least 1"));
        }
        if let Some(w) = self
            .workloads
            .iter()
            .find(|w| workload_by_name(w).is_none())
        {
            return Err(err(format!("unknown workload {w:?}")));
        }
        if let Some(c) = self.channels.iter().find(|c| !c.is_power_of_two()) {
            return Err(err(format!("channels must be a power of two, got {c}")));
        }
        if self.backends.is_empty() {
            return Err(err("no backends"));
        }
        if self.backends.contains(&BackendKind::Queued) && self.schemes.contains(&Scheme::OramModel)
        {
            // The ORAM model replaces the memory path entirely; a queued
            // point there would silently run no controller at all.
            return Err(err(
                "the oram scheme has no memory controller to run the queued backend on",
            ));
        }
        if self.oram_modes.is_empty() {
            return Err(err("no oram modes"));
        }
        let has_detailed_mode = self.oram_modes.iter().any(|&m| m != OramMode::Fixed);
        if has_detailed_mode && !self.schemes.contains(&Scheme::OramModel) {
            // Every non-oram scheme ignores the mode, so the axis would
            // silently sweep nothing.
            return Err(err(
                "oram modes other than `fixed` require the oram scheme in the grid",
            ));
        }
        if has_detailed_mode && !self.leakage_windows.is_empty() {
            // The attacker's ORAM lane replays through its own tree tied
            // to the fixed model; a detailed-mode leakage row would
            // silently measure the wrong machine.
            return Err(err(
                "the leakage attacker only supports the fixed oram mode",
            ));
        }
        if !self.fault_kinds.is_empty() {
            check_rates(&self.fault_rates, "fault")?;
            // Unprotected/EncryptOnly bypass the obfuscated link and the
            // ORAM model replaces the memory path entirely — a fault sweep
            // there would silently inject nothing.
            let linkless = |s: &&Scheme| !matches!(s, Scheme::Obfusmem | Scheme::ObfusmemAuth);
            if let Some(scheme) = self.schemes.iter().find(linkless) {
                return Err(err(format!(
                    "scheme {scheme} has no ObfusMem link to inject faults into"
                )));
            }
        }
        if !self.device_fault_kinds.is_empty() {
            check_rates(&self.device_fault_rates, "device fault")?;
            // Unlike link faults, device faults live in the array itself,
            // so every scheme with a real memory path can host them. Only
            // the ORAM model — which replaces the memory path — cannot.
            if self.schemes.contains(&Scheme::OramModel) {
                return Err(err(
                    "the oram scheme has no memory array to inject device faults into",
                ));
            }
        }
        if !self.leakage_windows.is_empty() {
            if self.leakage_windows.contains(&0) {
                return Err(err("leakage window must be at least 1"));
            }
            if self.leakage_squeezes.is_empty() {
                return Err(err("leakage windows given but no leakage squeezes"));
            }
            if let Some(s) = self
                .leakage_squeezes
                .iter()
                .find(|s| !(s.is_finite() && **s >= 1.0))
            {
                return Err(err(format!("leakage squeeze must be >= 1.0, got {s}")));
            }
            // A squeeze multiplies the workload's LLC MPKI. Past one miss
            // per instruction the run would issue more misses than it
            // retires instructions, and a large factor never finishes.
            for w in &self.workloads {
                let mpki = workload_by_name(w).map_or(0.0, |spec| spec.llc_mpki);
                if let Some(s) = self
                    .leakage_squeezes
                    .iter()
                    .find(|&&s| mpki * s > MAX_SQUEEZED_MPKI)
                {
                    return Err(err(format!(
                        "leakage squeeze {s} lifts workload {w:?} from {mpki} to {} MPKI; \
                         at most {MAX_SQUEEZED_MPKI} (one LLC miss per instruction)",
                        mpki * s
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates the axes and expands the grid in canonical order. A
    /// grid that names one job twice (a repeated channel count, or two
    /// spellings of one rate such as `0.001` and `1e-3`) is rejected:
    /// resume would take both for one job.
    pub fn expand(&self) -> Result<Vec<JobSpec>, SpecError> {
        self.validate()?;
        let axes = self.axes();
        let mut ids = HashSet::new();
        let mut jobs = Vec::with_capacity(axes.len());
        for i in 0..axes.len() {
            let mut job = axes.job(i, self.instructions);
            job.id = job.axis_id();
            if !ids.insert(job.id.clone()) {
                return Err(err(format!("duplicate job id {:?}", job.id)));
            }
            job.seed = derive_seed(self.master_seed, &job.id);
            if job.fault.is_some() {
                job.fault_seed = derive_seed(self.fault_seed, &job.id);
            }
            if job.device_fault.is_some() {
                job.device_fault_seed = derive_seed(self.device_fault_seed, &job.id);
            }
            jobs.push(job);
        }
        Ok(jobs)
    }

    /// Sets one key from its text value. This is the only place a key
    /// maps to a field: spec files ([`SweepSpec::parse`]) and `sweep`
    /// flags ([`flag_key`]) both come through here.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "workloads" => self.workloads = parse_workloads(value),
            "schemes" => self.schemes = parse_schemes(value)?,
            "channels" => self.channels = parse_list(value, "channel count")?,
            "backends" => self.backends = parse_backends(value)?,
            "oram_modes" => self.oram_modes = parse_oram_modes(value)?,
            "replicates" => self.replicates = parse_as(value, "replicates")?,
            "master_seed" => self.master_seed = parse_u64(value)?,
            "instructions" => self.instructions = parse_u64(value)?,
            "fault_kinds" => self.fault_kinds = parse_fault_kinds(value)?,
            "fault_rates" => self.fault_rates = parse_list(value, "fault rate")?,
            "fault_seed" => self.fault_seed = parse_u64(value)?,
            "device_fault_kinds" => self.device_fault_kinds = parse_device_fault_kinds(value)?,
            "device_fault_rates" => {
                self.device_fault_rates = parse_list(value, "device fault rate")?
            }
            "device_fault_seed" => self.device_fault_seed = parse_u64(value)?,
            "leakage_windows" => self.leakage_windows = parse_list(value, "leakage window")?,
            "leakage_squeezes" => self.leakage_squeezes = parse_list(value, "leakage squeeze")?,
            other => return Err(err(format!("unknown key {other:?}"))),
        }
        Ok(())
    }

    /// Parses the `key = value` text format. Unknown keys are errors (a
    /// typo silently ignored would silently change a sweep).
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut spec = SweepSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("line {}: expected `key = value`", lineno + 1)))?;
            spec.set(key.trim(), value.trim())?;
        }
        Ok(spec)
    }
}

/// The spec key a `sweep` flag sets: `--foo-bar` sets `foo_bar`, and
/// `--backend`, `--oram-mode` and `-n` are aliases of `backends`,
/// `oram_modes` and `instructions`. `None` for an argument that is not a
/// flag.
pub fn flag_key(flag: &str) -> Option<String> {
    match flag {
        "-n" => Some("instructions".into()),
        "--backend" => Some("backends".into()),
        "--oram-mode" => Some("oram_modes".into()),
        _ => flag.strip_prefix("--").map(|key| key.replace('-', "_")),
    }
}

fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|v| !v.is_empty())
}

/// One value; `what` names it in the error.
fn parse_as<T: FromStr>(value: &str, what: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| err(format!("bad {what} {value:?}")))
}

/// A comma list of values.
fn parse_list<T: FromStr>(value: &str, what: &str) -> Result<Vec<T>, SpecError> {
    split_list(value).map(|v| parse_as(v, what)).collect()
}

/// A comma list of names, or `all` for every value of `all`.
fn parse_names<T: Copy>(
    value: &str,
    all: &[T],
    parse: fn(&str) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, SpecError> {
    if value == "all" {
        return Ok(all.to_vec());
    }
    split_list(value)
        .map(|v| parse(v).ok_or_else(|| err(format!("unknown {what} {v:?}"))))
        .collect()
}

/// `all` → the Table 1 set; otherwise a comma list of names (checked
/// by [`SweepSpec::expand`]).
fn parse_workloads(value: &str) -> Vec<String> {
    if value == "all" {
        table1_workloads()
            .iter()
            .map(|w| w.name.to_string())
            .collect()
    } else {
        split_list(value).map(str::to_string).collect()
    }
}

fn parse_fault_kinds(value: &str) -> Result<Vec<FaultKind>, SpecError> {
    parse_names(value, &ALL_FAULT_KINDS, FaultKind::parse, "fault kind")
}

fn parse_device_fault_kinds(value: &str) -> Result<Vec<DeviceFaultKind>, SpecError> {
    parse_names(
        value,
        &ALL_DEVICE_FAULT_KINDS,
        DeviceFaultKind::parse,
        "device fault kind",
    )
}

fn parse_backends(value: &str) -> Result<Vec<BackendKind>, SpecError> {
    parse_names(value, &BackendKind::ALL, BackendKind::parse, "backend")
}

fn parse_oram_modes(value: &str) -> Result<Vec<OramMode>, SpecError> {
    parse_names(value, &OramMode::ALL, OramMode::parse, "oram mode")
}

fn parse_schemes(value: &str) -> Result<Vec<Scheme>, SpecError> {
    parse_names(value, &Scheme::ALL, Scheme::parse, "scheme")
}

/// Decimal or `0x`-prefixed hex, with optional `_` separators.
pub fn parse_u64(value: &str) -> Result<u64, SpecError> {
    let cleaned = value.replace('_', "");
    let parsed = match cleaned.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => cleaned.parse(),
    };
    parsed.map_err(|_| err(format!("bad integer {value:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepSpec {
        SweepSpec {
            workloads: vec!["micro".into(), "mcf".into()],
            schemes: vec![Scheme::Unprotected, Scheme::OramModel],
            channels: vec![1, 2],
            replicates: 2,
            master_seed: 11,
            instructions: 1000,
            ..SweepSpec::default()
        }
    }

    #[test]
    fn expansion_is_canonical_and_complete() {
        let jobs = tiny().expand().unwrap();
        assert_eq!(jobs.len(), tiny().job_count());
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        // Workload-major order, replicate fastest.
        assert_eq!(jobs[0].id, "micro/unprotected/c1/r0");
        assert_eq!(jobs[1].id, "micro/unprotected/c1/r1");
        assert_eq!(jobs[2].id, "micro/unprotected/c2/r0");
        assert_eq!(jobs[4].id, "micro/oram/c1/r0");
        assert_eq!(jobs[8].id, "mcf/unprotected/c1/r0");
        // Ids are unique.
        let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn expansion_rejects_duplicate_job_ids() {
        let mut s = tiny();
        s.channels = vec![1, 1];
        let e = s.expand().unwrap_err();
        assert!(
            e.to_string()
                .contains(r#"duplicate job id "micro/unprotected/c1/r0""#),
            "got: {e}"
        );
        // Two spellings of one rate name the same job.
        let mut s = tiny();
        s.schemes = vec![Scheme::Obfusmem];
        s.fault_kinds = vec![FaultKind::Drop];
        s.fault_rates = vec![0.001, 1e-3];
        let e = s.expand().unwrap_err();
        assert!(
            e.to_string()
                .contains(r#""micro/obfusmem/c1/drop@0.001/r0""#),
            "got: {e}"
        );
    }

    #[test]
    fn expansion_seeds_are_order_independent() {
        let full = tiny().expand().unwrap();
        let mut narrowed = tiny();
        narrowed.workloads = vec!["mcf".into()]; // drop the first axis value
        let sub = narrowed.expand().unwrap();
        for job in &sub {
            let twin = full
                .iter()
                .find(|j| j.id == job.id)
                .expect("subset of the full grid");
            assert_eq!(
                twin.seed, job.seed,
                "{}: seed must not depend on grid shape",
                job.id
            );
        }
    }

    #[test]
    fn default_spec_is_the_table3_grid() {
        let spec = SweepSpec::default();
        assert_eq!(spec.workloads.len(), 15);
        assert_eq!(spec.schemes.len(), 4);
        assert_eq!(spec.job_count(), 60);
        spec.expand().unwrap();
    }

    #[test]
    fn rejects_bad_axes() {
        let mut s = tiny();
        s.workloads = vec!["nope".into()];
        assert!(s.expand().is_err());
        let mut s = tiny();
        s.channels = vec![3];
        assert!(s.expand().is_err());
        let mut s = tiny();
        s.replicates = 0;
        assert!(s.expand().is_err());
    }

    #[test]
    fn text_format_round_trips() {
        let text = "\
            # comment\n\
            workloads = micro, mcf   # trailing comment\n\
            schemes = obfusmem-auth, oram\n\
            channels = 1, 4\n\
            replicates = 3\n\
            master_seed = 0xB0B\n\
            instructions = 2_000_000\n";
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(spec.workloads, vec!["micro", "mcf"]);
        assert_eq!(spec.schemes, vec![Scheme::ObfusmemAuth, Scheme::OramModel]);
        assert_eq!(spec.channels, vec![1, 4]);
        assert_eq!(spec.replicates, 3);
        assert_eq!(spec.master_seed, 0xB0B);
        assert_eq!(spec.instructions, 2_000_000);
    }

    #[test]
    fn text_format_rejects_unknown_keys() {
        assert!(SweepSpec::parse("workload = mcf").is_err());
        assert!(SweepSpec::parse("schemes = warp-drive").is_err());
        assert!(SweepSpec::parse("channels = x").is_err());
    }

    #[test]
    fn all_expands_to_table1() {
        assert_eq!(parse_workloads("all").len(), 15);
        assert_eq!(parse_schemes("all").unwrap(), Scheme::ALL.to_vec());
        assert_eq!(parse_fault_kinds("all").unwrap().len(), 6);
    }

    #[test]
    fn fault_axes_cross_into_the_grid() {
        let mut s = tiny();
        s.schemes = vec![Scheme::ObfusmemAuth];
        s.fault_kinds = vec![FaultKind::BitFlip, FaultKind::Drop];
        s.fault_rates = vec![0.001, 0.01];
        let jobs = s.expand().unwrap();
        assert_eq!(jobs.len(), s.job_count());
        // workloads × schemes × channels × (kinds × rates) × replicates
        assert_eq!(jobs.len(), 2 * 2 * (2 * 2) * 2);
        assert_eq!(jobs[0].id, "micro/obfusmem-auth/c1/bit-flip@0.001/r0");
        assert_eq!(jobs[0].fault, Some((FaultKind::BitFlip, 0.001)));
        assert_ne!(jobs[0].fault_seed, 0);
        assert_ne!(
            jobs[0].fault_seed, jobs[1].fault_seed,
            "fault streams differ per replicate"
        );
        let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn fault_axes_reject_bad_values() {
        let mut s = tiny();
        s.fault_kinds = vec![FaultKind::Drop];
        s.fault_rates = vec![0.0];
        assert!(s.expand().is_err(), "rate 0 is not a fault sweep");
        s.fault_rates = vec![1.5];
        assert!(s.expand().is_err());
        s.fault_rates = vec![0.01];
        s.schemes = vec![Scheme::OramModel];
        assert!(s.expand().is_err(), "the ORAM model has no link");
        assert!(SweepSpec::parse("fault_kinds = cosmic-ray").is_err());
    }

    #[test]
    fn device_fault_axes_cross_into_the_grid() {
        let mut s = tiny();
        s.schemes = vec![Scheme::ObfusmemAuth];
        s.device_fault_kinds = vec![DeviceFaultKind::BitFlip, DeviceFaultKind::BankFail];
        s.device_fault_rates = vec![0.002];
        let jobs = s.expand().unwrap();
        assert_eq!(jobs.len(), s.job_count());
        // workloads × schemes × channels × kinds (one rate) × replicates
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        assert_eq!(jobs[0].id, "micro/obfusmem-auth/c1/dram-bit-flip@0.002/r0");
        assert_eq!(
            jobs[0].device_fault,
            Some((DeviceFaultKind::BitFlip, 0.002))
        );
        assert_ne!(jobs[0].device_fault_seed, 0);
        assert_ne!(
            jobs[0].device_fault_seed, jobs[1].device_fault_seed,
            "device fault streams differ per replicate"
        );
        let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn device_fault_axis_allows_unprotected_but_not_oram() {
        let mut s = tiny();
        s.schemes = vec![Scheme::Unprotected, Scheme::EncryptOnly];
        s.device_fault_kinds = vec![DeviceFaultKind::StuckCell];
        assert!(
            s.expand().is_ok(),
            "device faults live in the array, not the link"
        );
        s.schemes = vec![Scheme::OramModel];
        assert!(s.expand().is_err(), "the ORAM model has no memory array");
        s.schemes = vec![Scheme::Obfusmem];
        s.device_fault_rates = vec![0.0];
        assert!(s.expand().is_err(), "rate 0 is not a device fault sweep");
        s.device_fault_rates = vec![2.0];
        assert!(s.expand().is_err());
    }

    #[test]
    fn link_and_device_axes_compose_with_disjoint_id_segments() {
        let mut s = tiny();
        s.schemes = vec![Scheme::ObfusmemAuth];
        s.channels = vec![1];
        s.replicates = 1;
        s.fault_kinds = vec![FaultKind::BitFlip];
        s.fault_rates = vec![0.001];
        s.device_fault_kinds = vec![DeviceFaultKind::BitFlip];
        s.device_fault_rates = vec![0.002];
        let jobs = s.expand().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].id, "micro/obfusmem-auth/c1/bit-flip@0.001/dram-bit-flip@0.002/r0",
            "the dram- prefix keeps the two bit-flip axes distinguishable"
        );
        assert!(jobs[0].fault.is_some() && jobs[0].device_fault.is_some());
    }

    #[test]
    fn device_fault_keys_parse_from_text() {
        let spec = SweepSpec::parse(
            "device_fault_kinds = stuck-cell, bank-fail\n\
             device_fault_rates = 0.002, 0.01\n\
             device_fault_seed = 0xBEEF",
        )
        .unwrap();
        assert_eq!(
            spec.device_fault_kinds,
            vec![DeviceFaultKind::StuckCell, DeviceFaultKind::BankFail]
        );
        assert_eq!(spec.device_fault_rates, vec![0.002, 0.01]);
        assert_eq!(spec.device_fault_seed, 0xBEEF);
        assert_eq!(parse_device_fault_kinds("all").unwrap().len(), 4);
        assert!(SweepSpec::parse("device_fault_kinds = gamma-ray").is_err());
    }

    #[test]
    fn leakage_axis_crosses_into_the_grid() {
        let mut s = tiny();
        s.leakage_windows = vec![256];
        let jobs = s.expand().unwrap();
        assert_eq!(jobs.len(), s.job_count());
        // Every scheme is leakage-capable, so the grid just doubles in
        // depth per window (one default squeeze).
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        assert_eq!(jobs[0].id, "micro/unprotected/c1/leak-w256/r0");
        assert_eq!(
            jobs[0].leakage,
            Some(LeakagePoint {
                window: 256,
                squeeze: 1.0
            })
        );
        // A non-unit squeeze shows up in the id.
        s.leakage_squeezes = vec![1.0, 4.0];
        let jobs = s.expand().unwrap();
        assert_eq!(jobs[0].id, "micro/unprotected/c1/leak-w256/r0");
        assert_eq!(jobs[2].id, "micro/unprotected/c1/leak-w256x4/r0");
        let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn default_leakage_axis_leaves_legacy_grids_untouched() {
        let jobs = tiny().expand().unwrap();
        assert!(
            jobs.iter().all(|j| j.leakage.is_none()),
            "no attacker unless the axis is set"
        );
        assert!(
            jobs.iter().all(|j| !j.id.contains("leak")),
            "the default leakage axis must not perturb checkpoint ids"
        );
    }

    #[test]
    fn leakage_axis_rejects_bad_values() {
        let mut s = tiny();
        s.leakage_windows = vec![0];
        assert!(s.expand().is_err(), "a zero window closes no windows");
        s.leakage_windows = vec![128];
        s.leakage_squeezes = vec![0.5];
        assert!(s.expand().is_err(), "squeezing below 1x would drop traffic");
        s.leakage_squeezes = vec![f64::NAN];
        assert!(s.expand().is_err());
        s.leakage_squeezes = Vec::new();
        assert!(s.expand().is_err(), "windows without squeezes is a typo");
    }

    #[test]
    fn leakage_axis_rejects_a_squeeze_past_one_miss_per_instruction() {
        let mut s = tiny(); // micro at 20 MPKI, mcf at 24.82
        s.leakage_windows = vec![128];
        s.leakage_squeezes = vec![1.0, 1e9];
        let e = s.expand().unwrap_err().to_string();
        assert!(
            e.contains("squeeze 1000000000") && e.contains("\"micro\""),
            "{e}"
        );
        s.leakage_squeezes = vec![40.0];
        assert!(s.expand().is_ok(), "mcf x40 stays under 1000 MPKI");
        s.leakage_squeezes = vec![50.0];
        let e = s.expand().unwrap_err().to_string();
        assert!(e.contains("squeeze 50") && e.contains("\"mcf\""), "{e}");
        s.workloads = vec!["micro".into()];
        assert!(s.expand().is_ok(), "micro x50 is exactly 1000 MPKI");
    }

    #[test]
    fn leakage_keys_parse_from_text() {
        let spec = SweepSpec::parse(
            "leakage_windows = 128, 256\n\
             leakage_squeezes = 1.0, 4.0",
        )
        .unwrap();
        assert_eq!(spec.leakage_windows, vec![128, 256]);
        assert_eq!(spec.leakage_squeezes, vec![1.0, 4.0]);
        assert!(SweepSpec::parse("leakage_windows = soon").is_err());
        assert!(SweepSpec::parse("leakage_squeezes = tight").is_err());
    }

    #[test]
    fn oram_mode_axis_fans_out_only_the_oram_scheme() {
        let mut s = tiny(); // schemes: Unprotected, OramModel
        s.oram_modes = OramMode::ALL.to_vec();
        let jobs = s.expand().unwrap();
        assert_eq!(jobs.len(), s.job_count());
        // (1 unprotected row + 3 oram rows) per workload × channels × reps
        assert_eq!(jobs.len(), 2 * (1 + 3) * 2 * 2);
        // Fixed rows keep the legacy id; detailed modes add a segment
        // right after the channel count.
        assert_eq!(jobs[4].id, "micro/oram/c1/r0");
        assert_eq!(jobs[8].id, "micro/oram/c1/oram-serial/r0");
        assert_eq!(jobs[8].oram_mode, OramMode::Serial);
        assert_eq!(jobs[12].id, "micro/oram/c1/oram-codesign/r0");
        assert_eq!(jobs[12].oram_mode, OramMode::Codesign);
        assert!(
            jobs.iter()
                .filter(|j| j.scheme != Scheme::OramModel)
                .all(|j| j.oram_mode == OramMode::Fixed),
            "non-oram schemes never fan out over the mode axis"
        );
        let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn default_oram_mode_axis_leaves_legacy_grids_untouched() {
        let jobs = tiny().expand().unwrap();
        assert!(
            jobs.iter().all(|j| j.oram_mode == OramMode::Fixed),
            "the default axis is the historical fixed model"
        );
        assert!(
            jobs.iter().all(|j| !j.id.contains("oram-")),
            "the default mode must not perturb checkpoint ids"
        );
    }

    #[test]
    fn oram_mode_axis_rejects_malformed_grids() {
        let mut s = tiny();
        s.oram_modes = Vec::new();
        assert!(s.expand().is_err(), "no modes is unsatisfiable");
        let mut s = tiny();
        s.schemes = vec![Scheme::Unprotected];
        s.oram_modes = vec![OramMode::Codesign];
        assert!(
            s.expand().is_err(),
            "detailed modes without the oram scheme sweep nothing"
        );
        let mut s = tiny();
        s.oram_modes = vec![OramMode::Fixed, OramMode::Codesign];
        s.leakage_windows = vec![128];
        assert!(
            s.expand().is_err(),
            "the attacker only understands the fixed model"
        );
    }

    #[test]
    fn oram_mode_keys_parse_from_text() {
        let spec = SweepSpec::parse("oram_modes = fixed, codesign").unwrap();
        assert_eq!(spec.oram_modes, vec![OramMode::Fixed, OramMode::Codesign]);
        let spec = SweepSpec::parse("oram_modes = all").unwrap();
        assert_eq!(spec.oram_modes, OramMode::ALL.to_vec());
        assert!(
            SweepSpec::parse("oram_modes = warp-speed").is_err(),
            "a typo silently ignored would silently change a sweep"
        );
        assert!(SweepSpec::parse("oram_modes = ").unwrap().expand().is_err());
    }

    #[test]
    fn backend_axis_crosses_into_the_grid_after_channels() {
        let mut s = tiny();
        s.schemes = vec![Scheme::Unprotected, Scheme::ObfusmemAuth];
        s.backends = BackendKind::ALL.to_vec();
        let jobs = s.expand().unwrap();
        assert_eq!(jobs.len(), s.job_count());
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2 * 2);
        // Reservation points keep the legacy id; queued points add a
        // segment between the channel count and the replicate.
        assert_eq!(jobs[0].id, "micro/unprotected/c1/r0");
        assert_eq!(jobs[2].id, "micro/unprotected/c1/queued/r0");
        assert_eq!(jobs[2].backend, BackendKind::Queued);
        let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn default_backend_axis_leaves_legacy_grids_untouched() {
        let jobs = tiny().expand().unwrap();
        assert!(
            jobs.iter().all(|j| j.backend == BackendKind::Reservation),
            "the default axis is the historical reservation model"
        );
        assert!(
            jobs.iter().all(|j| !j.id.contains("reservation")),
            "the default backend must not perturb checkpoint ids"
        );
    }

    #[test]
    fn queued_backend_rejects_the_oram_scheme() {
        let mut s = tiny(); // tiny() includes Scheme::OramModel
        s.backends = vec![BackendKind::Queued];
        assert!(s.expand().is_err(), "oram has no controller to swap");
        s.schemes = vec![Scheme::ObfusmemAuth];
        assert!(s.expand().is_ok());
        s.backends = Vec::new();
        assert!(s.expand().is_err(), "no backends is unsatisfiable");
    }

    #[test]
    fn backend_keys_parse_from_text() {
        let spec = SweepSpec::parse("backends = queued").unwrap();
        assert_eq!(spec.backends, vec![BackendKind::Queued]);
        let spec = SweepSpec::parse("backends = all").unwrap();
        assert_eq!(spec.backends, BackendKind::ALL.to_vec());
        assert!(SweepSpec::parse("backends = warp-drive").is_err());
    }

    #[test]
    fn fault_keys_parse_from_text() {
        let spec = SweepSpec::parse(
            "fault_kinds = bit-flip, drop\nfault_rates = 0.001, 0.01\nfault_seed = 0xFA",
        )
        .unwrap();
        assert_eq!(spec.fault_kinds, vec![FaultKind::BitFlip, FaultKind::Drop]);
        assert_eq!(spec.fault_rates, vec![0.001, 0.01]);
        assert_eq!(spec.fault_seed, 0xFA);
    }
}
