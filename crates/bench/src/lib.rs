//! Shared helpers for the experiment binaries that regenerate every
//! table and figure of the ApproxHadoop paper, plus the one harness the
//! micro-benches (`hotpath`, `join`, `spill`, `admission`) share.
//!
//! Each paper binary (`table1`, `fig5` … `fig13`, `table2`) prints the
//! same rows/series the paper reports, using the laptop-scale synthetic
//! datasets for real-engine measurements and the cluster simulator for
//! paper-scale timing and energy. `EXPERIMENTS.md` records paper-vs-
//! measured values for each.
//!
//! # Micro-bench harness
//!
//! Every micro-bench takes the same flags, parsed by [`BenchArgs`]:
//!
//! ```text
//! <bench> [--smoke] [--check] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--smoke` shrinks the datasets for CI;
//! * `--check` records the bench's own checks and fails on any miss;
//! * `--out PATH` moves the report (default `BENCH_<bench>.json` in the
//!   current directory);
//! * `--baseline PATH` gates this run against a previous report.
//!
//! An unknown flag, or `--out`/`--baseline` without a value, exits 2.
//!
//! Every report is one [`Report`] envelope:
//!
//! ```text
//! { bench, host: { nproc, rustc }, reps, smoke,
//!   gate: { metric, cells: { "<key>": value } }, checks: [..], body }
//! ```
//!
//! `body` is the bench's own record. A gate key names the cell's
//! geometry (`wordcount/small/16x4000`, `join/small/x2`), so smoke and
//! full runs never match each other. The gate ([`gate`]) reads only
//! `gate.cells` from the baseline: each key both runs share passes
//! unless the value fell more than [`BASELINE_TOLERANCE`] below the
//! baseline's; keys the baseline lacks are skipped, and a baseline that
//! shares no key is an error. A baseline recorded on another host is
//! noted on stdout but still gated. [`finish`] writes the report,
//! prints one `CHECK FAILED` line per failed check and exits 1 on any.
//!
//! Environment knobs:
//!
//! * `APPROX_REPS` — repetitions per configuration (default 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Instant;

use approxhadoop_cluster::{simulate, ClusterSpec, SimApprox, SimJobSpec};
use approxhadoop_core::spec::ApproxSpec;
use approxhadoop_obs::json::{self, Value};
use approxhadoop_stats::Interval;
use serde::{Emitter, Serialize};

/// Repetitions per configuration (`APPROX_REPS`, default 3).
pub fn reps() -> usize {
    std::env::var("APPROX_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Measures the wall time of `f` in seconds, returning `(secs, value)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let v = f();
    (start.elapsed().as_secs_f64(), v)
}

/// Aggregate of repeated scalar measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean value.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise zero measurements");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Summary {
            mean,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} [{:.3}, {:.3}]", self.mean, self.min, self.max)
    }
}

/// Prints a figure/table header in a consistent style.
pub fn header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Outcome of one real-engine run used by the ratio sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Wall-clock seconds of the real laptop-scale run.
    pub wall_secs: f64,
    /// Worst-key 95% relative confidence half-width.
    pub bound_rel: f64,
    /// Actual relative error of the worst key against ground truth.
    pub actual_rel: f64,
}

/// Picks the key with the maximum predicted absolute error (the paper's
/// reporting rule) and returns `(relative bound, actual relative error)`
/// against the precise run.
pub fn worst_key_metrics<K: PartialEq>(
    outputs: &[(K, Interval)],
    truth: &[(K, Interval)],
) -> (f64, f64) {
    let worst = outputs
        .iter()
        .max_by(|a, b| a.1.half_width.total_cmp(&b.1.half_width));
    match worst {
        Some((k, iv)) => {
            let t = truth
                .iter()
                .find(|(tk, _)| tk == k)
                .map(|(_, tiv)| tiv.estimate)
                .unwrap_or(0.0);
            (iv.relative_error(), iv.actual_error(t))
        }
        None => (f64::INFINITY, f64::INFINITY),
    }
}

/// Runs the paper's dropping × sampling ratio sweep (Figures 6, 7, 11):
/// for each combination, repeats the real-engine run `reps()` times and
/// optionally simulates the same ratios at cluster scale.
pub fn ratio_sweep(
    drops: &[f64],
    samples: &[f64],
    sim: Option<(&ClusterSpec, &SimJobSpec)>,
    mut run: impl FnMut(ApproxSpec, u64) -> Outcome,
) {
    println!(
        "{:>6} | {:>8} | {:>10} | {:>10} | {:>9} | {:>9}",
        "drop%", "sample%", "real(s)", "sim(s)", "95%CI", "actual%"
    );
    for &drop in drops {
        for &sample in samples {
            let spec = if drop == 0.0 && sample >= 1.0 {
                ApproxSpec::Precise
            } else {
                ApproxSpec::ratios(drop, sample)
            };
            let mut walls = Vec::new();
            let mut bounds = Vec::new();
            let mut actuals = Vec::new();
            for seed in 0..reps() as u64 {
                let o = run(spec, seed);
                walls.push(o.wall_secs);
                bounds.push(o.bound_rel);
                actuals.push(o.actual_rel);
            }
            let sim_secs = sim
                .map(|(cluster, job)| {
                    let approx = if drop == 0.0 && sample >= 1.0 {
                        SimApprox::Precise
                    } else {
                        SimApprox::Ratios {
                            drop_ratio: drop,
                            sampling_ratio: sample,
                        }
                    };
                    simulate(cluster, job, approx, 7)
                        .map(|r| r.wall_secs)
                        .unwrap_or(f64::NAN)
                })
                .unwrap_or(f64::NAN);
            println!(
                "{:>5.0}% | {:>7.0}% | {:>10.3} | {:>10.0} | {:>8.2}% | {:>8.2}%",
                drop * 100.0,
                sample * 100.0,
                Summary::of(&walls).mean,
                sim_secs,
                Summary::of(&bounds).mean * 100.0,
                Summary::of(&actuals).mean * 100.0
            );
        }
    }
}

/// Fractional drop per gate cell tolerated against the baseline.
pub const BASELINE_TOLERANCE: f64 = 0.20;

/// The flags every micro-bench takes (see the crate docs).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--smoke`: shrink the datasets for CI.
    pub smoke: bool,
    /// `--check`: record the bench's own checks and fail on any miss.
    pub check: bool,
    /// `--out PATH`: where the report goes.
    pub out: String,
    /// `--baseline PATH`: the report to gate against.
    pub baseline: Option<String>,
}

impl BenchArgs {
    /// Parses `args` (program name already stripped) for bench `bench`;
    /// the error is a usage message.
    pub fn parse(bench: &str, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = BenchArgs {
            smoke: false,
            check: false,
            out: format!("BENCH_{bench}.json"),
            baseline: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--check" => parsed.check = true,
                "--out" | "--baseline" => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("missing value for {arg}"))?;
                    if arg == "--out" {
                        parsed.out = value;
                    } else {
                        parsed.baseline = Some(value);
                    }
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments; on a usage error prints it and
    /// exits 2.
    pub fn from_env(bench: &str) -> Self {
        Self::parse(bench, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!(
                "error: {e}\nusage: {bench} [--smoke] [--check] [--out PATH] [--baseline PATH]"
            );
            std::process::exit(2);
        })
    }
}

/// The machine a report was recorded on.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc -V`, or `"unknown"`.
    pub rustc: String,
}

impl Host {
    /// Describes this machine.
    pub fn current() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: rustc.unwrap_or_else(|| "unknown".into()),
        }
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nproc {}, {}", self.nproc, self.rustc)
    }
}

/// The cells a later run is gated against.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct Gate {
    /// What every cell holds (higher is better).
    pub metric: String,
    /// Geometry-naming key → value.
    pub cells: BTreeMap<String, f64>,
}

/// One pass/fail claim about a run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Check {
    /// What was claimed, with the numbers it was judged on.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
}

impl Check {
    /// Records whether the claim `name` held.
    pub fn new(pass: bool, name: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            pass,
        }
    }
}

/// The report envelope every micro-bench writes.
#[derive(Debug, Clone)]
pub struct Report<B> {
    /// Bench name.
    pub bench: String,
    /// Where it ran.
    pub host: Host,
    /// Repetitions per cell.
    pub reps: usize,
    /// Whether the datasets were shrunk for CI.
    pub smoke: bool,
    /// Cells for later runs to gate against.
    pub gate: Gate,
    /// Every check judged on this run (`--check`, then the gate).
    pub checks: Vec<Check>,
    /// The bench's own record.
    pub body: B,
}

impl<B> Report<B> {
    /// An envelope with no gate cells and no checks yet.
    pub fn new(bench: &str, args: &BenchArgs, reps: usize, body: B) -> Self {
        Report {
            bench: bench.to_string(),
            host: Host::current(),
            reps,
            smoke: args.smoke,
            gate: Gate::default(),
            checks: Vec::new(),
            body,
        }
    }
}

impl<B: Serialize> Serialize for Report<B> {
    fn serialize(&self, out: &mut Emitter) {
        out.begin_object();
        out.field("bench");
        self.bench.serialize(out);
        out.field("host");
        self.host.serialize(out);
        out.field("reps");
        self.reps.serialize(out);
        out.field("smoke");
        self.smoke.serialize(out);
        out.field("gate");
        self.gate.serialize(out);
        out.field("checks");
        self.checks.serialize(out);
        out.field("body");
        self.body.serialize(out);
        out.end_object();
    }
}

/// Reads a written report back: `(host description, gate cells)`.
pub fn read_report(text: &str) -> Result<(String, BTreeMap<String, f64>), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let Some(Value::Object(cells)) = doc.get("gate").and_then(|g| g.get("cells")) else {
        return Err("not a bench report (no gate.cells)".into());
    };
    let cells = cells
        .iter()
        .map(|(key, v)| {
            v.as_f64()
                .map(|v| (key.clone(), v))
                .ok_or_else(|| format!("gate cell {key} is not a number"))
        })
        .collect::<Result<_, _>>()?;
    let host = doc.get("host");
    let nproc = host
        .and_then(|h| h.get("nproc"))
        .and_then(Value::as_f64)
        .map_or("?".to_string(), |n| n.to_string());
    let rustc = host
        .and_then(|h| h.get("rustc"))
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    Ok((format!("nproc {nproc}, {rustc}"), cells))
}

/// Gates `current` cells against `baseline` ones: one check per key
/// both hold, failing when the value fell more than
/// [`BASELINE_TOLERANCE`] below the baseline's. Keys only one side
/// holds are skipped; none shared is an error.
pub fn gate(
    metric: &str,
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
) -> Result<Vec<Check>, String> {
    let checks: Vec<Check> = current
        .iter()
        .filter_map(|(key, &value)| {
            let &base = baseline.get(key)?;
            Some(Check::new(
                value >= base * (1.0 - BASELINE_TOLERANCE),
                format!(
                    "gate {key}: {metric} {value:.0} within {:.0}% of baseline {base:.0}",
                    BASELINE_TOLERANCE * 100.0
                ),
            ))
        })
        .collect();
    if checks.is_empty() {
        return Err("no gate cells matched this run (smoke vs full mismatch?)".into());
    }
    Ok(checks)
}

/// Gates the report against `--baseline` (if given), writes it to
/// `--out`, prints a `CHECK FAILED` line per failed check and exits 1
/// if there was any.
pub fn finish<B: Serialize>(mut report: Report<B>, args: &BenchArgs) {
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| read_report(&text));
        let gated = baseline.and_then(|(host, cells)| {
            if host != report.host.to_string() {
                println!(
                    "note: baseline {path} was recorded on {host}; this host is {}",
                    report.host
                );
            }
            gate(&report.gate.metric, &report.gate.cells, &cells)
        });
        match gated {
            Ok(checks) => report.checks.extend(checks),
            Err(e) => report
                .checks
                .push(Check::new(false, format!("baseline {path}: {e}"))),
        }
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json).expect("write benchmark report");
    println!("wrote {}", args.out);
    let failed: Vec<&Check> = report.checks.iter().filter(|c| !c.pass).collect();
    for c in &failed {
        eprintln!("CHECK FAILED: {}", c.name);
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    if !report.checks.is_empty() {
        println!("all {} checks passed", report.checks.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.to_string().contains("2.000"));
    }

    #[test]
    #[should_panic]
    fn summary_rejects_empty() {
        Summary::of(&[]);
    }

    #[test]
    fn timed_returns_value() {
        let (secs, v) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    fn cells(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn gate_tolerates_19_percent_and_fails_21() {
        let base = cells(&[("w/small/1x2", 1000.0), ("w/large/3x4", 1000.0)]);
        let run = cells(&[("w/small/1x2", 810.0), ("w/large/3x4", 790.0)]);
        let checks = gate("rps", &run, &base).unwrap();
        let pass: Vec<bool> = checks.iter().map(|c| c.pass).collect();
        // BTreeMap order: large before small.
        assert_eq!(pass, [false, true]);
    }

    #[test]
    fn gate_skips_unmatched_keys_but_needs_one_match() {
        let base = cells(&[("w/small/1x2", 1000.0)]);
        let run = cells(&[("w/small/1x2", 1000.0), ("w/huge/9x9", 1.0)]);
        assert_eq!(gate("rps", &run, &base).unwrap().len(), 1);
        let smoke = cells(&[("w/small/16x4000", 1000.0)]);
        assert!(gate("rps", &smoke, &base).is_err());
        assert!(gate("rps", &BTreeMap::new(), &base).is_err());
    }

    #[test]
    fn reader_rejects_what_is_not_a_report() {
        assert!(read_report("{\"scales\": []}").is_err());
        assert!(read_report("{\"gate\": {\"cells\": {\"k\": \"x\"}}}").is_err());
        assert!(read_report("not json").is_err());
    }

    #[test]
    fn written_report_reads_back() {
        let args = BenchArgs::parse("t", []).unwrap();
        let mut report = Report::new("t", &args, 3, vec![1u32, 2]);
        report.gate.metric = "rps".into();
        report.gate.cells = cells(&[("t/small/x2", 1.5)]);
        report.checks.push(Check::new(true, "ok"));
        let text = serde_json::to_string_pretty(&report).unwrap();
        let (host, read) = read_report(&text).unwrap();
        assert_eq!(host, report.host.to_string());
        assert_eq!(read, report.gate.cells);
    }

    #[test]
    fn flags_parse_and_reject_misuse() {
        let parse = |args: &[&str]| BenchArgs::parse("hotpath", args.iter().map(|a| a.to_string()));
        let a = parse(&[
            "--smoke",
            "--check",
            "--out",
            "o.json",
            "--baseline",
            "b.json",
        ])
        .unwrap();
        assert!(a.smoke && a.check);
        assert_eq!(a.out, "o.json");
        assert_eq!(a.baseline.as_deref(), Some("b.json"));
        assert_eq!(parse(&[]).unwrap().out, "BENCH_hotpath.json");
        assert!(parse(&["--workers", "2"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--check", "--baseline"]).is_err());
    }

    #[test]
    fn committed_smoke_baselines_parse() {
        for (text, key) in [
            (
                include_str!("../../../results/BENCH_hotpath_smoke.json"),
                "wordcount/small/16x4000",
            ),
            (
                include_str!("../../../results/BENCH_join_smoke.json"),
                "join/small/x2",
            ),
        ] {
            let (_, cells) = read_report(text).unwrap();
            assert!(cells[key] > 0.0, "{key} missing from {cells:?}");
        }
    }
}
