//! Hot-path throughput benchmark: records/s on the map/shuffle/reduce
//! per-record path, across workloads and input scales.
//!
//! Runs two raw-pair workloads through the real engine — word count
//! (`(word, 1)` folded by [`SumCombiner`]) and a log-ratio aggregation
//! (`(server, (bytes, 1))` folded by [`PairSumCombiner`]) — at several
//! input scales, crossing `{raw, combined}` (map-side combining off/on)
//! with `{precise, sampled}` (sampling ratio 1.0 / 0.25). Each cell
//! reports records/s, shuffle volume (pairs and approximate bytes) and
//! p50/p99 map task times. This is the regression harness for the
//! raw-speed work on the per-record path: the Fx partitioner, the
//! hash-fold combine table, the reused map buffers, and the parallel
//! reduce drain all show up here or nowhere. The approximation
//! templates (`MultiStageMapper`, `RatioMapper`) already ship one
//! statistic per key per task, so they bypass this raw-emission path.
//!
//! Flags, report envelope and baseline gate are the shared harness's
//! (see the `approxhadoop_bench` crate docs); the report lands in
//! `BENCH_hotpath.json`.
//!
//! * `--check` fails unless, on every workload and scale, raw and
//!   combined precise outputs agree, combining shrinks the shuffle and
//!   sampling skips records, and unless combining cuts wordcount's
//!   shuffled pairs ≥10×;
//! * gate cell `<workload>/<scale>/<blocks>x<records per block>` holds
//!   the scale's aggregate best-of-reps records/s over its four cells.

use approxhadoop_bench::{finish, header, reps, timed, BenchArgs, Check, Report, Summary};
use approxhadoop_runtime::combine::{Combined, PairSumCombiner, SumCombiner};
use approxhadoop_runtime::engine::{run_job, JobConfig};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::mapper::FnMapper;
use approxhadoop_runtime::metrics::JobMetrics;
use approxhadoop_runtime::reducer::GroupedReducer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One (combining × sampling) cell of a scale.
#[derive(Debug, Clone, Copy, serde::Serialize)]
struct CellReport {
    combining: bool,
    sampling_ratio: f64,
    wall_secs_mean: f64,
    wall_secs_min: f64,
    /// Input records the maps actually processed (= total records at
    /// ratio 1.0; the sampled subset otherwise).
    processed_records: u64,
    /// `processed_records / wall_secs_mean`.
    records_per_sec: f64,
    /// `processed_records / wall_secs_min` — best of the reps. The
    /// baseline gate compares this, not the mean: the best rep tracks
    /// the code's actual speed, while the mean also absorbs scheduler
    /// noise that would make a 20% gate flaky.
    records_per_sec_best: f64,
    emitted_pairs: u64,
    shuffled_pairs: u64,
    /// `shuffled_pairs` times the workload's approximate wire size per
    /// pair.
    approx_shuffled_bytes: u64,
    /// Map task time percentiles over every rep's tasks.
    map_p50_secs: f64,
    map_p99_secs: f64,
}

impl CellReport {
    /// Emitted over shuffled pairs: how much combining collapsed.
    fn pair_reduction(&self) -> f64 {
        self.emitted_pairs as f64 / self.shuffled_pairs.max(1) as f64
    }
}

/// All four cells of one workload at one input scale.
#[derive(Debug, Clone, serde::Serialize)]
struct ScaleReport {
    workload: &'static str,
    name: &'static str,
    blocks: usize,
    /// Input records per block: text lines for wordcount, log entries
    /// for log-ratio.
    lines_per_block: usize,
    total_records: u64,
    cells: Vec<CellReport>,
    /// Records processed across all four cells over the summed
    /// best-rep walls — the value the baseline gate compares. One cell
    /// of a one-core box is a few milliseconds of multi-threaded work
    /// and can swing past any sane tolerance on scheduler noise alone;
    /// the per-scale aggregate is stable, and a real per-record
    /// regression slows every cell, so the aggregate still catches it.
    aggregate_records_per_sec_best: f64,
    /// Raw and combined precise runs produced identical reduce outputs.
    outputs_match: bool,
}

impl ScaleReport {
    fn key(&self) -> String {
        format!(
            "{}/{}/{}x{}",
            self.workload, self.name, self.blocks, self.lines_per_block
        )
    }

    fn cell(&self, combining: bool, sampled: bool) -> &CellReport {
        self.cells
            .iter()
            .find(|c| c.combining == combining && (c.sampling_ratio < 1.0) == sampled)
            .expect("every scale runs all four cells")
    }
}

#[derive(Debug, Clone, serde::Serialize)]
struct Body {
    scales: Vec<ScaleReport>,
}

/// Zipf-ish text corpus: frequent words dominate, so per-task
/// combining collapses many `(word, 1)` pairs per key.
fn wordcount_corpus(blocks: usize, lines: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..blocks)
        .map(|_| {
            (0..lines)
                .map(|_| {
                    let n = rng.gen_range(6..12);
                    (0..n)
                        .map(|_| {
                            let u: f64 = rng.gen();
                            format!("w{}", (u * u * 800.0) as u32)
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        })
        .collect()
}

/// Synthetic access log: `(server, response_bytes)` per request.
fn log_corpus(blocks: usize, entries: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..blocks)
        .map(|_| {
            (0..entries)
                .map(|_| (rng.gen_range(0..64u32), rng.gen_range(200.0..20_000.0)))
                .collect()
        })
        .collect()
}

/// One job's wall time, metrics and sorted outputs.
type Run<O> = (f64, JobMetrics, Vec<O>);

fn config(combining: bool, sampling_ratio: f64, seed: u64) -> JobConfig {
    JobConfig {
        combining,
        sampling_ratio,
        reduce_tasks: 4,
        seed,
        ..Default::default()
    }
}

fn run_wordcount(
    input: &VecSource<String>,
    combining: bool,
    sampling_ratio: f64,
    seed: u64,
) -> Run<(String, u64)> {
    let mapper = Combined::new(
        FnMapper::new(|line: &String, emit: &mut dyn FnMut(String, u64)| {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1);
            }
        }),
        SumCombiner,
    );
    let (secs, result) = timed(|| {
        run_job(
            input,
            &mapper,
            |_| {
                GroupedReducer::new(|k: &String, vs: &[u64]| {
                    Some((k.clone(), vs.iter().sum::<u64>()))
                })
            },
            config(combining, sampling_ratio, seed),
        )
        .expect("wordcount job")
    });
    let mut outputs = result.outputs;
    outputs.sort();
    (secs, result.metrics, outputs)
}

/// One log-ratio output row: `(server, (Σbytes, Σreqs))`, rounded to
/// integers so the float fold order (which combining legitimately
/// changes) cannot fail the equality check.
type RatioRow = (u32, (u64, u64));

fn run_logratio(
    input: &VecSource<(u32, f64)>,
    combining: bool,
    sampling_ratio: f64,
    seed: u64,
) -> Run<RatioRow> {
    let mapper = Combined::new(
        FnMapper::new(|r: &(u32, f64), emit: &mut dyn FnMut(u32, (f64, f64))| {
            emit(r.0, (r.1, 1.0));
        }),
        PairSumCombiner,
    );
    let (secs, result) = timed(|| {
        run_job(
            input,
            &mapper,
            |_| {
                GroupedReducer::new(|k: &u32, vs: &[(f64, f64)]| {
                    let y: f64 = vs.iter().map(|p| p.0).sum();
                    let x: f64 = vs.iter().map(|p| p.1).sum();
                    Some((*k, (y.round() as u64, x.round() as u64)))
                })
            },
            config(combining, sampling_ratio, seed),
        )
        .expect("log-ratio job")
    });
    let mut outputs = result.outputs;
    outputs.sort();
    (secs, result.metrics, outputs)
}

/// p-th percentile (0–100) of an unsorted sample.
fn percentile(values: &mut [f64], p: usize) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() * p / 100).min(values.len() - 1)]
}

fn bench_cell<O>(
    combining: bool,
    ratio: f64,
    bytes_per_pair: f64,
    run: &mut impl FnMut(bool, f64, u64) -> Run<O>,
) -> (CellReport, Vec<O>) {
    let mut walls = Vec::new();
    let mut task_secs = Vec::new();
    let mut last = None;
    for seed in 0..reps() as u64 {
        let (secs, metrics, out) = run(combining, ratio, seed);
        walls.push(secs);
        task_secs.extend(metrics.map_stats.iter().map(|s| s.duration_secs));
        last = Some((metrics, out));
    }
    let (metrics, out) = last.expect("at least one rep");
    let processed: u64 = metrics.map_stats.iter().map(|s| s.sampled_records).sum();
    let wall = Summary::of(&walls);
    let cell = CellReport {
        combining,
        sampling_ratio: ratio,
        wall_secs_mean: wall.mean,
        wall_secs_min: wall.min,
        processed_records: processed,
        records_per_sec: processed as f64 / wall.mean,
        records_per_sec_best: processed as f64 / wall.min,
        emitted_pairs: metrics.emitted_pairs,
        shuffled_pairs: metrics.shuffled_pairs,
        approx_shuffled_bytes: (metrics.shuffled_pairs as f64 * bytes_per_pair) as u64,
        map_p50_secs: percentile(&mut task_secs, 50),
        map_p99_secs: percentile(&mut task_secs, 99),
    };
    (cell, out)
}

/// Runs the four cells of one scale through `run(combining, ratio,
/// seed)`.
fn bench_scale<O: PartialEq>(
    (workload, name, blocks, lines): Scale,
    bytes_per_pair: f64,
    mut run: impl FnMut(bool, f64, u64) -> Run<O>,
) -> ScaleReport {
    let mut cells = Vec::new();
    let mut precise_outputs = Vec::new();
    for combining in [false, true] {
        for ratio in [1.0, 0.25] {
            let (cell, out) = bench_cell(combining, ratio, bytes_per_pair, &mut run);
            print_cell(workload, name, &cell);
            if ratio >= 1.0 {
                precise_outputs.push(out);
            }
            cells.push(cell);
        }
    }
    let processed: u64 = cells.iter().map(|c| c.processed_records).sum();
    let best_walls: f64 = cells.iter().map(|c| c.wall_secs_min).sum();
    ScaleReport {
        workload,
        name,
        blocks,
        lines_per_block: lines,
        total_records: (blocks * lines) as u64,
        cells,
        aggregate_records_per_sec_best: processed as f64 / best_walls,
        outputs_match: precise_outputs[0] == precise_outputs[1],
    }
}

fn bench_wordcount(scale: Scale) -> ScaleReport {
    let corpus = wordcount_corpus(scale.2, scale.3, 42);
    let words = corpus.iter().flatten().flat_map(|l| l.split_whitespace());
    let (count, bytes) = words.fold((0usize, 0usize), |(n, b), w| (n + 1, b + w.len()));
    // Approximate wire size: key bytes + 8-byte count.
    let bytes_per_pair = bytes as f64 / count.max(1) as f64 + 8.0;
    let input = VecSource::new(corpus);
    bench_scale(scale, bytes_per_pair, |c, r, s| {
        run_wordcount(&input, c, r, s)
    })
}

fn bench_logratio(scale: Scale) -> ScaleReport {
    let input = VecSource::new(log_corpus(scale.2, scale.3, 43));
    // Key (4 B) + two f64 components.
    bench_scale(scale, 20.0, |c, r, s| run_logratio(&input, c, r, s))
}

fn print_cell(workload: &str, scale: &str, c: &CellReport) {
    println!(
        "{:>9} {:>6} {:>8} {:>7} | {:>7.3} | {:>9.0} | {:>8} | {:>8} | {:>7.4} | {:>7.4}",
        workload,
        scale,
        if c.combining { "+combine" } else { "-combine" },
        if c.sampling_ratio >= 1.0 {
            "precise"
        } else {
            "sampled"
        },
        c.wall_secs_mean,
        c.records_per_sec,
        c.emitted_pairs,
        c.shuffled_pairs,
        c.map_p50_secs,
        c.map_p99_secs,
    );
}

fn checks(body: &Body) -> Vec<Check> {
    let mut checks = Vec::new();
    for s in &body.scales {
        let key = s.key();
        let (raw, comb) = (s.cell(false, false), s.cell(true, false));
        checks.push(Check::new(
            s.outputs_match,
            format!("{key}: raw and combined precise outputs match"),
        ));
        checks.push(Check::new(
            comb.shuffled_pairs < raw.shuffled_pairs,
            format!(
                "{key}: combining shrinks the shuffle ({} < {} pairs)",
                comb.shuffled_pairs, raw.shuffled_pairs
            ),
        ));
        for sampled in [s.cell(false, true), s.cell(true, true)] {
            checks.push(Check::new(
                sampled.processed_records < s.total_records,
                format!(
                    "{key}: sampling skips records ({} < {})",
                    sampled.processed_records, s.total_records
                ),
            ));
        }
        if s.workload == "wordcount" {
            let reduction = comb.pair_reduction();
            checks.push(Check::new(
                reduction >= 10.0,
                format!("{key}: combining cuts shuffled pairs {reduction:.1}x >= 10x"),
            ));
        }
    }
    checks
}

/// `(workload, scale, blocks, records per block)`. Smoke scales are
/// sized so the slowest cell still takes tens of milliseconds — long
/// enough that the baseline gate measures code speed, not timer
/// granularity.
type Scale = (&'static str, &'static str, usize, usize);
const SMOKE: &[Scale] = &[
    ("wordcount", "small", 16, 4000),
    ("wordcount", "medium", 24, 5000),
    ("wordcount", "large", 32, 6000),
    ("log-ratio", "small", 16, 100_000),
];
const FULL: &[Scale] = &[
    ("wordcount", "small", 8, 1500),
    ("wordcount", "medium", 16, 6000),
    ("wordcount", "large", 32, 12_000),
    ("log-ratio", "large", 32, 100_000),
];

fn main() {
    let args = BenchArgs::from_env("hotpath");
    header(
        "Hot path",
        "Per-record throughput across workloads and scales: {raw, combined} x {precise, sampled 0.25}",
    );
    println!(
        " workload  scale  variant    mode | wall(s) | records/s |  emitted | shuffled | p50 map | p99 map"
    );
    let scales: Vec<ScaleReport> = (if args.smoke { SMOKE } else { FULL })
        .iter()
        .map(|&scale| match scale.0 {
            "wordcount" => bench_wordcount(scale),
            _ => bench_logratio(scale),
        })
        .collect();
    for s in &scales {
        let (raw, comb) = (s.cell(false, false), s.cell(true, false));
        println!(
            "{:>16} | {} records, combine speedup {:.2}x, pairs ÷{:.1}, outputs match: {}",
            s.key(),
            s.total_records,
            raw.wall_secs_mean / comb.wall_secs_mean,
            comb.pair_reduction(),
            s.outputs_match,
        );
    }

    let mut report = Report::new("hotpath", &args, reps(), Body { scales });
    report.gate.metric = "aggregate_records_per_sec_best".into();
    report.gate.cells = (report.body.scales.iter())
        .map(|s| (s.key(), s.aggregate_records_per_sec_best))
        .collect();
    if args.check {
        report.checks = checks(&report.body);
    }
    finish(report, &args);
}
