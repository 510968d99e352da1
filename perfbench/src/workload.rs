//! The four workloads: inputs generated from the seed, set-up, the
//! precise reference, the measured jobs and their checks.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use approxhadoop_core::job::{AggregationJob, ApproxResult};
use approxhadoop_core::keystat::KeyStat;
use approxhadoop_core::multistage::{Aggregation, MultiStageMapper, MultiStageReducer};
use approxhadoop_core::spec::{ApproxSpec, ErrorTarget};
use approxhadoop_dfs::{DfsCluster, DfsConfig, FileHandle};
use approxhadoop_ipc::{read_frame, write_frame, Decoder, Wire};
use approxhadoop_obs::Obs;
use approxhadoop_runtime::engine::{JobConfig, JobResult, WorkerSpec};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::metrics::JobMetrics;
use approxhadoop_runtime::text::TextSource;
use approxhadoop_server::admission::{AdmissionConfig, ApproxBudget};
use approxhadoop_server::loadgen::{find_max_tps_with, SatConfig, StepMeasurement};
use approxhadoop_server::service::{JobHandle, JobService, JobSpec};
use approxhadoop_stats::Interval;
use approxhadoop_workloads::wikilog::{LogEntry, WikiLog};

use perfbench::assemble::{run_decorated, AggRecorder, Backend};
use perfbench::decor::{Layer, Recorder, TimedMapper, TimedReducer, TimedSource};
use perfbench::measure::{heaviest_keys, identical, median, min, tail_percentile, Accuracy};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["log-ratio", "log-target", "log-process", "service-mix"];

/// Heaviest keys of the precise answer every accuracy metric looks at.
const TOP_KEYS: usize = 50;
/// Jobs at the head of each run's seed list that the accuracy metrics
/// pool; every run executes at least these.
const ACCURACY_JOBS: usize = 6;
/// The same on `log-ratio`, whose answers are sampled: its short jobs
/// pool more intervals, so coverage varies less from seed to seed.
const RATIO_ACCURACY_JOBS: usize = 16;
/// Set-up repetitions whose median is `setup_s`: at least this many,
/// and for at least [`SETUP_SPAN`].
const SETUP_REPS: usize = 15;
/// Least time spent on set-up repetitions, so that a set-up of a few
/// milliseconds is sampled over more than one moment of the host.
const SETUP_SPAN: Duration = Duration::from_millis(500);
/// Catalogue sizes of the generated access log.
const PAGES: u64 = 1_000_000;
const PROJECTS: u64 = 2_640;

/// Command-line settings of one run.
pub struct Settings {
    /// Workload name (one of [`NAMES`]).
    pub workload: String,
    /// Input and job-seed seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where the span dump is written.
    pub out_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, were refused, or failed an output check.
    pub failed: u64,
    /// Every metric measured, by name: value and unit.
    pub report: BTreeMap<String, (f64, &'static str)>,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.insert(name.to_string(), (value, unit));
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// Available CPUs; map slots, workers and service slots all equal it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `j`-th job seed of the run seeded `seed` (splitmix64).
fn job_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(j.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Map functions see the source's item type, which is `String` for text.
#[allow(clippy::ptr_arg)]
fn project_bytes(line: &String, emit: &mut dyn FnMut(u64, f64)) {
    if let Some(e) = LogEntry::parse(line) {
        emit(e.project, e.bytes as f64);
    }
}

#[allow(clippy::ptr_arg)]
fn page_bytes(line: &String, emit: &mut dyn FnMut(u64, f64)) {
    if let Some(e) = LogEntry::parse(line) {
        emit(e.page, e.bytes as f64);
    }
}

/// The map function `approx-worker` registers as `page-traffic`.
fn page_traffic(e: &LogEntry, emit: &mut dyn FnMut(u64, f64)) {
    emit(e.page, e.bytes as f64);
}

/// Generates `blocks` blocks of `lines` log entries with
/// `WikiLog::block`, spread over the available CPUs.
fn generate(seed: u64, blocks: u64, lines: u64) -> Vec<Vec<LogEntry>> {
    let log = WikiLog {
        days: 1,
        entries_per_block: lines,
        blocks_per_day: blocks,
        pages: PAGES,
        projects: PROJECTS,
        seed,
    };
    let threads = nproc() as u64;
    let mut out: Vec<Vec<LogEntry>> = vec![Vec::new(); blocks as usize];
    std::thread::scope(|s| {
        for (t, chunk) in out
            .chunks_mut(blocks.div_ceil(threads) as usize)
            .enumerate()
        {
            let first = t as u64 * blocks.div_ceil(threads);
            s.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = log.block(first + i as u64);
                }
            });
        }
    });
    out
}

/// The log as text: one buffer plus the line boundaries.
struct Text {
    buf: String,
    ends: Vec<usize>,
}

impl Text {
    fn new(blocks: &[Vec<LogEntry>]) -> Text {
        let mut buf = String::new();
        let mut ends = Vec::new();
        for e in blocks.iter().flatten() {
            use std::fmt::Write;
            let _ = write!(buf, "{} {} {} {}", e.timestamp, e.project, e.page, e.bytes);
            ends.push(buf.len());
        }
        Text { buf, ends }
    }

    fn lines(&self) -> Vec<&str> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let line = &self.buf[start..end];
                start = end;
                line
            })
            .collect()
    }
}

/// Whether to set up once more, `done` set-ups after `begun`.
fn more_setups(done: usize, begun: Instant) -> bool {
    done < SETUP_REPS || begun.elapsed() < SETUP_SPAN
}

/// Writes each `(path, text)` to a fresh DFS and opens it: the program's
/// set-up for the text workloads. Returns the cluster, the sources and
/// the seconds the program's calls took.
fn load_dfs(files: &[(String, &Text)], block_records: u64) -> (DfsCluster, Vec<TextSource>, f64) {
    let lines: Vec<Vec<&str>> = files.iter().map(|(_, text)| text.lines()).collect();
    let t = Instant::now();
    let mut dfs = DfsCluster::new(DfsConfig {
        datanodes: 3,
        replication: 2,
        block_records,
    });
    let sources = files
        .iter()
        .zip(&lines)
        .map(|((path, _), lines)| {
            dfs.write_lines(path, lines)
                .expect("DFS write of generated lines");
            TextSource::open(&dfs, path).expect("open of a file just written")
        })
        .collect();
    (dfs, sources, t.elapsed().as_secs_f64())
}

/// Returns the heap memory the benchmark freed (its generated inputs) to
/// the system, so that what stays resident is the program's own state.
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
    // at any time; it only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the peak-RSS mark (`VmHWM`) to the current resident set.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB since the last [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process and its reaped children
/// (the process backend's workers) have used so far.
fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let mut r = Rusage {
                utime: Timeval { sec: 0, usec: 0 },
                stime: Timeval { sec: 0, usec: 0 },
                rest: [0; 14],
            };
            // SAFETY: `Rusage` has the layout of the C `struct rusage` on
            // 64-bit Linux, and `r` outlives the call.
            if unsafe { getrusage(who, &mut r) } != 0 {
                return f64::NAN;
            }
            let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
            secs(&r.utime) + secs(&r.stime)
        })
        .sum()
}

/// Engine configuration of one job on `slots` map slots (and as many
/// worker processes on the process backend).
fn job_config(seed: u64, slots: usize) -> JobConfig {
    JobConfig {
        map_slots: slots,
        reduce_tasks: 1,
        workers: slots,
        seed,
        ..JobConfig::default()
    }
}

fn answer_map(outputs: &[(u64, Interval)]) -> BTreeMap<u64, Interval> {
    outputs.iter().copied().collect()
}

/// The checked reference for one input: the precise answer's totals and
/// its heaviest keys.
struct Truth {
    totals: BTreeMap<u64, f64>,
    keys: Vec<u64>,
}

impl Truth {
    fn new(precise: &[(u64, Interval)]) -> Truth {
        let totals: BTreeMap<u64, f64> = precise.iter().map(|(k, iv)| (*k, iv.estimate)).collect();
        let keys = heaviest_keys(&totals, TOP_KEYS);
        Truth { totals, keys }
    }

    /// Judges one answer of a job over a `records`-record input; `None`
    /// when it passes, else the problem. Every interval over the keys
    /// must be finite, and an answer that read every record must hold
    /// the truth's keys with its totals (to the last bits the order of
    /// map outputs changes).
    fn check(
        &self,
        outputs: &[(u64, Interval)],
        metrics: &JobMetrics,
        records: u64,
        acc: &mut Accuracy,
    ) -> Option<String> {
        let answer = answer_map(outputs);
        if !acc.add(&answer, &self.totals, &self.keys) {
            return Some("a non-finite interval over the heaviest keys".to_string());
        }
        let read_all =
            metrics.executed_maps == metrics.total_maps && metrics.sampled_records == records;
        let exact = outputs.len() == self.totals.len()
            && outputs
                .iter()
                .all(|(k, iv)| self.totals.get(k).is_some_and(|&t| close(iv.estimate, t)));
        (read_all && !exact).then(|| "read every record but differs from the truth".to_string())
    }
}

/// Pooled coverage below which a run fails: the intervals claim 95%, and
/// correct runs pool 0.92–1.0 over their accuracy jobs.
const COVERAGE_FLOOR: f64 = 0.8;

fn put_accuracy(out: &mut Outcome, acc: &Accuracy) {
    if acc.coverage() < COVERAGE_FLOOR {
        out.problems.push(format!(
            "coverage {:.3} below {COVERAGE_FLOOR}: the intervals miss the truth",
            acc.coverage()
        ));
    }
    out.put("rel_bound.p50", acc.rel_bound_p50(), "ratio");
    out.put("rel_bound.max", acc.rel_bound_max(), "ratio");
    out.put("rel_error.p50", acc.rel_error_p50(), "ratio");
    out.put("coverage", acc.coverage(), "ratio");
}

/// Runs the workload the settings name.
pub fn run(settings: &Settings) -> Outcome {
    match settings.workload.as_str() {
        "log-ratio" => text_batch(
            settings,
            84,
            60_000,
            project_bytes,
            ApproxSpec::ratios(0.25, 0.10),
            RATIO_ACCURACY_JOBS,
        ),
        "log-target" => text_batch(
            settings,
            24,
            16_000,
            page_bytes,
            ApproxSpec::target(0.001, 0.95),
            ACCURACY_JOBS,
        ),
        "log-process" => process_batch(settings, 84, 20_000),
        "service-mix" => service_mix(settings, SERVICE_RATE),
        other => unreachable!("unknown workload {other}"),
    }
}

type PlainFn<'a> = dyn Fn(u64, usize) -> Result<ApproxResult<(u64, Interval)>, String> + 'a;
type TracedFn<'a> = dyn Fn(u64, usize, &AggRecorder, Option<Arc<Obs>>) -> Result<JobResult<(u64, Interval)>, String>
    + 'a;

/// What the per-layer arithmetic needs to know about a job.
#[derive(Clone, Copy)]
struct JobShape {
    /// Records in the whole dataset the answer covers.
    records: u64,
    /// The spec's error target, in target mode.
    target: Option<f64>,
    /// Whether map attempts run in worker processes.
    process: bool,
}

/// A batch workload's program side: the plain job, the decorated job and
/// the DFS replay of the executed splits.
struct BatchJob<'a> {
    /// Runs the job with a seed on a number of slots.
    plain: Box<PlainFn<'a>>,
    /// Runs the decorated job with a seed on a number of slots.
    traced: Box<TracedFn<'a>>,
    dfs_replay: Box<dyn Fn(&JobMetrics) -> f64 + 'a>,
    /// On the process backend: the same job on threads, timed in traced
    /// runs to show the gap the process layers account for.
    threads_twin: Option<Box<PlainFn<'a>>>,
    shape: JobShape,
    /// The threads backend's precise answer on one slot, which the
    /// process backend must reproduce bit for bit; `None` on threads.
    reference: Option<Vec<(u64, Interval)>>,
    /// Jobs at the head of the seed list the accuracy metrics pool.
    accuracy_jobs: usize,
}

fn text_batch(
    settings: &Settings,
    blocks: u64,
    lines: u64,
    map_fn: fn(&String, &mut dyn FnMut(u64, f64)),
    spec: ApproxSpec,
    accuracy_jobs: usize,
) -> Outcome {
    let mut setup = Vec::new();
    let mut loaded = None;
    {
        // The generated text lives only through set-up.
        let text = Text::new(&generate(settings.seed, blocks, lines));
        let begun = Instant::now();
        while more_setups(setup.len(), begun) {
            let (dfs, mut sources, secs) = load_dfs(&[("log".to_string(), &text)], lines);
            setup.push(secs);
            loaded = Some((dfs, sources.remove(0)));
        }
    }
    let (dfs, source) = loaded.expect("at least one set-up");
    let handle: FileHandle = source.handle().clone();
    let source = Arc::new(source);
    let target = match spec {
        ApproxSpec::Target {
            target: ErrorTarget::Relative(x) | ErrorTarget::Absolute(x),
            ..
        } => Some(x),
        _ => None,
    };
    let job = BatchJob {
        plain: Box::new(|seed, slots| {
            AggregationJob::sum(map_fn)
                .spec(spec)
                .config(job_config(seed, slots))
                .run(&*source)
                .map_err(|e| e.to_string())
        }),
        traced: Box::new(|seed, slots, rec, _obs| {
            run_decorated(
                Backend::Threads,
                Arc::clone(&source),
                map_fn,
                Aggregation::Sum,
                spec,
                job_config(seed, slots),
                rec,
            )
        }),
        dfs_replay: Box::new(|metrics| dfs_replay(&dfs, &handle, metrics)),
        threads_twin: None,
        shape: JobShape {
            records: blocks * lines,
            target,
            process: false,
        },
        reference: None,
        accuracy_jobs,
    };
    let precise = AggregationJob::sum(map_fn)
        .config(job_config(settings.seed, nproc()))
        .run(&*source)
        .expect("precise reference run");
    batch(settings, &job, Truth::new(&precise.outputs), setup)
}

/// Spill budget of the process workload: small enough that every attempt
/// spills its shuffle to disk.
const SPILL_BYTES: usize = 128 * 1024;

fn process_batch(settings: &Settings, blocks: u64, lines: u64) -> Outcome {
    let generated = generate(settings.seed, blocks, lines);
    let mut setup = Vec::new();
    let mut source = None;
    // Set-up hands the program an owned copy of the blocks, as a loader
    // would have to produce it, and builds the source over it.
    let begun = Instant::now();
    while more_setups(setup.len(), begun) {
        let t = Instant::now();
        source =
            Some(VecSource::try_new(generated.clone()).expect("generated blocks are non-empty"));
        setup.push(t.elapsed().as_secs_f64());
    }
    drop(generated);
    let source = Arc::new(source.expect("at least one set-up"));
    let worker = match WorkerSpec::sibling("approx-worker", "page-traffic") {
        Ok(w) if w.bin.exists() => w,
        _ => {
            let mut out = Outcome::default();
            out.fail("approx-worker binary not found beside perfbench".into());
            return out;
        }
    };
    let config = |seed, slots| JobConfig {
        shuffle_mem_bytes: SPILL_BYTES,
        ..job_config(seed, slots)
    };
    // The threads backend's precise answer: the truth, and (on one slot,
    // where completion order cannot reorder the floating-point sums) the
    // bytes the process backend must reproduce.
    let precise = AggregationJob::sum(page_traffic)
        .config(job_config(job_seed(settings.seed, 0), 1))
        .run(&*source)
        .expect("precise reference run");
    let job = BatchJob {
        plain: Box::new(|seed, slots| {
            AggregationJob::sum(page_traffic)
                .config(config(seed, slots))
                .run_on_workers(&*source, &worker)
                .map_err(|e| e.to_string())
        }),
        traced: Box::new(|seed, slots, rec, obs| {
            run_decorated(
                Backend::Process(&worker),
                Arc::clone(&source),
                page_traffic,
                Aggregation::Sum,
                ApproxSpec::Precise,
                JobConfig {
                    obs,
                    ..config(seed, slots)
                },
                rec,
            )
        }),
        dfs_replay: Box::new(|_| 0.0),
        threads_twin: Some(Box::new(|seed, slots| {
            AggregationJob::sum(page_traffic)
                .config(job_config(seed, slots))
                .run(&*source)
                .map_err(|e| e.to_string())
        })),
        shape: JobShape {
            records: blocks * lines,
            target: None,
            process: true,
        },
        reference: Some(precise.outputs.clone()),
        accuracy_jobs: ACCURACY_JOBS,
    };
    batch(settings, &job, Truth::new(&precise.outputs), setup)
}

/// Seconds `DfsCluster::read_block` takes over the splits a job executed.
fn dfs_replay(dfs: &DfsCluster, file: &FileHandle, metrics: &JobMetrics) -> f64 {
    let t = Instant::now();
    for s in &metrics.map_stats {
        let id = file.blocks[s.task.0].id;
        std::hint::black_box(dfs.read_block(id).expect("replayed block read"));
    }
    t.elapsed().as_secs_f64()
}

/// Whether `x` and `y` are equal to a relative `1e-9`, as floating-point
/// sums of the same terms in another order are.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
}

/// Whether two answers hold the same keys with estimates and half-widths
/// [`close`] to each other.
fn near(a: &[(u64, Interval)], b: &[(u64, Interval)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, ia), (kb, ib))| {
            ka == kb && close(ia.estimate, ib.estimate) && close(ia.half_width, ib.half_width)
        })
}

/// Runs a batch workload: the bit-identity checks, one warm-up job, then
/// jobs back to back for the measured seconds (and at least the job's
/// accuracy jobs).
fn batch(settings: &Settings, job: &BatchJob<'_>, truth: Truth, setup: Vec<f64>) -> Outcome {
    let mut out = Outcome::default();
    out.put("setup_s", median(&setup), "s");
    let slots = nproc();
    // Bit-identity holds on one slot, where completion order cannot
    // reorder the reducer's floating-point sums: the decorated job must
    // equal the plain one, and the process backend the threads backend.
    let seed0 = job_seed(settings.seed, 0);
    if settings.trace || job.reference.is_some() {
        out.attempted += 1;
        match (job.plain)(seed0, 1) {
            Err(e) => out.fail(format!("one-slot job: {e}")),
            Ok(one) => {
                if let Some(reference) = &job.reference {
                    if !identical(&one.outputs, reference) {
                        out.fail(
                            "process backend's answer differs from the threads backend's".into(),
                        );
                    }
                }
                if settings.trace {
                    out.attempted += 1;
                    let rec: AggRecorder = Recorder::new(0, false);
                    match (job.traced)(seed0, 1, &rec, None) {
                        Err(e) => out.fail(format!("one-slot decorated job: {e}")),
                        Ok(t) if !identical(&t.outputs, &one.outputs) => {
                            out.fail("decorated job's answer differs from the plain job's".into())
                        }
                        Ok(_) => {}
                    }
                }
            }
        }
    }
    let check = |out: &mut Outcome,
                 outputs: &[(u64, Interval)],
                 metrics: &JobMetrics,
                 acc: &mut Accuracy,
                 what: &str| {
        if let Some(p) = truth.check(outputs, metrics, job.shape.records, acc) {
            out.fail(format!("{what}: {p}"));
            return false;
        }
        if let Some(reference) = &job.reference {
            if !near(outputs, reference) {
                out.fail(format!("{what}: answer differs from the precise reference"));
                return false;
            }
        }
        true
    };
    // Warm-up: worker binaries, allocator and page cache.
    let _ = (job.plain)(job_seed(settings.seed, u64::MAX), slots);
    trim_heap();

    let mut acc = Accuracy::default();
    let mut plain_secs = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut peaks = Vec::new();
    let mut traced_secs = Vec::new();
    let mut twin_secs = Vec::new();
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    for j in 0u64.. {
        if j as usize >= job.accuracy_jobs && start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
        let seed = job_seed(settings.seed, j);
        let mut scratch = Accuracy::default();
        let acc_now = if (j as usize) < job.accuracy_jobs {
            &mut acc
        } else {
            &mut scratch
        };
        out.attempted += 1;
        reset_peak_rss();
        let cpu = cpu_secs();
        let t = Instant::now();
        let plain = (job.plain)(seed, slots);
        let secs = t.elapsed().as_secs_f64();
        let cpu = cpu_secs() - cpu;
        peaks.push(peak_rss_mb());
        let plain = match plain {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("job {j}: {e}"));
                continue;
            }
        };
        if check(
            &mut out,
            &plain.outputs,
            &plain.metrics,
            acc_now,
            &format!("job {j}"),
        ) {
            plain_secs.push(secs);
            plain_cpu.push(cpu);
        }
        if let (true, Some(twin)) = (settings.trace, &job.threads_twin) {
            out.attempted += 1;
            let t = Instant::now();
            match twin(seed, slots) {
                Ok(r)
                    if check(
                        &mut out,
                        &r.outputs,
                        &r.metrics,
                        &mut Accuracy::default(),
                        &format!("threads twin {j}"),
                    ) =>
                {
                    twin_secs.push(t.elapsed().as_secs_f64())
                }
                Ok(_) => {}
                Err(e) => out.fail(format!("threads twin {j}: {e}")),
            }
        }
        if settings.trace {
            out.attempted += 1;
            let rec: AggRecorder = Recorder::new(j, true);
            let obs = Obs::shared();
            let t = Instant::now();
            match (job.traced)(seed, slots, &rec, Some(Arc::clone(&obs))) {
                Err(e) => out.fail(format!("traced job {j}: {e}")),
                Ok(traced) => {
                    rec.end_job();
                    let wall = t.elapsed().as_secs_f64();
                    let what = format!("traced job {j}");
                    if check(
                        &mut out,
                        &traced.outputs,
                        &traced.metrics,
                        &mut Accuracy::default(),
                        &what,
                    ) {
                        traced_secs.push(wall);
                        let first = rec
                            .first_read()
                            .map_or(0.0, |f| f.duration_since(t).as_secs_f64());
                        let dfs_s = (job.dfs_replay)(&traced.metrics);
                        samples.push(layer_sample(
                            &rec,
                            &traced,
                            Some(&obs),
                            wall,
                            first,
                            dfs_s,
                            job.shape,
                        ));
                        spans.extend(rec.spans());
                    }
                }
            }
        }
    }
    out.put("peak_rss_mb", median(&peaks), "MiB");
    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    put_accuracy(&mut out, &acc);
    let p50 = median(&plain_secs);
    out.put("job_s.p50", p50, "s");
    out.put("job_s.min", min(&plain_secs), "s");
    out.put("job_cpu_s.p50", median(&plain_cpu), "s");
    out.put("jobs.measured", plain_secs.len() as f64, "count");
    if let Some((q, v)) = tail_percentile(&plain_secs, 10) {
        out.put(&format!("job_s.p{}", q * 100.0), v, "s");
    }
    out.put(
        "input_records_per_s",
        job.shape.records as f64 / p50,
        "records/s",
    );
    out.put(
        "goodput_jobs_per_s",
        plain_secs.len() as f64 / start.elapsed().as_secs_f64(),
        "jobs/s",
    );
    if settings.trace {
        let mean = mean_sample(&samples);
        put_ledger(&mut out, &mean, job.shape.process);
        for (name, value) in mean {
            out.put(name, value, unit_of(name));
        }
        for name in [
            "pool.wait_s.p50",
            "pool.busy_frac",
            "admission.submit_s",
            "admission.degrade.mean",
            "admission.degraded_frac",
            "bench.gen_lag_s.max",
        ] {
            out.put(name, 0.0, unit_of(name));
        }
        out.put(
            "trace.overhead_frac",
            median(&traced_secs) / p50 - 1.0,
            "ratio",
        );
        if !twin_secs.is_empty() {
            out.put("threads_twin.job_s.p50", median(&twin_secs), "s");
            out.put("process.gap_s", p50 - median(&twin_secs), "s");
        }
        write_spans(settings, &spans);
    }
    out
}

/// The unit of a per-layer metric (seconds for the ledger's `self.*`).
fn unit_of(name: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("s", |(_, unit)| unit)
}

fn mean_sample(samples: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut sum: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in samples {
        for (k, v) in s {
            *sum.entry(k).or_default() += v;
        }
    }
    let n = samples.len().max(1) as f64;
    sum.into_iter().map(|(k, v)| (k, v / n)).collect()
}

/// Puts each layer's self time (its time minus its children's) into the
/// report as `self.<layer>`, from the per-job means in `mean`. These plus
/// `residual_frac` account for the traced wall × slots.
fn put_ledger(out: &mut Outcome, mean: &BTreeMap<&'static str, f64>, process: bool) {
    let g = |k: &str| mean.get(k).copied().unwrap_or(0.0);
    let mut layers: Vec<(&'static str, f64, &[&'static str])> = vec![
        ("reducer.fold_s", g("reducer.fold_s"), &[]),
        ("reducer.finish_s", g("reducer.finish_s"), &[]),
        ("core.coordinator_s", g("core.coordinator_s"), &[]),
    ];
    if process {
        const WORKER: &[&str] = &[
            "process.worker_read_s",
            "process.worker_map_s",
            "process.worker_drain_s",
        ];
        layers.push(("engine.task_s", g("engine.task_s"), WORKER));
        for w in WORKER {
            layers.push((w, g(w), &[]));
        }
        layers.push(("input.read_s", g("input.read_s"), &[]));
    } else {
        layers.push((
            "engine.task_s",
            g("engine.task_s"),
            &["input.read_s", "mapper.map_s", "combine.fold_s"],
        ));
        layers.push(("input.read_s", g("input.read_s"), &["dfs.read_s"]));
        for l in ["dfs.read_s", "mapper.map_s", "combine.fold_s"] {
            layers.push((l, g(l), &[]));
        }
    }
    for (name, secs) in perfbench::measure::self_times(&layers) {
        out.put(&format!("self.{name}"), secs, "s");
    }
}

/// Encodes, frames, unframes and decodes every kept map-output batch;
/// returns `(pairs, encoded bytes, encode s, frame s, decode s)`.
fn ipc_replay(batches: &[Vec<(u64, KeyStat)>]) -> (u64, u64, f64, f64, f64) {
    let (mut pairs, mut bytes) = (0u64, 0u64);
    let (mut enc, mut frame, mut dec) = (0.0, 0.0, 0.0);
    let mut buf = Vec::new();
    let mut framed = Vec::new();
    for batch in batches {
        pairs += batch.len() as u64;
        buf.clear();
        framed.clear();
        let t = Instant::now();
        batch.encode(&mut buf);
        enc += t.elapsed().as_secs_f64();
        bytes += buf.len() as u64;
        let t = Instant::now();
        write_frame(&mut framed, &buf).expect("frame within the size limit");
        let payload = read_frame(&mut Cursor::new(&framed))
            .expect("well-formed frame")
            .expect("one frame");
        frame += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back: Vec<(u64, KeyStat)> = Decoder::new(&payload).decode().expect("decodable batch");
        dec += t.elapsed().as_secs_f64();
        assert_eq!(back.len(), batch.len(), "replay round trip lost pairs");
    }
    (pairs, bytes, enc, frame, dec)
}

/// The per-layer values of one traced job: `wall` is its call-to-result
/// time, `first_read` the time to its first split open, `dfs_s` the DFS
/// replay of its executed splits; `obs` holds its worker spans and spill
/// counters on the process backend.
fn layer_sample(
    rec: &AggRecorder,
    job: &JobResult<(u64, Interval)>,
    obs: Option<&Obs>,
    wall: f64,
    first_read: f64,
    dfs_s: f64,
    shape: JobShape,
) -> BTreeMap<&'static str, f64> {
    let m = &job.metrics;
    let slots = nproc() as f64;
    let input = rec.secs(Layer::Input);
    let map = rec.secs(Layer::Mapper);
    let combine = rec.secs(Layer::Combine);
    let fold = rec.secs(Layer::ReducerFold);
    let finish = rec.secs(Layer::ReducerFinish);
    let coordinator = rec.secs(Layer::Coordinator);
    let task: f64 = m.map_stats.iter().map(|s| s.duration_secs).sum();
    let events = obs.map(|o| o.tracer.events()).unwrap_or_default();
    let span_secs = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.phase == 'X' && e.name == name)
            .map(|e| e.dur_us as f64 * 1e-6)
            .sum()
    };
    let (w_read, w_map, w_drain) = (
        span_secs("read block"),
        span_secs("map+combine"),
        span_secs("drain shuffle"),
    );
    let process = shape.process;
    // On the process backend the map attempt runs in a worker: its parts
    // are the worker's spans, and the parent reads (spools) the input
    // before dispatch, outside the attempts.
    let (ship, attributed) = if process {
        (
            task - w_read - w_map - w_drain,
            task + input + fold + finish + coordinator,
        )
    } else {
        (
            task - input - map - combine,
            task + fold + finish + coordinator,
        )
    };
    let batches = rec.take_batches();
    let (pairs, bytes, enc, frame, dec) = ipc_replay(&batches);
    let snap = obs.map(|o| o.registry.snapshot()).unwrap_or_default();
    let time_to_bound = shape
        .target
        .and_then(|target| {
            m.bound_series
                .iter()
                .find(|p| p.relative_bound <= target)
                .map(|p| p.t_secs)
        })
        .unwrap_or(m.wall_secs);
    let attempts = (m.executed_maps + m.killed_maps + m.failed_maps).max(1) as f64;
    BTreeMap::from([
        ("dfs.read_s", dfs_s),
        ("input.read_s", input),
        (
            "input.ns_per_sampled_record",
            input * 1e9 / m.sampled_records.max(1) as f64,
        ),
        ("mapper.map_s", map),
        ("mapper.calls", rec.calls(Layer::Mapper) as f64),
        ("combine.fold_s", combine),
        ("combine.calls", rec.calls(Layer::Combine) as f64),
        ("combine.factor", m.combine_factor()),
        ("engine.task_s", task),
        ("engine.ship_s", ship),
        ("engine.slot_busy_frac", task / (wall * slots)),
        ("engine.first_map_s", first_read),
        ("engine.maps_executed", m.executed_maps as f64),
        ("engine.maps_dropped", m.dropped_maps as f64),
        ("engine.maps_killed", m.killed_maps as f64),
        (
            "engine.useful_attempt_frac",
            m.executed_maps as f64 / attempts,
        ),
        ("shuffle.pairs", m.shuffled_pairs as f64),
        ("shuffle.bytes", bytes as f64),
        ("reducer.fold_s", fold),
        ("reducer.finish_s", finish),
        ("reducer.keys", job.outputs.len() as f64),
        ("core.coordinator_s", coordinator),
        ("core.time_to_bound_s", time_to_bound),
        (
            "core.records_frac",
            m.sampled_records as f64 / shape.records as f64,
        ),
        ("ipc.encode_ns_per_pair", enc * 1e9 / pairs.max(1) as f64),
        ("ipc.decode_ns_per_pair", dec * 1e9 / pairs.max(1) as f64),
        ("ipc.frame_s", frame),
        ("process.worker_read_s", w_read),
        ("process.worker_map_s", w_map),
        ("process.worker_drain_s", w_drain),
        (
            "spill.runs",
            snap.counter_total("approx_process_spill_runs_total") as f64,
        ),
        (
            "spill.bytes",
            snap.counter_total("approx_process_spill_bytes_total") as f64,
        ),
        ("residual_frac", 1.0 - attributed / (wall * slots)),
    ])
}

/// Writes the traced jobs' spans as JSON lines (best effort: the span
/// dump is for people, the metrics do not depend on it).
fn write_spans(settings: &Settings, spans: &[perfbench::decor::Span]) {
    let path = settings.out_dir.join(format!(
        "spans-{}-{}.jsonl",
        settings.workload, settings.seed
    ));
    let mut text = String::new();
    for s in spans {
        text.push_str(&format!(
            "{{\"job\":{},\"name\":\"{}\",\"parent\":{},\"task\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
            s.job,
            s.name,
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.task.map_or("null".into(), |t| t.to_string()),
            s.start_ns,
            s.dur_ns
        ));
    }
    let _ = std::fs::create_dir_all(&settings.out_dir);
    let _ = std::fs::write(path, text);
}

// ---------------------------------------------------------------------
// service-mix: an open-loop Poisson stream into the job service.
// ---------------------------------------------------------------------

/// Log slices the service jobs read, round robin.
const SLICES: usize = 6;
/// Blocks per slice.
const SLICE_BLOCKS: u64 = 8;
/// Lines per block of a slice.
const SLICE_LINES: u64 = 30_000;
/// Latency limit of a service job: the admission controller's default
/// p99 target.
const SLO_S: f64 = 1.0;
/// Offered rate, jobs/s: between a quarter and a half of the knee
/// `--find-knee` measured, which follows the host's speed (see
/// `perfbench/README.md`).
const SERVICE_RATE: f64 = 10.0;
/// Generator lag (seconds behind the schedule) past which a growing lag
/// marks the run invalid.
const GEN_LAG_LIMIT_S: f64 = 0.05;

/// Poisson arrival offsets (seconds) over `[0, horizon)` at `rate`.
fn arrivals(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    for i in 0.. {
        let u = (job_seed(seed ^ 0xA11A_17A1, i) >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= horizon {
            break;
        }
        out.push(t);
    }
    out
}

struct Pending {
    index: usize,
    slice: usize,
    due: f64,
    submitted: Instant,
    traced: Option<AggRecorder>,
    handle: JobHandle<(u64, Interval)>,
}

fn service_mix(settings: &Settings, rate: f64) -> Outcome {
    let mut out = Outcome::default();
    let generated: Vec<Text> = (0..SLICES)
        .map(|s| {
            Text::new(&generate(
                job_seed(settings.seed, 1_000 + s as u64),
                SLICE_BLOCKS,
                SLICE_LINES,
            ))
        })
        .collect();
    let files: Vec<(String, &Text)> = generated
        .iter()
        .enumerate()
        .map(|(s, text)| (format!("slice-{s}"), text))
        .collect();
    let mut setup = Vec::new();
    let mut loaded = None;
    let begun = Instant::now();
    while more_setups(setup.len(), begun) {
        let (dfs, sources, secs) = load_dfs(&files, SLICE_LINES);
        let t = Instant::now();
        let service = JobService::new(nproc(), AdmissionConfig::default());
        setup.push(secs + t.elapsed().as_secs_f64());
        loaded = Some((dfs, sources, service));
    }
    drop(files);
    drop(generated);
    let (dfs, sources, service) = loaded.expect("at least one set-up");
    let sources: Vec<Arc<TextSource>> = sources.into_iter().map(Arc::new).collect();
    out.put("setup_s", median(&setup), "s");
    let truths: Vec<Truth> = sources
        .iter()
        .map(|s| {
            let precise = AggregationJob::sum(project_bytes)
                .config(job_config(settings.seed, nproc()))
                .run(&**s)
                .expect("precise reference run");
            Truth::new(&precise.outputs)
        })
        .collect();
    trim_heap();
    reset_peak_rss();

    let schedule = arrivals(settings.seed, rate, settings.seconds);
    let traced_from = if settings.trace {
        settings.seconds / 2.0
    } else {
        f64::INFINITY
    };
    let mapper = Arc::new(MultiStageMapper::new(project_bytes));
    let slots = nproc();
    let mut acc = Accuracy::default();
    let mut latencies: Vec<(bool, f64)> = Vec::new();
    let mut lags = Vec::with_capacity(schedule.len());
    let mut submit_secs = Vec::new();
    let mut degrades = Vec::new();
    let mut busy = (0.0f64, 0u64);
    let mut traced_done = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    let drain_deadline = settings.seconds + 30.0;
    let mut next = 0;
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < schedule.len() && schedule[next] <= now {
            let due = schedule[next];
            let slice = next % SLICES;
            let traced = due >= traced_from;
            let spec = JobSpec {
                name: format!("job-{next}"),
                // One slot per job: two jobs run side by side and the pool
                // queues from the third, instead of every overlap queueing
                // a whole job (which made latency swing with host speed).
                map_slots: 1,
                seed: job_seed(settings.seed, next as u64),
                budget: ApproxBudget::up_to(0.7, 0.25),
                ..JobSpec::default()
            };
            let t = Instant::now();
            lags.push((t.duration_since(start).as_secs_f64() - due).max(0.0));
            out.attempted += 1;
            let (submitted, rec) = if traced {
                let rec: AggRecorder = Recorder::new(next as u64, true);
                let r2 = Arc::clone(&rec);
                let h = service.submit(
                    spec,
                    Arc::new(TimedSource::new(
                        Arc::clone(&sources[slice]),
                        Arc::clone(&rec),
                    )),
                    Arc::new(TimedMapper::new(
                        MultiStageMapper::new(project_bytes),
                        Arc::clone(&rec),
                    )),
                    move |_| {
                        TimedReducer::new(
                            MultiStageReducer::<u64>::new(Aggregation::Sum, 0.95),
                            Arc::clone(&r2),
                        )
                    },
                );
                (h, Some(rec))
            } else {
                let h = service.submit(
                    spec,
                    Arc::clone(&sources[slice]),
                    Arc::clone(&mapper),
                    |_| MultiStageReducer::<u64>::new(Aggregation::Sum, 0.95),
                );
                (h, None)
            };
            if traced {
                submit_secs.push(t.elapsed().as_secs_f64());
            }
            match submitted {
                Ok(handle) => {
                    degrades.push(handle.degrade);
                    pending.push(Pending {
                        index: next,
                        slice,
                        due,
                        submitted: t,
                        traced: rec,
                        handle,
                    });
                }
                Err(e) => out.fail(format!("job {next} refused: {e}")),
            }
            next += 1;
        }
        if now >= traced_from && now < settings.seconds {
            busy.0 += service.pool().busy() as f64 / slots as f64;
            busy.1 += 1;
        }
        if now < settings.seconds.min(traced_from) && now >= (peaks.len() + 1) as f64 {
            peaks.push(peak_rss_mb());
            reset_peak_rss();
        }
        let mut i = 0;
        while i < pending.len() {
            let Some(result) = pending[i].handle.try_wait() else {
                i += 1;
                continue;
            };
            let p = pending.swap_remove(i);
            let latency = start.elapsed().as_secs_f64() - p.due;
            match result {
                Err(e) => out.fail(format!("job {}: {e}", p.index)),
                Ok(r) => {
                    if let Some(problem) = truths[p.slice].check(
                        &r.outputs,
                        &r.metrics,
                        SLICE_BLOCKS * SLICE_LINES,
                        &mut acc,
                    ) {
                        out.fail(format!("job {}: {problem}", p.index));
                        continue;
                    }
                    latencies.push((p.traced.is_some(), latency));
                    if let Some(rec) = p.traced {
                        // Per-layer arithmetic waits until the schedule
                        // is over, so it cannot delay a submission.
                        traced_done.push((
                            rec,
                            r,
                            p.submitted.elapsed().as_secs_f64(),
                            p.submitted,
                            p.slice,
                        ));
                    }
                }
            }
        }
        if next == schedule.len() && pending.is_empty() {
            break;
        }
        if now > drain_deadline {
            for p in pending.drain(..) {
                out.fail(format!(
                    "job {} still running at the drain deadline",
                    p.index
                ));
            }
            break;
        }
        let until_next = schedule
            .get(next)
            .map_or(0.001, |d| (d - now).clamp(0.0, 0.001));
        std::thread::sleep(Duration::from_secs_f64(until_next.max(0.000_2)));
    }

    // Open-loop validity: the generator must keep up with its schedule.
    let lag_max = lags.iter().copied().fold(0.0, f64::max);
    let third = lags.len() / 3;
    if third > 0 {
        let early = median(&lags[..third]);
        let late = median(&lags[lags.len() - third..]);
        if lag_max > GEN_LAG_LIMIT_S && late > early + 0.01 {
            out.problems.push(format!(
                "generator fell behind its schedule (lag {early:.4}s early, {late:.4}s late)"
            ));
        }
    }
    let plain: Vec<f64> = latencies
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, l)| *l)
        .collect();
    let attempted = out.attempted.max(1) as f64;
    let within = plain.iter().filter(|&&l| l <= SLO_S).count();
    let measured_attempts = if settings.trace {
        schedule.iter().filter(|&&d| d < traced_from).count().max(1) as f64
    } else {
        attempted
    };
    let p50 = median(&plain);
    out.put("peak_rss_mb", median(&peaks), "MiB");
    out.put("job_s.p50", p50, "s");
    out.put("job_s.min", min(&plain), "s");
    out.put("job_s.p90", perfbench::measure::quantile(&plain, 0.9), "s");
    out.put("job_s.p99", perfbench::measure::quantile(&plain, 0.99), "s");
    out.put("jobs.measured", plain.len() as f64, "count");
    if let Some((q, v)) = tail_percentile(&plain, 10) {
        out.put(&format!("job_s.p{}", q * 100.0), v, "s");
    }
    out.put(
        "input_records_per_s",
        (SLICE_BLOCKS * SLICE_LINES) as f64 / p50,
        "records/s",
    );
    out.put("failed_frac", out.failed as f64 / attempted, "ratio");
    out.put(
        "slo_miss_frac",
        1.0 - within as f64 / measured_attempts,
        "ratio",
    );
    out.put(
        "goodput_jobs_per_s",
        within as f64 / settings.seconds.min(traced_from),
        "jobs/s",
    );
    out.put("offered_jobs_per_s", rate, "jobs/s");
    out.put("bench.gen_lag_s.max", lag_max, "s");
    out.put(
        "admission.degrade.mean",
        degrades.iter().sum::<f64>() / degrades.len().max(1) as f64,
        "ratio",
    );
    out.put(
        "admission.degraded_frac",
        degrades.iter().filter(|&&d| d > 0.0).count() as f64 / degrades.len().max(1) as f64,
        "ratio",
    );
    put_accuracy(&mut out, &acc);
    if settings.trace {
        let traced: Vec<f64> = latencies
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, l)| *l)
            .collect();
        let shape = JobShape {
            records: SLICE_BLOCKS * SLICE_LINES,
            target: None,
            process: false,
        };
        let mut attributed: f64 = submit_secs.iter().sum();
        let mut samples = Vec::new();
        for (rec, r, wall, submitted, slice) in &traced_done {
            let first = rec
                .first_read()
                .map_or(0.0, |f| f.duration_since(*submitted).as_secs_f64());
            let dfs_s = dfs_replay(&dfs, sources[*slice].handle(), &r.metrics);
            let sample = layer_sample(rec, r, None, *wall, first, dfs_s, shape);
            attributed += r
                .metrics
                .map_stats
                .iter()
                .map(|s| s.duration_secs)
                .sum::<f64>()
                + sample["reducer.fold_s"]
                + sample["reducer.finish_s"];
            samples.push(sample);
        }
        let mean = mean_sample(&samples);
        put_ledger(&mut out, &mean, false);
        for (name, value) in mean {
            out.put(name, value, unit_of(name));
        }
        let waits = pool_waits(&service);
        out.put("pool.wait_s.p50", waits, "s");
        out.put("pool.busy_frac", busy.0 / busy.1.max(1) as f64, "ratio");
        out.put("admission.submit_s", median(&submit_secs), "s");
        out.put("trace.overhead_frac", median(&traced) / p50 - 1.0, "ratio");
        let window = (settings.seconds - traced_from) * slots as f64;
        out.put("residual_frac", 1.0 - attributed / window, "ratio");
    }
    out
}

/// Median pool wait across every tenant the service registered, from
/// the pool's own `pool_wait_secs` histograms.
fn pool_waits(service: &JobService) -> f64 {
    let registry = &service.obs().registry;
    let mut merged: Option<approxhadoop_obs::HistogramSnapshot> = None;
    for tenant in 0..service.submitted() {
        let snap = registry
            .histogram("pool_wait_secs", &[("tenant", &tenant.to_string())])
            .snapshot();
        match &mut merged {
            None => merged = Some(snap),
            Some(m) => {
                for (a, b) in m.counts.iter_mut().zip(&snap.counts) {
                    *a += b;
                }
                m.count += snap.count;
                m.sum += snap.sum;
            }
        }
    }
    merged.and_then(|m| m.p50()).unwrap_or(0.0)
}

/// Finds the service-mix knee with the server's saturation search
/// (`loadgen::find_max_tps_with`: doubling ramp, then bisection). Each
/// step runs the workload's job stream for 15 s at the offered rate and
/// passes when its p90 latency stays within [`SLO_S`], no job fails and
/// the generator keeps to its schedule. Prints every step and the knee.
pub fn find_knee(seed: u64) {
    let cfg = SatConfig {
        start_rate: 8.0,
        max_steps: 8,
        precision: 0.1,
        compare_at_knee: false,
        ..SatConfig::default()
    };
    let report = find_max_tps_with(&cfg, |rate, phase, mode| {
        let settings = Settings {
            workload: "service-mix".into(),
            seed,
            seconds: 15.0,
            trace: false,
            out_dir: PathBuf::from("."),
        };
        let out = service_mix(&settings, rate);
        let get = |n: &str| out.report.get(n).map_or(f64::NAN, |v| v.0);
        let step = StepMeasurement {
            phase,
            mode,
            offered_rate: rate,
            achieved_rate: rate,
            throughput_jobs_per_sec: get("goodput_jobs_per_s"),
            p99_latency_secs: get("job_s.p99"),
            violation_rate: get("slo_miss_frac"),
            worst_relative_bound: Some(get("rel_bound.max")),
            mean_degrade: get("admission.degrade.mean"),
            slo_met: get("job_s.p90") <= SLO_S && out.failed == 0,
            generator_saturated: get("bench.gen_lag_s.max") > GEN_LAG_LIMIT_S,
        };
        println!(
            "rate {rate:>5.1}/s: p50 {:.3}s p90 {:.3}s slo_miss {:.3} goodput {:.2}/s \
             lag_max {:.4}s failed {} {}",
            get("job_s.p50"),
            get("job_s.p90"),
            step.violation_rate,
            step.throughput_jobs_per_sec,
            get("bench.gen_lag_s.max"),
            out.failed,
            if step.slo_met { "holds" } else { "misses" }
        );
        step
    });
    println!(
        "knee {:.1} jobs/s (converged {}, generator saturated {})",
        report.knee_rate, report.converged, report.generator_saturated
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(estimate: f64) -> Interval {
        Interval::new(estimate, 0.0, 0.95)
    }

    #[test]
    fn an_answer_that_read_every_record_must_equal_the_truth() {
        let truth = Truth::new(&[(1, iv(10.0)), (2, iv(4.0))]);
        let read_all = JobMetrics {
            total_maps: 2,
            executed_maps: 2,
            sampled_records: 8,
            ..JobMetrics::default()
        };
        let sampled = JobMetrics {
            sampled_records: 3,
            ..read_all.clone()
        };
        let mut acc = Accuracy::default();
        let right = [(1, iv(10.0)), (2, iv(4.0))];
        assert_eq!(truth.check(&right, &read_all, 8, &mut acc), None);
        let off = [(1, iv(10.0)), (2, iv(5.0))];
        assert!(truth.check(&off, &read_all, 8, &mut acc).is_some());
        let missing = [(1, iv(10.0))];
        assert!(truth.check(&missing, &read_all, 8, &mut acc).is_some());
        // A sampled answer is judged by its intervals, not by equality.
        assert_eq!(truth.check(&off, &sampled, 8, &mut acc), None);
    }

    #[test]
    fn low_coverage_fails_the_run() {
        let truth: BTreeMap<u64, f64> = [(1, 10.0), (2, 4.0)].into();
        let mut acc = Accuracy::default();
        acc.add(&answer_map(&[(1, iv(10.0)), (2, iv(5.0))]), &truth, &[1, 2]);
        let mut out = Outcome::default();
        put_accuracy(&mut out, &acc);
        assert_eq!(out.problems.len(), 1, "{:?}", out.problems);
        let mut acc = Accuracy::default();
        acc.add(&answer_map(&[(1, iv(10.0)), (2, iv(4.0))]), &truth, &[1, 2]);
        let mut out = Outcome::default();
        put_accuracy(&mut out, &acc);
        assert!(out.problems.is_empty());
    }
}
