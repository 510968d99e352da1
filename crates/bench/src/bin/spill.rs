//! Process-backend shuffle benchmark: in-memory vs spilling budgets.
//!
//! Runs the `wide-pairs` job (each `u32` becomes a 100-byte string
//! keyed mod 16) on the multi-process backend under a sweep of
//! per-worker shuffle memory budgets, from far below the map output
//! volume (every partition spills sorted runs to disk and merges on
//! drain) up to the 64 MiB default (everything stays in memory), and
//! reports wall time, spill runs/bytes from the observability
//! counters, and whether every budget produced bit-identical outputs.
//!
//! Requires the `approx-worker-rt` worker binary next to this one
//! (`cargo build --release -p approxhadoop-runtime --bin
//! approx-worker-rt` puts it there).
//!
//! Flags and report envelope are the shared harness's (see the
//! `approxhadoop_bench` crate docs); the report lands in
//! `BENCH_spill.json`. It has no gate cells, so `--baseline` fails.
//!
//! * `--check` fails unless the tight budgets spilled, the ample budget
//!   did not, and all budgets agreed on every output.

use std::sync::Arc;

use approxhadoop_bench::{finish, header, reps, timed, BenchArgs, Check, Report, Summary};
use approxhadoop_obs::Obs;
use approxhadoop_runtime::engine::{run_job_process, JobConfig, WorkerSpec};
use approxhadoop_runtime::input::VecSource;
use approxhadoop_runtime::reducer::GroupedReducer;
use approxhadoop_runtime::{FixedCoordinator, JobId, JobSession};

/// Measurements for one shuffle memory budget.
#[derive(Debug, Clone, Copy, serde::Serialize)]
struct BudgetReport {
    budget_bytes: usize,
    wall_secs_mean: f64,
    wall_secs_min: f64,
    spill_runs: u64,
    spill_bytes: u64,
    /// Outputs bit-identical to the ample-budget reference run.
    outputs_match: bool,
}

/// Worker processes per run.
const WORKERS: usize = 2;

#[derive(Debug, Clone, serde::Serialize)]
struct Body {
    workers: usize,
    blocks: usize,
    entries_per_block: usize,
    budgets: Vec<BudgetReport>,
}

fn corpus(blocks: usize, entries: usize) -> Vec<Vec<u32>> {
    (0..blocks as u32)
        .map(|b| {
            (0..entries as u32)
                .map(|i| b * entries as u32 + i)
                .collect()
        })
        .collect()
}

/// One process-backend run of `wide-pairs` under `budget` bytes of
/// shuffle memory; returns the wall time, sorted outputs, and the
/// spill counters the run recorded.
fn run_budget(
    spec: &WorkerSpec,
    blocks: &[Vec<u32>],
    budget: usize,
    spill_dir: &std::path::Path,
) -> (f64, Vec<(u32, u64, String)>, u64, u64) {
    let obs = Obs::shared();
    let input = VecSource::new(blocks.to_vec());
    let config = JobConfig {
        workers: WORKERS,
        reduce_tasks: 4,
        shuffle_mem_bytes: budget,
        spill_dir: Some(spill_dir.to_path_buf()),
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let mut coordinator = FixedCoordinator::new(blocks.len(), 1.0, 0.0, 0);
    let session = JobSession::new(JobId(1));
    let (secs, result) = timed(|| {
        run_job_process(
            &input,
            spec,
            |_| {
                GroupedReducer::new(|k: &u32, vs: &[String]| {
                    Some((
                        *k,
                        vs.len() as u64,
                        vs.iter().max().cloned().unwrap_or_default(),
                    ))
                })
            },
            config,
            &mut coordinator,
            &session,
        )
        .expect("wide-pairs process job")
    });
    let snapshot = obs.registry.snapshot();
    let mut outputs = result.outputs;
    outputs.sort();
    (
        secs,
        outputs,
        snapshot.counter_total("approx_process_spill_runs_total"),
        snapshot.counter_total("approx_process_spill_bytes_total"),
    )
}

fn checks(body: &Body) -> Vec<Check> {
    let ample = body.budgets.last().expect("budget sweep is non-empty");
    let mut checks = vec![Check::new(
        ample.spill_runs == 0,
        format!("ample {} B budget spills no runs", ample.budget_bytes),
    )];
    for b in &body.budgets {
        if b.budget_bytes != ample.budget_bytes {
            let name = format!("tight {} B budget spills", b.budget_bytes);
            checks.push(Check::new(b.spill_runs > 0, name));
        }
        let name = format!(
            "{} B budget outputs match the in-memory run",
            b.budget_bytes
        );
        checks.push(Check::new(b.outputs_match, name));
    }
    checks
}

fn main() {
    let args = BenchArgs::from_env("spill");
    let spec = match WorkerSpec::sibling("approx-worker-rt", "wide-pairs") {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!(
                "error: {e}\nbuild it first: cargo build --release -p approxhadoop-runtime \
                 --bin approx-worker-rt"
            );
            std::process::exit(2);
        }
    };

    header(
        "Spill",
        "Process-backend shuffle: spilling budgets vs in-memory, same outputs",
    );
    let (blocks, entries) = if args.smoke { (8, 400) } else { (24, 4000) };
    let data = corpus(blocks, entries);
    // ~108 B per encoded pair; the tight budgets sit well below one
    // block's output, the ample one above the whole job's.
    let budgets: Vec<usize> = if args.smoke {
        vec![4 << 10, 16 << 10, 64 << 20]
    } else {
        vec![16 << 10, 256 << 10, 64 << 20]
    };

    let spill_root =
        std::env::temp_dir().join(format!("approx-bench-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_root).expect("create spill scratch dir");

    println!("      budget |   wall(s) |    min(s) | spill runs |  spill bytes |   match");
    let mut reference: Option<Vec<(u32, u64, String)>> = None;
    let mut rows = Vec::new();
    // Sweep largest budget first so the in-memory run is the reference.
    for &budget in budgets.iter().rev() {
        let mut walls = Vec::new();
        let mut last = None;
        for _ in 0..reps() {
            let (secs, outputs, runs, bytes) = run_budget(&spec, &data, budget, &spill_root);
            walls.push(secs);
            last = Some((outputs, runs, bytes));
        }
        let (outputs, spill_runs, spill_bytes) = last.expect("at least one rep");
        let outputs_match = match &reference {
            Some(r) => *r == outputs,
            None => {
                reference = Some(outputs);
                true
            }
        };
        let wall = Summary::of(&walls);
        rows.push(BudgetReport {
            budget_bytes: budget,
            wall_secs_mean: wall.mean,
            wall_secs_min: wall.min,
            spill_runs,
            spill_bytes,
            outputs_match,
        });
    }
    rows.reverse();
    for r in &rows {
        println!(
            "{:>10}Ki | {:>9.3} | {:>9.3} | {:>10} | {:>12} | {:>7}",
            r.budget_bytes >> 10,
            r.wall_secs_mean,
            r.wall_secs_min,
            r.spill_runs,
            r.spill_bytes,
            r.outputs_match,
        );
    }
    let _ = std::fs::remove_dir_all(&spill_root);

    let body = Body {
        workers: WORKERS,
        blocks,
        entries_per_block: entries,
        budgets: rows,
    };
    let mut report = Report::new("spill", &args, reps(), body);
    if args.check {
        report.checks = checks(&report.body);
    }
    finish(report, &args);
}
