//! Admission-controller hot-path micro-benchmark.
//!
//! The controller recomputes p99 over its latency window under a mutex
//! on **every** job completion. The original implementation cloned and
//! sorted the whole window each time (O(n log n) per completion); the
//! controller now maintains an incrementally sorted mirror
//! (binary-search insert/remove, O(n) memmove worst case, O(1) reads).
//! This bench measures both strategies head to head across window
//! sizes, plus the full `on_job_complete` update through the real
//! controller.
//!
//! Flags and report envelope are the shared harness's (see the
//! `approxhadoop_bench` crate docs); the report lands in
//! `BENCH_admission.json`. It has no gate cells, so `--baseline` fails.
//!
//! * `--smoke` shrinks the sample count for CI;
//! * `--check` fails unless the incremental window beats clone-and-sort
//!   at every window size.

use std::collections::VecDeque;

use approxhadoop_bench::{finish, header, timed, BenchArgs, Check, Report};
use approxhadoop_server::admission::{percentile, AdmissionConfig, AdmissionController};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One strategy's cost at one window size.
#[derive(Debug, Clone, Copy, serde::Serialize)]
struct StrategyReport {
    window: usize,
    ns_per_completion: f64,
    /// p99 after the full stream (equality across strategies is the
    /// correctness check).
    final_p99: f64,
}

#[derive(Debug, Clone, serde::Serialize)]
struct SizeReport {
    window: usize,
    clone_sort: StrategyReport,
    incremental: StrategyReport,
    /// Full controller update (lock + window + feedback law + degrade).
    controller_update: StrategyReport,
    /// `clone_sort / incremental` time ratio.
    speedup: f64,
}

#[derive(Debug, Clone, serde::Serialize)]
struct Body {
    samples: usize,
    sizes: Vec<SizeReport>,
}

fn latency_stream(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let base: f64 = rng.gen::<f64>() * 0.4;
            // Occasional tail samples keep the upper ranks moving.
            if i % 37 == 0 {
                base + rng.gen::<f64>() * 4.0
            } else {
                base
            }
        })
        .collect()
}

/// The original hot path: clone + sort the whole window per completion.
fn run_clone_sort(stream: &[f64], window: usize) -> StrategyReport {
    let mut fifo: VecDeque<f64> = VecDeque::with_capacity(window + 1);
    let mut last = 0.0;
    let (secs, ()) = timed(|| {
        for &v in stream {
            fifo.push_back(v);
            while fifo.len() > window {
                fifo.pop_front();
            }
            last = percentile(fifo.make_contiguous(), 0.99).unwrap_or(0.0);
        }
    });
    StrategyReport {
        window,
        ns_per_completion: secs * 1e9 / stream.len() as f64,
        final_p99: last,
    }
}

/// The new hot path: FIFO plus an incrementally maintained sorted
/// mirror (the same structure `AdmissionController` uses internally).
fn run_incremental(stream: &[f64], window: usize) -> StrategyReport {
    let mut fifo: VecDeque<f64> = VecDeque::with_capacity(window + 1);
    let mut sorted: Vec<f64> = Vec::with_capacity(window + 1);
    let mut last = 0.0;
    let (secs, ()) = timed(|| {
        for &v in stream {
            fifo.push_back(v);
            let at = sorted.partition_point(|x| *x < v);
            sorted.insert(at, v);
            while fifo.len() > window {
                let old = fifo.pop_front().expect("non-empty");
                let at = sorted.partition_point(|x| *x < old);
                sorted.remove(at);
            }
            let rank = ((0.99 * sorted.len() as f64).ceil() as usize).max(1);
            last = sorted[rank - 1];
        }
    });
    StrategyReport {
        window,
        ns_per_completion: secs * 1e9 / stream.len() as f64,
        final_p99: last,
    }
}

/// The real controller end to end (mutex, window, feedback law).
fn run_controller(stream: &[f64], window: usize) -> StrategyReport {
    let c = AdmissionController::new(AdmissionConfig {
        window,
        p99_target_secs: 0.5,
        ..Default::default()
    });
    let (secs, ()) = timed(|| {
        for &v in stream {
            c.on_job_complete(v, 0);
        }
    });
    StrategyReport {
        window,
        ns_per_completion: secs * 1e9 / stream.len() as f64,
        final_p99: c.p99().unwrap_or(0.0),
    }
}

fn main() {
    let args = BenchArgs::from_env("admission");
    let samples = if args.smoke { 20_000 } else { 200_000 };
    let stream = latency_stream(samples, 42);

    header(
        "admission",
        "p99-window maintenance: clone-and-sort vs incrementally sorted",
    );
    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>9}",
        "window", "clone+sort ns", "incremental ns", "controller ns", "speedup"
    );

    let mut sizes = Vec::new();
    for window in [64usize, 256, 1024] {
        let clone_sort = run_clone_sort(&stream, window);
        let incremental = run_incremental(&stream, window);
        let controller_update = run_controller(&stream, window);
        assert_eq!(
            clone_sort.final_p99, incremental.final_p99,
            "strategies disagree on p99 at window {window}"
        );
        let speedup = clone_sort.ns_per_completion / incremental.ns_per_completion.max(1e-9);
        println!(
            "{:>8} {:>16.1} {:>16.1} {:>16.1} {:>8.2}x",
            window,
            clone_sort.ns_per_completion,
            incremental.ns_per_completion,
            controller_update.ns_per_completion,
            speedup
        );
        sizes.push(SizeReport {
            window,
            clone_sort,
            incremental,
            controller_update,
            speedup,
        });
    }

    // Each strategy runs the stream once per window size.
    let mut report = Report::new("admission", &args, 1, Body { samples, sizes });
    if args.check {
        report.checks = (report.body.sizes.iter())
            .map(|s| {
                Check::new(
                    s.speedup > 1.0,
                    format!(
                        "window {}: incremental beats clone-and-sort ({:.2}x)",
                        s.window, s.speedup
                    ),
                )
            })
            .collect();
    }
    finish(report, &args);
}
