//! The workspace benchmark binary.
//!
//! ```text
//! perfbench --workload <log-ratio|log-target|log-process|service-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--rustc <version>] [--commit <id>]
//! perfbench --find-knee --seed <n>
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics; traced
//! runs (`--trace 1`) interleave untraced jobs with decorated ones and
//! report per-layer metrics. Either way every output is checked against
//! a precise reference, a human-readable report goes to standard output
//! and the last line is one JSON object (see `perfbench/README.md`).

mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;

use perfbench::measure::valid_metric_name;

use workload::{Outcome, Settings};

/// End-to-end metrics printed on untraced runs, with their units, in
/// `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("job_s.min", "s"), ("coverage", "ratio")];

/// Per-layer metrics printed on traced runs, with their units, in
/// `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 40] = [
    ("dfs.read_s", "s"),
    ("input.read_s", "s"),
    ("input.ns_per_sampled_record", "ns"),
    ("mapper.map_s", "s"),
    ("mapper.calls", "count"),
    ("combine.fold_s", "s"),
    ("combine.calls", "count"),
    ("combine.factor", "ratio"),
    ("engine.task_s", "s"),
    ("engine.ship_s", "s"),
    ("engine.slot_busy_frac", "ratio"),
    ("engine.first_map_s", "s"),
    ("engine.maps_executed", "count"),
    ("engine.maps_dropped", "count"),
    ("engine.maps_killed", "count"),
    ("engine.useful_attempt_frac", "ratio"),
    ("shuffle.pairs", "count"),
    ("shuffle.bytes", "B"),
    ("reducer.fold_s", "s"),
    ("reducer.finish_s", "s"),
    ("reducer.keys", "count"),
    ("core.coordinator_s", "s"),
    ("core.time_to_bound_s", "s"),
    ("core.records_frac", "ratio"),
    ("ipc.encode_ns_per_pair", "ns"),
    ("ipc.decode_ns_per_pair", "ns"),
    ("ipc.frame_s", "s"),
    ("process.worker_read_s", "s"),
    ("process.worker_map_s", "s"),
    ("process.worker_drain_s", "s"),
    ("spill.runs", "count"),
    ("spill.bytes", "B"),
    ("pool.wait_s.p50", "s"),
    ("pool.busy_frac", "ratio"),
    ("admission.submit_s", "s"),
    ("admission.degrade.mean", "ratio"),
    ("admission.degraded_frac", "ratio"),
    ("bench.gen_lag_s.max", "s"),
    ("trace.overhead_frac", "ratio"),
    ("residual_frac", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out-dir <dir>] [--rustc <version>] [--commit <id>]\n       \
         perfbench --find-knee --seed <n>",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Settings, bool) {
    let mut settings = Settings {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("."),
    };
    let mut find_knee = false;
    let mut host: BTreeMap<&str, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--find-knee" {
            find_knee = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => settings.workload = value,
            "--seed" => settings.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => settings.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out-dir" => settings.out_dir = PathBuf::from(value),
            "--rustc" => {
                host.insert("rustc", value);
            }
            "--commit" => {
                host.insert("commit", value);
            }
            _ => usage(),
        }
    }
    if !find_knee && !workload::NAMES.contains(&settings.workload.as_str()) {
        usage();
    }
    let nproc = workload::nproc();
    println!(
        "host: nproc={nproc} rustc={} commit={}",
        host.get("rustc").map_or("unknown", String::as_str),
        host.get("commit").map_or("unknown", String::as_str)
    );
    (settings, find_knee)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let (settings, find_knee) = parse_args();
    if find_knee {
        workload::find_knee(settings.seed);
        return;
    }
    let outcome: Outcome = workload::run(&settings);

    // Every metric the run measured, by name and unit, for the reader.
    println!(
        "workload={} seed={} trace={} jobs attempted={} failed={}",
        settings.workload, settings.seed, settings.trace as u8, outcome.attempted, outcome.failed
    );
    for (name, (value, unit)) in &outcome.report {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }

    let wanted: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut correct = outcome.problems.is_empty() && outcome.failed == 0;
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        debug_assert!(valid_metric_name(name));
        let value = match outcome.report.get(*name) {
            Some((v, _)) if v.is_finite() => *v,
            _ => {
                println!("check failed: metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
