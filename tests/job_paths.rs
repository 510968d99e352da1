//! One job path per layer: the aggregation builder's two backends run
//! the same plan, and every `JobService` submit path follows the same
//! lifecycle.
//!
//! The process legs start the workspace's `approx-worker` binary, whose
//! `multistage-mod5-sum` job applies the same map function as the
//! in-process legs here.

use std::collections::BTreeSet;
use std::sync::Arc;

use approxhadoop::core::job::{AggregationJob, ApproxResult};
use approxhadoop::core::multistage::{
    Aggregation, BoundMonitor, MultiStageMapper, MultiStageReducer,
};
use approxhadoop::runtime::control::DatasetRatios;
use approxhadoop::runtime::engine::{JobConfig, WorkerSpec};
use approxhadoop::runtime::event::JobEvent;
use approxhadoop::runtime::input::VecSource;
use approxhadoop::runtime::metrics::TaskOutcome;
use approxhadoop::runtime::{FaultPlan, RuntimeError};
use approxhadoop::server::admission::AdmissionConfig;
use approxhadoop::server::service::{ErrorGoal, JobHandle, JobService, JobSpec};
use approxhadoop::stats::Interval;

fn worker() -> WorkerSpec {
    WorkerSpec::new(env!("CARGO_BIN_EXE_approx-worker"), "multistage-mod5-sum")
}

fn blocks(n: usize, per_block: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|b| {
            (0..per_block)
                .map(|i| ((b * per_block + i) % 97) as f64)
                .collect()
        })
        .collect()
}

fn mod5(x: &f64, emit: &mut dyn FnMut(u8, f64)) {
    emit((*x as u64 % 5) as u8, *x)
}

fn dropped_tasks(r: &ApproxResult<(u8, Interval)>) -> BTreeSet<usize> {
    r.metrics
        .task_outcomes
        .iter()
        .filter(|t| t.outcome == TaskOutcome::Dropped)
        .map(|t| t.task.0)
        .collect()
}

/// A config carrying per-dataset ratios must drive the same coordinator
/// on both builder backends: the same maps dropped, the same answer.
#[test]
fn builder_backends_drop_the_same_maps_for_per_dataset_ratios() {
    let config = JobConfig {
        map_slots: 2,
        workers: 2,
        seed: 11,
        datasets: vec![DatasetRatios {
            sampling_ratio: 0.5,
            drop_ratio: 0.25,
        }],
        ..Default::default()
    };
    let input = VecSource::new(blocks(16, 40));
    let threads = AggregationJob::sum(mod5)
        .config(config.clone())
        .run(&input)
        .unwrap();
    let workers = AggregationJob::sum(mod5)
        .config(config)
        .run_on_workers(&input, &worker())
        .unwrap();
    assert_eq!(threads.metrics.dropped_maps, 4, "a quarter of 16 maps");
    assert_eq!(workers.metrics.dropped_maps, threads.metrics.dropped_maps);
    assert_eq!(dropped_tasks(&workers), dropped_tasks(&threads));
    assert_eq!(workers.outputs, threads.outputs);
}

#[derive(Debug, Clone, Copy)]
enum SubmitPath {
    Pool,
    Goal,
    Process,
}

fn submit(
    service: &JobService,
    path: SubmitPath,
    spec: JobSpec,
) -> Result<JobHandle<(u8, Interval)>, RuntimeError> {
    let input = Arc::new(VecSource::new(blocks(12, 30)));
    let mapper = Arc::new(MultiStageMapper::new(mod5));
    let reducer = || MultiStageReducer::<u8>::new(Aggregation::Sum, 0.95);
    match path {
        SubmitPath::Pool => service.submit(spec, input, mapper, move |_| reducer()),
        SubmitPath::Goal => service.submit_with_goal(
            spec,
            ErrorGoal::relative(0.05),
            input,
            mapper,
            move |_, shared| {
                reducer().with_monitor(BoundMonitor {
                    shared: Arc::clone(shared),
                    report_absolute: false,
                    check_every: 1,
                    freeze_threshold: Some(0.05),
                    min_maps_before_freeze: 2,
                })
            },
        ),
        SubmitPath::Process => service.submit_process(spec, input, worker(), move |_| reducer()),
    }
}

/// Every front door shares one submit body: a rejected spec takes no
/// job id, an admitted job's events run from `Queued` to `Done`, and
/// its completion reaches the admission controller exactly once.
#[test]
fn every_submit_path_follows_the_same_lifecycle() {
    for path in [SubmitPath::Pool, SubmitPath::Goal, SubmitPath::Process] {
        let service = JobService::new(2, AdmissionConfig::default());
        let zero_weight = JobSpec {
            weight: 0.0,
            ..Default::default()
        };
        assert!(submit(&service, path, zero_weight).is_err(), "{path:?}");
        assert_eq!(service.submitted(), 0, "{path:?}: rejected job took an id");
        assert_eq!(service.controller().decisions_total(), 0, "{path:?}");

        let spec = JobSpec {
            map_slots: 2,
            workers: 2,
            max_task_retries: 5,
            fault_plan: Some(FaultPlan::parse("io=0.3,seed=2").unwrap()),
            ..Default::default()
        };
        let handle = submit(&service, path, spec).unwrap();
        let events = handle.events().clone();
        let result = handle.wait().unwrap();
        let events: Vec<JobEvent> = events.try_iter().collect();
        assert!(
            matches!(events.first(), Some(JobEvent::Queued { .. })),
            "{path:?}: {events:?}"
        );
        assert!(
            matches!(events.last(), Some(JobEvent::Done { .. })),
            "{path:?}: {events:?}"
        );

        assert_eq!(service.submitted(), 1, "{path:?}");
        assert_eq!(service.controller().decisions_total(), 1, "{path:?}");
        let latencies = service
            .obs()
            .registry
            .histogram("admission_job_latency_secs", &[])
            .snapshot();
        assert_eq!(latencies.count, 1, "{path:?}: one completion fed back");
        let m = &result.metrics;
        assert!(m.failed_maps > 0, "{path:?}: the plan must inject faults");
        assert_eq!(
            service.controller().fault_totals(),
            (
                m.failed_maps as u64,
                m.retried_maps as u64,
                m.degraded_to_drop as u64
            ),
            "{path:?}"
        );
    }
}
