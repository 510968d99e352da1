//! Decorated aggregation jobs, assembled from the engine's public parts
//! exactly as `AggregationJob::run` and `AggregationJob::run_on_workers`
//! assemble them, with every part wrapped in a timing decorator.

use std::sync::Arc;

use approxhadoop_core::keystat::KeyStat;
use approxhadoop_core::multistage::{
    Aggregation, BoundMonitor, DistinctSink, MultiStageMapper, MultiStageReducer,
};
use approxhadoop_core::spec::{ApproxSpec, ErrorTarget};
use approxhadoop_core::target::{SharedApproxState, TargetErrorCoordinator};
use approxhadoop_runtime::control::{Coordinator, FixedCoordinator};
use approxhadoop_runtime::engine::{
    run_job_process, run_job_with_coordinator, JobConfig, JobResult, WorkerSpec,
};
use approxhadoop_runtime::input::InputSource;
use approxhadoop_runtime::{JobId, JobSession};
use approxhadoop_stats::Interval;

use crate::decor::{Recorder, TimedCoordinator, TimedMapper, TimedReducer, TimedSource};

/// The recorder type every decorated aggregation job uses.
pub type AggRecorder = Arc<Recorder<u64, KeyStat>>;

/// Where a decorated job's map attempts run.
pub enum Backend<'a> {
    /// Job-private task-tracker threads (`run_job_with_coordinator`).
    Threads,
    /// Worker processes started from this spec (`run_job_process`); the
    /// worker's registered job supplies the map function.
    Process(&'a WorkerSpec),
}

fn distinct_sink(reduce_tasks: usize) -> DistinctSink {
    Arc::new(parking_lot::Mutex::new(vec![None; reduce_tasks]))
}

/// Runs one decorated aggregation job keyed by `u64` and returns its
/// outputs sorted by key, as `AggregationJob` would.
pub fn run_decorated<S, F>(
    backend: Backend<'_>,
    input: Arc<S>,
    map_fn: F,
    agg: Aggregation,
    spec: ApproxSpec,
    mut config: JobConfig,
    rec: &AggRecorder,
) -> Result<JobResult<(u64, Interval)>, String>
where
    S: InputSource,
    S::Item: approxhadoop_ipc::Wire,
    F: Fn(&S::Item, &mut dyn FnMut(u64, f64)) + Send + Sync,
{
    spec.validate().map_err(|e| e.to_string())?;
    let total = input.splits().len();
    let confidence = spec.confidence();
    let sink = distinct_sink(config.reduce_tasks);
    let source = TimedSource::new(input, Arc::clone(rec));
    let mapper = TimedMapper::new(MultiStageMapper::new(map_fn), Arc::clone(rec));
    let (mut coordinator, monitor): (Box<dyn Coordinator>, Option<_>) = match spec {
        ApproxSpec::Precise | ApproxSpec::Ratios { .. } => {
            let (drop_ratio, sampling_ratio) = match spec {
                ApproxSpec::Ratios {
                    drop_ratio,
                    sampling_ratio,
                } => (drop_ratio, sampling_ratio),
                _ => (0.0, 1.0),
            };
            config.sampling_ratio = sampling_ratio;
            config.drop_ratio = drop_ratio;
            let fixed = FixedCoordinator::new(total, sampling_ratio, drop_ratio, config.seed);
            (Box::new(fixed), None)
        }
        ApproxSpec::Target {
            target,
            confidence,
            pilot,
        } => {
            let shared = Arc::new(SharedApproxState::new(config.reduce_tasks));
            let coordinator = TargetErrorCoordinator::new(
                total,
                target,
                confidence,
                config.map_slots,
                pilot,
                Arc::clone(&shared),
            );
            let threshold = match target {
                ErrorTarget::Relative(x) | ErrorTarget::Absolute(x) => x,
            };
            let monitor = (
                shared,
                matches!(target, ErrorTarget::Absolute(_)),
                (total / 50).max(1),
                threshold,
                coordinator.wave1_count(),
            );
            config.sampling_ratio = 1.0;
            config.drop_ratio = 0.0;
            (Box::new(coordinator), Some(monitor))
        }
    };
    let mut coordinator = TimedCoordinator::new(coordinator.as_mut(), Arc::clone(rec));
    let make_reducer = |_| {
        let mut r =
            MultiStageReducer::<u64>::new(agg, confidence).with_distinct_sink(Arc::clone(&sink));
        if let Some((shared, report_absolute, check_every, threshold, min_maps)) = &monitor {
            r = r.with_monitor(BoundMonitor {
                shared: Arc::clone(shared),
                report_absolute: *report_absolute,
                check_every: *check_every,
                freeze_threshold: Some(*threshold),
                min_maps_before_freeze: *min_maps,
            });
        }
        TimedReducer::new(r, Arc::clone(rec))
    };
    let mut job = match backend {
        Backend::Threads => {
            run_job_with_coordinator(&source, &mapper, make_reducer, config, &mut coordinator)
        }
        Backend::Process(worker) => run_job_process(
            &source,
            worker,
            make_reducer,
            config,
            &mut coordinator,
            &JobSession::new(JobId(0)),
        ),
    }
    .map_err(|e| e.to_string())?;
    job.outputs.sort_by_key(|&(k, _)| k);
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::identical;
    use approxhadoop_core::job::AggregationJob;
    use approxhadoop_runtime::input::VecSource;

    fn blocks() -> Vec<Vec<(u64, f64)>> {
        (0..24u64)
            .map(|b| {
                (0..200u64)
                    .map(|i| ((b * 7 + i * 13) % 17, ((b + 1) * (i + 3) % 101) as f64))
                    .collect()
            })
            .collect()
    }

    fn by_key(x: &(u64, f64), emit: &mut dyn FnMut(u64, f64)) {
        emit(x.0, x.1);
    }

    fn config(slots: usize) -> JobConfig {
        JobConfig {
            map_slots: slots,
            seed: 11,
            ..JobConfig::default()
        }
    }

    #[test]
    fn decorated_jobs_equal_undecorated_ones_byte_for_byte() {
        let input = Arc::new(VecSource::new(blocks()));
        for spec in [
            ApproxSpec::Precise,
            ApproxSpec::ratios(0.25, 0.5),
            ApproxSpec::target(0.05, 0.95),
        ] {
            let plain = AggregationJob::sum(by_key)
                .spec(spec)
                .config(config(1))
                .run(&*input)
                .unwrap();
            let rec: AggRecorder = Recorder::new(0, true);
            let traced = run_decorated(
                Backend::Threads,
                Arc::clone(&input),
                by_key,
                Aggregation::Sum,
                spec,
                config(1),
                &rec,
            )
            .unwrap();
            assert!(identical(&plain.outputs, &traced.outputs), "{spec:?}");
            assert!(rec.calls(crate::decor::Layer::Mapper) > 0);
            assert!(rec.calls(crate::decor::Layer::ReducerFold) > 0);
            assert!(!rec.take_batches().is_empty());
        }
    }
}
