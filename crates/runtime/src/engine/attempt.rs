//! One map attempt: the unit of work a scheduler dispatches to an
//! executor, and the worker-side code that runs it.
//!
//! Attempts are deliberately generic-free on the control path: a
//! [`WorkItem`] describes *what* to run (task, attempt number, sampling
//! ratio, read seed, kill flag, fault plan) and a [`WorkerMsg`] reports
//! *how it went*, so the [`super::scheduler::JobTracker`] never touches
//! the job's key/value types.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::combine::Combiner;
use crate::fault::{FaultDecision, FaultPlan};
use crate::input::{DatasetId, InputSource};
use crate::mapper::{MapTaskContext, Mapper};
use crate::metrics::MapStats;
use crate::reducer::MapOutputMeta;
use crate::types::{Key, Partitioner, TaskId, Value};
use crate::RuntimeError;

/// Records pulled from the input stream per timing slice: the lazy read
/// work (block decode, sample filtering) is attributed to `read_secs`
/// once per batch, so the clock is read twice per `READ_BATCH` records
/// instead of twice per record.
const READ_BATCH: usize = 256;

/// A dispatched map attempt — everything a backend needs to execute one
/// map task, with no reference to the job's key/value types.
///
/// The scheduler builds one `WorkItem` per [`Executor::dispatch`] call;
/// backends either run it in-process ([`crate::engine::run_job`], the
/// pool) or serialize its plain-data fields over a pipe to a worker
/// process (the `kill` flag cannot cross the process boundary — the
/// process backend forwards kill requests as explicit `Kill` frames).
///
/// [`Executor::dispatch`]: crate::engine::Executor::dispatch
pub struct WorkItem {
    /// The map task to run.
    pub task: TaskId,
    /// The dataset the task's split belongs to (`DatasetId(0)` for
    /// single-input jobs).
    pub dataset: DatasetId,
    /// Attempt number (`> 0` for retries and speculative duplicates).
    pub attempt: u32,
    /// Within-block input sampling ratio chosen at schedule time.
    pub sampling_ratio: f64,
    /// Per-task read seed — identical across attempts (see
    /// `read_seed`), so retries re-draw the exact same sample.
    pub seed: u64,
    /// Cooperative kill flag: the tracker raises it to abort the attempt
    /// mid-flight (task dropped, or a sibling finished first).
    pub kill: Arc<AtomicBool>,
    /// Deterministic fault-injection plan, if the job runs under one.
    pub fault: Option<Arc<FaultPlan>>,
    /// Whether map-side combining is enabled for this job.
    pub combining: bool,
    /// Span id allocated for this attempt by the parent's tracer (0
    /// when tracing is off). The process backend propagates it to the
    /// worker so remote spans can be parented under the attempt's span
    /// in the merged Chrome trace.
    pub span: u64,
}

/// A span completed inside a worker process, reported back with the
/// attempt's [`WorkerMsg::Completed`]. Timestamps are relative to the
/// attempt's start on the worker's clock; the parent re-bases them into
/// the task-attempt span's window, so worker/parent clock skew never
/// shows in the merged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Span name (e.g. `"read block"`).
    pub name: String,
    /// Span category (the process backend uses `"worker"`).
    pub category: String,
    /// Microseconds from the attempt's start to the span's start.
    pub rel_ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// What a worker reports back to the tracker about one attempt.
///
/// Exactly one `WorkerMsg` terminates every dispatched [`WorkItem`]; the
/// tracker's accounting (waves, retries, degrade-to-drop, Eq. 1–3
/// interval widening) is driven entirely by this stream.
pub enum WorkerMsg {
    /// The attempt ran to completion and shipped its outputs.
    Completed {
        /// Execution statistics for the attempt.
        stats: MapStats,
        /// Attempt number that completed.
        attempt: u32,
        /// Spans completed inside the worker process (empty on the
        /// in-process backends, which trace directly into the parent's
        /// tracer).
        spans: Vec<RemoteSpan>,
    },
    /// The attempt observed its kill flag and aborted without shipping.
    Killed {
        /// The killed task.
        task: TaskId,
        /// Attempt number that was killed.
        attempt: u32,
    },
    /// The attempt failed; the tracker decides between retry,
    /// degrade-to-drop and failing the job.
    Failed {
        /// The failed task.
        task: TaskId,
        /// Attempt number that failed.
        attempt: u32,
        /// Why the attempt failed.
        error: RuntimeError,
    },
}

/// The per-task read seed: identical across attempts so a retry (or a
/// speculative sibling) re-draws the exact same sample, keeping the
/// estimator independent of the fault history.
pub(crate) fn read_seed(job_seed: u64, task: usize) -> u64 {
    job_seed ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Where one attempt's map output goes: the in-process backends'
/// reducer channels ([`MapBuffers`](super::shuffle::MapBuffers)) or a
/// worker process's spill-capable shuffle, drained into `Output`
/// frames. Each backend implements it once; [`run_map_attempt`] is
/// generic over it, so every emission is a static call. `'c` is the
/// lifetime of the mapper the attempt's combiner borrows from.
pub(crate) trait MapOutputs<'c, K: Key, V: Value> {
    /// Number of reduce partitions the pairs are split over.
    fn partitions(&self) -> usize;

    /// Called once the split is open, before the first emission: takes
    /// the attempt's combiner (if combining) and discards whatever an
    /// aborted predecessor left behind.
    fn begin(&mut self, combiner: Option<&'c dyn Combiner<K, V>>);

    /// Buffers one pair for `partition` (its key hashes to `hash`). An
    /// output that cannot buffer (a failed spill) keeps the error for
    /// [`ship`](MapOutputs::ship) and drops later pairs.
    fn emit(&mut self, partition: usize, hash: u64, key: K, value: V);

    /// Hands the buffered pairs off to the reducers and returns how
    /// many were shuffled.
    fn ship(&mut self, meta: MapOutputMeta) -> crate::Result<u64>;
}

/// Executes one map attempt — on a task-tracker thread, a pool slot or
/// a worker process alike: honors the kill flag, injects configured
/// faults, streams the sampled split through the mapper (with optional
/// map-side combining) into `out`, hands the outputs off, and returns
/// the outcome.
pub(crate) fn run_map_attempt<'m, S, M, O>(
    input: &S,
    mapper: &'m M,
    work: &WorkItem,
    out: &mut O,
) -> WorkerMsg
where
    S: InputSource,
    M: Mapper<Item = S::Item>,
    O: MapOutputs<'m, M::Key, M::Value>,
{
    let failed = |error| WorkerMsg::Failed {
        task: work.task,
        attempt: work.attempt,
        error,
    };
    let aborted = || WorkerMsg::Killed {
        task: work.task,
        attempt: work.attempt,
    };
    if work.kill.load(Ordering::SeqCst) {
        return aborted();
    }
    let decision = work
        .fault
        .as_deref()
        .map(|f| f.decide(work.task.0, work.attempt))
        .unwrap_or(FaultDecision::None);
    if decision == FaultDecision::IoError {
        return failed(RuntimeError::InjectedFault {
            what: format!("input read of {} (attempt {})", work.task, work.attempt),
        });
    }
    let t0 = Instant::now();
    // Clone-free read path: the source yields records lazily (precise
    // reads iterate blocks in place; sampled reads materialise only the
    // sample) instead of handing back a fully cloned vector.
    let mut stream = match input.stream_split(work.task.0, work.sampling_ratio, work.seed) {
        Ok(s) => s,
        Err(e) => return failed(e),
    };
    // Stream construction is only the first slice of read time; the lazy
    // reads themselves are timed batch-by-batch in the loop below.
    let construct_secs = t0.elapsed().as_secs_f64();
    let total_records = stream.total;
    let sampled_records = stream.sampled;
    let combiner = if work.combining {
        mapper.combiner()
    } else {
        None
    };
    out.begin(combiner);
    let partitioner = Partitioner::new(out.partitions());
    // User map code may panic; contain it so the JobTracker can fail the
    // job cleanly instead of losing a worker (and hanging). The output
    // buffers are safe to reuse after a panic: `begin` discards any
    // partial state at the start of the next attempt.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if decision == FaultDecision::MapPanic {
            panic!("injected map panic in {}", work.task);
        }
        let mut emitted = 0u64;
        let mut read_secs = construct_secs;
        let ctx = MapTaskContext {
            task: work.task,
            dataset: work.dataset,
            sampling_ratio: work.sampling_ratio,
            attempt: work.attempt,
        };
        let mut state = mapper.begin_task(&ctx);
        let mut emit = |k, v| {
            emitted += 1;
            // One hash per pair, shared by the partitioner and the
            // combine-table probe.
            let h = crate::types::fx_hash(&k);
            out.emit(partitioner.partition_of_hash(h), h, k, v);
        };
        let mut killed = false;
        let mut batch: Vec<S::Item> = Vec::with_capacity(READ_BATCH);
        let mut exhausted = false;
        while !exhausted && !killed {
            let rt = Instant::now();
            while batch.len() < READ_BATCH {
                match stream.next() {
                    Some(item) => batch.push(item),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            read_secs += rt.elapsed().as_secs_f64();
            for item in batch.drain(..) {
                if work.kill.load(Ordering::Relaxed) {
                    killed = true;
                    break;
                }
                mapper.map(&mut state, item, &mut emit);
            }
        }
        if !killed {
            mapper.end_task(state, &mut emit);
        }
        (emitted, killed, read_secs)
    }));
    let (emitted, killed, read_secs) = match run {
        Ok(r) => r,
        Err(_) => {
            return failed(RuntimeError::TaskPanicked {
                what: format!("user map code in {}", work.task),
            })
        }
    };
    if killed {
        return aborted();
    }
    let meta = MapOutputMeta {
        task: work.task,
        dataset: work.dataset,
        total_records,
        sampled_records,
        duration_secs: t0.elapsed().as_secs_f64(),
    };
    let shuffled = match out.ship(meta) {
        Ok(n) => n,
        Err(e) => return failed(e),
    };
    WorkerMsg::Completed {
        stats: MapStats {
            task: work.task,
            dataset: work.dataset,
            total_records,
            sampled_records,
            emitted,
            shuffled,
            // One clock on every backend: the attempt ends once its
            // outputs are handed off.
            duration_secs: t0.elapsed().as_secs_f64(),
            read_secs,
        },
        attempt: work.attempt,
        spans: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{run_job, JobConfig};
    use crate::input::{SampledItems, SplitMeta, VecSource};
    use crate::mapper::{FnMapper, Mapper};
    use crate::reducer::{GroupedReducer, MapOutputMeta, ReduceContext, Reducer};
    use crate::RuntimeError;

    #[test]
    fn read_seed_is_stable_per_task() {
        assert_eq!(super::read_seed(7, 3), super::read_seed(7, 3));
        assert_ne!(super::read_seed(7, 3), super::read_seed(7, 4));
        assert_ne!(super::read_seed(7, 3), super::read_seed(8, 3));
    }

    /// Input source whose third split fails to read.
    struct FailingSource;

    impl crate::input::InputSource for FailingSource {
        type Item = u32;

        fn splits(&self) -> Vec<SplitMeta> {
            (0..4)
                .map(|i| SplitMeta {
                    index: i,
                    dataset: Default::default(),
                    records: 1,
                    bytes: 0,
                    locations: vec![],
                })
                .collect()
        }

        fn read_split(
            &self,
            index: usize,
            _ratio: f64,
            _seed: u64,
        ) -> crate::Result<SampledItems<u32>> {
            if index == 2 {
                Err(approxhadoop_dfs::DfsError::BlockNotFound {
                    block: approxhadoop_dfs::BlockId(2),
                }
                .into())
            } else {
                Ok(SampledItems {
                    items: vec![1],
                    total: 1,
                    sampled: 1,
                })
            }
        }
    }

    #[test]
    fn input_failure_aborts_job() {
        let mapper = FnMapper::new(|i: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *i));
        let result = run_job(
            &FailingSource,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            JobConfig::default(),
        );
        assert!(matches!(result, Err(RuntimeError::Input { .. })));
    }

    #[test]
    fn panicking_mapper_fails_job_cleanly() {
        let blocks: Vec<Vec<u32>> = (0..6).map(|i| vec![i as u32]).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u32)| {
            assert!(*v != 3, "poisoned item");
            emit(0, *v);
        });
        let result = run_job(
            &input,
            &mapper,
            |_| GroupedReducer::new(|_: &u8, vs: &[u32]| Some(vs.len())),
            JobConfig::default(),
        );
        assert!(
            matches!(result, Err(RuntimeError::TaskPanicked { .. })),
            "panic must surface as a job error"
        );
    }

    /// A mapper that emits nothing at all still completes with correct
    /// metadata flowing to the reducers.
    #[test]
    fn silent_mapper_completes() {
        struct CountMaps(usize);
        impl Reducer for CountMaps {
            type Key = u8;
            type Value = u32;
            type Output = usize;
            fn on_map_output(
                &mut self,
                meta: &MapOutputMeta,
                pairs: Vec<(u8, u32)>,
                _ctx: &mut ReduceContext,
            ) {
                assert!(pairs.is_empty());
                assert_eq!(meta.total_records, 4);
                self.0 += 1;
            }
            fn finish(&mut self, _ctx: &mut ReduceContext) -> Vec<usize> {
                vec![self.0]
            }
        }
        let blocks: Vec<Vec<u32>> = (0..6).map(|_| vec![0; 4]).collect();
        let input = VecSource::new(blocks);
        let mapper = FnMapper::new(|_: &u32, _emit: &mut dyn FnMut(u8, u32)| {});
        let result = run_job(&input, &mapper, |_| CountMaps(0), JobConfig::default()).unwrap();
        assert_eq!(result.outputs, vec![6]);
    }

    /// A source whose stream is lazy and slow: each `next()` costs real
    /// time, none of it spent at stream construction — the shape that
    /// used to be invisible to `read_secs`.
    struct SlowStreamSource {
        items: u64,
        per_item: std::time::Duration,
    }

    impl crate::input::InputSource for SlowStreamSource {
        type Item = u64;

        fn splits(&self) -> Vec<SplitMeta> {
            vec![SplitMeta {
                index: 0,
                dataset: Default::default(),
                records: self.items,
                bytes: 0,
                locations: vec![],
            }]
        }

        fn read_split(&self, _i: usize, _r: f64, _s: u64) -> crate::Result<SampledItems<u64>> {
            unreachable!("the attempt path streams")
        }

        fn stream_split(
            &self,
            _index: usize,
            _ratio: f64,
            _seed: u64,
        ) -> crate::Result<crate::input::SplitStream<'_, u64>> {
            let per_item = self.per_item;
            let iter = (0..self.items).inspect(move |_| std::thread::sleep(per_item));
            Ok(crate::input::SplitStream::new(self.items, self.items, iter))
        }
    }

    /// Regression for the read-timing misattribution: `stream_split` is
    /// lazy, so timing only its construction booked essentially zero
    /// read time and inflated compute time by the same amount. The
    /// batched timer must attribute per-`next()` read work to
    /// `read_secs`.
    #[test]
    fn read_secs_covers_lazy_stream_reads() {
        use crossbeam::channel::unbounded;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let per_item = std::time::Duration::from_millis(2);
        let items = 10u64;
        let input = SlowStreamSource { items, per_item };
        let mapper = FnMapper::new(|i: &u64, emit: &mut dyn FnMut(u8, u64)| emit(0, *i));
        let (reduce_tx, _reduce_rx) = unbounded();
        let work = super::WorkItem {
            task: crate::types::TaskId(0),
            dataset: Default::default(),
            attempt: 0,
            sampling_ratio: 1.0,
            seed: 0,
            kill: Arc::new(AtomicBool::new(false)),
            fault: None,
            combining: false,
            span: 0,
        };
        let mut bufs = super::super::shuffle::MapBuffers::new(vec![reduce_tx]);
        let msg = super::run_map_attempt(&input, &mapper, &work, &mut bufs);

        let super::WorkerMsg::Completed { stats, .. } = msg else {
            panic!("attempt must complete");
        };
        // 10 items * 2 ms lives inside `next()`; allow generous slack for
        // coarse sleep granularity, but well above the ~0 the old
        // construction-only measurement would report.
        let floor = (items as f64) * per_item.as_secs_f64() * 0.75;
        assert!(
            stats.read_secs >= floor,
            "read_secs {} must cover lazy read work (floor {floor})",
            stats.read_secs
        );
        assert!(
            stats.read_secs <= stats.duration_secs,
            "read_secs {} cannot exceed attempt duration {}",
            stats.read_secs,
            stats.duration_secs
        );
    }

    /// Stateful end_task emission arrives even when items were sampled
    /// down to a single record.
    #[test]
    fn end_task_emission_with_heavy_sampling() {
        let blocks: Vec<Vec<u32>> = (0..5).map(|_| (0..100).collect()).collect();
        let input = VecSource::new(blocks);
        struct PerTaskCount;
        impl Mapper for PerTaskCount {
            type Item = u32;
            type Key = u8;
            type Value = u64;
            type TaskState = u64;
            fn begin_task(&self, _c: &crate::mapper::MapTaskContext) -> u64 {
                0
            }
            fn map(&self, s: &mut u64, _i: u32, _e: &mut dyn FnMut(u8, u64)) {
                *s += 1;
            }
            fn end_task(&self, s: u64, emit: &mut dyn FnMut(u8, u64)) {
                emit(0, s);
            }
        }
        let result = run_job(
            &input,
            &PerTaskCount,
            |_| GroupedReducer::new(|_: &u8, vs: &[u64]| Some((vs.len(), vs.iter().sum::<u64>()))),
            JobConfig {
                sampling_ratio: 0.01,
                ..Default::default()
            },
        )
        .unwrap();
        let (tasks, items) = result.outputs[0];
        assert_eq!(tasks, 5, "every task emits its count");
        assert_eq!(items, 5, "1% of 100 items per task");
    }
}
