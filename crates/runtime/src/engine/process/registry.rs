//! The worker process side of the backend: a by-name job registry and
//! the [`worker_main`] frame loop a worker binary runs.
//!
//! Closures cannot cross a process boundary, so process-backend jobs
//! are **named**: a worker binary registers each job's mapper under a
//! string name (plus a params decoder), and the parent ships only the
//! name and an opaque params blob in the
//! [`WorkerJobSpec`](super::wire::WorkerJobSpec). Both sides of a job
//! must agree on the item/key/value `Wire` encodings — in practice the
//! worker binary lives in the same crate as the code submitting the
//! job, so the types are literally shared.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use approxhadoop_dfs::{BlockId, FileStore};
use approxhadoop_ipc::{read_frame, write_frame, Decoder, Wire};
use approxhadoop_obs::{Counter, DeltaCursor, Obs};

use crate::combine::Combiner;
use crate::input::{sample_systematic_owned, DatasetId, InputSource, SampledItems, SplitMeta};
use crate::mapper::Mapper;
use crate::reducer::MapOutputMeta;
use crate::types::{Key, TaskId, Value};
use crate::RuntimeError;

use super::super::attempt::{run_map_attempt, MapOutputs, WorkItem, WorkerMsg};
use super::spill::{SpillReport, SpillShuffle};
use super::wire::{FromWorker, ToWorker, WireJobError, WireWorkItem, WorkerJobSpec};

/// Kill flags of in-flight attempts, shared with the frame-reader
/// thread and keyed by `(task, attempt)`.
type KillMap = Arc<Mutex<HashMap<(u64, u32), Arc<AtomicBool>>>>;

/// Writes one frame to the parent.
type SendFrame<'a> = dyn FnMut(FromWorker) -> std::io::Result<()> + 'a;

/// Map-output chunks are flushed to the pipe at roughly this size.
const CHUNK_BYTES: usize = 1 << 20;

/// The per-job environment a worker builds from its
/// [`WorkerJobSpec`](super::wire::WorkerJobSpec).
struct WorkerEnv {
    spec: WorkerJobSpec,
    spool: FileStore,
    telemetry: Option<WorkerTelemetry>,
}

/// The worker's own observability context, present when the job spec
/// carried a non-empty `telemetry_label`. Counters accumulate in the
/// local registry and flow back as high-water-marked deltas; spans
/// accumulate in the local tracer ring and are drained per attempt.
struct WorkerTelemetry {
    obs: Arc<Obs>,
    cursor: Mutex<DeltaCursor>,
    label: String,
}

impl WorkerTelemetry {
    fn counter(&self, name: &str) -> Arc<Counter> {
        self.obs.registry.counter(name, &[("job", &self.label)])
    }

    /// Microseconds on the local tracer's clock; 0 without telemetry.
    fn now_us(tel: Option<&Self>) -> u64 {
        tel.map_or(0, |t| t.obs.tracer.now_us())
    }

    /// Records a `worker` span from `from_us` until now.
    fn span(tel: Option<&Self>, name: &str, from_us: u64) {
        if let Some(t) = tel {
            let dur = t.obs.tracer.now_us().saturating_sub(from_us).max(1);
            t.obs
                .tracer
                .complete(name, "worker", from_us, dur, 0, 0, None, vec![]);
        }
    }
}

/// The worker process's single observability context.
///
/// [`Obs::shared`] creates a *fresh* context per call, so a job builder
/// and the frame loop's telemetry would otherwise hold two unrelated
/// registries — and builder-attached counters (e.g. a join mapper's
/// Bloom discard counts) would never reach the parent. Everything in a
/// worker binary that wants its metrics piggybacked to the parent's
/// registry must attach them here.
pub fn worker_obs() -> Arc<Obs> {
    static OBS: std::sync::OnceLock<Arc<Obs>> = std::sync::OnceLock::new();
    Arc::clone(OBS.get_or_init(Obs::shared))
}

/// Object-safe attempt runner; one per registered job, erased over the
/// job's item/key/value types.
trait RunnableJob: Send + Sync {
    /// Runs `work` through [`run_map_attempt`], streaming its output as
    /// `Output` frames. Fails only when a frame cannot be written.
    fn run(
        &self,
        env: &WorkerEnv,
        work: &WorkItem,
        send: &mut SendFrame<'_>,
    ) -> std::io::Result<(WorkerMsg, SpillReport)>;
}

type JobBuilder = Box<dyn Fn(&[u8]) -> Result<Box<dyn RunnableJob>, String> + Send + Sync>;

/// Maps job names to mapper builders inside a worker binary.
///
/// ```
/// use approxhadoop_runtime::engine::process::JobRegistry;
/// use approxhadoop_runtime::mapper::FnMapper;
///
/// let mut registry = JobRegistry::new();
/// registry.register("mod8-count", |_params: &[u8]| {
///     Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
///         emit((*v % 8) as u8, 1)
///     }))
/// });
/// assert!(registry.contains("mod8-count"));
/// ```
#[derive(Default)]
pub struct JobRegistry {
    builders: HashMap<String, JobBuilder>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `build` under `name`. The builder decodes the job's
    /// params blob into a mapper; its item, key and value types must
    /// implement [`Wire`] identically on the submitting side.
    pub fn register<I, M, F>(&mut self, name: &str, build: F)
    where
        I: Wire + Send + 'static,
        M: Mapper<Item = I> + 'static,
        M::Key: Wire,
        M::Value: Wire,
        F: Fn(&[u8]) -> Result<M, String> + Send + Sync + 'static,
    {
        self.builders.insert(
            name.to_string(),
            Box::new(move |params| {
                let mapper = build(params)?;
                Ok(Box::new(mapper) as Box<dyn RunnableJob>)
            }),
        );
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.builders.contains_key(name)
    }

    fn build(&self, name: &str, params: &[u8]) -> Result<Box<dyn RunnableJob>, String> {
        match self.builders.get(name) {
            Some(b) => b(params),
            None => Err(format!("job {name:?} is not registered in this worker")),
        }
    }
}

impl<M> RunnableJob for M
where
    M: Mapper,
    M::Item: Wire,
    M::Key: Wire,
    M::Value: Wire,
{
    fn run(
        &self,
        env: &WorkerEnv,
        work: &WorkItem,
        send: &mut SendFrame<'_>,
    ) -> std::io::Result<(WorkerMsg, SpillReport)> {
        let input = SpoolSource {
            env,
            item: PhantomData,
        };
        let mut out = FrameOutput {
            env,
            task: work.task.0 as u64,
            attempt: work.attempt,
            send,
            shuffle: None,
            map_from_us: 0,
            error: None,
            pipe: None,
            report: SpillReport::default(),
        };
        let msg = run_map_attempt(&input, self, work, &mut out);
        match out.pipe {
            Some(e) => Err(e),
            None => Ok((msg, out.report)),
        }
    }
}

/// The worker's input: the parent's spool, `mmap`'d. Opening a split
/// decodes its block and moves the systematic sample out, drawn like
/// the in-process sources' (`sample_systematic_indices(total, ratio,
/// seed)`), so every backend maps the identical sample.
struct SpoolSource<'a, I> {
    env: &'a WorkerEnv,
    item: PhantomData<fn() -> I>,
}

impl<I: Wire + Send + 'static> InputSource for SpoolSource<'_, I> {
    type Item = I;

    /// One split per spool block. Workers never plan a job; the
    /// parent's splits carry the dataset tags.
    fn splits(&self) -> Vec<SplitMeta> {
        let spool = &self.env.spool;
        (0..spool.len())
            .map(|index| SplitMeta {
                index,
                records: spool.records(BlockId(index as u64)).unwrap_or(0),
                ..SplitMeta::default()
            })
            .collect()
    }

    fn read_split(&self, index: usize, ratio: f64, seed: u64) -> crate::Result<SampledItems<I>> {
        let (spool, tel) = (&self.env.spool, self.env.telemetry.as_ref());
        let from_us = WorkerTelemetry::now_us(tel);
        let remote = |display: String| RuntimeError::Remote { display };
        let id = BlockId(index as u64);
        let buf = spool
            .slice(id)
            .ok_or_else(|| remote(format!("spool has no block for task {index}")))?;
        let total = spool
            .records(id)
            .ok_or_else(|| remote(format!("spool has no record count for task {index}")))?;
        let mut d = Decoder::new(buf);
        let mut block = Vec::with_capacity(total as usize);
        for _ in 0..total {
            block.push(I::decode(&mut d).map_err(|e| remote(format!("spool block corrupt: {e}")))?);
        }
        d.finish()
            .map_err(|e| remote(format!("spool block has trailing bytes: {e}")))?;
        let read = sample_systematic_owned(block, ratio, seed);
        WorkerTelemetry::span(tel, "read block", from_us);
        if let Some(t) = tel {
            t.counter("approx_worker_records_total").add(read.sampled);
        }
        Ok(read)
    }
}

/// A worker attempt's [`MapOutputs`]: the spill-capable shuffle,
/// drained at ship time into `Output` frames of about [`CHUNK_BYTES`],
/// one partition at a time, so a huge shuffle never materialises in
/// the worker.
struct FrameOutput<'a, K: Key + Wire, V: Value + Wire> {
    env: &'a WorkerEnv,
    task: u64,
    attempt: u32,
    send: &'a mut SendFrame<'a>,
    /// Built by `begin`, once the attempt's combiner is known.
    shuffle: Option<SpillShuffle<'a, K, V>>,
    map_from_us: u64,
    /// The first spill failure, reported by `ship`.
    error: Option<String>,
    /// Set when a frame could not be written: the parent is gone.
    pipe: Option<std::io::Error>,
    report: SpillReport,
}

impl<'a, K: Key + Wire, V: Value + Wire> MapOutputs<'a, K, V> for FrameOutput<'a, K, V> {
    fn partitions(&self) -> usize {
        self.env.spec.num_reducers as usize
    }

    fn begin(&mut self, combiner: Option<&'a dyn Combiner<K, V>>) {
        let (env, tel) = (self.env, self.env.telemetry.as_ref());
        let dir = format!("attempt-{}-{}", self.task, self.attempt);
        let mut shuffle = SpillShuffle::new(
            self.partitions(),
            combiner,
            env.spec.shuffle_mem_bytes as usize,
            Path::new(&env.spec.spill_dir).join(dir),
        );
        if let Some(t) = tel {
            shuffle = shuffle.with_counters(
                t.counter("approx_process_spill_runs_total"),
                t.counter("approx_process_spill_bytes_total"),
            );
        }
        self.shuffle = Some(shuffle);
        self.map_from_us = WorkerTelemetry::now_us(tel);
    }

    fn emit(&mut self, partition: usize, hash: u64, key: K, value: V) {
        if self.error.is_some() {
            return;
        }
        let shuffle = self.shuffle.as_mut().expect("begin builds the shuffle");
        if let Err(e) = shuffle.emit(partition, hash, key, value) {
            self.error = Some(e);
        }
    }

    fn ship(&mut self, _meta: MapOutputMeta) -> crate::Result<u64> {
        let remote = |display: String| RuntimeError::Remote { display };
        if let Some(what) = self.error.take() {
            return Err(remote(what));
        }
        let tel = self.env.telemetry.as_ref();
        WorkerTelemetry::span(tel, "map+combine", self.map_from_us);
        let drain_from_us = WorkerTelemetry::now_us(tel);
        let (task, attempt) = (self.task, self.attempt);
        let (send, pipe) = (&mut *self.send, &mut self.pipe);
        let mut flush = |partition: usize, pairs: Vec<u8>| {
            let frame = FromWorker::Output {
                task,
                attempt,
                partition: partition as u32,
                pairs,
            };
            send(frame).map_err(|e| {
                *pipe = Some(e);
                "pipe closed".to_string()
            })
        };
        let mut shuffled = 0u64;
        let mut chunk: Vec<u8> = Vec::new();
        let mut chunk_partition = 0usize;
        let shuffle = self.shuffle.as_mut().expect("begin builds the shuffle");
        let drained = shuffle.drain(|p, k, v| {
            if p != chunk_partition && !chunk.is_empty() {
                flush(chunk_partition, std::mem::take(&mut chunk))?;
            }
            chunk_partition = p;
            k.encode(&mut chunk);
            v.encode(&mut chunk);
            shuffled += 1;
            if chunk.len() >= CHUNK_BYTES {
                flush(p, std::mem::take(&mut chunk))?;
            }
            Ok(())
        });
        self.report = drained.map_err(remote)?;
        if !chunk.is_empty() {
            flush(chunk_partition, chunk).map_err(remote)?;
        }
        WorkerTelemetry::span(tel, "drain shuffle", drain_from_us);
        Ok(shuffled)
    }
}

/// Serves one `Work` frame: admits its dataset tag, runs the attempt
/// and reports the outcome as `Failed`, `Killed`, or `Telemetry` +
/// `Done` frames. Fails only when a frame cannot be written.
fn serve(
    job: &dyn RunnableJob,
    env: &WorkerEnv,
    work: WireWorkItem,
    kill: Arc<AtomicBool>,
    send: &mut SendFrame<'_>,
) -> std::io::Result<()> {
    let (task, attempt) = (work.task, work.attempt);
    let fail = |send: &mut SendFrame<'_>, error| {
        send(FromWorker::Failed {
            task,
            attempt,
            error,
        })
    };
    // A work item tagged with a dataset the job spec never declared
    // means the parent and worker disagree about the dataset table.
    // That is a job error, not a worker crash: fail the attempt so the
    // parent's retry/degrade machinery sees it, instead of aborting the
    // process mid-job.
    if !env.spec.admits_dataset(work.dataset) {
        let what = format!(
            "work item for {} tagged {} but the job spec's dataset table does not admit it",
            TaskId(task as usize),
            DatasetId(work.dataset)
        );
        return fail(send, WireJobError { kind: 2, what });
    }
    // Telemetry setup: stamp the attempt's epoch in the local tracer's
    // clock and discard spans left over from attempts that failed
    // before reporting (their kill/fail paths skip the Telemetry
    // frame), so nothing is misattributed.
    if let Some(t) = &env.telemetry {
        let _ = t.obs.tracer.drain();
        t.counter("approx_worker_attempts_total").inc();
    }
    let epoch = WorkerTelemetry::now_us(env.telemetry.as_ref());
    let work = WorkItem {
        task: TaskId(task as usize),
        dataset: DatasetId(work.dataset),
        attempt,
        sampling_ratio: work.sampling_ratio,
        seed: work.seed,
        kill,
        fault: work.fault.map(Arc::new),
        combining: work.combining,
        span: work.span,
    };
    let (msg, report) = job.run(env, &work, send)?;
    match msg {
        WorkerMsg::Completed { stats, .. } => {
            // Telemetry rides between the last Output chunk and the Done
            // frame; span timestamps are re-based to the attempt epoch
            // so the parent can graft them into the task-attempt span's
            // window regardless of clock skew.
            if let Some(tel) = &env.telemetry {
                let counters = tel
                    .obs
                    .registry
                    .counter_deltas(&mut tel.cursor.lock().expect("cursor poisoned"))
                    .into_iter()
                    .map(|d| (d.name, d.labels, d.delta))
                    .collect();
                let spans = tel
                    .obs
                    .tracer
                    .drain()
                    .into_iter()
                    .filter(|e| e.phase == 'X')
                    .map(|e| (e.name, e.category, e.ts_us.saturating_sub(epoch), e.dur_us))
                    .collect();
                send(FromWorker::Telemetry {
                    task,
                    attempt,
                    counters,
                    spans,
                })?;
            }
            send(FromWorker::Done {
                attempt,
                stats,
                spill_runs: report.runs,
                spill_bytes: report.bytes,
            })
        }
        WorkerMsg::Killed { .. } => send(FromWorker::Killed { task, attempt }),
        WorkerMsg::Failed { error, .. } => fail(send, WireJobError::from_error(&error)),
    }
}

/// Runs the worker frame loop against the process's stdin/stdout until
/// the parent sends `Shutdown` or closes the pipe, then exits the
/// process. This is the entire body of a worker binary's `main`:
///
/// ```no_run
/// use approxhadoop_runtime::engine::process::{worker_main, JobRegistry};
///
/// let mut registry = JobRegistry::new();
/// // registry.register(...)
/// worker_main(registry);
/// ```
pub fn worker_main(registry: JobRegistry) -> ! {
    let code = worker_loop(
        registry,
        BufReader::new(std::io::stdin()),
        BufWriter::new(std::io::stdout()),
    );
    std::process::exit(code)
}

/// The loop behind [`worker_main`], testable over arbitrary streams.
/// Returns the process exit code.
fn worker_loop<R, W>(registry: JobRegistry, reader: R, writer: W) -> i32
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let mut reader = reader;
    let spec: WorkerJobSpec = match read_frame(&mut reader) {
        Ok(Some(frame)) => match ToWorker::from_bytes(&frame) {
            Ok(ToWorker::Job(spec)) => spec,
            _ => {
                eprintln!("approx-worker: first frame was not a Job spec");
                return 1;
            }
        },
        _ => return 1,
    };
    let job = match registry.build(&spec.job, &spec.params) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("approx-worker: {e}");
            return 1;
        }
    };
    let spool = match FileStore::open(Path::new(&spec.spool)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("approx-worker: {e}");
            return 1;
        }
    };
    let telemetry = (!spec.telemetry_label.is_empty()).then(|| WorkerTelemetry {
        obs: worker_obs(),
        cursor: Mutex::new(DeltaCursor::new()),
        label: spec.telemetry_label.clone(),
    });
    let env = WorkerEnv {
        spec,
        spool,
        telemetry,
    };

    let writer = Arc::new(Mutex::new(writer));
    let send_frame = |fw: &FromWorker| -> std::io::Result<()> {
        let mut w = writer.lock().expect("writer poisoned");
        write_frame(&mut *w, &fw.to_bytes()).map_err(std::io::Error::other)?;
        w.flush()
    };
    if send_frame(&FromWorker::Ready).is_err() {
        return 1;
    }

    // Kill frames must land while an attempt is running, so frame
    // reading happens on a side thread: it forwards Work to the main
    // thread over a channel and flips kill flags in place. Shutdown and
    // pipe EOF exit the process immediately — the parent has already
    // discarded this worker's in-flight work.
    let kills: KillMap = Arc::new(Mutex::new(HashMap::new()));
    let (work_tx, work_rx) = std::sync::mpsc::channel::<(WireWorkItem, Arc<AtomicBool>)>();
    let reader_kills = Arc::clone(&kills);
    std::thread::spawn(move || loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => match ToWorker::from_bytes(&frame) {
                Ok(ToWorker::Work(work)) => {
                    let kill = Arc::new(AtomicBool::new(false));
                    reader_kills
                        .lock()
                        .expect("kills poisoned")
                        .insert((work.task, work.attempt), Arc::clone(&kill));
                    if work_tx.send((work, kill)).is_err() {
                        std::process::exit(1);
                    }
                }
                Ok(ToWorker::Kill { task, attempt }) => {
                    if let Some(flag) = reader_kills
                        .lock()
                        .expect("kills poisoned")
                        .get(&(task, attempt))
                    {
                        flag.store(true, Ordering::SeqCst);
                    }
                }
                Ok(ToWorker::Shutdown) | Ok(ToWorker::Job(_)) => std::process::exit(0),
                Err(e) => {
                    eprintln!("approx-worker: corrupt frame: {e}");
                    std::process::exit(1);
                }
            },
            Ok(None) => std::process::exit(0),
            Err(e) => {
                eprintln!("approx-worker: pipe error: {e}");
                std::process::exit(1);
            }
        }
    });

    for (work, kill) in work_rx {
        let key = (work.task, work.attempt);
        let result = serve(&*job, &env, work, kill, &mut |fw| send_frame(&fw));
        kills.lock().expect("kills poisoned").remove(&key);
        if result.is_err() {
            // The parent end of the pipe is gone; nothing left to serve.
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::time::{Duration, Instant};

    use approxhadoop_dfs::FileStoreWriter;

    use super::*;
    use crate::mapper::FnMapper;

    /// Serves `bytes`, then blocks for good, like a parent that keeps
    /// its end open: at pipe EOF a worker exits the whole process.
    struct OpenPipe(Cursor<Vec<u8>>);

    impl Read for OpenPipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            if n == 0 && !buf.is_empty() {
                loop {
                    std::thread::park();
                }
            }
            Ok(n)
        }
    }

    /// Everything the worker writes, shared with the test.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn undeclared_dataset_fails_the_attempt_and_the_worker_keeps_serving() {
        let dir = std::env::temp_dir().join(format!(
            "approxhadoop-worker-loop-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("input.spool");
        let mut w = FileStoreWriter::create(&spool).unwrap();
        let mut payload = Vec::new();
        for v in 0..10u32 {
            v.encode(&mut payload);
        }
        w.append(BlockId(0), 10, &payload).unwrap();
        w.finish().unwrap();

        let mut registry = JobRegistry::new();
        registry.register("parity", |_p: &[u8]| {
            Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit((*v % 2) as u8, 1)
            }))
        });
        let spec = WorkerJobSpec {
            job: "parity".into(),
            params: Vec::new(),
            spool: spool.to_string_lossy().into_owned(),
            num_reducers: 2,
            shuffle_mem_bytes: 1 << 20,
            spill_dir: dir.join("spill").to_string_lossy().into_owned(),
            telemetry_label: String::new(),
            // Single-input job: only dataset 0 is admitted.
            datasets: Vec::new(),
        };
        let work = |dataset| {
            ToWorker::Work(WireWorkItem {
                task: 0,
                dataset,
                attempt: 0,
                sampling_ratio: 1.0,
                seed: 0,
                combining: false,
                fault: None,
                span: 0,
            })
        };
        let mut input = Vec::new();
        for frame in [ToWorker::Job(spec), work(3), work(0)] {
            write_frame(&mut input, &frame.to_bytes()).unwrap();
        }
        let out = Captured::default();
        let sink = out.clone();
        std::thread::spawn(move || worker_loop(registry, OpenPipe(Cursor::new(input)), sink));

        let deadline = Instant::now() + Duration::from_secs(30);
        let frames = loop {
            let bytes = out.0.lock().unwrap().clone();
            let mut r = &bytes[..];
            let mut frames = Vec::new();
            while let Ok(Some(f)) = read_frame(&mut r) {
                frames.push(FromWorker::from_bytes(&f).unwrap());
            }
            if matches!(frames.last(), Some(FromWorker::Done { .. })) {
                break frames;
            }
            assert!(Instant::now() < deadline, "no Done frame: {frames:?}");
            std::thread::sleep(Duration::from_millis(5));
        };
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(frames[0], FromWorker::Ready);
        match &frames[1] {
            FromWorker::Failed {
                task: 0,
                attempt: 0,
                error,
            } => assert_eq!(error.kind, 2, "{error:?}"),
            other => panic!("expected a Failed frame, got {other:?}"),
        }
        let outputs = &frames[2..frames.len() - 1];
        assert!(
            !outputs.is_empty()
                && outputs
                    .iter()
                    .all(|f| matches!(f, FromWorker::Output { task: 0, .. })),
            "the valid attempt streams its pairs: {outputs:?}"
        );
        let Some(FromWorker::Done { stats, .. }) = frames.last() else {
            unreachable!()
        };
        assert_eq!(
            (stats.total_records, stats.sampled_records, stats.shuffled),
            (10, 10, 10)
        );
    }

    #[test]
    fn registry_builds_registered_jobs_only() {
        let mut r = JobRegistry::new();
        r.register("count", |_p: &[u8]| {
            Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit((*v % 8) as u8, 1)
            }))
        });
        assert!(r.contains("count"));
        assert!(!r.contains("other"));
        assert!(r.build("count", &[]).is_ok());
        assert!(r.build("other", &[]).is_err());
    }

    #[test]
    fn builder_params_errors_propagate() {
        let mut r = JobRegistry::new();
        r.register("strict", |p: &[u8]| {
            if p.is_empty() {
                return Err("params required".to_string());
            }
            Ok(FnMapper::new(|v: &u32, emit: &mut dyn FnMut(u8, u64)| {
                emit(0, *v as u64)
            }))
        });
        assert!(r.build("strict", &[]).is_err());
        assert!(r.build("strict", &[1]).is_ok());
    }
}
