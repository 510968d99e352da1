//! Timing decorators over the engine's public plug-in traits.
//!
//! Every decorator delegates each call to the wrapped part unchanged and
//! adds the time spent inside it to a shared [`Recorder`]. The engine is
//! not touched: a decorated job is assembled from the same public parts
//! the job builders use, so its outputs must equal the undecorated job's
//! byte for byte (checked on every traced run).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use approxhadoop_runtime::combine::Combiner;
use approxhadoop_runtime::control::{Coordinator, JobControl, MapDirective};
use approxhadoop_runtime::input::{InputSource, SampledItems, SplitMeta, SplitStream};
use approxhadoop_runtime::mapper::{MapTaskContext, Mapper};
use approxhadoop_runtime::metrics::MapStats;
use approxhadoop_runtime::reducer::{MapOutputMeta, ReduceContext, Reducer};
use approxhadoop_runtime::types::TaskId;

/// The layers a decorator can charge time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `InputSource::stream_split`/`read_split` plus the stream's `next`.
    Input,
    /// `Mapper::begin_task`/`map`/`end_task`, minus time spent in `emit`.
    Mapper,
    /// `Combiner::combine`.
    Combine,
    /// `Reducer::on_map_output`/`on_map_dropped`.
    ReducerFold,
    /// `Reducer::finish`.
    ReducerFinish,
    /// Every `Coordinator` callback.
    Coordinator,
}

const LAYERS: usize = 6;

/// One recorded span: a layer boundary crossed by one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The job the span belongs to.
    pub job: u64,
    /// Span name (`job`, `map.attempt`, `reducer.fold`, `reducer.finish`).
    pub name: &'static str,
    /// Index of the parent span in the job's span list (`None` = root).
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Task the span concerns, when it concerns one.
    pub task: Option<usize>,
}

/// Where the decorators of one traced job put their measurements: a
/// nanosecond total and a call count per layer, the span list, and the
/// reduce-side map-output batches kept for the IPC replay.
#[derive(Debug)]
pub struct Recorder<K, V> {
    job: u64,
    epoch: Instant,
    ns: [AtomicU64; LAYERS],
    calls: [AtomicU64; LAYERS],
    first_read: OnceLock<Instant>,
    spans: Mutex<Vec<Span>>,
    batches: Mutex<Vec<Vec<(K, V)>>>,
    keep_batches: bool,
}

impl<K, V> Recorder<K, V> {
    /// A recorder for job `job`; with `keep_batches` the decorated reducer
    /// keeps a copy of every map-output batch it receives. Its first span
    /// is the job's root (see [`Recorder::end_job`]); every other span is
    /// the root's child.
    pub fn new(job: u64, keep_batches: bool) -> Arc<Self> {
        let root = Span {
            job,
            name: "job",
            parent: None,
            start_ns: 0,
            dur_ns: 0,
            task: None,
        };
        Arc::new(Recorder {
            job,
            epoch: Instant::now(),
            ns: Default::default(),
            calls: Default::default(),
            first_read: OnceLock::new(),
            spans: Mutex::new(vec![root]),
            batches: Mutex::new(Vec::new()),
            keep_batches,
        })
    }

    /// Closes the root span: the job ran from the recorder's creation
    /// until now.
    pub fn end_job(&self) {
        let dur = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list lock poisoned")[0].dur_ns = dur;
    }

    fn add(&self, layer: Layer, ns: u64) {
        self.ns[layer as usize].fetch_add(ns, Ordering::Relaxed);
        self.calls[layer as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn add_many(&self, layer: Layer, ns: u64, calls: u64) {
        self.ns[layer as usize].fetch_add(ns, Ordering::Relaxed);
        self.calls[layer as usize].fetch_add(calls, Ordering::Relaxed);
    }

    /// Seconds spent in `layer` so far.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.ns[layer as usize].load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls into `layer` so far.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].load(Ordering::Relaxed)
    }

    /// When the first split was opened, if one was.
    pub fn first_read(&self) -> Option<Instant> {
        self.first_read.get().copied()
    }

    /// Records a child span of the job from `start` to now.
    fn span(&self, name: &'static str, start: Instant, task: Option<usize>) {
        let now = Instant::now();
        let span = Span {
            job: self.job,
            name,
            parent: Some(0),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: now.saturating_duration_since(start).as_nanos() as u64,
            task,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Takes the kept map-output batches.
    pub fn take_batches(&self) -> Vec<Vec<(K, V)>> {
        std::mem::take(&mut *self.batches.lock().expect("batch lock poisoned"))
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// An [`InputSource`] decorator timing split opens and every record the
/// split stream yields.
pub struct TimedSource<S, K, V> {
    inner: Arc<S>,
    rec: Arc<Recorder<K, V>>,
}

impl<S, K, V> TimedSource<S, K, V> {
    /// Wraps `inner`, charging [`Layer::Input`] on `rec`.
    pub fn new(inner: Arc<S>, rec: Arc<Recorder<K, V>>) -> Self {
        TimedSource { inner, rec }
    }
}

/// Times each `next` of a split stream; flushes its totals on drop.
struct TimedIter<'a, I, K, V> {
    inner: SplitStream<'a, I>,
    rec: Arc<Recorder<K, V>>,
    ns: u64,
    calls: u64,
}

impl<I, K, V> Iterator for TimedIter<'_, I, K, V> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        let t = Instant::now();
        let item = self.inner.next();
        self.ns += ns_since(t);
        self.calls += 1;
        item
    }
}

impl<I, K, V> Drop for TimedIter<'_, I, K, V> {
    fn drop(&mut self) {
        self.rec.add_many(Layer::Input, self.ns, self.calls);
    }
}

impl<S, K, V> InputSource for TimedSource<S, K, V>
where
    S: InputSource,
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Item = S::Item;

    fn splits(&self) -> Vec<SplitMeta> {
        self.inner.splits()
    }

    fn read_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> approxhadoop_runtime::Result<SampledItems<S::Item>> {
        let t = Instant::now();
        let _ = self.rec.first_read.set(t);
        let out = self.inner.read_split(index, sampling_ratio, seed);
        self.rec.add(Layer::Input, ns_since(t));
        out
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> approxhadoop_runtime::Result<SplitStream<'_, S::Item>> {
        let t = Instant::now();
        let _ = self.rec.first_read.set(t);
        let stream = self.inner.stream_split(index, sampling_ratio, seed);
        self.rec.add(Layer::Input, ns_since(t));
        let stream = stream?;
        let (total, sampled) = (stream.total, stream.sampled);
        let timed = TimedIter {
            inner: stream,
            rec: Arc::clone(&self.rec),
            ns: 0,
            calls: 0,
        };
        Ok(SplitStream::new(total, sampled, timed))
    }
}

/// A [`Mapper`] decorator timing the user map code. Time spent inside
/// the engine's `emit` callback (partitioning and the combine table) is
/// subtracted, so it stays with the engine. When the wrapped mapper has
/// a combiner, this decorator stands in for it and times every fold.
pub struct TimedMapper<M, K, V> {
    inner: M,
    rec: Arc<Recorder<K, V>>,
}

impl<M, K, V> TimedMapper<M, K, V> {
    /// Wraps `inner`, charging [`Layer::Mapper`] and [`Layer::Combine`].
    pub fn new(inner: M, rec: Arc<Recorder<K, V>>) -> Self {
        TimedMapper { inner, rec }
    }
}

/// Per-attempt state of [`TimedMapper`]: the inner state plus local
/// totals, flushed once when the attempt ends.
pub struct TimedTaskState<T> {
    inner: T,
    started: Instant,
    task: usize,
    ns: u64,
    calls: u64,
}

impl<M, K, V> Mapper for TimedMapper<M, K, V>
where
    M: Mapper,
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Item = M::Item;
    type Key = M::Key;
    type Value = M::Value;
    type TaskState = TimedTaskState<M::TaskState>;

    fn begin_task(&self, ctx: &MapTaskContext) -> Self::TaskState {
        let t = Instant::now();
        let inner = self.inner.begin_task(ctx);
        TimedTaskState {
            inner,
            started: t,
            task: ctx.task.0,
            ns: ns_since(t),
            calls: 0,
        }
    }

    fn map(
        &self,
        state: &mut Self::TaskState,
        item: Self::Item,
        emit: &mut dyn FnMut(Self::Key, Self::Value),
    ) {
        let t = Instant::now();
        let mut emit_ns = 0u64;
        self.inner.map(&mut state.inner, item, &mut |k, v| {
            let e = Instant::now();
            emit(k, v);
            emit_ns += ns_since(e);
        });
        state.ns += ns_since(t).saturating_sub(emit_ns);
        state.calls += 1;
    }

    fn end_task(&self, state: Self::TaskState, emit: &mut dyn FnMut(Self::Key, Self::Value)) {
        let t = Instant::now();
        let mut emit_ns = 0u64;
        self.inner.end_task(state.inner, &mut |k, v| {
            let e = Instant::now();
            emit(k, v);
            emit_ns += ns_since(e);
        });
        let ns = state.ns + ns_since(t).saturating_sub(emit_ns);
        self.rec.add_many(Layer::Mapper, ns, state.calls);
        self.rec
            .span("map.attempt", state.started, Some(state.task));
    }

    fn combiner(&self) -> Option<&dyn Combiner<Self::Key, Self::Value>> {
        self.inner
            .combiner()
            .map(|_| self as &dyn Combiner<Self::Key, Self::Value>)
    }
}

impl<M, K, V> Combiner<M::Key, M::Value> for TimedMapper<M, K, V>
where
    M: Mapper,
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn combine(&self, key: &M::Key, acc: &mut M::Value, incoming: M::Value) {
        let t = Instant::now();
        self.inner
            .combiner()
            .expect("the decorator only combines for mappers that have a combiner")
            .combine(key, acc, incoming);
        self.rec.add(Layer::Combine, ns_since(t));
    }
}

/// A [`Reducer`] decorator timing the incremental fold (including the
/// bound monitor's re-estimates) and the final estimation.
pub struct TimedReducer<R: Reducer> {
    inner: R,
    rec: Arc<Recorder<R::Key, R::Value>>,
}

impl<R: Reducer> TimedReducer<R> {
    /// Wraps `inner`, charging [`Layer::ReducerFold`] and
    /// [`Layer::ReducerFinish`].
    pub fn new(inner: R, rec: Arc<Recorder<R::Key, R::Value>>) -> Self {
        TimedReducer { inner, rec }
    }
}

impl<R: Reducer> Reducer for TimedReducer<R>
where
    R::Key: Clone,
    R::Value: Clone,
{
    type Key = R::Key;
    type Value = R::Value;
    type Output = R::Output;

    fn on_map_output(
        &mut self,
        meta: &MapOutputMeta,
        pairs: Vec<(R::Key, R::Value)>,
        ctx: &mut ReduceContext,
    ) {
        let kept = self.rec.keep_batches.then(|| pairs.clone());
        let t = Instant::now();
        self.inner.on_map_output(meta, pairs, ctx);
        self.rec.add(Layer::ReducerFold, ns_since(t));
        self.rec.span("reducer.fold", t, Some(meta.task.0));
        if let Some(batch) = kept {
            self.rec
                .batches
                .lock()
                .expect("batch lock poisoned")
                .push(batch);
        }
    }

    fn on_map_dropped(&mut self, task: TaskId, ctx: &mut ReduceContext) {
        let t = Instant::now();
        self.inner.on_map_dropped(task, ctx);
        self.rec.add(Layer::ReducerFold, ns_since(t));
    }

    fn finish(&mut self, ctx: &mut ReduceContext) -> Vec<R::Output> {
        let t = Instant::now();
        let out = self.inner.finish(ctx);
        self.rec.add(Layer::ReducerFinish, ns_since(t));
        self.rec.span("reducer.finish", t, None);
        out
    }
}

/// A [`Coordinator`] decorator timing every policy callback.
pub struct TimedCoordinator<'a, K, V> {
    inner: &'a mut dyn Coordinator,
    rec: Arc<Recorder<K, V>>,
}

impl<'a, K, V> TimedCoordinator<'a, K, V> {
    /// Wraps `inner`, charging [`Layer::Coordinator`].
    pub fn new(inner: &'a mut dyn Coordinator, rec: Arc<Recorder<K, V>>) -> Self {
        TimedCoordinator { inner, rec }
    }
}

impl<K, V> Coordinator for TimedCoordinator<'_, K, V>
where
    K: Send + Sync,
    V: Send + Sync,
{
    fn directive(&mut self, task: TaskId, meta: &SplitMeta) -> MapDirective {
        let t = Instant::now();
        let d = self.inner.directive(task, meta);
        self.rec.add(Layer::Coordinator, ns_since(t));
        d
    }

    fn on_map_complete(&mut self, stats: &MapStats) {
        let t = Instant::now();
        self.inner.on_map_complete(stats);
        self.rec.add(Layer::Coordinator, ns_since(t));
    }

    fn want_drop_remaining(&mut self, control: &JobControl) -> bool {
        let t = Instant::now();
        let d = self.inner.want_drop_remaining(control);
        self.rec.add(Layer::Coordinator, ns_since(t));
        d
    }
}
