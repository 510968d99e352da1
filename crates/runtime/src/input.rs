//! Input sources: splits, sampling-aware block readers.
//!
//! Each input split becomes one map task; the split is the *cluster* of
//! the two-stage sampling theory. `read_split` takes the sampling ratio
//! decided by the scheduler for this task and must report both the
//! block's total record count `M_i` and the number of records actually
//! returned `m_i`.

use approxhadoop_ipc::{Decoder, Wire, WireError};
use approxhadoop_stats::sampling::SystematicSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Result, RuntimeError};

/// Identifies one dataset of a (possibly multi-input) job.
///
/// Single-input jobs — every job before tagged inputs existed — live
/// entirely in dataset `0`, which is what [`DatasetId::default`]
/// returns; the scheduler, wire protocol and estimators treat that case
/// exactly as before. Multi-input jobs (joins) tag every split, work
/// item and map output with the dataset it belongs to, so cluster
/// populations `N`/`n` and the Eq. 1–3 intervals stay correct *per
/// dataset*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub struct DatasetId(pub u32);

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset-{}", self.0)
    }
}

impl Wire for DatasetId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> std::result::Result<Self, WireError> {
        Ok(DatasetId(u32::decode(d)?))
    }
}

/// Metadata describing one input split (block).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitMeta {
    /// Split index (= map task id).
    pub index: usize,
    /// The dataset this split belongs to (`DatasetId(0)` for
    /// single-input jobs).
    pub dataset: DatasetId,
    /// Total records `M_i` in the split.
    pub records: u64,
    /// Size in bytes (for timing/energy models; `0` if unknown).
    pub bytes: u64,
    /// Indices of the servers holding a replica (for locality-aware
    /// scheduling; empty if unknown).
    pub locations: Vec<usize>,
}

/// The outcome of reading (and possibly sampling) a split.
#[derive(Debug, Clone)]
pub struct SampledItems<I> {
    /// The sampled items, in block order.
    pub items: Vec<I>,
    /// `M_i` — total records in the split.
    pub total: u64,
    /// `m_i` — records returned (equals `items.len()`).
    pub sampled: u64,
}

/// A streaming view of one (possibly sampled) split: the counts are
/// known up front, the records are yielded lazily so sources can avoid
/// materialising or cloning whole blocks on the hot path.
pub struct SplitStream<'a, I> {
    /// `M_i` — total records in the split.
    pub total: u64,
    /// `m_i` — records the iterator will yield.
    pub sampled: u64,
    iter: Box<dyn Iterator<Item = I> + Send + 'a>,
}

impl<'a, I> SplitStream<'a, I> {
    /// Wraps an iterator with its split counts. `sampled` must equal the
    /// number of items `iter` yields.
    pub fn new(total: u64, sampled: u64, iter: impl Iterator<Item = I> + Send + 'a) -> Self {
        SplitStream {
            total,
            sampled,
            iter: Box::new(iter),
        }
    }
}

impl<I: Send + 'static> SplitStream<'static, I> {
    /// Adapts an already-materialised [`SampledItems`] read.
    pub fn from_items(read: SampledItems<I>) -> Self {
        SplitStream::new(read.total, read.sampled, read.items.into_iter())
    }
}

impl<I> Iterator for SplitStream<'_, I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl<I> std::fmt::Debug for SplitStream<'_, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitStream")
            .field("total", &self.total)
            .field("sampled", &self.sampled)
            .finish_non_exhaustive()
    }
}

/// A source of input splits for a job.
///
/// Implementations must be shareable across task-tracker threads.
pub trait InputSource: Send + Sync {
    /// The record type produced.
    type Item: Send + 'static;

    /// Describes every split of the input. Called once at job start.
    fn splits(&self) -> Vec<SplitMeta>;

    /// Reads split `index`, sampling records at `sampling_ratio`
    /// (`1.0` = precise). `seed` makes the sample reproducible per task
    /// attempt. Implementations should use *systematic* sampling (every
    /// k-th record from a random offset), like the paper's
    /// `ApproxTextInputFormat`.
    fn read_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SampledItems<Self::Item>>;

    /// Streaming form of [`read_split`](InputSource::read_split): yields
    /// the same records in the same order without requiring callers to
    /// hold the whole sampled vector. The engine's hot path uses this;
    /// the default delegates to `read_split`, and sources override it to
    /// skip the extra clone/materialisation.
    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, Self::Item>> {
        let read = self.read_split(index, sampling_ratio, seed)?;
        Ok(SplitStream::from_items(read))
    }
}

/// Computes the systematic-sample indices for a block of `total` records
/// at `ratio`: `None` means "keep every record" (`ratio >= 1.0`), so
/// precise reads never touch an index vector.
///
/// `ratio` must lie in `(0, 1]`; `0`, negatives and NaN are programming
/// errors (the `JobConfig`/CLI boundary validates user input), checked by
/// `debug_assert` here and by the sampler's own assertion in release.
pub fn sample_systematic_indices(total: usize, ratio: f64, seed: u64) -> Option<Vec<usize>> {
    debug_assert!(
        ratio > 0.0 && ratio <= 1.0,
        "sampling ratio must be in (0, 1], got {ratio}"
    );
    if ratio >= 1.0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = SystematicSampler::from_ratio(ratio);
    Some(sampler.sample_indices(&mut rng, total))
}

/// Samples `items` systematically at `ratio`, returning the sampled
/// subset; keeps everything at `ratio >= 1.0`. Utility for implementing
/// [`InputSource::read_split`]. Same ratio contract as
/// [`sample_systematic_indices`].
pub fn sample_systematic<I: Clone>(items: &[I], ratio: f64, seed: u64) -> Vec<I> {
    match sample_systematic_indices(items.len(), ratio, seed) {
        None => items.to_vec(),
        Some(idx) => idx.into_iter().map(|i| items[i].clone()).collect(),
    }
}

/// [`sample_systematic`] for an owned block: moves the sampled records
/// out instead of cloning them.
pub(crate) fn sample_systematic_owned<I>(block: Vec<I>, ratio: f64, seed: u64) -> SampledItems<I> {
    let total = block.len() as u64;
    let items: Vec<I> = match sample_systematic_indices(block.len(), ratio, seed) {
        None => block,
        // The indices ascend, so one pass moves the sample out.
        Some(idx) => {
            let mut keep = idx.into_iter().peekable();
            block
                .into_iter()
                .enumerate()
                .filter_map(|(i, item)| keep.next_if_eq(&i).map(|_| item))
                .collect()
        }
    };
    SampledItems {
        total,
        sampled: items.len() as u64,
        items,
    }
}

/// In-memory input source: one `Vec` of items per split. The workhorse of
/// unit tests and small jobs.
#[derive(Debug, Clone)]
pub struct VecSource<I> {
    blocks: Vec<Vec<I>>,
    locations: Vec<Vec<usize>>,
}

impl<I: Clone + Send + Sync> VecSource<I> {
    /// Creates a source with one split per inner vector.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty. Use [`VecSource::try_new`] where the
    /// blocks come from an untrusted boundary (a worker's dataset table,
    /// a decoded job spec) and a panic would abort the process mid-job.
    pub fn new(blocks: Vec<Vec<I>>) -> Self {
        Self::try_new(blocks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VecSource::new`]: rejects empty inputs with
    /// [`RuntimeError::InvalidJob`] instead of panicking.
    pub fn try_new(blocks: Vec<Vec<I>>) -> Result<Self> {
        if blocks.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "input must contain at least one block".into(),
            });
        }
        let locations = vec![Vec::new(); blocks.len()];
        Ok(VecSource { blocks, locations })
    }

    /// Attaches replica locations (parallel to the blocks).
    ///
    /// # Panics
    ///
    /// Panics if `locations.len() != blocks.len()`. See
    /// [`VecSource::try_with_locations`].
    pub fn with_locations(self, locations: Vec<Vec<usize>>) -> Self {
        self.try_with_locations(locations)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VecSource::with_locations`].
    pub fn try_with_locations(mut self, locations: Vec<Vec<usize>>) -> Result<Self> {
        if locations.len() != self.blocks.len() {
            return Err(RuntimeError::InvalidJob {
                reason: format!(
                    "locations table has {} entries for {} blocks",
                    locations.len(),
                    self.blocks.len()
                ),
            });
        }
        self.locations = locations;
        Ok(self)
    }

    /// Flattens a list of items into equal-size blocks of `per_block`.
    ///
    /// # Panics
    ///
    /// Panics if `per_block == 0` or `items` is empty. See
    /// [`VecSource::try_from_items`].
    pub fn from_items(items: Vec<I>, per_block: usize) -> Self {
        Self::try_from_items(items, per_block).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`VecSource::from_items`].
    pub fn try_from_items(items: Vec<I>, per_block: usize) -> Result<Self> {
        if per_block == 0 {
            return Err(RuntimeError::InvalidJob {
                reason: "per_block must be positive".into(),
            });
        }
        if items.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "input must contain at least one item".into(),
            });
        }
        let blocks = items
            .chunks(per_block)
            .map(|c| c.to_vec())
            .collect::<Vec<_>>();
        VecSource::try_new(blocks)
    }
}

impl<I: Clone + Send + Sync + 'static> InputSource for VecSource<I> {
    type Item = I;

    fn splits(&self) -> Vec<SplitMeta> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| SplitMeta {
                index: i,
                dataset: DatasetId::default(),
                records: b.len() as u64,
                bytes: 0,
                locations: self.locations[i].clone(),
            })
            .collect()
    }

    fn read_split(&self, index: usize, sampling_ratio: f64, seed: u64) -> Result<SampledItems<I>> {
        let block = &self.blocks[index];
        let items = sample_systematic(block, sampling_ratio, seed);
        Ok(SampledItems {
            total: block.len() as u64,
            sampled: items.len() as u64,
            items,
        })
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, I>> {
        let block = &self.blocks[index];
        let total = block.len() as u64;
        Ok(
            match sample_systematic_indices(block.len(), sampling_ratio, seed) {
                // Precise read: iterate the block in place, no index vector,
                // no second materialisation.
                None => SplitStream::new(total, total, block.iter().cloned()),
                Some(idx) => {
                    let sampled = idx.len() as u64;
                    SplitStream::new(
                        total,
                        sampled,
                        idx.into_iter().map(move |i| block[i].clone()),
                    )
                }
            },
        )
    }
}

/// A generator-backed source: splits are produced on demand by a
/// function, so synthetic inputs can be arbitrarily large. The generator
/// must be deterministic per index (straggler duplicates re-read splits).
pub struct FnSource<I, F> {
    metas: Vec<SplitMeta>,
    generator: F,
    _marker: std::marker::PhantomData<fn() -> I>,
}

impl<I, F> FnSource<I, F>
where
    F: Fn(usize) -> Vec<I> + Send + Sync,
{
    /// Creates a source over the given split metadata; `generator(i)`
    /// materialises the records of split `i`.
    ///
    /// # Panics
    ///
    /// Panics if `metas` is empty. See [`FnSource::try_new`].
    pub fn new(metas: Vec<SplitMeta>, generator: F) -> Self {
        Self::try_new(metas, generator).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`FnSource::new`].
    pub fn try_new(metas: Vec<SplitMeta>, generator: F) -> Result<Self> {
        if metas.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "input must contain at least one split".into(),
            });
        }
        Ok(FnSource {
            metas,
            generator,
            _marker: std::marker::PhantomData,
        })
    }
}

impl<I, F> InputSource for FnSource<I, F>
where
    I: Send + 'static,
    F: Fn(usize) -> Vec<I> + Send + Sync,
{
    type Item = I;

    fn splits(&self) -> Vec<SplitMeta> {
        self.metas.clone()
    }

    fn read_split(&self, index: usize, ratio: f64, seed: u64) -> Result<SampledItems<I>> {
        let block = (self.generator)(index);
        Ok(sample_systematic_owned(block, ratio, seed))
    }
}

/// A boxed, object-safe input source — the element of a
/// [`TaggedSource`]'s dataset table.
pub type BoxedSource<I> = Box<dyn InputSource<Item = I> + 'static>;

/// Combines several [`InputSource`]s into one multi-dataset input whose
/// records are `(DatasetId, item)` pairs.
///
/// Splits of the member sources are flattened into a single global split
/// index space, in dataset order: dataset `0`'s splits first, then
/// dataset `1`'s, and so on. Each flattened [`SplitMeta`] carries its
/// [`DatasetId`], so the scheduler and estimators can keep per-dataset
/// cluster populations (`N_d`, `n_d`) without any extra plumbing — a
/// split remains exactly one cluster of exactly one dataset.
pub struct TaggedSource<I> {
    sources: Vec<BoxedSource<I>>,
    /// Global split index → (dataset, local split index).
    table: Vec<(DatasetId, usize)>,
    metas: Vec<SplitMeta>,
}

impl<I: Send + 'static> TaggedSource<I> {
    /// Builds the tagged union of `sources`; dataset `d` is
    /// `sources[d]`. Rejects an empty source list and member sources
    /// without splits ([`RuntimeError::InvalidJob`]), so a malformed
    /// dataset table surfaces as a job error rather than a panic.
    pub fn try_new(sources: Vec<BoxedSource<I>>) -> Result<Self> {
        if sources.is_empty() {
            return Err(RuntimeError::InvalidJob {
                reason: "multi-input job must have at least one dataset".into(),
            });
        }
        if sources.len() > u32::MAX as usize {
            return Err(RuntimeError::InvalidJob {
                reason: "too many datasets".into(),
            });
        }
        let mut table = Vec::new();
        let mut metas = Vec::new();
        for (d, src) in sources.iter().enumerate() {
            let dataset = DatasetId(d as u32);
            let local = src.splits();
            if local.is_empty() {
                return Err(RuntimeError::InvalidJob {
                    reason: format!("{dataset} has no splits"),
                });
            }
            for (li, m) in local.into_iter().enumerate() {
                table.push((dataset, li));
                metas.push(SplitMeta {
                    index: metas.len(),
                    dataset,
                    records: m.records,
                    bytes: m.bytes,
                    locations: m.locations,
                });
            }
        }
        Ok(TaggedSource {
            sources,
            table,
            metas,
        })
    }

    /// Infallible form of [`TaggedSource::try_new`] for trusted callers.
    ///
    /// # Panics
    ///
    /// Panics on an empty source list or an empty member source.
    pub fn new(sources: Vec<BoxedSource<I>>) -> Self {
        Self::try_new(sources).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of member datasets.
    pub fn dataset_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of splits contributed by dataset `d` (0 if out of range).
    pub fn splits_of(&self, d: DatasetId) -> usize {
        self.table.iter().filter(|(ds, _)| *ds == d).count()
    }
}

impl<I: Send + 'static> InputSource for TaggedSource<I> {
    type Item = (DatasetId, I);

    fn splits(&self) -> Vec<SplitMeta> {
        self.metas.clone()
    }

    fn read_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SampledItems<(DatasetId, I)>> {
        let (dataset, local) = self.table[index];
        let read = self.sources[dataset.0 as usize].read_split(local, sampling_ratio, seed)?;
        Ok(SampledItems {
            total: read.total,
            sampled: read.sampled,
            items: read.items.into_iter().map(|i| (dataset, i)).collect(),
        })
    }

    fn stream_split(
        &self,
        index: usize,
        sampling_ratio: f64,
        seed: u64,
    ) -> Result<SplitStream<'_, (DatasetId, I)>> {
        let (dataset, local) = self.table[index];
        let inner = self.sources[dataset.0 as usize].stream_split(local, sampling_ratio, seed)?;
        Ok(SplitStream::new(
            inner.total,
            inner.sampled,
            inner.map(move |i| (dataset, i)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_splits_and_reads() {
        let src = VecSource::new(vec![vec![1, 2, 3], vec![4, 5]]);
        let splits = src.splits();
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[0].records, 3);
        assert_eq!(splits[1].records, 2);
        let read = src.read_split(0, 1.0, 0).unwrap();
        assert_eq!(read.items, vec![1, 2, 3]);
        assert_eq!(read.total, 3);
        assert_eq!(read.sampled, 3);
    }

    #[test]
    fn vec_source_sampling_counts() {
        let src = VecSource::new(vec![(0..1000).collect::<Vec<i32>>()]);
        let read = src.read_split(0, 0.1, 7).unwrap();
        assert_eq!(read.total, 1000);
        assert_eq!(read.sampled, 100);
        assert_eq!(read.items.len(), 100);
        // Systematic: consecutive sampled items are 10 apart.
        assert_eq!(read.items[1] - read.items[0], 10);
        // Reproducible for the same seed, shifted for another.
        let again = src.read_split(0, 0.1, 7).unwrap();
        assert_eq!(read.items, again.items);
    }

    #[test]
    fn from_items_chunks_correctly() {
        let src = VecSource::from_items((0..25).collect(), 10);
        let splits = src.splits();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[2].records, 5);
    }

    #[test]
    fn fn_source_generates_on_demand() {
        let metas = (0..4)
            .map(|i| SplitMeta {
                index: i,
                dataset: DatasetId::default(),
                records: 10,
                bytes: 100,
                locations: vec![],
            })
            .collect();
        let src = FnSource::new(metas, |i| (0..10).map(|j| i * 100 + j).collect::<Vec<_>>());
        let read = src.read_split(2, 1.0, 0).unwrap();
        assert_eq!(read.items[0], 200);
        assert_eq!(read.sampled, 10);
    }

    #[test]
    fn sample_systematic_full_ratio() {
        let items = vec![1, 2, 3];
        assert_eq!(sample_systematic(&items, 1.0, 0), items);
        assert_eq!(sample_systematic_indices(items.len(), 1.0, 0), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sampling ratio must be in (0, 1]")]
    fn sample_systematic_rejects_zero_ratio() {
        // Regression: ratio 0 used to be silently clamped to 1e-9,
        // turning a typo into a near-empty sample with garbage bounds.
        sample_systematic(&[1, 2, 3], 0.0, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sampling ratio must be in (0, 1]")]
    fn sample_systematic_rejects_nan_ratio() {
        sample_systematic(&[1, 2, 3], f64::NAN, 0);
    }

    #[test]
    fn stream_split_matches_read_split() {
        let src = VecSource::new(vec![(0..1000).collect::<Vec<i32>>()]);
        for &(ratio, seed) in &[(1.0, 0), (0.1, 7), (0.37, 13), (0.003, 99)] {
            let read = src.read_split(0, ratio, seed).unwrap();
            let stream = src.stream_split(0, ratio, seed).unwrap();
            assert_eq!(stream.total, read.total);
            assert_eq!(stream.sampled, read.sampled);
            let streamed: Vec<i32> = stream.collect();
            assert_eq!(streamed, read.items, "ratio {ratio} seed {seed}");
        }
    }

    #[test]
    fn fn_source_stream_matches_read() {
        let metas = (0..3)
            .map(|i| SplitMeta {
                index: i,
                dataset: DatasetId::default(),
                records: 50,
                bytes: 0,
                locations: vec![],
            })
            .collect();
        let src = FnSource::new(metas, |i| (0..50).map(|j| i * 100 + j).collect::<Vec<_>>());
        for &(ratio, seed) in &[(1.0, 0), (0.2, 5), (0.5, 42)] {
            let read = src.read_split(1, ratio, seed).unwrap();
            let stream = src.stream_split(1, ratio, seed).unwrap();
            assert_eq!(stream.sampled, read.sampled);
            assert_eq!(stream.collect::<Vec<_>>(), read.items);
        }
    }

    #[test]
    #[should_panic]
    fn vec_source_rejects_empty() {
        VecSource::<i32>::new(vec![]);
    }

    #[test]
    fn try_constructors_reject_bad_input_without_panicking() {
        assert!(VecSource::<i32>::try_new(vec![]).is_err());
        assert!(VecSource::<i32>::try_from_items(vec![], 4).is_err());
        assert!(VecSource::<i32>::try_from_items(vec![1], 0).is_err());
        assert!(VecSource::new(vec![vec![1, 2]])
            .try_with_locations(vec![vec![0], vec![1]])
            .is_err());
        assert!(FnSource::<i32, _>::try_new(vec![], |_| vec![]).is_err());
        // The happy paths behave exactly like the panicking constructors.
        let src = VecSource::try_from_items((0..25).collect::<Vec<i32>>(), 10).unwrap();
        assert_eq!(src.splits().len(), 3);
        let src = src
            .try_with_locations(vec![vec![0], vec![1], vec![2]])
            .unwrap();
        assert_eq!(src.splits()[1].locations, vec![1]);
    }

    #[test]
    fn tagged_source_flattens_and_tags() {
        let logs = VecSource::new(vec![vec![10, 11, 12], vec![20, 21]]);
        let meta = VecSource::new(vec![vec![90]]);
        let src = TaggedSource::try_new(vec![Box::new(logs), Box::new(meta)]).unwrap();
        assert_eq!(src.dataset_count(), 2);
        assert_eq!(src.splits_of(DatasetId(0)), 2);
        assert_eq!(src.splits_of(DatasetId(1)), 1);
        let splits = src.splits();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].dataset, DatasetId(0));
        assert_eq!(splits[2].dataset, DatasetId(1));
        // Global indices are contiguous and self-describing.
        for (i, s) in splits.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        let read = src.read_split(1, 1.0, 0).unwrap();
        assert_eq!(read.items, vec![(DatasetId(0), 20), (DatasetId(0), 21)]);
        let read = src.read_split(2, 1.0, 0).unwrap();
        assert_eq!(read.items, vec![(DatasetId(1), 90)]);
        // Streaming agrees with the materialised read, sampled included.
        let big = VecSource::new(vec![(0..500).collect::<Vec<i32>>()]);
        let src = TaggedSource::new(vec![Box::new(big)]);
        let read = src.read_split(0, 0.2, 9).unwrap();
        let stream = src.stream_split(0, 0.2, 9).unwrap();
        assert_eq!(stream.total, read.total);
        assert_eq!(stream.sampled, read.sampled);
        assert_eq!(stream.collect::<Vec<_>>(), read.items);
    }

    #[test]
    fn tagged_source_rejects_malformed_tables() {
        assert!(TaggedSource::<i32>::try_new(vec![]).is_err());
        let ok = VecSource::new(vec![vec![1]]);
        let empty = FnSource::<i32, _>::new(
            vec![SplitMeta {
                index: 0,
                dataset: DatasetId::default(),
                records: 0,
                bytes: 0,
                locations: vec![],
            }],
            |_| vec![],
        );
        // A member source is fine as long as it has splits…
        assert!(
            TaggedSource::try_new(vec![Box::new(ok) as BoxedSource<i32>, Box::new(empty)]).is_ok()
        );
    }

    #[test]
    fn dataset_id_wire_roundtrip() {
        for id in [DatasetId(0), DatasetId(1), DatasetId(u32::MAX)] {
            let bytes = id.to_bytes();
            assert_eq!(DatasetId::from_bytes(&bytes).unwrap(), id);
        }
        let pair = (DatasetId(3), String::from("page"));
        let bytes = pair.to_bytes();
        assert_eq!(<(DatasetId, String)>::from_bytes(&bytes).unwrap(), pair);
    }
}
