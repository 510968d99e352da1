//! Shuffle plumbing shared by every execution backend: per-reducer
//! channels, pre-partitioned batch shipping, drop notifications, and the
//! reduce-side drain loop.
//!
//! Both executors route map outputs through the same channel fabric, so
//! the shuffle contract — one deduplicated `MapOutput`/`MapDropped`
//! event per task per reducer — lives in exactly one place.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::combine::{route_emission, CombineTable, Combiner};
use crate::control::JobControl;
use crate::reducer::{DedupState, MapOutputMeta, ReduceContext, ReduceEvent, Reducer};
use crate::types::{Key, TaskId, Value};

use super::attempt::MapOutputs;

/// An in-process attempt's [`MapOutputs`]: arena-reused per-reducer
/// buffers, shipped as one pre-partitioned batch per reducer channel.
///
/// A task-tracker thread keeps one `MapBuffers` alive across every
/// attempt it runs, so the hot path stops paying per-attempt allocation:
/// the combine tables keep their hash-table allocations across drains,
/// and raw pair vectors (whose backing store is moved out when a batch
/// ships) are pre-sized to the per-partition high-water mark of earlier
/// attempts on the same worker.
pub(crate) struct MapBuffers<'c, K: Key, V: Value> {
    /// One channel per reduce partition.
    txs: Vec<Sender<ReduceEvent<K, V>>>,
    /// The current attempt's combiner, if it combines.
    combiner: Option<&'c dyn Combiner<K, V>>,
    /// Raw path: one pair vector per reduce partition.
    raw: Vec<Vec<(K, V)>>,
    /// Combining path: one hash-fold table per reduce partition.
    combined: Vec<CombineTable<K, V>>,
    /// Largest raw batch shipped per partition so far.
    raw_hwm: Vec<usize>,
}

impl<K: Key, V: Value> MapBuffers<'_, K, V> {
    /// Empty buffers shipping to `txs`, one sender per reduce partition.
    pub(crate) fn new(txs: Vec<Sender<ReduceEvent<K, V>>>) -> Self {
        let reducers = txs.len();
        MapBuffers {
            txs,
            combiner: None,
            raw: (0..reducers).map(|_| Vec::new()).collect(),
            combined: (0..reducers).map(|_| CombineTable::new()).collect(),
            raw_hwm: vec![0; reducers],
        }
    }
}

impl<'c, K: Key, V: Value> MapOutputs<'c, K, V> for MapBuffers<'c, K, V> {
    fn partitions(&self) -> usize {
        self.txs.len()
    }

    /// Discards leftovers from a killed or panicked predecessor (keeping
    /// allocations), and pre-sizes fresh raw vectors to the high-water
    /// mark so steady-state attempts never grow them incrementally.
    fn begin(&mut self, combiner: Option<&'c dyn Combiner<K, V>>) {
        self.combiner = combiner;
        for (v, &hwm) in self.raw.iter_mut().zip(&self.raw_hwm) {
            v.clear();
            if v.capacity() == 0 && hwm > 0 {
                v.reserve(hwm);
            }
        }
        for table in &mut self.combined {
            table.clear();
        }
    }

    fn emit(&mut self, partition: usize, hash: u64, key: K, value: V) {
        let (raw, combined) = (&mut self.raw, &mut self.combined);
        route_emission(self.combiner, raw, combined, partition, hash, key, value);
    }

    /// Each reducer receives exactly one pre-partitioned batch
    /// (pre-combined and in key order when a combiner ran — the hash
    /// tables are sorted here, once per batch, so shipped bytes stay
    /// identical to the old ordered-insert path).
    fn ship(&mut self, meta: MapOutputMeta) -> crate::Result<u64> {
        let mut shuffled = 0u64;
        for (p, tx) in self.txs.iter().enumerate() {
            let pairs: Vec<(K, V)> = if self.combiner.is_some() {
                self.combined[p].drain_sorted()
            } else {
                self.raw_hwm[p] = self.raw_hwm[p].max(self.raw[p].len());
                std::mem::take(&mut self.raw[p])
            };
            shuffled += pairs.len() as u64;
            let _ = tx.send(ReduceEvent::MapOutput { meta, pairs });
        }
        Ok(shuffled)
    }
}

/// Creates one unbounded channel per reduce task.
#[allow(clippy::type_complexity)] // a (senders, receivers) pair, nothing deeper
pub(crate) fn reducer_channels<K: Key, V: Value>(
    reducers: usize,
) -> (
    Vec<Sender<ReduceEvent<K, V>>>,
    Vec<Receiver<ReduceEvent<K, V>>>,
) {
    let mut txs = Vec::with_capacity(reducers);
    let mut rxs = Vec::with_capacity(reducers);
    for _ in 0..reducers {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    (txs, rxs)
}

/// Tells every reducer that `task` will never deliver output (dropped,
/// killed, or degraded-to-drop) so barrier-less reducers can account for
/// the missing cluster per Eq. 1–3.
pub(crate) fn broadcast_drop<K: Key, V: Value>(txs: &[Sender<ReduceEvent<K, V>>], task: usize) {
    for tx in txs {
        let _ = tx.send(ReduceEvent::MapDropped { task: TaskId(task) });
    }
}

/// The reduce-task body: drains shuffle events until every sender is
/// gone, forwarding the first event per map task (speculative siblings
/// deliver duplicates) to the user reducer, then finishes it.
pub(crate) fn drain_reduce_events<R: Reducer>(
    mut reducer: R,
    rx: Receiver<ReduceEvent<R::Key, R::Value>>,
    partition: usize,
    total_maps: usize,
    control: Arc<JobControl>,
) -> Vec<R::Output> {
    let mut ctx = ReduceContext::new(partition, total_maps, control);
    let mut dedup = DedupState::new();
    for event in rx.iter() {
        match event {
            ReduceEvent::MapOutput { meta, pairs } => {
                if dedup.first(meta.task) {
                    ctx.note_map();
                    reducer.on_map_output(&meta, pairs, &mut ctx);
                }
            }
            ReduceEvent::MapDropped { task } => {
                if dedup.first(task) {
                    ctx.note_map();
                    reducer.on_map_dropped(task, &mut ctx);
                }
            }
        }
    }
    reducer.finish(&mut ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::GroupedReducer;

    fn meta(records: u64) -> MapOutputMeta {
        MapOutputMeta {
            task: TaskId(0),
            dataset: Default::default(),
            total_records: records,
            sampled_records: records,
            duration_secs: 0.0,
        }
    }

    #[test]
    fn ship_takes_raw_or_combined_path() {
        let (txs, rxs) = reducer_channels::<u32, u64>(2);
        let c = crate::combine::SumCombiner;
        let mut bufs = MapBuffers::new(txs);
        bufs.begin(None);
        for (p, k) in [(0, 1u32), (0, 1), (1, 2)] {
            bufs.emit(p, crate::types::fx_hash(&k), k, 1u64);
        }
        // Raw path ships every pair.
        assert_eq!(bufs.ship(meta(3)).unwrap(), 3);
        // Combined path ships the folded table.
        bufs.begin(Some(&c));
        for _ in 0..2 {
            bufs.emit(0, crate::types::fx_hash(&1u32), 1, 1);
        }
        assert_eq!(bufs.ship(meta(2)).unwrap(), 1);
        drop(bufs);
        let batches: Vec<_> = rxs[0].iter().collect();
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn combined_batches_ship_in_key_order() {
        let (txs, rxs) = reducer_channels::<String, u64>(1);
        let c = crate::combine::SumCombiner;
        let mut bufs = MapBuffers::new(txs);
        bufs.begin(Some(&c));
        for w in ["pear", "apple", "quince", "apple"] {
            bufs.emit(0, crate::types::fx_hash(w), w.to_string(), 1u64);
        }
        bufs.ship(meta(4)).unwrap();
        drop(bufs);
        let batch = match rxs[0].iter().next().unwrap() {
            ReduceEvent::MapOutput { pairs, .. } => pairs,
            _ => panic!("expected a MapOutput event"),
        };
        assert_eq!(
            batch,
            vec![
                ("apple".to_string(), 2),
                ("pear".to_string(), 1),
                ("quince".to_string(), 1),
            ],
            "hash-folded batches must still arrive sorted by key"
        );
    }

    #[test]
    fn map_buffers_begin_presizes_from_high_water_mark() {
        let (txs, _rxs) = reducer_channels::<u32, u64>(1);
        let mut bufs = MapBuffers::new(txs);
        bufs.begin(None);
        bufs.raw[0].extend((0..64u32).map(|i| (i, 1u64)));
        bufs.ship(meta(64)).unwrap();
        assert!(bufs.raw[0].capacity() == 0, "shipping moves the vector out");
        bufs.begin(None);
        assert!(
            bufs.raw[0].capacity() >= 64,
            "next attempt starts at the high-water mark, got {}",
            bufs.raw[0].capacity()
        );
        // Leftovers from an aborted attempt are discarded on begin.
        bufs.raw[0].push((9, 9));
        bufs.combined[0].fold(
            &crate::combine::SumCombiner,
            crate::types::fx_hash(&1u32),
            1u32,
            1u64,
        );
        bufs.begin(None);
        assert!(bufs.raw[0].is_empty() && bufs.combined[0].is_empty());
    }

    #[test]
    fn drain_dedups_sibling_outputs_and_drops() {
        let (txs, mut rxs) = reducer_channels::<u32, u64>(1);
        let meta = meta(1);
        // Two sibling attempts deliver the same task; one other task drops
        // (twice — e.g. a killed sibling racing the drop broadcast).
        for _ in 0..2 {
            let _ = txs[0].send(ReduceEvent::MapOutput {
                meta,
                pairs: vec![(7u32, 1u64)],
            });
            broadcast_drop(&txs, 1);
        }
        drop(txs);
        let control = Arc::new(JobControl::new(1));
        let out = drain_reduce_events(
            GroupedReducer::new(|k: &u32, vs: &[u64]| Some((*k, vs.len()))),
            rxs.remove(0),
            0,
            2,
            control,
        );
        assert_eq!(out, vec![(7, 1)], "duplicate deliveries must be ignored");
    }
}
