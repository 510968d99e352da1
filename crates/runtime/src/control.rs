//! Job control: the channel between reduce tasks, the JobTracker, and
//! the approximation policy.
//!
//! * [`JobControl`] is shared state: reducers post error-bound reports
//!   and can request that all remaining maps be dropped; the tracker
//!   polls it.
//! * [`Coordinator`] is the policy hook: it decides, per task and *at
//!   schedule time*, whether to run (and at what sampling ratio) or drop
//!   — this late binding is what lets `approxhadoop-core` implement the
//!   paper's wave-based ratio selection. [`fixed_coordinator`] picks the
//!   fixed-ratio policy a job's config asks for.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use approxhadoop_stats::sampling::choose_indices;

use crate::input::SplitMeta;
use crate::metrics::MapStats;
use crate::types::TaskId;
use crate::RuntimeError;

/// A reduce task's latest error-bound report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Map outputs the reducer had processed when reporting.
    pub maps_processed: usize,
    /// Worst (largest) relative error bound across the reducer's keys;
    /// `f64::INFINITY` if any key is still unbounded.
    pub worst_relative_bound: f64,
}

/// Shared job-control state (one per running job).
#[derive(Debug)]
pub struct JobControl {
    drop_remaining: AtomicBool,
    bounds: Mutex<Vec<Option<BoundReport>>>,
}

impl JobControl {
    /// Creates control state for a job with `reduce_tasks` reducers.
    pub fn new(reduce_tasks: usize) -> Self {
        JobControl {
            drop_remaining: AtomicBool::new(false),
            bounds: Mutex::new(vec![None; reduce_tasks]),
        }
    }

    /// Requests that the JobTracker drop all remaining maps (kill running
    /// ones, discard pending ones). Idempotent.
    pub fn request_drop_remaining(&self) {
        self.drop_remaining.store(true, Ordering::SeqCst);
    }

    /// Whether a drop of remaining maps has been requested.
    pub fn drop_requested(&self) -> bool {
        self.drop_remaining.load(Ordering::SeqCst)
    }

    /// Posts reducer `partition`'s latest error report.
    pub fn report_bound(&self, partition: usize, report: BoundReport) {
        let mut bounds = self.bounds.lock();
        if partition < bounds.len() {
            bounds[partition] = Some(report);
        }
    }

    /// Snapshot of every reducer's latest report (`None` = no report yet).
    pub fn bound_reports(&self) -> Vec<Option<BoundReport>> {
        self.bounds.lock().clone()
    }

    /// The worst relative bound across all reducers, provided **every**
    /// reducer has reported after processing at least `min_maps` maps;
    /// `None` otherwise. A job with zero reducers has no bound (`None`)
    /// rather than a vacuous perfect bound of `0.0`.
    pub fn worst_bound_across_reducers(&self, min_maps: usize) -> Option<f64> {
        let bounds = self.bounds.lock();
        if bounds.is_empty() {
            return None;
        }
        let mut worst: f64 = 0.0;
        for b in bounds.iter() {
            match b {
                Some(r) if r.maps_processed >= min_maps => {
                    worst = worst.max(r.worst_relative_bound);
                }
                _ => return None,
            }
        }
        Some(worst)
    }
}

/// Scheduling decision for one map task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapDirective {
    /// Execute the task, sampling its block at `sampling_ratio`
    /// (`1.0` = precise).
    Run {
        /// Within-block input data sampling ratio in `(0, 1]`.
        sampling_ratio: f64,
    },
    /// Drop the task without executing it.
    Drop,
}

/// The approximation policy driving a job.
///
/// The tracker calls [`Coordinator::directive`] immediately before
/// launching each task (tasks are dispatched one slot at a time, so later
/// calls observe earlier completions — waves), and
/// [`Coordinator::on_map_complete`] for every completed attempt.
pub trait Coordinator: Send {
    /// Decides the fate of `task` at schedule time.
    fn directive(&mut self, task: TaskId, meta: &SplitMeta) -> MapDirective;

    /// Observes a completed map attempt (timing + sampling counts).
    fn on_map_complete(&mut self, stats: &MapStats) {
        let _ = stats;
    }

    /// Polled by the tracker after processing events: should all
    /// remaining maps be dropped now? (In addition to reducers setting
    /// [`JobControl::request_drop_remaining`] directly.)
    fn want_drop_remaining(&mut self, control: &JobControl) -> bool {
        let _ = control;
        false
    }
}

/// The default policy: a fixed sampling ratio for every task plus an
/// exact fraction of randomly pre-selected dropped tasks — the paper's
/// "user-specified dropping/sampling ratios" mode.
#[derive(Debug, Clone)]
pub struct FixedCoordinator {
    sampling_ratio: f64,
    dropped: Vec<bool>,
}

impl FixedCoordinator {
    /// Creates a policy for `total_tasks` tasks that drops
    /// `floor(drop_ratio · total)` random tasks and samples the rest at
    /// `sampling_ratio`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sampling_ratio <= 1` and `0 <= drop_ratio < 1`.
    pub fn new(total_tasks: usize, sampling_ratio: f64, drop_ratio: f64, seed: u64) -> Self {
        assert!(
            sampling_ratio > 0.0 && sampling_ratio <= 1.0,
            "sampling_ratio must lie in (0, 1], got {sampling_ratio}"
        );
        assert!(
            (0.0..1.0).contains(&drop_ratio),
            "drop_ratio must lie in [0, 1), got {drop_ratio}"
        );
        let mut dropped = vec![false; total_tasks];
        let k = (drop_ratio * total_tasks as f64).floor() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD20F_F00D);
        for i in choose_indices(&mut rng, total_tasks, k) {
            dropped[i] = true;
        }
        FixedCoordinator {
            sampling_ratio,
            dropped,
        }
    }

    /// The number of tasks this policy will drop.
    pub fn planned_drops(&self) -> usize {
        self.dropped.iter().filter(|&&d| d).count()
    }
}

impl Coordinator for FixedCoordinator {
    fn directive(&mut self, task: TaskId, _meta: &SplitMeta) -> MapDirective {
        if self.dropped.get(task.0).copied().unwrap_or(false) {
            MapDirective::Drop
        } else {
            MapDirective::Run {
                sampling_ratio: self.sampling_ratio,
            }
        }
    }
}

/// Per-dataset approximation ratios of a multi-input job: dataset `d`
/// runs with `datasets[d]`'s sampling/drop ratios, independent of every
/// other dataset. A join can sample its fact table aggressively while
/// reading its dimension table precisely (`sampling_ratio: 1.0,
/// drop_ratio: 0.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetRatios {
    /// Within-block input sampling ratio in `(0, 1]`.
    pub sampling_ratio: f64,
    /// Fraction of this dataset's map tasks dropped, in `[0, 1)`.
    pub drop_ratio: f64,
}

impl DatasetRatios {
    /// Precise execution: no sampling, no drops.
    pub fn precise() -> Self {
        DatasetRatios {
            sampling_ratio: 1.0,
            drop_ratio: 0.0,
        }
    }

    /// Checks the ratio ranges.
    pub fn validate(&self) -> crate::Result<()> {
        if !(self.sampling_ratio > 0.0 && self.sampling_ratio <= 1.0) {
            return Err(RuntimeError::invalid(format!(
                "dataset sampling_ratio must lie in (0, 1], got {}",
                self.sampling_ratio
            )));
        }
        if !(0.0..1.0).contains(&self.drop_ratio) {
            return Err(RuntimeError::invalid(format!(
                "dataset drop_ratio must lie in [0, 1), got {}",
                self.drop_ratio
            )));
        }
        Ok(())
    }
}

/// [`FixedCoordinator`]'s multi-input sibling: per-dataset fixed ratios,
/// with the exact-count drop selection performed **within each dataset's
/// own task set**. Dropping `floor(drop_ratio_d · N_d)` clusters of
/// dataset `d` — never of a co-scheduled dataset — is what keeps the
/// per-dataset `N_d (N_d - n_d)` variance terms (Eq. 1–3) and
/// degrade-to-drop accounting honest when a job reads several inputs.
#[derive(Debug, Clone)]
pub struct DatasetFixedCoordinator {
    /// Per-task sampling ratio (indexed by global task id).
    sampling_ratios: Vec<f64>,
    /// Per-task drop flag (indexed by global task id).
    dropped: Vec<bool>,
}

impl DatasetFixedCoordinator {
    /// Builds the policy from the job's split table and per-dataset
    /// ratios; `ratios[d]` governs every split tagged
    /// [`DatasetId`](crate::input::DatasetId)`(d)`.
    /// Rejects (rather than panics on) out-of-range ratios and splits
    /// referring to datasets missing from the table, so a malformed
    /// multi-input spec fails the job cleanly.
    pub fn new(splits: &[SplitMeta], ratios: &[DatasetRatios], seed: u64) -> crate::Result<Self> {
        for r in ratios {
            r.validate()?;
        }
        let mut per_dataset: Vec<Vec<usize>> = vec![Vec::new(); ratios.len()];
        for s in splits {
            let d = s.dataset.0 as usize;
            let Some(tasks) = per_dataset.get_mut(d) else {
                return Err(RuntimeError::invalid(format!(
                    "split {} is tagged {}, but the job declares only {} dataset(s)",
                    s.index,
                    s.dataset,
                    ratios.len()
                )));
            };
            tasks.push(s.index);
        }
        let mut sampling_ratios = vec![1.0; splits.len()];
        let mut dropped = vec![false; splits.len()];
        for (d, tasks) in per_dataset.iter().enumerate() {
            let r = ratios[d];
            for &t in tasks {
                sampling_ratios[t] = r.sampling_ratio;
            }
            // Independent drop draw per dataset: the same xor-mixed seed
            // family as FixedCoordinator, further mixed with the dataset
            // id so each dataset's selection is its own deterministic
            // stream.
            let k = (r.drop_ratio * tasks.len() as f64).floor() as usize;
            let mut rng = StdRng::seed_from_u64(
                seed ^ 0xD20F_F00D ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            for i in choose_indices(&mut rng, tasks.len(), k) {
                dropped[tasks[i]] = true;
            }
        }
        Ok(DatasetFixedCoordinator {
            sampling_ratios,
            dropped,
        })
    }

    /// The number of tasks this policy will drop, across all datasets.
    pub fn planned_drops(&self) -> usize {
        self.dropped.iter().filter(|&&d| d).count()
    }
}

impl Coordinator for DatasetFixedCoordinator {
    fn directive(&mut self, task: TaskId, _meta: &SplitMeta) -> MapDirective {
        if self.dropped.get(task.0).copied().unwrap_or(false) {
            MapDirective::Drop
        } else {
            MapDirective::Run {
                sampling_ratio: self.sampling_ratios.get(task.0).copied().unwrap_or(1.0),
            }
        }
    }
}

/// The fixed-ratio policy a job's [`JobConfig`] asks for — the one place
/// the engine, the builders, the job service and the joins pick it.
/// Single-input jobs (`config.datasets` empty) get a
/// [`FixedCoordinator`] over the job-wide ratios; multi-input jobs get a
/// [`DatasetFixedCoordinator`] over the per-dataset ratios. The two keep
/// their own drop-selection seeds, so single-input jobs drop the same
/// maps they always have.
///
/// Rejects an invalid `config` (see [`JobConfig::validate`]) and splits
/// tagged with a dataset the config does not declare.
///
/// [`JobConfig`]: crate::engine::JobConfig
/// [`JobConfig::validate`]: crate::engine::JobConfig::validate
pub fn fixed_coordinator(
    config: &crate::engine::JobConfig,
    splits: &[SplitMeta],
) -> crate::Result<Box<dyn Coordinator>> {
    config.validate()?;
    if config.datasets.is_empty() {
        Ok(Box::new(FixedCoordinator::new(
            splits.len(),
            config.sampling_ratio,
            config.drop_ratio,
            config.seed,
        )))
    } else {
        Ok(Box::new(DatasetFixedCoordinator::new(
            splits,
            &config.datasets,
            config.seed,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DatasetId;

    #[test]
    fn job_control_drop_flag() {
        let c = JobControl::new(2);
        assert!(!c.drop_requested());
        c.request_drop_remaining();
        assert!(c.drop_requested());
        c.request_drop_remaining(); // idempotent
        assert!(c.drop_requested());
    }

    #[test]
    fn worst_bound_requires_all_reducers() {
        let c = JobControl::new(2);
        assert_eq!(c.worst_bound_across_reducers(1), None);
        c.report_bound(
            0,
            BoundReport {
                maps_processed: 5,
                worst_relative_bound: 0.02,
            },
        );
        assert_eq!(c.worst_bound_across_reducers(1), None);
        c.report_bound(
            1,
            BoundReport {
                maps_processed: 4,
                worst_relative_bound: 0.05,
            },
        );
        assert_eq!(c.worst_bound_across_reducers(1), Some(0.05));
        // min_maps gate.
        assert_eq!(c.worst_bound_across_reducers(5), None);
    }

    #[test]
    fn worst_bound_with_zero_reducers_is_none() {
        // A vacuous `Some(0.0)` here would tell the target-error planner
        // the job is already perfectly bounded and stop it instantly.
        let c = JobControl::new(0);
        assert_eq!(c.worst_bound_across_reducers(0), None);
        assert_eq!(c.worst_bound_across_reducers(3), None);
    }

    #[test]
    fn worst_bound_min_maps_zero_accepts_fresh_reports() {
        let c = JobControl::new(1);
        c.report_bound(
            0,
            BoundReport {
                maps_processed: 0,
                worst_relative_bound: f64::INFINITY,
            },
        );
        // min_maps = 0: a report from a reducer that has seen nothing
        // still counts, and its (infinite) bound dominates.
        assert_eq!(c.worst_bound_across_reducers(0), Some(f64::INFINITY));
        // But requiring at least one processed map gates it out again.
        assert_eq!(c.worst_bound_across_reducers(1), None);
    }

    #[test]
    fn worst_bound_takes_max_not_last() {
        let c = JobControl::new(3);
        for (p, b) in [(0, 0.01), (1, 0.20), (2, 0.05)] {
            c.report_bound(
                p,
                BoundReport {
                    maps_processed: 10,
                    worst_relative_bound: b,
                },
            );
        }
        assert_eq!(c.worst_bound_across_reducers(1), Some(0.20));
    }

    #[test]
    fn report_to_out_of_range_partition_is_ignored() {
        let c = JobControl::new(1);
        c.report_bound(
            5,
            BoundReport {
                maps_processed: 1,
                worst_relative_bound: 0.1,
            },
        );
        assert_eq!(c.bound_reports(), vec![None]);
    }

    #[test]
    fn fixed_coordinator_drops_exact_fraction() {
        let mut c = FixedCoordinator::new(100, 0.5, 0.25, 42);
        assert_eq!(c.planned_drops(), 25);
        let meta = SplitMeta {
            index: 0,
            dataset: DatasetId::default(),
            records: 1,
            bytes: 0,
            locations: vec![],
        };
        let mut drops = 0;
        for t in 0..100 {
            match c.directive(TaskId(t), &meta) {
                MapDirective::Drop => drops += 1,
                MapDirective::Run { sampling_ratio } => {
                    assert!((sampling_ratio - 0.5).abs() < 1e-12)
                }
            }
        }
        assert_eq!(drops, 25);
    }

    #[test]
    fn fixed_coordinator_zero_drop() {
        let c = FixedCoordinator::new(10, 1.0, 0.0, 1);
        assert_eq!(c.planned_drops(), 0);
    }

    #[test]
    #[should_panic]
    fn fixed_coordinator_rejects_full_drop() {
        FixedCoordinator::new(10, 1.0, 1.0, 1);
    }

    fn tagged_splits(counts: &[usize]) -> Vec<SplitMeta> {
        let mut splits = Vec::new();
        for (d, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                splits.push(SplitMeta {
                    index: splits.len(),
                    dataset: DatasetId(d as u32),
                    records: 10,
                    bytes: 0,
                    locations: vec![],
                });
            }
        }
        splits
    }

    #[test]
    fn dataset_coordinator_drops_within_each_dataset() {
        let splits = tagged_splits(&[40, 10]);
        let ratios = [
            DatasetRatios {
                sampling_ratio: 0.25,
                drop_ratio: 0.5,
            },
            DatasetRatios::precise(),
        ];
        let mut c = DatasetFixedCoordinator::new(&splits, &ratios, 7).unwrap();
        assert_eq!(c.planned_drops(), 20, "half of dataset 0 only");
        let mut drops_by_dataset = [0usize; 2];
        for s in &splits {
            match c.directive(TaskId(s.index), s) {
                MapDirective::Drop => drops_by_dataset[s.dataset.0 as usize] += 1,
                MapDirective::Run { sampling_ratio } => {
                    let expect = ratios[s.dataset.0 as usize].sampling_ratio;
                    assert!(
                        (sampling_ratio - expect).abs() < 1e-12,
                        "task {} ({}) ran at {sampling_ratio}, expected {expect}",
                        s.index,
                        s.dataset
                    );
                }
            }
        }
        assert_eq!(drops_by_dataset, [20, 0], "the precise dataset never drops");
    }

    #[test]
    fn dataset_coordinator_is_deterministic_per_seed() {
        let splits = tagged_splits(&[30, 30]);
        let ratios = [
            DatasetRatios {
                sampling_ratio: 0.5,
                drop_ratio: 0.2,
            },
            DatasetRatios {
                sampling_ratio: 0.5,
                drop_ratio: 0.2,
            },
        ];
        let pick = |seed| {
            let mut c = DatasetFixedCoordinator::new(&splits, &ratios, seed).unwrap();
            splits
                .iter()
                .map(|s| matches!(c.directive(TaskId(s.index), s), MapDirective::Drop))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(3), pick(3));
        assert_ne!(pick(3), pick(4), "different seed, different drop set");
        // Same ratios, but each dataset draws from its own stream: the
        // drop pattern of dataset 0 differs from dataset 1's.
        let drops = pick(3);
        assert_ne!(drops[..30], drops[30..]);
    }

    #[test]
    fn dataset_coordinator_rejects_malformed_tables() {
        let splits = tagged_splits(&[4, 4]);
        // Split tagged beyond the declared dataset table.
        assert!(matches!(
            DatasetFixedCoordinator::new(&splits, &[DatasetRatios::precise()], 0),
            Err(RuntimeError::InvalidJob { .. })
        ));
        // Out-of-range ratios.
        for bad in [
            DatasetRatios {
                sampling_ratio: 0.0,
                drop_ratio: 0.0,
            },
            DatasetRatios {
                sampling_ratio: 1.0,
                drop_ratio: 1.0,
            },
        ] {
            assert!(DatasetFixedCoordinator::new(&splits, &[bad, bad], 0).is_err());
        }
    }
}
