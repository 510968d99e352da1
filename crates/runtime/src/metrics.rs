//! Per-task and per-job execution metrics.
//!
//! The target-error controller fits the paper's map-task timing model
//! `t_map(M, m) = t0 + M·t_r + m·t_p` (Eq. 5) from [`MapStats`] records,
//! so the engine reports both the read time (scales with `M`) and the
//! total duration per task.

use crate::input::DatasetId;
use crate::types::TaskId;

/// Statistics of one *completed* map task attempt.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct MapStats {
    /// The task.
    pub task: TaskId,
    /// The dataset the task's split belongs to.
    pub dataset: DatasetId,
    /// `M_i` — total records in the task's block.
    pub total_records: u64,
    /// `m_i` — records actually processed after sampling.
    pub sampled_records: u64,
    /// Intermediate pairs emitted by the map function (pre-combining).
    pub emitted: u64,
    /// Intermediate pairs actually shipped to reducers (post-combining;
    /// equals `emitted` when no combiner is active).
    pub shuffled: u64,
    /// Wall-clock duration of the attempt in seconds, from opening the
    /// split until its outputs are handed off (shipped to the reducer
    /// channels, or drained into `Output` frames by a worker process) —
    /// the same span on every backend, and the whole map task that the
    /// Eq. 5 time model charges.
    pub duration_secs: f64,
    /// Portion spent reading/parsing the block in seconds.
    pub read_secs: f64,
}

/// Terminal state of a map task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum TaskOutcome {
    /// Ran to completion and shipped output.
    Completed,
    /// Never launched (dropped before execution).
    Dropped,
    /// Launched and killed mid-flight (counts as dropped for sampling).
    Killed,
    /// Failed every attempt (I/O error or panic) — and, under a
    /// degrade-to-drop policy, was absorbed into the sampling design as
    /// a dropped cluster. Never conflated with [`TaskOutcome::Killed`],
    /// which marks *intentional* kills.
    Failed,
}

/// The terminal state of one specific map task, recorded so exported
/// snapshots show *which* maps were dropped or killed, not just counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct TaskOutcomeRecord {
    /// The task.
    pub task: TaskId,
    /// How it ended.
    pub outcome: TaskOutcome,
}

/// One point of the per-reducer error-bound convergence series: a
/// reducer's bound estimate after some number of maps were folded in.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BoundPoint {
    /// Seconds since the job started when the bound was recorded.
    pub t_secs: f64,
    /// Reduce partition that reported.
    pub reducer: usize,
    /// Maps folded into the estimate at that point.
    pub maps_processed: usize,
    /// The reducer's worst relative error bound (∞ serializes as null).
    pub relative_bound: f64,
}

/// Cluster population of one dataset of a (possibly multi-input) job:
/// the `N_d`/`n_d` bookkeeping that keeps Eq. 1–3 intervals and
/// degrade-to-drop correct *per dataset* when a job reads more than one
/// input. Single-input jobs report exactly one entry (dataset 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct DatasetMetrics {
    /// The dataset.
    pub dataset: DatasetId,
    /// `N_d` — total map tasks (= splits) of this dataset.
    pub total_maps: usize,
    /// `n_d` — maps of this dataset that completed and shipped output.
    pub executed_maps: usize,
    /// Maps of this dataset that did not complete (dropped before
    /// launch, killed mid-flight, or degraded to drop after retries).
    pub dropped_maps: usize,
}

/// Aggregate metrics of one job execution.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct JobMetrics {
    /// Total map tasks (= input splits).
    pub total_maps: usize,
    /// Maps that completed and shipped output.
    pub executed_maps: usize,
    /// Maps dropped before launch.
    pub dropped_maps: usize,
    /// Maps killed while running.
    pub killed_maps: usize,
    /// Failed map *attempts* (each failed attempt counts, including ones
    /// whose task later succeeded on retry).
    pub failed_maps: usize,
    /// Retry attempts scheduled after failures.
    pub retried_maps: usize,
    /// Tasks that exhausted their retries and were degraded to dropped
    /// clusters instead of aborting the job.
    pub degraded_to_drop: usize,
    /// Speculative duplicate attempts launched.
    pub speculative_attempts: usize,
    /// Maps scheduled on a server holding a replica of their block.
    pub local_maps: usize,
    /// Sum of `M_i` over executed maps.
    pub total_records: u64,
    /// Sum of `m_i` over executed maps.
    pub sampled_records: u64,
    /// Total pairs emitted by map functions (pre-combining).
    pub emitted_pairs: u64,
    /// Total pairs shipped through the shuffle (post-combining).
    pub shuffled_pairs: u64,
    /// Wall-clock job duration in seconds.
    pub wall_secs: f64,
    /// Whether the job hit its deadline and finished by dropping the
    /// remaining maps (approximate-on-deadline completion).
    pub deadline_hit: bool,
    /// Per-dataset cluster populations (one entry per dataset, in
    /// [`DatasetId`] order).
    pub datasets: Vec<DatasetMetrics>,
    /// Per-attempt statistics of completed maps.
    pub map_stats: Vec<MapStats>,
    /// Terminal state of every map task (task id → outcome).
    pub task_outcomes: Vec<TaskOutcomeRecord>,
    /// Per-reducer error-bound convergence over the job's lifetime.
    pub bound_series: Vec<BoundPoint>,
}

impl JobMetrics {
    /// Fraction of maps that did **not** complete (dropped + killed +
    /// degraded to drop).
    pub fn drop_fraction(&self) -> f64 {
        if self.total_maps == 0 {
            0.0
        } else {
            (self.dropped_maps + self.killed_maps + self.degraded_to_drop) as f64
                / self.total_maps as f64
        }
    }

    /// Effective within-block sampling ratio over executed maps
    /// (`Σm_i / ΣM_i`); `1.0` if nothing executed.
    pub fn effective_sampling_ratio(&self) -> f64 {
        if self.total_records == 0 {
            1.0
        } else {
            self.sampled_records as f64 / self.total_records as f64
        }
    }

    /// Shuffle reduction factor achieved by map-side combining
    /// (`emitted_pairs / shuffled_pairs`); `1.0` when nothing shuffled.
    pub fn combine_factor(&self) -> f64 {
        if self.shuffled_pairs == 0 {
            1.0
        } else {
            self.emitted_pairs as f64 / self.shuffled_pairs as f64
        }
    }

    /// Mean duration of completed map attempts in seconds.
    pub fn mean_map_secs(&self) -> f64 {
        if self.map_stats.is_empty() {
            0.0
        } else {
            self.map_stats.iter().map(|s| s.duration_secs).sum::<f64>()
                / self.map_stats.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_ratios() {
        let m = JobMetrics {
            total_maps: 10,
            executed_maps: 6,
            dropped_maps: 3,
            killed_maps: 1,
            total_records: 1000,
            sampled_records: 100,
            ..Default::default()
        };
        assert!((m.drop_fraction() - 0.4).abs() < 1e-12);
        assert!((m.effective_sampling_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn combine_factor_reports_reduction() {
        let m = JobMetrics {
            emitted_pairs: 1000,
            shuffled_pairs: 40,
            ..Default::default()
        };
        assert!((m.combine_factor() - 25.0).abs() < 1e-12);
        assert_eq!(JobMetrics::default().combine_factor(), 1.0);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = JobMetrics::default();
        assert_eq!(m.drop_fraction(), 0.0);
        assert_eq!(m.effective_sampling_ratio(), 1.0);
        assert_eq!(m.mean_map_secs(), 0.0);
    }

    #[test]
    fn metrics_serialize_to_json() {
        let m = JobMetrics {
            total_maps: 2,
            executed_maps: 1,
            wall_secs: 0.25,
            map_stats: vec![MapStats {
                task: TaskId(1),
                dataset: DatasetId::default(),
                total_records: 10,
                sampled_records: 5,
                emitted: 3,
                shuffled: 3,
                duration_secs: 0.1,
                read_secs: 0.05,
            }],
            ..Default::default()
        };
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"total_maps\":2"), "json: {json}");
        assert!(json.contains("\"deadline_hit\":false"), "json: {json}");
        // TaskId is a newtype: serializes transparently as its index.
        assert!(json.contains("\"task\":1"), "json: {json}");
    }

    #[test]
    fn mean_map_secs() {
        let mk = |d: f64| MapStats {
            task: TaskId(0),
            dataset: DatasetId::default(),
            total_records: 1,
            sampled_records: 1,
            emitted: 0,
            shuffled: 0,
            duration_secs: d,
            read_secs: 0.0,
        };
        let m = JobMetrics {
            map_stats: vec![mk(1.0), mk(3.0)],
            ..Default::default()
        };
        assert_eq!(m.mean_map_secs(), 2.0);
    }
}
