//! Summary statistics the report is built from: latency percentiles,
//! accuracy against a precise reference, metric naming and the
//! self-time ledger.

use std::collections::BTreeMap;

use approxhadoop_stats::Interval;

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `values`; `NaN` when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank `q`-quantile (`q` in `(0, 1]`) of `values`; `NaN` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The percentile levels the report may quote, highest first.
pub const TAIL_LEVELS: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest level of [`TAIL_LEVELS`] with at least `beyond` samples
/// strictly above its nearest-rank value, with that value. `None` when
/// not even the median has that many samples above it.
pub fn tail_percentile(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    TAIL_LEVELS.iter().find_map(|&q| {
        let v = quantile(values, q);
        let above = values.iter().filter(|&&x| x > v).count();
        (above >= beyond).then_some((q, v))
    })
}

/// Whether `name` is a valid metric name: one or more of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit, at most 64 long.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The `k` keys with the largest precise totals, heaviest first (ties
/// broken by key).
pub fn heaviest_keys<K: Ord + Clone>(truth: &BTreeMap<K, f64>, k: usize) -> Vec<K> {
    let mut keys: Vec<(&K, f64)> = truth.iter().map(|(k, v)| (k, *v)).collect();
    keys.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    keys.into_iter().take(k).map(|(k, _)| k.clone()).collect()
}

/// Accuracy of approximate answers over a fixed key set, pooled over
/// every answer added.
#[derive(Debug, Default, Clone)]
pub struct Accuracy {
    /// Relative 95% half-width of each (answer, key) interval present.
    pub rel_bounds: Vec<f64>,
    /// `|τ̂ − τ| / τ` of each (answer, key); a missing key counts as 1.
    pub rel_errors: Vec<f64>,
    /// (answer, key) intervals that contain the truth.
    pub covered: u64,
    /// (answer, key) pairs judged.
    pub judged: u64,
    /// Intervals with a non-finite estimate or half-width.
    pub non_finite: u64,
}

impl Accuracy {
    /// Judges one answer against `truth` over `keys`. Returns whether
    /// every interval over `keys` that the answer holds is finite.
    pub fn add<K: Ord>(
        &mut self,
        answer: &BTreeMap<K, Interval>,
        truth: &BTreeMap<K, f64>,
        keys: &[K],
    ) -> bool {
        let mut finite = true;
        for key in keys {
            let tau = truth[key];
            self.judged += 1;
            match answer.get(key) {
                Some(iv) => {
                    if !(iv.estimate.is_finite() && iv.half_width.is_finite()) {
                        self.non_finite += 1;
                        finite = false;
                    }
                    self.rel_bounds.push(iv.half_width / tau.abs());
                    self.rel_errors.push((iv.estimate - tau).abs() / tau.abs());
                    if iv.contains(tau) {
                        self.covered += 1;
                    }
                }
                None => self.rel_errors.push(1.0),
            }
        }
        finite
    }

    /// Share of judged (answer, key) intervals containing the truth.
    pub fn coverage(&self) -> f64 {
        if self.judged == 0 {
            f64::NAN
        } else {
            self.covered as f64 / self.judged as f64
        }
    }

    /// Median relative half-width.
    pub fn rel_bound_p50(&self) -> f64 {
        median(&self.rel_bounds)
    }

    /// Worst relative half-width.
    pub fn rel_bound_max(&self) -> f64 {
        self.rel_bounds.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Median relative error.
    pub fn rel_error_p50(&self) -> f64 {
        median(&self.rel_errors)
    }
}

/// Whether two answers are identical bit for bit: same keys, and every
/// interval's estimate, half-width and confidence with equal bits.
pub fn identical<K: PartialEq>(a: &[(K, Interval)], b: &[(K, Interval)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, ia), (kb, ib))| {
            ka == kb
                && ia.estimate.to_bits() == ib.estimate.to_bits()
                && ia.half_width.to_bits() == ib.half_width.to_bits()
                && ia.confidence.to_bits() == ib.confidence.to_bits()
        })
}

/// `(time, self time)` of nested layers: each layer's self time is its
/// total minus the totals of its children, never below zero.
pub fn self_times(layers: &[(&'static str, f64, &[&'static str])]) -> BTreeMap<&'static str, f64> {
    let totals: BTreeMap<&str, f64> = layers.iter().map(|(n, t, _)| (*n, *t)).collect();
    layers
        .iter()
        .map(|(name, total, children)| {
            let inner: f64 = children
                .iter()
                .map(|c| totals.get(c).copied().unwrap_or(0.0))
                .sum();
            (*name, (total - inner).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 = 90 leaves exactly 10 above; p95 only 5.
        assert_eq!(tail_percentile(&values, 10), Some((0.9, 90.0)));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 10), Some((0.99, 990.0)));
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 10), Some((0.5, 10.0)));
        let values: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 10), None);
    }

    #[test]
    fn tail_percentile_counts_ties_as_not_beyond() {
        let mut values = vec![1.0; 95];
        values.extend([2.0; 5]);
        // Everything at or below the median ties with it: only 5 beyond.
        assert_eq!(tail_percentile(&values, 10), None);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "job_s.p50",
            "rel_bound.max",
            "ipc.encode_ns_per_pair",
            "a-1",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "job s", "rate/s", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn accuracy_on_a_hand_built_answer() {
        let truth: BTreeMap<u64, f64> = [(1, 100.0), (2, 50.0), (3, 10.0), (4, 1.0)].into();
        let keys = heaviest_keys(&truth, 3);
        assert_eq!(keys, vec![1, 2, 3]);
        // Key 1 covered (error 5%, bound 10%), key 2 missed (error 20%,
        // bound 10%), key 3 missing: error 1, not covered, no bound.
        let answer: BTreeMap<u64, Interval> = [
            (1, Interval::new(105.0, 10.0, 0.95)),
            (2, Interval::new(60.0, 5.0, 0.95)),
            (4, Interval::new(1.0, 0.0, 0.95)),
        ]
        .into();
        let mut acc = Accuracy::default();
        assert!(acc.add(&answer, &truth, &keys));
        assert_eq!(acc.judged, 3);
        assert_eq!(acc.covered, 1);
        assert!((acc.coverage() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(acc.rel_errors, vec![0.05, 0.2, 1.0]);
        assert_eq!(acc.rel_error_p50(), 0.2);
        assert_eq!(acc.rel_bounds, vec![0.1, 0.1]);
        assert_eq!(acc.rel_bound_max(), 0.1);
    }

    #[test]
    fn accuracy_flags_non_finite_intervals() {
        let truth: BTreeMap<u64, f64> = [(1, 10.0)].into();
        let answer: BTreeMap<u64, Interval> =
            [(1, Interval::new(10.0, f64::INFINITY, 0.95))].into();
        let mut acc = Accuracy::default();
        assert!(!acc.add(&answer, &truth, &[1]));
        assert_eq!(acc.non_finite, 1);
    }

    #[test]
    fn identical_compares_bits() {
        let a = vec![(1u64, Interval::new(1.0, 0.5, 0.95))];
        let b = vec![(1u64, Interval::new(1.0 + f64::EPSILON, 0.5, 0.95))];
        assert!(identical(&a, &a.clone()));
        assert!(!identical(&a, &b));
        assert!(!identical(&a, &[]));
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = self_times(&[
            ("engine.task", 10.0, &["input.read", "mapper.map"]),
            ("input.read", 4.0, &["dfs.read"]),
            ("dfs.read", 1.0, &[]),
            ("mapper.map", 3.0, &[]),
        ]);
        assert_eq!(t["engine.task"], 3.0);
        assert_eq!(t["input.read"], 3.0);
        assert_eq!(t["dfs.read"], 1.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(min(&[]).is_nan());
    }
}
