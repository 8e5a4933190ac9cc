//! Summary statistics for latency samples and failure accounting.

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`),
/// the same rule as NumPy's default; `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Quantile `q` of unsorted values; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Replaces each `(class, value)` sample by the smallest value of its
/// class, keeping the samples' order.
///
/// Samples of one class time the same work. On a shared host,
/// interference only ever adds time, so the fastest sample of a class
/// is the steadiest estimate of that work's cost (Chen and Revels,
/// "Robust benchmarking in noisy environments", 2016); percentiles over
/// the result keep the mix of classes and drop the interference.
pub fn class_best(samples: &[(u64, f64)]) -> Vec<f64> {
    let mut best = std::collections::HashMap::new();
    for &(class, value) in samples {
        best.entry(class)
            .and_modify(|b: &mut f64| *b = b.min(value))
            .or_insert(value);
    }
    samples.iter().map(|(class, _)| best[class]).collect()
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples: those
/// ranked above `ceil(pct/100 · n)`.
pub fn beyond(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank)
}

/// Percentiles a report may use, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A latency summary: the median, the highest percentile of the ladder
/// with at least `min_beyond` samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// The median (NaN when there are no samples).
    pub p50: f64,
    /// The highest supported percentile and its value, if any.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarizes `values` (any order).
    pub fn of(values: &[f64], min_beyond: usize) -> Latency {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = LADDER
            .iter()
            .find(|&&p| beyond(v.len(), p) >= min_beyond)
            .map(|&p| {
                (
                    p,
                    quantile(&v, p / 100.0).expect("non-empty: samples lie beyond"),
                )
            });
        Latency {
            count: v.len(),
            p50: quantile(&v, 0.5).unwrap_or(f64::NAN),
            tail,
        }
    }

    /// Whether the `pct`-th percentile has at least `min_beyond` samples
    /// beyond it.
    pub fn supports(&self, pct: f64, min_beyond: usize) -> bool {
        beyond(self.count, pct) >= min_beyond
    }
}

/// Every kind of failed operation the benchmark counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Trials that panicked and were isolated (`TrialError`).
    pub trial_errors: u64,
    /// Live trials that stalled twice and were skipped.
    pub stalled: u64,
    /// Serve responses carrying a `{"kind":"error"}` line.
    pub error_lines: u64,
    /// Connections the daemon refused or dropped.
    pub refused: u64,
}

impl Failures {
    /// All failures together.
    pub fn total(&self) -> u64 {
        self.trial_errors + self.stalled + self.error_lines + self.refused
    }

    /// Failed operations over attempted ones (0 when nothing was
    /// attempted).
    pub fn frac(&self, attempted: u64) -> f64 {
        if attempted == 0 {
            0.0
        } else {
            self.total() as f64 / attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 1.0), Some(4.0));
    }

    #[test]
    fn class_best_keeps_the_mix_and_drops_slow_repeats() {
        let samples = [(1, 5.0), (2, 40.0), (1, 3.0), (2, 30.0), (1, 9.0), (7, 2.0)];
        assert_eq!(class_best(&samples), vec![3.0, 30.0, 3.0, 30.0, 3.0, 2.0]);
        // Half the samples are of class 1: the median stays in it.
        assert_eq!(percentile(&class_best(&samples), 0.5), Some(3.0));
        assert!(class_best(&[]).is_empty());
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(&v, 10);
        assert_eq!(l.count, 100);
        assert_eq!(l.p50, 50.5);
        let (p, value) = l.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((value - 90.1).abs() < 1e-9);
        assert!(l.supports(90.0, 10) && !l.supports(95.0, 10));

        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Latency::of(&big, 10).tail.unwrap().0, 99.0);

        let few = Latency::of(&[5.0; 15], 10);
        assert_eq!(few.tail, None);
        assert!(Latency::of(&[], 10).p50.is_nan());
    }

    #[test]
    fn failed_frac_counts_every_failure_kind() {
        let f = Failures {
            trial_errors: 1,
            stalled: 2,
            error_lines: 3,
            refused: 4,
        };
        assert_eq!(f.total(), 10);
        assert_eq!(f.frac(40), 0.25);
        assert_eq!(Failures::default().frac(0), 0.0);
        assert_eq!(Failures::default().frac(7), 0.0);
    }
}
