//! The estimator: minimum, median and quartiles of a repetition series.
//!
//! Every workload is a deterministic single-threaded program doing the
//! same work each repetition, so host noise only ever adds time. The
//! minimum is therefore the gated value; median and quartiles are kept
//! beside it so the spread stays visible (see README.md, "Estimator").

/// Summary of one series of repetition times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// `(q3 − min) / min`: how far the slow repetitions sit above the
    /// floor. Above [`UNRESOLVED_SPREAD`] the series is flagged instead
    /// of silently gated.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.min) / self.min
    }
}

/// A workload whose `(q3 − min) / min` exceeds this is `unresolved`.
pub const UNRESOLVED_SPREAD: f64 = 0.5;

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so numbers here compare
/// directly with a driver that post-processes in Python.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarises a non-empty series.
///
/// # Panics
///
/// Panics on an empty series or a NaN sample: both are benchmark bugs.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quartile(&sorted, 1),
        median: quartile(&sorted, 2),
        q3: quartile(&sorted, 3),
    }
}

/// Median of a series (0 for an empty one: "no such operation ran").
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        summarize(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8], n=4) == [2.25, 4.5, 6.75]
        let s = summarize(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]);
        assert_eq!((s.n, s.min), (8, 1.0));
        assert_eq!((s.q1, s.median, s.q3), (2.25, 4.5, 6.75));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = summarize(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[2.5]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (2.5, 2.5, 2.5, 2.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_relative_to_the_floor() {
        let s = summarize(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q3, 2.0);
        assert_eq!(s.spread(), 1.0);
        assert!(s.spread() > UNRESOLVED_SPREAD);
    }

    #[test]
    fn median_of_nothing_is_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
