//! Empirical distributions.

use dumbnet_types::SimDuration;

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples (NaNs are dropped).
    #[must_use]
    pub fn new<I: IntoIterator<Item = f64>>(samples: I) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted }
    }

    /// Builds a CDF of durations, in milliseconds.
    #[must_use]
    pub fn of_durations_ms<I: IntoIterator<Item = SimDuration>>(samples: I) -> Cdf {
        Cdf::new(samples.into_iter().map(|d| d.as_millis_f64()))
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (`0.0..=1.0`), by nearest-rank.
    ///
    /// Returns `None` on an empty distribution.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let ix = ((p * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[ix])
    }

    /// Fraction of samples ≤ `x`.
    #[must_use]
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let c = Cdf::new((1..=100).map(f64::from));
        assert_eq!(c.quantile(0.5), Some(50.0));
        assert_eq!(c.quantile(0.99), Some(99.0));
        assert_eq!(c.quantile(1.0), Some(100.0));
        assert_eq!(c.quantile(0.0), Some(1.0));
    }

    #[test]
    fn fractions() {
        let c = Cdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_or_below(2.5), 0.5);
        assert_eq!(c.fraction_at_or_below(0.0), 0.0);
        assert_eq!(c.fraction_at_or_below(4.0), 1.0);
    }

    #[test]
    fn empty_and_nan_handling() {
        let c = Cdf::new([f64::NAN]);
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
    }

    #[test]
    fn durations_in_millis() {
        let c = Cdf::of_durations_ms([SimDuration::from_millis(4), SimDuration::from_millis(8)]);
        assert_eq!(c.quantile(1.0), Some(8.0));
    }
}
