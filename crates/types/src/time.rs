//! Virtual time units used by the emulator and the analytic models.
//!
//! The emulator is a deterministic discrete-event simulator; it measures
//! time as nanoseconds since simulation start in a `u64`, which covers
//! ~584 years of virtual time — far beyond any experiment.

use serde::{Deserialize, Serialize};

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Converts to seconds as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Converts to milliseconds as a float (for reporting only).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Converts to microseconds as a float (for reporting only).
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Instant `d` after `self`, saturating at the end of time.
    #[must_use]
    pub fn after(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Duration from `earlier` to `self`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, d: SimDuration) -> SimTime {
        self.after(d)
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of virtual time (nanoseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Constructs from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Constructs from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Constructs from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Constructs from fractional seconds, saturating on overflow and
    /// clamping negatives to zero.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Nanoseconds in this duration.
    #[must_use]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting only).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds as a float (for reporting only).
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating sum.
    #[must_use]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scales the duration by an integer factor, saturating.
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;

    fn add(self, other: SimDuration) -> SimDuration {
        self.saturating_add(other)
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, SimDuration::saturating_add)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(3);
        assert_eq!(t1.nanos(), 3_000_000);
        assert_eq!((t1 - t0).as_millis_f64(), 3.0);
        // Saturating subtraction never underflows.
        assert_eq!((t0 - t1), SimDuration::ZERO);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_micros(5).nanos(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).nanos(), 250_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e300).nanos(), u64::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn saturating_mul_caps() {
        let big = SimDuration(u64::MAX / 2 + 1);
        assert_eq!(big.saturating_mul(3).nanos(), u64::MAX);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&n| SimDuration::from_nanos(n))
            .sum();
        assert_eq!(total.nanos(), 6);
    }
}
