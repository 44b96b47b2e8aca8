//! Link bandwidth and serialization-delay arithmetic.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Link or port bandwidth in bits per second.
///
/// # Examples
///
/// ```
/// use dumbnet_types::Bandwidth;
///
/// let bw = Bandwidth::gbps(10);
/// // A 1500-byte frame serializes in 1.2 µs at 10 Gbps.
/// assert_eq!(bw.serialization_delay(1500).nanos(), 1_200);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Zero bandwidth (used to model administratively-down ports).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Constructs from bits per second.
    #[must_use]
    pub fn bps(b: u64) -> Bandwidth {
        Bandwidth(b)
    }

    /// Constructs from megabits per second.
    #[must_use]
    pub fn mbps(m: u64) -> Bandwidth {
        Bandwidth(m.saturating_mul(1_000_000))
    }

    /// Constructs from gigabits per second.
    #[must_use]
    pub fn gbps(g: u64) -> Bandwidth {
        Bandwidth(g.saturating_mul(1_000_000_000))
    }

    /// Bits per second.
    #[must_use]
    pub fn bits_per_sec(self) -> u64 {
        self.0
    }

    /// Gigabits per second as a float (for reporting only).
    #[must_use]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto a link of this bandwidth.
    ///
    /// Returns the maximum representable duration for zero bandwidth so
    /// that "down" links naturally never deliver.
    #[must_use]
    pub fn serialization_delay(self, bytes: usize) -> SimDuration {
        if self.0 == 0 {
            return SimDuration(u64::MAX);
        }
        // ns = bits / (bits/s) * 1e9. Real frames stay far below the
        // u64 overflow bound (~2.3 GB), and that division runs once per
        // transmit — keep it native. Larger requests take the slow
        // u128 path instead of overflowing.
        if let Some(scaled) = (bytes as u64).checked_mul(8_000_000_000) {
            return SimDuration(scaled / self.0);
        }
        let ns = bytes as u128 * 8_000_000_000 / u128::from(self.0);
        SimDuration(u64::try_from(ns).unwrap_or(u64::MAX))
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_matches_hand_math() {
        // 1500 B at 1 Gbps = 12 µs.
        assert_eq!(Bandwidth::gbps(1).serialization_delay(1500).nanos(), 12_000);
        // 64 B at 10 Gbps = 51.2 ns.
        assert_eq!(Bandwidth::gbps(10).serialization_delay(64).nanos(), 51);
    }

    #[test]
    fn zero_bandwidth_never_delivers() {
        assert_eq!(Bandwidth::ZERO.serialization_delay(1).nanos(), u64::MAX);
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::gbps(10).to_string(), "10.00Gbps");
        assert_eq!(Bandwidth::mbps(500).to_string(), "500.00Mbps");
        assert_eq!(Bandwidth::bps(42).to_string(), "42bps");
    }
}
