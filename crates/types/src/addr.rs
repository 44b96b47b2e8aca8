//! Layer-2 addressing.

use serde::{Deserialize, Serialize};

use crate::error::DumbNetError;

/// A 48-bit IEEE 802 MAC address.
///
/// DumbNet keeps the original Ethernet header intact (§5.1), so hosts are
/// still identified by MAC addresses; the PathTable on each host is keyed
/// by destination MAC.
///
/// # Examples
///
/// ```
/// use dumbnet_types::MacAddr;
///
/// let mac: MacAddr = "02:00:00:00:00:2a".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:00:00:00:00:2a");
/// assert!(!mac.is_broadcast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct MacAddr(pub [u8; 6]);

impl std::hash::Hash for MacAddr {
    /// Hashes the address as one 48-bit number. The derived byte-slice
    /// form puts the octets that tell emulated hosts apart — the last
    /// ones — into the *high* bits of a little-endian word, which a
    /// multiply-only hasher ([`crate::FastHashMap`]) never carries down
    /// into the bits a hash table indexes by: every
    /// [`MacAddr::for_host`] key would share one probe sequence.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let [a, b, c, d, e, f] = self.0;
        state.write_u64(u64::from_be_bytes([0, 0, a, b, c, d, e, f]));
    }
}

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Creates an address from raw octets.
    #[must_use]
    pub fn new(octets: [u8; 6]) -> MacAddr {
        MacAddr(octets)
    }

    /// Deterministically derives a locally-administered unicast address
    /// for emulated host `n`.
    ///
    /// The emulator uses this so that host IDs and MAC addresses are
    /// mutually recoverable.
    #[must_use]
    pub fn for_host(n: u64) -> MacAddr {
        let b = n.to_be_bytes();
        // Locally administered (bit 1 of first octet), unicast (bit 0
        // clear); low 40 bits carry the host number.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// Raw octets.
    #[must_use]
    pub fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` for the all-ones broadcast address.
    #[must_use]
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl std::str::FromStr for MacAddr {
    type Err = DumbNetError;

    fn from_str(s: &str) -> Result<MacAddr, DumbNetError> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| DumbNetError::AddressParse(s.to_owned()))?;
            *octet = u8::from_str_radix(part, 16)
                .map_err(|_| DumbNetError::AddressParse(s.to_owned()))?;
        }
        if parts.next().is_some() {
            return Err(DumbNetError::AddressParse(s.to_owned()));
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_macs_spread_over_both_ends_of_a_fast_hash() {
        use std::hash::BuildHasher;
        // A hash table indexes by the low bits and tags by the top
        // seven; 128 consecutive hosts must not pile up in either.
        let build = std::hash::BuildHasherDefault::<crate::fasthash::FxHasher64>::default();
        let hashes: Vec<u64> = (0..128)
            .map(|n| build.hash_one(MacAddr::for_host(n)))
            .collect();
        let distinct = |f: fn(u64) -> u64| {
            hashes
                .iter()
                .map(|&h| f(h))
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert!(
            distinct(|h| h & 127) > 64,
            "low bits: {}",
            distinct(|h| h & 127)
        );
        assert!(
            distinct(|h| h >> 57) > 32,
            "top bits: {}",
            distinct(|h| h >> 57)
        );
    }

    #[test]
    fn host_macs_are_local_unicast_and_carry_the_number() {
        for n in [0u64, 1, 27, 1_000_000, 0xFF_FFFF_FFFF] {
            let octets = MacAddr::for_host(n).octets();
            assert_eq!(octets[0], 0x02, "locally administered, unicast");
            assert_eq!(octets[1..], n.to_be_bytes()[3..]);
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let mac: MacAddr = "de:ad:be:ef:00:01".parse().unwrap();
        assert_eq!(mac.octets(), [0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01]);
        assert_eq!(mac.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:01:02".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:01".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_classification() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::for_host(1).is_broadcast());
    }
}
