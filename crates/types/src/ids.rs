//! Identifiers for switches, ports, hosts and links.

use serde::{Deserialize, Serialize};

use crate::error::DumbNetError;

/// Unique identity of a switch.
///
/// A DumbNet switch holds no configuration, but it does carry one factory
/// constant: a unique ID it returns in response to an ID-query tag
/// (§4.1). The controller uses these IDs to tell switches apart during
/// topology discovery.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SwitchId(pub u64);

impl SwitchId {
    /// Creates a switch ID from a raw value.
    #[must_use]
    pub fn new(raw: u64) -> SwitchId {
        SwitchId(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SwitchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Normalizes an undirected switch pair to `a <= b` order — the one key
/// every edge-indexed set shares (controller quarantine and scoreboard,
/// host gray state and PathTable, chaos audits), so `(a, b)` and
/// `(b, a)` land in the same slot.
#[inline]
#[must_use]
pub fn norm_edge(a: SwitchId, b: SwitchId) -> (SwitchId, SwitchId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A validated physical port number on a switch, in `1..=254`.
///
/// Value `0` is reserved for the ID-query tag and `255` for the ø marker,
/// so a DumbNet switch can expose at most 254 ports — comfortably above
/// commodity switch radixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortNo(u8);

impl PortNo {
    /// Creates a port number, returning `None` for the reserved values
    /// `0` and `255`.
    #[must_use]
    pub const fn new(n: u8) -> Option<PortNo> {
        if n == 0 || n == 0xFF {
            None
        } else {
            Some(PortNo(n))
        }
    }

    /// Creates a port number, reporting reserved values as an error.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::InvalidPort`] for `0` and `255`.
    pub fn try_new(n: u8) -> Result<PortNo, DumbNetError> {
        PortNo::new(n).ok_or(DumbNetError::InvalidPort(n))
    }

    /// Raw port number.
    #[must_use]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Zero-based index for array storage (`port 1` → `0`).
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0) - 1
    }

    /// Inverse of [`PortNo::index`].
    #[must_use]
    pub fn from_index(ix: usize) -> Option<PortNo> {
        u8::try_from(ix + 1).ok().and_then(PortNo::new)
    }

    /// Iterates over the first `count` port numbers of a switch.
    ///
    /// # Examples
    ///
    /// ```
    /// use dumbnet_types::PortNo;
    /// let ports: Vec<u8> = PortNo::first(3).map(|p| p.get()).collect();
    /// assert_eq!(ports, [1, 2, 3]);
    /// ```
    pub fn first(count: u8) -> impl Iterator<Item = PortNo> {
        (1..=count.min(0xFE)).filter_map(PortNo::new)
    }
}

impl std::fmt::Display for PortNo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A (switch, port) pair — one end of a link, written `S3-1` in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId {
    /// The switch this port belongs to.
    pub switch: SwitchId,
    /// The port number on that switch.
    pub port: PortNo,
}

impl PortId {
    /// Creates a port identifier.
    #[must_use]
    pub fn new(switch: SwitchId, port: PortNo) -> PortId {
        PortId { switch, port }
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.switch, self.port)
    }
}

/// Identity of a host (server) attached to the fabric.
///
/// In the real system a host is identified by its MAC address; the
/// emulator additionally keys hosts with this dense numeric ID.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct HostId(pub u64);

impl HostId {
    /// Creates a host ID from a raw value.
    #[must_use]
    pub fn new(raw: u64) -> HostId {
        HostId(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// Identity of an undirected link in a topology, assigned by the graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Creates a link ID from a raw value.
    #[must_use]
    pub fn new(raw: u32) -> LinkId {
        LinkId(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// Zero-based index for array storage.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_edge_is_order_insensitive() {
        let (a, b) = (SwitchId(3), SwitchId(9));
        assert_eq!(norm_edge(a, b), (a, b));
        assert_eq!(norm_edge(b, a), (a, b));
        assert_eq!(norm_edge(a, a), (a, a));
    }

    #[test]
    fn port_no_rejects_reserved() {
        assert!(PortNo::new(0).is_none());
        assert!(PortNo::new(255).is_none());
        assert!(PortNo::new(1).is_some());
        assert!(PortNo::new(254).is_some());
        assert!(matches!(
            PortNo::try_new(0),
            Err(DumbNetError::InvalidPort(0))
        ));
    }

    #[test]
    fn port_index_round_trip() {
        for n in 1..=254u8 {
            let p = PortNo::new(n).unwrap();
            assert_eq!(PortNo::from_index(p.index()), Some(p));
        }
        assert!(PortNo::from_index(254).is_none());
    }

    #[test]
    fn display_formats_match_paper_notation() {
        let pid = PortId::new(SwitchId(3), PortNo::new(1).unwrap());
        assert_eq!(pid.to_string(), "S3-1");
        assert_eq!(HostId(4).to_string(), "H4");
    }

    #[test]
    fn first_ports_capped() {
        assert_eq!(PortNo::first(255).count(), 254);
        assert_eq!(PortNo::first(0).count(), 0);
    }
}
