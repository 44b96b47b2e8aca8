//! Routing tags — the single byte a dumb switch acts on.
//!
//! A DumbNet switch examines only the first tag of a packet. The tag space
//! is partitioned exactly as in the paper (§3.2 and §4.1):
//!
//! * `1..=254` — "forward this packet out of port *n*".
//! * `0` — switch-ID query: the switch replies with its unique ID along the
//!   remaining path instead of forwarding.
//! * `0xFF` (ø) — end-of-path marker. A host receiving a packet whose next
//!   tag is ø strips it and delivers the payload to the network stack; a
//!   switch seeing ø has been handed a packet that ran out of path and
//!   drops it.

use serde::{Deserialize, Serialize};

use crate::error::DumbNetError;
use crate::ids::PortNo;

/// A one-byte routing tag.
///
/// # Examples
///
/// ```
/// use dumbnet_types::Tag;
///
/// let t = Tag::port(3).unwrap();
/// assert_eq!(t.as_port().unwrap().get(), 3);
/// assert!(Tag::END.is_end());
/// assert!(Tag::ID_QUERY.is_id_query());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Tag(pub u8);

impl Tag {
    /// The switch-ID query marker (`0`).
    ///
    /// A switch that pops this tag replies with its unique ID along the
    /// remaining tag sequence instead of forwarding the packet.
    pub const ID_QUERY: Tag = Tag(0);

    /// The end-of-path marker ø (`0xFF`), as fixed by §3.2 of the paper.
    pub const END: Tag = Tag(0xFF);

    /// Largest tag value that denotes an output port.
    pub const MAX_PORT: u8 = 0xFE;

    /// Creates a port-forwarding tag for port `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::InvalidPort`] if `n` is `0` (reserved for ID
    /// queries) or `0xFF` (reserved for ø).
    pub fn port(n: u8) -> Result<Tag, DumbNetError> {
        if n == 0 || n == 0xFF {
            Err(DumbNetError::InvalidPort(n))
        } else {
            Ok(Tag(n))
        }
    }

    /// Creates a tag from a validated [`PortNo`].
    #[must_use]
    pub fn from_port(p: PortNo) -> Tag {
        Tag(p.get())
    }

    /// Returns `true` if this is the switch-ID query marker.
    #[must_use]
    pub fn is_id_query(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this is the end-of-path marker ø.
    #[must_use]
    pub fn is_end(self) -> bool {
        self.0 == 0xFF
    }

    /// Interprets the tag as an output port, if it is one.
    #[must_use]
    pub fn as_port(self) -> Option<PortNo> {
        PortNo::new(self.0)
    }

    /// Raw byte value of the tag.
    #[must_use]
    pub fn byte(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_end() {
            write!(f, "ø")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<PortNo> for Tag {
    fn from(p: PortNo) -> Tag {
        Tag::from_port(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_tags_round_trip() {
        for n in 1..=0xFEu8 {
            let t = Tag::port(n).unwrap();
            assert!(!t.is_end());
            assert!(!t.is_id_query());
            assert_eq!(t.as_port().unwrap().get(), n);
        }
    }

    #[test]
    fn reserved_values_rejected_as_ports() {
        assert!(Tag::port(0).is_err());
        assert!(Tag::port(0xFF).is_err());
    }

    #[test]
    fn markers_classify() {
        assert!(Tag::END.is_end());
        assert_eq!(Tag::END.as_port(), None);
        assert!(Tag::ID_QUERY.is_id_query());
        assert_eq!(Tag::ID_QUERY.as_port(), None);
    }

    #[test]
    fn display_uses_phi_for_end() {
        assert_eq!(Tag::END.to_string(), "ø");
        assert_eq!(Tag(7).to_string(), "7");
    }
}
