//! Error types shared across the workspace.

use serde::{Deserialize, Serialize};

/// Convenient result alias for fallible DumbNet operations.
pub type Result<T, E = DumbNetError> = std::result::Result<T, E>;

/// Errors produced by the DumbNet crates.
///
/// The enum is deliberately flat: it is shared across the packet codecs,
/// topology algorithms, host agent and controller, and a flat enum keeps
/// cross-crate error plumbing simple. Variants carry enough context to
/// identify the offending entity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DumbNetError {
    /// A port number outside `1..=254` was used where a physical port was
    /// required.
    InvalidPort(u8),
    /// A tag value that may not appear inside a path (the ø marker).
    InvalidTagInPath(u8),
    /// A path exceeded [`crate::Path::MAX_LEN`] tags.
    PathTooLong(usize),
    /// A wire tag sequence had no ø terminator.
    MissingEndMarker,
    /// A frame was too short or otherwise malformed.
    MalformedFrame(String),
    /// A frame carried an unexpected EtherType.
    WrongEtherType(u16),
    /// A textual address failed to parse.
    AddressParse(String),
    /// A referenced switch does not exist in the topology.
    UnknownSwitch(u64),
    /// A referenced host does not exist in the topology.
    UnknownHost(u64),
    /// A referenced link does not exist in the topology.
    UnknownLink(u32),
    /// A port that is already wired was connected again.
    PortInUse(String),
    /// No route could be found between the requested endpoints.
    NoRoute {
        /// Source host.
        src: u64,
        /// Destination host.
        dst: u64,
    },
    /// A route failed verification against the topology or policy.
    PathRejected(String),
    /// The topology is inconsistent with an operation's expectations.
    TopologyInvariant(String),
    /// A simulation entity was addressed that does not exist.
    UnknownNode(String),
    /// The controller (or a quorum of replicas) is unreachable.
    ControllerUnavailable,
    /// An operation needed quorum agreement that was not reached.
    QuorumLost {
        /// Acknowledgements received.
        acks: usize,
        /// Acknowledgements required.
        needed: usize,
    },
    /// A config struct's `validate` rejected a field.
    Config(String),
}

impl DumbNetError {
    /// The shape every config `validate` rule takes: `Ok` when the rule
    /// `holds`, else [`DumbNetError::Config`] reading
    /// `"<field> must be <rule>"`.
    ///
    /// # Errors
    ///
    /// Returns the `Config` error when `holds` is false.
    pub fn config_rule(holds: bool, field: &str, rule: &str) -> Result<()> {
        if holds {
            Ok(())
        } else {
            Err(DumbNetError::Config(format!("{field} must be {rule}")))
        }
    }
}

impl std::fmt::Display for DumbNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumbNetError::InvalidPort(p) => write!(f, "invalid port number {p} (must be 1..=254)"),
            DumbNetError::InvalidTagInPath(t) => {
                write!(f, "tag {t:#04x} may not appear inside a path")
            }
            DumbNetError::PathTooLong(n) => write!(f, "path of {n} tags exceeds the maximum"),
            DumbNetError::MissingEndMarker => write!(f, "tag sequence missing ø terminator"),
            DumbNetError::MalformedFrame(why) => write!(f, "malformed frame: {why}"),
            DumbNetError::WrongEtherType(t) => write!(f, "unexpected EtherType {t:#06x}"),
            DumbNetError::AddressParse(s) => write!(f, "cannot parse address {s:?}"),
            DumbNetError::UnknownSwitch(id) => write!(f, "unknown switch S{id}"),
            DumbNetError::UnknownHost(id) => write!(f, "unknown host H{id}"),
            DumbNetError::UnknownLink(id) => write!(f, "unknown link L{id}"),
            DumbNetError::PortInUse(p) => write!(f, "port {p} already wired"),
            DumbNetError::NoRoute { src, dst } => write!(f, "no route from H{src} to H{dst}"),
            DumbNetError::PathRejected(why) => write!(f, "path rejected: {why}"),
            DumbNetError::TopologyInvariant(why) => {
                write!(f, "topology invariant violated: {why}")
            }
            DumbNetError::UnknownNode(n) => write!(f, "unknown simulation node {n}"),
            DumbNetError::ControllerUnavailable => write!(f, "controller unavailable"),
            DumbNetError::QuorumLost { acks, needed } => {
                write!(f, "quorum lost ({acks}/{needed} acks)")
            }
            DumbNetError::Config(why) => write!(f, "configuration error: {why}"),
        }
    }
}

impl std::error::Error for DumbNetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DumbNetError::NoRoute { src: 1, dst: 2 };
        assert_eq!(e.to_string(), "no route from H1 to H2");
        let e = DumbNetError::QuorumLost { acks: 1, needed: 2 };
        assert!(e.to_string().contains("1/2"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: std::error::Error>(_e: E) {}
        takes_error(DumbNetError::MissingEndMarker);
    }
}
