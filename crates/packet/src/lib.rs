//! DumbNet packet formats and control-plane messages.
//!
//! Three layers live here:
//!
//! * [`ethernet`] — plain Ethernet II framing with an FCS (CRC-32), which
//!   DumbNet preserves untouched (§5.1).
//! * [`header`] — the DumbNet header: EtherType `0x9800`, then the routing
//!   tags terminated by ø, then the inner payload. Includes the switch's
//!   pop-tag operation and the destination host's ø-strip validation.
//! * [`mpls`] — the commodity-switch deployment encoding: the same path
//!   expressed as an MPLS label stack (EtherType `0x8847`), one label per
//!   tag, S-bit on the last entry (§5.3).
//!
//! On top of the wire formats, [`control`] defines the typed control-plane
//! messages (probes, failure notifications, path queries, replication
//! traffic) and [`packet`] the structured [`packet::Packet`] the
//! emulator moves around — structurally identical to the wire frame but
//! kept parsed for speed, with codecs proving the equivalence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod ethernet;
pub mod header;
pub mod mpls;
pub mod packet;

pub use control::{ControlMessage, PatchBatch, PatchEntry};
pub use ethernet::{crc32, EthernetFrame, ETHERTYPE_DUMBNET, ETHERTYPE_IPV4, ETHERTYPE_MPLS};
pub use header::DumbNetFrame;
pub use mpls::{LabelStack, MplsLabel};
pub use packet::{Packet, Payload};
