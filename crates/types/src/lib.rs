//! Core identifiers, tags, addresses and errors shared by every DumbNet
//! crate.
//!
//! DumbNet (EuroSys '18) is a data-center fabric in which switches hold no
//! forwarding state: hosts write the full path of a packet into the header
//! as a list of one-byte *routing tags*, and each switch pops the head tag
//! and forwards the packet out of that port. The vocabulary of that design
//! lives here:
//!
//! * [`Tag`] — a single routing tag (`1..=254` are output ports, `0` is the
//!   switch-ID query marker, `0xFF` is the end-of-path marker ø).
//! * [`Path`] — an ordered tag sequence describing an entire route.
//! * [`SwitchId`], [`PortNo`], [`PortId`] — switch-side identities.
//! * [`MacAddr`], [`HostId`] — host-side identities.
//! * [`SimTime`], [`SimDuration`], [`Bandwidth`] — virtual-time units used
//!   by the emulator and the analytical models.
//!
//! The crate is dependency-light on purpose: every other crate in the
//! workspace depends on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bandwidth;
pub mod error;
pub mod fasthash;
pub mod heap;
pub mod ids;
pub mod path;
pub mod tag;
pub mod time;

pub use addr::MacAddr;
pub use bandwidth::Bandwidth;
pub use error::{DumbNetError, Result};
pub use fasthash::{mix64, FastHashMap, FastHashSet};
pub use ids::{norm_edge, HostId, LinkId, PortId, PortNo, SwitchId};
pub use path::Path;
pub use tag::Tag;
pub use time::{SimDuration, SimTime};

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::{
        Bandwidth, DumbNetError, HostId, LinkId, MacAddr, Path, PortId, PortNo, Result,
        SimDuration, SimTime, SwitchId, Tag,
    };
}
