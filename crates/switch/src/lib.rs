//! Switch data planes: the DumbNet switch and the baselines.
//!
//! * [`dumb`] — the paper's contribution distilled: a switch with **no
//!   forwarding table and no configuration**. It does exactly three
//!   things (§3.1): forward packets by popping the head tag, monitor its
//!   own port state (broadcasting hop-limited notifications with
//!   duplicate suppression), and answer ID queries with a factory
//!   constant.
//! * [`stp`] — the conventional baseline used in Figure 11(b): an
//!   802.1D/RSTP-style spanning-tree switch with MAC learning, flooding,
//!   BPDU exchange and re-convergence on failure.
//!
//! Both implement [`Node`](dumbnet_sim::Node) and run on the same
//! emulated wires, so recovery-time comparisons are apples to apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dumb;
pub mod stp;

pub use dumb::{DumbSwitch, DumbSwitchConfig, DumbSwitchStats};
pub use stp::StpSwitch;
