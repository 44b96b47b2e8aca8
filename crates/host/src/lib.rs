//! The DumbNet host agent.
//!
//! "The host agent handles most logics of DumbNet" (§5.2). This crate
//! contains:
//!
//! * [`pathtable`] — the PathTable: the per-destination cache of k tag
//!   paths plus a backup path, with per-flow path binding and hard
//!   invalidation on link failure. The hot-path structure of Table 2's
//!   "PathTable Lookup".
//! * [`topocache`] — the TopoCache: path graphs received from the
//!   controller, the down-edge set, memoized k-shortest-path extraction
//!   inside one graph (with held edges masked too, on demand), and the
//!   tags of bounce walks.
//! * [`failure`] — the host's decisions as pure cores, stepped without
//!   a simulator: [`PatchAcceptor`] (term fence, monotone epochs,
//!   whole-epoch stage-2 assembly, and the table version, which only an
//!   applied epoch moves), [`GrayDetector`] (bounce-walk
//!   ledger and loss rates, 007's per-edge vote, soft-state quarantine)
//!   and [`RequestRetry`] (parked misses, path requests and their
//!   retry), with the [`failure::Effect`]s they emit.
//! * [`agent`] — the [`agent::HostAgent`] simulation node: the
//!   kernel-module analog (tag insertion/removal, ingress check),
//!   path-cache queries, stage-1 failure flooding and local failover
//!   (a re-install around every held edge), the adapter that applies
//!   the cores' effects, ping / ECN-echo / discovery-probe responders,
//!   and a pluggable routing function (the extension point flowlet TE
//!   uses, §6.2).
//! * [`datapath`] — the per-packet CPU cost model calibrated against the
//!   paper's DPDK measurements, used by the Figure 9/10 reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
mod backlog;
pub mod datapath;
pub mod failure;
pub mod pathtable;
pub mod topocache;

pub use agent::{AgentStats, HostAgent, HostAgentConfig, RoutingFn};
pub use datapath::{DatapathModel, DatapathVariant};
pub use failure::{GrayDetectConfig, GrayDetector, PatchAcceptor, RequestRetry};
pub use pathtable::{FlowKey, PathTable, PathTableEntry};
pub use topocache::TopoCache;
