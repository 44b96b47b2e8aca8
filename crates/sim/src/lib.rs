//! Deterministic discrete-event network emulator and flow-level solver.
//!
//! The paper evaluates DumbNet beyond its 7-switch testbed on a software
//! emulator "similar to the architecture of Mininet" (§7). This crate is
//! our equivalent substrate, in two complementary engines:
//!
//! * [`engine`] — a packet-level discrete-event simulator. Nodes
//!   (switches, hosts, controllers — implemented in the `dumbnet-switch`,
//!   `dumbnet-host` and `dumbnet-controller` crates against the [`Node`]
//!   trait) exchange [`Packet`](dumbnet_packet::Packet)s over links with
//!   propagation latency, store-and-forward serialization and FIFO
//!   output queueing. Virtual time is nanoseconds; execution is fully
//!   deterministic for a given seed.
//! * [`flowsim`] — a flow-level max-min fair bandwidth solver for
//!   long-running throughput experiments (aggregate throughput, HiBench
//!   jobs) where packet-level simulation would be needlessly slow.
//! * [`hybrid`] — the coupled flow/packet engine: elephants in the flow
//!   plane, mice and control frames in the packet plane, faults and
//!   quarantine mirrored downward and ECN pressure mirrored upward over
//!   the shared wire↔edge mapping.
//! * [`faults`] — what goes wrong: a wire's loss probability, crashes
//!   and partitions, bundled into a seeded [`ChaosPlan`].
//!
//! Both engines are generic: they know nothing about DumbNet semantics,
//! only about moving bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod engine;
pub mod event;
pub mod faults;
pub mod flowsim;
pub mod hybrid;
pub mod shard;

pub use census::HeapCensus;
pub use engine::{Ctx, Engine, LinkParams, LinkStats, Node, NodeAddr, WireId, World, WorldStats};
pub use event::QueueStats;
pub use faults::{ChaosPlan, CrashSchedule, PartitionSchedule};
pub use flowsim::{EdgeId, FlowEvent, FlowId, FlowSim, SolverStats};
pub use hybrid::{HybridStats, HybridWorld};
pub use shard::ShardedWorld;
