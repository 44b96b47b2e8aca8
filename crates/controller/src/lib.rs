//! The DumbNet controller.
//!
//! The controller is just a host running controller software (§3.1). It
//! owns the authoritative topology and provides three services:
//!
//! * [`discovery`] — the BFS topology-discovery state machine of §4.1:
//!   self-port bounce probes, switch-ID queries, O(P²) port-pair link
//!   scans with the paper's link-verification probes to resolve
//!   ambiguous switch identities, then host scans on the remaining
//!   ports. The state machine is pure logic (no simulator types) so it
//!   can be unit-tested exhaustively.
//! * [`node`] — the [`node::Controller`] simulation node:
//!   drives discovery at a configurable probe rate (the controller CPU
//!   is the bottleneck the paper measures in Figure 8), answers path
//!   requests with path graphs (§4.3), floods stage-2 topology patches
//!   on failures (§4.2) straight from the committed log — one epoch per
//!   flush window — and adapts the cores below to the fabric: packets
//!   and timers in, sends and committed deltas out.
//! * [`gray`] — stage 2's gray half, `Ctx`-free: [`GrayBoard`], the
//!   gray-failure scoreboard (quorum quarantine, probation release, flap
//!   budget, soft-state refresh, reading the log off the [`Replica`]).
//! * [`replication`] — the ZooKeeper substitute: a leader-driven
//!   majority-ack replicated log of topology changes and, around it,
//!   [`Replica`] — heartbeat-based failover, quorum elections and the
//!   leader lease as one `Ctx`-free state machine, pure like discovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod gray;
pub mod node;
pub mod replication;

pub use discovery::{DiscoveryConfig, DiscoveryState, ProbeOut};
pub use gray::{GrayBoard, MAX_FLAPS};
pub use node::{Controller, ControllerConfig, ControllerStats};
pub use replication::{Replica, ReplicaRole, ReplicatedLog};
