//! Topology model, generators and routing algorithms for DumbNet.
//!
//! This crate provides the graph substrate everything else stands on:
//!
//! * [`Topology`] — a mutable model of switches, hosts and links, with the
//!   port-level detail DumbNet needs (source routes are sequences of
//!   *output ports*, so the graph must know which port faces which
//!   neighbor).
//! * [`generators`] — constructors for the topologies used in the paper's
//!   evaluation: the 2×5 leaf-spine testbed, fat-trees, k-ary n-cube
//!   meshes (the "cube" of §7.2.1), and random regular graphs for
//!   irregular-topology experiments.
//! * [`edgemap`] — the canonical enumeration of directed flow-level
//!   edges (the wire↔edge mapping shared by the packet and flow planes).
//! * [`spath`] — BFS/Dijkstra shortest paths with randomized equal-cost
//!   tie-breaking (§4.3: "randomizes the choice for equal cost links").
//! * [`pathgraph`] — the paper's Algorithm 1: primary path, `s`-step
//!   ε-good local detours, and a backup path computed with inflated
//!   primary-link costs; and the one find-path engine, which also runs
//!   Yen's k-shortest loopless paths inside a cached path graph
//!   ([`PathGraph::k_shortest_within`]) or over a whole [`Topology`]
//!   ([`k_shortest_routes`]).
//! * [`partition`] — cell assignment (pod-aware for fat-trees, balanced
//!   BFS for arbitrary graphs) for the sharded simulation engine.
//! * [`route`] — switch-level routes and their conversion to port-tag
//!   [`Path`](dumbnet_types::Path)s.
//! * [`views`] — filtered per-tenant topology views for the network
//!   virtualization extension (§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edgemap;
pub mod generators;
pub mod graph;
pub mod partition;
pub mod pathcache;
pub mod pathgraph;
pub mod route;
pub mod spath;
pub mod views;

pub use edgemap::{EdgeIx, EdgeKind, EdgeMap};
pub use graph::{Attachment, HostInfo, Link, SwitchInfo, Topology};
pub use partition::{assign_cells, CellAssignment};
pub use pathcache::{RouteCache, RouteCacheStats};
pub use pathgraph::{k_shortest_routes, PathGraph, PathGraphParams};
pub use route::Route;
pub use spath::{shortest_route, shortest_route_over, DistanceMap};
pub use views::TopologyView;
