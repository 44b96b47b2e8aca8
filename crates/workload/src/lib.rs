//! Workload generators and statistics helpers for the evaluation.
//!
//! * [`iperf`] — iperf-style synthetic flows: paired leaf-to-leaf
//!   aggregates (the 18.5 Gbps experiment of §7.2.2).
//! * [`hibench`] — HiBench-style big-data jobs (§7.4): each of the five
//!   benchmark tasks (Aggregation, Join, Pagerank, Terasort, Wordcount)
//!   modeled as a barrier-synchronized DAG of shuffle stages with the
//!   communication structure of the real MapReduce jobs. "Note that we
//!   use HiBench to capture the flow dependencies in real-world
//!   applications" — which is exactly what survives this modeling.
//! * [`stats`] — empirical CDFs and percentiles used by every latency
//!   figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flowmap;
pub mod hibench;
pub mod iperf;
pub mod stats;

pub use flowmap::FlowMap;
pub use hibench::{HiBenchKind, Job, Stage};
pub use iperf::FlowSpec;
pub use stats::Cdf;
