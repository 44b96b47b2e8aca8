//! Analytic FPGA models for the DumbNet switch (§5.3, §7.1).
//!
//! The paper prototypes the switch on an ONetSwitch45 (Xilinx Zynq-7000)
//! and reports two things we reproduce as calibrated analytic models:
//!
//! * [`resource`] — look-up-table and register usage versus port count
//!   (Figure 7), for the two-stage pop-label + output-demux pipeline of
//!   Figure 5, against the NetFPGA OpenFlow switch baseline (table-driven,
//!   hence an order of magnitude more logic).
//! * [`latency`] — per-hop forwarding latency of the unoptimized 1 GE
//!   prototype (§7.1: 3 hops average 100.6 µs, max 152 µs).
//!
//! We do not have the FPGA, so the models are calibrated at the paper's
//! published 4-port data points and grown structurally: each component's
//! scaling term follows from the circuit it models (per-port demux logic,
//! per-port queue bookkeeping, fixed parser), which is what makes the
//! *shape* of Figure 7 reproducible rather than merely copied.
//!
//! A third model is behavioural rather than analytic:
//!
//! * [`refmodel`] — a clarity-first reference interpreter of the
//!   two-stage pop/demux pipeline over literal bytes-on-wire, used as
//!   the oracle in differential fuzzing of the production data plane
//!   (see `dumbnet-bench`'s `figures dp_fuzz` and DESIGN.md §8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod refmodel;
pub mod resource;

pub use latency::{FpgaLatencyModel, LatencySample};
pub use refmodel::{RefDrop, RefEncoding, RefVerdict};
pub use resource::{FpgaResources, OpenFlowSwitchModel, PopLabelSwitchModel};
