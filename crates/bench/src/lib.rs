//! Experiment harnesses reproducing every table and figure of the
//! DumbNet paper (EuroSys '18, §7).
//!
//! Each `figNN` / `tableN` module regenerates one artifact and returns
//! a formatted report with the paper's values printed next to ours;
//! [`chaos_soak`], [`dpfuzz`] and [`perf`] are the gates the paper never
//! had. One binary runs them all by name (`cargo run --release -p
//! dumbnet-bench --bin figures -- <name> [flags]`, or `list`, `all`,
//! `gate <row>`): [`gates`] holds the table of figures, the table of
//! pinned CI gates, and the one strict command-line parser in front of
//! both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_soak;
pub mod dpfuzz;
pub mod fig07;
pub mod fig08;
pub mod fig08c;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig11c;
pub mod fig11d;
pub mod fig11e;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod gates;
pub mod perf;
pub mod recovery;
pub mod report;
pub mod table1;
pub mod table2;

pub use report::Report;
