//! The heap census: live heap bytes by owner.
//!
//! Every owner of a large share of the emulator's heap reports the bytes
//! it holds, counted by capacity (see `dumbnet_types::heap`): node boxes
//! and what each node owns, the node table, the event queue and its
//! slab, the wiring, the link counters, the fault streams, the telemetry
//! registry, and on a hybrid engine the flow plane and its bindings.
//! [`Engine::heap_census`](crate::Engine::heap_census) gathers them; a
//! fabric adds its topology and edge map. Rows are disjoint, so their
//! sum is the heap the census explains; what the allocator holds beyond
//! it is the named gap.

use std::collections::BTreeMap;
use std::fmt;

/// Heap bytes per owner, in owner-name order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HeapCensus {
    rows: BTreeMap<&'static str, usize>,
}

impl HeapCensus {
    /// Adds `bytes` to `owner`'s row.
    pub fn add(&mut self, owner: &'static str, bytes: usize) {
        *self.rows.entry(owner).or_default() += bytes;
    }

    /// One owner's bytes (0 for an owner with no row).
    #[must_use]
    pub fn get(&self, owner: &str) -> usize {
        self.rows.get(owner).copied().unwrap_or(0)
    }

    /// The bytes of every row together.
    #[must_use]
    pub fn total(&self) -> usize {
        self.rows.values().sum()
    }

    /// `(owner, bytes)` in owner-name order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.rows.iter().map(|(&owner, &bytes)| (owner, bytes))
    }
}

impl fmt::Display for HeapCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (owner, bytes) in self.rows() {
            writeln!(f, "{owner:<20} {:>12.6} MB", bytes as f64 / 1e6)?;
        }
        write!(f, "{:<20} {:>12.6} MB", "total", self.total() as f64 / 1e6)
    }
}
