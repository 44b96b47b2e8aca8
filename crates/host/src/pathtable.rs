//! The PathTable: per-destination cached tag paths with flow binding.
//!
//! §5.2: "The PathTable is indexed by hosts, i.e., destination MAC
//! address. It caches both the shortest path and backup paths … The
//! PathTable remembers the previously used choice for each flow, and
//! binds a flow to a particular path, except when a customized routing
//! function tells it to do otherwise."

use dumbnet_topology::Route;
use dumbnet_types::{heap, FastHashMap, MacAddr, Path, SwitchId};

/// Key identifying a transport flow on the sending host. The default
/// routing function binds each key to one cached path; the flowlet
/// extension derives keys that include a flowlet epoch instead (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(pub u64);

/// A cached path: the wire-format tag sequence plus the switch-level
/// route it came from (needed to invalidate on link failures).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPath {
    /// The tag path as it goes into packet headers.
    pub tags: Path,
    /// The switches the path traverses, in order.
    pub route: Route,
}

impl CachedPath {
    /// The heap the path holds (its switch list).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.route.heap_bytes()
    }

    /// Whether the path traverses the (undirected) switch pair `a`–`b`.
    #[must_use]
    pub fn uses_edge(&self, a: SwitchId, b: SwitchId) -> bool {
        self.route
            .switches()
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
    }
}

/// The cached paths for one destination.
#[derive(Debug, Clone, Default)]
pub struct PathTableEntry {
    /// Up to k equal-quality paths for load balancing.
    pub paths: Vec<CachedPath>,
    /// The failure-disjoint backup (§4.3).
    pub backup: Option<CachedPath>,
    /// Flow → index into `paths` (or `usize::MAX` for the backup).
    bindings: FastHashMap<FlowKey, usize>,
}

/// Index value marking a flow bound to the backup path.
const BACKUP_IX: usize = usize::MAX;

impl PathTableEntry {
    /// All usable paths, primary set first, then backup.
    pub fn all_paths(&self) -> impl Iterator<Item = &CachedPath> {
        self.paths.iter().chain(self.backup.iter())
    }

    /// Number of cached alternatives (including the backup).
    #[must_use]
    pub fn width(&self) -> usize {
        self.paths.len() + usize::from(self.backup.is_some())
    }

    /// The path a binding index names.
    fn at(&self, ix: usize) -> Option<&CachedPath> {
        if ix == BACKUP_IX {
            self.backup.as_ref()
        } else {
            self.paths.get(ix)
        }
    }
}

/// The PathTable.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    entries: FastHashMap<MacAddr, PathTableEntry>,
    /// Lookup counters for the cache-effectiveness experiments.
    pub hits: u64,
    /// Lookups that found no entry (trigger a TopoCache/controller query).
    pub misses: u64,
}

impl PathTable {
    /// The heap the table holds: entries, their paths and flow
    /// bindings.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let entries: usize = self
            .entries
            .values()
            .map(|e| {
                heap::vec(&e.paths)
                    + e.all_paths().map(CachedPath::heap_bytes).sum::<usize>()
                    + heap::hash_map(&e.bindings)
            })
            .sum();
        heap::hash_map(&self.entries) + entries
    }

    /// Creates an empty table.
    #[must_use]
    pub fn new() -> PathTable {
        PathTable::default()
    }

    /// Installs (replaces) the cached paths for `dst`. Existing flow
    /// bindings are retained where the bound index still exists, so
    /// refreshing paths does not reshuffle live flows unnecessarily.
    pub fn install(&mut self, dst: MacAddr, paths: Vec<CachedPath>, backup: Option<CachedPath>) {
        let entry = self.entries.entry(dst).or_default();
        entry
            .bindings
            .retain(|_, ix| *ix == BACKUP_IX || *ix < paths.len());
        entry.paths = paths;
        entry.backup = backup;
        if entry.backup.is_none() {
            entry.bindings.retain(|_, ix| *ix != BACKUP_IX);
        }
    }

    /// The entry for `dst`, if cached.
    #[must_use]
    pub fn entry(&self, dst: MacAddr) -> Option<&PathTableEntry> {
        self.entries.get(&dst)
    }

    /// Destinations currently cached, in MAC order. Sorted at the
    /// source: callers transmit in iteration order, and hash order
    /// would leak into packet timing (nondeterministic fig11a CDFs).
    #[must_use]
    pub fn destinations(&self) -> Vec<MacAddr> {
        let mut dsts: Vec<MacAddr> = self.entries.keys().copied().collect();
        dsts.sort_unstable();
        dsts
    }

    /// The hot-path lookup (Table 2): returns the tag path for
    /// `(dst, flow)`, binding the flow to `preferred` (or keeping its
    /// existing binding). `preferred` is produced by the routing
    /// function; pass `None` to keep/assign the flow's sticky choice.
    ///
    /// Returns `None` on a table miss — the caller then consults the
    /// TopoCache and ultimately the controller.
    pub fn lookup(
        &mut self,
        dst: MacAddr,
        flow: FlowKey,
        preferred: Option<usize>,
    ) -> Option<Path> {
        let Some(entry) = self.entries.get_mut(&dst).filter(|e| e.width() > 0) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let n = entry.paths.len();
        let ix = match (preferred, entry.bindings.get(&flow)) {
            _ if n == 0 => BACKUP_IX,
            (Some(p), _) => p % n,
            (None, Some(&bound)) if bound == BACKUP_IX || bound < n => bound,
            (None, Some(_)) => 0,
            // First packet of the flow: hash it over the available paths.
            (None, None) => (flow.0 as usize).wrapping_mul(0x9E37_79B9) % n,
        };
        entry.bindings.insert(flow, ix);
        entry.at(ix).map(|p| p.tags.clone())
    }

    /// The cached path `flow` is bound to for `dst`, if it is bound.
    #[must_use]
    pub fn bound_path(&self, dst: MacAddr, flow: FlowKey) -> Option<&CachedPath> {
        let entry = self.entries.get(&dst)?;
        entry.at(*entry.bindings.get(&flow)?)
    }

    /// Reacts to a link failure between switches `a` and `b`: drops dead
    /// paths from every entry and rebinds their flows to survivors
    /// (backup included). Returns the destinations that lost *all* paths
    /// (the caller must re-query the controller for those).
    pub fn invalidate_edge(&mut self, a: SwitchId, b: SwitchId) -> Vec<MacAddr> {
        let mut orphaned = Vec::new();
        for (&dst, entry) in &mut self.entries {
            let before = entry.paths.len();
            entry.paths.retain(|p| !p.uses_edge(a, b));
            let backup_dead = entry.backup.as_ref().is_some_and(|p| p.uses_edge(a, b));
            if backup_dead {
                entry.backup = None;
            }
            if entry.paths.len() != before || backup_dead {
                // Rebind affected flows.
                let width = entry.paths.len();
                let has_backup = entry.backup.is_some();
                entry.bindings.retain(|_, ix| {
                    if *ix == BACKUP_IX {
                        has_backup
                    } else {
                        *ix < width
                    }
                });
                if width == 0 && !has_backup {
                    orphaned.push(dst);
                }
            }
        }
        for dst in &orphaned {
            self.entries.remove(dst);
        }
        // Hash-map iteration filled `orphaned`; callers re-request paths
        // in this order, so sort or the send order leaks hash state.
        orphaned.sort_unstable();
        orphaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_topology::Route;
    use dumbnet_types::SwitchId;

    fn cached(switches: &[u64], tags: &[u8]) -> CachedPath {
        CachedPath {
            tags: Path::from_ports(tags.iter().copied()).unwrap(),
            route: Route::new(switches.iter().map(|&s| SwitchId(s)).collect()).unwrap(),
        }
    }

    fn dst() -> MacAddr {
        MacAddr::for_host(9)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = PathTable::new();
        assert_eq!(t.lookup(dst(), FlowKey(1), None), None);
        assert_eq!(t.misses, 1);
        t.install(dst(), vec![cached(&[0, 1], &[1, 5])], None);
        let p = t.lookup(dst(), FlowKey(1), None).unwrap();
        assert_eq!(p.to_string(), "1-5-ø");
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn flows_bind_sticky() {
        let mut t = PathTable::new();
        t.install(
            dst(),
            vec![
                cached(&[0, 1, 2], &[1, 1, 5]),
                cached(&[0, 3, 2], &[2, 1, 5]),
            ],
            None,
        );
        let first = t.lookup(dst(), FlowKey(42), None).unwrap();
        for _ in 0..10 {
            assert_eq!(t.lookup(dst(), FlowKey(42), None).unwrap(), first);
        }
    }

    #[test]
    fn different_flows_spread() {
        let mut t = PathTable::new();
        t.install(
            dst(),
            vec![
                cached(&[0, 1, 2], &[1, 1, 5]),
                cached(&[0, 3, 2], &[2, 1, 5]),
            ],
            None,
        );
        let mut seen = std::collections::HashSet::new();
        for f in 0..32 {
            seen.insert(t.lookup(dst(), FlowKey(f), None).unwrap());
        }
        assert_eq!(seen.len(), 2, "flows should use both paths");
    }

    #[test]
    fn preferred_index_overrides_binding() {
        let mut t = PathTable::new();
        t.install(
            dst(),
            vec![
                cached(&[0, 1, 2], &[1, 1, 5]),
                cached(&[0, 3, 2], &[2, 1, 5]),
            ],
            None,
        );
        let p0 = t.lookup(dst(), FlowKey(1), Some(0)).unwrap();
        let p1 = t.lookup(dst(), FlowKey(1), Some(1)).unwrap();
        assert_ne!(p0, p1);
        // Preferred wraps around the path count.
        let p2 = t.lookup(dst(), FlowKey(1), Some(2)).unwrap();
        assert_eq!(p0, p2);
    }

    #[test]
    fn invalidate_rebinds_to_survivor() {
        let mut t = PathTable::new();
        t.install(
            dst(),
            vec![
                cached(&[0, 1, 2], &[1, 1, 5]),
                cached(&[0, 3, 2], &[2, 1, 5]),
            ],
            Some(cached(&[0, 4, 2], &[3, 1, 5])),
        );
        // Bind a flow to path 0 (via switch 1).
        let before = t.lookup(dst(), FlowKey(0), Some(0)).unwrap();
        assert_eq!(before.to_string(), "1-1-5-ø");
        let orphaned = t.invalidate_edge(SwitchId(0), SwitchId(1));
        assert!(orphaned.is_empty());
        let after = t.lookup(dst(), FlowKey(0), None).unwrap();
        assert_ne!(after, before, "flow must leave the dead path");
    }

    #[test]
    fn invalidate_falls_back_to_backup_then_orphans() {
        let mut t = PathTable::new();
        t.install(
            dst(),
            vec![cached(&[0, 1, 2], &[1, 1, 5])],
            Some(cached(&[0, 4, 2], &[3, 1, 5])),
        );
        let orphaned = t.invalidate_edge(SwitchId(0), SwitchId(1));
        assert!(orphaned.is_empty());
        // Only the backup remains; flows must use it.
        let p = t.lookup(dst(), FlowKey(7), None).unwrap();
        assert_eq!(p.to_string(), "3-1-5-ø");
        // Now kill the backup too.
        let orphaned = t.invalidate_edge(SwitchId(4), SwitchId(2));
        assert_eq!(orphaned, vec![dst()]);
        assert!(t.entry(dst()).is_none());
    }

    #[test]
    fn install_refresh_keeps_valid_bindings() {
        let mut t = PathTable::new();
        let paths = vec![
            cached(&[0, 1, 2], &[1, 1, 5]),
            cached(&[0, 3, 2], &[2, 1, 5]),
        ];
        t.install(dst(), paths.clone(), None);
        let before = t.lookup(dst(), FlowKey(3), None).unwrap();
        t.install(dst(), paths, None);
        assert_eq!(t.lookup(dst(), FlowKey(3), None).unwrap(), before);
    }

    #[test]
    fn uses_edge_is_undirected() {
        let p = cached(&[0, 1, 2], &[1, 1, 5]);
        assert!(p.uses_edge(SwitchId(1), SwitchId(0)));
        assert!(p.uses_edge(SwitchId(1), SwitchId(2)));
        assert!(!p.uses_edge(SwitchId(0), SwitchId(2)));
    }
}
