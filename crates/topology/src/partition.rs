//! Cell assignment: partitioning a [`Topology`] for sharded simulation.
//!
//! The sharded event engine (`dumbnet-sim`'s `ShardedWorld`) executes
//! one *cell* of nodes per shard and synchronizes shards in conservative
//! time windows bounded by the minimum inter-cell link latency. A good
//! partition therefore (a) balances node counts across cells so no shard
//! straggles, and (b) keeps tightly-coupled switches together so most
//! traffic stays shard-local.
//!
//! [`assign_cells`] implements two strategies:
//!
//! * **Pod-aware** — when the generator published `"podN"` groups (the
//!   fat-tree generator does), each pod lands in cell `N % cells` and
//!   core switches round-robin across cells. Fat-tree pods are the
//!   natural unit: all edge↔agg traffic is pod-internal, and only
//!   agg↔core links cross cells.
//! * **Balanced BFS fallback** — for arbitrary graphs, grow cells by
//!   breadth-first search from the lowest-numbered unassigned switch
//!   until the cell reaches `⌈switches / cells⌉` members, then start the
//!   next cell. Deterministic for a given topology.
//!
//! Hosts always inherit the cell of the switch they hang off, so access
//! links never cross a shard boundary.

use std::collections::{BTreeMap, VecDeque};

use dumbnet_types::{HostId, SwitchId};

use crate::graph::Topology;

/// A mapping from every switch and host in a topology to its cell.
///
/// Produced by [`assign_cells`]; consumed by fabric builders that place
/// simulation nodes with `add_node_in_cell`.
#[derive(Debug, Clone)]
pub struct CellAssignment {
    switch_cells: BTreeMap<SwitchId, u32>,
    host_cells: BTreeMap<HostId, u32>,
    cells: u32,
}

impl CellAssignment {
    /// Number of cells this assignment targets.
    #[must_use]
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// The cell a switch was assigned to (cell 0 for unknown switches).
    #[must_use]
    pub fn switch_cell(&self, sw: SwitchId) -> u32 {
        self.switch_cells.get(&sw).copied().unwrap_or(0)
    }

    /// The cell a host was assigned to (cell 0 for unknown hosts).
    #[must_use]
    pub fn host_cell(&self, host: HostId) -> u32 {
        self.host_cells.get(&host).copied().unwrap_or(0)
    }
}

/// Partitions `topo` into `cells` cells.
///
/// `groups` is the generator's named-group map; when it contains
/// `"pod0"`, `"pod1"`, … entries they drive the partition (see module
/// docs), otherwise a balanced BFS fallback is used. Pass an empty map
/// for hand-built topologies.
///
/// # Panics
///
/// Panics if `cells` is zero.
#[must_use]
pub fn assign_cells(
    topo: &Topology,
    groups: &BTreeMap<String, Vec<SwitchId>>,
    cells: u32,
) -> CellAssignment {
    assert!(cells > 0, "cell count must be positive");
    let mut switch_cells: BTreeMap<SwitchId, u32> = BTreeMap::new();

    let pods: Vec<&Vec<SwitchId>> = (0..)
        .map(|i| groups.get(&format!("pod{i}")))
        .take_while(Option::is_some)
        .flatten()
        .collect();
    if pods.is_empty() {
        assign_bfs(topo, cells, &mut switch_cells);
    } else {
        for (pod, members) in pods.iter().enumerate() {
            let cell = u32::try_from(pod).expect("pod count fits in u32") % cells;
            for &sw in *members {
                switch_cells.insert(sw, cell);
            }
        }
        // Core switches (and anything else outside a pod) round-robin
        // across cells for balance; they talk to every pod anyway.
        let mut next = 0u32;
        for sw in topo.switches() {
            if let std::collections::btree_map::Entry::Vacant(e) = switch_cells.entry(sw.id) {
                e.insert(next % cells);
                next += 1;
            }
        }
    }

    let host_cells = topo
        .hosts()
        .map(|h| {
            let cell = switch_cells.get(&h.attached.switch).copied().unwrap_or(0);
            (h.id, cell)
        })
        .collect();
    CellAssignment {
        switch_cells,
        host_cells,
        cells,
    }
}

/// Balanced BFS partition: grow each cell to `⌈n / cells⌉` switches by
/// BFS from the lowest-numbered unassigned switch, then move on.
fn assign_bfs(topo: &Topology, cells: u32, out: &mut BTreeMap<SwitchId, u32>) {
    let total = topo.switch_count();
    if total == 0 {
        return;
    }
    let target = total.div_ceil(cells as usize);
    let all: Vec<SwitchId> = topo.switches().map(|s| s.id).collect();
    let mut cell = 0u32;
    let mut filled = 0usize;
    for &seed in &all {
        if out.contains_key(&seed) {
            continue;
        }
        let mut queue = VecDeque::from([seed]);
        while let Some(sw) = queue.pop_front() {
            if out.contains_key(&sw) {
                continue;
            }
            out.insert(sw, cell);
            filled += 1;
            if filled >= target && (cell + 1) < cells {
                cell += 1;
                filled = 0;
                queue.clear();
                break;
            }
            let mut next: Vec<SwitchId> = topo
                .neighbors(sw)
                .filter(|(_, n, _)| !out.contains_key(n))
                .map(|(_, n, _)| n)
                .collect();
            next.sort_unstable();
            queue.extend(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    impl CellAssignment {
        /// Switch + host population of each cell, indexed by cell number.
        fn cell_sizes(&self) -> Vec<usize> {
            let mut sizes = vec![0usize; self.cells as usize];
            for &c in self.switch_cells.values().chain(self.host_cells.values()) {
                sizes[c as usize] += 1;
            }
            sizes
        }

        /// Switch-to-switch links whose endpoints sit in different cells
        /// — the links that bound the sharded engine's lookahead.
        fn cross_cell_links(&self, topo: &Topology) -> usize {
            topo.links()
                .filter(|l| self.switch_cell(l.a.switch) != self.switch_cell(l.b.switch))
                .count()
        }
    }

    #[test]
    fn fat_tree_pods_drive_the_partition() {
        let g = generators::fat_tree(4, 2, None);
        let asn = assign_cells(&g.topology, &g.groups, 4);
        // Every pod member shares its pod's cell.
        for pod in 0..4u32 {
            let members = g.groups.get(&format!("pod{pod}")).unwrap();
            for &sw in members {
                assert_eq!(asn.switch_cell(sw), pod, "pod {pod} split across cells");
            }
        }
        // Hosts follow their edge switch.
        for h in g.topology.hosts() {
            assert_eq!(asn.host_cell(h.id), asn.switch_cell(h.attached.switch));
        }
        // Cores spread out: with 4 cores and 4 cells, one each.
        let sizes = asn.cell_sizes();
        assert_eq!(sizes.len(), 4);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert_eq!(min, max, "pod partition should be perfectly balanced");
        // Only agg↔core links cross cells; edge↔agg and access stay home.
        assert!(asn.cross_cell_links(&g.topology) > 0);
    }

    #[test]
    fn pods_fold_when_fewer_cells_than_pods() {
        let g = generators::fat_tree(8, 1, None);
        let asn = assign_cells(&g.topology, &g.groups, 2);
        for pod in 0..8u32 {
            for &sw in g.groups.get(&format!("pod{pod}")).unwrap() {
                assert_eq!(asn.switch_cell(sw), pod % 2);
            }
        }
        let sizes = asn.cell_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), {
            g.topology.switch_count() + g.topology.host_count()
        });
    }

    #[test]
    fn bfs_fallback_balances_arbitrary_graphs() {
        let g = generators::cube(&[4, 4], 1, 8);
        assert!(!g.groups.contains_key("pod0"));
        let asn = assign_cells(&g.topology, &g.groups, 4);
        let sizes = asn.cell_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(
            sizes.iter().sum::<usize>(),
            g.topology.switch_count() + g.topology.host_count()
        );
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(
            max - min <= sizes.iter().sum::<usize>() / 4,
            "BFS partition badly skewed: {sizes:?}"
        );
        // Deterministic.
        let again = assign_cells(&g.topology, &g.groups, 4);
        for sw in g.topology.switches() {
            assert_eq!(asn.switch_cell(sw.id), again.switch_cell(sw.id));
        }
    }

    #[test]
    fn single_cell_assignment_is_all_zero() {
        let g = generators::testbed();
        let asn = assign_cells(&g.topology, &g.groups, 1);
        for sw in g.topology.switches() {
            assert_eq!(asn.switch_cell(sw.id), 0);
        }
        for h in g.topology.hosts() {
            assert_eq!(asn.host_cell(h.id), 0);
        }
        assert_eq!(asn.cross_cell_links(&g.topology), 0);
    }
}
