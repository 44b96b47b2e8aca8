//! Canonical enumeration of a fabric's directed flow-level edges.
//!
//! Both simulation planes model the same physical fabric: the packet
//! engine as bidirectional wires with per-direction queues, the
//! flow-level solver as directed capacitated edges. This module defines
//! the *shared* wire↔edge mapping both sides index through — one
//! directed edge per trunk-link direction plus one uplink and one
//! downlink edge per host attachment — so a chaos injection or a
//! controller quarantine patch aimed at a wire can be routed to exactly
//! the flow edges that model it.
//!
//! The enumeration order is part of the determinism contract: edges are
//! numbered by walking [`Topology::links`] in declaration order (the
//! `a→b` direction before `b→a`), then hosts in id order (uplink before
//! downlink). Flow-solver bottleneck tie-breaks resolve by edge index,
//! so this order must stay stable for byte-identical reports.
//!
//! Lookups go through two sorted vectors built once: the directed
//! trunks in `(from, to)` order, binary-searched, and the hosts in id
//! order with their uplink's index (the downlink is the next index, the
//! two being numbered back to back).

use dumbnet_types::{heap, FastHashSet, HostId, SwitchId};

use crate::graph::Topology;
use crate::route::Route;

/// Index of a directed flow-level edge in the canonical enumeration.
///
/// Dense, starting at zero; converts 1:1 to the flow simulator's edge
/// ids when the edges are materialized in enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeIx(pub usize);

/// What a directed flow edge models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// One direction of a switch-to-switch trunk.
    Trunk {
        /// Transmitting switch.
        from: SwitchId,
        /// Receiving switch.
        to: SwitchId,
    },
    /// A host's uplink (host → edge switch).
    HostUp(HostId),
    /// A host's downlink (edge switch → host).
    HostDown(HostId),
}

/// The canonical wire↔edge mapping of one topology.
#[derive(Debug, Clone, Default)]
pub struct EdgeMap {
    /// Directed trunk edges and their indices, sorted by `(from, to)`.
    trunks: Vec<((SwitchId, SwitchId), EdgeIx)>,
    /// Hosts and their uplink edge indices, sorted by host id.
    hosts: Vec<(HostId, EdgeIx)>,
    /// Reverse view: index → model element, in enumeration order.
    kinds: Vec<EdgeKind>,
}

impl EdgeMap {
    /// Enumerates the directed edges of `topo` (up links only — a link
    /// administratively down at build time has no flow-level image;
    /// runtime failures are modeled by zeroing capacity instead).
    ///
    /// Parallel links between the same switch pair merge into one edge
    /// pair, mirroring the packet plane's single-wire-per-port model.
    #[must_use]
    pub fn build(topo: &Topology) -> EdgeMap {
        let links = topo.links().filter(|l| l.up).count();
        let mut kinds = Vec::with_capacity(2 * links + 2 * topo.host_count());
        let mut trunks = Vec::with_capacity(2 * links);
        let mut seen = FastHashSet::default();
        for link in topo.links().filter(|l| l.up) {
            let (a, b) = (link.a.switch, link.b.switch);
            for (from, to) in [(a, b), (b, a)] {
                if seen.insert((from, to)) {
                    trunks.push(((from, to), EdgeIx(kinds.len())));
                    kinds.push(EdgeKind::Trunk { from, to });
                }
            }
        }
        trunks.sort_unstable_by_key(|&(pair, _)| pair);
        let hosts = topo
            .hosts()
            .map(|h| {
                let up = EdgeIx(kinds.len());
                kinds.extend([EdgeKind::HostUp(h.id), EdgeKind::HostDown(h.id)]);
                (h.id, up)
            })
            .collect();
        EdgeMap {
            trunks,
            hosts,
            kinds,
        }
    }

    /// The heap the mapping holds: its three tables.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        heap::vec(&self.trunks) + heap::vec(&self.hosts) + heap::vec(&self.kinds)
    }

    /// Number of directed edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the topology had no links or hosts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// What edge `ix` models.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    #[must_use]
    pub fn kind(&self, ix: EdgeIx) -> EdgeKind {
        self.kinds[ix.0]
    }

    /// The directed trunk edge `a → b`, if those switches are adjacent.
    #[must_use]
    pub fn trunk(&self, a: SwitchId, b: SwitchId) -> Option<EdgeIx> {
        let at = self.trunks.binary_search_by_key(&(a, b), |&(pair, _)| pair);
        at.ok().map(|i| self.trunks[i].1)
    }

    /// A host's uplink (host → switch) edge.
    #[must_use]
    pub fn host_up(&self, h: HostId) -> Option<EdgeIx> {
        let at = self.hosts.binary_search_by_key(&h, |&(id, _)| id);
        at.ok().map(|i| self.hosts[i].1)
    }

    /// A host's downlink (switch → host) edge: the one numbered right
    /// after its uplink.
    #[must_use]
    pub fn host_down(&self, h: HostId) -> Option<EdgeIx> {
        self.host_up(h).map(|EdgeIx(up)| EdgeIx(up + 1))
    }

    /// All edges in enumeration order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeIx, EdgeKind)> + '_ {
        self.kinds.iter().enumerate().map(|(i, &k)| (EdgeIx(i), k))
    }

    /// All directed trunk edges, ordered by (from, to).
    pub fn trunks(&self) -> impl Iterator<Item = ((SwitchId, SwitchId), EdgeIx)> + '_ {
        self.trunks.iter().copied()
    }

    /// The edge path a flow from `src` to `dst` takes along `route`
    /// (access uplink, trunk hops, access downlink).
    ///
    /// Returns `None` when the route uses a switch pair with no edge
    /// (a route that predates this map); a *failed* link still has its
    /// edge — failures are expressed as zero capacity, not absence.
    #[must_use]
    pub fn route_path(&self, src: HostId, dst: HostId, route: &Route) -> Option<Vec<EdgeIx>> {
        let mut edges = Vec::with_capacity(route.link_hops() + 2);
        edges.push(self.host_up(src)?);
        for w in route.switches().windows(2) {
            edges.push(self.trunk(w[0], w[1])?);
        }
        edges.push(self.host_down(dst)?);
        Some(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        self,
        fixtures::{awkward_line, degraded_fat_tree},
    };
    use std::collections::BTreeMap;

    /// The three `BTreeMap`s the sorted vectors replaced, filled the way
    /// `build` filled them: the oracle of
    /// `sorted_vectors_answer_as_the_trees_did`.
    #[derive(Default)]
    struct TreeOracle {
        trunk: BTreeMap<(SwitchId, SwitchId), EdgeIx>,
        host_up: BTreeMap<HostId, EdgeIx>,
        host_down: BTreeMap<HostId, EdgeIx>,
        kinds: Vec<EdgeKind>,
    }

    impl TreeOracle {
        fn build(topo: &Topology) -> TreeOracle {
            let mut map = TreeOracle::default();
            for link in topo.links().filter(|l| l.up) {
                let (a, b) = (link.a.switch, link.b.switch);
                for (from, to) in [(a, b), (b, a)] {
                    if !map.trunk.contains_key(&(from, to)) {
                        let ix = map.alloc(EdgeKind::Trunk { from, to });
                        map.trunk.insert((from, to), ix);
                    }
                }
            }
            for h in topo.hosts() {
                let up = map.alloc(EdgeKind::HostUp(h.id));
                map.host_up.insert(h.id, up);
                let down = map.alloc(EdgeKind::HostDown(h.id));
                map.host_down.insert(h.id, down);
            }
            map
        }

        fn alloc(&mut self, kind: EdgeKind) -> EdgeIx {
            self.kinds.push(kind);
            EdgeIx(self.kinds.len() - 1)
        }
    }

    #[test]
    fn sorted_vectors_answer_as_the_trees_did() {
        // Parallel links, a loop-back cable and links down at build time
        // (on the line, also the first of the doubled pair, so its twin
        // numbers the pair); every switch pair and every host, one past
        // each table's end included.
        let mut twin_numbers = awkward_line();
        let first = twin_numbers.links().next().expect("line has links").id;
        twin_numbers.set_link_state(first, false).unwrap();
        let graphs = [
            generators::testbed().topology,
            awkward_line(),
            twin_numbers,
            degraded_fat_tree(),
        ];
        for (g, topo) in graphs.iter().enumerate() {
            let (map, want) = (EdgeMap::build(topo), TreeOracle::build(topo));
            let kinds: Vec<EdgeKind> = map.edges().map(|(_, k)| k).collect();
            assert_eq!(kinds, want.kinds, "graph {g}: enumeration");
            let trunks: Vec<_> = map.trunks().collect();
            let want_trunks: Vec<_> = want.trunk.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(trunks, want_trunks, "graph {g}: trunks() order");
            let switches = (0..=topo.switch_count() as u64).map(SwitchId::new);
            for a in switches.clone() {
                for b in switches.clone() {
                    assert_eq!(map.trunk(a, b), want.trunk.get(&(a, b)).copied());
                }
            }
            for h in (0..=topo.host_count() as u64).map(HostId::new) {
                assert_eq!(map.host_up(h), want.host_up.get(&h).copied());
                assert_eq!(map.host_down(h), want.host_down.get(&h).copied());
            }
        }
    }

    #[test]
    fn enumeration_covers_links_then_hosts() {
        let g = generators::testbed();
        let map = EdgeMap::build(&g.topology);
        let links = g.topology.links().filter(|l| l.up).count();
        let hosts = g.topology.host_count();
        assert_eq!(map.len(), links * 2 + hosts * 2);
        // Trunk directions come first, in link declaration order.
        let first_link = g.topology.links().find(|l| l.up).unwrap();
        let (a, b) = (first_link.a.switch, first_link.b.switch);
        assert_eq!(map.trunk(a, b), Some(EdgeIx(0)));
        assert_eq!(map.trunk(b, a), Some(EdgeIx(1)));
        // Host edges follow, uplink before downlink, ascending host id.
        let h0 = g.topology.hosts().next().unwrap().id;
        assert_eq!(map.host_up(h0), Some(EdgeIx(links * 2)));
        assert_eq!(map.host_down(h0), Some(EdgeIx(links * 2 + 1)));
    }

    #[test]
    fn kinds_round_trip() {
        let g = generators::testbed();
        let map = EdgeMap::build(&g.topology);
        for (ix, kind) in map.edges() {
            match kind {
                EdgeKind::Trunk { from, to } => assert_eq!(map.trunk(from, to), Some(ix)),
                EdgeKind::HostUp(h) => assert_eq!(map.host_up(h), Some(ix)),
                EdgeKind::HostDown(h) => assert_eq!(map.host_down(h), Some(ix)),
            }
        }
    }

    #[test]
    fn route_path_walks_up_trunks_down() {
        let g = generators::testbed();
        let topo = &g.topology;
        let map = EdgeMap::build(topo);
        let src = topo.hosts().next().unwrap().id;
        let dst = topo.hosts().last().unwrap().id;
        let sa = topo.host(src).unwrap().attached.switch;
        let sb = topo.host(dst).unwrap().attached.switch;
        let spine = g.group("spine")[0];
        let route = Route::new(vec![sa, spine, sb]).unwrap();
        let path = map.route_path(src, dst, &route).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], map.host_up(src).unwrap());
        assert_eq!(path[1], map.trunk(sa, spine).unwrap());
        assert_eq!(path[2], map.trunk(spine, sb).unwrap());
        assert_eq!(path[3], map.host_down(dst).unwrap());
    }
}
