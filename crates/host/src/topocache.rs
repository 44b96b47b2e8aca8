//! The TopoCache: merged path graphs and down-edge bookkeeping.
//!
//! §5.2: "TopoCache interacts with the controller and aggregates all path
//! graphs from the controller. To find a path between a (src, dst) pair,
//! the TopoCache first checks if it has the location of dst locally. If
//! not found, it queries the controller and integrates the returned path
//! graph into its cache. Otherwise, it computes the k shortest paths from
//! src to dst and randomly chooses one as the path."
//!
//! The k-path extraction is `PathGraph::k_shortest_within` — one dense
//! router built per call, reused by every Yen spur — and is memoized
//! until a graph arrives or an edge changes state, so a host pays it
//! once per destination per failure, not per packet (and not at all for
//! a failure whose edge no cached graph holds). The maps here are keyed
//! by MACs the emulator hands out, hence `FastHashMap`; the down set
//! keeps the default hasher because `down_edges` lends it out.

use std::collections::{BTreeSet, HashSet};

use dumbnet_topology::{PathGraph, Route};
use dumbnet_types::{heap, norm_edge, FastHashMap, MacAddr, Path, SwitchId};

use crate::pathtable::CachedPath;

/// The TopoCache for one host.
#[derive(Debug, Clone, Default)]
pub struct TopoCache {
    /// Path graphs keyed by destination MAC.
    graphs: FastHashMap<MacAddr, PathGraph>,
    /// Edges the host currently believes are down (from failure
    /// notifications not yet superseded by a topology patch).
    down: HashSet<(SwitchId, SwitchId)>,
    /// Memoized [`TopoCache::k_paths`] results, valid for the current
    /// `(graphs, down)` state; cleared on integrate/mark_up, and on a
    /// mark_down of an edge some cached graph holds.
    k_memo: FastHashMap<(MacAddr, usize), (Vec<CachedPath>, Option<CachedPath>)>,
}

impl TopoCache {
    /// The heap the cache holds: path graphs, down edges and the
    /// k-path memo.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let graphs: usize = self.graphs.values().map(PathGraph::heap_bytes).sum();
        let memo: usize = self
            .k_memo
            .values()
            .map(|(paths, backup)| {
                heap::vec(paths)
                    + paths
                        .iter()
                        .chain(backup)
                        .map(CachedPath::heap_bytes)
                        .sum::<usize>()
            })
            .sum();
        heap::hash_map(&self.graphs)
            + graphs
            + heap::hash_set(&self.down)
            + heap::hash_map(&self.k_memo)
            + memo
    }

    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> TopoCache {
        TopoCache::default()
    }

    /// Integrates a path graph received from the controller. `_version`
    /// is unread: only an applied patch moves the table version.
    pub fn integrate(&mut self, dst: MacAddr, graph: PathGraph, _version: u64) {
        // A fresh graph reflects the controller's current view; forget
        // down-markings it already accounts for (edges absent from it
        // stay marked for other cached graphs).
        self.graphs.insert(dst, graph);
        self.k_memo.clear();
    }

    /// Marks an edge down (failure notification). Returns `true` if this
    /// was new information. The memo survives an edge no cached graph
    /// holds: an extraction bans only its own graph's edges, so none of
    /// the memoized results can change. A patch tells every host of a
    /// dead edge, most of which never cached a graph over it.
    pub fn mark_down(&mut self, a: SwitchId, b: SwitchId) -> bool {
        let new = self.down.insert(norm_edge(a, b));
        if new && self.graphs.values().any(|g| g.contains_edge(a, b)) {
            self.k_memo.clear();
        }
        new
    }

    /// Marks an edge back up (topology patch).
    pub fn mark_up(&mut self, a: SwitchId, b: SwitchId) {
        if self.down.remove(&norm_edge(a, b)) {
            self.k_memo.clear();
        }
    }

    /// The down-edge set.
    #[must_use]
    pub fn down_edges(&self) -> &HashSet<(SwitchId, SwitchId)> {
        &self.down
    }

    /// Resolves the switch pair of a `(switch, port)` failure from the
    /// cached graphs (the notification names a port; routing needs the
    /// edge). Returns `None` when no cached graph contains that port —
    /// then the failure cannot affect any cached path either.
    #[must_use]
    pub fn edge_of_port(
        &self,
        sw: SwitchId,
        port: dumbnet_types::PortNo,
    ) -> Option<(SwitchId, SwitchId)> {
        for g in self.graphs.values() {
            for e in &g.edges {
                if (e.a.switch == sw && e.a.port == port) || (e.b.switch == sw && e.b.port == port)
                {
                    return Some(e.key());
                }
            }
        }
        None
    }

    /// Computes up to `k` routes (with their tag paths) for `dst` within
    /// the cached graph, avoiding down edges. Returns pairs ordered
    /// shortest-first, plus the backup path if it survives. Results are
    /// memoized until the next graph integration or edge-state change.
    #[must_use]
    pub fn k_paths(
        &mut self,
        dst: MacAddr,
        k: usize,
    ) -> Option<(Vec<CachedPath>, Option<CachedPath>)> {
        if let Some(hit) = self.k_memo.get(&(dst, k)) {
            return Some(hit.clone());
        }
        let found = extract(self.graphs.get(&dst)?, k, &self.down);
        self.k_memo.insert((dst, k), found.clone());
        Some(found)
    }

    /// [`TopoCache::k_paths`] with `avoid` masked too; not memoized, as
    /// `avoid` (a gray detector's held set) is soft state.
    #[must_use]
    pub fn k_paths_avoiding(
        &mut self,
        dst: MacAddr,
        k: usize,
        avoid: &BTreeSet<(SwitchId, SwitchId)>,
    ) -> Option<(Vec<CachedPath>, Option<CachedPath>)> {
        let masked = self.down.iter().chain(avoid).copied().collect();
        Some(extract(self.graphs.get(&dst)?, k, &masked))
    }

    /// [`PathGraph::bounce_path`] over a cached graph holding `hops`.
    #[must_use]
    pub fn bounce(&self, hops: &[SwitchId]) -> Option<Path> {
        self.graphs.values().find_map(|g| g.bounce_path(hops).ok())
    }
}

/// Up to `k` routes of `graph` avoiding `down`, with their tag paths,
/// plus the graph's backup if it survives and is not among them.
fn extract(
    graph: &PathGraph,
    k: usize,
    down: &HashSet<(SwitchId, SwitchId)>,
) -> (Vec<CachedPath>, Option<CachedPath>) {
    let routes = graph.k_shortest_within(k, down);
    let mut cached = Vec::with_capacity(routes.len());
    for r in routes {
        if let Ok(tags) = graph.tag_path(&r) {
            cached.push(CachedPath { tags, route: r });
        }
    }
    let alive = |r: &&Route| {
        r.switches()
            .windows(2)
            .all(|w| !down.contains(&norm_edge(w[0], w[1])))
    };
    let fresh = |r: &&Route| alive(r) && cached.iter().all(|c| c.route != **r);
    let backup = graph.backup.as_ref().filter(fresh).and_then(|r| {
        let tags = graph.tag_path(r).ok()?;
        Some(CachedPath {
            tags,
            route: r.clone(),
        })
    });
    (cached, backup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_topology::{generators, pathgraph, PathGraphParams};
    use dumbnet_types::HostId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn testbed_graph(src: u64, dst: u64) -> (PathGraph, MacAddr) {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(7);
        let pg = pathgraph::build(
            &g.topology,
            HostId(src),
            HostId(dst),
            &PathGraphParams::default(),
            &mut rng,
        )
        .unwrap();
        let mac = g.topology.host(HostId(dst)).unwrap().mac;
        (pg, mac)
    }

    #[test]
    fn integrate_then_query() {
        let (pg, dst) = testbed_graph(0, 26);
        let mut tc = TopoCache::new();
        assert!(tc.k_paths(dst, 4).is_none());
        tc.integrate(dst, pg, 3);
        let (paths, backup) = tc.k_paths(dst, 4).unwrap();
        assert!(paths.len() >= 2, "testbed has 2 spines: {}", paths.len());
        assert!(backup.is_some() || paths.len() >= 2);
        assert_eq!(paths[0].tags.len(), 3); // leaf→spine→leaf→host port.
    }

    #[test]
    fn down_edges_excluded_from_paths() {
        let (pg, dst) = testbed_graph(0, 26);
        let primary = pg.primary.clone();
        let mut tc = TopoCache::new();
        tc.integrate(dst, pg, 1);
        let p = primary.switches();
        assert!(tc.mark_down(p[0], p[1]));
        assert!(!tc.mark_down(p[1], p[0]), "idempotent marking");
        let (paths, _) = tc.k_paths(dst, 1).unwrap();
        assert!(paths[0]
            .route
            .switches()
            .windows(2)
            .all(|w| (w[0] != p[0] || w[1] != p[1]) && (w[0] != p[1] || w[1] != p[0])));
        tc.mark_up(p[0], p[1]);
        assert!(tc.down_edges().is_empty());
    }

    #[test]
    fn an_edge_no_graph_holds_keeps_the_memo_and_every_answer() {
        // Each link of a k = 4 fat-tree marked down on a warm cache: the
        // memo survives exactly the links the graph does not hold, and the
        // answers are those of a cache with no memo that learnt the same
        // edge the other way round.
        let g = generators::fat_tree(4, 2, None);
        let mut rng = StdRng::seed_from_u64(7);
        let params = PathGraphParams::default();
        let pg = pathgraph::build(&g.topology, HostId(0), HostId(15), &params, &mut rng).unwrap();
        let dst = pg.dst.mac;
        let mut warm = TopoCache::new();
        warm.integrate(dst, pg.clone(), 1);
        let _ = warm.k_paths(dst, 4);
        let mut kept = 0;
        for link in g.topology.links() {
            let (a, b) = (link.a.switch, link.b.switch);
            let mut marked = warm.clone();
            assert!(marked.mark_down(a, b));
            let mut cold = TopoCache::new();
            cold.integrate(dst, pg.clone(), 1);
            assert!(cold.mark_down(b, a));
            assert!(cold.k_memo.is_empty());
            assert_eq!(marked.down_edges(), cold.down_edges());
            assert_eq!(marked.k_memo.is_empty(), pg.contains_edge(a, b));
            kept += usize::from(!marked.k_memo.is_empty());
            assert_eq!(marked.k_paths(dst, 4), cold.k_paths(dst, 4), "{a}–{b}");
        }
        assert!(kept > 0 && kept < g.topology.links().count());
    }

    #[test]
    fn bounce_tags_walk_each_cached_route_out_and_back_to_the_source_port() {
        // Every host pair of the testbed, every route its TopoCache
        // offers: the bounce tags, walked hop by hop on the real
        // topology, cross the route, come back over it and end at the
        // source host's own port.
        let g = generators::testbed();
        let topo = &g.topology;
        let mut rng = StdRng::seed_from_u64(7);
        let params = PathGraphParams::default();
        for src in topo.hosts() {
            for dst in topo.hosts().filter(|d| d.id != src.id) {
                let pg = pathgraph::build(topo, src.id, dst.id, &params, &mut rng).unwrap();
                let mut tc = TopoCache::new();
                tc.integrate(dst.mac, pg, 1);
                let (paths, backup) = tc.k_paths(dst.mac, 4).unwrap();
                for p in paths.iter().chain(&backup) {
                    let hops = p.route.switches();
                    let tags = tc.bounce(hops).unwrap();
                    let (last, out) = tags.tags().split_last().unwrap();
                    let mut walked = vec![hops[0]];
                    for tag in out {
                        let port = tag.as_port().unwrap();
                        let from = *walked.last().unwrap();
                        let next = topo.neighbors(from).find(|&(q, _, _)| q == port);
                        walked.push(next.unwrap().1);
                    }
                    let there_and_back = hops.iter().chain(hops.iter().rev().skip(1));
                    assert_eq!(walked, there_and_back.copied().collect::<Vec<_>>());
                    let home = topo
                        .hosts_on(hops[0])
                        .find(|&(q, _)| Some(q) == last.as_port());
                    assert_eq!(
                        home.map(|(_, h)| h),
                        Some(src.id),
                        "{} -> {}",
                        src.id,
                        dst.id
                    );
                }
            }
        }
    }

    #[test]
    fn edge_of_port_resolution() {
        let (pg, dst) = testbed_graph(0, 26);
        let edge = pg.edges[0];
        let mut tc = TopoCache::new();
        tc.integrate(dst, pg, 1);
        let key = tc.edge_of_port(edge.a.switch, edge.a.port).unwrap();
        assert_eq!(key, edge.key());
        // A port no cached graph knows about.
        assert_eq!(
            tc.edge_of_port(SwitchId(999), dumbnet_types::PortNo::new(1).unwrap()),
            None
        );
    }

    #[test]
    fn unknown_destination_returns_none() {
        let mut tc = TopoCache::new();
        assert!(tc.k_paths(MacAddr::for_host(5), 4).is_none());
    }
}
