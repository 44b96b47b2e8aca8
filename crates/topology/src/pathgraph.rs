//! Path graphs — the paper's Algorithm 1 (§4.3).
//!
//! A path graph is the unit of caching between controller and host: a
//! subgraph of the topology containing (i) a primary shortest path,
//! (ii) *s-step, ε-good* local detours around every window of the primary
//! path, and (iii) a backup path sharing as few links with the primary as
//! possible. Hosts route within their cached path graphs and only go back
//! to the controller when the subgraph no longer connects the endpoints.
//!
//! Routing within a graph has one implementation, [`PathGraphRouter`],
//! whose tie-break is contract: the routes a host caches, and so the
//! bytes a simulated fabric carries, follow from it.
//! [`PathGraph::k_shortest_within`] builds it once and asks it per Yen
//! spur, banning and masking in its scratch instead of cloning the graph.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

use rand::Rng;
use serde::{Deserialize, Serialize};

use dumbnet_types::{heap, DumbNetError, HostId, MacAddr, Path, PortId, PortNo, Result, SwitchId};

use crate::graph::Topology;
use crate::route::Route;
use crate::spath;

/// Tunables for path-graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathGraphParams {
    /// How many alternative paths the host's PathTable extracts and
    /// caches from the subgraph.
    pub k: usize,
    /// Detour window length in hops (`s` in Algorithm 1). The paper's
    /// evaluation fixes `s = 2`.
    pub s: usize,
    /// Detour slack in hops (`ε` in Algorithm 1): a detour for a window
    /// of length `s` may be up to `s + ε` hops long.
    pub epsilon: u64,
}

impl Default for PathGraphParams {
    fn default() -> PathGraphParams {
        PathGraphParams {
            k: 4,
            s: 2,
            epsilon: 2,
        }
    }
}

/// A host endpoint of a path graph: identity plus attachment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Endpoint {
    /// Host identity.
    pub host: HostId,
    /// Host MAC address.
    pub mac: MacAddr,
    /// Switch port the host hangs off.
    pub attach: PortId,
}

/// One switch-to-switch edge of the cached subgraph, with port detail so
/// hosts can emit tag paths without consulting the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SubEdge {
    /// One endpoint.
    pub a: PortId,
    /// The other endpoint.
    pub b: PortId,
}

impl SubEdge {
    /// Normalized switch pair (lower ID first) for set keys.
    #[must_use]
    pub fn key(&self) -> (SwitchId, SwitchId) {
        let (x, y) = (self.a.switch, self.b.switch);
        if x <= y {
            (x, y)
        } else {
            (y, x)
        }
    }
}

/// The cached subgraph for one (src, dst) host pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathGraph {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// The primary (shortest) route, switch-level.
    pub primary: Route,
    /// The backup route (may be `None` in graphs with no redundancy).
    pub backup: Option<Route>,
    /// All switches in the subgraph.
    pub switches: BTreeSet<SwitchId>,
    /// All edges among subgraph switches (with port numbers).
    pub edges: Vec<SubEdge>,
}

impl PathGraph {
    /// The heap the graph holds: its routes, switch set and edge list.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.primary.heap_bytes()
            + self.backup.as_ref().map_or(0, Route::heap_bytes)
            + heap::btree_set(&self.switches)
            + heap::vec(&self.edges)
    }
}

/// Builds the path graph for `src → dst` per Algorithm 1.
///
/// # Errors
///
/// Returns [`DumbNetError::NoRoute`] when the hosts are disconnected and
/// propagates host lookup failures.
pub fn build<R: Rng>(
    topo: &Topology,
    src: HostId,
    dst: HostId,
    params: &PathGraphParams,
    rng: &mut R,
) -> Result<PathGraph> {
    let src_info = *topo.host(src)?;
    let dst_info = *topo.host(dst)?;
    let s_src = src_info.attached.switch;
    let s_dst = dst_info.attached.switch;

    // (1) Primary path: randomized shortest path. Its map of distances
    // to `s_dst` stops once `s_src`'s distance is final (all the descent
    // reads), but not before it holds every switch within s + ⌊ε/2⌋:
    // step 3 then reads it as the last window's `db`, and no switch
    // farther out than that from a window's end is admitted.
    let radius = params.s.max(1) as u64 + params.epsilon / 2;
    let to_dst = spath::distances_until(topo, s_dst, s_src, radius);
    let primary =
        spath::shortest_route_over(topo, s_src, &to_dst, rng).ok_or(DumbNetError::NoRoute {
            src: src.get(),
            dst: dst.get(),
        })?;

    // (2) Backup path: re-run with the primary's links priced above any
    // loop-free route, so they are reused only when unavoidable.
    let penalty = topo.switch_count() as u64 + 2;
    let backup = spath::shortest_route_avoiding(topo, s_src, s_dst, &primary, penalty, rng)
        // A backup identical to the primary adds nothing; drop it.
        .filter(|b| b.switches() != primary.switches());

    // (3) Local detours, Algorithm 1. For each window (a, b) of up to s
    // consecutive hops along the primary, admit every switch x with
    // dist(a, x) + dist(x, b) ≤ s + ε. Such an x is near both ends:
    // dist(x, b) ≥ dist(a, x) − dist(a, b), so 2·dist(a, x) ≤ budget +
    // dist(a, b) ≤ 2·window + ε, and likewise from b. Each primary
    // switch's map therefore stops at the largest window + ⌊ε/2⌋ over
    // the windows it bounds; it is computed at most once, when a window
    // first needs it, and dropped with this call.
    let p = primary.switches();
    let l = p.len() - 1; // Number of hops.
    let s_win = params.s.max(1);
    let step = (s_win / 2).max(1);
    let windows = || (0..l).step_by(step).map(|i| (i, (i + s_win).min(l)));
    let mut reach = vec![0u64; p.len()];
    for (i, j) in windows() {
        for ix in [i, j] {
            reach[ix] = reach[ix].max((j - i) as u64 + params.epsilon / 2);
        }
    }
    let mut admitted = vec![false; topo.switch_count()];
    for sw in p {
        admitted[sw.get() as usize] = true;
    }
    let mut maps: Vec<Option<spath::DistanceMap>> = vec![None; p.len()];
    maps[l] = Some(to_dst);
    for (i, j) in windows() {
        for ix in [i, j] {
            maps[ix].get_or_insert_with(|| spath::distances_within(topo, p[ix], reach[ix]));
        }
        let (Some(da), Some(db)) = (&maps[i], &maps[j]) else {
            unreachable!("both filled above");
        };
        let budget = (j - i) as u64 + params.epsilon;
        for (x, dax) in da.reachable() {
            if let Some(dxb) = db.dist(x) {
                if dax + dxb <= budget {
                    admitted[x.get() as usize] = true;
                }
            }
        }
    }
    if let Some(b) = &backup {
        for sw in b.switches() {
            admitted[sw.get() as usize] = true;
        }
    }

    // (4) Materialize the induced subgraph with port detail. The walk is
    // in ascending switch, then port, order — ascending `PortId` — so a
    // link between two admitted switches is first seen from its lower
    // end, a loop-back cable included: pushing it there and only there
    // lists every link once, in first-sight order. Each such link has
    // two port ends among the admitted switches, so half their count
    // sizes the list exactly: a cached graph holds no growth slack.
    let switches: BTreeSet<SwitchId> = (0u64..)
        .zip(&admitted)
        .filter(|&(_, &is_in)| is_in)
        .map(|(ix, _)| SwitchId::new(ix))
        .collect();
    let inside = |sw: &SwitchId| admitted[sw.get() as usize];
    let ends: usize = switches
        .iter()
        .map(|&sw| topo.peers(sw).filter(inside).count())
        .sum();
    let mut edges = Vec::with_capacity(ends / 2);
    for &sw in &switches {
        for (port, nb, lid) in topo.neighbors(sw) {
            if !admitted[nb.get() as usize] {
                continue;
            }
            let link = topo.link(lid)?;
            let (a, b) = if link.a <= link.b {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            if PortId::new(sw, port) == a {
                edges.push(SubEdge { a, b });
            }
        }
    }
    debug_assert_eq!(edges.len(), edges.capacity());

    Ok(PathGraph {
        src: Endpoint {
            host: src,
            mac: src_info.mac,
            attach: src_info.attached,
        },
        dst: Endpoint {
            host: dst,
            mac: dst_info.mac,
            attach: dst_info.attached,
        },
        primary,
        backup,
        switches,
        edges,
    })
}

impl PathGraph {
    /// Number of switches cached (the Figure 12 metric).
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of subgraph edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Up to `k` shortest loopless routes within the subgraph, avoiding
    /// `down` edges (small-scale Yen; see [`PathGraphRouter`] for the
    /// order). One router serves the first route and every spur.
    #[must_use]
    pub fn k_shortest_within(&self, k: usize, down: &HashSet<(SwitchId, SwitchId)>) -> Vec<Route> {
        let mut router = self.router();
        router.seed_down(down);
        router.k_shortest(k)
    }

    /// Converts a switch-level route from this graph into the tag path a
    /// packet must carry, using the subgraph's own port map.
    ///
    /// # Errors
    ///
    /// Fails if the route endpoints don't match the cached endpoints or
    /// the route uses an edge absent from the subgraph.
    pub fn tag_path(&self, route: &Route) -> Result<Path> {
        if route.first() != self.src.attach.switch {
            return Err(DumbNetError::PathRejected(format!(
                "route starts at {}, source attaches to {}",
                route.first(),
                self.src.attach.switch
            )));
        }
        if route.last() != self.dst.attach.switch {
            return Err(DumbNetError::PathRejected(format!(
                "route ends at {}, destination attaches to {}",
                route.last(),
                self.dst.attach.switch
            )));
        }
        let hops = route.switches().windows(2).map(|w| (w[0], w[1]));
        self.ports(hops, self.dst.attach.port)
    }

    /// The tags of a closed walk from the source host: out over `hops`
    /// (the source's switch first), back over the same links — the last
    /// switch sends the frame out its ingress port — and into the
    /// source's own port.
    ///
    /// # Errors
    ///
    /// Fails if `hops` uses an edge absent from the subgraph.
    pub fn bounce_path(&self, hops: &[SwitchId]) -> Result<Path> {
        let out = hops.windows(2).map(|w| (w[0], w[1]));
        let back = out.clone().rev().map(|(a, b)| (b, a));
        self.ports(out.chain(back), self.src.attach.port)
    }

    /// The tags that leave each `(from, to)` hop by the cached edge's
    /// port, then `last`.
    fn ports(
        &self,
        hops: impl Iterator<Item = (SwitchId, SwitchId)>,
        last: PortNo,
    ) -> Result<Path> {
        let mut path = Path::empty();
        for (from, to) in hops {
            let port = |e: &SubEdge| match (e.a.switch, e.b.switch) {
                (a, b) if (a, b) == (from, to) => Some(e.a.port),
                (a, b) if (b, a) == (from, to) => Some(e.b.port),
                _ => None,
            };
            let port = self.edges.iter().find_map(port).ok_or_else(|| {
                DumbNetError::PathRejected(format!("edge {from} → {to} not cached"))
            })?;
            path = path.push(port.into())?;
        }
        path.push(last.into())
    }

    /// Returns `true` if the subgraph contains an (up) edge between the
    /// two switches.
    #[must_use]
    pub fn contains_edge(&self, a: SwitchId, b: SwitchId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.edges.iter().any(|e| e.key() == key)
    }

    /// Materializes the find-path engine over this subgraph: dense
    /// node indices, flat adjacency and preallocated scratch, so the
    /// spurs of one [`PathGraph::k_shortest_within`] — or repeated
    /// queries against one cached graph, Table 2's "Find Path" — rebuild
    /// nothing.
    #[must_use]
    pub fn router(&self) -> PathGraphRouter {
        // Only `edges` and the two attachment switches decide routes;
        // `switches` is the cache-size bookkeeping of Figure 12.
        let ends = (self.src.attach.switch, self.dst.attach.switch);
        let pairs = self.edges.iter().map(|e| (e.a.switch, e.b.switch));
        let mut nodes: Vec<SwitchId> = pairs
            .clone()
            .flat_map(|(a, b)| [a, b])
            .chain([ends.0, ends.1])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        PathGraphRouter::new(nodes, pairs, ends)
    }
}

/// Computes up to `k` shortest loopless switch routes from `src` to
/// `dst` over the topology's up links, ordered by non-decreasing hop
/// count: Yen's algorithm on a [`PathGraphRouter`] whose graph is the
/// whole fabric, so the order is [`PathGraph::k_shortest_within`]'s.
///
/// Returns fewer than `k` routes when the graph does not contain that
/// many distinct simple paths, and an empty vector when `dst` is
/// unreachable or either ID is not a switch of `topo`.
///
/// # Examples
///
/// ```
/// use dumbnet_topology::{generators, k_shortest_routes};
///
/// let g = generators::leaf_spine(2, 2, 0, 8);
/// let leaves = g.group("leaf");
/// let routes = k_shortest_routes(&g.topology, leaves[0], leaves[1], 4);
/// // Two spines give exactly two 2-hop paths.
/// assert_eq!(routes.len(), 2);
/// assert!(routes.iter().all(|r| r.link_hops() == 2));
/// ```
#[must_use]
pub fn k_shortest_routes(topo: &Topology, src: SwitchId, dst: SwitchId, k: usize) -> Vec<Route> {
    let n = topo.switch_count();
    if src.get() as usize >= n || dst.get() as usize >= n {
        return Vec::new();
    }
    let nodes = topo.switches().map(|s| s.id).collect();
    let up = topo.links().filter(|l| l.up);
    PathGraphRouter::new(nodes, up.map(|l| (l.a.switch, l.b.switch)), (src, dst)).k_shortest(k)
}

/// The one find-path implementation, over a cached path graph (see
/// [`PathGraph::router`]) or a whole fabric ([`k_shortest_routes`]):
/// [`PathGraphRouter::shortest`] and every route and spur of Yen's
/// algorithm are this breadth-first search and therefore share its
/// tie-break, which is contract — cached routes, and so simulated bytes,
/// depend on it: hops cost one; among equally short routes each switch
/// is entered from its lowest-`SwitchId` predecessor one level closer to
/// the start (nodes are indexed in `SwitchId` order, so that is the
/// lowest index); the search stops when the destination pops.
///
/// Yen's route 0 is that search's answer, which need not be the least
/// switch sequence of its length. Each later route is the least
/// `(hops, switch sequence)` among the candidates the spurs have found.
#[derive(Debug, Clone)]
pub struct PathGraphRouter {
    /// Switches in ascending order; a node's index is its position.
    nodes: Vec<SwitchId>,
    src: u32,
    dst: u32,
    /// Node `u`'s arcs are `arcs[first[u]..first[u + 1]]`, each a
    /// `(neighbour, edge)` pair; parallel links are distinct edges.
    first: Vec<u32>,
    arcs: Vec<(u32, u32)>,
    /// Per edge: marked down by the last [`Self::seed_down`].
    down: Vec<bool>,
    /// Per edge: what the search may not cross (`down` plus Yen's bans).
    banned: Vec<bool>,
    /// Per node: what the search may not enter (Yen's root prefix).
    masked: Vec<bool>,
    dist: Vec<u32>,
    prev: Vec<u32>,
    queue: Vec<u32>,
}

impl PathGraphRouter {
    /// The router over `nodes` (ascending, holding every end of `edges`
    /// and both of `ends`) and the switch-pair `edges`, numbered in the
    /// order listed; routes run from `ends.0` to `ends.1`.
    fn new(
        nodes: Vec<SwitchId>,
        edges: impl Iterator<Item = (SwitchId, SwitchId)>,
        ends: (SwitchId, SwitchId),
    ) -> PathGraphRouter {
        let index = |s: SwitchId| nodes.binary_search(&s).expect("a listed node") as u32;
        // Both directions of every edge as `(from, to, edge)`, in that
        // sort order — it is the search's tie-break — by two stable
        // counting passes over arcs listed in edge order: by `to`, then
        // by `from`. Every edge end is once a `from` and once a `to`, so
        // one table of group starts, `first`, serves both passes.
        let directed: Vec<(u32, u32, u32)> = (0u32..)
            .zip(edges)
            .flat_map(|(e, (a, b))| {
                let (a, b) = (index(a), index(b));
                [(a, b, e), (b, a, e)]
            })
            .collect();
        assert!(
            nodes.len().max(directed.len()) < u32::MAX as usize,
            "path graph outgrew u32 indices"
        );
        let mut first = vec![0u32; nodes.len() + 1];
        for &(from, ..) in &directed {
            first[from as usize + 1] += 1;
        }
        for u in 0..nodes.len() {
            first[u + 1] += first[u];
        }
        let mut at = first.clone();
        let mut by_to = vec![(0, 0, 0); directed.len()];
        for &arc in &directed {
            let slot = &mut at[arc.1 as usize];
            by_to[*slot as usize] = arc;
            *slot += 1;
        }
        at.copy_from_slice(&first);
        let mut arcs = vec![(0, 0); directed.len()];
        for &(from, to, e) in &by_to {
            let slot = &mut at[from as usize];
            arcs[*slot as usize] = (to, e);
            *slot += 1;
        }
        let edge_count = directed.len() / 2;
        PathGraphRouter {
            src: index(ends.0),
            dst: index(ends.1),
            first,
            arcs,
            down: vec![false; edge_count],
            banned: vec![false; edge_count],
            masked: vec![false; nodes.len()],
            dist: vec![u32::MAX; nodes.len()],
            prev: vec![u32::MAX; nodes.len()],
            queue: Vec::with_capacity(nodes.len()),
            nodes,
        }
    }

    /// Finds the shortest route from the cached source switch to the
    /// cached destination switch, avoiding `down` edges.
    #[must_use]
    pub fn shortest(&mut self, down: &HashSet<(SwitchId, SwitchId)>) -> Option<Route> {
        self.seed_down(down);
        let mut route = Vec::new();
        self.find(self.src, &mut route)
            .then(|| self.route_of(&route))
    }

    /// Sets the edge masks to exactly the links `down` names.
    fn seed_down(&mut self, down: &HashSet<(SwitchId, SwitchId)>) {
        self.banned.fill(false);
        for &(a, b) in down {
            if let (Ok(a), Ok(b)) = (self.nodes.binary_search(&a), self.nodes.binary_search(&b)) {
                self.ban_pair(a as u32, b as u32);
            }
        }
        self.down.copy_from_slice(&self.banned);
    }

    /// Bans every (parallel) edge between nodes `a` and `b`.
    fn ban_pair(&mut self, a: u32, b: u32) {
        for i in self.first[a as usize]..self.first[a as usize + 1] {
            let (to, e) = self.arcs[i as usize];
            self.banned[e as usize] |= to == b;
        }
    }

    /// Up to `k` shortest loopless routes past the edges the last
    /// [`Self::seed_down`] marked (Yen), banning and masking in this
    /// router's scratch per spur instead of rebuilding the graph.
    fn k_shortest(&mut self, k: usize) -> Vec<Route> {
        // Routes are node-index sequences until the end: indices follow
        // `SwitchId` order, so they compare as the switch sequences do.
        let mut first = Vec::new();
        if k == 0 || !self.find(self.src, &mut first) {
            return Vec::new();
        }
        let mut seen: HashSet<Vec<u32>> = HashSet::from([first.clone()]);
        let mut results = vec![first];
        let mut candidates: BinaryHeap<Reverse<(usize, Vec<u32>)>> = BinaryHeap::new();
        while results.len() < k {
            let last = results.last().expect("non-empty");
            for spur_ix in 0..last.len() - 1 {
                let (root, spur) = (&last[..spur_ix], last[spur_ix]);
                // Ban the next hop of every known route sharing this root
                // and the switches of the root itself, then reroute.
                self.banned.copy_from_slice(&self.down);
                for r in results
                    .iter()
                    .chain(candidates.iter().map(|Reverse((_, r))| r))
                {
                    if r.len() > spur_ix + 1 && r[..=spur_ix] == last[..=spur_ix] {
                        self.ban_pair(spur, r[spur_ix + 1]);
                    }
                }
                if let Some(&joined) = root.last() {
                    self.masked[joined as usize] = true;
                }
                let mut total = root.to_vec();
                if self.find(spur, &mut total) && !seen.contains(&total) {
                    seen.insert(total.clone());
                    candidates.push(Reverse((total.len(), total)));
                }
            }
            self.masked.fill(false);
            match candidates.pop() {
                Some(Reverse((_, next))) => results.push(next),
                None => break,
            }
        }
        results.iter().map(|r| self.route_of(r)).collect()
    }

    /// Appends the shortest `from → dst` route, as node indices, to
    /// `route`; `false` (and `route` untouched) when `dst` cannot be
    /// reached past the banned edges and masked nodes.
    fn find(&mut self, from: u32, route: &mut Vec<u32>) -> bool {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[from as usize] = 0;
        self.queue.push(from);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            if u == self.dst {
                break;
            }
            head += 1;
            let level = self.dist[u as usize] + 1;
            for i in self.first[u as usize]..self.first[u as usize + 1] {
                let (v, e) = self.arcs[i as usize];
                // Settled closer to the start (most arcs), or off limits.
                let seen = self.dist[v as usize];
                if seen < level || self.banned[e as usize] || self.masked[v as usize] {
                    continue;
                }
                if seen == u32::MAX {
                    self.dist[v as usize] = level;
                    self.prev[v as usize] = u;
                    self.queue.push(v);
                } else if u < self.prev[v as usize] {
                    self.prev[v as usize] = u;
                }
            }
        }
        if self.dist[self.dst as usize] == u32::MAX {
            return false;
        }
        let at = route.len();
        let mut cur = self.dst;
        route.push(cur);
        while cur != from {
            cur = self.prev[cur as usize];
            route.push(cur);
        }
        route[at..].reverse();
        true
    }

    fn route_of(&self, indices: &[u32]) -> Route {
        Route::new(indices.iter().map(|&i| self.nodes[i as usize]).collect())
            .expect("a found route is non-empty and never repeats a switch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, fixtures};
    use dumbnet_types::{norm_edge, PortNo};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn params(s: usize, epsilon: u64) -> PathGraphParams {
        PathGraphParams { k: 4, s, epsilon }
    }

    #[test]
    fn testbed_pathgraph_has_detours_and_backup() {
        let g = generators::testbed();
        let t = &g.topology;
        let mut rng = StdRng::seed_from_u64(11);
        // Hosts 0 and 26 are on different leaves.
        let pg = build(t, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        assert_eq!(pg.primary.link_hops(), 2);
        let backup = pg.backup.as_ref().expect("testbed has redundancy");
        // Backup must not share the middle (spine) switch with primary.
        assert_ne!(backup.switches()[1], pg.primary.switches()[1]);
        // With ε=2 both spines and several leaves are cached.
        assert!(pg.switch_count() >= 4, "only {} cached", pg.switch_count());
    }

    #[test]
    fn primary_always_in_subgraph() {
        let g = generators::fat_tree(4, 2, None);
        let mut rng = StdRng::seed_from_u64(5);
        let pg = build(&g.topology, HostId(0), HostId(15), &params(2, 1), &mut rng).unwrap();
        for s in pg.primary.switches() {
            assert!(pg.switches.contains(s));
        }
        for w in pg.primary.switches().windows(2) {
            assert!(pg.contains_edge(w[0], w[1]));
        }
    }

    #[test]
    fn subgraph_grows_with_epsilon() {
        let g = generators::cube(&[5, 5, 5], 1, 16);
        let mut last = 0;
        for eps in [0u64, 1, 2, 3] {
            // Fresh identically-seeded RNG per build so the primary path
            // is the same and only ε varies.
            let mut rng = StdRng::seed_from_u64(9);
            let pg = build(
                &g.topology,
                HostId(0),
                HostId(124),
                &params(2, eps),
                &mut rng,
            )
            .unwrap();
            assert!(
                pg.switch_count() >= last,
                "ε={eps}: {} < {last}",
                pg.switch_count()
            );
            last = pg.switch_count();
        }
    }

    #[test]
    fn failover_within_subgraph() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(3);
        let pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        // Kill the primary's first link; a route must still exist inside
        // the cached subgraph.
        let p = pg.primary.switches();
        let mut down = HashSet::new();
        let key = if p[0] <= p[1] {
            (p[0], p[1])
        } else {
            (p[1], p[0])
        };
        down.insert(key);
        let alt = pg.shortest_within(&down).expect("detour exists");
        assert!(alt
            .switches()
            .windows(2)
            .all(|w| (w[0], w[1]) != (p[0], p[1]) && (w[1], w[0]) != (p[0], p[1])));
    }

    #[test]
    fn tag_path_round_trips_through_real_topology() {
        let g = generators::testbed();
        let t = &g.topology;
        let mut rng = StdRng::seed_from_u64(17);
        let pg = build(t, HostId(2), HostId(20), &params(2, 2), &mut rng).unwrap();
        let tags = pg.tag_path(&pg.primary).unwrap();
        // Independently derive via the full topology; they must agree.
        let expect = pg.primary.to_tag_path(t, HostId(2), HostId(20)).unwrap();
        assert_eq!(tags, expect);
    }

    #[test]
    fn k_shortest_within_uses_detours() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(23);
        let pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        let routes = pg.k_shortest_within(4, &HashSet::new());
        assert!(routes.len() >= 2, "got {}", routes.len());
        assert_eq!(routes[0].link_hops(), 2);
        assert_eq!(routes[1].link_hops(), 2);
        let set: HashSet<_> = routes.iter().map(|r| r.switches().to_vec()).collect();
        assert_eq!(set.len(), routes.len());
    }

    #[test]
    fn same_leaf_pair_single_switch_graph() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(29);
        // Hosts 0 and 1 share leaf 0.
        let pg = build(&g.topology, HostId(0), HostId(1), &params(2, 2), &mut rng).unwrap();
        assert_eq!(pg.primary.link_hops(), 0);
        let tags = pg.tag_path(&pg.primary).unwrap();
        assert_eq!(tags.len(), 1);
    }

    #[test]
    fn no_route_between_disconnected_hosts() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let ha = t.add_host_auto(a).unwrap();
        let hb = t.add_host_auto(b).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            build(&t, ha, hb, &PathGraphParams::default(), &mut rng),
            Err(DumbNetError::NoRoute { .. })
        ));
    }

    impl PathGraph {
        /// Shortest route within the subgraph avoiding `down`, from a
        /// freshly built router: the reference a reused
        /// [`PathGraphRouter::shortest`] must match.
        fn shortest_within(&self, down: &HashSet<(SwitchId, SwitchId)>) -> Option<Route> {
            self.router().shortest(down)
        }
    }

    #[test]
    fn router_agrees_with_shortest_within() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(31);
        let pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        let mut router = pg.router();
        let none = HashSet::new();
        assert_eq!(router.shortest(&none), pg.shortest_within(&none));
        // A down edge on every position of the primary: one reused
        // router answers as a freshly built one does, and detours.
        for w in pg.primary.switches().windows(2) {
            let down = HashSet::from([norm_edge(w[0], w[1])]);
            let b = router.shortest(&down).expect("detour exists");
            assert_eq!(Some(&b), pg.shortest_within(&down).as_ref());
            assert!(b
                .switches()
                .windows(2)
                .all(|h| norm_edge(h[0], h[1]) != norm_edge(w[0], w[1])));
            assert!(b.is_valid_in(&g.topology));
        }
        // Reusable: the down set of the last query leaves no trace.
        assert_eq!(router.shortest(&none), pg.shortest_within(&none));
    }

    /// The find-path this module shipped before the dense core, kept
    /// verbatim as the reference the core is compared against: a
    /// `BTreeMap` adjacency rebuilt per query and a `(distance,
    /// SwitchId)` Dijkstra whose pop order is the tie-break contract.
    fn oracle_shortest_within(
        pg: &PathGraph,
        down: &HashSet<(SwitchId, SwitchId)>,
    ) -> Option<Route> {
        let mut adj: BTreeMap<SwitchId, Vec<SwitchId>> = BTreeMap::new();
        for e in &pg.edges {
            if down.contains(&e.key()) {
                continue;
            }
            adj.entry(e.a.switch).or_default().push(e.b.switch);
            adj.entry(e.b.switch).or_default().push(e.a.switch);
        }
        let src = pg.src.attach.switch;
        let dst = pg.dst.attach.switch;
        if src == dst {
            return Route::new(vec![src]).ok();
        }
        let mut dist: BTreeMap<SwitchId, u64> = BTreeMap::new();
        let mut prev: BTreeMap<SwitchId, SwitchId> = BTreeMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(src, 0);
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > *dist.get(&u).unwrap_or(&u64::MAX) {
                continue;
            }
            if u == dst {
                break;
            }
            if let Some(nexts) = adj.get(&u) {
                for &v in nexts {
                    let nd = d + 1;
                    if nd < *dist.get(&v).unwrap_or(&u64::MAX) {
                        dist.insert(v, nd);
                        prev.insert(v, u);
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        dist.get(&dst)?;
        let mut route = vec![dst];
        let mut cur = dst;
        while let Some(&p) = prev.get(&cur) {
            route.push(p);
            cur = p;
        }
        route.reverse();
        Route::new(route).ok()
    }

    /// The former Yen loop over [`oracle_shortest_within`], verbatim: a
    /// cloned graph re-rooted at the spur node, a cloned `down` set
    /// grown by the bans, root switches banned through their edges.
    fn oracle_k_shortest_within(
        pg: &PathGraph,
        k: usize,
        down: &HashSet<(SwitchId, SwitchId)>,
    ) -> Vec<Route> {
        if k == 0 {
            return Vec::new();
        }
        let mut results: Vec<Route> = Vec::new();
        let Some(first) = oracle_shortest_within(pg, down) else {
            return results;
        };
        results.push(first);
        let mut candidates: BinaryHeap<Reverse<(usize, Vec<SwitchId>)>> = BinaryHeap::new();
        let mut seen: HashSet<Vec<SwitchId>> =
            results.iter().map(|r| r.switches().to_vec()).collect();
        while results.len() < k {
            let last = results.last().expect("non-empty").switches().to_vec();
            for spur_ix in 0..last.len().saturating_sub(1) {
                let root = &last[..=spur_ix];
                let mut banned: HashSet<(SwitchId, SwitchId)> = down.clone();
                for r in results
                    .iter()
                    .map(Route::switches)
                    .chain(candidates.iter().map(|c| c.0 .1.as_slice()))
                {
                    if r.len() > spur_ix && r[..=spur_ix] == *root {
                        banned.insert(norm_edge(r[spur_ix], r[spur_ix + 1]));
                    }
                }
                let root_nodes: HashSet<SwitchId> = root[..spur_ix].iter().copied().collect();
                let sub = PathGraph {
                    src: Endpoint {
                        attach: PortId::new(root[spur_ix], pg.src.attach.port),
                        ..pg.src
                    },
                    ..pg.clone()
                };
                for e in &pg.edges {
                    let (x, y) = e.key();
                    if root_nodes.contains(&x) || root_nodes.contains(&y) {
                        banned.insert((x, y));
                    }
                }
                if let Some(spur) = oracle_shortest_within(&sub, &banned) {
                    let mut total = root[..spur_ix].to_vec();
                    total.extend(spur.switches());
                    if total.windows(2).all(|w| w[0] != w[1]) && seen.insert(total.clone()) {
                        candidates.push(Reverse((total.len(), total)));
                    }
                }
            }
            match candidates.pop() {
                Some(Reverse((_, next))) => {
                    if let Ok(r) = Route::new(next) {
                        if r.is_simple() {
                            results.push(r);
                        }
                    }
                }
                None => break,
            }
        }
        results
    }

    /// The router's adjacency as it was built before the counting
    /// passes — both directions of every edge, comparison-sorted as
    /// `(from, to, edge)` — against what [`PathGraph::router`] holds,
    /// element for element: arc order is the search's tie-break.
    fn assert_adjacency_is_the_sorted_one(pg: &PathGraph) {
        let router = pg.router();
        let index = |s: SwitchId| router.nodes.binary_search(&s).expect("an edge end") as u32;
        let mut arcs: Vec<(u32, u32, u32)> = (0u32..)
            .zip(&pg.edges)
            .flat_map(|(e, edge)| {
                let (a, b) = (index(edge.a.switch), index(edge.b.switch));
                [(a, b, e), (b, a, e)]
            })
            .collect();
        arcs.sort_unstable();
        let first: Vec<u32> = (0..=router.nodes.len() as u32)
            .map(|u| arcs.partition_point(|arc| arc.0 < u) as u32)
            .collect();
        let arcs: Vec<(u32, u32)> = arcs.into_iter().map(|(_, to, e)| (to, e)).collect();
        assert_eq!(router.first, first, "{:?} → {:?}", pg.src.host, pg.dst.host);
        assert_eq!(router.arcs, arcs, "{:?} → {:?}", pg.src.host, pg.dst.host);
    }

    /// New vs oracle on one graph: nothing down, each subgraph edge
    /// down, each pair of primary edges down; k ∈ {1, 2, 4, 8}.
    fn assert_matches_oracle(pg: &PathGraph) -> usize {
        assert_adjacency_is_the_sorted_one(pg);
        let primary: Vec<_> = pg
            .primary
            .switches()
            .windows(2)
            .map(|w| norm_edge(w[0], w[1]))
            .collect();
        let mut downs: Vec<HashSet<(SwitchId, SwitchId)>> = vec![HashSet::new()];
        downs.extend(pg.edges.iter().map(|e| HashSet::from([e.key()])));
        for (i, &a) in primary.iter().enumerate() {
            downs.extend(primary[i + 1..].iter().map(|&b| HashSet::from([a, b])));
        }
        for down in &downs {
            assert_eq!(
                pg.shortest_within(down),
                oracle_shortest_within(pg, down),
                "{:?} → {:?}, down {down:?}",
                pg.src.host,
                pg.dst.host
            );
            for k in [1, 2, 4, 8] {
                assert_eq!(
                    pg.k_shortest_within(k, down),
                    oracle_k_shortest_within(pg, k, down),
                    "{:?} → {:?}, k {k}, down {down:?}",
                    pg.src.host,
                    pg.dst.host
                );
            }
        }
        downs.len()
    }

    /// Every `stride`-th ordered host pair of `topo`, ε ∈ {0, 1, 2}.
    fn differential(topo: &Topology, stride: usize) {
        let hosts: Vec<HostId> = topo.hosts().map(|h| h.id).collect();
        let mut rng = StdRng::seed_from_u64(18);
        let (mut pairs, mut cases) = (0usize, 0usize);
        for (n, (&a, &b)) in hosts
            .iter()
            .flat_map(|a| hosts.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .enumerate()
        {
            if n % stride != 0 {
                continue;
            }
            for eps in [0, 1, 2] {
                let pg = build(topo, a, b, &params(2, eps), &mut rng).unwrap();
                cases += assert_matches_oracle(&pg);
            }
            pairs += 1;
        }
        assert!(
            pairs > 0 && cases > 3 * pairs,
            "{pairs} pairs, {cases} cases"
        );
    }

    /// `build` as it was before it shared, bounded or stopped anything:
    /// one whole-fabric BFS for the primary and two more per window, the
    /// heap Dijkstra with a hash set under its cost closure for the
    /// backup, ordered sets for admission and for the links already
    /// listed. Kept as the oracle; its primary descends over the
    /// whole-fabric map, where `shortest_route` stops at its source.
    fn oracle_build<R: Rng>(
        topo: &Topology,
        src: HostId,
        dst: HostId,
        params: &PathGraphParams,
        rng: &mut R,
    ) -> Result<PathGraph> {
        let src_info = *topo.host(src)?;
        let dst_info = *topo.host(dst)?;
        let s_src = src_info.attached.switch;
        let s_dst = dst_info.attached.switch;

        // (1) Primary path: randomized shortest path over the whole map.
        let to_dst = spath::distances(topo, s_dst);
        let primary =
            spath::shortest_route_over(topo, s_src, &to_dst, rng).ok_or(DumbNetError::NoRoute {
                src: src.get(),
                dst: dst.get(),
            })?;

        // (2) Backup path: re-run with primary links inflated so they are
        // reused only when unavoidable.
        let primary_links: HashSet<(SwitchId, SwitchId)> = primary
            .switches()
            .windows(2)
            .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
            .collect();
        let penalty = topo.switch_count() as u64 + 2;
        let backup = spath::shortest_route_weighted(
            topo,
            s_src,
            s_dst,
            |e| {
                if primary_links.contains(&e) {
                    penalty
                } else {
                    1
                }
            },
            rng,
        )
        // A backup identical to the primary adds nothing; drop it.
        .filter(|b| b.switches() != primary.switches());

        // (3) Local detours, Algorithm 1. For each window (a, b) of up to s
        // consecutive hops along the primary, admit every switch x with
        // dist(a, x) + dist(x, b) ≤ s + ε.
        let p = primary.switches();
        let l = p.len() - 1; // Number of hops.
        let s_win = params.s.max(1);
        let mut detour: BTreeSet<SwitchId> = p.iter().copied().collect();
        let step = (s_win / 2).max(1);
        let mut i = 0usize;
        while i < l {
            let a = p[i];
            let b = p[(i + s_win).min(l)];
            let window_len = (i + s_win).min(l) - i;
            let da = spath::distances(topo, a);
            let db = spath::distances(topo, b);
            let budget = window_len as u64 + params.epsilon;
            for (x, dax) in da.reachable() {
                if let Some(dxb) = db.dist(x) {
                    if dax + dxb <= budget {
                        detour.insert(x);
                    }
                }
            }
            i += step;
        }
        if let Some(b) = &backup {
            detour.extend(b.switches().iter().copied());
        }

        // (4) Materialize the induced subgraph with port detail.
        let mut edges = Vec::new();
        let mut seen: BTreeSet<(PortId, PortId)> = BTreeSet::new();
        for &sw in &detour {
            for (port, nb, lid) in topo.neighbors(sw) {
                if !detour.contains(&nb) {
                    continue;
                }
                let link = topo.link(lid)?;
                let (a, b) = if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                };
                if seen.insert((a, b)) {
                    edges.push(SubEdge { a, b });
                }
                let _ = port;
            }
        }

        Ok(PathGraph {
            src: Endpoint {
                host: src,
                mac: src_info.mac,
                attach: src_info.attached,
            },
            dst: Endpoint {
                host: dst,
                mac: dst_info.mac,
                attach: dst_info.attached,
            },
            primary,
            backup,
            switches: detour,
            edges,
        })
    }

    /// `build` against `oracle_build` for `pairs` of `topo`, s ∈ {1, 2,
    /// 3} and ε ∈ 0..=5 (odd ε exercises the floor in the scan bound,
    /// large ε a primary map that must stay whole past its source):
    /// whole `PathGraph` values and the RNG left in the same state —
    /// intact, then again with the first primary link failed.
    fn build_differential(topo: &Topology, pairs: impl IntoIterator<Item = (HostId, HostId)>) {
        let (mut rng, mut oracle_rng) = (StdRng::seed_from_u64(19), StdRng::seed_from_u64(19));
        let mut degraded = topo.clone();
        let mut built = 0usize;
        for (a, b) in pairs {
            for (s, eps) in [1, 2, 3]
                .into_iter()
                .flat_map(|s| (0..=5).map(move |eps| (s, eps)))
            {
                let pg = build(topo, a, b, &params(s, eps), &mut rng).unwrap();
                let want = oracle_build(topo, a, b, &params(s, eps), &mut oracle_rng).unwrap();
                assert_eq!(pg, want, "{a} → {b}, s {s}, ε {eps}");
                assert_adjacency_is_the_sorted_one(&pg);
                let Some(w) = pg.primary.switches().windows(2).next() else {
                    continue;
                };
                let cut = topo.link_between(w[0], w[1]).expect("primary link").id;
                let was = degraded.set_link_state(cut, false).unwrap();
                assert_eq!(
                    build(&degraded, a, b, &params(s, eps), &mut rng).ok(),
                    oracle_build(&degraded, a, b, &params(s, eps), &mut oracle_rng).ok(),
                    "{a} → {b}, s {s}, ε {eps}, {cut} down"
                );
                degraded.set_link_state(cut, was).unwrap();
            }
            built += 1;
        }
        assert!(built > 0);
        assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }

    /// Every `stride`-th ordered pair of distinct hosts.
    fn host_pairs(topo: &Topology, stride: usize) -> Vec<(HostId, HostId)> {
        let hosts: Vec<HostId> = topo.hosts().map(|h| h.id).collect();
        hosts
            .iter()
            .flat_map(|&a| hosts.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .step_by(stride)
            .collect()
    }

    #[test]
    fn build_matches_the_oracle_on_the_testbed() {
        let t = generators::testbed().topology;
        build_differential(&t, host_pairs(&t, 1));
    }

    #[test]
    fn build_matches_the_oracle_on_fat_tree_k8_sampled() {
        let t = generators::fat_tree(8, 4, None).topology;
        build_differential(&t, host_pairs(&t, 97));
    }

    #[test]
    fn build_matches_the_oracle_on_irregular_graphs() {
        // A fat-tree with a failed trunk and an unwired switch, a 4 × 4
        // mesh, and a sparse random graph whose diameter is well past
        // any window's reach.
        let fat = fixtures::degraded_fat_tree();
        build_differential(&fat, host_pairs(&fat, 1));
        let mesh = generators::cube(&[4, 4], 1, 8).topology;
        build_differential(&mesh, host_pairs(&mesh, 1));
        let mut rng = StdRng::seed_from_u64(23);
        let sparse = generators::random_regular(24, 3, 1, 8, &mut rng).topology;
        build_differential(&sparse, host_pairs(&sparse, 1));
    }

    #[test]
    fn build_matches_the_oracle_on_the_stop_rule_graphs() {
        // The four graphs `spath` holds its stopped searches to whole
        // ones on that the tests above do not build on: both pairs of
        // the tie, every 3rd pair of the fat-tree, every 5th of the
        // doubled random graph and every 23rd of the 4 × 4 × 4 mesh (the
        // primes walk every offset).
        let [.., tie, doubled, trunk_down, mesh] = fixtures::stop_rule_graphs();
        build_differential(&tie, host_pairs(&tie, 1));
        build_differential(&trunk_down, host_pairs(&trunk_down, 3));
        build_differential(&doubled, host_pairs(&doubled, 5));
        build_differential(&mesh, host_pairs(&mesh, 23));
    }

    #[test]
    fn build_matches_the_oracle_past_a_bridge_and_a_loop_back() {
        // The `b – c` hop of the line is a bridge, so the backup pays
        // the penalty and is the primary again. The loop-back on `c` is
        // listed once, from its lower port.
        let t = fixtures::awkward_line();
        let (ha, hd) = (HostId(0), HostId(1));
        build_differential(&t, [(ha, hd), (hd, ha)]);
        let mut rng = StdRng::seed_from_u64(2);
        let pg = build(&t, ha, hd, &params(2, 2), &mut rng).unwrap();
        assert_eq!(pg.backup, None);
        let loop_back: Vec<&SubEdge> = pg
            .edges
            .iter()
            .filter(|e| e.a.switch == e.b.switch)
            .collect();
        assert_eq!(loop_back.len(), 1);
        assert!(loop_back[0].a.port < loop_back[0].b.port);
        assert_eq!(pg.edges.len(), 5);
    }

    #[test]
    fn build_matches_the_oracle_on_fat_tree_k32() {
        // The `hybrid_incast` fabric: one cross-pod, one intra-pod and
        // one same-switch pair (16 hosts per edge switch, 16 edge
        // switches per pod).
        let t = generators::fat_tree(32, 16, None).topology;
        let pairs = [(0, 8191), (0, 255), (0, 15)].map(|(a, b)| (HostId(a), HostId(b)));
        let hops: Vec<usize> = pairs
            .iter()
            .map(|&(a, b)| {
                let (a, b) = (t.host(a).unwrap(), t.host(b).unwrap());
                spath::distances(&t, a.attached.switch)
                    .dist(b.attached.switch)
                    .unwrap() as usize
            })
            .collect();
        assert_eq!(hops, [4, 2, 0]);
        build_differential(&t, pairs);
    }

    #[test]
    fn k_shortest_within_matches_the_oracle_on_the_testbed() {
        differential(&generators::testbed().topology, 1);
    }

    #[test]
    fn k_shortest_within_matches_the_oracle_on_fat_tree_k4() {
        differential(&generators::fat_tree(4, 2, None).topology, 1);
    }

    /// The `fabric_mix` shape. Every 997th of its 16 256 ordered pairs
    /// (997 is prime, so the sample walks all host and edge-switch
    /// offsets); the exhaustive run is the ignored test below.
    #[test]
    fn k_shortest_within_matches_the_oracle_on_fat_tree_k8_sampled() {
        differential(&generators::fat_tree(8, 4, None).topology, 997);
    }

    #[test]
    #[ignore = "every host pair of the fabric_mix topology: ~14 min in release"]
    fn k_shortest_within_matches_the_oracle_on_fat_tree_k8() {
        differential(&generators::fat_tree(8, 4, None).topology, 1);
    }

    /// A two-switch-pair graph with parallel links: `a` and `b` are
    /// joined twice directly and once through `c`.
    fn parallel_link_graph() -> PathGraph {
        let mut t = Topology::new();
        let [a, b, c] = [(); 3].map(|()| t.add_switch(8));
        t.connect_auto(a, b).unwrap();
        t.connect_auto(a, b).unwrap();
        t.connect_auto(a, c).unwrap();
        t.connect_auto(c, b).unwrap();
        let (ha, hb) = (t.add_host_auto(a).unwrap(), t.add_host_auto(b).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let pg = build(&t, ha, hb, &params(2, 2), &mut rng).unwrap();
        assert_eq!(
            pg.edges
                .iter()
                .filter(|e| e.key() == norm_edge(a, b))
                .count(),
            2
        );
        pg
    }

    #[test]
    fn a_pair_keyed_ban_removes_every_parallel_link() {
        let pg = parallel_link_graph();
        let (a, b) = (pg.src.attach.switch, pg.dst.attach.switch);
        assert_eq!(pg.shortest_within(&HashSet::new()).unwrap().link_hops(), 1);
        // Both a–b links share the one down key: only the detour is left.
        let down = HashSet::from([norm_edge(a, b)]);
        assert_eq!(pg.shortest_within(&down).unwrap().link_hops(), 2);
        // Yen bans the pair after the direct route: the second route is
        // the detour, not the twin link, and there is no third.
        let routes = pg.k_shortest_within(4, &HashSet::new());
        assert_eq!(
            routes.iter().map(Route::link_hops).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_matches_oracle(&pg);
    }

    #[test]
    fn same_switch_and_disconnected_endpoints() {
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(29);
        // Hosts 0 and 1 share leaf 0: the route is that one switch, for
        // any k and whatever is down.
        let pg = build(&g.topology, HostId(0), HostId(1), &params(2, 2), &mut rng).unwrap();
        let leaf = Route::new(vec![pg.src.attach.switch]).unwrap();
        let down: HashSet<_> = pg.edges.iter().map(SubEdge::key).collect();
        assert_eq!(pg.shortest_within(&down), Some(leaf.clone()));
        assert_eq!(pg.k_shortest_within(4, &down), [leaf]);
        assert_matches_oracle(&pg);
        // Different leaves with every cached edge down: no route, no
        // panic, and an empty k-set.
        let pg = build(&g.topology, HostId(0), HostId(26), &params(2, 2), &mut rng).unwrap();
        let down: HashSet<_> = pg.edges.iter().map(SubEdge::key).collect();
        assert_eq!(pg.shortest_within(&down), None);
        assert_eq!(pg.k_shortest_within(4, &down), []);
        assert_eq!(oracle_k_shortest_within(&pg, 4, &down), []);
        // Edges removed outright leave the endpoints as isolated nodes.
        let mut bare = pg.clone();
        bare.edges.clear();
        assert_eq!(bare.shortest_within(&HashSet::new()), None);
        assert_eq!(bare.k_shortest_within(0, &HashSet::new()), []);
    }

    // `k_shortest_routes`: Yen over a whole topology's up links.

    #[test]
    fn single_path_graph_returns_one() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let c = t.add_switch(4);
        t.connect_auto(a, b).unwrap();
        t.connect_auto(b, c).unwrap();
        let routes = k_shortest_routes(&t, a, c, 5);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].switches(), &[a, b, c]);
    }

    #[test]
    fn unreachable_returns_empty() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        assert!(k_shortest_routes(&t, a, b, 3).is_empty());
        assert!(k_shortest_routes(&t, a, b, 0).is_empty());
        // IDs that are not switches of the topology.
        assert!(k_shortest_routes(&t, a, SwitchId(2), 3).is_empty());
        assert!(k_shortest_routes(&t, SwitchId(9), SwitchId(9), 3).is_empty());
    }

    #[test]
    fn routes_are_sorted_simple_and_distinct() {
        let g = generators::fat_tree(4, 0, None);
        let e = g.group("edge");
        let routes = k_shortest_routes(&g.topology, e[0], e[7], 8);
        assert!(!routes.is_empty());
        for w in routes.windows(2) {
            assert!(w[0].link_hops() <= w[1].link_hops());
        }
        let set: HashSet<_> = routes.iter().map(|r| r.switches().to_vec()).collect();
        assert_eq!(set.len(), routes.len(), "duplicates returned");
        for r in &routes {
            assert!(r.is_simple(), "{r} has a loop");
            assert!(r.is_valid_in(&g.topology));
        }
    }

    #[test]
    fn cross_pod_fat_tree_has_four_ecmp_paths() {
        // k=4: between edges in different pods there are 4 shortest
        // (4-hop) paths, one per core.
        let g = generators::fat_tree(4, 0, None);
        let e = g.group("edge");
        let routes = k_shortest_routes(&g.topology, e[0], e[7], 4);
        assert_eq!(routes.len(), 4);
        assert!(routes.iter().all(|r| r.link_hops() == 4));
    }

    #[test]
    fn longer_detours_found_after_ecmp_exhausted() {
        let g = generators::leaf_spine(2, 3, 0, 8);
        let leaves = g.group("leaf");
        let routes = k_shortest_routes(&g.topology, leaves[0], leaves[1], 6);
        // 2 two-hop paths (via each spine), then 4 four-hop detours
        // (via the other leaf and both spines in either order).
        assert!(routes.len() >= 4, "got {}", routes.len());
        assert_eq!(routes[0].link_hops(), 2);
        assert_eq!(routes[1].link_hops(), 2);
        assert!(routes[2].link_hops() >= 4);
    }

    #[test]
    fn src_equals_dst() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let routes = k_shortest_routes(&t, a, a, 3);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].switches(), &[a]);
    }

    #[test]
    fn single_switch_fabric_with_k_greater_than_one() {
        // Regression: the spur loop once computed `0..last.len() - 1`
        // over a possibly empty route; asking for k > 1 routes between
        // hosts on the same (single) switch reaches the spur loop with a
        // one-node path and must not underflow.
        let mut t = Topology::new();
        let s = t.add_switch(8);
        t.add_host_auto(s).unwrap();
        t.add_host_auto(s).unwrap();
        for k in 1..=8 {
            let routes = k_shortest_routes(&t, s, s, k);
            assert_eq!(routes.len(), 1, "k={k}");
            assert_eq!(routes[0].switches(), &[s]);
        }
    }

    #[test]
    fn same_leaf_pair_in_leaf_spine() {
        // Same-leaf src/dst in a real generator topology: the only
        // simple switch-route is the leaf itself, for any k.
        let g = generators::leaf_spine(2, 2, 4, 8);
        let leaves = g.group("leaf");
        let routes = k_shortest_routes(&g.topology, leaves[0], leaves[0], 4);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].switches(), &[leaves[0]]);
    }

    /// A path graph whose edges are every up link of `topo`, in link
    /// order, between `src` and `dst`: the whole fabric as one cached
    /// subgraph.
    fn whole_fabric(topo: &Topology, src: SwitchId, dst: SwitchId) -> PathGraph {
        let end = |sw| Endpoint {
            host: HostId(0),
            mac: MacAddr::new([2, 0, 0, 0, 0, 0]),
            attach: PortId::new(sw, PortNo::try_new(1).unwrap()),
        };
        PathGraph {
            src: end(src),
            dst: end(dst),
            primary: Route::new(vec![src]).unwrap(),
            backup: None,
            switches: topo.switches().map(|s| s.id).collect(),
            edges: topo
                .links()
                .filter(|l| l.up)
                .map(|l| SubEdge { a: l.a, b: l.b })
                .collect(),
        }
    }

    /// 2–8 switches joined by up to three links per switch, drawn with
    /// repetition (so parallel links), about 15 % of them down.
    fn random_fabric(rng: &mut StdRng) -> Topology {
        let mut t = Topology::new();
        let n = rng.gen_range(2..=8usize);
        let s: Vec<SwitchId> = (0..n).map(|_| t.add_switch(32)).collect();
        for _ in 0..rng.gen_range(0..=3 * n) {
            let (a, b) = (s[rng.gen_range(0..n)], s[rng.gen_range(0..n)]);
            if a != b {
                let link = t.connect_auto(a, b).unwrap();
                if rng.gen_bool(0.15) {
                    t.set_link_state(link, false).unwrap();
                }
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        /// `k_shortest_routes` is Yen over a path graph of the whole
        /// fabric: route for route what the oracle Yen answers on a
        /// `PathGraph` holding every up link.
        #[test]
        fn k_shortest_routes_is_the_path_graph_yen(
            seed in 0u64..u64::MAX,
            k in 1usize..=6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = random_fabric(&mut rng);
            let n = t.switch_count() as u64;
            let (a, b) = (SwitchId(rng.gen_range(0..n)), SwitchId(rng.gen_range(0..n)));
            let pg = whole_fabric(&t, a, b);
            prop_assert_eq!(
                k_shortest_routes(&t, a, b, k),
                oracle_k_shortest_within(&pg, k, &HashSet::new())
            );
        }
    }

    /// Every simple switch path `src → dst` of at most `max_hops` hops
    /// over `links` (either direction; parallel links and loop-backs add
    /// no path), shortest first: the brute force Yen is held to.
    fn simple_paths(
        links: &[(SwitchId, SwitchId)],
        src: SwitchId,
        dst: SwitchId,
        max_hops: usize,
    ) -> Vec<Vec<SwitchId>> {
        fn walk(
            adj: &BTreeMap<SwitchId, BTreeSet<SwitchId>>,
            dst: SwitchId,
            max_hops: usize,
            path: &mut Vec<SwitchId>,
            out: &mut Vec<Vec<SwitchId>>,
        ) {
            let here = *path.last().expect("starts at src");
            if here == dst {
                out.push(path.clone());
                return;
            }
            if path.len() > max_hops {
                return;
            }
            for &next in adj.get(&here).into_iter().flatten() {
                if !path.contains(&next) {
                    path.push(next);
                    walk(adj, dst, max_hops, path, out);
                    path.pop();
                }
            }
        }
        let mut adj: BTreeMap<SwitchId, BTreeSet<SwitchId>> = BTreeMap::new();
        for &(a, b) in links.iter().filter(|(a, b)| a != b) {
            adj.entry(a).or_default().insert(b);
            adj.entry(b).or_default().insert(a);
        }
        let mut out = Vec::new();
        walk(&adj, dst, max_hops, &mut vec![src], &mut out);
        out.sort_by_key(Vec::len);
        out
    }

    /// Yen's answer to "`k` routes `src → dst` over `links`" against the
    /// enumeration: distinct simple paths over those links, the hop
    /// counts of the enumeration's first `k`, and fewer than `k` only
    /// when fewer exist. The enumeration stops at the longest route
    /// returned when `k` came back, so it stays small.
    fn assert_yen_is_enumeration(
        routes: &[Route],
        links: &[(SwitchId, SwitchId)],
        (src, dst): (SwitchId, SwitchId),
        k: usize,
    ) {
        let bound = match routes.last() {
            Some(r) if routes.len() == k => r.link_hops(),
            _ => usize::MAX,
        };
        let all = simple_paths(links, src, dst, bound);
        let got: Vec<&[SwitchId]> = routes.iter().map(Route::switches).collect();
        let distinct: HashSet<&[SwitchId]> = got.iter().copied().collect();
        assert_eq!(distinct.len(), got.len(), "{src} → {dst}, k {k}: repeats");
        for r in &got {
            assert!(
                all.iter().any(|p| p == r),
                "{src} → {dst}: {r:?} is no path"
            );
        }
        // Equal lengths also make "fewer than `k`" mean "fewer exist".
        let got_hops: Vec<usize> = got.iter().map(|r| r.len()).collect();
        let all_hops: Vec<usize> = all.iter().take(k).map(Vec::len).collect();
        assert_eq!(got_hops, all_hops, "{src} → {dst}, k {k}");
    }

    const KS: [usize; 3] = [1, 3, 8];

    /// Both entry points on `topo` as it is: `k_shortest_routes` for
    /// every switch pair, and `k_shortest_within` for every `stride`-th
    /// host pair's path graph with nothing down and with each primary
    /// link down. Route 0 is always `router().shortest`'s.
    fn assert_yen_matches_enumeration(topo: &Topology, stride: usize) {
        let up: Vec<(SwitchId, SwitchId)> = topo
            .links()
            .filter(|l| l.up)
            .map(|l| (l.a.switch, l.b.switch))
            .collect();
        for a in topo.switches().map(|s| s.id) {
            for b in topo.switches().map(|s| s.id) {
                let shortest = whole_fabric(topo, a, b).router().shortest(&HashSet::new());
                for k in KS {
                    let routes = k_shortest_routes(topo, a, b, k);
                    assert_eq!(routes.first(), shortest.as_ref(), "{a} → {b}");
                    assert_yen_is_enumeration(&routes, &up, (a, b), k);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        for (ha, hb) in host_pairs(topo, stride) {
            let Ok(pg) = build(topo, ha, hb, &params(2, 2), &mut rng) else {
                continue;
            };
            let ends = (pg.src.attach.switch, pg.dst.attach.switch);
            let mut downs = vec![HashSet::new()];
            let p = pg.primary.switches();
            downs.extend(p.windows(2).map(|w| HashSet::from([norm_edge(w[0], w[1])])));
            for down in &downs {
                let links: Vec<(SwitchId, SwitchId)> = pg
                    .edges
                    .iter()
                    .filter(|e| !down.contains(&e.key()))
                    .map(|e| (e.a.switch, e.b.switch))
                    .collect();
                let shortest = pg.router().shortest(down);
                for k in KS {
                    let routes = pg.k_shortest_within(k, down);
                    assert_eq!(routes.first(), shortest.as_ref(), "{ha} → {hb}");
                    assert_yen_is_enumeration(&routes, &links, ends, k);
                }
            }
        }
    }

    /// [`assert_yen_matches_enumeration`] on `topo` with every link up,
    /// then with each `stride`-th link down alone.
    fn yen_against_enumeration(mut topo: Topology, stride: usize) {
        let ids: Vec<_> = topo.links().map(|l| l.id).collect();
        for &id in &ids {
            topo.set_link_state(id, true).unwrap();
        }
        assert_yen_matches_enumeration(&topo, stride);
        for &id in ids.iter().step_by(stride) {
            topo.set_link_state(id, false).unwrap();
            assert_yen_matches_enumeration(&topo, stride);
            topo.set_link_state(id, true).unwrap();
        }
    }

    #[test]
    fn yen_matches_enumeration_on_the_fixtures() {
        yen_against_enumeration(fixtures::awkward_line(), 1);
        yen_against_enumeration(fixtures::degraded_fat_tree(), 5);
    }

    #[test]
    fn yen_matches_enumeration_on_the_testbed() {
        yen_against_enumeration(generators::testbed().topology, 3);
    }

    #[test]
    fn yen_matches_enumeration_on_fat_tree_k4() {
        yen_against_enumeration(generators::fat_tree(4, 2, None).topology, 7);
    }

    #[test]
    fn yen_matches_enumeration_on_small_random_graphs() {
        let mut rng = StdRng::seed_from_u64(28);
        for n in [4, 6, 8] {
            let t = generators::random_regular(n, 3, 1, 8, &mut rng).topology;
            yen_against_enumeration(t, 1);
        }
    }

    #[test]
    fn route_zero_is_the_bfs_answer_not_the_least_sequence() {
        // S0–S1–S4–S5 is the least 3-hop sequence, but the search enters
        // S5 from its lowest predecessor one level closer to S0, which
        // is S3: route 0 is S0→S2→S3→S5. Later routes come in
        // (hops, sequence) order among Yen's candidates.
        let mut t = Topology::new();
        let s = [(); 6].map(|()| t.add_switch(4));
        for (a, b) in [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)] {
            t.connect_auto(s[a], s[b]).unwrap();
        }
        let want = [[0, 2, 3, 5], [0, 1, 4, 5]].map(|r| r.map(|i| s[i]).to_vec());
        let got: Vec<Vec<SwitchId>> = k_shortest_routes(&t, s[0], s[5], 4)
            .iter()
            .map(|r| r.switches().to_vec())
            .collect();
        assert_eq!(got, want);
        let pg = whole_fabric(&t, s[0], s[5]);
        let within: Vec<Vec<SwitchId>> = pg
            .k_shortest_within(4, &HashSet::new())
            .iter()
            .map(|r| r.switches().to_vec())
            .collect();
        assert_eq!(within, want);
        assert_eq!(
            pg.router().shortest(&HashSet::new()).unwrap().switches(),
            want[0]
        );
    }
}
