//! Shortest-path algorithms with randomized equal-cost tie-breaking.
//!
//! §4.3 of the paper: *"We compute the primary path with a common shortest
//! path algorithm. It also randomizes the choice for equal cost links, so
//! it generates different shortest paths, useful for load balancing."*
//!
//! The functions here operate at switch granularity on a [`Topology`] (or
//! any link-cost closure), returning [`Route`]s.
//!
//! A [`DistanceMap`] is a whole-fabric scan, so a caller that needs the
//! map of one switch several times inside one call computes it once and
//! hands it to [`shortest_route_over`]. A map never outlives the call
//! that computed it: nothing caches one across calls, so no topology
//! change has a map to invalidate.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use dumbnet_types::SwitchId;

use crate::graph::Topology;
use crate::route::Route;

/// Per-source shortest-path distances to every switch, from a single
/// Dijkstra/BFS run.
#[derive(Debug, Clone)]
pub struct DistanceMap {
    source: SwitchId,
    dist: Vec<u64>,
}

impl DistanceMap {
    /// The source switch of this map.
    #[must_use]
    pub fn source(&self) -> SwitchId {
        self.source
    }

    /// Distance to `sw`, or `None` if unreachable.
    #[must_use]
    pub fn dist(&self, sw: SwitchId) -> Option<u64> {
        match self.dist.get(sw.get() as usize) {
            Some(&u64::MAX) | None => None,
            Some(&d) => Some(d),
        }
    }

    /// Iterates over `(switch, distance)` for all reachable switches.
    pub fn reachable(&self) -> impl Iterator<Item = (SwitchId, u64)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != u64::MAX)
            .map(|(ix, &d)| (SwitchId::new(ix as u64), d))
    }
}

/// Computes hop distances from `source` to every switch over up links.
///
/// With unit costs a FIFO frontier already visits switches in
/// nondecreasing distance, so this is a plain BFS; the map is the one
/// [`distances_weighted`] returns for `|_| 1`.
#[must_use]
pub fn distances(topo: &Topology, source: SwitchId) -> DistanceMap {
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    if (source.get() as usize) < n {
        dist[source.get() as usize] = 0;
        // Every switch enters the frontier at most once, so a plain
        // vector read behind a cursor is the FIFO.
        let mut frontier = Vec::with_capacity(n);
        frontier.push(source);
        let mut next = 0;
        while let Some(&u) = frontier.get(next) {
            next += 1;
            let nd = dist[u.get() as usize] + 1;
            for v in topo.peers(u) {
                if dist[v.get() as usize] == u64::MAX {
                    dist[v.get() as usize] = nd;
                    frontier.push(v);
                }
            }
        }
    }
    DistanceMap { source, dist }
}

/// Computes weighted distances from `source` with a per-link cost
/// function (`cost(link_id_index)` not exposed; cost takes endpoint pair).
///
/// Costs are per *edge traversal*; the function receives the edge's
/// `(from, to)` switch pair so asymmetric costs are possible.
#[must_use]
pub fn distances_weighted<F>(topo: &Topology, source: SwitchId, cost: F) -> DistanceMap
where
    F: Fn((SwitchId, SwitchId)) -> u64,
{
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    if (source.get() as usize) < n {
        dist[source.get() as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u.get() as usize] {
                continue;
            }
            for v in topo.peers(u) {
                let nd = d.saturating_add(cost((u, v)));
                if nd < dist[v.get() as usize] {
                    dist[v.get() as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    DistanceMap { source, dist }
}

/// Computes one shortest route from `src` to `dst` over up links, with
/// uniform-random choice among equal-cost predecessors.
///
/// Returns `None` if `dst` is unreachable. Repeated calls with a seeded
/// RNG spread traffic over the ECMP fan (the paper's load-balancing
/// primitive).
#[must_use]
pub fn shortest_route<R: Rng>(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    rng: &mut R,
) -> Option<Route> {
    // Hop counts are symmetric: the BFS map *from* `dst` is the
    // distance *to* it.
    descend(topo, src, dst, |_| 1, || distances(topo, dst), rng)
}

/// [`shortest_route`] to `to_dst.source()` over a map the caller already
/// holds — `distances(topo, dst)` of the same `topo` in its current
/// state. Same route and same RNG draws as [`shortest_route`], minus the
/// scan.
#[must_use]
pub fn shortest_route_over<R: Rng>(
    topo: &Topology,
    src: SwitchId,
    to_dst: &DistanceMap,
    rng: &mut R,
) -> Option<Route> {
    descend(topo, src, to_dst.source(), |_| 1, || to_dst, rng)
}

/// Weighted variant of [`shortest_route`].
///
/// The cost function receives the `(from, to)` switch pair of each edge;
/// the path-graph backup computation uses this to inflate primary-path
/// links (§4.3).
#[must_use]
pub fn shortest_route_weighted<F, R>(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    cost: F,
    rng: &mut R,
) -> Option<Route>
where
    F: Fn((SwitchId, SwitchId)) -> u64,
    R: Rng,
{
    // Run Dijkstra from dst so dist[] measures distance *to* dst.
    let to_dst = || distances_weighted(topo, dst, |(a, b)| cost((b, a)));
    descend(topo, src, dst, &cost, to_dst, rng)
}

/// Walks forward from `src` along the distance-to-`dst` map `to_dst`
/// yields (built on demand, or borrowed from the caller), choosing
/// random minimizing next hops. This randomizes uniformly over next-hop
/// choices at every node.
fn descend<F, D, M, R>(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    cost: F,
    to_dst: D,
    rng: &mut R,
) -> Option<Route>
where
    F: Fn((SwitchId, SwitchId)) -> u64,
    D: FnOnce() -> M,
    M: Borrow<DistanceMap>,
    R: Rng,
{
    let n = topo.switch_count();
    if src.get() as usize >= n || dst.get() as usize >= n {
        return None;
    }
    if src == dst {
        return Route::new(vec![src]).ok();
    }
    let dist = to_dst();
    let dist: &DistanceMap = dist.borrow();
    dist.dist(src)?;
    let mut route = vec![src];
    let mut cur = src;
    let mut best: Vec<SwitchId> = Vec::new();
    // Walk at most n hops — a correct descent terminates well before.
    for _ in 0..n {
        if cur == dst {
            return Route::new(route).ok();
        }
        let d_cur = dist.dist(cur)?;
        best.clear();
        let mut best_cost = u64::MAX;
        for v in topo.peers(cur) {
            if let Some(dv) = dist.dist(v) {
                let through = cost((cur, v)).saturating_add(dv);
                if through < best_cost {
                    best_cost = through;
                    best.clear();
                    best.push(v);
                } else if through == best_cost {
                    best.push(v);
                }
            }
        }
        if best.is_empty() || best_cost > d_cur {
            return None;
        }
        // Deduplicate parallel-link neighbors so the random choice is
        // uniform over next switches, then pick one.
        best.sort();
        best.dedup();
        let next = best[rng.gen_range(0..best.len())];
        route.push(next);
        cur = next;
    }
    (cur == dst).then(|| Route::new(route).ok()).flatten()
}

/// Hop distance between two switches, if connected.
#[must_use]
pub fn hop_distance(topo: &Topology, a: SwitchId, b: SwitchId) -> Option<u64> {
    distances(topo, a).dist(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distances_on_line() {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..4).map(|_| t.add_switch(4)).collect();
        for w in s.windows(2) {
            t.connect_auto(w[0], w[1]).unwrap();
        }
        let d = distances(&t, s[0]);
        assert_eq!(d.dist(s[0]), Some(0));
        assert_eq!(d.dist(s[3]), Some(3));
        assert_eq!(d.reachable().count(), 4);
    }

    #[test]
    fn bfs_distances_equal_unit_cost_dijkstra() {
        // Every source of a fat-tree with a failed trunk and an
        // unwired switch: the BFS map is Dijkstra's, entry for entry,
        // so the descent over it draws the same RNG values.
        let mut t = generators::fat_tree(4, 2, None).topology;
        let trunk = t.links().next().expect("fat-tree has links").id;
        t.set_link_state(trunk, false).unwrap();
        t.add_switch(4);
        let sources: Vec<SwitchId> = t.switches().map(|s| s.id).collect();
        for s in sources {
            assert_eq!(distances(&t, s).dist, distances_weighted(&t, s, |_| 1).dist);
        }
    }

    #[test]
    fn descent_over_a_supplied_map_is_shortest_route() {
        // Every ordered switch pair, one past the table's end included,
        // with a failed trunk and an unwired switch: same route, and the
        // RNG left where `shortest_route` leaves it.
        let mut fat = generators::fat_tree(4, 2, None).topology;
        let trunk = fat.links().next().expect("fat-tree has links").id;
        fat.set_link_state(trunk, false).unwrap();
        fat.add_switch(4);
        for t in [generators::testbed().topology, fat] {
            let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
            for seed in [1, 2, 3] {
                let (mut rng, mut over) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for &dst in &ids {
                    let to_dst = distances(&t, dst);
                    for &src in &ids {
                        assert_eq!(
                            shortest_route_over(&t, src, &to_dst, &mut over),
                            shortest_route(&t, src, dst, &mut rng),
                            "{src} → {dst}, seed {seed}"
                        );
                    }
                }
                assert_eq!(over.gen::<u64>(), rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        assert_eq!(hop_distance(&t, a, b), None);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(shortest_route(&t, a, b, &mut rng).is_none());
    }

    #[test]
    fn shortest_route_is_shortest() {
        let t = generators::leaf_spine(2, 5, 0, 16).topology;
        let mut rng = StdRng::seed_from_u64(7);
        // Any leaf to any other leaf is 2 hops (via a spine).
        let leaves: Vec<SwitchId> = t.switches().skip(2).map(|s| s.id).collect();
        for &a in &leaves {
            for &b in &leaves {
                if a == b {
                    continue;
                }
                let r = shortest_route(&t, a, b, &mut rng).unwrap();
                assert_eq!(r.link_hops(), 2, "{a}→{b} got {r}");
                assert!(r.is_simple());
                assert!(r.is_valid_in(&t));
            }
        }
    }

    #[test]
    fn tie_breaking_spreads_over_spines() {
        let t = generators::leaf_spine(2, 2, 0, 16).topology;
        let leaves: Vec<SwitchId> = t.switches().skip(2).map(|s| s.id).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let r = shortest_route(&t, leaves[0], leaves[1], &mut rng).unwrap();
            seen.insert(r.switches()[1]);
        }
        assert_eq!(seen.len(), 2, "both spines should be used");
    }

    #[test]
    fn weighted_route_avoids_expensive_link() {
        // Triangle a-b, b-c, a-c. Direct a-c link priced high.
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let c = t.add_switch(4);
        t.connect_auto(a, b).unwrap();
        t.connect_auto(b, c).unwrap();
        t.connect_auto(a, c).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cost = |(x, y): (SwitchId, SwitchId)| {
            if (x == a && y == c) || (x == c && y == a) {
                10
            } else {
                1
            }
        };
        let r = shortest_route_weighted(&t, a, c, cost, &mut rng).unwrap();
        assert_eq!(r.switches(), &[a, b, c]);
    }

    #[test]
    fn same_switch_route() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let mut rng = StdRng::seed_from_u64(1);
        let r = shortest_route(&t, a, a, &mut rng).unwrap();
        assert_eq!(r.switches(), &[a]);
        assert_eq!(r.link_hops(), 0);
    }

    #[test]
    fn down_links_excluded() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let l = t.connect_auto(a, b).unwrap();
        t.set_link_state(l, false).unwrap();
        assert_eq!(hop_distance(&t, a, b), None);
    }
}
