//! Shortest-path algorithms with randomized equal-cost tie-breaking.
//!
//! §4.3 of the paper: *"We compute the primary path with a common shortest
//! path algorithm. It also randomizes the choice for equal cost links, so
//! it generates different shortest paths, useful for load balancing."*
//!
//! The functions here operate at switch granularity on a [`Topology`],
//! returning [`Route`]s.
//!
//! A [`DistanceMap`] from [`distances`] is a whole-fabric scan, so a
//! caller that needs the map of one switch several times inside one call
//! computes it once and hands it to [`shortest_route_over`], and a caller
//! that only reads entries up to some hop count asks
//! [`distances_within`] for that many hops and pays for no more. A
//! search that serves one descent, from a source known before it starts
//! ([`shortest_route`], [`shortest_route_avoiding`], a route-cache miss,
//! a path graph's primary), stops as soon as that source's distance is
//! final: the descent never reads a switch farther out. In a bounded or
//! stopped map `None` means "farther than the limit, beyond where the
//! scan stopped, or unreachable": every entry it does hold is the exact
//! distance. Routes that share a *source* share its scan the other way
//! round: [`toward`] walks the source's map back from each destination
//! and yields a map that holds the shortest routes' switches only, which
//! [`shortest_route_over`] descends exactly as it descends the
//! destination's own scan. A map, bounded, stopped, whole or walked,
//! never outlives the call that computed it: nothing caches one across
//! calls, so no topology change has a map to invalidate.

use std::borrow::Borrow;

use rand::Rng;

use dumbnet_types::SwitchId;

use crate::graph::Topology;
use crate::route::Route;

/// Shortest-path distances from one source switch, from one search:
/// to every switch ([`distances`]), or to the switches within a hop
/// limit ([`distances_within`]).
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

    /// Distance to `sw`, or `None` if unreachable (or, in a map from
    /// [`distances_within`], farther than its limit; or, in a search
    /// stopped at its target, beyond where the scan stopped).
    #[must_use]
    pub fn dist(&self, sw: SwitchId) -> Option<u64> {
        match self.dist.get(sw.get() as usize) {
            Some(&u64::MAX) | None => None,
            Some(&d) => Some(d),
        }
    }

    /// Iterates over `(switch, distance)` for all switches the map
    /// holds, in ascending switch order.
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
/// nondecreasing distance, so this is a plain BFS.
#[must_use]
pub fn distances(topo: &Topology, source: SwitchId) -> DistanceMap {
    distances_within(topo, source, u64::MAX)
}

/// [`distances`], stopped at `limit` hops: the map holds exactly the
/// switches within `limit` of `source`, each at its true distance.
/// Switches at depth `limit` are labelled and not expanded, so the scan
/// costs the ball it returns rather than the fabric.
#[must_use]
pub fn distances_within(topo: &Topology, source: SwitchId, limit: u64) -> DistanceMap {
    // The source is labelled before the first pop, so only the limit
    // stops the scan.
    distances_until(topo, source, source, limit)
}

/// The one BFS: [`distances`] from `source`, stopped before the first
/// pop at a depth `d` with `target` labelled and `d ≥ radius`. The map
/// holds `target`, every switch within `radius` and every switch nearer
/// than `target`, each at its exact distance; of the others it holds
/// some as far as `target` and none farther.
///
/// The map a descent from `target` reads. FIFO labels are exact when
/// assigned. `target` gets its label at depth `D` while a switch at
/// depth `D − 1` is expanded, and by then every switch at depth `D − 1`
/// already has its label: they were labelled while depth `D − 2`
/// expanded, all of which popped first. The descent, at a switch of
/// depth `k ≤ D`, takes as candidates only peers at `k − 1`, all
/// labelled; a peer it finds unlabelled is at depth `≥ D > k − 1`, and
/// one it finds labelled at `D` costs more than `k` through it, in the
/// full map too. So the candidates, their sorted order and the RNG draws
/// are those over [`distances`]. An unreachable or out-of-range `target`
/// never gets a label: the scan runs dry, and the descent reads `None`.
pub(crate) fn distances_until(
    topo: &Topology,
    source: SwitchId,
    target: SwitchId,
    radius: u64,
) -> DistanceMap {
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    if (source.get() as usize) < n {
        dist[source.get() as usize] = 0;
        // Every switch enters the frontier at most once, so a plain
        // vector read behind a cursor is the FIFO.
        let mut frontier = Vec::with_capacity(n);
        frontier.push(source);
        let labelled = |dist: &[u64]| {
            dist.get(target.get() as usize)
                .is_some_and(|&t| t != u64::MAX)
        };
        let mut next = 0;
        while let Some(&u) = frontier.get(next) {
            next += 1;
            let d = dist[u.get() as usize];
            // The frontier is in nondecreasing depth: nothing behind `u`
            // is shallower, so every switch within `d` is labelled.
            if d >= radius && labelled(&dist) {
                break;
            }
            for v in topo.peers(u) {
                if dist[v.get() as usize] == u64::MAX {
                    dist[v.get() as usize] = d + 1;
                    frontier.push(v);
                }
            }
        }
    }
    DistanceMap { source, dist }
}

/// The distance to `dst` of exactly the switches on some shortest route
/// from `from_src.source()` to `dst`. Every other entry is absent, and
/// all are when `dst` is unreachable or out of range. `from_src` is
/// [`distances`] from that source over `topo` in its current state.
///
/// The walk starts at `dst` and steps from a switch at depth `k` of the
/// source's BFS to its peers at depth `k − 1`, so it expands the union
/// of the shortest routes and no other switch: about 290 for a
/// cross-pod pair of the k = 32 fat-tree, where the scan from `dst`
/// expands all 1 280. A switch `x` it reaches is on a shortest route,
/// at `d(x, dst) = d(src, dst) − d(src, x)`, and every switch on one is
/// reached (each hop of its shortest route on to `dst` is one layer
/// deeper).
///
/// [`shortest_route_over`] reads this map as it reads `distances(topo,
/// dst)`. A descent from the source only picks peers one hop nearer
/// `dst`, and any such peer of a switch on a shortest route is itself
/// on one, so it finds the same candidates, in the same sorted order,
/// and makes the same RNG draws.
#[must_use]
pub fn toward(topo: &Topology, from_src: &DistanceMap, dst: SwitchId) -> DistanceMap {
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    if let Some(depth) = from_src.dist(dst) {
        dist[dst.get() as usize] = 0;
        // A FIFO as in `distances_within`, sized the same way.
        let mut frontier = Vec::with_capacity(n);
        frontier.push(dst);
        let mut next = 0;
        while let Some(&u) = frontier.get(next) {
            next += 1;
            let u_to_dst = dist[u.get() as usize];
            // `u` is at depth `depth − u_to_dst`; the source is the one
            // switch with no shallower layer.
            let Some(above) = (depth - u_to_dst).checked_sub(1) else {
                continue;
            };
            for v in topo.peers(u) {
                let ix = v.get() as usize;
                if from_src.dist[ix] == above && dist[ix] == u64::MAX {
                    dist[ix] = u_to_dst + 1;
                    frontier.push(v);
                }
            }
        }
    }
    DistanceMap { source: dst, dist }
}

/// Distances from `source` when every arc costs 1 except the arcs in
/// `tolled`, which cost `toll`. `tolled` is sorted and holds both
/// directions of each of its links, so an arc's cost does not depend on
/// which way the search crosses it.
///
/// Two costs need no heap. Arcs relaxed at cost 1 queue in one FIFO and
/// tolled arcs in another; the smaller of the two fronts pops next.
/// Pops are then nondecreasing (nothing pushed is less than the distance
/// just popped), so each FIFO is itself nondecreasing and the smaller
/// front is the global minimum — Dijkstra's pop order, hence its map. A
/// switch relaxed twice leaves a stale entry, skipped when it pops.
///
/// The search stops before the first pop at a distance `≥ L − 1`, where
/// `L` is `target`'s label. Three facts make the descent from `target`
/// over the stopped map the descent over the whole one:
/// - `L` is final: every later relaxation gives at least the pop + 1,
///   which is at least `L`.
/// - Every switch at distance `≤ L − 1` is labelled exactly: its
///   predecessor on a shortest route is at `≤ L − 2` and has popped.
/// - A tentative label `t > d(v)` makes no false candidate: `t + cost =
///   d(x)` would contradict `d(v) + cost ≥ d(x)`.
///
/// A `target` that is never labelled (unreachable, or past the table)
/// lets the search run dry: the whole map.
fn distances_tolled(
    topo: &Topology,
    source: SwitchId,
    target: SwitchId,
    tolled: &[(SwitchId, SwitchId)],
    toll: u64,
) -> DistanceMap {
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    if (source.get() as usize) < n {
        dist[source.get() as usize] = 0;
        // `queues[0]` takes the unit-arc pushes, `queues[1]` the tolled.
        let mut queues: [Vec<(u64, SwitchId)>; 2] = [Vec::with_capacity(n), Vec::new()];
        let mut next = [0usize; 2];
        queues[0].push((0, source));
        loop {
            let live = (0..2).filter(|&q| next[q] < queues[q].len());
            let Some(q) = live.min_by_key(|&q| queues[q][next[q]].0) else {
                break;
            };
            let (d, u) = queues[q][next[q]];
            let settled = |&l: &u64| l != u64::MAX && d.saturating_add(1) >= l;
            if dist.get(target.get() as usize).is_some_and(settled) {
                break;
            }
            next[q] += 1;
            if d > dist[u.get() as usize] {
                continue;
            }
            // Empty unless `u` is an end of a tolled link.
            let tolled_here = arcs_from(tolled, u);
            for v in topo.peers(u) {
                let is_tolled = tolled_here.iter().any(|&(_, to)| to == v);
                let nd = d.saturating_add(if is_tolled { toll } else { 1 });
                if nd < dist[v.get() as usize] {
                    dist[v.get() as usize] = nd;
                    queues[usize::from(is_tolled)].push((nd, v));
                }
            }
        }
    }
    DistanceMap { source, dist }
}

/// The run of `arcs` (sorted) that leave `from`.
fn arcs_from(arcs: &[(SwitchId, SwitchId)], from: SwitchId) -> &[(SwitchId, SwitchId)] {
    let start = arcs.partition_point(|&(a, _)| a < from);
    let len = arcs[start..].partition_point(|&(a, _)| a == from);
    &arcs[start..start + len]
}

/// The heap Dijkstra over an arbitrary arc cost, kept as the oracle
/// [`distances_within`] and [`distances_tolled`] are compared against.
/// Costs are per *edge traversal*; the function receives the edge's
/// `(from, to)` switch pair.
#[cfg(test)]
fn distances_weighted<F>(topo: &Topology, source: SwitchId, cost: F) -> DistanceMap
where
    F: Fn((SwitchId, SwitchId)) -> u64,
{
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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
    // distance *to* it, and the descent from `src` reads no switch
    // farther out than `src`.
    let to_dst = || distances_until(topo, dst, src, 0);
    descend(topo, src, dst, |_| 1, to_dst, rng)
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

/// [`shortest_route`] when crossing a link of `avoid`, in either
/// direction, costs `toll` instead of 1: the path-graph backup (§4.3),
/// which reuses a primary link only where every alternative costs more
/// than the toll.
#[must_use]
pub fn shortest_route_avoiding<R: Rng>(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    avoid: &Route,
    toll: u64,
    rng: &mut R,
) -> Option<Route> {
    let mut tolled: Vec<(SwitchId, SwitchId)> = avoid
        .switches()
        .windows(2)
        .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
        .collect();
    tolled.sort_unstable();
    let cost = |arc| {
        if tolled.binary_search(&arc).is_ok() {
            toll
        } else {
            1
        }
    };
    // Searched from `dst`, so the map measures distance *to* it; the
    // costs are symmetric. It stops once `src`'s distance is final.
    let to_dst = || distances_tolled(topo, dst, src, &tolled, toll);
    descend(topo, src, dst, cost, to_dst, rng)
}

/// [`shortest_route`] over an arbitrary arc cost and the heap Dijkstra:
/// what [`shortest_route_avoiding`] replaced, kept as its oracle.
#[cfg(test)]
pub(crate) fn shortest_route_weighted<F, R>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        self,
        fixtures::{awkward_line, degraded_fat_tree, stop_rule_graphs},
    };
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

    fn all_switches(t: &Topology) -> Vec<SwitchId> {
        t.switches().map(|s| s.id).collect()
    }

    /// The first id past the switch table: never labelled, so a search
    /// stopped at it runs dry.
    fn past_the_end(t: &Topology) -> SwitchId {
        SwitchId::new(t.switch_count() as u64)
    }

    #[test]
    fn a_bounded_scan_is_the_full_scan_cut_at_the_limit() {
        // Every source and every limit from 0 to past the diameter,
        // against the heap Dijkstra's map with entries beyond the limit
        // read as absent.
        let mut rng = StdRng::seed_from_u64(23);
        let sparse = generators::random_regular(24, 3, 1, 8, &mut rng).topology;
        let graphs = [
            generators::testbed().topology,
            degraded_fat_tree(),
            generators::cube(&[4, 4], 1, 8).topology,
            sparse,
        ];
        for (g, t) in graphs.iter().enumerate() {
            let ids = all_switches(t);
            let full: Vec<DistanceMap> = ids
                .iter()
                .map(|&s| distances_weighted(t, s, |_| 1))
                .collect();
            let diameter = full
                .iter()
                .flat_map(|m| m.reachable().map(|(_, d)| d))
                .max()
                .expect("non-empty");
            assert!(diameter >= 2, "graph {g}: truncation never bites");
            for want in &full {
                for limit in 0..=diameter + 1 {
                    let cut = distances_within(t, want.source(), limit);
                    for &x in &ids {
                        assert_eq!(
                            cut.dist(x),
                            want.dist(x).filter(|&d| d <= limit),
                            "graph {g}: {} → {x} within {limit}",
                            want.source()
                        );
                    }
                }
                assert_eq!(distances(t, want.source()).dist, want.dist);
            }
        }
        // The sparse graph is the one whose diameter dwarfs a window's
        // reach.
        let far = distances(&graphs[3], SwitchId::new(0));
        assert!(far.reachable().any(|(_, d)| d > 3));
    }

    /// Both directions of every hop of `route`, sorted: the tolled set
    /// [`shortest_route_avoiding`] derives.
    fn both_ways(route: &[SwitchId]) -> Vec<(SwitchId, SwitchId)> {
        let mut arcs: Vec<_> = route
            .windows(2)
            .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
            .collect();
        arcs.sort_unstable();
        arcs
    }

    /// Two-queue map against the heap Dijkstra's, entry for entry, from
    /// every source.
    fn assert_tolled_matches_heap(t: &Topology, route: &[SwitchId], toll: u64) {
        let tolled = both_ways(route);
        for s in all_switches(t) {
            let want = distances_weighted(t, s, |arc| if tolled.contains(&arc) { toll } else { 1 });
            assert_eq!(
                distances_tolled(t, s, past_the_end(t), &tolled, toll).dist,
                want.dist,
                "from {s}, tolled {route:?} at {toll}"
            );
        }
    }

    #[test]
    fn the_two_queue_search_is_dijkstra() {
        // The bridge is tolled: there is no way round, so the far side
        // is reached through the toll and only through it.
        let line = awkward_line();
        let s = all_switches(&line);
        for toll in [1, 2, 6, u64::MAX] {
            assert_tolled_matches_heap(&line, &s, toll);
            assert_tolled_matches_heap(&line, &s[1..3], toll);
        }
        let across = distances_tolled(&line, s[0], past_the_end(&line), &both_ways(&s[1..3]), 6);
        assert_eq!(across.dist(s[1]), Some(1));
        assert_eq!(across.dist(s[2]), Some(7));
        assert_eq!(across.dist(s[3]), Some(8));
        // A tolled pair takes every parallel link with it.
        assert_eq!(
            distances_tolled(&line, s[0], past_the_end(&line), &both_ways(&s[..2]), 6).dist(s[1]),
            Some(6)
        );
        // Fabrics with a way round: every shortest route tolled in turn.
        let mut rng = StdRng::seed_from_u64(5);
        for t in [generators::testbed().topology, degraded_fat_tree()] {
            let ids = all_switches(&t);
            let toll = t.switch_count() as u64 + 2;
            for &a in &ids {
                for &b in &ids {
                    if let Some(route) = shortest_route(&t, a, b, &mut rng) {
                        assert_tolled_matches_heap(&t, route.switches(), toll);
                    }
                }
            }
        }
    }

    #[test]
    fn avoiding_a_route_is_the_weighted_route() {
        // Same backup and the RNG left where the heap version leaves it,
        // for every ordered pair, one past the table's end included. The
        // oracle side draws its primary over the whole map.
        for (g, t) in stop_rule_graphs().iter().enumerate() {
            let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
            let toll = t.switch_count() as u64 + 2;
            let (mut rng, mut heap_rng) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for &b in &ids {
                let to_b = distances(t, b);
                for &a in &ids {
                    let Some(primary) = shortest_route(t, a, b, &mut rng) else {
                        assert!(shortest_route_over(t, a, &to_b, &mut heap_rng).is_none());
                        continue;
                    };
                    assert_eq!(
                        shortest_route_over(t, a, &to_b, &mut heap_rng),
                        Some(primary.clone())
                    );
                    let tolled = both_ways(primary.switches());
                    let cost = |arc| if tolled.contains(&arc) { toll } else { 1 };
                    assert_eq!(
                        shortest_route_avoiding(t, a, b, &primary, toll, &mut rng),
                        shortest_route_weighted(t, a, b, cost, &mut heap_rng),
                        "graph {g}: {a} → {b} avoiding {primary}"
                    );
                }
            }
            assert_eq!(rng.gen::<u64>(), heap_rng.gen::<u64>(), "graph {g}");
        }
    }

    #[test]
    fn descent_over_a_supplied_map_is_shortest_route() {
        // Every ordered switch pair, one past the table's end included:
        // the stopped search's route is the one over the whole map, and
        // the RNG is left where the whole map leaves it.
        for (g, t) in stop_rule_graphs().iter().enumerate() {
            let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
            for seed in [1, 2, 3] {
                let (mut rng, mut over) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for &dst in &ids {
                    let to_dst = distances(t, dst);
                    for &src in &ids {
                        assert_eq!(
                            shortest_route_over(t, src, &to_dst, &mut over),
                            shortest_route(t, src, dst, &mut rng),
                            "graph {g}: {src} → {dst}, seed {seed}"
                        );
                    }
                }
                assert_eq!(over.gen::<u64>(), rng.gen::<u64>(), "graph {g}");
            }
        }
    }

    #[test]
    fn a_stopped_scan_holds_what_a_descent_reads() {
        // Every source, every target (one past the table's end included)
        // and every radius up to past the diameter: each entry held is
        // the heap Dijkstra's, every switch nearer than the target or
        // within the radius is held, and a target that is never labelled
        // leaves the whole map.
        let mut narrower = 0usize;
        for (g, t) in stop_rule_graphs().iter().enumerate() {
            let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
            let full: Vec<DistanceMap> = ids
                .iter()
                .map(|&s| distances_weighted(t, s, |_| 1))
                .collect();
            let diameter = full
                .iter()
                .flat_map(|m| m.reachable().map(|(_, d)| d))
                .max()
                .expect("non-empty");
            for want in &full {
                for &target in &ids {
                    for radius in 0..=diameter + 1 {
                        let got = distances_until(t, want.source(), target, radius);
                        let case =
                            || format!("graph {g}: {} → {target} within {radius}", want.source());
                        let Some(d_target) = want.dist(target) else {
                            assert_eq!(got.dist, want.dist, "{}", case());
                            continue;
                        };
                        for &x in &ids {
                            let (held, d) = (got.dist(x), want.dist(x));
                            assert!(held.is_none() || held == d, "{}: {x}", case());
                            if d.is_some_and(|d| d < d_target || d <= radius) || x == target {
                                assert_eq!(held, d, "{}: {x} must be held", case());
                            }
                        }
                        narrower += usize::from(got.reachable().count() < want.reachable().count());
                    }
                }
            }
        }
        assert!(narrower > 0, "some scan must stop before the fabric ends");
    }

    #[test]
    fn a_stopped_backup_search_holds_what_a_descent_reads() {
        // For every ordered pair, one past the table's end included, and
        // its primary tolled: the target's label and every switch nearer
        // than it are the whole search's, any other entry held is no
        // less than the whole search's, and a target that is never
        // labelled leaves the whole map.
        let mut narrower = 0usize;
        for (g, t) in stop_rule_graphs().iter().enumerate() {
            let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
            let toll = t.switch_count() as u64 + 2;
            let mut rng = StdRng::seed_from_u64(4);
            for &dst in &ids {
                let to_dst = distances(t, dst);
                for &src in &ids {
                    let route = shortest_route_over(t, src, &to_dst, &mut rng);
                    let tolled = both_ways(route.as_ref().map_or(&[], |r| r.switches()));
                    let whole = distances_tolled(t, dst, past_the_end(t), &tolled, toll);
                    let got = distances_tolled(t, dst, src, &tolled, toll);
                    let case = format!("graph {g}: {src} → {dst}");
                    let Some(label) = whole.dist(src) else {
                        assert_eq!(got.dist, whole.dist, "{case}");
                        continue;
                    };
                    assert_eq!(got.dist(src), Some(label), "{case}");
                    for &x in &ids {
                        let (held, d) = (got.dist(x), whole.dist(x));
                        if d.is_some_and(|d| d < label) {
                            assert_eq!(held, d, "{case}: {x} must be exact");
                        } else {
                            assert!(held.is_none() || held >= d, "{case}: {x}");
                        }
                    }
                    narrower += usize::from(got.reachable().count() < whole.reachable().count());
                }
            }
        }
        assert!(narrower > 0, "some search must stop before the fabric ends");
    }

    #[test]
    fn descent_over_a_walked_map_is_shortest_route() {
        // Every ordered switch pair, one past the table's end included:
        // the walk holds exactly `{x : d(s,x) + d(x,t) = d(s,t)}`, each
        // at `d(x,t)`; the descent over it is the one over the whole
        // map, and the RNG is left where that one leaves it.
        let graphs = stop_rule_graphs();
        let mut narrower = 0;
        for (g, t) in graphs.iter().enumerate() {
            let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
            let maps: Vec<DistanceMap> = ids.iter().map(|&s| distances(t, s)).collect();
            let (mut rng, mut walked) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
            for (&src, from_src) in ids.iter().zip(&maps) {
                for (&dst, to_dst) in ids.iter().zip(&maps) {
                    let walk = toward(t, from_src, dst);
                    assert_eq!(walk.source(), dst);
                    let on_a_shortest_route: Vec<(SwitchId, u64)> = match from_src.dist(dst) {
                        None => Vec::new(),
                        Some(total) => to_dst
                            .reachable()
                            .filter(|&(x, to_t)| {
                                from_src.dist(x).is_some_and(|d| d + to_t == total)
                            })
                            .collect(),
                    };
                    let got: Vec<(SwitchId, u64)> = walk.reachable().collect();
                    narrower += usize::from(got.len() < to_dst.reachable().count());
                    assert_eq!(got, on_a_shortest_route, "graph {g}: {src} → {dst}");
                    assert_eq!(
                        shortest_route_over(t, src, &walk, &mut walked),
                        shortest_route_over(t, src, to_dst, &mut rng),
                        "graph {g}: {src} → {dst}"
                    );
                }
            }
            assert_eq!(walked.gen::<u64>(), rng.gen::<u64>(), "graph {g}");
        }
        assert!(
            narrower > 0,
            "some walk must skip a switch the scan reaches"
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        assert_eq!(distances(&t, a).dist(b), None);
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
        assert_eq!(distances(&t, a).dist(b), None);
    }
}
