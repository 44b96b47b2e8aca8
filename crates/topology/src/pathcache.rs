//! Seeded, deterministic path caches with explicit invalidation.
//!
//! The controller recomputes a shortest route (a BFS over the whole
//! fabric, then a descent) for every hello, heartbeat, patch flood, and
//! path reply — at fat-tree k=20 scale that dominates emulator
//! wall-clock. The caches here memoize the *routes* per topology
//! *epoch*; the distance maps behind them are never kept (a miss scans
//! from its destination until its source's distance is final, and
//! [`RouteCache::precompute`] shares one scan among the pairs of a batch
//! that end at the same switch, or that start at the same switch and
//! walk it back with [`spath::toward`]; each map is dropped with its
//! group). Two invalidation rules:
//!
//! * **Link down** — surgical: only cached routes that traverse the dead
//!   edge are evicted ([`RouteCache::invalidate_edge`]). Routes avoiding
//!   the edge stay valid; cached *unreachable* verdicts also stay valid,
//!   because removing capacity cannot create connectivity.
//! * **Link up** — global: the epoch is bumped and the cache cleared
//!   ([`RouteCache::bump_epoch`]), because restored capacity can shorten
//!   any route and revive unreachable pairs.
//!
//! Determinism is the design constraint. The paper's load-balancing
//! trick randomizes equal-cost choices, so a naive cache that consumed
//! the caller's RNG on miss would make results depend on *which calls
//! miss* — i.e. on call order. Instead every `(src, dst)` pair derives a
//! private RNG seed by mixing the cache seed, the epoch, and the pair
//! ([`RouteCache::pair_seed`]): the cached route equals the on-demand
//! route no matter when, in what order, or in which batch it was
//! computed. ECMP spreading across *pairs* (and across epochs) is
//! preserved; repeated queries of one pair within an epoch are stable —
//! which is exactly what a cache means.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dumbnet_types::{heap, mix64, FastHashMap, SwitchId};

use crate::graph::Topology;
use crate::route::Route;
use crate::spath;

/// Cache effectiveness counters, named so consumers can't transpose
/// them the way an anonymous `(u64, u64)` invites.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed a route (including precomputed pairs).
    pub misses: u64,
}

/// A memo of shortest routes keyed `(src, dst)` within one topology
/// epoch. `None` values cache unreachability.
#[derive(Debug, Clone)]
pub struct RouteCache {
    seed: u64,
    epoch: u64,
    routes: HashMap<(SwitchId, SwitchId), Option<Route>>,
    hits: u64,
    misses: u64,
}

impl RouteCache {
    /// Creates an empty cache. `seed` fixes the ECMP tie-break stream;
    /// two caches with the same seed agree on every route.
    #[must_use]
    pub fn new(seed: u64) -> RouteCache {
        RouteCache {
            seed,
            epoch: 0,
            routes: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The heap the memoized routes hold.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let routes: usize = self.routes.values().flatten().map(Route::heap_bytes).sum();
        heap::hash_map(&self.routes) + routes
    }

    /// The current topology epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Effectiveness counters as named fields.
    #[must_use]
    pub fn stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Number of cached entries (including cached unreachability).
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The derived RNG seed for one pair in the current epoch — the
    /// reason cached and on-demand answers coincide (see module docs).
    #[must_use]
    pub fn pair_seed(&self, src: SwitchId, dst: SwitchId) -> u64 {
        mix64(
            self.seed
                ^ mix64(self.epoch)
                ^ mix64(src.get().wrapping_mul(2) ^ 1)
                ^ mix64(dst.get().wrapping_mul(2)),
        )
    }

    /// Computes and memoizes the route of every pair in `pairs`, with
    /// one distance map per distinct destination: the pairs are grouped
    /// by `dst`, each group descends over the same map, and one map is
    /// alive at a time.
    fn fill_by_dst(&mut self, topo: &Topology, pairs: &mut [(SwitchId, SwitchId)]) {
        pairs.sort_unstable_by_key(|&(src, dst)| (dst, src));
        for group in pairs.chunk_by(|a, b| a.1 == b.1) {
            let to_dst = spath::distances(topo, group[0].1);
            for &(src, _) in group {
                self.memoize(topo, src, &to_dst);
            }
        }
    }

    /// [`RouteCache::fill_by_dst`] for pairs that share a source
    /// instead: one scan from each distinct `src`, and per pair a
    /// [`spath::toward`] walk back from `dst` over it.
    fn fill_by_src(&mut self, topo: &Topology, pairs: &mut [(SwitchId, SwitchId)]) {
        pairs.sort_unstable();
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let from_src = spath::distances(topo, group[0].0);
            for &(src, dst) in group {
                self.memoize(topo, src, &spath::toward(topo, &from_src, dst));
            }
        }
    }

    /// Memoizes the route from `src` to `to_dst.source()`. The pair
    /// draws from its own [`RouteCache::pair_seed`], and a descent over
    /// either kind of map draws as [`spath::shortest_route`] does, so
    /// how a batch is grouped changes no answer.
    fn memoize(&mut self, topo: &Topology, src: SwitchId, to_dst: &spath::DistanceMap) {
        let dst = to_dst.source();
        let mut rng = StdRng::seed_from_u64(self.pair_seed(src, dst));
        let route = spath::shortest_route_over(topo, src, to_dst, &mut rng);
        self.routes.insert((src, dst), route);
    }

    /// The shortest route from `src` to `dst`, memoized. `None` means
    /// unreachable (also memoized).
    pub fn route(&mut self, topo: &Topology, src: SwitchId, dst: SwitchId) -> Option<Route> {
        if let Some(cached) = self.routes.get(&(src, dst)) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        // The scan stops once `src`'s distance is final: the descent
        // reads nothing farther out.
        self.memoize(topo, src, &spath::distances_until(topo, dst, src, 0));
        self.routes[&(src, dst)].clone()
    }

    /// Link-recovery invalidation: restored capacity can improve any
    /// route, so the epoch advances and everything is dropped (including
    /// cached-unreachable verdicts, which may now be stale).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.routes.clear();
    }

    /// Link-failure invalidation: evicts exactly the routes that
    /// traverse the `a`–`b` edge (either direction). Cached routes that
    /// avoid the edge — and cached unreachability — remain valid.
    /// Returns the number of entries evicted.
    pub fn invalidate_edge(&mut self, a: SwitchId, b: SwitchId) -> usize {
        let before = self.routes.len();
        self.routes.retain(|_, route| {
            !route.as_ref().is_some_and(|r| {
                r.switches()
                    .windows(2)
                    .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
            })
        });
        before - self.routes.len()
    }

    /// Precomputes routes for `pairs`, skipping those already cached.
    /// Because every pair's tie-break RNG is derived from
    /// [`RouteCache::pair_seed`], the result is what on-demand lookups
    /// would have cached. The batch serves each pair from the endpoint
    /// it shares with more of the batch: a pair whose source starts more
    /// pairs than its destination ends is grouped by source, any other
    /// by destination. So the fabric is scanned once per distinct
    /// grouping endpoint instead of once per pair, and the controller's
    /// hello batch (its switch to and from every other) costs two scans
    /// and one [`spath::toward`] walk per other switch.
    pub fn precompute(&mut self, topo: &Topology, pairs: &[(SwitchId, SwitchId)]) {
        let todo: Vec<(SwitchId, SwitchId)> = pairs
            .iter()
            .copied()
            .filter(|p| !self.routes.contains_key(p))
            .collect();
        self.misses += todo.len() as u64;
        let (mut starts, mut ends) = (FastHashMap::default(), FastHashMap::default());
        for &(src, dst) in &todo {
            *starts.entry(src).or_insert(0usize) += 1;
            *ends.entry(dst).or_insert(0usize) += 1;
        }
        let (mut by_src, mut by_dst): (Vec<_>, Vec<_>) = todo
            .into_iter()
            .partition(|(src, dst)| starts[src] > ends[dst]);
        self.fill_by_src(topo, &mut by_src);
        self.fill_by_dst(topo, &mut by_dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn testbed() -> (Topology, Vec<SwitchId>) {
        let g = generators::testbed();
        let switches: Vec<SwitchId> = g.topology.switches().map(|s| s.id).collect();
        (g.topology, switches)
    }

    impl RouteCache {
        /// Precomputes all ordered pairs over `switches`.
        fn precompute_all_pairs(&mut self, topo: &Topology, switches: &[SwitchId]) {
            let pairs: Vec<(SwitchId, SwitchId)> = switches
                .iter()
                .flat_map(|&a| switches.iter().map(move |&b| (a, b)))
                .filter(|(a, b)| a != b)
                .collect();
            self.precompute(topo, &pairs);
        }
    }

    #[test]
    fn cached_equals_on_demand_regardless_of_order() {
        let (topo, sw) = testbed();
        // Two caches, same seed, queried in opposite orders: every
        // answer must agree.
        let mut fwd = RouteCache::new(42);
        let mut rev = RouteCache::new(42);
        let mut pairs: Vec<(SwitchId, SwitchId)> = Vec::new();
        for &a in &sw {
            for &b in &sw {
                if a != b {
                    pairs.push((a, b));
                }
            }
        }
        let forward: Vec<_> = pairs.iter().map(|&(a, b)| fwd.route(&topo, a, b)).collect();
        let backward: Vec<_> = {
            let mut rp: Vec<_> = pairs
                .iter()
                .rev()
                .map(|&(a, b)| ((a, b), rev.route(&topo, a, b)))
                .collect();
            rp.reverse();
            rp.into_iter().map(|(_, r)| r).collect()
        };
        assert_eq!(forward, backward);
        // And a repeat query hits the cache with the same answer.
        let (a, b) = pairs[0];
        assert_eq!(fwd.route(&topo, a, b), forward[0]);
        assert!(fwd.stats().hits > 0);
    }

    #[test]
    fn precompute_shares_maps_without_changing_routes() {
        // The controller's hello-time batch on the `fabric_mix` shape:
        // its own switch to and from every other host-bearing switch,
        // so half the pairs end at one switch.
        let topo = generators::fat_tree(8, 4, None).topology;
        let mut edge_switches: Vec<SwitchId> = topo.hosts().map(|h| h.attached.switch).collect();
        edge_switches.dedup();
        let my_sw = edge_switches[0];
        let pairs: Vec<(SwitchId, SwitchId)> = edge_switches[1..]
            .iter()
            .flat_map(|&s| [(my_sw, s), (s, my_sw)])
            .collect();
        assert_eq!(pairs.len(), 62);
        let mut on_demand = RouteCache::new(11);
        let want: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| on_demand.route(&topo, a, b))
            .collect();
        let mut batched = RouteCache::new(11);
        batched.precompute(&topo, &pairs);
        assert_eq!(batched.stats().misses, 62);
        let got: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| batched.route(&topo, a, b))
            .collect();
        assert_eq!(got, want);
        assert_eq!(batched.stats().hits, 62, "precomputed pairs must hit");
    }

    #[test]
    fn a_mixed_batch_is_what_on_demand_lookups_cache() {
        // Pairs grouped by source (the first switch to ten others),
        // pairs grouped by destination (ten others to the last switch),
        // pairs with the unwired switch at either end, and an id past
        // the table at either end. A failed trunk makes some routes
        // detour.
        let mut topo = generators::fat_tree(4, 2, None).topology;
        let trunk = topo.links().nth(3).expect("fat-tree has links").id;
        topo.set_link_state(trunk, false).unwrap();
        let lonely = topo.add_switch(4);
        let past = SwitchId::new(topo.switch_count() as u64 + 3);
        let sw: Vec<SwitchId> = topo.switches().map(|s| s.id).collect();
        let (first, last) = (sw[0], sw[sw.len() - 2]);
        let mut pairs: Vec<(SwitchId, SwitchId)> = Vec::new();
        pairs.extend(sw[1..11].iter().map(|&s| (first, s)));
        pairs.extend(sw[5..15].iter().map(|&s| (s, last)));
        pairs.extend([(first, lonely), (lonely, last), (first, past), (past, last)]);
        pairs.extend([
            (lonely, sw[3]),
            (lonely, sw[13]),
            (past, sw[4]),
            (past, sw[12]),
        ]);
        pairs.extend([(sw[6], past), (sw[7], sw[8])]);
        let mut on_demand = RouteCache::new(17);
        let want: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| on_demand.route(&topo, a, b))
            .collect();
        assert!(want.iter().any(Option::is_some) && want.iter().any(Option::is_none));
        let mut batched = RouteCache::new(17);
        batched.precompute(&topo, &pairs);
        let misses = pairs.len() as u64;
        assert_eq!(batched.stats(), RouteCacheStats { hits: 0, misses });
        let got: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| batched.route(&topo, a, b))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            batched.stats(),
            RouteCacheStats {
                hits: misses,
                misses
            }
        );
    }

    #[test]
    fn link_down_evicts_only_crossing_routes() {
        let (mut topo, sw) = testbed();
        let mut cache = RouteCache::new(3);
        cache.precompute_all_pairs(&topo, &sw);
        let filled = cache.len();
        // Pick an edge some cached route actually uses.
        let used_edge = (0..sw.len())
            .flat_map(|i| (0..sw.len()).map(move |j| (i, j)))
            .filter(|(i, j)| i != j)
            .find_map(|(i, j)| {
                let r = cache.route(&topo, sw[i], sw[j])?;
                r.switches().windows(2).next().map(|w| (w[0], w[1]))
            })
            .expect("some multi-hop route");
        let evicted = cache.invalidate_edge(used_edge.0, used_edge.1);
        assert!(evicted > 0, "the route using the edge must go");
        assert!(
            cache.len() < filled,
            "eviction must shrink the cache, not clear it"
        );
        assert!(!cache.is_empty(), "surgical eviction, not a full clear");
        // Recomputed routes against the degraded topology avoid the
        // edge.
        let link = topo
            .link_between(used_edge.0, used_edge.1)
            .map(|l| l.id)
            .expect("edge exists");
        topo.set_link_state(link, false).expect("link flips");
        let epoch_before = cache.epoch();
        for &a in &sw {
            for &b in &sw {
                if a == b {
                    continue;
                }
                if let Some(r) = cache.route(&topo, a, b) {
                    assert!(
                        !r.switches()
                            .windows(2)
                            .any(|w| (w[0] == used_edge.0 && w[1] == used_edge.1)
                                || (w[0] == used_edge.1 && w[1] == used_edge.0)),
                        "recomputed route must avoid the dead edge"
                    );
                }
            }
        }
        assert_eq!(cache.epoch(), epoch_before, "link down must not bump epoch");
    }

    #[test]
    fn link_up_bumps_epoch_and_clears() {
        let (topo, sw) = testbed();
        let mut cache = RouteCache::new(5);
        cache.precompute_all_pairs(&topo, &sw);
        assert!(!cache.is_empty());
        let seed_before = cache.pair_seed(sw[0], sw[1]);
        cache.bump_epoch();
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 1);
        assert_ne!(
            cache.pair_seed(sw[0], sw[1]),
            seed_before,
            "new epoch must rotate the ECMP tie-break stream"
        );
        // Still answers after the clear.
        assert!(cache.route(&topo, sw[0], sw[1]).is_some());
    }

    #[test]
    fn unreachable_is_cached_too() {
        let g = generators::testbed();
        let mut topo = g.topology;
        let switches: Vec<SwitchId> = topo.switches().map(|s| s.id).collect();
        // Cut every link touching the first leaf to isolate it.
        let cut: Vec<_> = topo
            .links()
            .filter(|l| l.a.switch == switches[0] || l.b.switch == switches[0])
            .map(|l| l.id)
            .collect();
        for l in cut {
            topo.set_link_state(l, false).unwrap();
        }
        let mut cache = RouteCache::new(9);
        assert!(cache.route(&topo, switches[0], switches[1]).is_none());
        assert!(cache.route(&topo, switches[0], switches[1]).is_none());
        assert_eq!(
            cache.stats(),
            RouteCacheStats { hits: 1, misses: 1 },
            "second lookup must hit the None entry"
        );
    }
}
