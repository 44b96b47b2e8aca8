//! Topology generators for the paper's evaluation settings.
//!
//! * [`leaf_spine`] — the testbed (§7): 2 spine + 5 leaf switches,
//!   hosts on leaves, one uplink from every leaf to every spine.
//! * [`fat_tree`] — the canonical k-ary fat-tree used in Figure 8(a).
//! * [`cube`] — n-dimensional mesh ("cube" in §7.2.1); Figure 8 uses an
//!   8×8×8 cube and controller placements at a corner or the center.
//! * [`random_regular`] — jellyfish-style random r-regular switch graph
//!   for irregular-topology experiments.
//!
//! All generators return a [`Generated`] bundle: the [`Topology`] plus
//! named switch groups ("spine", "leaf", "core", …) so experiments can
//! address layers without re-deriving them.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;

use dumbnet_types::SwitchId;

use crate::graph::Topology;

/// A generated topology plus named switch groups.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The topology itself.
    pub topology: Topology,
    /// Named switch groups, e.g. `"spine"`, `"leaf"`, `"core"`, `"agg"`,
    /// `"edge"`.
    pub groups: BTreeMap<String, Vec<SwitchId>>,
}

impl Generated {
    /// The switches in a named group (empty slice if absent).
    #[must_use]
    pub fn group(&self, name: &str) -> &[SwitchId] {
        self.groups.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Builds a leaf-spine fabric.
///
/// Every leaf has one uplink to every spine; `hosts_per_leaf` hosts hang
/// off each leaf. `ports` is the switch radix (the paper's testbed used
/// 64-port switches; experiments that sweep radix pass other values).
///
/// # Panics
///
/// Panics if the radix cannot accommodate the requested wiring — that is
/// a programming error in experiment setup, not a runtime condition.
#[must_use]
pub fn leaf_spine(spines: usize, leaves: usize, hosts_per_leaf: usize, ports: u8) -> Generated {
    let mut topo = Topology::new();
    let spine_ids: Vec<SwitchId> = (0..spines).map(|_| topo.add_switch(ports)).collect();
    let leaf_ids: Vec<SwitchId> = (0..leaves).map(|_| topo.add_switch(ports)).collect();
    for &leaf in &leaf_ids {
        for &spine in &spine_ids {
            topo.connect_auto(leaf, spine)
                .expect("leaf-spine radix too small for uplinks");
        }
        for _ in 0..hosts_per_leaf {
            topo.add_host_auto(leaf)
                .expect("leaf-spine radix too small for hosts");
        }
    }
    let mut groups = BTreeMap::new();
    groups.insert("spine".to_owned(), spine_ids);
    groups.insert("leaf".to_owned(), leaf_ids);
    Generated {
        topology: topo,
        groups,
    }
}

/// Builds the paper's testbed: 2 spines, 5 leaves, 27 hosts spread over
/// the leaves (5-6-6-5-5), 64-port switches, as described in §7.
#[must_use]
pub fn testbed() -> Generated {
    let mut g = leaf_spine(2, 5, 0, 64);
    let leaves: Vec<SwitchId> = g.group("leaf").to_vec();
    // 27 hosts over 5 leaves.
    let spread = [6usize, 6, 5, 5, 5];
    for (leaf, &n) in leaves.iter().zip(spread.iter()) {
        for _ in 0..n {
            g.topology.add_host_auto(*leaf).expect("testbed radix");
        }
    }
    g
}

/// Builds a k-ary fat-tree (k even): `k` pods of `k/2` edge and `k/2`
/// aggregation switches, `(k/2)²` cores, and `hosts_per_edge` hosts per
/// edge switch (pass `k/2` for the canonical full fat-tree).
///
/// Total switches: `5k²/4`. All switches have radix `k` unless `ports`
/// overrides it with a larger value (extra ports stay unwired — used by
/// discovery-cost experiments, which probe *all* ports).
///
/// # Panics
///
/// Panics if `k` is odd or zero.
#[must_use]
pub fn fat_tree(k: usize, hosts_per_edge: usize, ports: Option<u8>) -> Generated {
    assert!(k > 0 && k.is_multiple_of(2), "fat-tree arity must be even");
    let radix = ports.unwrap_or_else(|| u8::try_from(k).expect("k fits in a port byte"));
    assert!(
        usize::from(radix) >= k,
        "radix must be at least k to wire a k-ary fat-tree"
    );
    let half = k / 2;
    let mut topo = Topology::new();
    let cores: Vec<SwitchId> = (0..half * half).map(|_| topo.add_switch(radix)).collect();
    let mut aggs = Vec::with_capacity(k * half);
    let mut edges = Vec::with_capacity(k * half);
    let mut pods: Vec<Vec<SwitchId>> = Vec::with_capacity(k);
    for _pod in 0..k {
        let pod_aggs: Vec<SwitchId> = (0..half).map(|_| topo.add_switch(radix)).collect();
        let pod_edges: Vec<SwitchId> = (0..half).map(|_| topo.add_switch(radix)).collect();
        // Edge ↔ agg full bipartite within the pod.
        for &e in &pod_edges {
            for &a in &pod_aggs {
                topo.connect_auto(e, a).expect("fat-tree pod wiring");
            }
        }
        // Agg i connects to cores [i*half, (i+1)*half).
        for (i, &a) in pod_aggs.iter().enumerate() {
            for &c in &cores[i * half..(i + 1) * half] {
                topo.connect_auto(a, c).expect("fat-tree core wiring");
            }
        }
        // Hosts on edges.
        for &e in &pod_edges {
            for _ in 0..hosts_per_edge {
                topo.add_host_auto(e).expect("fat-tree host wiring");
            }
        }
        let mut pod_members = pod_aggs.clone();
        pod_members.extend_from_slice(&pod_edges);
        pods.push(pod_members);
        aggs.extend(pod_aggs);
        edges.extend(pod_edges);
    }
    let mut groups = BTreeMap::new();
    groups.insert("core".to_owned(), cores);
    groups.insert("agg".to_owned(), aggs);
    groups.insert("edge".to_owned(), edges);
    for (pod, members) in pods.into_iter().enumerate() {
        groups.insert(format!("pod{pod}"), members);
    }
    Generated {
        topology: topo,
        groups,
    }
}

/// Builds an n-dimensional mesh ("cube"). `dims` gives the side length in
/// each dimension; switches sit at every lattice point and connect to
/// their immediate neighbors (no wraparound, so corners exist — Figure 8
/// distinguishes corner vs. center controller placement).
///
/// `hosts_per_switch` hosts are attached to every switch. `ports` is the
/// radix; Figure 8(b) sweeps it while holding the link structure fixed.
///
/// # Panics
///
/// Panics if `dims` is empty, any dimension is zero, or the radix cannot
/// fit `2·dims.len() + hosts_per_switch` attachments.
#[must_use]
pub fn cube(dims: &[usize], hosts_per_switch: usize, ports: u8) -> Generated {
    assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0), "bad dims");
    let n: usize = dims.iter().product();
    let needed = 2 * dims.len() + hosts_per_switch;
    assert!(
        usize::from(ports) >= needed,
        "radix {ports} cannot fit {needed} attachments"
    );
    let mut topo = Topology::new();
    let ids: Vec<SwitchId> = (0..n).map(|_| topo.add_switch(ports)).collect();
    // Strides for mixed-radix coordinates.
    let mut strides = vec![1usize; dims.len()];
    for i in 1..dims.len() {
        strides[i] = strides[i - 1] * dims[i - 1];
    }
    let coord = |ix: usize, d: usize| (ix / strides[d]) % dims[d];
    for ix in 0..n {
        for (d, &stride) in strides.iter().enumerate() {
            if coord(ix, d) + 1 < dims[d] {
                let nb = ix + stride;
                topo.connect_auto(ids[ix], ids[nb]).expect("cube wiring");
            }
        }
    }
    for &id in &ids {
        for _ in 0..hosts_per_switch {
            topo.add_host_auto(id).expect("cube host wiring");
        }
    }
    let corner = vec![ids[0]];
    let center_ix: usize = dims
        .iter()
        .enumerate()
        .map(|(d, &len)| (len / 2) * strides[d])
        .sum();
    let center = vec![ids[center_ix]];
    let mut groups = BTreeMap::new();
    groups.insert("all".to_owned(), ids);
    groups.insert("corner".to_owned(), corner);
    groups.insert("center".to_owned(), center);
    Generated {
        topology: topo,
        groups,
    }
}

/// Builds a random `r`-regular switch graph of `n` switches (jellyfish
/// style) with `hosts_per_switch` hosts each, using pairing with retries.
///
/// The result may occasionally be slightly irregular (a few switches one
/// short of `r`) when the random pairing gets stuck; this mirrors real
/// jellyfish construction and is fine for the experiments that use it.
/// The graph is always **connected**: stub matching can strand islands
/// (which would make the fabric unusable — discovery, for one, can only
/// map the controller's component), so a repair pass reconnects
/// components with degree-preserving edge rewires.
///
/// # Panics
///
/// Panics if `n·r` is odd or the radix is too small.
#[must_use]
pub fn random_regular<R: Rng>(
    n: usize,
    r: usize,
    hosts_per_switch: usize,
    ports: u8,
    rng: &mut R,
) -> Generated {
    assert!((n * r).is_multiple_of(2), "n*r must be even");
    assert!(
        usize::from(ports) >= r + hosts_per_switch,
        "radix too small"
    );
    // Stub matching over an abstract edge list: each switch contributes
    // r stubs; repeatedly shuffle and pair, rejecting self-loops and
    // duplicate edges. Materialization happens only after the repair
    // pass, because repair needs to *remove* edges.
    let mut degree = vec![0usize; n];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _attempt in 0..200 {
        let mut stubs: Vec<usize> = Vec::new();
        for (ix, &d) in degree.iter().enumerate() {
            for _ in 0..r.saturating_sub(d) {
                stubs.push(ix);
            }
        }
        if stubs.is_empty() {
            break;
        }
        stubs.shuffle(rng);
        let mut progressed = false;
        let mut i = 0;
        while i + 1 < stubs.len() {
            let (a, b) = (stubs[i], stubs[i + 1]);
            let key = (a.min(b), a.max(b));
            if a != b && !seen.contains(&key) && degree[a] < r && degree[b] < r {
                seen.insert(key);
                edges.push(key);
                degree[a] += 1;
                degree[b] += 1;
                progressed = true;
            }
            i += 2;
        }
        if !progressed {
            break;
        }
    }
    reconnect_components(n, r, &mut degree, &mut edges);
    let mut topo = Topology::new();
    let ids: Vec<SwitchId> = (0..n).map(|_| topo.add_switch(ports)).collect();
    for &(a, b) in &edges {
        topo.connect_auto(ids[a], ids[b]).expect("regular wiring");
    }
    for &id in &ids {
        for _ in 0..hosts_per_switch {
            topo.add_host_auto(id).expect("regular host wiring");
        }
    }
    let mut groups = BTreeMap::new();
    groups.insert("all".to_owned(), ids);
    Generated {
        topology: topo,
        groups,
    }
}

/// Merges disconnected components left behind by stalled stub matching.
///
/// Deterministic (no randomness): components are merged smallest-index
/// first, preferring a plain edge between two under-degree switches and
/// falling back to a degree-preserving 2-edge rewire — remove an edge
/// inside each component, cross-connect the endpoints — when both sides
/// are saturated.
fn reconnect_components(n: usize, r: usize, degree: &mut [usize], edges: &mut Vec<(usize, usize)>) {
    loop {
        // Label components by union-find.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for &(a, b) in edges.iter() {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let comp: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
        let root = comp[0];
        let Some(outsider) = (0..n).find(|&i| comp[i] != root) else {
            return; // Single component: done.
        };
        let other = comp[outsider];
        let spare_in = |c: usize| (0..n).find(|&i| comp[i] == c && degree[i] < r);
        if let (Some(a), Some(b)) = (spare_in(root), spare_in(other)) {
            // Both sides have spare stubs: a direct cross edge (cannot
            // duplicate — the endpoints were in different components).
            edges.push((a.min(b), a.max(b)));
            degree[a] += 1;
            degree[b] += 1;
            continue;
        }
        let edge_in = |edges: &[(usize, usize)], c: usize| {
            edges
                .iter()
                .position(|&(a, b)| comp[a] == c && comp[b] == c)
        };
        match (edge_in(edges, root), edge_in(edges, other)) {
            (Some(ix), Some(iy)) => {
                // Degree-preserving rewire: (x,y) + (u,v) → (x,u) + (y,v).
                let (x, y) = edges[ix];
                let (u, v) = edges[iy];
                let (hi, lo) = (ix.max(iy), ix.min(iy));
                edges.swap_remove(hi);
                edges.swap_remove(lo);
                edges.push((x.min(u), x.max(u)));
                edges.push((y.min(v), y.max(v)));
            }
            (Some(ix), None) => {
                // `other` is edgeless (isolated switches): splice the
                // first one into a root-component edge.
                let (x, y) = edges.swap_remove(ix);
                edges.push((x.min(outsider), x.max(outsider)));
                edges.push((y.min(outsider), y.max(outsider)));
                degree[outsider] += 2;
            }
            (None, Some(iy)) => {
                // Root component is edgeless instead: splice node 0 in.
                let (u, v) = edges.swap_remove(iy);
                edges.push((0, u));
                edges.push((0, v));
                degree[0] += 2;
            }
            (None, None) => {
                // Two edgeless components: both under-degree, so the
                // spare-stub branch above must have handled them.
                unreachable!("edgeless components always have spare stubs");
            }
        }
    }
}

/// Irregular graphs the crate's differential tests share.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A k = 4 fat-tree with a failed trunk and an unwired switch.
    pub(crate) fn degraded_fat_tree() -> Topology {
        let mut t = fat_tree(4, 2, None).topology;
        let trunk = t.links().next().expect("fat-tree has links").id;
        t.set_link_state(trunk, false).unwrap();
        t.add_switch(4);
        t
    }

    /// A line `a – b – c – d` (switches 0 to 3, host 0 on `a` and host
    /// 1 on `d`) whose `b – c` hop is a bridge, dressed with what
    /// lookups have to survive: `a – b` doubled, a loop-back cable on
    /// `c`, and an `a – c` shortcut that is down.
    pub(crate) fn awkward_line() -> Topology {
        let mut t = Topology::new();
        let s = [(); 4].map(|()| t.add_switch(8));
        for w in s.windows(2) {
            t.connect_auto(w[0], w[1]).unwrap();
        }
        t.connect_auto(s[0], s[1]).unwrap();
        t.connect(s[2], 7, s[2], 6).unwrap();
        let shortcut = t.connect_auto(s[0], s[2]).unwrap();
        t.set_link_state(shortcut, false).unwrap();
        t.add_host_auto(s[0]).unwrap();
        t.add_host_auto(s[3]).unwrap();
        t
    }

    /// A primary whose backup ties at the source: the only shortest
    /// route `s – p1 – p2 – t` (switches 0 to 3, host 0 on `s` and host
    /// 1 on `t`) is a cut, so with its links tolled the backup search
    /// from `t` labels `s` through `p1` (`t – a – b – p1`, then the
    /// tolled hop) long before it reaches `e` (`t – p2` tolled, then
    /// `c – e`), whose route costs the same. The descent must see both.
    pub(crate) fn tolled_tie() -> Topology {
        let mut t = Topology::new();
        let [s, p1, p2, dst, a, b, c, e] = [(); 8].map(|()| t.add_switch(8));
        for (x, y) in [
            (s, p1),
            (p1, p2),
            (p2, dst),
            (dst, a),
            (a, b),
            (b, p1),
            (p2, c),
            (c, e),
            (e, s),
        ] {
            t.connect_auto(x, y).unwrap();
        }
        t.add_host_auto(s).unwrap();
        t.add_host_auto(dst).unwrap();
        t
    }

    /// A sparse random 3-regular graph of 24 switches, one host each,
    /// with every fifth link doubled: a diameter well past a window's
    /// reach, and parallel links for the descent to deduplicate.
    pub(crate) fn doubled_random_regular() -> Topology {
        let mut rng = StdRng::seed_from_u64(23);
        let mut t = random_regular(24, 3, 1, 8, &mut rng).topology;
        let twins: Vec<_> = t
            .links()
            .step_by(5)
            .map(|l| (l.a.switch, l.b.switch))
            .collect();
        for (a, b) in twins {
            t.connect_auto(a, b).unwrap();
        }
        t
    }

    /// A k = 4 fat-tree with its last trunk down.
    pub(crate) fn trunk_down_fat_tree() -> Topology {
        let mut t = fat_tree(4, 2, None).topology;
        let last = t.links().last().expect("fat-tree has links").id;
        t.set_link_state(last, false).unwrap();
        t
    }

    /// The graphs a stopped search is held to the whole one on: the
    /// testbed, both fat-trees above, the line, the tie, the doubled
    /// random graph and a 4 × 4 × 4 mesh (diameter 9).
    pub(crate) fn stop_rule_graphs() -> [Topology; 7] {
        [
            testbed().topology,
            degraded_fat_tree(),
            awkward_line(),
            tolled_tie(),
            doubled_random_regular(),
            trunk_down_fat_tree(),
            cube(&[4, 4, 4], 1, 8).topology,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spath;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn testbed_matches_paper() {
        let g = testbed();
        let t = &g.topology;
        assert_eq!(t.switch_count(), 7);
        assert_eq!(t.host_count(), 27);
        assert_eq!(t.link_count(), 10); // 5 leaves × 2 spines.
        t.check_invariants().unwrap();
        // Every leaf reaches every other leaf in 2 hops.
        let leaves = g.group("leaf");
        for &a in leaves {
            for &b in leaves {
                if a != b {
                    assert_eq!(spath::distances(t, a).dist(b), Some(2));
                }
            }
        }
    }

    #[test]
    fn fat_tree_k4_structure() {
        let g = fat_tree(4, 2, None);
        let t = &g.topology;
        assert_eq!(g.group("core").len(), 4);
        assert_eq!(g.group("agg").len(), 8);
        assert_eq!(g.group("edge").len(), 8);
        assert_eq!(t.switch_count(), 20); // 5k²/4 for k=4.
        assert_eq!(t.host_count(), 16); // k³/4.
        assert_eq!(t.link_count(), 32); // 16 edge-agg + 16 agg-core.
        t.check_invariants().unwrap();
        // Edge-to-edge across pods is 4 hops.
        let e = g.group("edge");
        assert_eq!(spath::distances(t, e[0]).dist(e[7]), Some(4));
        // Within a pod: 2 hops.
        assert_eq!(spath::distances(t, e[0]).dist(e[1]), Some(2));
    }

    #[test]
    fn fat_tree_radix_override() {
        let g = fat_tree(4, 0, Some(64));
        assert!(g.topology.switches().all(|s| s.ports == 64));
        // Cores and aggs are fully wired at degree k; edges carry only
        // their k/2 uplinks when no hosts are attached.
        for &c in g.group("core").iter().chain(g.group("agg")) {
            assert_eq!(g.topology.switch(c).unwrap().degree(), 4);
        }
        for &e in g.group("edge") {
            assert_eq!(g.topology.switch(e).unwrap().degree(), 2);
        }
    }

    #[test]
    fn cube_8x8x8_structure() {
        let g = cube(&[8, 8, 8], 0, 64);
        let t = &g.topology;
        assert_eq!(t.switch_count(), 512);
        // Mesh links: 3 * 8*8*7.
        assert_eq!(t.link_count(), 3 * 8 * 8 * 7);
        // Corner has degree 3, center degree 6.
        let corner = g.group("corner")[0];
        let center = g.group("center")[0];
        assert_eq!(t.switch(corner).unwrap().degree(), 3);
        assert_eq!(t.switch(center).unwrap().degree(), 6);
        // Corner-to-opposite-corner distance is 21 hops.
        let far = SwitchId::new(511);
        assert_eq!(spath::distances(t, corner).dist(far), Some(21));
    }

    #[test]
    fn cube_center_placement_shortens_eccentricity() {
        let g = cube(&[5, 5, 5], 0, 16);
        let t = &g.topology;
        let ecc = |s: SwitchId| {
            spath::distances(t, s)
                .reachable()
                .map(|(_, d)| d)
                .max()
                .unwrap()
        };
        assert!(ecc(g.group("center")[0]) < ecc(g.group("corner")[0]));
    }

    #[test]
    fn random_regular_mostly_regular() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(40, 4, 1, 8, &mut rng);
        let t = &g.topology;
        t.check_invariants().unwrap();
        assert_eq!(t.switch_count(), 40);
        assert_eq!(t.host_count(), 40);
        let shortfall: usize = t
            .switches()
            .map(|s| 5usize.saturating_sub(s.degree()))
            .sum();
        assert!(shortfall <= 2, "too irregular: shortfall {shortfall}");
    }

    #[test]
    fn one_dimensional_cube_is_a_line() {
        let g = cube(&[4], 1, 4);
        assert_eq!(g.topology.link_count(), 3);
        assert_eq!(
            spath::distances(&g.topology, g.group("corner")[0]).dist(SwitchId::new(3)),
            Some(3)
        );
    }
}
