//! Mapping a [`Topology`] onto the flow-level simulator.
//!
//! The flow-level engine ([`FlowSim`]) knows only capacitated edges. The
//! *enumeration* of those edges — one per trunk-link direction and per
//! host access-link direction — is owned by the shared wire↔edge mapping
//! ([`EdgeMap`] in `dumbnet-topology`), which the hybrid engine indexes
//! through as well; this module merely materializes the enumerated edges
//! into a `FlowSim` with capacities and converts switch-level [`Route`]s
//! into the edge paths flows follow. Used by the throughput experiments
//! (aggregate leaf throughput, Figure 11(b), Figure 13).

use dumbnet_sim::{EdgeId, FlowSim};
use dumbnet_topology::{EdgeMap, Route, Topology};
use dumbnet_types::{Bandwidth, HostId, SwitchId};

/// The topology ↔ flow-simulator mapping.
///
/// Parallel links between the same switch pair are merged into one edge
/// (their capacities could be summed by the caller if a topology with
/// parallel trunks is ever used; the evaluation topologies have none).
#[derive(Debug, Clone)]
pub struct FlowMap {
    /// The shared canonical enumeration; flow-simulator edge `i` is
    /// exactly enumeration index `i`.
    map: EdgeMap,
}

impl FlowMap {
    /// Materializes edges for every up link and host attachment of
    /// `topo` into `fs`, in the shared enumeration order.
    #[must_use]
    pub fn build(
        fs: &mut FlowSim,
        topo: &Topology,
        trunk_capacity: Bandwidth,
        access_capacity: Bandwidth,
    ) -> FlowMap {
        let map = EdgeMap::build(topo);
        for (ix, kind) in map.edges() {
            let capacity = match kind {
                dumbnet_topology::EdgeKind::Trunk { .. } => trunk_capacity,
                _ => access_capacity,
            };
            let created = fs.add_edge(capacity);
            assert_eq!(
                created.0, ix.0,
                "FlowMap expects a simulator whose edges mirror the enumeration"
            );
        }
        FlowMap { map }
    }

    /// The shared enumeration this map materialized.
    #[must_use]
    pub fn edge_map(&self) -> &EdgeMap {
        &self.map
    }

    /// The edge path a flow from `src` to `dst` takes along `route`
    /// (access uplink, trunk hops, access downlink).
    ///
    /// Returns `None` when the route uses a switch pair with no edge
    /// (e.g. a failed link whose capacity the caller zeroed is still
    /// returned — capacity handles the failure; a missing *edge* means
    /// the route predates the map).
    #[must_use]
    pub fn path(&self, src: HostId, dst: HostId, route: &Route) -> Option<Vec<EdgeId>> {
        let path = self.map.route_path(src, dst, route)?;
        Some(path.into_iter().map(|ix| EdgeId(ix.0)).collect())
    }

    /// Zeroes both directions of the `a`–`b` trunk (failure injection).
    pub fn fail_link(&self, fs: &mut FlowSim, a: SwitchId, b: SwitchId) {
        for key in [(a, b), (b, a)] {
            if let Some(ix) = self.map.trunk(key.0, key.1) {
                fs.set_capacity(EdgeId(ix.0), Bandwidth::ZERO);
            }
        }
    }

    /// Restores both directions of the `a`–`b` trunk to `capacity`.
    pub fn restore_link(&self, fs: &mut FlowSim, a: SwitchId, b: SwitchId, capacity: Bandwidth) {
        for key in [(a, b), (b, a)] {
            if let Some(ix) = self.map.trunk(key.0, key.1) {
                fs.set_capacity(EdgeId(ix.0), capacity);
            }
        }
    }

    /// Caps both directions of every trunk touching switch `s` (the
    /// Figure 13 setup limits the *spine switch ports* to 500 Mbps).
    pub fn cap_switch_ports(&self, fs: &mut FlowSim, s: SwitchId, capacity: Bandwidth) {
        for ((a, b), ix) in self.map.trunks() {
            if a == s || b == s {
                fs.set_capacity(EdgeId(ix.0), capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_topology::{generators, spath};
    use dumbnet_types::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (FlowSim, FlowMap, Topology) {
        let g = generators::testbed();
        let mut fs = FlowSim::new();
        let map = FlowMap::build(
            &mut fs,
            &g.topology,
            Bandwidth::gbps(10),
            Bandwidth::gbps(10),
        );
        (fs, map, g.topology)
    }

    fn route(topo: &Topology, src: HostId, dst: HostId, seed: u64) -> Route {
        let mut rng = StdRng::seed_from_u64(seed);
        spath::shortest_route(
            topo,
            topo.host(src).unwrap().attached.switch,
            topo.host(dst).unwrap().attached.switch,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn edge_counts() {
        let (fs, map, topo) = setup();
        // 10 links × 2 directions + 2 access edges per host.
        assert_eq!(map.edge_map().len(), 20 + topo.host_count() * 2);
        assert_eq!(fs.edge_count(), map.edge_map().len());
    }

    #[test]
    fn cross_leaf_path_has_four_edges() {
        let (mut fs, map, topo) = setup();
        let r = route(&topo, HostId(0), HostId(26), 1);
        let path = map.path(HostId(0), HostId(26), &r).unwrap();
        assert_eq!(path.len(), 4); // up, leaf→spine, spine→leaf, down.
        let f = fs.start_flow(path, u64::MAX / 16);
        assert_eq!(fs.flow_rate(f).bits_per_sec(), 10_000_000_000);
    }

    #[test]
    fn same_leaf_path_skips_trunks() {
        let (_, map, topo) = setup();
        let r = route(&topo, HostId(0), HostId(1), 1);
        let path = map.path(HostId(0), HostId(1), &r).unwrap();
        assert_eq!(path.len(), 2); // Access up + down only.
    }

    #[test]
    fn failed_link_starves_flows() {
        let (mut fs, map, topo) = setup();
        let r = route(&topo, HostId(0), HostId(26), 1);
        let sw = r.switches().to_vec();
        let path = map.path(HostId(0), HostId(26), &r).unwrap();
        let f = fs.start_flow(path, u64::MAX / 16);
        map.fail_link(&mut fs, sw[0], sw[1]);
        assert_eq!(fs.flow_rate(f).bits_per_sec(), 0);
        map.restore_link(&mut fs, sw[0], sw[1], Bandwidth::gbps(10));
        assert!(fs.flow_rate(f).bits_per_sec() > 0);
    }

    #[test]
    fn spine_port_capping() {
        let (mut fs, map, topo) = setup();
        let spine = SwitchId(0);
        map.cap_switch_ports(&mut fs, spine, Bandwidth::mbps(500));
        // A flow forced through spine 0 is capped.
        let rng = StdRng::seed_from_u64(2);
        let _ = rng;
        let leaf_a = topo.host(HostId(0)).unwrap().attached.switch;
        let leaf_b = topo.host(HostId(26)).unwrap().attached.switch;
        let r = Route::new(vec![leaf_a, spine, leaf_b]).unwrap();
        let path = map.path(HostId(0), HostId(26), &r).unwrap();
        let f = fs.start_flow(path, u64::MAX / 16);
        assert_eq!(fs.flow_rate(f).bits_per_sec(), 500_000_000);
        let _ = SimTime::ZERO;
    }
}
