//! Building and driving emulated DumbNet fabrics.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use dumbnet_controller::{Controller, ControllerConfig};
use dumbnet_host::{HostAgent, HostAgentConfig};
use dumbnet_sim::{
    EdgeId, Engine, HeapCensus, HybridWorld, LinkParams, NodeAddr, ShardedWorld, WireId, World,
};
use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet_telemetry::TraceEvent;
use dumbnet_topology::partition::assign_cells;
use dumbnet_topology::{EdgeKind, EdgeMap, Route, Topology};
use dumbnet_types::{
    heap, Bandwidth, DumbNetError, HostId, MacAddr, PortNo, Result, SimTime, SwitchId,
};

/// The host agent's NIC port inside the engine.
const NIC: PortNo = match PortNo::new(1) {
    Some(p) => p,
    None => panic!("port 1 is valid"),
};

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Engine seed (controls all randomized tie-breaking).
    pub seed: u64,
    /// Switch-to-switch link characteristics.
    pub trunk: LinkParams,
    /// Switch hardware parameters.
    pub switch: DumbSwitchConfig,
    /// Template agent configuration applied to every ordinary host.
    pub host: HostAgentConfig,
    /// Which hosts run controllers.
    pub controllers: Vec<HostId>,
    /// Template controller configuration. Unless `run_discovery` is set,
    /// each controller is preloaded with the ground-truth topology
    /// (experiments that start converged).
    pub controller: ControllerConfig,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            seed: 0,
            trunk: LinkParams::ten_gig(),
            switch: DumbSwitchConfig::default(),
            host: HostAgentConfig::default(),
            controllers: vec![HostId(0)],
            controller: ControllerConfig::default(),
        }
    }
}

impl FabricConfig {
    /// Validates every part of the configuration that can be judged
    /// without the topology ([`Fabric::assemble`] runs this first, then
    /// checks `controllers` against the topology it was given).
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        DumbNetError::config_rule(
            self.trunk.bandwidth > Bandwidth::ZERO,
            "trunk.bandwidth",
            "> 0",
        )?;
        self.host.validate()?;
        self.controller.validate()
    }
}

/// A fully wired emulated deployment.
///
/// Generic over the event [`Engine`]: `Fabric<World>` (the default) is
/// the classic single-threaded deployment, `Fabric<ShardedWorld>`
/// partitions the topology into cells and executes them on the
/// multi-core PDES engine with identical results, and
/// `Fabric<HybridWorld<W>>` adds a flow plane over either.
/// [`Fabric::assemble`] builds on any engine value; the `build*`
/// functions are shorthands for the common ones.
pub struct Fabric<W: Engine = World> {
    /// The discrete-event world. Exposed for advanced experiments.
    pub world: W,
    /// The ground-truth topology the fabric was built from, shared with
    /// every preloaded controller.
    pub topology: Arc<Topology>,
    switch_addr: Vec<NodeAddr>,
    host_addr: Vec<NodeAddr>,
    controllers: HashSet<HostId>,
    /// The shared wire↔edge mapping; populated on hybrid fabrics only.
    edge_map: Option<EdgeMap>,
}

impl Fabric<World> {
    /// Builds a fabric with default per-host agents.
    ///
    /// # Errors
    ///
    /// Propagates wiring failures (which indicate an inconsistent input
    /// topology).
    pub fn build(topology: Topology, config: FabricConfig) -> Result<Fabric> {
        Fabric::build_with(topology, config, HostAgent::new)
    }

    /// Builds a fabric, constructing each ordinary host agent through
    /// `mk_host` (the hook for custom routing functions, §6).
    ///
    /// # Errors
    ///
    /// Propagates wiring failures.
    pub fn build_with<F>(topology: Topology, config: FabricConfig, mk_host: F) -> Result<Fabric>
    where
        F: FnMut(HostId, HostAgentConfig) -> HostAgent,
    {
        Fabric::build_full(topology, config, mk_host, Controller::new)
    }

    /// Builds a fabric with full control over both host agents and
    /// controllers (e.g. leader/follower replica groups).
    ///
    /// # Errors
    ///
    /// Propagates wiring failures.
    pub fn build_full<F, G>(
        topology: Topology,
        config: FabricConfig,
        mk_host: F,
        mk_controller: G,
    ) -> Result<Fabric>
    where
        F: FnMut(HostId, HostAgentConfig) -> HostAgent,
        G: FnMut(HostId, ControllerConfig) -> Controller,
    {
        // One cell needs no partition, so no generator groups either.
        let (world, groups) = (World::new(config.seed), BTreeMap::new());
        Fabric::assemble(world, topology, config, &groups, mk_host, mk_controller)
    }

    /// The world's telemetry registry (trace ring access).
    #[must_use]
    pub fn telemetry(&self) -> &dumbnet_telemetry::Telemetry {
        self.world.telemetry()
    }
}

impl Fabric<ShardedWorld> {
    /// Builds a fabric on the sharded multi-core engine with `cells`
    /// shards; see [`Fabric::assemble`] for how `groups` steers the
    /// partition. Results are byte-identical to the equivalent
    /// `Fabric<World>` run at any cell count.
    ///
    /// # Errors
    ///
    /// Propagates wiring failures.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    pub fn build_sharded(
        topology: Topology,
        config: FabricConfig,
        groups: &BTreeMap<String, Vec<SwitchId>>,
        cells: u32,
    ) -> Result<Fabric<ShardedWorld>> {
        let world = ShardedWorld::new(config.seed, cells as usize);
        Fabric::assemble(
            world,
            topology,
            config,
            groups,
            HostAgent::new,
            Controller::new,
        )
    }
}

impl Fabric<HybridWorld> {
    /// Builds a fabric on the hybrid flow/packet engine over a plain
    /// [`World`]: the packet plane is assembled exactly as
    /// [`Fabric::build`] would, then bound to the flow plane with
    /// [`Fabric::bind_flow_edges`].
    ///
    /// # Errors
    ///
    /// Propagates wiring failures.
    pub fn build_hybrid(topology: Topology, config: FabricConfig) -> Result<Fabric<HybridWorld>> {
        let (world, groups) = (HybridWorld::new(World::new(config.seed)), BTreeMap::new());
        let (mk_host, mk_controller) = (HostAgent::new, Controller::new);
        Fabric::assemble(world, topology, config, &groups, mk_host, mk_controller)
            .map(Fabric::bind_flow_edges)
    }
}

impl<W: Engine> Fabric<HybridWorld<W>> {
    /// Binds every directed edge of the shared wire↔edge enumeration
    /// to the wire direction it models, so elephants can run flow-level
    /// over the same fabric. Call once, straight after
    /// [`Fabric::assemble`] and before any flow starts (edge ids are
    /// dense from zero); the other hybrid accessors need the binding.
    /// Linear in the edge count: each trunk edge finds its wire through
    /// its own switch's ports.
    #[must_use]
    pub fn bind_flow_edges(mut self) -> Self {
        let map = EdgeMap::build(&self.topology);
        self.world.reserve_edges(map.len());
        for (ix, kind) in map.edges() {
            let (wire, dir) = self.flow_edge_wire(kind);
            let nominal = self.world.wire_params(wire).bandwidth;
            let id = self.world.bind_edge(Some(wire), dir, nominal);
            assert_eq!(id.0, ix.0, "flow edges must mirror the enumeration");
        }
        self.edge_map = Some(map);
        self
    }

    /// The wire a directed flow edge models and which of its directions
    /// (0 = a→b).
    fn flow_edge_wire(&self, kind: EdgeKind) -> (WireId, usize) {
        match kind {
            EdgeKind::Trunk { from, to } => {
                let wire = self
                    .trunk_wire(from, to)
                    .expect("enumerated trunk has a wire");
                // Trunk wires are created with `link.a` as the
                // a-side; dir 0 is a→b.
                let ((a_addr, _), _) = self.world.wire_endpoints(wire);
                let dir = usize::from(a_addr != self.switch_addr[from.get() as usize]);
                (wire, dir)
            }
            // Access wires are created host-side first, so dir 0 is
            // host → switch (the uplink).
            EdgeKind::HostUp(h) => (self.access_wire(h).expect("enumerated host has a wire"), 0),
            EdgeKind::HostDown(h) => (self.access_wire(h).expect("enumerated host has a wire"), 1),
        }
    }

    /// The shared wire↔edge mapping this fabric was bound with.
    ///
    /// # Panics
    ///
    /// Panics when [`Fabric::bind_flow_edges`] has not run.
    #[must_use]
    pub fn edge_map(&self) -> &EdgeMap {
        self.edge_map
            .as_ref()
            .expect("bind_flow_edges ran after assemble")
    }

    /// The flow-plane edge path a `src` → `dst` flow takes along
    /// `route`, ready to hand to
    /// [`HybridWorld::start_elephant`](dumbnet_sim::HybridWorld::start_elephant).
    #[must_use]
    pub fn flow_path(&self, src: HostId, dst: HostId, route: &Route) -> Option<Vec<EdgeId>> {
        let path = self.edge_map().route_path(src, dst, route)?;
        Some(path.into_iter().map(|ix| EdgeId(ix.0)).collect())
    }

    /// Mirrors the union of all live controllers' quarantine sets into
    /// the flow plane (each quarantined switch pair covers both directed
    /// trunk edges). Idempotent; call after running the world far enough
    /// for gray-failure detection to act, or periodically from a soak
    /// loop.
    pub fn sync_quarantine(&mut self) {
        let mut ids: Vec<HostId> = self.controllers.iter().copied().collect();
        ids.sort_unstable();
        let mut quarantined = BTreeSet::new();
        for id in ids {
            let Some(ctrl) = self.controller(id) else {
                continue;
            };
            for (a, b) in ctrl.quarantined_edges() {
                for (from, to) in [(a, b), (b, a)] {
                    if let Some(ix) = self.edge_map().trunk(from, to) {
                        quarantined.insert(EdgeId(ix.0));
                    }
                }
            }
        }
        self.world.set_quarantined(&quarantined);
    }
}

impl<W: Engine> Fabric<W> {
    /// Places and wires every node of `topology` into `world` — the
    /// one constructor, on whatever engine the caller hands in (its
    /// seed should be `config.seed`).
    ///
    /// On an engine with more than one cell the topology is
    /// partitioned into `world.cell_count()` cells with
    /// [`assign_cells`]: pod-aware when `groups` has `"podN"` entries
    /// (the fat-tree generator publishes them), balanced BFS
    /// otherwise. Each cell becomes one shard.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::Config`] when `config` fails
    /// [`FabricConfig::validate`] or names a controller host the
    /// topology does not have; propagates wiring failures (which
    /// indicate an inconsistent input topology).
    pub fn assemble<F, G>(
        mut world: W,
        topology: Topology,
        config: FabricConfig,
        groups: &BTreeMap<String, Vec<SwitchId>>,
        mut mk_host: F,
        mut mk_controller: G,
    ) -> Result<Fabric<W>>
    where
        F: FnMut(HostId, HostAgentConfig) -> HostAgent,
        G: FnMut(HostId, ControllerConfig) -> Controller,
    {
        config.validate()?;
        for c in &config.controllers {
            let rule = format!("hosts of the topology, {c} is not");
            DumbNetError::config_rule(topology.host(*c).is_ok(), "controllers", &rule)?;
        }
        let controllers: HashSet<HostId> = config.controllers.iter().copied().collect();
        let cell_count = u32::try_from(world.cell_count()).expect("cell count fits in u32");
        let cells = (cell_count > 1).then(|| assign_cells(&topology, groups, cell_count));
        let cells = cells.as_ref();
        let topology = Arc::new(topology);
        world.reserve(
            topology.switch_count() + topology.host_count(),
            topology.link_count() + topology.host_count(),
        );

        // Switches.
        let mut switch_addr = Vec::with_capacity(topology.switch_count());
        for sw in topology.switches() {
            let node = DumbSwitch::new(sw.id, sw.ports, config.switch);
            let cell = cells.map_or(0, |a| a.switch_cell(sw.id));
            let addr = world.add_node_in_cell(Box::new(node), cell);
            if let Some(top) = sw.top_port() {
                world.reserve_ports(addr, top);
            }
            switch_addr.push(addr);
        }
        // Hosts (agents or controllers).
        let mut host_addr = Vec::with_capacity(topology.host_count());
        for h in topology.hosts() {
            let cell = cells.map_or(0, |a| a.host_cell(h.id));
            let addr = if controllers.contains(&h.id) {
                let mut ccfg = config.controller.clone();
                if !ccfg.run_discovery && ccfg.preload.is_none() {
                    ccfg.preload = Some(Arc::clone(&topology));
                }
                world.add_node_in_cell(Box::new(mk_controller(h.id, ccfg)), cell)
            } else {
                world.add_node_in_cell(Box::new(mk_host(h.id, config.host.clone())), cell)
            };
            world.reserve_ports(addr, NIC);
            host_addr.push(addr);
        }
        // Trunk links.
        for link in topology.links() {
            world.wire(
                switch_addr[link.a.switch.get() as usize],
                link.a.port,
                switch_addr[link.b.switch.get() as usize],
                link.b.port,
                config.trunk,
            )?;
        }
        // Access links: every host hangs off a 10 GbE cable.
        for h in topology.hosts() {
            world.wire(
                host_addr[h.id.get() as usize],
                NIC,
                switch_addr[h.attached.switch.get() as usize],
                h.attached.port,
                LinkParams::ten_gig(),
            )?;
        }
        Ok(Fabric {
            world,
            topology,
            switch_addr,
            host_addr,
            controllers,
            edge_map: None,
        })
    }

    /// MAC address of host `id`.
    #[must_use]
    pub fn mac(&self, id: HostId) -> MacAddr {
        MacAddr::for_host(id.get())
    }

    /// Engine address of a host.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownHost`] for out-of-range IDs.
    pub fn host_addr(&self, id: HostId) -> Result<NodeAddr> {
        self.host_addr
            .get(id.get() as usize)
            .copied()
            .ok_or(DumbNetError::UnknownHost(id.get()))
    }

    /// Engine address of a switch.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownSwitch`] for out-of-range IDs.
    pub fn switch_addr(&self, id: SwitchId) -> Result<NodeAddr> {
        self.switch_addr
            .get(id.get() as usize)
            .copied()
            .ok_or(DumbNetError::UnknownSwitch(id.get()))
    }

    /// Immutable access to a host agent.
    #[must_use]
    pub fn host(&self, id: HostId) -> Option<&HostAgent> {
        let addr = *self.host_addr.get(id.get() as usize)?;
        self.world.node::<HostAgent>(addr)
    }

    /// Immutable access to a controller.
    #[must_use]
    pub fn controller(&self, id: HostId) -> Option<&Controller> {
        let addr = *self.host_addr.get(id.get() as usize)?;
        self.world.node::<Controller>(addr)
    }

    /// Immutable access to a switch.
    #[must_use]
    pub fn switch(&self, id: SwitchId) -> Option<&DumbSwitch> {
        let addr = *self.switch_addr.get(id.get() as usize)?;
        self.world.node::<DumbSwitch>(addr)
    }

    /// IDs of the controller hosts.
    pub fn controller_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        self.controllers.iter().copied()
    }

    /// Schedules a physical failure of the link between switches `a`
    /// and `b` at virtual time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownLink`] when no such link exists.
    pub fn schedule_link_failure(&mut self, at: SimTime, a: SwitchId, b: SwitchId) -> Result<()> {
        self.set_link_state_at(at, a, b, false)
    }

    /// Schedules the link between `a` and `b` to come back up at `at`.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownLink`] when no such link exists.
    pub fn schedule_link_recovery(&mut self, at: SimTime, a: SwitchId, b: SwitchId) -> Result<()> {
        self.set_link_state_at(at, a, b, true)
    }

    fn set_link_state_at(&mut self, at: SimTime, a: SwitchId, b: SwitchId, up: bool) -> Result<()> {
        let link = self
            .topology
            .link_between(a, b)
            .ok_or(DumbNetError::UnknownLink(u32::MAX))?;
        let wire = self
            .world
            .wire_at(self.switch_addr[link.a.switch.get() as usize], link.a.port)
            .ok_or(DumbNetError::UnknownLink(link.id.get()))?;
        self.world.schedule_link_state(at, wire, up);
        Ok(())
    }

    /// Engine wire of the trunk link between switches `a` and `b`
    /// (the lowest-numbered link of a parallel pair), for targeting
    /// loss and link-state changes. Costs a scan of `a`'s ports.
    #[must_use]
    pub fn trunk_wire(&self, a: SwitchId, b: SwitchId) -> Option<WireId> {
        let link = self.topology.link_between(a, b)?;
        self.world
            .wire_at(self.switch_addr[link.a.switch.get() as usize], link.a.port)
    }

    /// Engine wire of host `h`'s access link.
    #[must_use]
    pub fn access_wire(&self, h: HostId) -> Option<WireId> {
        let addr = *self.host_addr.get(h.get() as usize)?;
        self.world.wire_at(addr, NIC)
    }

    /// Runs the world until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Runs the world until idle or `max_events`.
    pub fn run_to_idle(&mut self, max_events: u64) {
        self.world.run_to_idle(max_events);
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The most recent `n` trace events and the count of older entries
    /// dropped from the ring (merged across shards on a sharded
    /// engine).
    #[must_use]
    pub fn trace_tail(&self, n: usize) -> (Vec<TraceEvent>, u64) {
        self.world.trace_tail(n)
    }

    /// A deterministic snapshot of every registered metric in the
    /// fabric, after a `publish_telemetry` sweep over all nodes.
    pub fn telemetry_snapshot(&mut self) -> dumbnet_telemetry::TelemetrySnapshot {
        self.world.telemetry_snapshot()
    }

    /// Live heap bytes by owner: the engine's census
    /// ([`Engine::heap_census`]) plus the fabric's own topology, edge
    /// map and address tables.
    #[must_use]
    pub fn heap_census(&self) -> HeapCensus {
        let mut census = self.world.heap_census();
        census.add(
            "topology",
            heap::arc::<Topology>() + self.topology.heap_bytes(),
        );
        census.add(
            "edge map",
            self.edge_map.as_ref().map_or(0, EdgeMap::heap_bytes),
        );
        census.add(
            "fabric tables",
            heap::vec(&self.switch_addr)
                + heap::vec(&self.host_addr)
                + heap::hash_set(&self.controllers),
        );
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_host::agent::AppAction;
    use dumbnet_topology::generators;
    use dumbnet_types::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn builds_testbed_fabric() {
        let g = generators::testbed();
        let fabric = Fabric::build(g.topology, FabricConfig::default()).unwrap();
        assert_eq!(fabric.world.node_count(), 7 + 27);
        assert!(fabric.controller(HostId(0)).is_some());
        assert!(fabric.host(HostId(0)).is_none(), "host 0 is the controller");
        assert!(fabric.host(HostId(1)).is_some());
        assert!(fabric.switch(SwitchId(0)).is_some());
    }

    /// A valid fixture, then one row per `validate` rule: the single
    /// field violated and the exact error `Fabric::build` must return.
    #[test]
    fn nonsense_config_is_rejected_with_the_field_named() {
        use dumbnet_host::GrayDetectConfig;
        let fixture = || {
            let mut cfg = FabricConfig::default();
            cfg.host.gray_detect = Some(GrayDetectConfig::default());
            cfg.controller.gray = true;
            cfg
        };
        assert_eq!(FabricConfig::default().validate(), Ok(()));
        assert!(Fabric::build(generators::testbed().topology, fixture()).is_ok());
        fn gd(cfg: &mut FabricConfig) -> &mut GrayDetectConfig {
            cfg.host.gray_detect.as_mut().unwrap()
        }
        type Violation = fn(&mut FabricConfig);
        let rows: [(Violation, &str); 13] = [
            (
                |c| gd(c).probe_interval = SimDuration::ZERO,
                "gray_detect.probe_interval must be > 0",
            ),
            (
                |c| gd(c).min_samples = 0,
                "gray_detect.min_samples must be >= 1",
            ),
            (
                |c| gd(c).suspect_threshold = 0.05,
                "gray_detect.suspect_threshold must be in (0.05, 1]",
            ),
            (
                |c| gd(c).suspect_threshold = 1.5,
                "gray_detect.suspect_threshold must be in (0.05, 1]",
            ),
            (
                |c| c.controller.discovery.max_ports = 0,
                "discovery.max_ports must be >= 1",
            ),
            (
                |c| c.controller.discovery.timeout = SimDuration::ZERO,
                "discovery.timeout must be > 0",
            ),
            (
                |c| c.controller.probe_interval = SimDuration::ZERO,
                "probe_interval must be > 0",
            ),
            (
                |c| c.controller.heartbeat = SimDuration::ZERO,
                "heartbeat must be > 0",
            ),
            (
                |c| c.controller.heartbeat = c.controller.takeover_timeout,
                "heartbeat must be < takeover_timeout",
            ),
            (
                |c| c.controller.probe_window = 0,
                "probe_window must be >= 1",
            ),
            (
                |c| c.controller.patch_batch_max = 0,
                "patch_batch_max must be >= 1",
            ),
            (
                |c| c.trunk.bandwidth = Bandwidth::ZERO,
                "trunk.bandwidth must be > 0",
            ),
            (
                |c| c.controllers = vec![HostId(0), HostId(99)],
                "controllers must be hosts of the topology, H99 is not",
            ),
        ];
        for (violate, expected) in rows {
            let mut cfg = fixture();
            violate(&mut cfg);
            let err = Fabric::build(generators::testbed().topology, cfg).err();
            assert_eq!(err, Some(DumbNetError::Config(expected.to_string())));
        }
    }

    #[test]
    fn bootstrap_distributes_controller_hello() {
        let g = generators::testbed();
        let fabric_cfg = FabricConfig::default();
        let mut fabric = Fabric::build(g.topology, fabric_cfg).unwrap();
        fabric.run_until(t(10));
        let ctrl_mac = fabric.mac(HostId(0));
        for h in 1..27 {
            let agent = fabric.host(HostId(h)).unwrap();
            assert_eq!(agent.controller(), Some(ctrl_mac), "host {h} missing hello");
        }
    }

    #[test]
    fn end_to_end_ping_with_cold_caches() {
        let g = generators::testbed();
        let mut cfg = FabricConfig::default();
        // Host 1 pings host 26 five times starting at 20 ms.
        cfg.host.actions = Vec::new();
        let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hc| {
            if id == HostId(1) {
                hc.actions = vec![AppAction::PingSeries {
                    at: SimDuration::from_millis(20),
                    dst: MacAddr::for_host(26),
                    count: 5,
                    interval: SimDuration::from_millis(1),
                }];
            }
            HostAgent::new(id, hc)
        })
        .unwrap();
        fabric.run_until(t(200));
        let pinger = fabric.host(HostId(1)).unwrap();
        assert_eq!(pinger.stats().rtts.len(), 5, "all pings answered");
        // First ping pays the controller round trip; later ones are
        // cache hits and must be faster.
        let first = pinger.stats().rtts[0].2;
        let later = pinger.stats().rtts[2].2;
        assert!(
            later < first,
            "cache hit RTT {later} not below cold RTT {first}"
        );
        assert!(pinger.stats().path_requests >= 1);
    }

    #[test]
    fn discovery_over_the_wire_matches_ground_truth() {
        let g = generators::testbed();
        let truth = g.topology.clone();
        let mut cfg = FabricConfig::default();
        cfg.controller.run_discovery = true;
        cfg.controller.discovery.max_ports = 12;
        cfg.controller.discovery.timeout = SimDuration::from_millis(5);
        cfg.controller.probe_interval = SimDuration::from_micros(10);
        let mut fabric = Fabric::build(g.topology, cfg).unwrap();
        fabric.run_until(t(5_000));
        let ctrl = fabric.controller(HostId(0)).unwrap();
        assert!(ctrl.ready(), "discovery incomplete");
        let found = ctrl.topology.as_ref().unwrap();
        assert_eq!(found.switch_count(), truth.switch_count());
        assert_eq!(found.host_count(), truth.host_count());
        assert_eq!(found.link_count(), truth.link_count());
        // Every discovered link exists in the ground truth, port-exact.
        for l in found.links() {
            let real = truth.link_between(l.a.switch, l.b.switch).unwrap();
            let found_ends = if l.a <= l.b { (l.a, l.b) } else { (l.b, l.a) };
            let real_ends = if real.a <= real.b {
                (real.a, real.b)
            } else {
                (real.b, real.a)
            };
            assert_eq!(found_ends, real_ends);
        }
        let d = ctrl.stats().discovery_time.unwrap();
        assert!(d.as_secs_f64() > 0.0);
        // Hosts got hellos after discovery.
        fabric.run_until(t(5_100));
        assert!(fabric.host(HostId(1)).unwrap().controller().is_some());
    }

    #[test]
    fn failure_triggers_notifications_and_failover() {
        let g = generators::testbed();
        let spines = g.group("spine").to_vec();
        let leaves = g.group("leaf").to_vec();
        let mut cfg = FabricConfig::default();
        let mut fabric = Fabric::build_with(g.topology, cfg.clone(), |id, mut hc| {
            if id == HostId(1) {
                // Continuous stream from host 1 (leaf 0) to host 26
                // (last leaf) across the failure window.
                hc.actions = vec![AppAction::DataStream {
                    at: SimDuration::from_millis(10),
                    dst: MacAddr::for_host(26),
                    flow: 7,
                    packets: 400,
                    bytes: 1000,
                    interval: SimDuration::from_micros(500),
                }];
            }
            HostAgent::new(id, hc)
        })
        .unwrap();
        cfg.host.actions.clear();
        // Fail one spine-leaf link on the sender's side mid-stream. The
        // stream runs 10ms..210ms; fail at 100ms.
        let (a, b) = (leaves[0], spines[0]);
        fabric.schedule_link_failure(t(100), a, b).unwrap();
        fabric.run_until(t(400));
        let receiver = fabric.host(HostId(26)).unwrap();
        let &(pkts, _bytes) = receiver.stats().delivered.get(&7).unwrap();
        // Some packets are lost in the failover gap, but the vast
        // majority must arrive.
        assert!(pkts >= 360, "only {pkts}/400 delivered");
        // The sender learned about the failure.
        let sender = fabric.host(HostId(1)).unwrap();
        assert!(
            !sender.stats().notification_arrivals.is_empty(),
            "no stage-1 notification reached the sender"
        );
        // Stage 2: controller flooded a patch.
        let patches = sender.stats().patch_arrivals.len();
        assert!(patches >= 1, "no topology patch received");
        // Other hosts learned too (flooding + broadcast).
        let bystander = fabric.host(HostId(20)).unwrap();
        assert!(!bystander.stats().notification_arrivals.is_empty());
    }

    #[test]
    fn sharded_fabric_matches_single_world() {
        // The strongest cross-layer determinism check we have: the full
        // DumbNet stack (controller preload, hellos, pings, path
        // requests) must produce byte-identical observables on the
        // single-threaded world and on the sharded engine at several
        // shard counts. The testbed has no pod groups, so this also
        // exercises the BFS partition fallback.
        fn actions(id: HostId, mut hc: HostAgentConfig) -> HostAgent {
            if id.get() % 3 == 1 {
                hc.actions = vec![AppAction::PingSeries {
                    at: SimDuration::from_millis(15),
                    dst: MacAddr::for_host((id.get() + 5) % 27),
                    count: 3,
                    interval: SimDuration::from_millis(2),
                }];
            }
            HostAgent::new(id, hc)
        }
        fn digest<W: dumbnet_sim::Engine>(fabric: &mut Fabric<W>) -> String {
            fabric.run_until(t(300));
            let mut rtts = Vec::new();
            for h in 0..27 {
                if let Some(agent) = fabric.host(HostId(h)) {
                    rtts.extend(agent.stats().rtts.iter().map(|r| (h, r.0, r.2)));
                }
            }
            format!(
                "{:?}|{rtts:?}|{}",
                fabric.world.stats(),
                fabric.telemetry_snapshot().to_json()
            )
        }
        fn on<W: dumbnet_sim::Engine>(world: W) -> String {
            let g = generators::testbed();
            let cfg = FabricConfig::default();
            let mut fabric =
                Fabric::assemble(world, g.topology, cfg, &g.groups, actions, Controller::new)
                    .unwrap();
            digest(&mut fabric)
        }
        let want = on(World::new(0));
        for cells in [1, 2, 4] {
            assert_eq!(
                on(ShardedWorld::new(0, cells)),
                want,
                "{cells}-cell fabric diverged"
            );
        }
        // The flow plane is a layer: idle, it changes nothing below it.
        assert_eq!(on(HybridWorld::new(World::new(0))), want);
        assert_eq!(on(HybridWorld::new(ShardedWorld::new(0, 4))), want);
    }

    #[test]
    fn trunk_failure_flood_stays_near_tail_at_any_shard_count() {
        // Cold caches, every host streaming across pods, one
        // aggregation–core trunk failing under that load: the switches'
        // notifications and every host's re-flood land in a couple of
        // calendar buckets while the cursor drains them.
        fn stream(id: HostId, mut hc: HostAgentConfig) -> HostAgent {
            hc.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host((id.get() + 9) % 16),
                flow: id.get(),
                packets: 200,
                bytes: 1000,
                interval: SimDuration::from_micros(20),
            }];
            HostAgent::new(id, hc)
        }
        fn on<W: Engine>(world: W) -> (dumbnet_sim::WorldStats, dumbnet_sim::QueueStats) {
            let g = generators::fat_tree(4, 2, None);
            let (agg, core) = (g.group("agg")[0], g.group("core")[0]);
            let cfg = FabricConfig::default();
            let mut fabric =
                Fabric::assemble(world, g.topology, cfg, &g.groups, stream, Controller::new)
                    .unwrap();
            fabric.schedule_link_failure(t(12), agg, core).unwrap();
            fabric.run_until(t(40));
            (fabric.world.stats(), fabric.world.queue_stats())
        }
        let (want, q) = on(World::new(0));
        assert!(want.packets_delivered > 16 * 150, "{want:?}");
        // The flood met a draining bucket longer than the near-tail
        // window (`sim::event::NEAR_TAIL`, 32), and no in-place insert
        // moved more than that window.
        assert!(q.largest_bucket > 32 && q.in_place_inserts > 0, "{q:?}");
        assert!(q.entries_shifted <= 32 * q.in_place_inserts, "{q:?}");
        assert!(q.entries_shifted < q.pushes, "{q:?}");
        // Where a push is held is the queue's business: the simulated
        // result does not depend on it, nor on how cells split the flood.
        let (sharded, q4) = on(ShardedWorld::new(0, 4));
        assert_eq!(sharded, want);
        // (The scheduled failure is mirrored into every cell.)
        assert!(q4.pushes >= q.pushes, "{q4:?} vs {q:?}");
        assert!(q4.entries_shifted <= 32 * q4.in_place_inserts, "{q4:?}");
    }

    #[test]
    fn hybrid_fabric_binds_every_edge() {
        let g = generators::testbed();
        let fabric = Fabric::build_hybrid(g.topology, FabricConfig::default()).unwrap();
        let map = fabric.edge_map();
        assert!(!map.is_empty());
        assert_eq!(fabric.world.flow_edge_count(), map.len());
        // Full DumbNet stack still boots on the hybrid engine.
        assert!(fabric.controller(HostId(0)).is_some());
    }

    #[test]
    fn trunk_edges_bind_to_the_wire_a_link_table_scan_finds() {
        // The `fabric_mix` shape. Trunk wires are created in link order
        // with `link.a` on the a-side, so the first link of the table
        // joining a pair names the wire and the direction outright.
        let g = generators::fat_tree(8, 4, None);
        let fabric = Fabric::build_hybrid(g.topology, FabricConfig::default()).unwrap();
        let mut trunks = 0usize;
        for (_, kind) in fabric.edge_map().edges() {
            let EdgeKind::Trunk { from, to } = kind else {
                continue;
            };
            let link = fabric
                .topology
                .links()
                .find(|l| {
                    (l.a.switch == from && l.b.switch == to)
                        || (l.a.switch == to && l.b.switch == from)
                })
                .expect("enumerated trunk has a link");
            let wire = WireId::from_raw(link.id.index());
            let want = (wire, usize::from(link.a.switch != from));
            assert_eq!(fabric.flow_edge_wire(kind), want, "{from} → {to}");
            trunks += 1;
        }
        assert_eq!(trunks, 2 * fabric.topology.link_count());
        assert_eq!(fabric.world.flow_edge_count(), fabric.edge_map().len());
    }

    #[test]
    fn hybrid_elephant_tracks_fabric_faults() {
        let g = generators::testbed();
        let spine = g.group("spine")[0];
        let mut fabric = Fabric::build_hybrid(g.topology, FabricConfig::default()).unwrap();
        let src = fabric.topology.hosts().next().unwrap().id;
        let dst = fabric.topology.hosts().last().unwrap().id;
        let leaf_a = fabric.topology.host(src).unwrap().attached.switch;
        let leaf_b = fabric.topology.host(dst).unwrap().attached.switch;
        let route = Route::new(vec![leaf_a, spine, leaf_b]).unwrap();
        let path = fabric.flow_path(src, dst, &route).unwrap();
        assert_eq!(path.len(), 4);
        let flow = fabric.world.start_elephant(path, u64::MAX / 16);
        assert_eq!(
            fabric.world.elephant_rate(flow).bits_per_sec(),
            10_000_000_000
        );
        // A packet-plane link failure on the elephant's spine hop must
        // starve the flow plane; recovery must restore it.
        fabric.schedule_link_failure(t(10), leaf_a, spine).unwrap();
        fabric.run_until(t(20));
        assert_eq!(fabric.world.elephant_rate(flow).bits_per_sec(), 0);
        fabric.schedule_link_recovery(t(30), leaf_a, spine).unwrap();
        fabric.run_until(t(40));
        assert_eq!(
            fabric.world.elephant_rate(flow).bits_per_sec(),
            10_000_000_000
        );
        // No controllers have quarantined anything; syncing is a no-op.
        fabric.sync_quarantine();
        assert_eq!(
            fabric.world.elephant_rate(flow).bits_per_sec(),
            10_000_000_000
        );
    }

    #[test]
    fn deterministic_fabric_runs() {
        let run = || {
            let g = generators::testbed();
            let mut fabric =
                Fabric::build_with(g.topology, FabricConfig::default(), |id, mut hc| {
                    if id.get() % 3 == 1 {
                        hc.actions = vec![AppAction::PingSeries {
                            at: SimDuration::from_millis(15),
                            dst: MacAddr::for_host((id.get() + 5) % 27),
                            count: 3,
                            interval: SimDuration::from_millis(2),
                        }];
                    }
                    HostAgent::new(id, hc)
                })
                .unwrap();
            fabric.run_until(t(300));
            let mut rtts = Vec::new();
            for h in 0..27 {
                if let Some(agent) = fabric.host(HostId(h)) {
                    rtts.extend(agent.stats().rtts.iter().map(|r| (h, r.0, r.2)));
                }
            }
            (fabric.world.stats(), rtts)
        };
        assert_eq!(run(), run());
    }
}
