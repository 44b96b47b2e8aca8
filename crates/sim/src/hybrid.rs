//! The hybrid flow/packet engine: one fabric, two coupled planes.
//!
//! [`HybridWorld`] layers a flow-level [`FlowSim`] over any packet-level
//! [`Engine`] — a [`World`] or a [`ShardedWorld`](crate::ShardedWorld)
//! — modelling the *same* fabric: every directed flow edge is bound to
//! (one direction of) a packet-plane wire through the shared
//! wire↔edge mapping (`dumbnet_topology::EdgeMap`, materialized by the
//! fabric builder). Long-lived elephants run in the flow plane at
//! max-min rates; mice and control frames stay packet-level. The planes
//! advance in lockstep and are coupled at the boundary:
//!
//! * **Faults flow downward.** Administrative link changes, crash and
//!   restart events, and loss changes scheduled through the [`Engine`]
//!   surface are mirrored into flow-edge capacities: a down wire (or
//!   crashed endpoint) zeroes its edges, a lossy wire scales them by its
//!   expected goodput `1 − loss`. Controller quarantine patches arrive through
//!   [`HybridWorld::set_quarantined`] and also zero their edges, so
//!   chaos hits both planes consistently.
//! * **Congestion flows upward.** Whenever a re-solve changes an edge's
//!   allocated load, edges whose utilization crosses the configured
//!   threshold assert external ECN on their wire direction
//!   ([`World::set_external_congestion`](crate::World::set_external_congestion),
//!   mirrored into every cell): packet-plane mice crossing an
//!   elephant-saturated link get ECN-marked, their receivers echo the
//!   marks, and `ext::ecn`-style routing functions reroute them — the
//!   flow plane steering the packet plane without simulating a single
//!   elephant packet.
//!
//! Determinism: both planes are seeded and event-ordered; capacity
//! events apply in `(time, registration order)`; flow completions are
//! surfaced in flow-index order. Same seed ⇒ byte-identical results.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use dumbnet_types::{heap, Bandwidth, SimTime};

use crate::census::HeapCensus;
use crate::engine::{Engine, NodeAddr, WireId, World, WorldStats};
use crate::flowsim::{EdgeId, FlowEvent, FlowId, FlowSim, SolverStats};

/// Counters describing boundary-coupling activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HybridStats {
    /// Capacity updates applied to flow edges (faults, link state,
    /// crashes, quarantine).
    pub cap_events: u64,
    /// Quarantine state transitions applied to flow edges.
    pub quarantine_flips: u64,
    /// External ECN mark assertions/clears pushed to the packet plane.
    pub ecn_mark_flips: u64,
    /// Flow-plane completions observed.
    pub completions: u64,
}

/// Per-edge bookkeeping: where the edge maps and why its capacity is
/// what it is. Effective capacity =
/// `admin_up && endpoints alive && !quarantined ? nominal × fault_scale : 0`.
#[derive(Debug, Clone)]
struct EdgeBinding {
    /// The packet-plane wire this edge models, if bound.
    wire: Option<WireId>,
    /// Which direction of the wire (0 = a→b).
    dir: u8,
    /// Healthy-link capacity.
    nominal: Bandwidth,
    /// Administrative wire state (mirrors `Engine::wire_up`).
    admin_up: bool,
    /// True while either wire endpoint is crashed.
    endpoint_down: bool,
    /// Goodput scale from the wire's loss, `1 − loss`.
    fault_scale: f64,
    /// True while a controller quarantine covers this edge.
    quarantined: bool,
    /// True while this edge asserts external ECN on its wire.
    marked: bool,
}

impl EdgeBinding {
    /// The effective capacity (see the struct doc).
    fn capacity(&self) -> Bandwidth {
        if self.admin_up && !self.endpoint_down && !self.quarantined {
            Bandwidth::bps((self.nominal.bits_per_sec() as f64 * self.fault_scale) as u64)
        } else {
            Bandwidth::ZERO
        }
    }
}

/// A deferred flow-plane capacity update, applied when both planes
/// reach its timestamp.
#[derive(Debug, Clone)]
enum CapEvent {
    /// Re-read the administrative state of one wire.
    WireSync(WireId),
    /// Re-read the crash state of all wires touching one node.
    NodeSync(NodeAddr),
    /// Install a goodput scale on both directions of a wire's edges.
    FaultScale(WireId, f64),
}

/// The hybrid engine: a flow plane layered over the packet engine `W`.
///
/// Implements [`Engine`] by lending out the inner engine's cells, so
/// fabric construction, chaos plans and invariant checkers drive it
/// unmodified; it overrides only the operations the flow plane must
/// see (execution, admin scheduling, loss changes).
pub struct HybridWorld<W: Engine = World> {
    inner: W,
    flow: FlowSim,
    edges: Vec<EdgeBinding>,
    /// The flow edge bound to each direction of each wire, indexed by
    /// [`WireId::raw`] and direction ([`UNBOUND`] where none is).
    wire_edges: Vec<[u32; 2]>,
    /// Deferred capacity events, time-ordered (same-instant events
    /// apply in registration order).
    pending_caps: BTreeMap<SimTime, Vec<CapEvent>>,
    /// Flow completions not yet drained by the caller.
    pending_events: Vec<FlowEvent>,
    stats: HybridStats,
}

/// A [`HybridWorld::wire_edges`] slot with no flow edge bound.
const UNBOUND: u32 = u32::MAX;

/// Fraction of capacity an elephant-loaded edge must reach before its
/// wire starts ECN-marking packet-plane traffic.
pub const DEFAULT_ECN_UTILIZATION: f64 = 0.95;

impl<W: Engine> HybridWorld<W> {
    /// Layers an empty flow plane over the packet engine `inner`.
    #[must_use]
    pub fn new(inner: W) -> HybridWorld<W> {
        HybridWorld {
            inner,
            flow: FlowSim::new(),
            edges: Vec::new(),
            wire_edges: Vec::new(),
            pending_caps: BTreeMap::new(),
            pending_events: Vec::new(),
            stats: HybridStats::default(),
        }
    }

    /// Creates a flow edge bound to direction `dir` (0 = a→b) of
    /// `wire`, or an unbound edge (`None` — a purely logical segment).
    /// Edges must be created in the shared enumeration order; the
    /// returned id is dense from zero.
    ///
    /// # Panics
    ///
    /// Panics when `dir` is not 0 or 1, or when a flow edge is already
    /// bound to that direction of `wire`: one direction of a wire is one
    /// edge.
    pub fn bind_edge(&mut self, wire: Option<WireId>, dir: usize, nominal: Bandwidth) -> EdgeId {
        assert!(dir < 2, "wire direction must be 0 (a→b) or 1 (b→a)");
        let id = self.flow.add_edge(nominal);
        if let Some(w) = wire {
            if self.wire_edges.len() <= w.raw() {
                // Sized once for every wire the engine has so far.
                let len = self.inner.wire_count().max(w.raw() + 1);
                self.wire_edges.resize(len, [UNBOUND; 2]);
            }
            let slot = &mut self.wire_edges[w.raw()][dir];
            assert!(
                *slot == UNBOUND,
                "wire {} direction {dir} already has flow edge {}",
                w.raw(),
                *slot
            );
            *slot = u32::try_from(id.0).expect("flow edge ids fit in u32");
        }
        self.edges.push(EdgeBinding {
            wire,
            dir: dir as u8,
            nominal,
            admin_up: true,
            endpoint_down: false,
            fault_scale: 1.0,
            quarantined: false,
            marked: false,
        });
        id
    }

    /// Makes room for `additional` more flow edges in the binding and
    /// flow-plane edge tables, exactly (a binder that knows its edge
    /// count leaves them no growth slack).
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve_exact(additional);
        self.flow.reserve_edges(additional);
    }

    /// The flow plane. Capacities of bound edges are owned by the
    /// hybrid coupling (faults, quarantine) — callers should treat this
    /// as read/query access plus solver configuration
    /// ([`FlowSim::set_check_full_solve`]), not set capacities directly.
    pub fn flow_mut(&mut self) -> &mut FlowSim {
        &mut self.flow
    }

    /// Number of bound flow edges.
    #[must_use]
    pub fn flow_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Boundary-coupling counters.
    #[must_use]
    pub fn hybrid_stats(&self) -> HybridStats {
        self.stats
    }

    /// Flow-plane solver counters.
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        self.flow.solver_stats()
    }

    /// Starts an elephant of `bytes` along `path` (shared-enumeration
    /// edge ids) at the current time.
    pub fn start_elephant(&mut self, path: Vec<EdgeId>, bytes: u64) -> FlowId {
        let now = self.inner.now();
        self.sync_flow_to(now);
        let id = self.flow.start_flow(path, bytes);
        self.refresh_marks();
        id
    }

    /// The elephant's current max-min rate.
    pub fn elephant_rate(&mut self, flow: FlowId) -> Bandwidth {
        self.flow.flow_rate(flow)
    }

    /// When the elephant finished, if it has.
    #[must_use]
    pub fn finished_at(&self, flow: FlowId) -> Option<SimTime> {
        self.flow.finished_at(flow)
    }

    /// Number of unfinished elephants.
    #[must_use]
    pub fn active_elephants(&self) -> usize {
        self.flow.active_flows()
    }

    /// Drains buffered flow-plane completions (in completion order).
    pub fn drain_flow_events(&mut self) -> Vec<FlowEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Fraction of an edge's effective capacity allocated to elephants.
    pub fn edge_utilization(&mut self, edge: EdgeId) -> f64 {
        self.flow.edge_utilization(edge)
    }

    /// Replaces the set of quarantined flow edges (absolute, idempotent
    /// — the caller derives it from controller state). Newly covered
    /// edges drop to zero capacity; released edges return to their
    /// fault- and link-state-derived capacity.
    pub fn set_quarantined(&mut self, quarantined: &BTreeSet<EdgeId>) {
        for ix in 0..self.edges.len() {
            let want = quarantined.contains(&EdgeId(ix));
            if self.edges[ix].quarantined != want {
                self.edges[ix].quarantined = want;
                self.stats.quarantine_flips += 1;
                self.apply_effective_capacity(ix);
            }
        }
        self.refresh_marks();
    }

    /// Advances both planes to `until`, stopping early at the first
    /// flow-plane completion so the caller can react (start dependent
    /// flows, re-route flowlets) with both planes paused at the same
    /// instant. Returns the completions at the stopping point (empty
    /// when `until` was reached without one).
    pub fn advance(&mut self, until: SimTime) -> Vec<FlowEvent> {
        loop {
            let mut target = until;
            if let Some((&t, _)) = self.pending_caps.iter().next() {
                target = target.min(t);
            }
            if let Some(t) = self.flow.next_completion_time() {
                target = target.min(t);
            }
            self.inner.run_until(target);
            self.sync_flow_to(target);
            if !self.pending_events.is_empty() || target >= until {
                return self.drain_flow_events();
            }
        }
    }

    /// Applies every capacity event due at or before `target`, advancing
    /// the flow plane in step, then brings it to `target` exactly.
    /// The packet plane must already have reached `target`.
    fn sync_flow_to(&mut self, target: SimTime) {
        while let Some((&t, _)) = self.pending_caps.iter().next() {
            if t > target {
                break;
            }
            let events = self.flow.advance_to(t);
            self.buffer_events(events);
            let batch = self.pending_caps.remove(&t).expect("peeked key exists");
            for ev in batch {
                self.apply_cap(&ev);
            }
        }
        if self.flow.now() < target {
            let events = self.flow.advance_to(target);
            self.buffer_events(events);
        }
        self.refresh_marks();
    }

    fn buffer_events(&mut self, events: Vec<FlowEvent>) {
        self.stats.completions += events.len() as u64;
        self.pending_events.extend(events);
    }

    fn apply_cap(&mut self, ev: &CapEvent) {
        match *ev {
            CapEvent::WireSync(wire) => {
                let up = self.inner.wire_up(wire);
                self.update_bound(wire, |e| std::mem::replace(&mut e.admin_up, up) != up);
            }
            CapEvent::NodeSync(node) => {
                // A crash forces incident wires down inside the packet
                // engine without an admin event; re-read endpoint health
                // for every edge bound to one of the node's wires, in
                // ascending edge order.
                let mut bound: Vec<u32> = self
                    .inner
                    .node_wires(node)
                    .flat_map(|w| self.bound_to(w))
                    .filter(|&ix| ix != UNBOUND)
                    .collect();
                bound.sort_unstable();
                bound.dedup(); // a looped wire sits on two of the node's ports
                for ix in bound {
                    let ix = ix as usize;
                    let wire = self.edges[ix].wire.expect("a slotted edge is bound");
                    let ((a, _), (b, _)) = self.inner.wire_endpoints(wire);
                    let down = self.inner.is_crashed(a) || self.inner.is_crashed(b);
                    let up = self.inner.wire_up(wire);
                    let e = &mut self.edges[ix];
                    if e.endpoint_down != down || e.admin_up != up {
                        e.endpoint_down = down;
                        e.admin_up = up;
                        self.apply_effective_capacity(ix);
                    }
                }
            }
            CapEvent::FaultScale(wire, scale) => {
                self.update_bound(wire, |e| {
                    let changed = (e.fault_scale - scale).abs() > f64::EPSILON;
                    if changed {
                        e.fault_scale = scale;
                    }
                    changed
                });
            }
        }
    }

    /// The flow edges bound to `wire`'s two directions ([`UNBOUND`]
    /// where none is).
    fn bound_to(&self, wire: WireId) -> [u32; 2] {
        self.wire_edges
            .get(wire.raw())
            .copied()
            .unwrap_or([UNBOUND; 2])
    }

    /// Applies `change` to every flow edge bound to `wire`, in binding
    /// order, and pushes the effective capacity of each edge it reports
    /// changed into the flow plane.
    fn update_bound(&mut self, wire: WireId, mut change: impl FnMut(&mut EdgeBinding) -> bool) {
        let mut bound = self.bound_to(wire);
        // Binding order is ascending edge id.
        bound.sort_unstable();
        for ix in bound.into_iter().filter(|&ix| ix != UNBOUND) {
            let ix = ix as usize;
            let e = &mut self.edges[ix];
            if change(e) {
                self.flow.set_capacity(EdgeId(ix), e.capacity());
                self.stats.cap_events += 1;
            }
        }
    }

    /// Recomputes one edge's effective capacity and pushes it into the
    /// flow plane.
    fn apply_effective_capacity(&mut self, ix: usize) {
        self.flow
            .set_capacity(EdgeId(ix), self.edges[ix].capacity());
        self.stats.cap_events += 1;
    }

    /// Pushes external ECN marks for every edge whose allocated load
    /// changed since the last refresh.
    fn refresh_marks(&mut self) {
        for edge in self.flow.take_changed_edges() {
            let util = self.flow.edge_utilization(edge);
            let e = &mut self.edges[edge.0];
            let want = util >= DEFAULT_ECN_UTILIZATION;
            if e.marked != want {
                e.marked = want;
                if let Some(wire) = e.wire {
                    // The sending cell does the marking; which one that
                    // is depends on the partition, so assert everywhere.
                    for cell in self.inner.cells_mut() {
                        cell.set_external_congestion(wire, usize::from(e.dir), want);
                    }
                    self.stats.ecn_mark_flips += 1;
                }
            }
        }
    }

    fn push_cap(&mut self, at: SimTime, ev: CapEvent) {
        self.pending_caps.entry(at).or_default().push(ev);
    }
}

/// The goodput scale loss probability `p` leaves a wire.
fn goodput(p: f64) -> f64 {
    1.0 - p.clamp(0.0, 1.0)
}

impl<W: Engine> Engine for HybridWorld<W> {
    fn cells(&self) -> &[World] {
        self.inner.cells()
    }

    fn cells_mut(&mut self) -> &mut [World] {
        self.inner.cells_mut()
    }

    fn run_until(&mut self, until: SimTime) -> WorldStats {
        // Interleave: stop the packet plane at every pending capacity
        // event so both planes see it at the same instant.
        while let Some((&t, _)) = self.pending_caps.iter().next() {
            if t > until {
                break;
            }
            self.inner.run_until(t);
            self.sync_flow_to(t);
        }
        let stats = self.inner.run_until(until);
        self.sync_flow_to(until);
        stats
    }

    fn run_to_idle(&mut self, max_events: u64) -> WorldStats {
        let stats = self.inner.run_to_idle(max_events);
        let now = self.inner.now();
        self.sync_flow_to(now);
        stats
    }

    fn schedule_crash(&mut self, at: SimTime, node: NodeAddr) {
        self.inner.schedule_crash(at, node);
        self.push_cap(at, CapEvent::NodeSync(node));
    }

    fn schedule_restart(&mut self, at: SimTime, node: NodeAddr) {
        self.inner.schedule_restart(at, node);
        self.push_cap(at, CapEvent::NodeSync(node));
    }

    fn schedule_link_state(&mut self, at: SimTime, wire: WireId, up: bool) {
        self.inner.schedule_link_state(at, wire, up);
        self.push_cap(at, CapEvent::WireSync(wire));
    }

    fn schedule_loss(&mut self, at: SimTime, wire: WireId, p: f64) {
        self.inner.schedule_loss(at, wire, p);
        self.push_cap(at, CapEvent::FaultScale(wire, goodput(p)));
    }

    fn set_loss(&mut self, wire: WireId, p: f64) {
        let now = self.inner.now();
        self.inner.set_loss(wire, p);
        self.sync_flow_to(now);
        self.apply_cap(&CapEvent::FaultScale(wire, goodput(p)));
        self.refresh_marks();
    }

    fn heap_census(&self) -> HeapCensus {
        let mut census = self.inner.heap_census();
        census.add("flow plane", self.flow.heap_bytes());
        let caps: usize = self.pending_caps.values().map(heap::vec).sum();
        census.add(
            "flow bindings",
            heap::vec(&self.edges)
                + heap::vec(&self.wire_edges)
                + heap::btree_map(&self.pending_caps)
                + caps
                + heap::vec(&self.pending_events),
        );
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_packet::Packet;
    use dumbnet_types::{PortNo, SimDuration};
    use std::any::Any;

    use crate::engine::{LinkParams, Node};
    use crate::shard::ShardedWorld;

    /// A node that swallows everything (the packet plane is incidental
    /// to these tests).
    struct Sink;

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut crate::engine::Ctx<'_>, _in_port: PortNo, _pkt: Packet) {
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO.after(SimDuration::from_secs_f64(secs))
    }

    type Rig<W> = (HybridWorld<W>, WireId, EdgeId, EdgeId);

    /// Two sinks joined by one wire; both directions bound as edges.
    /// The sinks sit in different cells wherever the engine has two.
    fn rig<W: Engine>(inner: W) -> Rig<W> {
        let mut h = HybridWorld::new(inner);
        let a = h.add_node_in_cell(Box::new(Sink), 0);
        let b = h.add_node_in_cell(Box::new(Sink), 1);
        let p = PortNo::new(1).unwrap();
        let wire = h.wire(a, p, b, p, LinkParams::ten_gig()).unwrap();
        let e0 = h.bind_edge(Some(wire), 0, Bandwidth::gbps(10));
        let e1 = h.bind_edge(Some(wire), 1, Bandwidth::gbps(10));
        (h, wire, e0, e1)
    }

    /// Declares a test running `$body` on a [`rig`] over a plain world
    /// and again over a two-shard world: the flow plane must couple to
    /// either packet engine the same way.
    macro_rules! on_both_engines {
        ($name:ident, |$rig:pat_param| $body:block) => {
            #[test]
            fn $name() {
                fn case<W: Engine>($rig: Rig<W>) $body
                case(rig(World::new(7)));
                case(rig(ShardedWorld::new(7, 2)));
            }
        };
    }

    on_both_engines!(elephants_run_at_wire_capacity, |(mut h, _w, e0, _e1)| {
        let f = h.start_elephant(vec![e0], 12_500_000_000); // 100 Gbit = 10 s.
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 10_000_000_000);
        let events = h.advance(t(20.0));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].flow, f);
        let done = h.finished_at(f).unwrap().as_secs_f64();
        assert!((done - 10.0).abs() < 1e-6, "finished at {done}");
        assert_eq!(h.now(), events[0].at, "planes stop together");
    });

    on_both_engines!(scheduled_link_down_starves_the_flow_plane, |(
        mut h,
        w,
        e0,
        _e1,
    )| {
        let f = h.start_elephant(vec![e0], u64::MAX / 16);
        h.schedule_link_state(t(1.0), w, false);
        let events = h.advance(t(2.0));
        assert!(events.is_empty());
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 0, "edge must be dead");
        // Heal: capacity returns.
        h.schedule_link_state(t(3.0), w, true);
        h.advance(t(4.0));
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 10_000_000_000);
        assert!(h.hybrid_stats().cap_events >= 2);
    });

    on_both_engines!(crash_and_restart_reach_flow_capacity, |(
        mut h,
        _w,
        e0,
        _e1,
    )| {
        let victim = NodeAddr(0);
        let f = h.start_elephant(vec![e0], u64::MAX / 16);
        h.schedule_crash(t(1.0), victim);
        h.run_until(t(2.0));
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 0);
        h.schedule_restart(t(3.0), victim);
        h.run_until(t(4.0));
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 10_000_000_000);
    });

    on_both_engines!(loss_scales_capacity, |(mut h, w, e0, e1)| {
        let f0 = h.start_elephant(vec![e0], u64::MAX / 16);
        let f1 = h.start_elephant(vec![e1], u64::MAX / 16);
        h.set_loss(w, 0.25);
        assert_eq!(h.elephant_rate(f0).bits_per_sec(), 7_500_000_000);
        assert_eq!(h.elephant_rate(f1).bits_per_sec(), 7_500_000_000);
        // A scheduled heal restores both directions when it lands.
        h.schedule_loss(t(1.0), w, 0.0);
        h.run_until(t(2.0));
        assert_eq!(h.elephant_rate(f0).bits_per_sec(), 10_000_000_000);
        assert_eq!(h.elephant_rate(f1).bits_per_sec(), 10_000_000_000);
    });

    on_both_engines!(quarantine_zeroes_and_releases, |(mut h, _w, e0, _e1)| {
        let f = h.start_elephant(vec![e0], u64::MAX / 16);
        let mut q = BTreeSet::new();
        q.insert(e0);
        h.set_quarantined(&q);
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 0);
        h.set_quarantined(&BTreeSet::new());
        assert_eq!(h.elephant_rate(f).bits_per_sec(), 10_000_000_000);
        assert_eq!(h.hybrid_stats().quarantine_flips, 2);
    });

    on_both_engines!(saturated_edge_asserts_external_ecn, |(
        mut h,
        _w,
        e0,
        _e1,
    )| {
        assert_eq!(h.hybrid_stats().ecn_mark_flips, 0);
        let f = h.start_elephant(vec![e0], u64::MAX / 16);
        // One elephant saturates the edge → mark asserted.
        assert_eq!(h.hybrid_stats().ecn_mark_flips, 1);
        // Kill the elephant's edge → utilization collapses → mark clears.
        let mut q = BTreeSet::new();
        q.insert(e0);
        h.set_quarantined(&q);
        assert_eq!(h.hybrid_stats().ecn_mark_flips, 2);
        let _ = f;
    });

    /// One direction of a wire is one flow edge: a second binding is a
    /// caller bug, caught at bind time.
    #[test]
    #[should_panic(expected = "wire 0 direction 1 already has flow edge 1")]
    fn a_wire_direction_binds_one_edge() {
        let (mut h, wire, _e0, _e1) = rig(World::new(7));
        h.bind_edge(Some(wire), 1, Bandwidth::gbps(10));
    }

    on_both_engines!(run_until_buffers_completions, |(mut h, _w, e0, e1)| {
        let a = h.start_elephant(vec![e0], 1_250_000_000); // 1 s.
        let b = h.start_elephant(vec![e1], 2_500_000_000); // 2 s.
        h.run_until(t(5.0));
        let events = h.drain_flow_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].flow, a);
        assert_eq!(events[1].flow, b);
        assert!(events[0].at < events[1].at);
        assert_eq!(h.hybrid_stats().completions, 2);
    });
}
