//! The packet-level discrete-event engine.
//!
//! A [`World`] holds nodes (anything implementing [`Node`]) and the wires
//! between their ports. Wires model propagation latency, store-and-forward
//! serialization at the sender, and a bounded FIFO output queue per
//! direction (tail-drop once the queueing delay would exceed the bound).
//!
//! Handlers receive a [`Ctx`] through which they read the clock, send
//! packets, arm timers, inspect their own wiring, and draw deterministic
//! randomness. The dispatched node is moved out of the node table for
//! the duration of its handler, so the [`Ctx`] can borrow the rest of
//! the engine ([`Core`](World)) mutably and apply sends and timers
//! immediately — a packet goes straight from the handler onto the wire
//! with no intermediate action buffer, in exactly the order the handler
//! emitted it.
//!
//! # Canonical event order and shard invariance
//!
//! Every queued event carries a 64-bit ordering key derived from its
//! *content*: `(origin + 1) << 32 | seq` where `origin` is the node
//! whose handler caused the event and `seq` that node's emission
//! counter, or origin 0 with a world-level counter for external
//! scheduling (injections, chaos plans). Same-instant events fire in
//! ascending key order, which depends only on *what was emitted*, never
//! on which queue it was pushed into — so an N-shard
//! [`ShardedWorld`](crate::ShardedWorld) run pops the exact same
//! per-node event sequence as a single `World`. For the same reason all
//! randomness is decentralized: [`Ctx::rng`] draws from a per-node
//! stream and fault coin-flips from a per-(wire, direction) stream,
//! each derived from the world seed, so draw sequences are independent
//! of global event interleaving.
//!
//! A `World` doubles as one shard of a [`ShardedWorld`](crate::ShardedWorld): it then holds
//! the full node/wire tables but only its own cell's nodes, and
//! cross-cell arrivals detour through an outbox exchanged at
//! synchronization windows instead of the local queue.
//!
//! # One driving surface
//!
//! Every engine is a slice of such cells, and [`Engine`] is written
//! once over that slice: an engine supplies its cells and how it
//! executes them ([`Engine::run_until`], [`Engine::run_to_idle`]);
//! construction, scheduling and observation are provided methods that
//! place a node in its owner cell, mirror wiring and admin events into
//! every cell under one shared key, and sum or merge what the cells
//! observed. A plain `World` is the one-cell case of the same code.

use std::any::Any;
use std::collections::BTreeMap;
use std::num::NonZeroU32;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dumbnet_packet::Packet;
use dumbnet_telemetry::{
    counter_block, NodeKind, Telemetry, TelemetrySnapshot, TraceCategory, TraceEvent,
};
use dumbnet_types::{heap, mix64, Bandwidth, DumbNetError, PortNo, Result, SimDuration, SimTime};

use crate::census::HeapCensus;
use crate::event::{EventQueue, QueueStats};

/// Address of a node inside a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeAddr(pub usize);

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Physical characteristics of a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Serialization bandwidth (each direction independently).
    pub bandwidth: Bandwidth,
    /// Maximum tolerated queueing delay before tail-drop.
    pub max_queue: SimDuration,
    /// ECN marking threshold: packets that queue longer than this get
    /// their congestion-experienced bit set (§8 ECN support; marking is
    /// stateless — a comparison against the instantaneous queue depth).
    /// `None` disables marking.
    pub ecn_threshold: Option<SimDuration>,
}

impl LinkParams {
    /// A typical data-center 10 GbE cable: 1 µs propagation, 10 Gbps,
    /// 200 µs of buffering.
    #[must_use]
    pub fn ten_gig() -> LinkParams {
        LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth: Bandwidth::gbps(10),
            max_queue: SimDuration::from_micros(200),
            ecn_threshold: Some(SimDuration::from_micros(50)),
        }
    }
}

/// Behaviour plugged into the engine: a switch, host, or controller.
///
/// `Send` is a supertrait so a node can live inside a
/// [`ShardedWorld`](crate::ShardedWorld) shard that executes on
/// a worker thread. Nodes never share state across threads — each is
/// owned by exactly one shard — so `Send` (not `Sync`) is all the
/// engine asks for.
pub trait Node: Send {
    /// Called once when the world starts running.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived on `in_port`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortNo, pkt: Packet);

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// The wire on `port` changed state (carrier detect).
    fn on_link_change(&mut self, _ctx: &mut Ctx<'_>, _port: PortNo, _up: bool) {}

    /// The node came back after a crash scheduled via
    /// [`Engine::schedule_restart`]. All timers armed before the crash
    /// are gone; persistent state (fields) survives, volatile progress
    /// does not. The default does nothing — stateless nodes just resume.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called by [`Engine::telemetry_snapshot`] immediately before the
    /// registry is read, so nodes can sync derived values (cache
    /// hit/miss totals, table sizes) into their registered cells.
    /// Must not touch simulation state; the default does nothing.
    fn publish_telemetry(&mut self) {}

    /// The [`HeapCensus`] row this node's bytes go to.
    fn heap_owner(&self) -> &'static str {
        "other nodes"
    }

    /// The heap this node owns beyond its own box, counted by capacity
    /// (the engine adds the box).
    fn heap_bytes(&self) -> usize {
        0
    }

    /// Downcast support so experiments can read node-internal state after
    /// a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Identity of a wire inside a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(usize);

impl WireId {
    /// Builds a wire ID from its raw index (wires are numbered in
    /// creation order, starting at zero).
    #[must_use]
    pub fn from_raw(ix: usize) -> WireId {
        WireId(ix)
    }

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
struct Wire {
    a: (NodeAddr, PortNo),
    b: (NodeAddr, PortNo),
    params: LinkParams,
    up: bool,
    /// Sender-side busy horizon per direction (a→b, b→a).
    busy: [SimTime; 2],
}

/// One port slot: the wire on the port as its index + 1, so an empty
/// slot is the niche and a slot is 4 bytes (wire indices fit in `u32`,
/// asserted where wires are added).
type PortSlot = Option<NonZeroU32>;

fn slot_wire(slot: NonZeroU32) -> WireId {
    WireId(slot.get() as usize - 1)
}

#[derive(Debug, Default)]
struct Wiring {
    wires: Vec<Wire>,
    /// Dense per-node port table, indexed `[node][port]` (ports are
    /// 1..=254, so slot 0 is always empty). Replaces a hash map on the
    /// transmit hot path: wire lookup is two array indexes.
    port_map: Vec<Vec<PortSlot>>,
}

impl Wiring {
    /// `node`'s port table (empty for an unknown or unwired node).
    fn ports(&self, node: NodeAddr) -> &[PortSlot] {
        self.port_map.get(node.0).map_or(&[], Vec::as_slice)
    }

    fn at(&self, node: NodeAddr, port: PortNo) -> Option<WireId> {
        self.ports(node)
            .get(usize::from(port.get()))?
            .map(slot_wire)
    }

    fn node_ports(&mut self, node: NodeAddr) -> &mut Vec<PortSlot> {
        if self.port_map.len() <= node.0 {
            self.port_map.resize_with(node.0 + 1, Vec::new);
        }
        &mut self.port_map[node.0]
    }

    /// Sizes `node`'s table for ports up to `top` in one exact
    /// allocation; wiring them then fills it without growing it.
    fn reserve_ports(&mut self, node: NodeAddr, top: PortNo) {
        let ports = self.node_ports(node);
        ports.reserve_exact((usize::from(top.get()) + 1).saturating_sub(ports.len()));
    }

    fn map_port(&mut self, node: NodeAddr, port: PortNo, id: WireId) {
        let ix = usize::from(port.get());
        let ports = self.node_ports(node);
        if ports.len() <= ix {
            ports.resize(ix + 1, None);
        }
        ports[ix] = NonZeroU32::new(u32::try_from(id.0 + 1).expect("wire index fits in u32"));
    }
}

/// A queued event. The packet-carrying variants hold their node and
/// wire as `u32` indices (the node and wire tables are capped below
/// `u32::MAX` entries where they grow), which keeps the whole enum
/// within 128 bytes (asserted below): at that size the compiler moves
/// an event with inline vector copies, one byte more and every move is
/// a `memcpy` call.
enum Event {
    Start(NodeAddr),
    Arrive {
        node: u32,
        /// Index of the wire that carried the packet ([`INJECTED`] for
        /// injections).
        via: u32,
        port: PortNo,
        pkt: Packet,
    },
    /// A deferred transmission reaching the wire (models host-stack
    /// latency before the NIC).
    Egress {
        node: u32,
        port: PortNo,
        pkt: Packet,
    },
    Timer {
        node: NodeAddr,
        token: u64,
        /// Crash epoch the timer was armed in; a stale epoch means the
        /// node crashed after arming and the timer must not fire.
        epoch: u32,
    },
    AdminLink {
        wire: WireId,
        up: bool,
        /// Whether this shard counts/traces the event. A sharded run
        /// mirrors admin events into every shard that owns an affected
        /// endpoint; exactly one copy is `counted`, so the merged
        /// `events` total matches the single-shard run.
        counted: bool,
    },
    /// A scheduled change of a wire's loss probability (a gray fault
    /// starting or healing mid-run).
    AdminFault {
        wire: WireId,
        loss: f64,
        counted: bool,
    },
    /// The node dies: arrivals and timers are discarded until restart,
    /// and every incident wire goes down (neighbours see carrier loss).
    Crash {
        node: NodeAddr,
        counted: bool,
    },
    /// The node comes back: incident wires return to service and the
    /// node's [`Node::on_restart`] hook runs.
    Restart {
        node: NodeAddr,
        counted: bool,
    },
}

/// The `via` of an [`Event::Arrive`] that no wire carried.
const INJECTED: u32 = u32::MAX;

// The size budget of a queued event (see `Event`). The packet is what
// an event spends it on: a field added to either must show up here, not
// as a silent return of the `memcpy` calls.
const _: () = assert!(std::mem::size_of::<Event>() <= 128);
const _: () = assert!(std::mem::size_of::<Packet>() == 104);

impl Event {
    /// Whether this event increments the world `events` counter (and
    /// emits chaos traces). False only for uncounted admin mirrors in
    /// sharded runs.
    fn counted(&self) -> bool {
        match self {
            Event::AdminLink { counted, .. }
            | Event::AdminFault { counted, .. }
            | Event::Crash { counted, .. }
            | Event::Restart { counted, .. } => *counted,
            _ => true,
        }
    }
}

/// A packet arrival bound for another shard, buffered in the sending
/// shard's outbox until the next synchronization-window exchange.
#[derive(Debug)]
pub(crate) struct Crossing {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) node: NodeAddr,
    pub(crate) port: PortNo,
    pub(crate) pkt: Packet,
    pub(crate) via: WireId,
}

counter_block! {
    /// Live engine counters, registered as one block under
    /// `(NodeKind::World, 0)`; [`World::stats`] fills the view from them.
    struct WorldCounters =>
    /// Counters the engine keeps while running. `+=` sums another
    /// cell's view into this one, field by field.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct WorldStats {
        /// Events dispatched.
        events,
        /// Packets accepted onto a wire.
        packets_sent,
        /// Packets handed to a node.
        packets_delivered,
        /// Packets dropped because the wire was down or the port unwired.
        drops_down,
        /// Packets dropped by queue overflow.
        drops_queue,
        /// Packets lost to injected loss (see [`Engine::set_loss`]).
        drops_loss,
        /// Always zero: nothing corrupts packets. Kept only because the
        /// benchmark package reads it (ROADMAP item 7 removes it).
        drops_corrupt,
        /// Packets discarded because the destination node was crashed.
        drops_crashed,
        /// Packets ECN-marked for queueing past a link's threshold.
        ecn_marked,
    }
}

counter_block! {
    /// Live per-wire counters, one row of the world's dense link table;
    /// snapshots list them under `(NodeKind::Link, wire index)` and
    /// [`Engine::link_stats`] sums the per-cell views.
    struct LinkCounters =>
    /// Per-wire counters, queryable after a run via [`Engine::link_stats`].
    ///
    /// A packet that the wire *accepts* increments `sent`; every accepted
    /// packet ends in exactly one of `delivered`, `drops_loss` or
    /// `drops_crashed`. Refusals before acceptance land in `drops_down` /
    /// `drops_queue`. `+=` sums another cell's view of the same wire into
    /// this one (direction counters accrue on the sending cell, delivery
    /// counters on the receiving one).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct LinkStats {
        /// Packets accepted onto this wire.
        sent,
        /// Packets handed to the far-end node.
        delivered,
        /// Packets refused because the wire was administratively down.
        drops_down,
        /// Packets refused by queue overflow.
        drops_queue,
        /// Packets lost to probabilistic loss.
        drops_loss,
        /// Packets discarded on arrival because the far end was crashed.
        drops_crashed,
        /// Packets ECN-marked on this wire.
        ecn_marked,
    }
}

/// The handler-side view of the world.
///
/// The dispatched node is out of the node table while its handler runs,
/// so the context can hold the rest of the engine mutably and a
/// [`Ctx::send`] goes straight onto the wire — same observable order as
/// the old buffered-action design, without copying each packet through
/// an intermediate queue.
pub struct Ctx<'a> {
    now: SimTime,
    addr: NodeAddr,
    /// This node's crash epoch at dispatch time (it cannot change while
    /// the handler runs; crashes are events themselves).
    epoch: u32,
    core: &'a mut Core,
}

impl Ctx<'_> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's own address.
    #[must_use]
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Puts `pkt` on the wire out of `port`. Dropped silently (and
    /// counted) if the port is unwired or its wire is down — exactly like
    /// pushing bytes into a dead NIC. Returns the packet's on-wire
    /// length, which the link model needs anyway, so a sender keeping
    /// byte counters does not compute it a second time.
    pub fn send(&mut self, port: PortNo, pkt: Packet) -> usize {
        self.core.transmit(self.addr, port, pkt)
    }

    /// Like [`Ctx::send`], but the packet reaches the wire only after
    /// `delay` — used to model host-stack traversal time before the NIC.
    pub fn send_after(&mut self, delay: SimDuration, port: PortNo, pkt: Packet) {
        let at = self.now + delay;
        let key = self.core.next_key(self.addr);
        self.core.queue.push(
            at,
            key,
            Event::Egress {
                node: self.addr.0 as u32,
                port,
                pkt,
            },
        );
    }

    /// Arms a one-shot timer; `token` comes back in
    /// [`Node::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        let key = self.core.next_key(self.addr);
        self.core.queue.push(
            at,
            key,
            Event::Timer {
                node: self.addr,
                token,
                epoch: self.epoch,
            },
        );
    }

    /// Calls `f` with this context and each wired port of this node, in
    /// ascending port order. The context is handed back so `f` can send
    /// on the port; nothing is allocated, so a switch can flood per
    /// packet (wiring cannot change while a handler runs).
    pub fn for_each_wired_port(&mut self, mut f: impl FnMut(&mut Self, PortNo)) {
        let slots = self.core.wiring.ports(self.addr).len();
        for port in (0..slots).filter_map(|ix| PortNo::new(u8::try_from(ix).ok()?)) {
            if self.core.wiring.at(self.addr, port).is_some() {
                f(self, port);
            }
        }
    }

    /// Whether `port` currently has an up wire.
    #[must_use]
    pub fn link_up(&self, port: PortNo) -> bool {
        self.core
            .wiring
            .at(self.addr, port)
            .map(|w| self.core.wiring.wires[w.0].up)
            .unwrap_or(false)
    }

    /// Deterministic per-node randomness: each node draws from its own
    /// stream (derived from the world seed and the node address), so
    /// draw sequences do not depend on how events from *other* nodes
    /// interleave — the property that keeps sharded runs byte-identical
    /// to single-threaded ones.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.node_rngs[self.addr.0]
    }

    /// The world's telemetry registry: nodes register their counter
    /// block here (typically in [`Node::on_start`]) and emit trace events.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// Convenience: appends a trace event stamped with the current sim
    /// time, skipping the formatting closure entirely when tracing is
    /// disabled.
    pub fn trace(
        &self,
        category: TraceCategory,
        kind: NodeKind,
        node: u64,
        detail: impl FnOnce() -> String,
    ) {
        if self.core.telemetry.trace_enabled() {
            self.core
                .telemetry
                .emit(self.now, category, kind, node, detail());
        }
    }
}

/// The simulation world.
///
/// Internally split in two: the node table, and everything else
/// ([`Core`]). Dispatch takes the target node out of the table and hands
/// its handler a [`Ctx`] borrowing the core mutably, so handler side
/// effects (sends, timers) apply immediately with no buffering. `World`
/// derefs to its core, so engine state reads the same either way.
pub struct World {
    nodes: Vec<Option<Box<dyn Node>>>,
    core: Core,
}

/// Everything in a [`World`] except the nodes themselves: wiring, the
/// event queue, the clock, RNG streams, and counters.
///
/// Public only because [`World`] derefs to it; the fields stay private
/// and no constructor is exported, so it cannot be built outside this
/// module.
pub struct Core {
    crashed: Vec<bool>,
    /// Bumped on every crash; invalidates timers armed before it.
    epoch: Vec<u32>,
    wiring: Wiring,
    /// Per-wire loss probability; `0.0` (or less) is a healthy wire.
    loss: Vec<f64>,
    /// One counter block per wire, in one dense table: the registry
    /// does not hold them, [`Engine::telemetry_snapshot`] adds their
    /// rows.
    link_stats: Vec<LinkCounters>,
    queue: EventQueue<Event>,
    now: SimTime,
    /// World seed; per-node RNG streams are derived from it.
    seed: u64,
    /// Per-node randomness streams ([`Ctx::rng`]); stream `i` depends
    /// only on the seed and `i`, never on other nodes' draws.
    node_rngs: Vec<StdRng>,
    /// Per-node event emission counters; the low half of ordering keys.
    emit_seq: Vec<u32>,
    /// Emission counter for external (origin-0) events: injections and
    /// chaos-plan scheduling.
    ext_seq: u32,
    /// Base seed for the per-(wire, direction) fault streams. Fault
    /// coin flips never perturb application-visible randomness, and
    /// each wire direction draws independently so chaos outcomes do not
    /// depend on cross-wire event interleaving.
    fault_seed: u64,
    /// The fault streams drawn from so far, keyed by `2 × wire + dir`.
    /// A stream is seeded on its direction's first lossy draw: its seed
    /// depends only on `fault_seed` and the key, so a lazy stream draws
    /// what an eager one would, and healthy wires hold none.
    fault_rngs: BTreeMap<usize, StdRng>,
    /// Externally asserted congestion per (wire, direction): while set,
    /// every packet entering that direction is ECN-marked regardless of
    /// queue depth. The hybrid engine drives this from flow-plane edge
    /// utilization so packet-plane endpoints see elephant congestion.
    ext_congestion: Vec<[bool; 2]>,
    /// Cell (shard) assignment per node; all zeros standalone.
    node_cells: Vec<u32>,
    /// Which cell this world instance executes (0 standalone).
    my_cell: u32,
    /// True when this world is one shard of a `ShardedWorld`: arrivals
    /// for foreign cells detour through `outbox`.
    sharded: bool,
    /// Cross-shard arrivals awaiting the next window exchange.
    outbox: Vec<Crossing>,
    telemetry: Telemetry,
    stats: Arc<WorldCounters>,
    started: bool,
}

impl std::ops::Deref for World {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

impl std::ops::DerefMut for World {
    fn deref_mut(&mut self) -> &mut Core {
        &mut self.core
    }
}

/// Default fault-RNG domain separator (XORed with the world seed).
const FAULT_SEED_SALT: u64 = 0xC4A0_5F00_D15E_A5ED;

/// Sub-seed for stream `salt` of base seed `base`. Deterministic and
/// shard-invariant: it depends only on the identities, never on run
/// order.
fn derive_seed(base: u64, salt: u64) -> u64 {
    mix64(base ^ mix64(salt))
}

impl World {
    /// Creates an empty world with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> World {
        World::new_cell(seed, 0, false)
    }

    /// Creates a world that executes cell `my_cell` of a sharded run
    /// (`sharded` = false builds a plain standalone world).
    pub(crate) fn new_cell(seed: u64, my_cell: u32, sharded: bool) -> World {
        let telemetry = Telemetry::default();
        let stats = Arc::<WorldCounters>::default();
        telemetry.register_block(NodeKind::World, 0, stats.clone());
        World {
            nodes: Vec::new(),
            core: Core {
                crashed: Vec::new(),
                epoch: Vec::new(),
                wiring: Wiring::default(),
                loss: Vec::new(),
                link_stats: Vec::new(),
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                seed,
                node_rngs: Vec::new(),
                emit_seq: Vec::new(),
                ext_seq: 0,
                fault_seed: seed ^ FAULT_SEED_SALT,
                fault_rngs: BTreeMap::new(),
                ext_congestion: Vec::new(),
                node_cells: Vec::new(),
                my_cell,
                sharded,
                outbox: Vec::new(),
                telemetry,
                stats,
                started: false,
            },
        }
    }

    /// The world's telemetry registry handle (cheap to clone; the same
    /// registry every [`Ctx`] hands to node handlers).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The counters of this cell alone (a view filled from its counter
    /// block). On a standalone world that is everything;
    /// [`Engine::stats`] sums it over the cells of any engine.
    #[must_use]
    pub fn stats(&self) -> WorldStats {
        let mut view = WorldStats::default();
        self.stats.fill(&mut view);
        view
    }

    /// Adds a node table slot assigned to `cell`. In a sharded run
    /// every shard has the full table, but only the owning shard holds
    /// the node itself (`Some`); foreign slots are `None` and dispatch
    /// to them is a no-op. RNG streams and emission counters exist for
    /// every slot so indices line up across shards.
    fn add_slot(&mut self, node: Option<Box<dyn Node>>, cell: u32) -> NodeAddr {
        let addr = NodeAddr(self.nodes.len());
        // Events carry node addresses as `u32`, and ordering keys shift
        // `addr + 1` into their high half.
        assert!(addr.0 < u32::MAX as usize, "node table outgrew u32");
        self.nodes.push(node);
        self.crashed.push(false);
        self.epoch.push(0);
        let seed = self.seed;
        self.core
            .node_rngs
            .push(StdRng::seed_from_u64(derive_seed(seed, addr.0 as u64 + 1)));
        self.core.emit_seq.push(0);
        self.core.node_cells.push(cell);
        addr
    }

    /// Adds one wire to this cell's wiring table (every cell of an
    /// engine holds the full table; see [`Engine::wire`]).
    fn add_wire(
        &mut self,
        a: NodeAddr,
        pa: PortNo,
        b: NodeAddr,
        pb: PortNo,
        params: LinkParams,
    ) -> Result<WireId> {
        for n in [a, b] {
            if n.0 >= self.nodes.len() {
                return Err(DumbNetError::UnknownNode(n.to_string()));
            }
        }
        for (n, p) in [(a, pa), (b, pb)] {
            if self.wiring.at(n, p).is_some() {
                return Err(DumbNetError::PortInUse(format!("{n}:{p}")));
            }
        }
        let id = WireId(self.wiring.wires.len());
        assert!(id.0 < INJECTED as usize, "wire table outgrew u32");
        self.wiring.wires.push(Wire {
            a: (a, pa),
            b: (b, pb),
            params,
            up: true,
            busy: [SimTime::ZERO; 2],
        });
        self.core.loss.push(0.0);
        self.core.link_stats.push(LinkCounters::default());
        self.core.ext_congestion.push([false, false]);
        self.wiring.map_port(a, pa, id);
        self.wiring.map_port(b, pb, id);
        Ok(id)
    }

    /// Externally asserts or clears congestion on one direction of a
    /// wire (direction 0 is a→b, 1 is b→a). While asserted, every
    /// packet entering that direction is ECN-marked regardless of queue
    /// depth — the hybrid engine's handle for making flow-plane
    /// (elephant) congestion visible to packet-plane endpoints.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range wire ID or direction.
    pub fn set_external_congestion(&mut self, wire: WireId, dir: usize, congested: bool) {
        assert!(dir < 2, "wire direction must be 0 (a→b) or 1 (b→a)");
        self.core.ext_congestion[wire.0][dir] = congested;
    }

    /// Makes room for `nodes` more nodes and `wires` more wires in every
    /// per-node and per-wire table, exactly (see [`Engine::reserve`]).
    fn reserve_tables(&mut self, nodes: usize, wires: usize) {
        self.nodes.reserve_exact(nodes);
        let core = &mut self.core;
        core.crashed.reserve_exact(nodes);
        core.epoch.reserve_exact(nodes);
        core.node_rngs.reserve_exact(nodes);
        core.emit_seq.reserve_exact(nodes);
        core.node_cells.reserve_exact(nodes);
        core.wiring.port_map.reserve_exact(nodes);
        core.wiring.wires.reserve_exact(wires);
        core.loss.reserve_exact(wires);
        core.link_stats.reserve_exact(wires);
        core.ext_congestion.reserve_exact(wires);
    }

    /// Adds this cell's rows to `census`.
    fn heap_census(&self, census: &mut HeapCensus) {
        for node in self.nodes.iter().flatten() {
            let bytes = std::mem::size_of_val(&**node) + node.heap_bytes();
            census.add(node.heap_owner(), bytes);
        }
        let core = &self.core;
        census.add(
            "node table",
            heap::vec(&self.nodes)
                + heap::vec(&core.crashed)
                + heap::vec(&core.epoch)
                + heap::vec(&core.node_rngs)
                + heap::vec(&core.emit_seq)
                + heap::vec(&core.node_cells),
        );
        let ports: usize = core.wiring.port_map.iter().map(heap::vec).sum();
        census.add(
            "wiring",
            heap::vec(&core.wiring.wires)
                + heap::vec(&core.wiring.port_map)
                + ports
                + heap::vec(&core.loss)
                + heap::vec(&core.ext_congestion),
        );
        census.add("link counters", heap::vec(&core.link_stats));
        census.add("fault streams", heap::btree_map(&core.fault_rngs));
        census.add("queue", core.queue.heap_bytes() + heap::vec(&core.outbox));
        census.add("telemetry registry", core.telemetry.heap_bytes());
    }

    /// Runs every local event with a timestamp strictly before `end`
    /// (one synchronization window) and returns how many fired. Events
    /// at `end` or later stay queued: a cross-shard arrival generated
    /// elsewhere during this window can land at `end` at the earliest,
    /// and it must be merged (by key) before anything at that instant
    /// runs. Time is whole nanoseconds, so "before `end`" is "at or
    /// before `end − 1 ns`"; every window ends at 1 ns or later.
    pub(crate) fn run_window(&mut self, end: SimTime) -> u64 {
        self.ensure_started();
        let mut fired = 0;
        while let Some((t, ev)) = self.queue.pop_before(SimTime(end.nanos() - 1)) {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(ev);
            fired += 1;
        }
        fired
    }

    /// Pops and dispatches the single earliest event, returning its
    /// time, or `None` when idle. The zero-lookahead fallback uses this
    /// to run an exact global `(time, key)` merge across shards, one
    /// event at a time.
    pub(crate) fn dispatch_head(&mut self) -> Option<SimTime> {
        self.ensure_started();
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.dispatch(ev);
        Some(t)
    }

    /// `(time, key)` of this shard's earliest pending event.
    pub(crate) fn peek_head(&self) -> Option<(SimTime, u64)> {
        self.queue.peek_head()
    }

    /// Advances the clock to `t` (never backwards); called at window
    /// barriers so every shard agrees on "now" between windows.
    pub(crate) fn set_clock(&mut self, t: SimTime) {
        if t > self.core.now {
            self.core.now = t;
        }
    }

    /// Takes the cross-shard arrivals generated since the last call,
    /// leaving `spare` (an emptied buffer from an earlier exchange) to
    /// collect the next window's: the buffers circulate, so a shard
    /// with crossings does not allocate a fresh one per window.
    pub(crate) fn swap_outbox(&mut self, spare: Vec<Crossing>) -> Vec<Crossing> {
        debug_assert!(spare.is_empty(), "a spare outbox buffer must be drained");
        std::mem::replace(&mut self.core.outbox, spare)
    }

    /// Enqueues an arrival received from another shard, preserving the
    /// key its sender assigned.
    pub(crate) fn push_crossing(&mut self, c: Crossing) {
        self.core.queue.push(
            c.at,
            c.key,
            Event::Arrive {
                node: c.node.0 as u32,
                via: c.via.0 as u32,
                port: c.port,
                pkt: c.pkt,
            },
        );
    }

    pub(crate) fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for ix in 0..self.nodes.len() {
                // Only locally-owned nodes start here; in a sharded run
                // each node's Start fires on exactly one shard. The key
                // is the node's first emission either way, so the
                // single-shard order (ascending address) is preserved.
                if self.nodes[ix].is_none() {
                    continue;
                }
                let at = self.core.now;
                let key = self.core.next_key(NodeAddr(ix));
                self.core.queue.push(at, key, Event::Start(NodeAddr(ix)));
            }
        }
    }

    fn dispatch(&mut self, ev: Event) {
        if ev.counted() {
            self.stats.events.inc();
        }
        match ev {
            Event::Start(addr) => {
                self.with_node(addr, |node, ctx| node.on_start(ctx));
            }
            Event::Arrive {
                node,
                via,
                port,
                pkt,
            } => {
                let node = NodeAddr(node as usize);
                let link = (via != INJECTED).then(|| &self.core.link_stats[via as usize]);
                if self.core.node_crashed(node) {
                    self.core.stats.drops_crashed.inc();
                    if let Some(link) = link {
                        link.drops_crashed.inc();
                    }
                    return;
                }
                self.core.stats.packets_delivered.inc();
                if let Some(link) = link {
                    link.delivered.inc();
                }
                // No closure here: the packet goes from the popped
                // event to the handler without a stop in a capture.
                if let Some(mut n) = self.checkout(node) {
                    n.on_packet(&mut self.core.ctx(node), port, pkt);
                    self.nodes[node.0] = Some(n);
                }
            }
            Event::Egress { node, port, pkt } => {
                let node = NodeAddr(node as usize);
                if self.core.node_crashed(node) {
                    self.stats.drops_crashed.inc();
                    return;
                }
                self.transmit(node, port, pkt);
            }
            Event::Timer { node, token, epoch } => {
                // Timers are volatile: a crash bumps the node's epoch,
                // so anything armed before the crash is stale and must
                // not fire — not while dead, and not after restart.
                if self.epoch.get(node.0).copied().unwrap_or(0) != epoch {
                    return;
                }
                self.with_node(node, |n, ctx| n.on_timer(ctx, token));
            }
            Event::AdminLink { wire, up, counted } => {
                let (a, b, changed) = {
                    let w = &mut self.wiring.wires[wire.0];
                    let changed = w.up != up;
                    w.up = up;
                    (w.a, w.b, changed)
                };
                if changed {
                    if counted && self.telemetry.trace_enabled() {
                        self.telemetry.emit(
                            self.now,
                            TraceCategory::Chaos,
                            NodeKind::Link,
                            wire.0 as u64,
                            format!("admin link {}", if up { "up" } else { "down" }),
                        );
                    }
                    self.with_node(a.0, |n, ctx| n.on_link_change(ctx, a.1, up));
                    self.with_node(b.0, |n, ctx| n.on_link_change(ctx, b.1, up));
                }
            }
            Event::AdminFault {
                wire,
                loss,
                counted,
            } => {
                if counted && self.telemetry.trace_enabled() {
                    // The soak's violation dumps print these words.
                    let verb = if loss <= 0.0 { "cleared" } else { "replaced" };
                    self.telemetry.emit(
                        self.now,
                        TraceCategory::Chaos,
                        NodeKind::Link,
                        wire.0 as u64,
                        format!("fault profile {verb}"),
                    );
                }
                self.loss[wire.0] = loss;
            }
            Event::Crash {
                node: addr,
                counted,
            } => {
                if self.crashed.get(addr.0).copied().unwrap_or(true) {
                    return;
                }
                self.crashed[addr.0] = true;
                self.epoch[addr.0] = self.epoch[addr.0].wrapping_add(1);
                if counted && self.telemetry.trace_enabled() {
                    self.telemetry.emit(
                        self.now,
                        TraceCategory::Chaos,
                        NodeKind::World,
                        addr.0 as u64,
                        format!("node {addr} crashed"),
                    );
                }
                self.set_incident_wires(addr, false);
            }
            Event::Restart {
                node: addr,
                counted,
            } => {
                if !self.core.node_crashed(addr) {
                    return;
                }
                self.crashed[addr.0] = false;
                if counted && self.telemetry.trace_enabled() {
                    self.telemetry.emit(
                        self.now,
                        TraceCategory::Chaos,
                        NodeKind::World,
                        addr.0 as u64,
                        format!("node {addr} restarted"),
                    );
                }
                self.set_incident_wires(addr, true);
                self.with_node(addr, |n, ctx| n.on_restart(ctx));
            }
        }
    }

    /// Forces every wire touching `addr` to `up`, notifying the nodes
    /// whose carrier actually changed (the crashed endpoint itself is
    /// deaf and skipped by `with_node`).
    ///
    /// Restart brings *all* incident wires back up; a concurrent
    /// administrative down (flap schedule) overlapping a crash window is
    /// resolved in favour of the restart.
    fn set_incident_wires(&mut self, addr: NodeAddr, up: bool) {
        let mut notify = Vec::new();
        for w in &mut self.wiring.wires {
            if w.a.0 != addr && w.b.0 != addr {
                continue;
            }
            if w.up != up {
                w.up = up;
                notify.push(w.a);
                notify.push(w.b);
            }
        }
        for (node, port) in notify {
            self.with_node(node, |n, ctx| n.on_link_change(ctx, port, up));
        }
    }

    /// Runs `f` on the node at `addr` unless it is crashed (or lives in
    /// another cell).
    fn with_node<F: FnOnce(&mut Box<dyn Node>, &mut Ctx<'_>)>(&mut self, addr: NodeAddr, f: F) {
        if self.core.node_crashed(addr) {
            return;
        }
        if let Some(mut node) = self.checkout(addr) {
            f(&mut node, &mut self.core.ctx(addr));
            self.nodes[addr.0] = Some(node);
        }
    }

    /// Takes the node at `addr` out of the table for one handler call
    /// (`None` for a foreign cell's slot or an unknown address); the
    /// caller puts it back. With the node out, its [`Ctx`] can borrow
    /// the whole core: handler side effects apply immediately, in emit
    /// order — the same order the old action buffer replayed them in.
    fn checkout(&mut self, addr: NodeAddr) -> Option<Box<dyn Node>> {
        self.nodes.get_mut(addr.0)?.take()
    }
}

impl Core {
    /// Whether `node` is crashed (an unknown address is not).
    fn node_crashed(&self, node: NodeAddr) -> bool {
        self.crashed.get(node.0).copied().unwrap_or(false)
    }

    /// The handler-side view of this core for the node at `addr`.
    fn ctx(&mut self, addr: NodeAddr) -> Ctx<'_> {
        Ctx {
            now: self.now,
            addr,
            epoch: self.epoch.get(addr.0).copied().unwrap_or(0),
            core: self,
        }
    }

    /// Ordering key for the next event caused by node `origin`:
    /// `(origin + 1) << 32 | seq`. Content-based, so it is identical at
    /// any shard count.
    fn next_key(&mut self, origin: NodeAddr) -> u64 {
        let seq = self.emit_seq[origin.0];
        self.emit_seq[origin.0] = seq
            .checked_add(1)
            .expect("per-node emission counter overflow");
        ((origin.0 as u64 + 1) << 32) | u64::from(seq)
    }

    /// Ordering key for the next externally scheduled event (origin 0):
    /// sorts before every node-caused event at the same instant, like
    /// the pre-scheduled externals always did.
    fn ext_key(&mut self) -> u64 {
        let seq = self.ext_seq;
        self.ext_seq = seq.checked_add(1).expect("external event counter overflow");
        u64::from(seq)
    }

    /// Whether injected loss `p` eats the packet entering direction `dir`
    /// of `wire`: one draw from that direction's fault stream, seeded on
    /// its first draw from `fault_seed` and the direction alone. Out of
    /// line: most wires never lose a packet, and the transmit path stays
    /// small without the stream lookup.
    #[cold]
    #[inline(never)]
    fn loss_draw(&mut self, wire: WireId, dir: usize, p: f64) -> bool {
        let key = 2 * wire.0 + dir;
        let seed = self.fault_seed;
        self.fault_rngs
            .entry(key)
            .or_insert_with(|| StdRng::seed_from_u64(derive_seed(seed, key as u64 + 1)))
            .gen_bool(p.clamp(0.0, 1.0))
    }

    /// Puts a packet onto the wire at `(from, port)` at the current
    /// time. Returns its on-wire length (also when it is dropped).
    fn transmit(&mut self, from: NodeAddr, port: PortNo, mut pkt: Packet) -> usize {
        let wire_len = pkt.wire_len();
        let Some(wid) = self.wiring.at(from, port) else {
            self.stats.drops_down.inc();
            return wire_len;
        };
        let wire = &mut self.wiring.wires[wid.0];
        if !wire.up {
            self.stats.drops_down.inc();
            self.link_stats[wid.0].drops_down.inc();
            return wire_len;
        }
        let (dir, dest) = if wire.a == (from, port) {
            (0, wire.b)
        } else {
            (1, wire.a)
        };
        let depart_start = wire.busy[dir].max(self.now);
        let queue_delay = depart_start - self.now;
        if queue_delay > wire.params.max_queue {
            self.stats.drops_queue.inc();
            self.link_stats[wid.0].drops_queue.inc();
            return wire_len;
        }
        let queue_congested = wire
            .params
            .ecn_threshold
            .is_some_and(|threshold| queue_delay > threshold);
        if queue_congested || self.ext_congestion[wid.0][dir] {
            pkt.ecn = true;
            self.stats.ecn_marked.inc();
            self.link_stats[wid.0].ecn_marked.inc();
        }
        let ser = wire.params.bandwidth.serialization_delay(wire_len);
        let departed = depart_start + ser;
        wire.busy[dir] = departed;
        let arrival = departed + wire.params.latency;
        // The wire accepted the packet: bandwidth is consumed even when
        // injected loss then eats the bits mid-flight.
        self.stats.packets_sent.inc();
        self.link_stats[wid.0].sent.inc();
        let loss = self.loss[wid.0];
        // The coin flips on this wire direction's own stream, so the
        // outcome for the n-th packet down this direction is the same
        // at any shard count.
        if loss > 0.0 && self.loss_draw(wid, dir, loss) {
            self.stats.drops_loss.inc();
            self.link_stats[wid.0].drops_loss.inc();
            // A loss drop leaves a packet-category trace: it is the
            // data-plane evidence a chaos diagnosis needs. Congestion
            // drops (queue/down) are counters only — during a partition
            // they arrive in storms that would evict every useful event
            // from the bounded ring.
            if self.telemetry.trace_enabled() {
                self.telemetry.emit(
                    self.now,
                    TraceCategory::Packet,
                    NodeKind::Link,
                    wid.0 as u64,
                    "loss drop",
                );
            }
            return wire_len;
        }
        let key = self.next_key(from);
        if self.sharded && self.node_cells[dest.0 .0] != self.my_cell {
            // Destination lives on another shard: buffer the arrival
            // for the window-barrier exchange. The key travels with it,
            // so the receiving shard merges it into exactly the slot a
            // single-world run would have used.
            self.outbox.push(Crossing {
                at: arrival,
                key,
                node: dest.0,
                port: dest.1,
                pkt,
                via: wid,
            });
            return wire_len;
        }
        self.queue.push(
            arrival,
            key,
            Event::Arrive {
                node: dest.0 .0 as u32,
                via: wid.0 as u32,
                port: dest.1,
                pkt,
            },
        );
        wire_len
    }
}

/// Queues one admin event in every cell under a single external key.
/// Wire and crash state must change everywhere at the same `(time,
/// key)` slot, but only the `owner` cell's copy is counted and traced,
/// so merged totals match a one-cell run. The key comes from cell 0's
/// counter: the n-th external event gets the same key on every engine.
fn mirror_admin(cells: &mut [World], at: SimTime, owner: usize, event: impl Fn(bool) -> Event) {
    let key = cells[0].core.ext_key();
    for (ix, cell) in cells.iter_mut().enumerate() {
        cell.core.queue.push(at, key, event(ix == owner));
    }
}

/// The driving surface of every engine: a [`World`], a
/// [`ShardedWorld`](crate::ShardedWorld), or a
/// [`HybridWorld`](crate::HybridWorld) layered over either.
///
/// Everything the fabric builder, chaos harness and invariant checkers
/// need: construction (nodes, wires), scheduling (injections, admin
/// events), execution (windows of virtual time) and observation
/// (stats, telemetry, traces). Code written against `Engine` runs
/// unmodified on one core or many.
///
/// An engine *is* its slice of cells plus a way to execute them, and
/// those four methods are all an implementation must supply. Every
/// other method is provided, written once over the slice: a node lives
/// in its owner cell, wiring and admin events are mirrored into every
/// cell, counters are summed and telemetry merged. A layer that
/// intervenes in an operation (the hybrid engine's flow plane watching
/// admin events) overrides that method and calls the engine beneath.
pub trait Engine {
    /// The cells this engine executes, in cell order. Never empty; a
    /// plain [`World`] is its own single cell.
    fn cells(&self) -> &[World];

    /// Mutable access to the cells. Driving one cell of a multi-cell
    /// engine on its own breaks the engine's synchronization; this is
    /// the hook the provided methods are built on, not a second API.
    fn cells_mut(&mut self) -> &mut [World];

    /// Runs all events with timestamps ≤ `until`, then sets the clock
    /// to `until`.
    fn run_until(&mut self, until: SimTime) -> WorldStats;

    /// Runs until idle or roughly `max_events` dispatches.
    ///
    /// A sharded engine stops at the first synchronization barrier at
    /// or past the budget, so it can overshoot a finite `max_events` by
    /// up to one window; `u64::MAX` (run to completion) is exact on
    /// every engine.
    fn run_to_idle(&mut self, max_events: u64) -> WorldStats;

    /// Adds a node to cell 0 and returns its address.
    fn add_node(&mut self, node: Box<dyn Node>) -> NodeAddr {
        self.add_node_in_cell(node, 0)
    }

    /// Adds a node assigned to `cell` and returns its address.
    ///
    /// The cell selects the owning shard. Cells beyond the engine's
    /// cell count wrap round-robin (`cell % cell_count()`), so a
    /// topology partitioned into more cells than the machine has cores
    /// still maps deterministically — and on a plain [`World`] every
    /// node lands in cell 0.
    fn add_node_in_cell(&mut self, node: Box<dyn Node>, cell: u32) -> NodeAddr {
        let cells = self.cells_mut();
        let cell = cell % u32::try_from(cells.len()).expect("cell count fits in u32");
        let mut node = Some(node);
        let mut addr = NodeAddr(0);
        for (ix, c) in cells.iter_mut().enumerate() {
            let slot = if ix == cell as usize {
                node.take()
            } else {
                None
            };
            addr = c.add_slot(slot, cell);
        }
        addr
    }

    /// Wires `a:pa` to `b:pb`.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::PortInUse`] if either port is already
    /// wired, and [`DumbNetError::UnknownNode`] for bad addresses.
    fn wire(
        &mut self,
        a: NodeAddr,
        pa: PortNo,
        b: NodeAddr,
        pb: PortNo,
        params: LinkParams,
    ) -> Result<WireId> {
        let mut id = WireId(0);
        for cell in self.cells_mut() {
            id = cell.add_wire(a, pa, b, pb, params)?;
        }
        Ok(id)
    }

    /// Immutable downcast access to a node's concrete type.
    fn node<T: 'static>(&self, addr: NodeAddr) -> Option<&T> {
        self.cells()[self.node_cell(addr) as usize]
            .nodes
            .get(addr.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable downcast access to a node's concrete type.
    fn node_mut<T: 'static>(&mut self, addr: NodeAddr) -> Option<&mut T> {
        let owner = self.node_cell(addr) as usize;
        self.cells_mut()[owner]
            .nodes
            .get_mut(addr.0)?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Number of node slots.
    fn node_count(&self) -> usize {
        self.cells()[0].nodes.len()
    }

    /// The cell that owns a node (cell 0 for an unknown address);
    /// always below [`Engine::cell_count`].
    fn node_cell(&self, addr: NodeAddr) -> u32 {
        self.cells()[0].node_cells.get(addr.0).copied().unwrap_or(0)
    }

    /// Number of cells this engine executes (1 for a plain world).
    fn cell_count(&self) -> usize {
        self.cells().len()
    }

    /// Number of wires.
    fn wire_count(&self) -> usize {
        self.cells()[0].wiring.wires.len()
    }

    /// The wire on `(node, port)`, if any.
    fn wire_at(&self, node: NodeAddr, port: PortNo) -> Option<WireId> {
        self.cells()[0].wiring.at(node, port)
    }

    /// The wires on `node`'s ports, in ascending port order (a wire
    /// looped between two of its ports comes twice).
    fn node_wires(&self, node: NodeAddr) -> impl Iterator<Item = WireId> + '_ {
        self.cells()[0]
            .wiring
            .ports(node)
            .iter()
            .flatten()
            .copied()
            .map(slot_wire)
    }

    /// The two `(node, port)` endpoints of a wire.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range wire ID.
    fn wire_endpoints(&self, wire: WireId) -> ((NodeAddr, PortNo), (NodeAddr, PortNo)) {
        let w = &self.cells()[0].wiring.wires[wire.0];
        (w.a, w.b)
    }

    /// Whether a wire is administratively up (admin changes are
    /// mirrored everywhere, so every cell agrees).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range wire ID.
    fn wire_up(&self, wire: WireId) -> bool {
        self.cells()[0].wiring.wires[wire.0].up
    }

    /// Physical parameters of a wire.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range wire ID.
    fn wire_params(&self, wire: WireId) -> LinkParams {
        self.cells()[0].wiring.wires[wire.0].params
    }

    /// Accumulated per-wire counters.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range wire ID.
    fn link_stats(&self, wire: WireId) -> LinkStats {
        let mut total = LinkStats::default();
        for cell in self.cells() {
            let mut part = LinkStats::default();
            cell.link_stats[wire.0].fill(&mut part);
            total += part;
        }
        total
    }

    /// Whether `node` is currently crashed.
    fn is_crashed(&self, node: NodeAddr) -> bool {
        self.cells()[self.node_cell(node) as usize].node_crashed(node)
    }

    /// Current virtual time. Between runs all cells agree; mid-run
    /// observers get the furthest clock.
    fn now(&self) -> SimTime {
        self.cells()
            .iter()
            .map(|c| c.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Accumulated engine counters, summed over the cells.
    fn stats(&self) -> WorldStats {
        let mut total = WorldStats::default();
        for cell in self.cells() {
            total += cell.stats();
        }
        total
    }

    /// What the event queues did, folded over the cells (see
    /// [`QueueStats`] for why this is not a telemetry metric).
    fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for cell in self.cells() {
            total += cell.queue.stats();
        }
        total
    }

    /// Timestamp of the earliest pending event, if any. Outboxes are
    /// drained at barriers, so they are empty between runs; they are
    /// included for mid-run observers.
    fn next_event_time(&self) -> Option<SimTime> {
        self.cells()
            .iter()
            .flat_map(|c| {
                let crossings = c.outbox.iter().map(|x| x.at);
                c.queue.peek_time().into_iter().chain(crossings)
            })
            .min()
    }

    /// Injects a packet arrival at `(node, port)` at time `at`, as if
    /// it had come off a wire.
    fn inject(&mut self, at: SimTime, node: NodeAddr, port: PortNo, pkt: Packet) {
        let owner = self.node_cell(node) as usize;
        let cells = self.cells_mut();
        let key = cells[0].core.ext_key();
        // An address beyond the node table is delivered to no one, at
        // any width.
        let arrive = Event::Arrive {
            node: u32::try_from(node.0).unwrap_or(u32::MAX),
            via: INJECTED,
            port,
            pkt,
        };
        cells[owner].core.queue.push(at, key, arrive);
    }

    /// Schedules `node` to crash at `at`.
    fn schedule_crash(&mut self, at: SimTime, node: NodeAddr) {
        let owner = self.node_cell(node) as usize;
        mirror_admin(self.cells_mut(), at, owner, |counted| Event::Crash {
            node,
            counted,
        });
    }

    /// Schedules `node` to come back at `at` (no-op unless crashed).
    fn schedule_restart(&mut self, at: SimTime, node: NodeAddr) {
        let owner = self.node_cell(node) as usize;
        mirror_admin(self.cells_mut(), at, owner, |counted| Event::Restart {
            node,
            counted,
        });
    }

    /// Schedules an administrative wire state change at `at` (both
    /// endpoint nodes get carrier notifications when it happens).
    fn schedule_link_state(&mut self, at: SimTime, wire: WireId, up: bool) {
        let owner = self.node_cell(self.wire_endpoints(wire).0 .0) as usize;
        mirror_admin(self.cells_mut(), at, owner, |counted| Event::AdminLink {
            wire,
            up,
            counted,
        });
    }

    /// Schedules `wire`'s loss probability to become `p` at `at` — the
    /// mid-run half of [`Engine::set_loss`], so a gray fault can start
    /// or heal while the world runs. No carrier notification: the wire
    /// stays administratively up throughout.
    fn schedule_loss(&mut self, at: SimTime, wire: WireId, p: f64) {
        let owner = self.node_cell(self.wire_endpoints(wire).0 .0) as usize;
        mirror_admin(self.cells_mut(), at, owner, |counted| Event::AdminFault {
            wire,
            loss: p,
            counted,
        });
    }

    /// Sets the probability that `wire` loses a packet it accepts, in
    /// either direction, immediately (`0.0` heals it).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range wire ID.
    fn set_loss(&mut self, wire: WireId, p: f64) {
        for cell in self.cells_mut() {
            cell.core.loss[wire.0] = p;
        }
    }

    /// Reseeds every per-(wire, direction) fault stream (normally done
    /// through [`ChaosPlan::apply`](crate::faults::ChaosPlan::apply)):
    /// the streams drawn from so far are forgotten, and each direction
    /// seeds afresh from `seed` on its next lossy draw.
    fn set_fault_seed(&mut self, seed: u64) {
        for cell in self.cells_mut() {
            cell.fault_seed = seed;
            cell.core.fault_rngs.clear();
        }
    }

    /// Makes room for `wires` more wires and `nodes` more nodes in every
    /// cell's tables, exactly (a builder that knows its counts calls
    /// this first, so the tables carry no growth slack).
    fn reserve(&mut self, nodes: usize, wires: usize) {
        for cell in self.cells_mut() {
            cell.reserve_tables(nodes, wires);
        }
    }

    /// Sizes `node`'s port table for ports `1..=top` in every cell, in
    /// one exact allocation (a builder that knows each node's highest
    /// wired port calls this before wiring, so the table carries no
    /// growth slack). Wiring a port past `top` still grows the table.
    fn reserve_ports(&mut self, node: NodeAddr, top: PortNo) {
        for cell in self.cells_mut() {
            cell.core.wiring.reserve_ports(node, top);
        }
    }

    /// Live heap bytes by owner, counted by capacity over every cell
    /// (see [`HeapCensus`]).
    fn heap_census(&self) -> HeapCensus {
        let mut census = HeapCensus::default();
        for cell in self.cells() {
            cell.heap_census(&mut census);
        }
        census
    }

    /// Reads every registered metric into an ordered snapshot, after
    /// giving each node a [`Node::publish_telemetry`] pass to sync
    /// derived values. Per-cell registries are merged key-wise, so the
    /// result is byte-identical at any cell count: same seed, same
    /// scenario ⇒ same [`TelemetrySnapshot::to_json`].
    fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        TelemetrySnapshot::merged(self.cells_mut().iter_mut().map(|cell| {
            for node in cell.nodes.iter_mut().flatten() {
                node.publish_telemetry();
            }
            let mut snap = cell.telemetry.snapshot();
            for (wire, counters) in cell.link_stats.iter().enumerate() {
                snap.insert_block(NodeKind::Link, wire as u64, counters);
            }
            snap
        }))
    }

    /// The most recent `n` trace events and the count of older ones
    /// dropped from the ring. Per-cell rings are merged by timestamp;
    /// the interleaving of same-instant events across cells is
    /// diagnostic-quality only (determinism guarantees cover counters
    /// and snapshots, not trace interleavings).
    fn trace_tail(&self, n: usize) -> (Vec<TraceEvent>, u64) {
        let mut merged: Vec<(SimTime, usize, TraceEvent)> = Vec::new();
        let mut dropped = 0;
        for (ix, cell) in self.cells().iter().enumerate() {
            let (tail, d) = cell.telemetry.trace_tail(n);
            dropped += d;
            merged.extend(tail.into_iter().map(|e| (e.at, ix, e)));
        }
        merged.sort_by_key(|e| (e.0, e.1));
        if merged.len() > n {
            let cut = merged.len() - n;
            dropped += cut as u64;
            merged.drain(..cut);
        }
        (merged.into_iter().map(|(_, _, e)| e).collect(), dropped)
    }
}

/// A plain world is the one-cell engine: its own single cell, executed
/// by popping its queue directly.
impl Engine for World {
    fn cells(&self) -> &[World] {
        std::slice::from_ref(self)
    }

    fn cells_mut(&mut self) -> &mut [World] {
        std::slice::from_mut(self)
    }

    fn run_until(&mut self, until: SimTime) -> WorldStats {
        self.ensure_started();
        while let Some((t, ev)) = self.queue.pop_before(until) {
            self.now = t;
            self.dispatch(ev);
        }
        self.now = until;
        World::stats(self)
    }

    fn run_to_idle(&mut self, max_events: u64) -> WorldStats {
        self.ensure_started();
        let mut fired = 0;
        while fired < max_events {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(ev);
            fired += 1;
        }
        World::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_packet::Payload;
    use dumbnet_types::{MacAddr, Path};

    /// Test node: counts arrivals; optionally echoes every packet back
    /// out the port it came in on.
    struct Echo {
        echo: bool,
        received: Vec<(SimTime, u64)>,
    }

    impl Echo {
        fn new(echo: bool) -> Echo {
            Echo {
                echo,
                received: Vec::new(),
            }
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortNo, pkt: Packet) {
            if let Payload::Data { seq, .. } = pkt.payload {
                self.received.push((ctx.now(), seq));
            }
            if self.echo {
                ctx.send(in_port, pkt);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn data(seq: u64, bytes: usize) -> Packet {
        Packet::data(
            MacAddr::for_host(1),
            MacAddr::for_host(0),
            Path::empty(),
            0,
            seq,
            bytes,
        )
    }

    const P1: PortNo = match PortNo::new(1) {
        Some(p) => p,
        None => unreachable!(),
    };

    /// Sends data packets `1..=total` out of port 1, one per 10 µs, and
    /// logs the sequence numbers it receives.
    struct Sender {
        total: u64,
        sent: u64,
        received: Vec<u64>,
    }

    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_micros(10), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _in_port: PortNo, pkt: Packet) {
            if let Payload::Data { seq, .. } = pkt.payload {
                self.received.push(seq);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.sent += 1;
            ctx.send(P1, data(self.sent, 100));
            if self.sent < self.total {
                ctx.set_timer(SimDuration::from_micros(10), 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// What each end of a lossy wire receives, on two senders in cells 0
    /// and 1 that trade 100 packets each way at 30 % loss, with the
    /// fault seed replaced after the 50th.
    fn lossy_trade<E: Engine>(mut w: E) -> [Vec<u64>; 2] {
        let ends = [0, 1].map(|cell| {
            let node = Sender {
                total: 100,
                sent: 0,
                received: Vec::new(),
            };
            w.add_node_in_cell(Box::new(node), cell)
        });
        let wire = w
            .wire(ends[0], P1, ends[1], P1, LinkParams::ten_gig())
            .unwrap();
        w.set_loss(wire, 0.3);
        w.run_until(SimTime::ZERO + SimDuration::from_micros(505));
        w.set_fault_seed(77);
        w.run_to_idle(u64::MAX);
        ends.map(|n| w.node::<Sender>(n).unwrap().received.clone())
    }

    /// The lazily seeded fault streams drop exactly the packets eagerly
    /// seeded ones would: each direction's stream seeded up front from
    /// the world's fault seed, reseeded from the new seed at
    /// `set_fault_seed`, one draw per packet sent. At 1 and 4 shards.
    #[test]
    fn lazy_fault_streams_draw_what_eager_ones_would() {
        let seed = 3;
        let eager = |dir: u64| {
            let stream = |fault_seed| StdRng::seed_from_u64(derive_seed(fault_seed, dir + 1));
            let mut rng = stream(seed ^ FAULT_SEED_SALT);
            let mut kept = Vec::new();
            for seq in 1..=100 {
                if seq == 51 {
                    rng = stream(77);
                }
                if !rng.gen_bool(0.3) {
                    kept.push(seq);
                }
            }
            kept
        };
        // Wire 0: direction 0 (a→b) is what b receives.
        let want = [eager(1), eager(0)];
        assert!(want[0].len() < 90 && want[1].len() < 90, "the wire drops");
        assert_eq!(lossy_trade(World::new(seed)), want);
        assert_eq!(lossy_trade(crate::ShardedWorld::new(seed, 4)), want);
    }

    #[test]
    fn packet_takes_latency_plus_serialization() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(false)));
        let b = w.add_node(Box::new(Echo::new(false)));
        let params = LinkParams {
            latency: SimDuration::from_micros(5),
            bandwidth: Bandwidth::gbps(1),
            max_queue: SimDuration::from_millis(1),
            ecn_threshold: None,
        };
        w.wire(a, P1, b, P1, params).unwrap();
        let pkt = data(0, 100);
        let wire_len = pkt.wire_len();
        w.inject(SimTime::ZERO, a, P1, pkt);
        w.run_to_idle(100);
        // a echoes nothing; but we injected *at* a. Re-inject towards b:
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(false)));
        let b = w.add_node(Box::new(Echo::new(true)));
        w.wire(a, P1, b, P1, params).unwrap();
        // Make a send by injecting into an echoing node b? Instead use a
        // node that echoes: inject at b, it echoes to a.
        w.inject(SimTime::ZERO, b, P1, data(7, 100));
        w.run_to_idle(100);
        let recv = &w.node::<Echo>(a).unwrap().received;
        assert_eq!(recv.len(), 1);
        let expect = SimDuration::from_micros(5) + Bandwidth::gbps(1).serialization_delay(wire_len);
        assert_eq!(recv[0].0, SimTime::ZERO + expect);
        assert_eq!(recv[0].1, 7);
    }

    #[test]
    fn serialization_queues_back_to_back_sends() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(true)));
        let sink = w.add_node(Box::new(Echo::new(false)));
        let params = LinkParams {
            latency: SimDuration::ZERO,
            bandwidth: Bandwidth::mbps(8), // 1 byte/µs.
            max_queue: SimDuration::from_secs(1),
            ecn_threshold: None,
        };
        w.wire(a, P1, sink, P1, params).unwrap();
        // Two packets arrive at a at t=0 and echo to sink; the second
        // must wait for the first's serialization.
        w.inject(SimTime::ZERO, a, P1, data(1, 100));
        w.inject(SimTime::ZERO, a, P1, data(2, 100));
        w.run_to_idle(100);
        let recv = &w.node::<Echo>(sink).unwrap().received;
        assert_eq!(recv.len(), 2);
        let ser = params
            .bandwidth
            .serialization_delay(data(1, 100).wire_len());
        assert_eq!(recv[0].0, SimTime::ZERO + ser);
        assert_eq!(recv[1].0, SimTime::ZERO + ser + ser);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(true)));
        let sink = w.add_node(Box::new(Echo::new(false)));
        let params = LinkParams {
            latency: SimDuration::ZERO,
            bandwidth: Bandwidth::mbps(8),
            max_queue: SimDuration::from_micros(100), // Fits <1 extra pkt.
            ecn_threshold: None,
        };
        w.wire(a, P1, sink, P1, params).unwrap();
        for i in 0..10 {
            w.inject(SimTime::ZERO, a, P1, data(i, 100));
        }
        w.run_to_idle(1000);
        let recv = &w.node::<Echo>(sink).unwrap().received;
        assert!(
            recv.len() < 10,
            "expected drops, all {} arrived",
            recv.len()
        );
        assert!(w.stats().drops_queue > 0);
    }

    #[test]
    fn down_wire_drops_and_notifies() {
        struct Watch {
            changes: Vec<(SimTime, bool)>,
        }
        impl Node for Watch {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: Packet) {}
            fn on_link_change(&mut self, ctx: &mut Ctx<'_>, _p: PortNo, up: bool) {
                self.changes.push((ctx.now(), up));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(true)));
        let b = w.add_node(Box::new(Watch { changes: vec![] }));
        let wid = w.wire(a, P1, b, P1, LinkParams::ten_gig()).unwrap();
        let t_fail = SimTime::ZERO + SimDuration::from_millis(1);
        w.schedule_link_state(t_fail, wid, false);
        // Packet sent after failure must be dropped.
        w.inject(t_fail + SimDuration::from_millis(1), a, P1, data(0, 50));
        w.run_to_idle(100);
        assert_eq!(w.stats().drops_down, 1);
        let watch = w.node::<Watch>(b).unwrap();
        assert_eq!(watch.changes, vec![(t_fail, false)]);
    }

    #[test]
    fn scheduled_loss_change_heals_wire() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(true)));
        let sink = w.add_node(Box::new(Echo::new(false)));
        let wid = w.wire(a, P1, sink, P1, LinkParams::ten_gig()).unwrap();
        w.set_loss(wid, 1.0);
        let heal = SimTime::ZERO + SimDuration::from_millis(1);
        w.schedule_loss(heal, wid, 0.0);
        // Echoed onto the wire pre-heal: eaten. Post-heal: delivered.
        w.inject(SimTime::ZERO, a, P1, data(1, 100));
        w.inject(heal + SimDuration::from_millis(1), a, P1, data(2, 100));
        w.run_to_idle(100);
        let recv = &w.node::<Echo>(sink).unwrap().received;
        assert_eq!(recv.len(), 1);
        assert_eq!(recv[0].1, 2);
        assert_eq!(w.stats().drops_loss, 1);
    }

    #[test]
    fn double_wire_rejected() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Echo::new(false)));
        let b = w.add_node(Box::new(Echo::new(false)));
        let c = w.add_node(Box::new(Echo::new(false)));
        w.wire(a, P1, b, P1, LinkParams::ten_gig()).unwrap();
        assert!(w.wire(a, P1, c, P1, LinkParams::ten_gig()).is_err());
    }

    #[test]
    fn a_reserved_port_table_is_sized_once_and_still_grows() {
        let mut w = World::new(0);
        let (a, b) = (
            w.add_node(Box::new(Echo::new(false))),
            w.add_node(Box::new(Echo::new(false))),
        );
        let (p2, p5) = (PortNo::new(2).unwrap(), PortNo::new(5).unwrap());
        w.reserve_ports(a, p2);
        let first = w.wire(a, p2, b, P1, LinkParams::ten_gig()).unwrap();
        let second = w.wire(a, P1, b, p2, LinkParams::ten_gig()).unwrap();
        // Slots 0..=2, exactly, in the one allocation the reserve made.
        assert_eq!(w.core.wiring.port_map[a.0].capacity(), 3);
        // A port past the reserved top grows the table.
        let third = w.wire(a, p5, b, p5, LinkParams::ten_gig()).unwrap();
        assert_eq!(w.wire_at(a, p2), Some(first));
        assert_eq!(w.wire_at(a, P1), Some(second));
        assert_eq!(w.wire_at(a, p5), Some(third));
        assert_eq!(w.wire_at(a, PortNo::new(4).unwrap()), None);
        assert_eq!(w.node_wires(a).collect::<Vec<_>>(), [second, first, third]);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            fired: Vec<(SimTime, u64)>,
        }
        impl Node for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_micros(30), 3);
                ctx.set_timer(SimDuration::from_micros(10), 1);
                ctx.set_timer(SimDuration::from_micros(20), 2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push((ctx.now(), token));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(0);
        let t = w.add_node(Box::new(Timed { fired: vec![] }));
        w.run_to_idle(100);
        let fired: Vec<u64> = w
            .node::<Timed>(t)
            .unwrap()
            .fired
            .iter()
            .map(|x| x.1)
            .collect();
        assert_eq!(fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut w = World::new(0);
        let _ = w.add_node(Box::new(Echo::new(false)));
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        w.run_until(t);
        assert_eq!(w.now(), t);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut w = World::new(42);
            let a = w.add_node(Box::new(Echo::new(true)));
            let b = w.add_node(Box::new(Echo::new(true)));
            let params = LinkParams {
                latency: SimDuration::from_micros(1),
                bandwidth: Bandwidth::gbps(1),
                max_queue: SimDuration::from_micros(3),
                ecn_threshold: None,
            };
            w.wire(a, P1, b, P1, params).unwrap();
            // Echo storm with queue drops: sensitive to ordering.
            for i in 0..5 {
                w.inject(SimTime::ZERO, a, P1, data(i, 500));
            }
            w.run_to_idle(10_000);
            (w.stats(), w.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wired_ports_and_link_up_visible_to_node() {
        struct Introspect {
            seen: Vec<PortNo>,
            up: bool,
        }
        impl Node for Introspect {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.for_each_wired_port(|_, port| self.seen.push(port));
                self.up = ctx.link_up(P1);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(0);
        let i = w.add_node(Box::new(Introspect {
            seen: vec![],
            up: false,
        }));
        let peer = w.add_node(Box::new(Echo::new(false)));
        let p3 = PortNo::new(3).unwrap();
        w.wire(i, P1, peer, P1, LinkParams::ten_gig()).unwrap();
        w.wire(i, p3, peer, p3, LinkParams::ten_gig()).unwrap();
        w.run_to_idle(10);
        let node = w.node::<Introspect>(i).unwrap();
        assert_eq!(node.seen, vec![P1, p3]);
        assert!(node.up);
    }
}
