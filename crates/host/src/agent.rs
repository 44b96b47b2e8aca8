//! The host agent simulation node.
//!
//! This is the software the paper installs on every server: the kernel
//! module analog (insert tags on egress, validate/strip ø on ingress),
//! the two-level path cache (TopoCache + PathTable), the failure-handling
//! participant (receive switch notifications, flood host-to-host, fail
//! over locally), the discovery-probe responder, and the measurement
//! hooks the experiments read back (RTTs, notification delays, delivery
//! counters).
//!
//! The routing decision is pluggable via [`RoutingFn`] — the hook the
//! flowlet-TE extension (§6.2) installs.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

use dumbnet_packet::control::{LinkEvent, LinkEventFilter, PatchEntry};
use dumbnet_packet::{ControlMessage, Packet, Payload};
use dumbnet_sim::{Ctx, Node};
use dumbnet_telemetry::{counter_block, Histogram, NodeKind};
use dumbnet_types::{
    heap, norm_edge, DumbNetError, HostId, MacAddr, Path, PortNo, Result, SimDuration, SimTime,
    SwitchId,
};

use crate::backlog::Backlog;
use crate::failure::{
    Effect, GrayDetectConfig, GrayDetector, PatchAcceptor, RequestRetry, CLEAR_THRESHOLD,
};
use crate::pathtable::{FlowKey, PathTable};
use crate::topocache::TopoCache;

/// The host's single NIC port.
pub const NIC: PortNo = match PortNo::new(1) {
    Some(p) => p,
    None => panic!("port 1 is valid"),
};

/// Pluggable routing decision: maps a packet's flow to one of the k
/// cached paths. Returning `None` keeps the default sticky flow binding.
///
/// `Send` because host agents live inside engine nodes, which may be
/// executed by shard worker threads.
pub trait RoutingFn: Send {
    /// Chooses a path index (modulo the number of cached paths) for this
    /// packet, or `None` for the sticky default.
    fn choose(
        &mut self,
        dst: MacAddr,
        flow: FlowKey,
        now: SimTime,
        available_paths: usize,
    ) -> Option<usize>;

    /// Congestion feedback (§8 ECN): the receiver echoed an ECN mark for
    /// `flow`. Default: ignore (the sticky router has no reaction).
    fn on_congestion(&mut self, _flow: FlowKey, _now: SimTime) {}

    /// The heap this routing function owns beyond its own box, counted
    /// by capacity (the agent adds the box). Default: none.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The paper's default: flows stick to their first randomly assigned
/// path.
#[derive(Debug, Default, Clone, Copy)]
pub struct StickyRouting;

impl RoutingFn for StickyRouting {
    fn choose(&mut self, _: MacAddr, _: FlowKey, _: SimTime, _: usize) -> Option<usize> {
        None
    }
}

/// A scheduled application action, configured before the run.
#[derive(Debug, Clone)]
pub enum AppAction {
    /// Send a series of pings to `dst`.
    PingSeries {
        /// First ping time.
        at: SimDuration,
        /// Destination host.
        dst: MacAddr,
        /// Number of pings.
        count: u32,
        /// Gap between pings.
        interval: SimDuration,
    },
    /// Send a stream of data packets to `dst`.
    DataStream {
        /// First packet time.
        at: SimDuration,
        /// Destination host.
        dst: MacAddr,
        /// Flow identifier.
        flow: u64,
        /// Number of packets.
        packets: u64,
        /// Bytes per packet.
        bytes: usize,
        /// Gap between packets.
        interval: SimDuration,
    },
}

/// How many paths the TopoCache extracts per destination (the `k` of
/// §5.2).
const K_PATHS: usize = 4;

/// Extra host-flood rounds per link event. Floods are ack-less, so
/// redundancy is the only defence against loss; receivers drop every
/// copy past the first ([`LinkEventFilter`]).
const FLOOD_REPEATS: u32 = 2;

/// Spacing between redundant flood rounds (PR 1).
const FLOOD_GAP: SimDuration = SimDuration::from_millis(1);

/// Host agent configuration.
#[derive(Debug, Clone, Default)]
pub struct HostAgentConfig {
    /// Extra delay applied to every transmission, modeling the host
    /// stack (see [`crate::datapath`]); zero by default.
    pub stack_delay: SimDuration,
    /// Gray-failure detection; `None` (the default) disables it.
    pub gray_detect: Option<GrayDetectConfig>,
    /// Scheduled application actions.
    pub actions: Vec<AppAction>,
}

impl HostAgentConfig {
    /// Rejects values the agent cannot run with: a zero probe interval
    /// re-arms the probe timer at the same instant forever, and a
    /// suspect threshold at or under `CLEAR_THRESHOLD` makes an edge
    /// suspect and exonerated at once.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let Some(gd) = &self.gray_detect else {
            return Ok(());
        };
        DumbNetError::config_rule(
            gd.probe_interval > SimDuration::ZERO,
            "gray_detect.probe_interval",
            "> 0",
        )?;
        DumbNetError::config_rule(gd.min_samples >= 1, "gray_detect.min_samples", ">= 1")?;
        DumbNetError::config_rule(
            gd.suspect_threshold > CLEAR_THRESHOLD && gd.suspect_threshold <= 1.0,
            "gray_detect.suspect_threshold",
            &format!("in ({CLEAR_THRESHOLD}, 1]"),
        )
    }
}

/// Measurement output the experiments read after a run.
///
/// Obtained from [`HostAgent::stats`]: the series fields (RTT samples,
/// arrival logs, per-flow maps) live in the agent, while the scalar
/// counters are the agent's counter block, registered under
/// `(NodeKind::Host, host id)` and copied into the returned view.
#[derive(Debug, Default, Clone)]
pub struct AgentStats {
    /// Data packets delivered to this host: `flow → (packets, bytes)`.
    pub delivered: HashMap<u64, (u64, u64)>,
    /// Completed RTT samples: `(seq, sent_at, rtt)`.
    pub rtts: Vec<(u64, SimTime, SimDuration)>,
    /// First arrival time of each distinct link event.
    pub notification_arrivals: Vec<(LinkEvent, SimTime)>,
    /// Arrival times of topology patches: `(version, time)`.
    pub patch_arrivals: Vec<(u64, SimTime)>,
    /// Path requests sent to the controller.
    pub path_requests: u64,
    /// Packets queued waiting for a controller reply.
    pub queued_on_miss: u64,
    /// Packets dropped on ingress (tags remained — misrouted).
    pub ingress_drops: u64,
    /// Host-flood messages sent.
    pub floods_sent: u64,
    /// Redundant (repeat-round) host-flood messages sent.
    pub floods_rebroadcast: u64,
    /// ECN-marked data packets received, per flow.
    pub ecn_marked: HashMap<u64, u64>,
    /// ECN echoes received back from receivers (sender side).
    pub ecn_echoes: u64,
    /// Switch statistics replies received: `(switch, per-port counters)`.
    pub stats_replies: Vec<(SwitchId, Vec<dumbnet_packet::control::PortStat>)>,
    /// Controller updates discarded because they carried a leadership
    /// term below the highest this host has seen (a fenced stale leader
    /// still flooding from its side of a partition).
    pub stale_ctrl_updates: u64,
    /// Topology patches discarded because their version/epoch was at or
    /// below the table version this host already holds (a redundant
    /// flood round or a jitter-reordered older patch arriving after a
    /// newer one — applying it would clobber the newer table).
    pub stale_patch_dropped: u64,
    /// Patch-batch epochs applied atomically by the coalescing writer.
    pub patch_batches_applied: u64,
    /// Path probes sent by the gray-failure detector.
    pub probes_sent: u64,
    /// Path probes that timed out (loss samples).
    pub probe_losses: u64,
    /// `LinkSuspect` evidence reports sent to the controller.
    pub link_suspects_sent: u64,
    /// Local gray failovers: edges this host quarantined on its own
    /// evidence, before any controller round-trip.
    pub gray_failovers: u64,
}

counter_block! {
    /// Live counters behind the scalar half of [`AgentStats`].
    struct AgentCounters => AgentStats {
        path_requests,
        queued_on_miss,
        ingress_drops,
        floods_sent,
        floods_rebroadcast,
        ecn_echoes,
        stale_ctrl_updates,
        stale_patch_dropped,
        patch_batches_applied,
        probes_sent,
        probe_losses,
        link_suspects_sent,
        gray_failovers,
    } + {
        /// Partially assembled multi-segment batches discarded because a
        /// newer epoch superseded them before completion.
        coalesce_aborted,
        /// Totals over [`AgentStats::delivered`], synced in
        /// `publish_telemetry` so workload aggregation can read snapshots.
        delivered_packets,
        delivered_bytes,
    }
}

/// The measurement series an agent records (its scalar counters live
/// in its counter block; [`HostAgent::stats`] joins both).
#[derive(Debug, Default)]
struct Series {
    delivered: HashMap<u64, (u64, u64)>,
    rtts: Vec<(u64, SimTime, SimDuration)>,
    notification_arrivals: Vec<(LinkEvent, SimTime)>,
    patch_arrivals: Vec<(u64, SimTime)>,
    ecn_marked: HashMap<u64, u64>,
    stats_replies: Vec<(SwitchId, Vec<dumbnet_packet::control::PortStat>)>,
}

/// Bounds of every agent's `rtt_ns` histogram: 1 µs first bucket,
/// doubling out to ~33 ms. Built once and shared.
static RTT_BOUNDS: LazyLock<Arc<[u64]>> = LazyLock::new(|| Histogram::doubling_bounds(1_024, 16));

/// Bounds of every agent's `patch_batch_entries` histogram.
static BATCH_BOUNDS: LazyLock<Arc<[u64]>> = LazyLock::new(|| Histogram::doubling_bounds(1, 8));

/// The host agent node.
pub struct HostAgent {
    id: HostId,
    mac: MacAddr,
    config: HostAgentConfig,
    routing: Box<dyn RoutingFn>,
    /// Two-level cache (§5.2).
    pub topocache: TopoCache,
    /// The PathTable.
    pub pathtable: PathTable,
    /// The path-request core: parked packets, requests in flight and
    /// the controllers to ask.
    requests: RequestRetry,
    next_ping_seq: u64,
    /// Duplicate and stale alarm suppression (for the longer-than-1s
    /// flapping the switch can't suppress).
    alarms: LinkEventFilter,
    /// Scheduled action progress (for repeating series).
    action_state: Vec<ActionProgress>,
    /// Link events still owed redundant flood rounds.
    flood_backlog: Vec<(LinkEvent, u32)>,
    /// Whether the flood-repeat timer is armed.
    flood_armed: bool,
    /// The coalescing writer's acceptance core; also owns the table
    /// version and the term fence leader hellos pass.
    pub patches: PatchAcceptor,
    /// The gray-failure core; absent when detection is off.
    pub gray: Option<Box<GrayDetector>>,
    /// The cores' effect buffer, reused across steps.
    effects: Vec<Effect>,
    /// Measurement series (scalar counters live in `counters`).
    series: Series,
    counters: Arc<AgentCounters>,
    /// Completed RTT samples, in nanoseconds ([`RTT_BOUNDS`]).
    rtt_ns: Histogram,
    /// Patch entries applied per coalesced epoch (batch-size visibility
    /// on the receive side).
    patch_batch_entries: Histogram,
}

#[derive(Debug, Clone, Copy)]
struct ActionProgress {
    remaining: u64,
}

impl HostAgent {
    /// Creates an agent with the default sticky routing function.
    #[must_use]
    pub fn new(id: HostId, config: HostAgentConfig) -> HostAgent {
        HostAgent::with_routing(id, config, Box::new(StickyRouting))
    }

    /// Creates an agent with a custom routing function (the §6 extension
    /// interface).
    #[must_use]
    pub fn with_routing(
        id: HostId,
        config: HostAgentConfig,
        routing: Box<dyn RoutingFn>,
    ) -> HostAgent {
        let action_state = config
            .actions
            .iter()
            .map(|a| ActionProgress {
                remaining: match a {
                    AppAction::PingSeries { count, .. } => u64::from(*count),
                    AppAction::DataStream { packets, .. } => *packets,
                },
            })
            .collect();
        let mac = MacAddr::for_host(id.get());
        let gray = config
            .gray_detect
            .map(|cfg| Box::new(GrayDetector::new(mac, cfg)));
        HostAgent {
            id,
            mac,
            routing,
            topocache: TopoCache::new(),
            pathtable: PathTable::new(),
            requests: RequestRetry::default(),
            next_ping_seq: 1,
            alarms: LinkEventFilter::default(),
            action_state,
            flood_backlog: Vec::new(),
            flood_armed: false,
            patches: PatchAcceptor::default(),
            gray,
            effects: Vec::new(),
            config,
            series: Series::default(),
            counters: Arc::default(),
            rtt_ns: Histogram::with_bounds(Arc::clone(&RTT_BOUNDS)),
            patch_batch_entries: Histogram::with_bounds(Arc::clone(&BATCH_BOUNDS)),
        }
    }

    /// Measurement output: the stored series plus the current counter
    /// values.
    #[must_use]
    pub fn stats(&self) -> AgentStats {
        let s = &self.series;
        let mut stats = AgentStats {
            delivered: s.delivered.clone(),
            rtts: s.rtts.clone(),
            notification_arrivals: s.notification_arrivals.clone(),
            patch_arrivals: s.patch_arrivals.clone(),
            ecn_marked: s.ecn_marked.clone(),
            stats_replies: s.stats_replies.clone(),
            ..AgentStats::default()
        };
        self.counters.fill(&mut stats);
        stats
    }

    /// The agent's MAC address.
    #[must_use]
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The agent's host ID.
    #[must_use]
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The controller this agent knows, if bootstrapped.
    #[must_use]
    pub fn controller(&self) -> Option<MacAddr> {
        self.requests.primary().map(|(mac, _)| *mac)
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.config.stack_delay == SimDuration::ZERO {
            ctx.send(NIC, pkt);
        } else {
            ctx.send_after(self.config.stack_delay, NIC, pkt);
        }
    }

    /// The PathTable lookup for `(dst, flow)`, with the routing
    /// function's preference among the cached paths.
    fn lookup(&mut self, now: SimTime, dst: MacAddr, flow: FlowKey) -> Option<Path> {
        let width = self.pathtable.entry(dst).map_or(0, |e| e.paths.len());
        let preferred = (width > 0).then(|| self.routing.choose(dst, flow, now, width));
        self.pathtable.lookup(dst, flow, preferred.flatten())
    }

    /// Re-installs `dst` from what the TopoCache still offers it with
    /// every held edge masked; when that leaves nothing, from the paths
    /// over live links alone — a degraded path beats a blackhole.
    fn reinstall(&mut self, dst: MacAddr) -> bool {
        let held = self.gray.as_ref().map(|g| g.held()).unwrap_or_default();
        let usable = |(paths, backup): &(Vec<_>, Option<_>)| !paths.is_empty() || backup.is_some();
        let masked =
            (!held.is_empty()).then(|| self.topocache.k_paths_avoiding(dst, K_PATHS, &held));
        let found = masked.flatten().filter(usable);
        let found = found.or_else(|| self.topocache.k_paths(dst, K_PATHS).filter(usable));
        let Some((paths, backup)) = found else {
            return false;
        };
        self.pathtable.install(dst, paths, backup);
        true
    }

    /// Re-installs every cached destination ([`HostAgent::reinstall`]).
    fn reinstall_all(&mut self) {
        for dst in self.pathtable.destinations() {
            self.reinstall(dst);
        }
    }

    /// Resolves a path for `(dst, flow)` through the two-level cache: the
    /// PathTable, on a miss whatever the TopoCache can install. `None`
    /// sends the caller to the controller.
    fn resolve_path(&mut self, ctx: &mut Ctx<'_>, dst: MacAddr, flow: FlowKey) -> Option<Path> {
        let now = ctx.now();
        if let Some(path) = self.lookup(now, dst, flow) {
            return Some(path);
        }
        if !self.reinstall(dst) {
            return None;
        }
        self.lookup(now, dst, flow)
    }

    /// Sends `pkt` (whose `path` is empty) to `pkt.dst`, resolving the
    /// path or queueing on the controller.
    fn send_routed(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet, flow: FlowKey) {
        if let Some(path) = self.resolve_path(ctx, pkt.dst, flow) {
            pkt.path = path;
            return self.transmit(ctx, pkt);
        }
        self.counters.queued_on_miss.inc();
        let now = ctx.now();
        self.step(ctx, |agent, out| agent.requests.on_miss(now, pkt, out));
    }

    /// Retry-sweep timer token (must not collide with action indices).
    const RETRY_TOKEN: u64 = u64::MAX;

    /// Releases what `dst`'s parked packets can now be routed over and
    /// parks the rest again (`true` if any).
    fn flush_pending(&mut self, ctx: &mut Ctx<'_>, dst: MacAddr) -> bool {
        let Some(mut backlog) = self.requests.take(dst) else {
            return false;
        };
        let src = self.mac;
        let mut still_blocked = Backlog::default();
        let mut released = 0u64;
        for (ix, mut pkt) in std::iter::from_fn(|| backlog.pop(dst, src)).enumerate() {
            let flow = match &pkt.payload {
                Payload::Data { flow, .. } | Payload::Ip { flow, .. } => FlowKey(*flow),
                Payload::Control(_) => FlowKey(ix as u64),
            };
            if let Some(path) = self.resolve_path(ctx, dst, flow) {
                pkt.path = path;
                // Pace the backlog (qdisc-style) so a large flush does
                // not overrun the NIC queue in one burst.
                let pace = SimDuration::from_micros(2).saturating_mul(released);
                released += 1;
                ctx.send_after(self.config.stack_delay + pace, NIC, pkt);
            } else {
                // Still no route (e.g. the destination's subtree is
                // partitioned): keep the packet and keep retrying.
                still_blocked.push(dst, src, pkt);
            }
        }
        self.step(ctx, |agent, out| {
            agent.requests.park(dst, still_blocked, out)
        })
    }

    /// Stage-1 failure handling on the host (§4.2).
    fn handle_link_event(&mut self, ctx: &mut Ctx<'_>, event: LinkEvent) {
        if !self.alarms.admit(event) {
            return; // Duplicate or stale alarm suppressed.
        }
        // Stamp the *software-visible* arrival: the packet still crosses
        // the host stack before the agent can act on it.
        self.series
            .notification_arrivals
            .push((event, ctx.now() + self.config.stack_delay));
        if let Some((a, b)) = self.topocache.edge_of_port(event.switch, event.port) {
            if event.up {
                // A recovered port: clear the down-marking so local
                // resolution can use the edge again.
                self.topocache.mark_up(a, b);
            } else {
                let now = ctx.now();
                self.step(ctx, |agent, out| agent.edge_down(now, a, b, out));
            }
        }
        self.broadcast_flood(ctx, event);
        // Floods are ack-less; schedule redundant rounds so a lossy
        // fabric still gets the word out. Receivers (and we) dedup
        // on the event's sequence epoch.
        self.flood_backlog.push((event, FLOOD_REPEATS));
        self.arm_flood(ctx);
    }

    /// One round of stage-1 flooding: controller first, then every peer
    /// we have a path to.
    fn broadcast_flood(&mut self, ctx: &mut Ctx<'_>, event: LinkEvent) {
        // Make sure the controller learns (stage 2 trigger): "the
        // controller will eventually learn about the failure during
        // the flooding".
        let from = self.mac;
        self.send_to_controller(ctx, ControlMessage::HostFlood { event, from });
        // Host-to-host flooding: tell every peer we have a path to.
        let peers = self.pathtable.destinations();
        for peer in peers.into_iter().filter(|&m| m != from) {
            if let Some(path) = self.pathtable.lookup(peer, FlowKey(event.seq), None) {
                self.counters.floods_sent.inc();
                let msg = ControlMessage::HostFlood { event, from };
                self.transmit(ctx, Packet::control(peer, from, path, msg));
            }
        }
    }

    /// Flood-repeat timer token (distinct from retry and action tokens).
    const FLOOD_TOKEN: u64 = u64::MAX - 1;

    fn arm_flood(&mut self, ctx: &mut Ctx<'_>) {
        if !self.flood_armed && !self.flood_backlog.is_empty() {
            self.flood_armed = true;
            ctx.set_timer(FLOOD_GAP, Self::FLOOD_TOKEN);
        }
    }

    /// Path-probe timer token (distinct from retry/flood/action tokens).
    const PROBE_TOKEN: u64 = u64::MAX - 2;

    /// What "the edge `a`–`b` went hard-down" means, whichever stage
    /// says so (an alarm, a host flood or a committed patch): the
    /// TopoCache stops offering it, cached paths over it die, link state
    /// supersedes gray suspicion, every cached destination is
    /// re-installed from what the filtered TopoCache still offers, and
    /// those left with nothing are re-asked of the controller. A change
    /// to the held set gets the same re-install.
    fn edge_down(&mut self, now: SimTime, a: SwitchId, b: SwitchId, out: &mut Vec<Effect>) {
        self.topocache.mark_down(a, b);
        let orphaned = self.pathtable.invalidate_edge(a, b);
        if let Some(gray) = &mut self.gray {
            gray.forget_edge(norm_edge(a, b));
        }
        self.reinstall_all();
        for dst in orphaned {
            self.requests.ask(now, dst, out);
        }
    }

    /// Steps a host core ([`PatchAcceptor`], [`GrayDetector`],
    /// [`RequestRetry`]) and applies the effects it emits, in emission
    /// order. This `match` is the only place their decisions meet a
    /// send, a timer, a counter or the two-level cache. Applying a patch
    /// re-asks for the destinations it orphans: those requests queue
    /// behind it.
    fn step<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        input: impl FnOnce(&mut HostAgent, &mut Vec<Effect>) -> R,
    ) -> R {
        let mut effects = std::mem::take(&mut self.effects);
        let result = input(self, &mut effects);
        let mut next = 0;
        while let Some(slot) = effects.get_mut(next) {
            next += 1; // Past the slot: the stand-in left there is never read.
            match std::mem::replace(slot, Effect::Stale) {
                Effect::Fenced => self.counters.stale_ctrl_updates.inc(),
                Effect::Stale => self.counters.stale_patch_dropped.inc(),
                Effect::Aborted => self.counters.coalesce_aborted.inc(),
                Effect::Apply { entries, .. } => {
                    self.patch_batch_entries.observe(entries.len() as u64);
                    for entry in entries {
                        self.apply_patch_entry(ctx.now(), entry, &mut effects);
                    }
                    self.counters.patch_batches_applied.inc();
                }
                Effect::ProbeLost => self.counters.probe_losses.inc(),
                Effect::Failover(_) => {
                    self.counters.gray_failovers.inc();
                    self.reinstall_all();
                }
                Effect::Settle(_) => self.reinstall_all(),
                Effect::Report(evidence) => {
                    self.counters.link_suspects_sent.inc();
                    self.send_to_controller(ctx, evidence);
                }
                Effect::Probe(hops, probe_id) => {
                    let (origin, walk) = (self.mac, self.topocache.bounce(&hops));
                    if let Some(walk) = walk {
                        self.counters.probes_sent.inc();
                        let msg = ControlMessage::PathProbe { origin, probe_id };
                        self.transmit(ctx, Packet::control(origin, origin, walk, msg));
                    }
                }
                Effect::Arm(after) => ctx.set_timer(after, Self::PROBE_TOKEN),
                Effect::Request((ctrl_mac, ctrl_path), dst, request_id) => {
                    self.counters.path_requests.inc();
                    let src = self.mac;
                    let msg = ControlMessage::PathRequest {
                        src,
                        dst,
                        request_id,
                    };
                    self.transmit(ctx, Packet::control(ctrl_mac, src, ctrl_path, msg));
                }
                Effect::Retry(after) => ctx.set_timer(after, Self::RETRY_TOKEN),
            }
        }
        effects.clear();
        self.effects = effects;
        result
    }

    /// Applies one entry of an accepted epoch to the two-level cache.
    fn apply_patch_entry(&mut self, now: SimTime, entry: PatchEntry, out: &mut Vec<Effect>) {
        // Stamp the *software-visible* arrival of each version the batch
        // carried us through (the fig11 stage-2 series).
        let seen = now + self.config.stack_delay;
        self.series.patch_arrivals.push((entry.version, seen));
        for (a, b) in entry.delta.down {
            self.edge_down(now, a, b, out);
        }
        for (pa, pb) in entry.delta.up {
            self.topocache.mark_up(pa.switch, pb.switch);
        }
        let Some(gray) = &mut self.gray else {
            return; // Quarantine is soft state only a detector ages out.
        };
        let soft = entry.delta.quarantine.into_iter().map(|e| (e, true));
        let soft = soft.chain(entry.delta.unquarantine.into_iter().map(|e| (e, false)));
        for ((a, b), quarantined) in soft {
            gray.on_verdict(now, norm_edge(a, b), quarantined);
        }
        self.reinstall_all();
    }

    /// Sends `msg` to the primary controller, if one is known.
    fn send_to_controller(&mut self, ctx: &mut Ctx<'_>, msg: ControlMessage) {
        if let Some((ctrl_mac, ctrl_path)) = self.requests.primary().cloned() {
            let pkt = Packet::control(ctrl_mac, self.mac, ctrl_path, msg);
            self.transmit(ctx, pkt);
        }
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: MacAddr,
        msg: ControlMessage,
        remaining: Path,
    ) {
        match msg {
            ControlMessage::Probe {
                origin,
                forward_path,
                probe_id,
            } => {
                // Reply along the remaining tags of the probe (§4.1): for
                // host-directed probes the prober appends its return path
                // after the hop that reaches us.
                let reply = ControlMessage::ProbeReply {
                    responder: self.mac,
                    is_controller: false,
                    probe_id,
                    forward_path,
                };
                let pkt = Packet::control(origin, self.mac, remaining, reply);
                self.transmit(ctx, pkt);
            }
            ControlMessage::PathReply {
                request_id, graph, ..
            } => {
                let Some(dst) = self.requests.on_reply(request_id) else {
                    return;
                };
                if let Some(graph) = graph {
                    self.topocache.integrate(dst, *graph, 0);
                    self.reinstall(dst);
                }
                self.flush_pending(ctx, dst);
            }
            // A gray probe back from its closed walk.
            ControlMessage::PathProbe { origin, probe_id } if origin == self.mac => {
                if let Some(gray) = &mut self.gray {
                    gray.on_reply(probe_id);
                }
            }
            ControlMessage::LinkNotification { event, .. }
            | ControlMessage::HostFlood { event, .. } => {
                self.handle_link_event(ctx, event);
            }
            ControlMessage::TopologyPatchBatch(batch) => {
                self.step(ctx, |agent, out| agent.patches.on_batch(batch, out));
            }
            ControlMessage::ControllerHello {
                controller,
                path_to_controller,
                standby,
                term,
                ..
            } => {
                let now = ctx.now();
                self.step(ctx, |agent, out| {
                    if !standby && !agent.patches.admit_term(term, out) {
                        return; // Leadership claim from a fenced stale leader.
                    }
                    let hello = (controller, path_to_controller);
                    agent.requests.on_hello(now, hello, !standby, out);
                });
            }
            ControlMessage::Ping { seq, sent_at } => {
                let echo_sent_at = sent_at;
                let reply = ControlMessage::Pong { seq, echo_sent_at };
                let reply = Packet::control(src, self.mac, Path::empty(), reply);
                self.send_routed(ctx, reply, FlowKey(seq ^ 0xFFFF_0000));
            }
            ControlMessage::Pong { seq, echo_sent_at } => {
                let rtt = (ctx.now() - echo_sent_at) + self.config.stack_delay;
                self.rtt_ns.observe(rtt.nanos());
                self.series.rtts.push((seq, echo_sent_at, rtt));
            }
            ControlMessage::EcnEcho { flow } => {
                self.counters.ecn_echoes.inc();
                self.routing.on_congestion(FlowKey(flow), ctx.now());
            }
            ControlMessage::StatsReply { switch, ports, .. } => {
                self.series.stats_replies.push((switch, ports));
            }
            // Messages only controllers or switches consume, and a gray
            // probe some other host walked (it cannot end here).
            ControlMessage::StatsQuery { .. }
            | ControlMessage::PathProbe { .. }
            | ControlMessage::ProbeReply { .. }
            | ControlMessage::SwitchIdReply { .. }
            | ControlMessage::PathRequest { .. }
            | ControlMessage::LinkSuspect { .. }
            | ControlMessage::ReplAppend { .. }
            | ControlMessage::ReplAck { .. }
            | ControlMessage::ReplSyncRequest { .. }
            | ControlMessage::LeaderQuery { .. }
            | ControlMessage::LeaderQueryReply { .. }
            | ControlMessage::Bpdu { .. } => {}
        }
    }

    fn run_action(&mut self, ctx: &mut Ctx<'_>, ix: usize) {
        if self.action_state[ix].remaining == 0 {
            return;
        }
        self.action_state[ix].remaining -= 1;
        let remaining = self.action_state[ix].remaining;
        let (pkt, flow, interval) = match self.config.actions[ix] {
            AppAction::PingSeries { dst, interval, .. } => {
                let (seq, sent_at) = (self.next_ping_seq, ctx.now());
                self.next_ping_seq += 1;
                let ping = ControlMessage::Ping { seq, sent_at };
                let pkt = Packet::control(dst, self.mac, Path::empty(), ping);
                (pkt, 0x5049_4E47, interval) // "PING"
            }
            AppAction::DataStream {
                dst,
                flow,
                bytes,
                interval,
                ..
            } => {
                let pkt = Packet::data(dst, self.mac, Path::empty(), flow, remaining, bytes);
                (pkt, flow, interval)
            }
        };
        self.send_routed(ctx, pkt, FlowKey(flow));
        if remaining > 0 {
            ctx.set_timer(interval, ix as u64);
        }
    }
}

impl Node for HostAgent {
    fn heap_owner(&self) -> &'static str {
        "hosts"
    }

    fn heap_bytes(&self) -> usize {
        let s = &self.series;
        let replies: usize = s.stats_replies.iter().map(|(_, p)| heap::vec(p)).sum();
        heap::vec(&self.config.actions)
            + std::mem::size_of_val(&*self.routing)
            + self.routing.heap_bytes()
            + self.topocache.heap_bytes()
            + self.pathtable.heap_bytes()
            + self.requests.heap_bytes()
            + self.alarms.heap_bytes()
            + heap::vec(&self.action_state)
            + heap::vec(&self.flood_backlog)
            + self.patches.heap_bytes()
            + self
                .gray
                .as_ref()
                .map_or(0, |g| std::mem::size_of::<GrayDetector>() + g.heap_bytes())
            + heap::vec(&self.effects)
            + heap::hash_map(&s.delivered)
            + heap::vec(&s.rtts)
            + heap::vec(&s.notification_arrivals)
            + heap::vec(&s.patch_arrivals)
            + heap::hash_map(&s.ecn_marked)
            + heap::vec(&s.stats_replies)
            + replies
            + heap::arc::<AgentCounters>()
            + self.rtt_ns.heap_bytes()
            + self.patch_batch_entries.heap_bytes()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let (telemetry, node) = (ctx.telemetry(), self.id.get());
        telemetry.register_block(NodeKind::Host, node, self.counters.clone());
        telemetry.register_histogram(NodeKind::Host, node, "rtt_ns", &self.rtt_ns);
        telemetry.register_histogram(
            NodeKind::Host,
            node,
            "patch_batch_entries",
            &self.patch_batch_entries,
        );
        for (ix, action) in self.config.actions.iter().enumerate() {
            let at = match action {
                AppAction::PingSeries { at, .. } | AppAction::DataStream { at, .. } => *at,
            };
            ctx.set_timer(at, ix as u64);
        }
        if let Some(cfg) = &self.config.gray_detect {
            ctx.set_timer(cfg.probe_interval, Self::PROBE_TOKEN);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _in_port: PortNo, pkt: Packet) {
        // The kernel-module ingress check (§5.1): a unicast packet must
        // arrive with its path fully consumed; otherwise it was misrouted
        // and is dropped. Broadcast notifications are exempt (they carry
        // no path by construction).
        let is_broadcast = pkt.dst == MacAddr::BROADCAST;
        if !is_broadcast && !pkt.path.is_empty() {
            // Probes are the deliberate exception: their remaining tags
            // *are* the reply path (§4.1).
            if !matches!(pkt.payload, Payload::Control(ControlMessage::Probe { .. })) {
                self.counters.ingress_drops.inc();
                return;
            }
        }
        let pkt_ecn = pkt.ecn;
        let src_mac = pkt.src;
        match pkt.payload {
            Payload::Control(msg) => {
                let remaining = pkt.path;
                self.handle_control(ctx, pkt.src, msg, remaining);
            }
            Payload::Data { flow, bytes, .. } | Payload::Ip { flow, bytes, .. } => {
                let entry = self.series.delivered.entry(flow).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += bytes as u64;
                if pkt_ecn {
                    // Echo the congestion mark to the sender (§8): it can
                    // then move the flow at the next flowlet boundary.
                    *self.series.ecn_marked.entry(flow).or_insert(0) += 1;
                    let echo = ControlMessage::EcnEcho { flow };
                    let echo = Packet::control(src_mac, self.mac, Path::empty(), echo);
                    self.send_routed(ctx, echo, FlowKey(flow ^ 0xECE0_0000));
                }
            }
        }
    }

    fn publish_telemetry(&mut self) {
        let (pkts, bytes) = self
            .series
            .delivered
            .values()
            .fold((0u64, 0u64), |(p, b), &(dp, db)| (p + dp, b + db));
        self.counters.delivered_packets.set(pkts);
        self.counters.delivered_bytes.set(bytes);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == Self::FLOOD_TOKEN {
            self.flood_armed = false;
            let mut backlog = std::mem::take(&mut self.flood_backlog);
            for (event, remaining) in &mut backlog {
                self.counters.floods_rebroadcast.inc();
                self.broadcast_flood(ctx, *event);
                *remaining -= 1;
            }
            backlog.retain(|&(_, remaining)| remaining > 0);
            self.flood_backlog = backlog;
            self.arm_flood(ctx);
            return;
        }
        if token == Self::PROBE_TOKEN {
            let now = ctx.now();
            return self.step(ctx, |agent, out| {
                let dsts = agent.pathtable.destinations().into_iter();
                let entries = dsts
                    .filter(|&d| d != agent.mac)
                    .filter_map(|d| agent.pathtable.entry(d));
                let paths = entries.flat_map(|e| &e.paths);
                let walks = paths.map(|p| p.route.switches().to_vec()).collect();
                let can_report = agent.requests.primary().is_some();
                if let Some(gray) = &mut agent.gray {
                    gray.on_tick(now, walks, can_report, out);
                }
            });
        }
        if token == Self::RETRY_TOKEN {
            let now = ctx.now();
            for dst in self.requests.on_sweep() {
                // Re-resolve locally first (a topology patch may have
                // revived cached paths); re-ask for what stays parked.
                if self.flush_pending(ctx, dst) {
                    self.step(ctx, |agent, out| agent.requests.ask(now, dst, out));
                }
            }
            return;
        }
        let ix = token as usize;
        if ix < self.config.actions.len() {
            self.run_action(ctx, ix);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_topology::{generators, pathgraph, PathGraphParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agent_resolves_from_topocache_on_pathtable_miss() {
        // Build the agent's caches directly (no sim) and exercise the
        // resolve logic through PathTable/TopoCache.
        let g = generators::testbed();
        let mut rng = StdRng::seed_from_u64(1);
        let pg = pathgraph::build(
            &g.topology,
            HostId(0),
            HostId(26),
            &PathGraphParams::default(),
            &mut rng,
        )
        .unwrap();
        let dst = g.topology.host(HostId(26)).unwrap().mac;
        let mut agent = HostAgent::new(HostId(0), HostAgentConfig::default());
        agent.topocache.integrate(dst, pg, 1);
        // k_paths extraction works standalone.
        let (paths, _backup) = agent.topocache.k_paths(dst, 4).unwrap();
        assert!(!paths.is_empty());
        agent.pathtable.install(dst, paths, None);
        assert!(agent.pathtable.lookup(dst, FlowKey(1), None).is_some());
    }

    // Full end-to-end agent behaviour (path requests, failover, pings)
    // is exercised in the dumbnet-core integration tests where a whole
    // fabric exists; unit tests here cover the cache plumbing.
}
