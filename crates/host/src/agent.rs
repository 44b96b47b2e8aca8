//! The host agent simulation node.
//!
//! This is the software the paper installs on every server: the kernel
//! module analog (insert tags on egress, validate/strip ø on ingress),
//! the two-level path cache (TopoCache + PathTable), the failure-handling
//! participant (receive switch notifications, flood host-to-host, fail
//! over locally), the probe responder, and the measurement hooks the
//! experiments read back (RTTs, notification delays, delivery counters).
//!
//! The routing decision is pluggable via [`RoutingFn`] — the hook the
//! flowlet-TE extension (§6.2) installs.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use dumbnet_packet::control::{LinkEvent, PatchBatch, PatchEntry};
use dumbnet_packet::{ControlMessage, Packet, Payload};
use dumbnet_sim::{Ctx, Node};
use dumbnet_telemetry::{counter_block, Histogram, NodeKind};
use dumbnet_types::{
    norm_edge, DumbNetError, FastHashMap, FastHashSet, HostId, MacAddr, Path, PortNo, Result,
    SimDuration, SimTime, SwitchId,
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

/// A probe unanswered for this long counts as a loss sample (PR 8;
/// under the default 5 ms round so each sweep judges the round before).
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(4);

/// EWMA smoothing factor for per-path loss (sample weight; PR 8).
const EWMA_ALPHA: f64 = 0.4;

/// EWMA loss at or below this exonerates a locally quarantined edge
/// (hysteresis gap: clear < suspect, so health must really recover
/// before the edge is forgiven; PR 8).
const CLEAR_THRESHOLD: f64 = 0.05;

/// Minimum gap between successive [`ControlMessage::LinkSuspect`]
/// reports for the same edge (evidence refresh rate; PR 8).
const REPORT_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Controller-flooded quarantine entries not re-asserted within this
/// window expire locally. Quarantine is soft state: patch floods are
/// at-most-once and hosts skip missed epochs, so an unquarantine delta
/// can be lost forever — the leader re-asserts the live set
/// periodically and silence means release (PR 8; four of the
/// controller's refresh rounds).
const CTRL_QUARANTINE_TTL: SimDuration = SimDuration::from_millis(250);

/// Gray-failure detection knobs (DESIGN.md §10). `None` in
/// [`HostAgentConfig::gray_detect`] disables the whole machinery — no
/// probes, no health state, no timers — so legacy runs stay
/// byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct GrayDetectConfig {
    /// Gap between path-probe rounds (every round probes every cached
    /// path of every destination, and sweeps the previous round's
    /// timeouts).
    pub probe_interval: SimDuration,
    /// EWMA loss at or above this suspects the path's distinct edges.
    pub suspect_threshold: f64,
    /// Minimum samples before the EWMA is trusted either way.
    pub min_samples: u32,
}

impl Default for GrayDetectConfig {
    fn default() -> GrayDetectConfig {
        GrayDetectConfig {
            probe_interval: SimDuration::from_millis(5),
            suspect_threshold: 0.3,
            min_samples: 4,
        }
    }
}

/// How many paths the TopoCache extracts per destination (the `k` of
/// §5.2).
const K_PATHS: usize = 4;

/// How long to wait for a PathReply before re-asking the controller
/// (replies can be lost during partitions; seed value).
const PATH_REQUEST_RETRY: SimDuration = SimDuration::from_millis(50);

/// Extra host-flood rounds per link event. Floods are ack-less, so
/// redundancy is the only defence against loss; receivers dedup on the
/// event's `(switch, port, up, seq)` epoch (PR 1).
const FLOOD_REPEATS: u32 = 2;

/// Spacing between redundant flood rounds (PR 1).
const FLOOD_GAP: SimDuration = SimDuration::from_millis(1);

/// Host agent configuration.
#[derive(Debug, Clone)]
pub struct HostAgentConfig {
    /// Extra delay applied to every transmission, modeling the host
    /// stack (see [`crate::datapath`]).
    pub stack_delay: SimDuration,
    /// Gray-failure detection; `None` (the default) disables it.
    pub gray_detect: Option<GrayDetectConfig>,
    /// Scheduled application actions.
    pub actions: Vec<AppAction>,
}

impl Default for HostAgentConfig {
    fn default() -> HostAgentConfig {
        HostAgentConfig {
            stack_delay: SimDuration::ZERO,
            gray_detect: None,
            actions: Vec::new(),
        }
    }
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
    controller: Option<(MacAddr, Path)>,
    /// Highest leadership term heard from any controller. Updates
    /// stamped with a lower term are from a fenced stale leader and are
    /// discarded (counted in [`AgentStats::stale_ctrl_updates`]).
    leader_term: u64,
    /// All live controllers (primary + standbys) for query spreading.
    controller_group: Vec<(MacAddr, Path)>,
    next_controller: usize,
    /// Packets waiting for a PathReply, keyed by destination.
    pending: FastHashMap<MacAddr, VecDeque<Packet>>,
    /// Outstanding path requests: request id → (destination, sent time).
    outstanding: FastHashMap<u64, (MacAddr, SimTime)>,
    next_request_id: u64,
    next_ping_seq: u64,
    /// Link events already processed (duplicate suppression for the
    /// longer-than-1s flapping the switch can't suppress).
    seen_events: FastHashSet<(SwitchId, PortNo, bool, u64)>,
    /// Scheduled action progress (for repeating series).
    action_state: Vec<ActionProgress>,
    /// Whether the pending-queue retry sweep is armed.
    retry_armed: bool,
    /// Link events still owed redundant flood rounds.
    flood_backlog: Vec<(LinkEvent, u32)>,
    /// Whether the flood-repeat timer is armed.
    flood_armed: bool,
    /// Multi-segment patch batch under assembly by the coalescing
    /// writer. Only the newest epoch is kept; entries apply atomically
    /// once every segment has arrived.
    patch_assembly: Option<PatchAssembly>,
    /// Gray detector: per-(destination, path index) loss EWMA.
    path_health: HashMap<(MacAddr, usize), PathHealth>,
    /// Outstanding path probes: probe id → (destination, path index,
    /// sent time).
    outstanding_probes: HashMap<u64, (MacAddr, usize, SimTime)>,
    next_probe_id: u64,
    /// Edges this host quarantined on its own evidence (local fast
    /// reroute, before — or without — controller confirmation).
    local_suspects: BTreeSet<(SwitchId, SwitchId)>,
    /// Edges the controller has flooded as quarantined, by the time
    /// the quarantine was last (re-)asserted; the host keeps probing
    /// them and reports health so probation can clear them, and
    /// expires entries the leader stops refreshing.
    ctrl_quarantined: BTreeMap<(SwitchId, SwitchId), SimTime>,
    /// Last `LinkSuspect` report time per edge (rate limiting).
    last_report: BTreeMap<(SwitchId, SwitchId), SimTime>,
    next_suspect_seq: u64,
    /// Measurement series (scalar counters live in `counters`).
    stats: AgentStats,
    counters: Arc<AgentCounters>,
    /// Completed RTT samples, in nanoseconds (1 µs first bucket,
    /// doubling out to ~33 ms).
    rtt_ns: Histogram,
    /// Patch entries applied per coalesced epoch (batch-size visibility
    /// on the receive side).
    patch_batch_entries: Histogram,
}

#[derive(Debug, Clone, Copy)]
struct ActionProgress {
    remaining: u64,
}

/// Per-path loss EWMA the gray detector maintains from probe outcomes.
#[derive(Debug, Clone, Copy, Default)]
struct PathHealth {
    ewma_loss: f64,
    samples: u32,
}

/// Segments of one multi-frame [`PatchBatch`] epoch, buffered until the
/// set is complete so the table never reflects half a batch.
#[derive(Debug, Clone)]
struct PatchAssembly {
    epoch: u64,
    term: u64,
    /// Per-segment entry lists, indexed by segment number.
    parts: Vec<Option<Vec<PatchEntry>>>,
    /// Segments received so far.
    got: usize,
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
        HostAgent {
            id,
            mac: MacAddr::for_host(id.get()),
            config,
            routing,
            topocache: TopoCache::new(),
            pathtable: PathTable::new(),
            controller: None,
            leader_term: 0,
            controller_group: Vec::new(),
            next_controller: 0,
            pending: FastHashMap::default(),
            outstanding: FastHashMap::default(),
            next_request_id: 1,
            next_ping_seq: 1,
            seen_events: FastHashSet::default(),
            action_state,
            retry_armed: false,
            flood_backlog: Vec::new(),
            flood_armed: false,
            patch_assembly: None,
            path_health: HashMap::new(),
            outstanding_probes: HashMap::new(),
            next_probe_id: 1,
            local_suspects: BTreeSet::new(),
            ctrl_quarantined: BTreeMap::new(),
            last_report: BTreeMap::new(),
            next_suspect_seq: 1,
            stats: AgentStats::default(),
            counters: Arc::default(),
            rtt_ns: Histogram::doubling(1_024, 16),
            patch_batch_entries: Histogram::doubling(1, 8),
        }
    }

    /// Measurement output: the stored series plus the current counter
    /// values.
    #[must_use]
    pub fn stats(&self) -> AgentStats {
        let mut stats = self.stats.clone();
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
        self.controller.as_ref().map(|(mac, _)| *mac)
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.config.stack_delay == SimDuration::ZERO {
            ctx.send(NIC, pkt);
        } else {
            ctx.send_after(self.config.stack_delay, NIC, pkt);
        }
    }

    /// Resolves a path for `(dst, flow)` through the two-level cache,
    /// falling back to a controller query. Returns `None` if the packet
    /// had to be queued (or dropped for lack of a controller).
    fn resolve_path(&mut self, ctx: &mut Ctx<'_>, dst: MacAddr, flow: FlowKey) -> Option<Path> {
        let width = self.pathtable.entry(dst).map_or(0, |e| e.paths.len());
        let preferred = if width > 0 {
            self.routing.choose(dst, flow, ctx.now(), width)
        } else {
            None
        };
        if let Some(path) = self.pathtable.lookup(dst, flow, preferred) {
            return Some(path);
        }
        // PathTable miss: consult the TopoCache.
        if let Some((paths, backup)) = self.topocache.k_paths(dst, K_PATHS) {
            if !paths.is_empty() || backup.is_some() {
                self.pathtable.install(dst, paths, backup);
                let width = self.pathtable.entry(dst).map_or(0, |e| e.paths.len());
                let preferred = if width > 0 {
                    self.routing.choose(dst, flow, ctx.now(), width)
                } else {
                    None
                };
                return self.pathtable.lookup(dst, flow, preferred);
            }
        }
        None
    }

    /// Sends `pkt` (whose `path` is empty) to `pkt.dst`, resolving the
    /// path or queueing on the controller.
    fn send_routed(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet, flow: FlowKey) {
        let dst = pkt.dst;
        if let Some(path) = self.resolve_path(ctx, dst, flow) {
            pkt.path = path;
            self.transmit(ctx, pkt);
            return;
        }
        // Queue and ask the controller.
        self.counters.queued_on_miss.inc();
        self.pending.entry(dst).or_default().push_back(pkt);
        self.request_path(ctx, dst);
        self.arm_retry(ctx);
    }

    fn request_path(&mut self, ctx: &mut Ctx<'_>, dst: MacAddr) {
        // One outstanding request per destination — but retry requests
        // whose replies are overdue (lost during failures).
        let now = ctx.now();
        let mut fresh_exists = false;
        self.outstanding.retain(|_, &mut (d, at)| {
            if d != dst {
                return true;
            }
            if now - at < PATH_REQUEST_RETRY {
                fresh_exists = true;
                true
            } else {
                false // Stale: drop so a new request goes out.
            }
        });
        if fresh_exists {
            return;
        }
        // Round-robin new queries over the controller group (§4's
        // multi-controller query scaling); fall back to the primary.
        let target = if self.controller_group.is_empty() {
            self.controller.clone()
        } else {
            let ix = self.next_controller % self.controller_group.len();
            self.next_controller = self.next_controller.wrapping_add(1);
            Some(self.controller_group[ix].clone())
        };
        let Some((ctrl_mac, ctrl_path)) = target else {
            return;
        };
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        self.outstanding.insert(request_id, (dst, now));
        self.counters.path_requests.inc();
        let msg = ControlMessage::PathRequest {
            src: self.mac,
            dst,
            request_id,
        };
        let pkt = Packet::control(ctrl_mac, self.mac, ctrl_path, msg);
        self.transmit(ctx, pkt);
    }

    /// Retry-sweep timer token (must not collide with action indices).
    const RETRY_TOKEN: u64 = u64::MAX;

    fn arm_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.retry_armed && !self.pending.is_empty() {
            self.retry_armed = true;
            ctx.set_timer(PATH_REQUEST_RETRY, Self::RETRY_TOKEN);
        }
    }

    fn flush_pending(&mut self, ctx: &mut Ctx<'_>, dst: MacAddr) {
        let Some(queue) = self.pending.remove(&dst) else {
            return;
        };
        let mut still_blocked = VecDeque::new();
        let mut released = 0u64;
        for (ix, mut pkt) in queue.into_iter().enumerate() {
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
                still_blocked.push_back(pkt);
            }
        }
        if !still_blocked.is_empty() {
            self.pending.insert(dst, still_blocked);
            self.arm_retry(ctx);
        }
    }

    /// Stage-1 failure handling on the host (§4.2).
    fn handle_link_event(&mut self, ctx: &mut Ctx<'_>, event: LinkEvent) {
        if !self
            .seen_events
            .insert((event.switch, event.port, event.up, event.seq))
        {
            return; // Duplicate alarm suppressed.
        }
        // Stamp the *software-visible* arrival: the packet still crosses
        // the host stack before the agent can act on it.
        self.stats
            .notification_arrivals
            .push((event, ctx.now() + self.config.stack_delay));
        if let Some((a, b)) = self.topocache.edge_of_port(event.switch, event.port) {
            if event.up {
                // A recovered port: clear the down-marking so local
                // resolution can use the edge again.
                self.topocache.mark_up(a, b);
            } else {
                self.topocache.mark_down(a, b);
                let orphaned = self.pathtable.invalidate_edge(a, b);
                self.forget_gray_edge(a, b);
                // Re-install surviving paths for destinations whose cache
                // shrank, from the (now filtered) TopoCache.
                for dst in self.pathtable.destinations() {
                    if let Some((paths, backup)) = self.topocache.k_paths(dst, K_PATHS) {
                        if !paths.is_empty() || backup.is_some() {
                            self.pathtable.install(dst, paths, backup);
                            self.drop_health(dst);
                        }
                    }
                }
                for dst in orphaned {
                    self.request_path(ctx, dst);
                }
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
        if let Some((ctrl_mac, ctrl_path)) = self.controller.clone() {
            let pkt = Packet::control(
                ctrl_mac,
                self.mac,
                ctrl_path,
                ControlMessage::HostFlood {
                    event,
                    from: self.mac,
                },
            );
            self.transmit(ctx, pkt);
        }
        // Host-to-host flooding: tell every peer we have a path to.
        let peers: Vec<MacAddr> = self
            .pathtable
            .destinations()
            .into_iter()
            .filter(|&m| m != self.mac)
            .collect();
        for peer in peers {
            if let Some(path) = self.pathtable.lookup(peer, FlowKey(event.seq), None) {
                self.counters.floods_sent.inc();
                let pkt = Packet::control(
                    peer,
                    self.mac,
                    path,
                    ControlMessage::HostFlood {
                        event,
                        from: self.mac,
                    },
                );
                self.transmit(ctx, pkt);
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

    /// Folds one probe outcome into the per-path loss EWMA.
    fn health_sample(&mut self, dst: MacAddr, ix: usize, lost: bool) {
        let h = self.path_health.entry((dst, ix)).or_default();
        let sample = if lost { 1.0 } else { 0.0 };
        h.ewma_loss = if h.samples == 0 {
            sample
        } else {
            h.ewma_loss * (1.0 - EWMA_ALPHA) + sample * EWMA_ALPHA
        };
        h.samples = h.samples.saturating_add(1);
    }

    /// Drops gray-health state for `dst`: the path set (and hence the
    /// index keying) just changed, so old samples would misattribute.
    fn drop_health(&mut self, dst: MacAddr) {
        if self.config.gray_detect.is_none() {
            return;
        }
        self.path_health.retain(|&(d, _), _| d != dst);
        self.outstanding_probes.retain(|_, &mut (d, _, _)| d != dst);
    }

    /// Hard link state supersedes gray suspicion for the edge.
    fn forget_gray_edge(&mut self, a: SwitchId, b: SwitchId) {
        let edge = norm_edge(a, b);
        self.local_suspects.remove(&edge);
        self.ctrl_quarantined.remove(&edge);
        self.last_report.remove(&edge);
    }

    /// One gray-detector round: sweep the previous round's timeouts into
    /// loss samples, evaluate suspicion (failing over and reporting as
    /// needed), then launch a fresh probe along every cached primary
    /// path.
    fn probe_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cfg) = self.config.gray_detect else {
            return;
        };
        let now = ctx.now();
        // Expire controller quarantine the leader stopped refreshing
        // (the release flood may have been lost; silence means pardon).
        let lapsed: Vec<(SwitchId, SwitchId)> = self
            .ctrl_quarantined
            .iter()
            .filter(|&(_, &at)| now - at > CTRL_QUARANTINE_TTL)
            .map(|(&edge, _)| edge)
            .collect();
        for edge in lapsed {
            self.ctrl_quarantined.remove(&edge);
            if !self.local_suspects.contains(&edge) {
                self.pathtable.restore_edge(edge.0, edge.1);
            }
        }
        let mut expired: Vec<u64> = self
            .outstanding_probes
            .iter()
            .filter(|&(_, &(_, _, at))| now - at >= PROBE_TIMEOUT)
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable(); // Hash order must not leak into sends.
        for id in expired {
            let (dst, ix, _) = self
                .outstanding_probes
                .remove(&id)
                .expect("expired probe id");
            self.counters.probe_losses.inc();
            self.health_sample(dst, ix, true);
        }
        self.evaluate_suspicion(ctx, cfg);
        let mut round: Vec<(MacAddr, usize, Path)> = Vec::new();
        for dst in self.pathtable.destinations() {
            if dst == self.mac {
                continue;
            }
            if let Some(entry) = self.pathtable.entry(dst) {
                for (ix, p) in entry.paths.iter().enumerate() {
                    round.push((dst, ix, p.tags.clone()));
                }
            }
        }
        for (dst, ix, tags) in round {
            let probe_id = self.next_probe_id;
            self.next_probe_id += 1;
            self.outstanding_probes.insert(probe_id, (dst, ix, now));
            self.counters.probes_sent.inc();
            let msg = ControlMessage::PathProbe {
                origin: self.mac,
                probe_id,
            };
            let pkt = Packet::control(dst, self.mac, tags, msg);
            self.transmit(ctx, pkt);
        }
        ctx.set_timer(cfg.probe_interval, Self::PROBE_TOKEN);
    }

    /// The suspicion threshold logic: a path whose loss EWMA crossed the
    /// threshold implicates its edges, minus every edge a demonstrably
    /// healthy path of the same destination also crosses — what remains
    /// is quarantined locally (immediate failover, no controller
    /// round-trip) and reported as `LinkSuspect` evidence. Edges held
    /// quarantined (locally or by the controller) keep getting probed;
    /// once their worst sampled EWMA drops under the clear threshold the
    /// host restores them locally and reports the recovery so controller
    /// probation can corroborate.
    fn evaluate_suspicion(&mut self, ctx: &mut Ctx<'_>, cfg: GrayDetectConfig) {
        // Worst sampled EWMA per edge (exoneration evidence) and the
        // suspect set (bad-path edges minus healthy-path edges, per
        // destination). BTreeMaps: iteration order feeds sends.
        let mut edge_worst: BTreeMap<(SwitchId, SwitchId), (f64, u32, u8)> = BTreeMap::new();
        let mut suspects: BTreeMap<(SwitchId, SwitchId), (f64, u32, u8)> = BTreeMap::new();
        for dst in self.pathtable.destinations() {
            let Some(entry) = self.pathtable.entry(dst) else {
                continue;
            };
            let mut good_edges: HashSet<(SwitchId, SwitchId)> = HashSet::new();
            let mut bad: Vec<(usize, f64, u32)> = Vec::new();
            for (ix, p) in entry.paths.iter().enumerate() {
                let Some(h) = self.path_health.get(&(dst, ix)) else {
                    continue;
                };
                if h.samples < cfg.min_samples {
                    continue;
                }
                for w in p.route.switches().windows(2) {
                    let key = norm_edge(w[0], w[1]);
                    let dir = u8::from(key != (w[0], w[1]));
                    let slot = edge_worst
                        .entry(key)
                        .or_insert((h.ewma_loss, h.samples, dir));
                    if h.ewma_loss > slot.0 {
                        *slot = (h.ewma_loss, h.samples, dir);
                    }
                }
                if h.ewma_loss >= cfg.suspect_threshold {
                    bad.push((ix, h.ewma_loss, h.samples));
                } else if h.ewma_loss <= CLEAR_THRESHOLD {
                    for w in p.route.switches().windows(2) {
                        good_edges.insert(norm_edge(w[0], w[1]));
                    }
                }
            }
            // Common-cause attribution: one gray edge poisons every
            // path crossing it, so the edges shared by *all* bad paths
            // are the suspects. Only when the bad paths share nothing
            // usable (distinct causes, or the shared edges are all
            // demonstrably healthy) fall back to the blunt union —
            // never implicating a healthy path's edges either way.
            let path_edges = |ix: usize| -> HashSet<(SwitchId, SwitchId)> {
                entry.paths[ix]
                    .route
                    .switches()
                    .windows(2)
                    .map(|w| norm_edge(w[0], w[1]))
                    .collect()
            };
            let mut common: HashSet<(SwitchId, SwitchId)> = bad
                .first()
                .map(|&(ix, _, _)| path_edges(ix))
                .unwrap_or_default();
            for &(ix, _, _) in bad.iter().skip(1) {
                let edges = path_edges(ix);
                common.retain(|e| edges.contains(e));
            }
            let use_common = common.iter().any(|e| !good_edges.contains(e));
            for (ix, loss, samples) in bad {
                for w in entry.paths[ix].route.switches().windows(2) {
                    let key = norm_edge(w[0], w[1]);
                    if good_edges.contains(&key) {
                        continue;
                    }
                    if use_common && !common.contains(&key) {
                        continue;
                    }
                    let dir = u8::from(key != (w[0], w[1]));
                    let slot = suspects.entry(key).or_insert((loss, samples, dir));
                    if loss > slot.0 {
                        *slot = (loss, samples, dir);
                    }
                }
            }
        }
        // Local fast reroute + dirty evidence reports.
        for (&edge, &(loss, window, dir)) in &suspects.clone() {
            if self.local_suspects.insert(edge) {
                self.pathtable.quarantine_edge(edge.0, edge.1);
                self.counters.gray_failovers.inc();
            }
            self.report_edge(ctx, edge, dir, loss, window);
        }
        // Exoneration of held edges whose evidence recovered.
        let held: BTreeSet<(SwitchId, SwitchId)> = self
            .local_suspects
            .iter()
            .copied()
            .chain(self.ctrl_quarantined.keys().copied())
            .collect();
        for edge in held {
            if suspects.contains_key(&edge) {
                continue;
            }
            let Some(&(worst, window, dir)) = edge_worst.get(&edge) else {
                continue;
            };
            if worst > CLEAR_THRESHOLD {
                continue;
            }
            if self.local_suspects.remove(&edge) && !self.ctrl_quarantined.contains_key(&edge) {
                // Only a locally held quarantine lifts locally; a
                // controller-flooded one waits for the unquarantine
                // patch.
                self.pathtable.restore_edge(edge.0, edge.1);
            }
            self.report_edge(ctx, edge, dir, worst, window);
        }
    }

    /// Sends one rate-limited `LinkSuspect` evidence report.
    fn report_edge(
        &mut self,
        ctx: &mut Ctx<'_>,
        edge: (SwitchId, SwitchId),
        direction: u8,
        loss: f64,
        window: u32,
    ) {
        let now = ctx.now();
        if self
            .last_report
            .get(&edge)
            .is_some_and(|&t| now - t < REPORT_INTERVAL)
        {
            return;
        }
        let Some((ctrl_mac, ctrl_path)) = self.controller.clone() else {
            return;
        };
        self.last_report.insert(edge, now);
        let seq = self.next_suspect_seq;
        self.next_suspect_seq += 1;
        self.counters.link_suspects_sent.inc();
        let msg = ControlMessage::LinkSuspect {
            reporter: self.mac,
            edge,
            loss_permille: (loss * 1000.0).round().min(1000.0) as u16,
            window,
            direction,
            seq,
        };
        let pkt = Packet::control(ctrl_mac, self.mac, ctrl_path, msg);
        self.transmit(ctx, pkt);
    }

    /// The coalescing writer (§4.2 stage 2, receive side): accepts a
    /// topology patch batch and applies it **atomically** at its epoch
    /// boundary.
    ///
    /// Acceptance rules, in order:
    /// 1. Term fencing — a batch from a fenced stale leader is dropped
    ///    (`stale_ctrl_updates`), exactly like every other controller
    ///    update.
    /// 2. Monotone epochs — a batch whose epoch is at or below the table
    ///    version this host already holds is a redundant flood round or
    ///    a jitter-reordered older patch; applying it would clobber the
    ///    newer table, so it is dropped (`stale_patch_dropped`).
    /// 3. Multi-segment batches buffer in [`PatchAssembly`] until every
    ///    segment has arrived; only the newest epoch is kept under
    ///    assembly (`coalesce_aborted` counts superseded partials). The
    ///    table moves from its previous version to `epoch` in one step —
    ///    it never reflects half a batch.
    fn handle_patch_batch(&mut self, ctx: &mut Ctx<'_>, batch: PatchBatch) {
        if batch.term < self.leader_term {
            // A fenced stale leader is still flooding patches from its
            // side of a partition; its topology view no longer
            // sequences ours.
            self.counters.stale_ctrl_updates.inc();
            return;
        }
        self.leader_term = batch.term;
        if batch.epoch <= self.topocache.topo_version {
            self.counters.stale_patch_dropped.inc();
            return;
        }
        let segs = usize::from(batch.segs.max(1));
        if segs == 1 {
            self.apply_patch_epoch(ctx, batch.epoch, batch.entries);
            return;
        }
        let seg = usize::from(batch.seg);
        if seg >= segs {
            return; // Malformed segment index (codec rejects on the wire).
        }
        match &self.patch_assembly {
            Some(asm) if asm.epoch > batch.epoch => {
                // A newer epoch is already assembling; this segment is a
                // straggler of an epoch it supersedes.
                self.counters.stale_patch_dropped.inc();
                return;
            }
            Some(asm)
                if asm.epoch < batch.epoch || asm.term != batch.term || asm.parts.len() != segs =>
            {
                // Superseded (or inconsistently framed) partial: drop it
                // and start over on the incoming epoch.
                self.counters.coalesce_aborted.inc();
                self.patch_assembly = None;
            }
            _ => {}
        }
        let asm = self.patch_assembly.get_or_insert_with(|| PatchAssembly {
            epoch: batch.epoch,
            term: batch.term,
            parts: vec![None; segs],
            got: 0,
        });
        if asm.parts[seg].is_none() {
            asm.parts[seg] = Some(batch.entries);
            asm.got += 1;
        }
        if asm.got < segs {
            return; // Keep buffering; the table stays untouched.
        }
        let asm = self.patch_assembly.take().expect("assembly just filled");
        let entries: Vec<PatchEntry> = asm.parts.into_iter().flatten().flatten().collect();
        self.apply_patch_epoch(ctx, asm.epoch, entries);
    }

    /// Applies one complete batch epoch to the two-level cache. Entries
    /// at or below the current table version are skipped — re-applying
    /// them could resurrect link state a version between them and the
    /// table has since overwritten.
    fn apply_patch_epoch(&mut self, ctx: &mut Ctx<'_>, epoch: u64, mut entries: Vec<PatchEntry>) {
        // A partial assembly at or below this epoch can never complete
        // usefully — its stragglers will fail the monotone-epoch check.
        if self
            .patch_assembly
            .as_ref()
            .is_some_and(|a| a.epoch <= epoch)
        {
            self.counters.coalesce_aborted.inc();
            self.patch_assembly = None;
        }
        let from = self.topocache.topo_version;
        entries.sort_by_key(|e| e.version);
        let mut applied = 0u64;
        for e in entries {
            if e.version <= from {
                continue;
            }
            // Stamp the *software-visible* arrival of each version the
            // batch carried us through (the fig11 stage-2 series).
            self.stats
                .patch_arrivals
                .push((e.version, ctx.now() + self.config.stack_delay));
            for (a, b) in e.delta.down {
                self.topocache.mark_down(a, b);
                self.pathtable.invalidate_edge(a, b);
                // Hard-down supersedes any gray suspicion on the edge.
                self.forget_gray_edge(a, b);
            }
            for (pa, pb) in e.delta.up {
                self.topocache.mark_up(pa.switch, pb.switch);
            }
            for (a, b) in e.delta.quarantine {
                let edge = norm_edge(a, b);
                self.ctrl_quarantined.insert(edge, ctx.now());
                self.pathtable.quarantine_edge(edge.0, edge.1);
            }
            for (a, b) in e.delta.unquarantine {
                let edge = norm_edge(a, b);
                self.ctrl_quarantined.remove(&edge);
                if !self.local_suspects.contains(&edge) {
                    // Our own evidence may still hold the edge; if not,
                    // the controller's pardon reopens it.
                    self.pathtable.restore_edge(edge.0, edge.1);
                }
            }
            applied += 1;
        }
        self.topocache.topo_version = epoch;
        self.counters.patch_batches_applied.inc();
        self.patch_batch_entries.observe(applied);
    }

    /// Integrates one controller path answer (standalone or batched).
    fn handle_path_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        request_id: u64,
        graph: Option<Box<dumbnet_topology::PathGraph>>,
        topo_version: u64,
    ) {
        let Some((dst, _)) = self.outstanding.remove(&request_id) else {
            return;
        };
        if let Some(graph) = graph {
            self.topocache.integrate(dst, *graph, topo_version);
            if let Some((paths, backup)) = self.topocache.k_paths(dst, K_PATHS) {
                self.pathtable.install(dst, paths, backup);
                self.drop_health(dst);
            }
        }
        self.flush_pending(ctx, dst);
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
                request_id,
                graph,
                topo_version,
            } => {
                self.handle_path_reply(ctx, request_id, graph, topo_version);
            }
            ControlMessage::PathProbe { origin, probe_id } => {
                // Gray-failure probe responder: answer over our own
                // routed path (the forward path under test was consumed
                // on the way here).
                let reply = Packet {
                    dst: origin,
                    src: self.mac,
                    path: Path::empty(),
                    payload: Payload::Control(ControlMessage::PathProbeReply {
                        responder: self.mac,
                        probe_id,
                    }),
                    ecn: false,
                };
                self.send_routed(ctx, reply, FlowKey(probe_id ^ 0x9B0B_E000));
            }
            ControlMessage::PathProbeReply { probe_id, .. } => {
                if let Some((dst, ix, _)) = self.outstanding_probes.remove(&probe_id) {
                    self.health_sample(dst, ix, false);
                }
            }
            ControlMessage::LinkNotification { event, .. }
            | ControlMessage::HostFlood { event, .. } => {
                self.handle_link_event(ctx, event);
            }
            ControlMessage::TopologyPatchBatch(batch) => {
                self.handle_patch_batch(ctx, batch);
            }
            ControlMessage::ControllerHello {
                controller,
                path_to_controller,
                topo_version,
                standby,
                term,
            } => {
                if !standby {
                    if term < self.leader_term {
                        // Leadership claim from a fenced stale leader.
                        self.counters.stale_ctrl_updates.inc();
                        return;
                    }
                    self.leader_term = term;
                    self.controller = Some((controller, path_to_controller.clone()));
                }
                // Maintain the query-spreading group (replace same MAC).
                self.controller_group.retain(|(m, _)| *m != controller);
                self.controller_group.push((controller, path_to_controller));
                if topo_version > self.topocache.topo_version {
                    self.topocache.topo_version = topo_version;
                }
                // A controller (re)appeared: retry anything parked.
                let mut parked: Vec<MacAddr> = self.pending.keys().copied().collect();
                parked.sort_unstable(); // Hash order would be nondeterministic.
                for dst in parked {
                    self.request_path(ctx, dst);
                }
            }
            ControlMessage::Ping { seq, sent_at } => {
                let reply = Packet {
                    dst: src,
                    src: self.mac,
                    path: Path::empty(),
                    payload: Payload::Control(ControlMessage::Pong {
                        seq,
                        echo_sent_at: sent_at,
                    }),
                    ecn: false,
                };
                self.send_routed(ctx, reply, FlowKey(seq ^ 0xFFFF_0000));
            }
            ControlMessage::Pong { seq, echo_sent_at } => {
                let rtt = (ctx.now() - echo_sent_at) + self.config.stack_delay;
                self.rtt_ns.observe(rtt.nanos());
                self.stats.rtts.push((seq, echo_sent_at, rtt));
            }
            ControlMessage::EcnEcho { flow } => {
                self.counters.ecn_echoes.inc();
                self.routing.on_congestion(FlowKey(flow), ctx.now());
            }
            ControlMessage::StatsReply { switch, ports, .. } => {
                self.stats.stats_replies.push((switch, ports));
            }
            // Messages only controllers or switches consume.
            ControlMessage::StatsQuery { .. }
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
        let action = self.config.actions[ix].clone();
        if self.action_state[ix].remaining == 0 {
            return;
        }
        self.action_state[ix].remaining -= 1;
        match action {
            AppAction::PingSeries { dst, interval, .. } => {
                let seq = self.next_ping_seq;
                self.next_ping_seq += 1;
                let pkt = Packet {
                    dst,
                    src: self.mac,
                    path: Path::empty(),
                    payload: Payload::Control(ControlMessage::Ping {
                        seq,
                        sent_at: ctx.now(),
                    }),
                    ecn: false,
                };
                self.send_routed(ctx, pkt, FlowKey(0x5049_4E47)); // "PING"
                if self.action_state[ix].remaining > 0 {
                    ctx.set_timer(interval, ix as u64);
                }
            }
            AppAction::DataStream {
                dst,
                flow,
                bytes,
                interval,
                ..
            } => {
                let seq = self.action_state[ix].remaining;
                let pkt = Packet::data(dst, self.mac, Path::empty(), flow, seq, bytes);
                self.send_routed(ctx, pkt, FlowKey(flow));
                if self.action_state[ix].remaining > 0 {
                    ctx.set_timer(interval, ix as u64);
                }
            }
        }
    }
}

impl Node for HostAgent {
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
                let entry = self.stats.delivered.entry(flow).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += bytes as u64;
                if pkt_ecn {
                    // Echo the congestion mark to the sender (§8): it can
                    // then move the flow at the next flowlet boundary.
                    *self.stats.ecn_marked.entry(flow).or_insert(0) += 1;
                    let echo = Packet {
                        dst: src_mac,
                        src: self.mac,
                        path: Path::empty(),
                        payload: Payload::Control(ControlMessage::EcnEcho { flow }),
                        ecn: false,
                    };
                    self.send_routed(ctx, echo, FlowKey(flow ^ 0xECE0_0000));
                }
            }
        }
    }

    fn publish_telemetry(&mut self) {
        let (pkts, bytes) = self
            .stats
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
            self.probe_tick(ctx);
            return;
        }
        if token == Self::RETRY_TOKEN {
            self.retry_armed = false;
            let mut dsts: Vec<MacAddr> = self.pending.keys().copied().collect();
            dsts.sort_unstable(); // Deterministic retry order.
            for dst in dsts {
                // Re-resolve locally first (a topology patch may have
                // revived cached paths); otherwise re-ask the controller.
                self.flush_pending(ctx, dst);
                if self.pending.contains_key(&dst) {
                    self.request_path(ctx, dst);
                }
            }
            self.arm_retry(ctx);
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

    #[test]
    fn duplicate_events_suppressed() {
        // seen_events dedup is pure state logic; test it directly.
        let mut agent = HostAgent::new(HostId(0), HostAgentConfig::default());
        let ev = (SwitchId(1), PortNo::new(2).unwrap(), false, 1u64);
        assert!(agent.seen_events.insert(ev));
        assert!(!agent.seen_events.insert(ev));
    }

    // Full end-to-end agent behaviour (path requests, failover, pings)
    // is exercised in the dumbnet-core integration tests where a whole
    // fabric exists; unit tests here cover the cache plumbing.
}
