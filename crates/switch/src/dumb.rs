//! The DumbNet switch.
//!
//! The entire data plane (§3.2): *"each switch simply examines the packet
//! header to find out the output port at the current hop and forwards the
//! packet accordingly"*. No forwarding table, no learning, no
//! configuration. The only other behaviours are the two the paper
//! explicitly grants the hardware (§3.1, §4.2):
//!
//! 1. **ID query** — a popped tag of `0` makes the switch reply with its
//!    factory-unique ID along the remaining tags, echoing the triggering
//!    payload so probers can correlate replies.
//! 2. **Port monitoring** — on a carrier change the switch broadcasts a
//!    hop-limited link notification out of every port, at most one alarm
//!    per second per port (flap suppression). Received notifications are
//!    re-broadcast with the TTL decremented — still stateless.

use std::any::Any;
use std::sync::Arc;

use dumbnet_fpga::refmodel::{self, RefDrop, RefVerdict};
use dumbnet_packet::control::{LinkEvent, PortStat};
use dumbnet_packet::{ControlMessage, DumbNetFrame, Packet, Payload};
use dumbnet_sim::{Ctx, Node};
use dumbnet_telemetry::{counter_block, NodeKind, TraceCategory};
use dumbnet_types::{MacAddr, PortNo, SimDuration, SimTime, SwitchId};

/// Minimum spacing of alarms per port ("the switch will send out one
/// alarm per second per port", §4.2).
const ALARM_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Tunables for the dumb switch. Everything here models a *hardware*
/// property, not configuration state: the values are identical for every
/// switch in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumbSwitchConfig {
    /// Hop limit stamped on self-originated link notifications. "As
    /// modern data center topologies often have small diameters, a max of
    /// 5 hops is often enough" (§4.2).
    pub notification_ttl: u8,
    /// Delay between a physical state change and the alarm going out.
    /// Zero models hardware-based monitoring; the paper's testbed used
    /// "a script on Arista switch to monitor the port state", which the
    /// Figure 11(b) reproduction models with a non-zero value here
    /// ("these packets can be sent even faster if it's done by
    /// hardware").
    pub detection_delay: SimDuration,
    /// Runtime verification: when set, every `forward` decision is
    /// replayed through the byte-level reference interpreter
    /// ([`dumbnet_fpga::refmodel`]) and any disagreement — egress port,
    /// post-pop bytes-on-wire, FCS, or drop/accept — bumps the
    /// `ref_divergence` counter (DESIGN.md §8). Not a hardware
    /// property; a differential-testing harness, off by default.
    pub shadow_check: bool,
}

impl Default for DumbSwitchConfig {
    fn default() -> DumbSwitchConfig {
        DumbSwitchConfig {
            notification_ttl: 5,
            detection_delay: SimDuration::ZERO,
            shadow_check: false,
        }
    }
}

/// Counters exposed for experiments; real hardware would keep none of
/// this (it exists so tests can observe behaviour).
///
/// A point-in-time view filled by [`DumbSwitch::stats`] from the
/// switch's counter block, which is registered with the world's
/// registry under `(NodeKind::Switch, switch id)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DumbSwitchStats {
    /// Packets forwarded by tag.
    pub forwarded: u64,
    /// Packets dropped because the path was exhausted (a switch saw ø).
    pub dropped_exhausted: u64,
    /// Packets dropped because the popped tag was not interpretable —
    /// the ø byte where a port tag belongs. Distinct from exhaustion:
    /// an exhausted path is a routing mistake, a malformed tag is a
    /// corrupted or forged frame.
    pub dropped_malformed: u64,
    /// Forward decisions that disagreed with the reference interpreter
    /// (only counted when [`DumbSwitchConfig::shadow_check`] is set;
    /// any nonzero value is a data-plane bug — see DESIGN.md §8).
    pub ref_divergence: u64,
    /// ID queries answered.
    pub id_replies: u64,
    /// Self-originated link alarms sent (per-port batches count once).
    pub alarms_sent: u64,
    /// Alarms suppressed by the per-port rate limit.
    pub alarms_suppressed: u64,
    /// Foreign notifications re-broadcast.
    pub notifications_relayed: u64,
}

counter_block! {
    /// Live counters behind [`DumbSwitchStats`].
    struct SwitchCounters => DumbSwitchStats {
        forwarded,
        dropped_exhausted,
        dropped_malformed,
        ref_divergence,
        id_replies,
        alarms_sent,
        alarms_suppressed,
        notifications_relayed,
    } + {
        /// Sum of per-port tx counters, synced in `publish_telemetry`.
        tx_packets,
        tx_bytes,
    }
}

/// Per-port monitoring state: last alarm time and sequence counter.
///
/// This is *soft, local* state about the switch's own ports — the paper
/// explicitly keeps "physical link state monitoring for its own ports" in
/// the switch. There is still no forwarding or topology state.
#[derive(Debug, Clone, Copy, Default)]
struct PortMonitor {
    /// Packets transmitted out of this port (§8 statistics: a counter is
    /// soft state — losing it loses history, never correctness).
    tx_packets: u64,
    /// Bytes transmitted out of this port.
    tx_bytes: u64,
    last_alarm: Option<SimTime>,
    /// State carried by the last alarm that actually went out.
    last_announced_up: Option<bool>,
    /// Whether a re-announce check is already scheduled.
    recheck_pending: bool,
    seq: u64,
}

/// The DumbNet switch node.
#[derive(Debug)]
pub struct DumbSwitch {
    id: SwitchId,
    config: DumbSwitchConfig,
    /// Indexed by `PortNo::index()`; sized at construction from the port
    /// count (a hardware property).
    monitors: Vec<PortMonitor>,
    counters: Arc<SwitchCounters>,
}

impl DumbSwitch {
    /// Creates a switch with `ports` physical ports.
    #[must_use]
    pub fn new(id: SwitchId, ports: u8, config: DumbSwitchConfig) -> DumbSwitch {
        DumbSwitch {
            id,
            config,
            monitors: vec![PortMonitor::default(); usize::from(ports.min(0xFE))],
            counters: Arc::default(),
        }
    }

    /// The switch's factory ID.
    #[must_use]
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Experiment counters.
    #[must_use]
    pub fn stats(&self) -> DumbSwitchStats {
        let mut view = DumbSwitchStats::default();
        self.counters.fill(&mut view);
        view
    }

    /// Serializes the typed packet the way the wire would carry it, with
    /// a payload synthesized deterministically from the typed payload's
    /// accounting size (the pop/demux semantics never depend on payload
    /// *content*, so a stand-in body suffices for the byte-level
    /// comparison while keeping the shadow check cheap).
    fn shadow_wire(pkt: &Packet) -> Vec<u8> {
        let n = pkt.payload.wire_size();
        let body = vec![(n as u8) ^ 0x5A; n.min(24)];
        DumbNetFrame::encapsulate(pkt.dst, pkt.src, pkt.path.clone(), 0x0800, body).to_wire()
    }

    /// Compares the decision the production path just took against the
    /// reference interpreter's verdict for the same bytes-on-wire.
    /// `post` is the packet *after* the pop for decisions that keep it.
    fn shadow_compare(
        &mut self,
        ctx: &mut Ctx<'_>,
        pre_wire: &[u8],
        decision: &str,
        port: Option<PortNo>,
        post: Option<&Packet>,
    ) {
        let verdict = refmodel::step(pre_wire);
        let agrees = match (&verdict, decision) {
            (RefVerdict::Drop(RefDrop::PathExhausted), "exhausted") => true,
            (RefVerdict::Drop(RefDrop::MalformedTag), "malformed") => true,
            (RefVerdict::IdQuery { .. }, "id_query") => true,
            (
                RefVerdict::Forward {
                    port: rp, frame, ..
                },
                "forward",
            ) => {
                // Same egress, and the post-pop frame re-serializes to
                // the exact bytes (tags shifted, FCS recomputed) the
                // reference pipeline emitted.
                port.is_some_and(|p| p.get() == *rp)
                    && post.is_some_and(|pkt| Self::shadow_wire(pkt) == *frame)
            }
            _ => false,
        };
        if !agrees {
            self.counters.ref_divergence.inc();
            ctx.trace(
                TraceCategory::Packet,
                NodeKind::Switch,
                self.id.get(),
                || {
                    format!(
                        "switch {} DIVERGENCE: production decided {decision} \
                         (port {:?}), reference model says {verdict:?}",
                        self.id.0,
                        port.map(PortNo::get),
                    )
                },
            );
        }
    }

    /// Forwards a packet by its head tag, handling ID queries. Both the
    /// data path and the ID-reply path funnel through here.
    fn forward(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        // Differential shadow execution: capture the bytes-on-wire view
        // of the packet *before* the pop so the reference interpreter
        // sees exactly what hardware would.
        let shadow = self.config.shadow_check.then(|| Self::shadow_wire(&pkt));
        match pkt.pop_tag() {
            None => {
                // Path exhausted at a switch: only hosts consume ø.
                self.counters.dropped_exhausted.inc();
                if let Some(wire) = shadow {
                    self.shadow_compare(ctx, &wire, "exhausted", None, None);
                }
            }
            Some(tag) if tag.is_id_query() => {
                self.counters.id_replies.inc();
                if let Some(wire) = shadow {
                    self.shadow_compare(ctx, &wire, "id_query", None, None);
                }
                // A query tag carrying a statistics request returns the
                // port counters instead of the switch ID (§8).
                if let Payload::Control(ControlMessage::StatsQuery { probe_id }) = pkt.payload {
                    let ports = self
                        .monitors
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.tx_packets > 0)
                        .filter_map(|(ix, m)| {
                            Some(PortStat {
                                port: PortNo::from_index(ix)?,
                                tx_packets: m.tx_packets,
                                tx_bytes: m.tx_bytes,
                            })
                        })
                        .collect();
                    let reply = Packet::control(
                        pkt.src,
                        MacAddr::default(),
                        pkt.path,
                        ControlMessage::StatsReply {
                            switch: self.id,
                            probe_id,
                            ports,
                        },
                    );
                    self.forward(ctx, reply);
                    return;
                }
                let echo = match pkt.payload {
                    Payload::Control(msg) => Some(Box::new(msg)),
                    Payload::Data { .. } | Payload::Ip { .. } => None,
                };
                let reply = Packet::control(
                    pkt.src, // Back toward whoever asked.
                    MacAddr::default(),
                    pkt.path,
                    ControlMessage::SwitchIdReply {
                        switch: self.id,
                        echo,
                    },
                );
                // The reply is itself a tag-routed packet: forward it.
                self.forward(ctx, reply);
            }
            Some(tag) => {
                let Some(port) = tag.as_port() else {
                    // ø can never be popped (path constructors exclude
                    // it), so every non-query tag is a port. If one
                    // appears anyway the frame is corrupt or forged:
                    // count it as malformed, never abort.
                    self.counters.dropped_malformed.inc();
                    if let Some(wire) = shadow {
                        self.shadow_compare(ctx, &wire, "malformed", None, None);
                    }
                    return;
                };
                self.counters.forwarded.inc();
                if let Some(wire) = shadow {
                    self.shadow_compare(ctx, &wire, "forward", Some(port), Some(&pkt));
                }
                let wire_len = ctx.send(port, pkt);
                if let Some(mon) = self.monitors.get_mut(port.index()) {
                    mon.tx_packets += 1;
                    mon.tx_bytes += wire_len as u64;
                }
            }
        }
    }

    /// Sends the port-state alarm for `port` and records it as announced.
    fn announce(&mut self, ctx: &mut Ctx<'_>, port: PortNo, up: bool) {
        let Some(mon) = self.monitors.get_mut(port.index()) else {
            return;
        };
        mon.last_alarm = Some(ctx.now());
        mon.last_announced_up = Some(up);
        mon.seq += 1;
        let event = LinkEvent {
            switch: self.id,
            port,
            up,
            seq: mon.seq,
        };
        self.counters.alarms_sent.inc();
        ctx.trace(
            TraceCategory::Chaos,
            NodeKind::Switch,
            self.id.get(),
            || {
                format!(
                    "switch {} port {} alarm: link {}",
                    self.id.0,
                    port.get(),
                    if up { "up" } else { "down" }
                )
            },
        );
        self.broadcast(
            ctx,
            None,
            ControlMessage::LinkNotification {
                event,
                ttl: self.config.notification_ttl,
            },
        );
    }

    /// Floods a notification out of every wired port except `except`.
    fn broadcast(&mut self, ctx: &mut Ctx<'_>, except: Option<PortNo>, msg: ControlMessage) {
        ctx.for_each_wired_port(|ctx, port| {
            if Some(port) == except {
                return;
            }
            let pkt = Packet::control(
                MacAddr::BROADCAST,
                MacAddr::default(),
                dumbnet_types::Path::empty(),
                msg.clone(),
            );
            ctx.send(port, pkt);
        });
    }
}

impl Node for DumbSwitch {
    fn heap_owner(&self) -> &'static str {
        "switches"
    }

    fn heap_bytes(&self) -> usize {
        dumbnet_types::heap::vec(&self.monitors) + dumbnet_types::heap::arc::<SwitchCounters>()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.telemetry()
            .register_block(NodeKind::Switch, self.id.get(), self.counters.clone());
    }

    fn publish_telemetry(&mut self) {
        let (pkts, bytes) = self
            .monitors
            .iter()
            .fold((0u64, 0u64), |(p, b), m| (p + m.tx_packets, b + m.tx_bytes));
        self.counters.tx_packets.set(pkts);
        self.counters.tx_bytes.set(bytes);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortNo, mut pkt: Packet) {
        // Hop-limited notification flood: the only packet type a switch
        // inspects beyond the head tag. Matching on the payload enum is
        // the structured equivalent of matching a fixed EtherType.
        if let Payload::Control(ControlMessage::LinkNotification { event, ttl }) = &pkt.payload {
            if *ttl > 0 {
                self.counters.notifications_relayed.inc();
                self.broadcast(
                    ctx,
                    Some(in_port),
                    ControlMessage::LinkNotification {
                        event: *event,
                        ttl: ttl - 1,
                    },
                );
            }
            return;
        }
        // Controller election traffic sent before any topology exists
        // travels the same way: a hop-limited broadcast relay. Unicast
        // (path-carrying) election packets fall through to `forward`.
        if pkt.dst == MacAddr::BROADCAST {
            if let Payload::Control(
                ControlMessage::LeaderQuery { ttl, .. }
                | ControlMessage::LeaderQueryReply { ttl, .. },
            ) = &mut pkt.payload
            {
                if *ttl > 0 {
                    *ttl -= 1;
                    self.counters.notifications_relayed.inc();
                    if let Payload::Control(msg) = pkt.payload {
                        self.broadcast(ctx, Some(in_port), msg);
                    }
                }
                return;
            }
        }
        self.forward(ctx, pkt);
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, port: PortNo, up: bool) {
        let Some(mon) = self.monitors.get_mut(port.index()) else {
            return;
        };
        let now = ctx.now();
        if self.config.detection_delay > SimDuration::ZERO {
            // Software-polled monitoring: defer to the re-check timer,
            // which announces the then-current state.
            if !mon.recheck_pending {
                mon.recheck_pending = true;
                ctx.set_timer(self.config.detection_delay, u64::from(port.get()));
            }
            return;
        }
        if let Some(last) = mon.last_alarm {
            let elapsed = now - last;
            if elapsed < ALARM_INTERVAL {
                // Flap suppression — but schedule a single re-check at
                // the window's end so a state that *stays* changed is
                // eventually announced (still ≤ 1 alarm/s/port).
                self.counters.alarms_suppressed.inc();
                if !mon.recheck_pending {
                    mon.recheck_pending = true;
                    let wait = ALARM_INTERVAL - elapsed;
                    ctx.set_timer(wait, u64::from(port.get()));
                }
                return;
            }
        }
        self.announce(ctx, port, up);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // Re-announce check for a previously suppressed alarm.
        let Some(port) = u8::try_from(token).ok().and_then(PortNo::new) else {
            return;
        };
        let Some(mon) = self.monitors.get_mut(port.index()) else {
            return;
        };
        mon.recheck_pending = false;
        let up = ctx.link_up(port);
        if mon.last_announced_up != Some(up) {
            self.announce(ctx, port, up);
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
    use dumbnet_sim::{Engine, LinkParams, NodeAddr, World};
    use dumbnet_types::{Path, Tag};

    /// Sink node recording everything it receives.
    struct Sink {
        got: Vec<(SimTime, PortNo, Packet)>,
    }

    impl Sink {
        fn new() -> Sink {
            Sink { got: Vec::new() }
        }
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortNo, pkt: Packet) {
            self.got.push((ctx.now(), port, pkt));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn p(n: u8) -> PortNo {
        PortNo::new(n).unwrap()
    }

    /// Two hosts on one switch: h1 on port 1, h2 on port 2.
    fn one_switch_world() -> (World, NodeAddr, NodeAddr, NodeAddr) {
        let mut w = World::new(0);
        let sw = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(1),
            8,
            DumbSwitchConfig::default(),
        )));
        let h1 = w.add_node(Box::new(Sink::new()));
        let h2 = w.add_node(Box::new(Sink::new()));
        w.wire(sw, p(1), h1, p(1), LinkParams::ten_gig()).unwrap();
        w.wire(sw, p(2), h2, p(1), LinkParams::ten_gig()).unwrap();
        (w, sw, h1, h2)
    }

    #[test]
    fn forwards_by_head_tag() {
        let (mut w, sw, _h1, h2) = one_switch_world();
        let pkt = Packet::data(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            Path::from_ports([2]).unwrap(),
            0,
            0,
            64,
        );
        w.inject(SimTime::ZERO, sw, p(1), pkt);
        w.run_to_idle(100);
        let got = &w.node::<Sink>(h2).unwrap().got;
        assert_eq!(got.len(), 1);
        // Path fully consumed at delivery.
        assert!(got[0].2.path.is_empty());
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert_eq!(stats.forwarded, 1);
    }

    #[test]
    fn a_tag_list_that_turns_around_leaves_by_the_ingress_port() {
        // A bounce walk's turn: the tag names the port the frame came
        // in by, and the switch sends it back out there, as any hop.
        let (mut w, sw, h1, h2) = one_switch_world();
        let mac = MacAddr::for_host(1);
        let pkt = Packet::data(mac, mac, Path::from_ports([1]).unwrap(), 0, 0, 64);
        w.inject(SimTime::ZERO, sw, p(1), pkt);
        w.run_to_idle(100);
        let got = &w.node::<Sink>(h1).unwrap().got;
        assert_eq!(got.len(), 1);
        assert!(got[0].2.path.is_empty());
        assert!(w.node::<Sink>(h2).unwrap().got.is_empty());
        assert_eq!(w.node::<DumbSwitch>(sw).unwrap().stats().forwarded, 1);
    }

    #[test]
    fn exhausted_path_dropped() {
        let (mut w, sw, h1, h2) = one_switch_world();
        let pkt = Packet::data(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            Path::empty(),
            0,
            0,
            64,
        );
        w.inject(SimTime::ZERO, sw, p(1), pkt);
        w.run_to_idle(100);
        assert!(w.node::<Sink>(h1).unwrap().got.is_empty());
        assert!(w.node::<Sink>(h2).unwrap().got.is_empty());
        assert_eq!(
            w.node::<DumbSwitch>(sw).unwrap().stats().dropped_exhausted,
            1
        );
    }

    #[test]
    fn id_query_bounces_back_with_echo() {
        let (mut w, sw, h1, _) = one_switch_world();
        // 0-1-ø: query the switch, reply out port 1 (to h1).
        let probe = ControlMessage::Probe {
            origin: MacAddr::for_host(1),
            forward_path: Path::from_tags([Tag::ID_QUERY, Tag(1)]).unwrap(),
            probe_id: 99,
        };
        let pkt = Packet::control(
            MacAddr::BROADCAST,
            MacAddr::for_host(1),
            Path::from_tags([Tag::ID_QUERY, Tag(1)]).unwrap(),
            probe,
        );
        w.inject(SimTime::ZERO, sw, p(1), pkt);
        w.run_to_idle(100);
        let got = &w.node::<Sink>(h1).unwrap().got;
        assert_eq!(got.len(), 1);
        match got[0].2.as_control() {
            Some(ControlMessage::SwitchIdReply { switch, echo }) => {
                assert_eq!(*switch, SwitchId(1));
                match echo.as_deref() {
                    Some(ControlMessage::Probe { probe_id, .. }) => assert_eq!(*probe_id, 99),
                    other => panic!("bad echo {other:?}"),
                }
            }
            other => panic!("expected SwitchIdReply, got {other:?}"),
        }
    }

    #[test]
    fn link_alarm_broadcast_and_suppression() {
        let (mut w, sw, h1, h2) = one_switch_world();
        let wid = w.wire_at(sw, p(2)).unwrap();
        let t0 = SimTime::ZERO + SimDuration::from_millis(10);
        // Flap the port rapidly: down, up, down within one second.
        w.schedule_link_state(t0, wid, false);
        w.schedule_link_state(t0 + SimDuration::from_millis(100), wid, true);
        w.schedule_link_state(t0 + SimDuration::from_millis(200), wid, false);
        w.run_to_idle(1000);
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert_eq!(stats.alarms_sent, 1, "only the first alarm escapes");
        assert_eq!(stats.alarms_suppressed, 2);
        // h1 (on the surviving port) received the notification.
        let got = &w.node::<Sink>(h1).unwrap().got;
        assert_eq!(got.len(), 1);
        match got[0].2.as_control() {
            Some(ControlMessage::LinkNotification { event, ttl }) => {
                assert_eq!(event.switch, SwitchId(1));
                assert_eq!(event.port, p(2));
                assert!(!event.up);
                assert_eq!(*ttl, 5);
            }
            other => panic!("expected LinkNotification, got {other:?}"),
        }
        // h2's wire is down; nothing could reach it.
        assert!(w.node::<Sink>(h2).unwrap().got.is_empty());
    }

    #[test]
    fn flap_settling_changed_reannounced_once_at_window_end() {
        // Down (alarm), up 100 ms later (suppressed), stays up: the
        // single re-check at the window's end announces the new state —
        // exactly one extra alarm, at `last_alarm + ALARM_INTERVAL`.
        let (mut w, sw, h1, _h2) = one_switch_world();
        let wid = w.wire_at(sw, p(2)).unwrap();
        let t0 = SimTime::ZERO + SimDuration::from_millis(10);
        w.schedule_link_state(t0, wid, false);
        w.schedule_link_state(t0 + SimDuration::from_millis(100), wid, true);
        w.run_to_idle(2000);
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert_eq!(stats.alarms_sent, 2, "initial alarm + one re-announce");
        assert_eq!(stats.alarms_suppressed, 1);
        let got = &w.node::<Sink>(h1).unwrap().got;
        let events: Vec<_> = got
            .iter()
            .filter_map(|(at, _, pkt)| match pkt.as_control() {
                Some(ControlMessage::LinkNotification { event, .. }) => Some((*at, *event)),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 2);
        assert!(!events[0].1.up, "first alarm reports the down");
        assert!(events[1].1.up, "re-check reports the settled up state");
        assert_eq!(events[1].1.seq, events[0].1.seq + 1);
        // The re-announce waits out the full window from the first alarm.
        assert!(events[1].0 >= t0 + SimDuration::from_secs(1));
    }

    #[test]
    fn change_at_exact_window_boundary_not_suppressed() {
        // `elapsed == ALARM_INTERVAL` is outside the suppression window
        // ("one alarm per second per port" permits the next second's).
        let (mut w, sw, _h1, _h2) = one_switch_world();
        let wid = w.wire_at(sw, p(2)).unwrap();
        let t0 = SimTime::ZERO + SimDuration::from_millis(10);
        w.schedule_link_state(t0, wid, false);
        w.schedule_link_state(t0 + SimDuration::from_secs(1), wid, true);
        w.run_to_idle(2000);
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert_eq!(stats.alarms_sent, 2);
        assert_eq!(stats.alarms_suppressed, 0);
    }

    #[test]
    fn sustained_flapping_stays_rate_limited() {
        // A port flapping every 100 ms for 3 s: however wild the flap,
        // the port never exceeds one alarm per second (plus the initial
        // one), and the last announcement matches the settled state.
        let (mut w, sw, h1, _h2) = one_switch_world();
        let wid = w.wire_at(sw, p(2)).unwrap();
        let t0 = SimTime::ZERO + SimDuration::from_millis(10);
        for i in 0..30u64 {
            let up = i % 2 == 1; // i = 0 ⇒ down, …, i = 29 ⇒ settles up.
            w.schedule_link_state(t0 + SimDuration::from_millis(100 * i), wid, up);
        }
        w.run_to_idle(5000);
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert!(
            stats.alarms_sent <= 4,
            "rate limit breached: {} alarms for a 3 s flap burst",
            stats.alarms_sent
        );
        assert!(stats.alarms_suppressed >= 26);
        let got = &w.node::<Sink>(h1).unwrap().got;
        let last = got
            .iter()
            .rev()
            .find_map(|(_, _, pkt)| match pkt.as_control() {
                Some(ControlMessage::LinkNotification { event, .. }) => Some(*event),
                _ => None,
            })
            .expect("at least one alarm escapes");
        assert!(last.up, "final announcement must reflect the settled state");
        // Alarm sequence numbers stay strictly increasing across the run.
        let seqs: Vec<u64> = got
            .iter()
            .filter_map(|(_, _, pkt)| match pkt.as_control() {
                Some(ControlMessage::LinkNotification { event, .. }) => Some(event.seq),
                _ => None,
            })
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[1] > w[0]),
            "seq not monotonic: {seqs:?}"
        );
    }

    #[test]
    fn alarm_allowed_after_interval() {
        let (mut w, sw, _h1, _h2) = one_switch_world();
        let wid = w.wire_at(sw, p(2)).unwrap();
        let t0 = SimTime::ZERO + SimDuration::from_millis(10);
        w.schedule_link_state(t0, wid, false);
        w.schedule_link_state(t0 + SimDuration::from_secs(2), wid, true);
        w.run_to_idle(1000);
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert_eq!(stats.alarms_sent, 2);
        assert_eq!(stats.alarms_suppressed, 0);
    }

    #[test]
    fn notification_relay_decrements_ttl_and_skips_ingress() {
        // Chain: sinkA - sw1 - sw2 - sinkB. Alarm injected at sw1
        // relays to sw2 (ttl-1), then to sinkB (ttl-2).
        let mut w = World::new(0);
        let sw1 = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(1),
            8,
            DumbSwitchConfig::default(),
        )));
        let sw2 = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(2),
            8,
            DumbSwitchConfig::default(),
        )));
        let sa = w.add_node(Box::new(Sink::new()));
        let sb = w.add_node(Box::new(Sink::new()));
        w.wire(sa, p(1), sw1, p(1), LinkParams::ten_gig()).unwrap();
        w.wire(sw1, p(2), sw2, p(1), LinkParams::ten_gig()).unwrap();
        w.wire(sw2, p(2), sb, p(1), LinkParams::ten_gig()).unwrap();
        let event = LinkEvent {
            switch: SwitchId(7),
            port: p(3),
            up: false,
            seq: 1,
        };
        let pkt = Packet::control(
            MacAddr::BROADCAST,
            MacAddr::default(),
            Path::empty(),
            ControlMessage::LinkNotification { event, ttl: 5 },
        );
        w.inject(SimTime::ZERO, sw1, p(1), pkt);
        w.run_to_idle(1000);
        // sinkA must NOT get a copy (ingress port excluded).
        assert!(w.node::<Sink>(sa).unwrap().got.is_empty());
        let got = &w.node::<Sink>(sb).unwrap().got;
        assert_eq!(got.len(), 1);
        match got[0].2.as_control() {
            Some(ControlMessage::LinkNotification { ttl, .. }) => assert_eq!(*ttl, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ttl_zero_stops_relay() {
        let (mut w, sw, h1, h2) = one_switch_world();
        let event = LinkEvent {
            switch: SwitchId(9),
            port: p(1),
            up: false,
            seq: 1,
        };
        let pkt = Packet::control(
            MacAddr::BROADCAST,
            MacAddr::default(),
            Path::empty(),
            ControlMessage::LinkNotification { event, ttl: 0 },
        );
        w.inject(SimTime::ZERO, sw, p(1), pkt);
        w.run_to_idle(100);
        assert!(w.node::<Sink>(h1).unwrap().got.is_empty());
        assert!(w.node::<Sink>(h2).unwrap().got.is_empty());
    }

    #[test]
    fn election_flood_relays_the_same_message_one_hop_shorter() {
        let (mut w, sw, h1, h2) = one_switch_world();
        let query = |ttl| ControlMessage::LeaderQuery {
            candidate: MacAddr::for_host(1),
            term: 3,
            last_term: 2,
            last_index: 7,
            ttl,
        };
        for ttl in [2, 0] {
            let pkt = Packet::control(
                MacAddr::BROADCAST,
                MacAddr::default(),
                Path::empty(),
                query(ttl),
            );
            w.inject(SimTime::ZERO, sw, p(1), pkt);
        }
        w.run_to_idle(100);
        assert!(w.node::<Sink>(h1).unwrap().got.is_empty());
        let got = &w.node::<Sink>(h2).unwrap().got;
        assert_eq!(got.len(), 1, "the ttl-0 copy dies at the switch");
        assert_eq!(got[0].2.payload, Payload::Control(query(1)));
    }

    /// Three hosts on one shadow-checked switch: every decision the
    /// production path takes is replayed through the byte-level
    /// reference interpreter, and clean traffic must never diverge.
    #[test]
    fn shadow_check_clean_traffic_never_diverges() {
        let mut w = World::new(0);
        let cfg = DumbSwitchConfig {
            shadow_check: true,
            ..DumbSwitchConfig::default()
        };
        let sw = w.add_node(Box::new(DumbSwitch::new(SwitchId(1), 8, cfg)));
        let h1 = w.add_node(Box::new(Sink::new()));
        let h2 = w.add_node(Box::new(Sink::new()));
        w.wire(sw, p(1), h1, p(1), LinkParams::ten_gig()).unwrap();
        w.wire(sw, p(2), h2, p(1), LinkParams::ten_gig()).unwrap();
        // A forward, an exhausted drop, and an ID query (whose reply is
        // itself forwarded, shadow-checked again).
        w.inject(
            SimTime::ZERO,
            sw,
            p(1),
            Packet::data(
                MacAddr::for_host(2),
                MacAddr::for_host(1),
                Path::from_ports([2]).unwrap(),
                0,
                0,
                64,
            ),
        );
        w.inject(
            SimTime::ZERO,
            sw,
            p(1),
            Packet::data(
                MacAddr::for_host(2),
                MacAddr::for_host(1),
                Path::empty(),
                0,
                1,
                64,
            ),
        );
        w.inject(
            SimTime::ZERO,
            sw,
            p(1),
            Packet::control(
                MacAddr::BROADCAST,
                MacAddr::for_host(1),
                Path::from_tags([Tag::ID_QUERY, Tag(1)]).unwrap(),
                ControlMessage::Probe {
                    origin: MacAddr::for_host(1),
                    forward_path: Path::from_tags([Tag::ID_QUERY, Tag(1)]).unwrap(),
                    probe_id: 7,
                },
            ),
        );
        w.run_to_idle(1000);
        let stats = w.node::<DumbSwitch>(sw).unwrap().stats();
        assert_eq!(stats.forwarded, 2, "data forward + ID reply forward");
        assert_eq!(stats.dropped_exhausted, 1);
        assert_eq!(stats.id_replies, 1);
        assert_eq!(
            stats.ref_divergence, 0,
            "reference model disagreed with the production path"
        );
        assert_eq!(stats.dropped_malformed, 0);
    }

    #[test]
    fn multi_hop_source_route_matches_paper_example() {
        // Reproduce §3.2: H4 → S4 → S2 → S5 → H5 with path 2-3-5-ø.
        let mut w = World::new(0);
        let s4 = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(4),
            8,
            DumbSwitchConfig::default(),
        )));
        let s2 = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(2),
            8,
            DumbSwitchConfig::default(),
        )));
        let s5 = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(5),
            8,
            DumbSwitchConfig::default(),
        )));
        let h5 = w.add_node(Box::new(Sink::new()));
        // H4 injects directly at S4. Wiring: S4-2 ↔ S2-?, S2-3 ↔ S5-?,
        // S5-5 ↔ H5.
        w.wire(s4, p(2), s2, p(7), LinkParams::ten_gig()).unwrap();
        w.wire(s2, p(3), s5, p(7), LinkParams::ten_gig()).unwrap();
        w.wire(s5, p(5), h5, p(1), LinkParams::ten_gig()).unwrap();
        let pkt = Packet::data(
            MacAddr::for_host(5),
            MacAddr::for_host(4),
            Path::from_ports([2, 3, 5]).unwrap(),
            1,
            0,
            1000,
        );
        w.inject(SimTime::ZERO, s4, p(4), pkt);
        w.run_to_idle(100);
        let got = &w.node::<Sink>(h5).unwrap().got;
        assert_eq!(got.len(), 1);
        assert!(got[0].2.path.is_empty());
        assert_eq!(got[0].2.src, MacAddr::for_host(4));
    }
}
