//! The conventional-network baseline: a spanning-tree L2 switch.
//!
//! Figure 11(b) compares DumbNet's two-stage failure handling against
//! "the off-the-shelf Ethernet Spanning Tree Protocol". This module
//! implements a compact 802.1D-style bridge with the aggressive timers of
//! rapid STP: periodic BPDUs, root election by lowest bridge ID,
//! root/designated/alternate port roles, a forward-delay before a port
//! carries data, MAC learning, and flooding of unknown destinations over
//! the tree.
//!
//! Everything DumbNet removed from the switch is on display here: per-port
//! protocol state, a learned forwarding table, timers, and a multi-round
//! distributed convergence whose duration shows up directly as outage
//! time in the experiment.

use std::any::Any;
use std::collections::HashMap;

use dumbnet_packet::{ControlMessage, Packet, Payload};
use dumbnet_sim::{Ctx, Node};
use dumbnet_types::{MacAddr, Path, PortNo, SimDuration, SimTime};

// Protocol timers, RSTP-aggressive so the baseline is *favourably*
// represented (classic 802.1D's 15 s forward delay would make DumbNet
// look hundreds of times faster, not ~5×).

/// BPDU transmission interval.
const HELLO: SimDuration = SimDuration::from_millis(50);
/// Time a newly forwarding port stays silent (listening/learning).
const FORWARD_DELAY: SimDuration = SimDuration::from_millis(150);
/// Age after which a port's peer information expires.
const MAX_AGE: SimDuration = SimDuration::from_millis(200);

/// Port role in the spanning tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Toward the root; forwards.
    Root,
    /// Away from the root (or host-facing); forwards.
    Designated,
    /// Redundant path; blocked.
    Alternate,
}

#[derive(Debug, Clone, Copy)]
struct PeerInfo {
    root: u64,
    cost: u32,
    sender: u64,
    heard_at: SimTime,
}

/// A spanning-tree learning switch.
#[derive(Debug)]
pub struct StpSwitch {
    id: u64,
    peer: HashMap<PortNo, PeerInfo>,
    roles: HashMap<PortNo, Role>,
    forwarding_since: HashMap<PortNo, SimTime>,
    mac_table: HashMap<MacAddr, PortNo>,
    root: u64,
    root_cost: u32,
    root_port: Option<PortNo>,
    /// Experiment counters.
    pub flooded: u64,
    /// Data packets forwarded via the MAC table.
    pub switched: u64,
    /// Data packets dropped on blocked or immature ports.
    pub blocked_drops: u64,
    /// Number of (re-)convergence events (root or root-port changes).
    pub reconvergences: u64,
}

impl StpSwitch {
    /// Timer token for the periodic hello tick.
    const HELLO_TOKEN: u64 = 1;

    /// Cost horizon: claims about a root farther than this are discarded.
    /// Stale root information otherwise counts to infinity between two
    /// surviving bridges after the root dies (each refreshes the other's
    /// outdated claim with an ever-growing cost); the horizon bounds that
    /// episode to `MAX_COST` hello rounds, like RIP's metric 16.
    const MAX_COST: u32 = 16;

    /// Creates a bridge with the given ID (lower ID wins root election).
    #[must_use]
    pub fn new(id: u64) -> StpSwitch {
        StpSwitch {
            id,
            peer: HashMap::new(),
            roles: HashMap::new(),
            forwarding_since: HashMap::new(),
            mac_table: HashMap::new(),
            root: id,
            root_cost: 0,
            root_port: None,
            flooded: 0,
            switched: 0,
            blocked_drops: 0,
            reconvergences: 0,
        }
    }

    /// The bridge's current idea of the root.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Whether `port` is currently in a forwarding role *and* past its
    /// forward delay.
    fn may_forward(&self, port: PortNo, now: SimTime) -> bool {
        matches!(self.roles.get(&port), Some(Role::Root | Role::Designated))
            && self
                .forwarding_since
                .get(&port)
                .is_some_and(|&since| now - since >= FORWARD_DELAY)
    }

    fn recompute(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Expire stale peer info.
        self.peer.retain(|_, info| now - info.heard_at <= MAX_AGE);

        // Root selection: the best (root, cost+1, sender, port) seen, or
        // ourselves.
        let mut best: Option<(u64, u32, u64, PortNo)> = None;
        for (&port, info) in &self.peer {
            let cand = (info.root, info.cost + 1, info.sender, port);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let (new_root, new_cost, new_root_port) = match best {
            Some((root, cost, _, port)) if root < self.id => (root, cost, Some(port)),
            _ => (self.id, 0, None),
        };
        let changed = new_root != self.root || new_root_port != self.root_port;
        if changed {
            self.reconvergences += 1;
            // Topology change: flush learned addresses.
            self.mac_table.clear();
        }
        self.root = new_root;
        self.root_cost = new_cost;
        self.root_port = new_root_port;

        // Port roles.
        let mut new_roles = HashMap::new();
        ctx.for_each_wired_port(|_, port| {
            let role = if Some(port) == self.root_port {
                Role::Root
            } else {
                match self.peer.get(&port) {
                    None => Role::Designated, // Host port or silent peer.
                    Some(info) => {
                        let mine = (self.root, self.root_cost, self.id);
                        let theirs = (info.root, info.cost, info.sender);
                        if mine < theirs {
                            Role::Designated
                        } else {
                            Role::Alternate
                        }
                    }
                }
            };
            let was_forwarding =
                matches!(self.roles.get(&port), Some(Role::Root | Role::Designated));
            let is_forwarding = matches!(role, Role::Root | Role::Designated);
            if is_forwarding && !was_forwarding {
                self.forwarding_since.insert(port, now);
            } else if !is_forwarding {
                self.forwarding_since.remove(&port);
            }
            new_roles.insert(port, role);
        });
        self.roles = new_roles;
    }

    fn send_bpdus(&mut self, ctx: &mut Ctx<'_>) {
        let msg = ControlMessage::Bpdu {
            root: self.root,
            cost: self.root_cost,
            sender: self.id,
        };
        ctx.for_each_wired_port(|ctx, port| {
            ctx.send(
                port,
                Packet::control(
                    MacAddr::BROADCAST,
                    MacAddr::default(),
                    Path::empty(),
                    msg.clone(),
                ),
            );
        });
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_>, in_port: PortNo, pkt: Packet) {
        let now = ctx.now();
        if !self.may_forward(in_port, now) {
            self.blocked_drops += 1;
            return;
        }
        // Learn the source.
        self.mac_table.insert(pkt.src, in_port);
        match self.mac_table.get(&pkt.dst).copied() {
            Some(out) if out != in_port && self.may_forward(out, now) => {
                self.switched += 1;
                ctx.send(out, pkt);
            }
            Some(out) if out == in_port => {
                // Destination is behind the ingress port; drop.
            }
            _ => {
                self.flooded += 1;
                ctx.for_each_wired_port(|ctx, port| {
                    if port != in_port && self.may_forward(port, now) {
                        ctx.send(port, pkt.clone());
                    }
                });
            }
        }
    }
}

impl Node for StpSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.recompute(ctx);
        self.send_bpdus(ctx);
        ctx.set_timer(HELLO, Self::HELLO_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortNo, pkt: Packet) {
        if let Payload::Control(ControlMessage::Bpdu { root, cost, sender }) = pkt.payload {
            if cost < Self::MAX_COST {
                self.peer.insert(
                    in_port,
                    PeerInfo {
                        root,
                        cost,
                        sender,
                        heard_at: ctx.now(),
                    },
                );
            } else {
                // Beyond the horizon: treat as no information.
                self.peer.remove(&in_port);
            }
            self.recompute(ctx);
            return;
        }
        self.handle_data(ctx, in_port, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == Self::HELLO_TOKEN {
            self.recompute(ctx);
            self.send_bpdus(ctx);
            ctx.set_timer(HELLO, Self::HELLO_TOKEN);
        }
    }

    fn on_link_change(&mut self, ctx: &mut Ctx<'_>, port: PortNo, up: bool) {
        if !up {
            // Carrier loss: hardware-fast expiry of the peer on that port.
            self.peer.remove(&port);
            self.roles.remove(&port);
            self.forwarding_since.remove(&port);
            self.mac_table.retain(|_, &mut p| p != port);
            self.recompute(ctx);
            self.send_bpdus(ctx);
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

    struct Sink {
        got: Vec<(SimTime, u64)>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: PortNo, pkt: Packet) {
            if let Payload::Data { seq, .. } = pkt.payload {
                self.got.push((ctx.now(), seq));
            }
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

    fn data(dst: MacAddr, src: MacAddr, seq: u64) -> Packet {
        Packet::data(dst, src, Path::empty(), 0, seq, 200)
    }

    /// Triangle of three STP switches with a host (sink) on each of
    /// switches 1 and 2: redundant loops that plain flooding would melt.
    fn triangle() -> (World, Vec<NodeAddr>, NodeAddr, NodeAddr) {
        let mut w = World::new(0);
        let s: Vec<NodeAddr> = (0..3)
            .map(|i| w.add_node(Box::new(StpSwitch::new(i as u64))))
            .collect();
        let ha = w.add_node(Box::new(Sink { got: vec![] }));
        let hb = w.add_node(Box::new(Sink { got: vec![] }));
        w.wire(s[0], p(1), s[1], p(1), LinkParams::ten_gig())
            .unwrap();
        w.wire(s[1], p(2), s[2], p(1), LinkParams::ten_gig())
            .unwrap();
        w.wire(s[0], p(2), s[2], p(2), LinkParams::ten_gig())
            .unwrap();
        w.wire(s[1], p(3), ha, p(1), LinkParams::ten_gig()).unwrap();
        w.wire(s[2], p(3), hb, p(1), LinkParams::ten_gig()).unwrap();
        (w, s, ha, hb)
    }

    fn warmup() -> SimTime {
        // Several hellos plus the forward delay.
        SimTime::ZERO + SimDuration::from_millis(500)
    }

    #[test]
    fn converges_on_lowest_id_root() {
        let (mut w, s, _, _) = triangle();
        w.run_until(warmup());
        for &sw in &s {
            assert_eq!(w.node::<StpSwitch>(sw).unwrap().root(), 0);
        }
    }

    #[test]
    fn blocks_exactly_one_triangle_link() {
        let (mut w, s, _, _) = triangle();
        w.run_until(warmup());
        let blocked: usize = s
            .iter()
            .map(|&sw| {
                let node = w.node::<StpSwitch>(sw).unwrap();
                node.roles
                    .values()
                    .filter(|r| matches!(r, Role::Alternate))
                    .count()
            })
            .sum();
        assert_eq!(blocked, 1, "a 3-cycle needs exactly one blocked port");
    }

    #[test]
    fn unicast_delivered_without_loop_storm() {
        let (mut w, s, _ha, hb) = triangle();
        w.run_until(warmup());
        // Host A (on s1 port 3) sends to host B's MAC (unknown → flood).
        let a_mac = MacAddr::for_host(100);
        let b_mac = MacAddr::for_host(200);
        w.inject(warmup(), s[1], p(3), data(b_mac, a_mac, 1));
        let before = w.stats().packets_sent;
        w.run_until(warmup() + SimDuration::from_millis(40));
        let got = &w.node::<Sink>(hb).unwrap().got;
        assert_eq!(got.len(), 1, "exactly one copy delivered");
        // No broadcast storm: bounded number of data transmissions.
        let sent = w.stats().packets_sent - before;
        assert!(sent < 50, "storm suspected: {sent} packets");
    }

    #[test]
    fn learns_and_switches_after_first_flood() {
        let (mut w, s, ha, _hb) = triangle();
        w.run_until(warmup());
        let a_mac = MacAddr::for_host(100);
        let b_mac = MacAddr::for_host(200);
        // A → B (flood teaches everyone where A is).
        w.inject(warmup(), s[1], p(3), data(b_mac, a_mac, 1));
        w.run_until(warmup() + SimDuration::from_millis(20));
        // B → A should now be switched, not flooded, at s2.
        let flooded_before = w.node::<StpSwitch>(s[2]).unwrap().flooded;
        w.inject(
            warmup() + SimDuration::from_millis(20),
            s[2],
            p(3),
            data(a_mac, b_mac, 2),
        );
        w.run_until(warmup() + SimDuration::from_millis(40));
        let sw2 = w.node::<StpSwitch>(s[2]).unwrap();
        assert_eq!(sw2.flooded, flooded_before, "reply must not flood");
        assert!(sw2.switched >= 1);
        assert_eq!(w.node::<Sink>(ha).unwrap().got.len(), 1);
    }

    #[test]
    fn recovers_after_tree_link_failure() {
        let (mut w, s, _ha, hb) = triangle();
        w.run_until(warmup());
        let a_mac = MacAddr::for_host(100);
        let b_mac = MacAddr::for_host(200);
        // Prime the path.
        w.inject(warmup(), s[1], p(3), data(b_mac, a_mac, 1));
        w.run_until(warmup() + SimDuration::from_millis(50));
        assert_eq!(w.node::<Sink>(hb).unwrap().got.len(), 1);
        // Cut the s1–s2 link (on the tree, since s0 is root the s1↔s2
        // link may be the blocked one; cut s1's root link instead: s0-s1).
        let wid = w.wire_at(s[0], p(1)).unwrap();
        let t_fail = warmup() + SimDuration::from_millis(100);
        w.schedule_link_state(t_fail, wid, false);
        // Give the protocol time to reconverge, then send again.
        let t_retry = t_fail + SimDuration::from_millis(600);
        w.inject(t_retry, s[1], p(3), data(b_mac, a_mac, 2));
        w.run_until(t_retry + SimDuration::from_millis(100));
        let got = &w.node::<Sink>(hb).unwrap().got;
        assert_eq!(got.len(), 2, "delivery must resume after reconvergence");
    }

    #[test]
    fn root_failure_elects_new_root() {
        // Kill every link of the root bridge: the survivors must elect
        // bridge 1 and keep forwarding among themselves.
        let (mut w, s, _ha, hb) = triangle();
        w.run_until(warmup());
        for &sw in &s {
            assert_eq!(w.node::<StpSwitch>(sw).unwrap().root(), 0);
        }
        let t_fail = warmup() + SimDuration::from_millis(50);
        for port in [p(1), p(2)] {
            let wid = w.wire_at(s[0], port).unwrap();
            w.schedule_link_state(t_fail, wid, false);
        }
        // Allow the count-to-horizon episode (≤16 hello rounds) to end.
        w.run_until(t_fail + SimDuration::from_millis(1_200));
        assert_eq!(w.node::<StpSwitch>(s[1]).unwrap().root(), 1);
        assert_eq!(w.node::<StpSwitch>(s[2]).unwrap().root(), 1);
        // Traffic between the survivors' hosts still flows.
        let t_send = t_fail + SimDuration::from_millis(1_400);
        w.inject(
            t_send,
            s[1],
            p(3),
            data(MacAddr::for_host(200), MacAddr::for_host(100), 9),
        );
        w.run_until(t_send + SimDuration::from_millis(50));
        assert!(
            w.node::<Sink>(hb)
                .unwrap()
                .got
                .iter()
                .any(|(_, seq)| *seq == 9),
            "post-election delivery failed"
        );
    }

    #[test]
    fn data_before_convergence_is_contained() {
        // Packets injected immediately (before forward delay) are
        // dropped rather than looped.
        let (mut w, s, _ha, hb) = triangle();
        let a_mac = MacAddr::for_host(100);
        let b_mac = MacAddr::for_host(200);
        w.inject(
            SimTime::ZERO + SimDuration::from_millis(1),
            s[1],
            p(3),
            data(b_mac, a_mac, 1),
        );
        w.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        assert!(w.node::<Sink>(hb).unwrap().got.is_empty());
        assert!(w.node::<StpSwitch>(s[1]).unwrap().blocked_drops >= 1);
    }
}
