//! Fault injection: per-wire loss and deterministic chaos plans.
//!
//! The engine models a *healthy* fabric by default: wires deliver every
//! packet they accept, switches never die. §7 of the paper evaluates
//! failure handling by killing links, and a loss-tolerant control plane
//! needs an adversarial substrate to be tested against. Every fault an
//! experiment injects is one of four kinds:
//!
//! * uniform per-wire loss — a wire's fault state is one number, the
//!   probability that a packet it accepts is lost in flight
//!   ([`Engine::set_loss`], [`Engine::schedule_loss`]);
//! * a hard link down/up ([`Engine::schedule_link_state`]);
//! * [`CrashSchedule`] — a switch (or host) crash and optional restart;
//! * [`PartitionSchedule`] — named cells whose cross-cell wires all go
//!   down for a window, then heal.
//!
//! [`ChaosPlan`] is a seeded, fully deterministic bundle of loss, crashes
//! and partitions, applied to any [`Engine`] (a [`World`](crate::World)
//! or a [`ShardedWorld`](crate::ShardedWorld)) in one call.
//!
//! Loss coin flips draw from a dedicated RNG seeded from
//! [`ChaosPlan::seed`], *separate* from the world's own RNG: the same
//! workload under two different chaos seeds sees identical application
//! behaviour, and replaying a plan reproduces the exact same drops.

use dumbnet_types::{SimDuration, SimTime};

use crate::engine::Engine;
use crate::engine::{NodeAddr, WireId};

/// A node crash, with an optional later restart.
///
/// A crashed node is deaf: arrivals addressed to it are discarded (and
/// counted), its pending timers are suppressed, and every incident wire
/// is taken down so neighbours observe carrier loss. On restart the
/// wires come back up and the node's
/// [`Node::on_restart`](crate::Node::on_restart) hook runs with all
/// volatile progress (outstanding timers) gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The node to crash.
    pub node: NodeAddr,
    /// When it crashes.
    pub at: SimTime,
    /// How long it stays dead; `None` means forever.
    pub restart_after: Option<SimDuration>,
}

/// A network partition: the fabric is cut into named cells for a
/// window, then healed.
///
/// Every wire whose two endpoints sit in *different* cells goes
/// administratively down at `start` and comes back at
/// `start + heal_after`. Cuts are physical: a wire is severed only if
/// both endpoints are listed and in different cells, so nodes left out
/// of every cell keep all their wires. Endpoint membership is resolved
/// against the world when the plan is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSchedule {
    /// Named cells: `(label, member nodes)`. Labels are for reports
    /// and debugging only.
    pub cells: Vec<(String, Vec<NodeAddr>)>,
    /// When the cut happens.
    pub start: SimTime,
    /// How long the cut lasts before every severed wire heals.
    pub heal_after: SimDuration,
}

impl PartitionSchedule {
    /// Cell index of `node`, if it is listed in any cell.
    fn cell_of(&self, node: NodeAddr) -> Option<usize> {
        self.cells
            .iter()
            .position(|(_, members)| members.contains(&node))
    }

    /// The wires this partition severs: every wire whose endpoints
    /// resolve to two different cells.
    #[must_use]
    pub fn severed_wires<E: Engine>(&self, world: &E) -> Vec<WireId> {
        let mut cut = Vec::new();
        for ix in 0..world.wire_count() {
            let wire = WireId::from_raw(ix);
            let ((a, _), (b, _)) = world.wire_endpoints(wire);
            if let (Some(ca), Some(cb)) = (self.cell_of(a), self.cell_of(b)) {
                if ca != cb {
                    cut.push(wire);
                }
            }
        }
        cut
    }
}

/// A complete, deterministic chaos scenario.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for the fault RNG (loss coin flips).
    pub seed: u64,
    /// Per-wire loss probabilities.
    pub link_faults: Vec<(WireId, f64)>,
    /// Node crash schedules.
    pub crashes: Vec<CrashSchedule>,
    /// Partition windows.
    pub partitions: Vec<PartitionSchedule>,
}

impl ChaosPlan {
    /// A plan with the given fault seed and nothing scheduled.
    #[must_use]
    pub fn seeded(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Sets `wire`'s loss probability to `p` (replacing any previous one).
    pub fn with_link_fault(mut self, wire: WireId, p: f64) -> ChaosPlan {
        self.link_faults.retain(|(w, _)| *w != wire);
        self.link_faults.push((wire, p));
        self
    }

    /// Adds a crash schedule.
    pub fn with_crash(mut self, crash: CrashSchedule) -> ChaosPlan {
        self.crashes.push(crash);
        self
    }

    /// Adds a partition window.
    pub fn with_partition(mut self, partition: PartitionSchedule) -> ChaosPlan {
        self.partitions.push(partition);
        self
    }

    /// Installs the whole plan into `world`: seeds the fault RNG, sets
    /// the per-wire loss, and schedules every crash/restart and
    /// partition cut/heal. Works on any [`Engine`] — on a sharded world
    /// every scheduled disruption is mirrored into the affected shards
    /// with a shared ordering key, so chaos semantics are identical at
    /// any shard count.
    pub fn apply<E: Engine>(&self, world: &mut E) {
        world.set_fault_seed(self.seed);
        for &(wire, p) in &self.link_faults {
            world.set_loss(wire, p);
        }
        for crash in &self.crashes {
            world.schedule_crash(crash.at, crash.node);
            if let Some(after) = crash.restart_after {
                world.schedule_restart(crash.at.after(after), crash.node);
            }
        }
        for partition in &self.partitions {
            for wire in partition.severed_wires(world) {
                world.schedule_link_state(partition.start, wire, false);
                world.schedule_link_state(partition.start.after(partition.heal_after), wire, true);
            }
        }
    }

    /// The time of the last scheduled (non-probabilistic) fault event:
    /// final crash/restart or partition heal. Probabilistic loss has no
    /// end; this marks when the *deterministic* disruptions stop.
    #[must_use]
    pub fn last_scheduled_event(&self) -> Option<SimTime> {
        let crashes = self
            .crashes
            .iter()
            .map(|c| c.restart_after.map_or(c.at, |after| c.at.after(after)));
        let heals = self.partitions.iter().map(|p| p.start.after(p.heal_after));
        crashes.chain(heals).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    use proptest::prelude::*;

    use dumbnet_packet::Packet;
    use dumbnet_types::{Bandwidth, MacAddr, Path, PortNo};

    use crate::engine::{Ctx, LinkParams, LinkStats, Node, World, WorldStats};
    use crate::shard::ShardedWorld;

    const P1: PortNo = match PortNo::new(1) {
        Some(p) => p,
        None => unreachable!(),
    };

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO.after(SimDuration::from_millis(ms))
    }

    /// A deaf two-port node for wiring test worlds.
    struct Mute;
    impl Node for Mute {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _in_port: PortNo, _pkt: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A 4-node line a—b—c—d; returns the world and its three wires.
    fn line_world() -> (World, [WireId; 3], [NodeAddr; 4]) {
        let p2 = PortNo::new(2).unwrap();
        let mut w = World::new(0);
        let nodes = [
            w.add_node(Box::new(Mute)),
            w.add_node(Box::new(Mute)),
            w.add_node(Box::new(Mute)),
            w.add_node(Box::new(Mute)),
        ];
        let wires = [
            w.wire(nodes[0], P1, nodes[1], P1, LinkParams::ten_gig())
                .unwrap(),
            w.wire(nodes[1], p2, nodes[2], P1, LinkParams::ten_gig())
                .unwrap(),
            w.wire(nodes[2], p2, nodes[3], P1, LinkParams::ten_gig())
                .unwrap(),
        ];
        (w, wires, nodes)
    }

    #[test]
    fn last_scheduled_event_covers_crashes_and_partitions() {
        let plan = ChaosPlan::seeded(1)
            .with_crash(CrashSchedule {
                node: NodeAddr(0),
                at: t(120),
                restart_after: Some(SimDuration::from_millis(200)),
            })
            .with_crash(CrashSchedule {
                node: NodeAddr(1),
                at: t(400),
                restart_after: None,
            })
            .with_partition(PartitionSchedule {
                cells: Vec::new(),
                start: t(100),
                heal_after: SimDuration::from_millis(250),
            });
        // The permanent crash at 400 ms beats the restart at 320 ms and
        // the heal at 350 ms.
        assert_eq!(plan.last_scheduled_event(), Some(t(400)));
        assert_eq!(ChaosPlan::default().last_scheduled_event(), None);
    }

    #[test]
    fn partition_severs_exactly_cross_cell_wires() {
        let (w, wires, nodes) = line_world();
        let cut = PartitionSchedule {
            cells: vec![
                ("left".into(), vec![nodes[0], nodes[1]]),
                ("right".into(), vec![nodes[2], nodes[3]]),
            ],
            start: t(10),
            heal_after: SimDuration::from_millis(20),
        };
        // Only the b—c wire crosses the cut; intra-cell wires survive.
        assert_eq!(cut.severed_wires(&w), vec![wires[1]]);
    }

    #[test]
    fn unlisted_nodes_keep_all_wires() {
        let (w, _, nodes) = line_world();
        // Node d is in no cell: its wire to c must not be severed even
        // though c is listed.
        let cut = PartitionSchedule {
            cells: vec![
                ("left".into(), vec![nodes[0]]),
                ("right".into(), vec![nodes[1], nodes[2]]),
            ],
            start: t(0),
            heal_after: SimDuration::from_millis(1),
        };
        let severed = cut.severed_wires(&w);
        assert_eq!(severed.len(), 1, "only a—b crosses cells: {severed:?}");
    }

    #[test]
    fn applied_partition_cuts_then_heals() {
        let (mut w, wires, nodes) = line_world();
        let plan = ChaosPlan::seeded(7).with_partition(PartitionSchedule {
            cells: vec![
                ("left".into(), vec![nodes[0], nodes[1]]),
                ("right".into(), vec![nodes[2], nodes[3]]),
            ],
            start: t(10),
            heal_after: SimDuration::from_millis(20),
        });
        assert_eq!(plan.last_scheduled_event(), Some(t(30)));
        plan.apply(&mut w);
        w.run_until(t(15));
        assert!(!w.wire_up(wires[1]), "cross-cell wire still up mid-window");
        assert!(w.wire_up(wires[0]), "intra-cell wire went down");
        assert!(w.wire_up(wires[2]), "intra-cell wire went down");
        w.run_until(t(31));
        assert!(w.wire_up(wires[1]), "cross-cell wire never healed");
    }

    #[test]
    fn with_link_fault_replaces_previous_loss() {
        let w = WireId::from_raw(3);
        let plan = ChaosPlan::seeded(0)
            .with_link_fault(w, 0.5)
            .with_link_fault(w, 0.1);
        assert_eq!(plan.link_faults, vec![(w, 0.1)]);
    }

    /// Sends `total` packets, one per 100 µs; counts what it receives.
    struct Chatter {
        total: u64,
        sent: u64,
        received: u64,
        restarts: u32,
    }

    impl Chatter {
        fn new(total: u64) -> Chatter {
            Chatter {
                total,
                sent: 0,
                received: 0,
                restarts: 0,
            }
        }
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: PortNo, _pkt: Packet) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.total {
                self.sent += 1;
                let pkt = Packet::data(
                    MacAddr::for_host(0),
                    MacAddr::for_host(1),
                    Path::empty(),
                    0,
                    self.sent,
                    100,
                );
                ctx.send(P1, pkt);
                ctx.set_timer(SimDuration::from_micros(100), 0);
            }
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
            self.restarts += 1;
            // Resume the send loop: the pre-crash timer is dead.
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Chatter `a` sends `total` packets to a silent chatter `b` over
    /// one 1 Gbps wire.
    fn pair(total: u64) -> (World, NodeAddr, NodeAddr, WireId) {
        let mut w = World::new(7);
        let a = w.add_node(Box::new(Chatter::new(total)));
        let b = w.add_node(Box::new(Chatter::new(0)));
        let params = LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth: Bandwidth::gbps(1),
            max_queue: SimDuration::from_millis(10),
            ecn_threshold: None,
        };
        let wid = w.wire(a, P1, b, P1, params).unwrap();
        (w, a, b, wid)
    }

    #[test]
    fn injected_loss_rate_tracks_probability() {
        let (mut w, _a, _b, wid) = pair(10_000);
        ChaosPlan::seeded(5)
            .with_link_fault(wid, 0.05)
            .apply(&mut w);
        w.run_to_idle(u64::MAX);
        // 10 000 sends at 5 %: the drop count must track the configured
        // probability, not just be nonzero (a regression here once hid
        // behind weaker "> 0" assertions).
        let drops = w.stats().drops_loss;
        assert!(
            (300..700).contains(&drops),
            "5% of 10k sends should drop ~500, got {drops}"
        );
    }

    #[test]
    fn total_loss_delivers_nothing() {
        let (mut w, _a, b, wid) = pair(10);
        ChaosPlan::seeded(3).with_link_fault(wid, 1.0).apply(&mut w);
        w.run_to_idle(u64::MAX);
        let ls = w.link_stats(wid);
        assert_eq!((ls.sent, ls.delivered), (10, 0));
        assert_eq!(ls.sent, ls.drops_loss);
        assert_eq!(w.node::<Chatter>(b).unwrap().received, 0);
    }

    #[test]
    fn crash_and_restart_are_survivable() {
        let (mut w, a, b, _wid) = pair(200);
        // Receiver crashes at 2 ms, back at 5 ms.
        let plan = ChaosPlan::seeded(0).with_crash(CrashSchedule {
            node: b,
            at: t(2),
            restart_after: Some(SimDuration::from_millis(3)),
        });
        assert_eq!(plan.last_scheduled_event(), Some(t(5)));
        plan.apply(&mut w);
        w.run_to_idle(u64::MAX);
        let recv = w.node::<Chatter>(b).unwrap();
        assert_eq!(recv.restarts, 1);
        assert!(recv.received > 0);
        // In-flight and wire-refused drops both show up somewhere.
        let stats = w.stats();
        assert!(
            stats.drops_crashed + stats.drops_down > 0,
            "crash window dropped nothing"
        );
        assert_eq!(w.node::<Chatter>(a).unwrap().sent, 200);
        assert!(recv.received < 200, "crash window lost packets");
    }

    #[test]
    fn same_seed_same_drops() {
        let run = || {
            let (mut w, _a, b, wid) = pair(100);
            ChaosPlan::seeded(99)
                .with_link_fault(wid, 0.1)
                .apply(&mut w);
            w.run_until(t(50));
            let received = w.node::<Chatter>(b).unwrap().received;
            (w.stats(), w.link_stats(wid), received)
        };
        assert_eq!(run(), run());
    }

    /// A ring of `n` chatters, each sending `total` packets to its
    /// successor, node `i` in cell `i`.
    fn ring<E: Engine>(w: &mut E, n: u32, total: u64) -> Vec<WireId> {
        let p2 = PortNo::new(2).unwrap();
        let nodes: Vec<NodeAddr> = (0..n)
            .map(|c| w.add_node_in_cell(Box::new(Chatter::new(total)), c))
            .collect();
        let params = LinkParams {
            latency: SimDuration::from_micros(3),
            bandwidth: Bandwidth::gbps(1),
            max_queue: SimDuration::from_millis(10),
            ecn_threshold: None,
        };
        (0..nodes.len())
            .map(|i| {
                let next = nodes[(i + 1) % nodes.len()];
                w.wire(nodes[i], P1, next, p2, params).unwrap()
            })
            .collect()
    }

    /// Runs the ring under random loss, one crash/restart and one
    /// partition to idle; returns the global and per-wire counters.
    fn conserved_run<E: Engine>(
        mut w: E,
        loss: &[f64],
        crash: (u32, u64, u64),
        cut: (u64, u64),
    ) -> (WorldStats, Vec<LinkStats>) {
        let wires = ring(&mut w, 4, 60);
        let mut plan = ChaosPlan::seeded(13)
            .with_crash(CrashSchedule {
                node: NodeAddr(crash.0 as usize),
                at: SimTime::ZERO.after(SimDuration::from_micros(crash.1)),
                restart_after: Some(SimDuration::from_micros(crash.2)),
            })
            .with_partition(PartitionSchedule {
                cells: vec![
                    ("a".into(), vec![NodeAddr(0), NodeAddr(1)]),
                    ("b".into(), vec![NodeAddr(2), NodeAddr(3)]),
                ],
                start: SimTime::ZERO.after(SimDuration::from_micros(cut.0)),
                heal_after: SimDuration::from_micros(cut.1),
            });
        for (&wire, &p) in wires.iter().zip(loss) {
            plan = plan.with_link_fault(wire, p);
        }
        plan.apply(&mut w);
        w.run_to_idle(u64::MAX);
        let links = wires.iter().map(|&wire| w.link_stats(wire)).collect();
        (w.stats(), links)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `LinkStats`' conservation law, exactly: once the engine is
        /// idle every packet a wire accepted was delivered, lost or
        /// discarded at a crashed far end, and the global loss counter
        /// is the sum of the wires'. At 1 and 4 shards alike, and for
        /// probabilities outside `[0, 1]` too (they clamp).
        #[test]
        fn every_accepted_packet_has_one_fate(
            loss in proptest::collection::vec(-0.5f64..1.5, 4..5),
            crash in (0u32..4, 0u64..6_000, 1u64..3_000),
            cut in (0u64..6_000, 1u64..3_000),
        ) {
            let one = conserved_run(World::new(5), &loss, crash, cut);
            let four = conserved_run(ShardedWorld::new(5, 4), &loss, crash, cut);
            prop_assert_eq!(&one, &four);
            let (stats, links) = one;
            for ls in &links {
                prop_assert_eq!(ls.sent, ls.delivered + ls.drops_loss + ls.drops_crashed);
            }
            let lost: u64 = links.iter().map(|ls| ls.drops_loss).sum();
            prop_assert_eq!(stats.drops_loss, lost);
        }
    }
}
