//! Fault injection: per-link fault profiles and deterministic chaos
//! plans.
//!
//! The engine models a *healthy* fabric by default: wires deliver every
//! packet they accept, switches never die. Real data centers misbehave —
//! §7 of the paper evaluates failure handling by killing links, and any
//! loss-tolerant control plane needs an adversarial substrate to be
//! tested against. This module supplies that substrate:
//!
//! * [`FaultProfile`] — per-wire probabilistic packet loss, bit
//!   corruption (dropped at delivery: the receiver's FCS check would
//!   reject the mangled frame anyway), uniform delivery jitter (which
//!   reorders packets), and bounded-burst drop windows during which the
//!   wire blackholes everything. Gray-failure shapes extend the basic
//!   probabilities: asymmetric per-direction loss ([`FaultProfile::
//!   loss_dir`]), a [`LossRamp`] that degrades the wire progressively,
//!   and [`CorruptWindow`]s of intermittent bit corruption.
//! * [`FlapSchedule`] — periodic administrative link down/up cycles.
//! * [`CrashSchedule`] — switch (or host) crash and optional restart.
//! * [`PartitionSchedule`] — a network partition: named cells whose
//!   cross-cell wires all go down for a window, then heal.
//! * [`ChaosPlan`] — a seeded, fully deterministic bundle of all of the
//!   above, applied to any [`Engine`] (a [`World`](crate::World) or a
//!   [`ShardedWorld`](crate::ShardedWorld)) in one call.
//!
//! Fault randomness draws from a dedicated RNG seeded from
//! [`ChaosPlan::seed`], *separate* from the world's own RNG: the same
//! workload under two different chaos seeds sees identical application
//! behaviour, and replaying a plan reproduces the exact same drops.

use dumbnet_types::{SimDuration, SimTime};

use crate::engine::Engine;
use crate::engine::{NodeAddr, WireId};

/// Per-wire fault behaviour. The default profile is fault-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability in `[0, 1]` that a packet accepted onto the wire is
    /// lost in flight.
    pub loss: f64,
    /// Probability in `[0, 1]` that a packet is bit-corrupted in
    /// flight. Corrupted packets are counted separately from plain
    /// losses and dropped before delivery (the FCS would not verify).
    pub corrupt: f64,
    /// Maximum extra delivery delay, drawn uniformly from
    /// `[0, jitter]` per packet. Because arrival order follows the
    /// event queue, jitter larger than a packet gap reorders packets.
    pub jitter: SimDuration,
    /// Absolute time windows during which the wire drops everything
    /// (models a flaky transceiver browning out in bursts).
    pub bursts: Vec<BurstWindow>,
    /// Additional per-direction loss probability, indexed by the
    /// engine's wire direction (0 = a→b, 1 = b→a). Models the common
    /// gray failure where only one direction of an optic degrades;
    /// added on top of `loss` for packets travelling that way.
    pub loss_dir: [f64; 2],
    /// Progressive degradation: loss ramping linearly over a window and
    /// staying at the final rate afterwards. Added on top of `loss`.
    pub ramp: Option<LossRamp>,
    /// Intermittent corruption windows; while one is open its
    /// probability is added on top of `corrupt` (models a marginal
    /// transceiver flipping bits in episodes rather than uniformly).
    pub corrupt_windows: Vec<CorruptWindow>,
}

impl FaultProfile {
    /// A profile that only loses packets, with probability `p`.
    #[must_use]
    pub fn lossy(p: f64) -> FaultProfile {
        FaultProfile {
            loss: p,
            ..FaultProfile::default()
        }
    }

    /// Whether this profile can ever affect a packet.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.loss <= 0.0
            && self.corrupt <= 0.0
            && self.jitter == SimDuration::ZERO
            && self.bursts.is_empty()
            && self.loss_dir[0] <= 0.0
            && self.loss_dir[1] <= 0.0
            && self.ramp.is_none()
            && self.corrupt_windows.is_empty()
    }

    /// Whether `t` falls inside any burst-drop window.
    #[must_use]
    pub fn in_burst(&self, t: SimTime) -> bool {
        self.bursts
            .iter()
            .any(|b| t >= b.start && t < b.start.after(b.duration))
    }

    /// Effective loss probability for a packet departing at `t` in wire
    /// direction `dir`: the base rate plus the directional extra plus
    /// the ramp contribution, clamped to `[0, 1]`. Exactly `loss` when
    /// no gray shape is configured, so legacy profiles draw the same
    /// RNG sequence they always did.
    #[must_use]
    pub fn loss_at(&self, t: SimTime, dir: usize) -> f64 {
        let mut p = self.loss + self.loss_dir[dir.min(1)];
        if let Some(r) = &self.ramp {
            p += r.rate_at(t);
        }
        p.clamp(0.0, 1.0)
    }

    /// Effective corruption probability at departure time `t`: the base
    /// rate plus every open corruption window, clamped to `[0, 1]`.
    /// Exactly `corrupt` when no window is configured.
    #[must_use]
    pub fn corrupt_at(&self, t: SimTime) -> f64 {
        let mut p = self.corrupt;
        for w in &self.corrupt_windows {
            if t >= w.start && t < w.start.after(w.duration) {
                p += w.probability;
            }
        }
        p.clamp(0.0, 1.0)
    }
}

/// A linear loss ramp: a link degrading progressively instead of
/// failing outright. Before `start` it contributes nothing; during
/// `[start, start + duration)` the contribution interpolates linearly
/// from `from` to `to`; afterwards it stays at `to` (a degraded optic
/// does not heal by itself — schedule a profile change to model repair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRamp {
    /// When degradation begins.
    pub start: SimTime,
    /// How long the rate takes to reach `to`.
    pub duration: SimDuration,
    /// Loss contribution at `start`.
    pub from: f64,
    /// Loss contribution at `start + duration` and forever after.
    pub to: f64,
}

impl LossRamp {
    /// The ramp's loss contribution at time `t`.
    #[must_use]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        if t < self.start {
            return 0.0;
        }
        let end = self.start.after(self.duration);
        if t >= end || self.duration == SimDuration::ZERO {
            return self.to;
        }
        let frac = (t - self.start).nanos() as f64 / self.duration.nanos() as f64;
        self.from + (self.to - self.from) * frac
    }
}

/// A bounded window of elevated bit corruption on one wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptWindow {
    /// When the window opens.
    pub start: SimTime,
    /// How long it stays open.
    pub duration: SimDuration,
    /// Corruption probability added while open.
    pub probability: f64,
}

/// A bounded window of total packet loss on one wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstWindow {
    /// When the burst begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
}

/// A periodic administrative down/up cycle for one wire.
///
/// Cycle `i` takes the wire down at `first_down + i·period` and back up
/// `down_for` later. Both endpoints get carrier notifications, exactly
/// as with [`World::schedule_link_state`](crate::World::schedule_link_state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// The wire to flap.
    pub wire: WireId,
    /// Start of the first down phase.
    pub first_down: SimTime,
    /// Length of each down phase. Must be shorter than `period`.
    pub down_for: SimDuration,
    /// Distance between successive down phases.
    pub period: SimDuration,
    /// Number of down/up cycles.
    pub cycles: u32,
}

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
    /// Seed for the fault RNG (loss/corrupt coin flips, jitter draws).
    pub seed: u64,
    /// Per-wire fault profiles.
    pub link_faults: Vec<(WireId, FaultProfile)>,
    /// Link flap schedules.
    pub flaps: Vec<FlapSchedule>,
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

    /// Adds a fault profile for `wire` (replacing any previous one).
    pub fn with_link_fault(mut self, wire: WireId, profile: FaultProfile) -> ChaosPlan {
        self.link_faults.retain(|(w, _)| *w != wire);
        self.link_faults.push((wire, profile));
        self
    }

    /// Adds a flap schedule.
    pub fn with_flap(mut self, flap: FlapSchedule) -> ChaosPlan {
        self.flaps.push(flap);
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
    /// the per-wire profiles, and schedules every flap transition and
    /// crash/restart event. Works on any [`Engine`] — on a sharded
    /// world every scheduled disruption is mirrored into the affected
    /// shards with a shared ordering key, so chaos semantics are
    /// identical at any shard count.
    pub fn apply<E: Engine>(&self, world: &mut E) {
        world.set_fault_seed(self.seed);
        for (wire, profile) in &self.link_faults {
            world.set_fault_profile(*wire, profile.clone());
        }
        for flap in &self.flaps {
            for cycle in 0..flap.cycles {
                let down_at = flap.first_down.after(SimDuration::from_nanos(
                    flap.period.nanos().saturating_mul(u64::from(cycle)),
                ));
                world.schedule_link_state(down_at, flap.wire, false);
                world.schedule_link_state(down_at.after(flap.down_for), flap.wire, true);
            }
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
    /// final flap recovery or final crash/restart. Probabilistic loss
    /// has no end; this marks when the *deterministic* disruptions stop.
    #[must_use]
    pub fn last_scheduled_event(&self) -> Option<SimTime> {
        let mut last: Option<SimTime> = None;
        let mut update = |t: SimTime| {
            last = Some(match last {
                Some(cur) if cur >= t => cur,
                _ => t,
            });
        };
        for flap in &self.flaps {
            if flap.cycles == 0 {
                continue;
            }
            let last_down = flap.first_down.after(SimDuration::from_nanos(
                flap.period
                    .nanos()
                    .saturating_mul(u64::from(flap.cycles - 1)),
            ));
            update(last_down.after(flap.down_for));
        }
        for crash in &self.crashes {
            match crash.restart_after {
                Some(after) => update(crash.at.after(after)),
                None => update(crash.at),
            }
        }
        for (_, profile) in &self.link_faults {
            for b in &profile.bursts {
                update(b.start.after(b.duration));
            }
            if let Some(r) = &profile.ramp {
                update(r.start.after(r.duration));
            }
            for w in &profile.corrupt_windows {
                update(w.start.after(w.duration));
            }
        }
        for partition in &self.partitions {
            update(partition.start.after(partition.heal_after));
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO.after(SimDuration::from_millis(ms))
    }

    #[test]
    fn burst_windows_are_half_open() {
        let p = FaultProfile {
            bursts: vec![BurstWindow {
                start: t(10),
                duration: SimDuration::from_millis(5),
            }],
            ..FaultProfile::default()
        };
        assert!(!p.in_burst(t(9)));
        assert!(p.in_burst(t(10)));
        assert!(p.in_burst(t(14)));
        assert!(!p.in_burst(t(15)));
    }

    #[test]
    fn benign_detection() {
        assert!(FaultProfile::default().is_benign());
        assert!(!FaultProfile::lossy(0.01).is_benign());
        let jitter_only = FaultProfile {
            jitter: SimDuration::from_micros(1),
            ..FaultProfile::default()
        };
        assert!(!jitter_only.is_benign());
    }

    #[test]
    fn last_scheduled_event_covers_flaps_crashes_bursts() {
        let plan = ChaosPlan::seeded(1)
            .with_flap(FlapSchedule {
                wire: WireId::from_raw(0),
                first_down: t(100),
                down_for: SimDuration::from_millis(10),
                period: SimDuration::from_millis(50),
                cycles: 3,
            })
            .with_crash(CrashSchedule {
                node: NodeAddr(0),
                at: t(120),
                restart_after: Some(SimDuration::from_millis(200)),
            });
        // Last flap recovery: 100 + 2*50 + 10 = 210 ms; crash restart at
        // 320 ms wins.
        assert_eq!(plan.last_scheduled_event(), Some(t(320)));
        assert_eq!(ChaosPlan::default().last_scheduled_event(), None);
    }

    /// A deaf two-port node for wiring test worlds.
    struct Mute;
    impl crate::engine::Node for Mute {
        fn on_packet(
            &mut self,
            _ctx: &mut crate::engine::Ctx<'_>,
            _in_port: dumbnet_types::PortNo,
            _pkt: dumbnet_packet::Packet,
        ) {
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A 4-node line a—b—c—d; returns the world and its three wires.
    fn line_world() -> (World, [WireId; 3], [NodeAddr; 4]) {
        use crate::engine::LinkParams;
        let p1 = dumbnet_types::PortNo::new(1).unwrap();
        let p2 = dumbnet_types::PortNo::new(2).unwrap();
        let mut w = World::new(0);
        let nodes = [
            w.add_node(Box::new(Mute)),
            w.add_node(Box::new(Mute)),
            w.add_node(Box::new(Mute)),
            w.add_node(Box::new(Mute)),
        ];
        let wires = [
            w.wire(nodes[0], p1, nodes[1], p1, LinkParams::ten_gig())
                .unwrap(),
            w.wire(nodes[1], p2, nodes[2], p1, LinkParams::ten_gig())
                .unwrap(),
            w.wire(nodes[2], p2, nodes[3], p1, LinkParams::ten_gig())
                .unwrap(),
        ];
        (w, wires, nodes)
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
    fn directional_loss_only_hits_one_direction() {
        let p = FaultProfile {
            loss_dir: [0.0, 0.3],
            ..FaultProfile::default()
        };
        assert!(!p.is_benign());
        assert!((p.loss_at(t(0), 0) - 0.0).abs() < f64::EPSILON);
        assert!((p.loss_at(t(0), 1) - 0.3).abs() < f64::EPSILON);
        // Legacy uniform loss stays direction-independent.
        let uniform = FaultProfile::lossy(0.2);
        assert!((uniform.loss_at(t(5), 0) - 0.2).abs() < f64::EPSILON);
        assert!((uniform.loss_at(t(5), 1) - 0.2).abs() < f64::EPSILON);
    }

    #[test]
    fn loss_ramp_interpolates_and_saturates() {
        let p = FaultProfile {
            ramp: Some(LossRamp {
                start: t(100),
                duration: SimDuration::from_millis(100),
                from: 0.0,
                to: 0.5,
            }),
            ..FaultProfile::default()
        };
        assert!(!p.is_benign());
        assert!((p.loss_at(t(50), 0) - 0.0).abs() < f64::EPSILON);
        assert!((p.loss_at(t(150), 0) - 0.25).abs() < 1e-9);
        assert!((p.loss_at(t(200), 0) - 0.5).abs() < f64::EPSILON);
        assert!((p.loss_at(t(900), 0) - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn corrupt_windows_open_and_close() {
        let p = FaultProfile {
            corrupt: 0.01,
            corrupt_windows: vec![CorruptWindow {
                start: t(10),
                duration: SimDuration::from_millis(5),
                probability: 0.4,
            }],
            ..FaultProfile::default()
        };
        assert!((p.corrupt_at(t(9)) - 0.01).abs() < f64::EPSILON);
        assert!((p.corrupt_at(t(12)) - 0.41).abs() < 1e-9);
        assert!((p.corrupt_at(t(15)) - 0.01).abs() < f64::EPSILON);
    }

    #[test]
    fn effective_rates_clamp_to_unit_interval() {
        let p = FaultProfile {
            loss: 0.8,
            loss_dir: [0.8, 0.0],
            ..FaultProfile::default()
        };
        assert!((p.loss_at(t(0), 0) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn last_scheduled_event_covers_gray_shapes() {
        let w = WireId::from_raw(0);
        let plan = ChaosPlan::seeded(1).with_link_fault(
            w,
            FaultProfile {
                ramp: Some(LossRamp {
                    start: t(10),
                    duration: SimDuration::from_millis(40),
                    from: 0.0,
                    to: 0.3,
                }),
                corrupt_windows: vec![CorruptWindow {
                    start: t(20),
                    duration: SimDuration::from_millis(15),
                    probability: 0.2,
                }],
                ..FaultProfile::default()
            },
        );
        assert_eq!(plan.last_scheduled_event(), Some(t(50)));
    }

    #[test]
    fn with_link_fault_replaces_previous_profile() {
        let w = WireId::from_raw(3);
        let plan = ChaosPlan::seeded(0)
            .with_link_fault(w, FaultProfile::lossy(0.5))
            .with_link_fault(w, FaultProfile::lossy(0.1));
        assert_eq!(plan.link_faults.len(), 1);
        assert!((plan.link_faults[0].1.loss - 0.1).abs() < f64::EPSILON);
    }
}
